"""Nonequilibrium blunt-body flow: frozen vs finite-rate vs equilibrium.

The paper's "biggest challenge" demonstrated end to end: the same Mach-15
sphere computed with (a) frozen chemistry (ideal gas), (b) finite-rate
Park kinetics coupled to the flow solver, and (c) the equilibrium
limit — showing the shock standoff and stagnation temperature migrate
from the frozen values toward equilibrium as chemistry is turned on.

Run:  python examples/nonequilibrium_blunt_body.py
"""

import numpy as np

from repro.core.gas import IdealGasEOS
from repro.geometry import Sphere
from repro.grid import blunt_body_grid
from repro.postprocess.tables import format_table
from repro.solvers.euler2d import AxisymmetricEulerSolver
from repro.solvers.reacting_euler2d import ReactingEulerSolver
from repro.solvers.shock import equilibrium_normal_shock
from repro.thermo.equilibrium import (EquilibriumGas,
                                      air_reference_mass_fractions)
from repro.thermo.species import species_set

RN = 0.3
RHO, T_INF, V = 1e-3, 240.0, 5000.0


def main():
    y0 = np.zeros(5)
    y0[0], y0[1] = 0.767, 0.233

    # (a) frozen: ideal-gas Euler
    grid = blunt_body_grid(Sphere(RN), n_s=21, n_normal=31,
                           density_ratio=0.17, margin=2.8)
    frozen = AxisymmetricEulerSolver(grid, IdealGasEOS(1.4))
    frozen.set_freestream(RHO, V, RHO * 287.05 * T_INF)
    frozen.run(n_steps=900, cfl=0.35)

    # (b) finite rate
    grid2 = blunt_body_grid(Sphere(RN), n_s=21, n_normal=31,
                            density_ratio=0.12, margin=2.8)
    noneq = ReactingEulerSolver(grid2, "air5")
    noneq.set_freestream(RHO, V, T_INF, y0)
    noneq.run(n_steps=700, cfl=0.3)

    # (c) equilibrium limit (shock relations)
    db = species_set("air5")
    gas = EquilibriumGas(db, air_reference_mass_fractions(db))
    eq = equilibrium_normal_shock(gas, RHO, T_INF, V)

    f_fr = frozen.fields()
    f_ne = noneq.fields()
    rows = [
        ("frozen (ideal gas)", f_fr["T"].max(),
         frozen.stagnation_standoff() / RN, "-"),
        ("finite-rate Park air5", f_ne["T"].max(),
         noneq.stagnation_standoff() / RN,
         f"{f_ne['y'][0, 0, db.index['N']]:.3f}"),
        ("equilibrium limit", eq["T2"],
         0.78 * eq["eps"], "(shock relations)"),
    ]
    print(f"Mach-15-class sphere (V = {V:.0f} m/s, rho = {RHO} kg/m^3, "
          f"R_n = {RN} m)")
    print(format_table(
        ["model", "peak/post-shock T [K]", "standoff / R_n",
         "stagnation y_N"], rows))
    print("\nThe finite-rate solution sits between the frozen and "
          "equilibrium limits — the nonequilibrium shock layer the "
          "paper's NS codes were built to capture. O2 is consumed "
          f"(y_O2 = {f_ne['y'][0, 0, db.index['O2']]:.4f} at the "
          "stagnation point) while N2 is only partially dissociated.")

    degrade_demo()


def degrade_demo():
    """Graceful degradation, both layers of it.

    Solver layer: a fault-injected reacting march that the plain
    rollback ladder cannot survive completes once the degradation
    cascade is armed (quarantined first-order zone, chemistry demotion,
    automatic re-promotion — all recorded in the ledger).

    Service layer: ``evaluate_batch`` drops a failing stagnation solve
    one model rung down to the correlation-level answer and records the
    failure in the request's envelope instead of raising.
    """
    from repro.resilience import FaultInjector, RetryPolicy
    from repro.service import evaluate_batch

    print("\n--- graceful degradation demo ---")
    grid = blunt_body_grid(Sphere(0.05), n_s=9, n_normal=13,
                           density_ratio=0.12, margin=2.5)
    s = ReactingEulerSolver(grid, "air5")
    y0 = np.zeros(5)
    y0[0], y0[1] = 0.767, 0.233
    s.set_freestream(1e-3, 5000.0, 250.0, y0)
    faults = FaultInjector().inject_perturbation(
        step=10, cell=(4, 6), component=0, factor=1e-4, persistent=True)
    s.run(n_steps=40, cfl=0.4,
          resilience=RetryPolicy(max_retries=1, cfl_backoff=0.8,
                                 cfl_min=0.2),
          faults=faults, watchdog=True, degradation=True)
    print(f"fault-injected march completed {s.steps} steps; ledger:")
    print(s.degradation_ledger.summary())

    # a subsonic "entry" fails the shock solve; the batch service answers
    # with Sutton-Graves / Tauber-Sutton correlations instead of raising
    [env] = evaluate_batch([{"method": "stagnation", "V": 10.0,
                             "h": 60e3, "nose_radius": 1.0}]).envelopes
    [failed] = env.degradation
    print(f"\nservice model-ladder fallback: {env.status} "
          f"(rung: {env.rung}; {failed['rung']} failed with "
          f"{failed['error_type']}), "
          f"q_conv = {env.result['q_conv']:.3g} W/m^2")


if __name__ == "__main__":
    main()
