"""Micro-benchmarks and ablations for the load-bearing kernels.

* equilibrium Gibbs solver throughput (batched states/second),
* EOS ablation: tabulated effective-gamma lookup vs direct Gibbs solve
  (the design choice behind the era's curve-fit EOS codes),
* upwind flux kernels,
* 2-D Euler residual evaluation.

The ``test_bench_kernel_*`` family additionally records its timings
through the ``kernel_bench`` fixture (no pytest-benchmark needed) into
the ``BENCH_kernels.json`` CI artifact — the ROADMAP item-2 per-kernel
perf trajectory: Gibbs equilibrium solve, kinetics source terms,
MUSCL+flux sweep, tangent-slab radiation, NASA-7 evaluation, the
species-profile interpolation and the standard Gibbs function g0/RT
(loop vs vectorized ablations), one boundary-layer solve, one
equilibrium normal shock, one cold 48 x 72 EOS-table build, 24
single-state (T, p) Gibbs solves, fig 6's equilibrium windward march, one
equilibrium-air Navier-Stokes step and fig 7's post-shock relaxation.
"""

import numpy as np
import pytest

from repro.core.gas import IdealGasEOS, TabulatedEOS
from repro.numerics.fluxes import hlle_flux
from repro.numerics.upwind import steger_warming_flux, van_leer_flux
from repro.thermo.eos_table import build_air_table
from repro.thermo.equilibrium import (EquilibriumGas,
                                      air_reference_mass_fractions)
from repro.thermo.species import species_set


@pytest.fixture(scope="module")
def air_gas():
    db = species_set("air11")
    return EquilibriumGas(db, air_reference_mass_fractions(db))


@pytest.fixture(scope="module")
def eos_table():
    return build_air_table(n_rho=32, n_e=48)


@pytest.fixture(scope="module")
def state_batch():
    rng = np.random.default_rng(7)
    rho = 10.0 ** rng.uniform(-5, 0, 2000)
    e = 10.0 ** rng.uniform(5.5, 7.5, 2000)
    return rho, e


def test_bench_equilibrium_solver_batch(benchmark, air_gas):
    rho = np.full(2000, 0.01)
    T = np.linspace(500.0, 12000.0, 2000)
    y = benchmark(air_gas.composition_rho_T, rho, T)
    assert y.shape == (2000, 11)


def test_bench_eos_direct_gibbs(benchmark, air_gas, state_batch):
    """Ablation baseline: full Gibbs solve per (rho, e) state."""
    rho, e = state_batch
    out = benchmark(lambda: air_gas.state_rho_e(rho, e)["p"])
    assert np.all(out > 0)


def test_bench_eos_table_lookup(benchmark, eos_table, state_batch):
    """Ablation: the effective-gamma table on the same states.

    The measured speedup (typically 100-1000x) is the reason the era's
    production codes used curve-fit EOS tables.
    """
    rho, e = state_batch
    out = benchmark(lambda: eos_table.pressure(rho, e))
    assert np.all(out > 0)


def _face_states(n=20000):
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.1, 2.0, n)
    u = rng.uniform(-1500.0, 1500.0, n)
    p = rng.uniform(1e3, 1e6, n)
    e = p / (0.4 * rho)
    U = np.stack([rho, rho * u, rho * (e + 0.5 * u**2)], axis=-1)
    return U[:-1], U[1:]


def test_bench_flux_hlle(benchmark):
    UL, UR = _face_states()
    eos = IdealGasEOS(1.4)
    F = benchmark(hlle_flux, UL, UR, eos)
    assert np.all(np.isfinite(F))


def test_bench_flux_steger_warming(benchmark):
    UL, UR = _face_states()
    F = benchmark(steger_warming_flux, UL, UR, 1.4)
    assert np.all(np.isfinite(F))


def test_bench_flux_van_leer(benchmark):
    UL, UR = _face_states()
    F = benchmark(van_leer_flux, UL, UR, 1.4)
    assert np.all(np.isfinite(F))


def test_bench_euler2d_residual(benchmark):
    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    from repro.solvers.euler2d import AxisymmetricEulerSolver

    body = Hemisphere(1.0)
    grid = blunt_body_grid(body, n_s=41, n_normal=61)
    s = AxisymmetricEulerSolver(grid, IdealGasEOS(1.4))
    s.set_freestream(0.01, 2400.0, 0.01 * 287.0 * 220.0)
    R = benchmark(s.residual, s.U)
    assert R.shape == s.U.shape


def test_bench_ns2d_residual(benchmark):
    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    from repro.solvers.ns2d import AxisymmetricNSSolver

    body = Hemisphere(0.1)
    grid = blunt_body_grid(body, n_s=31, n_normal=51)
    s = AxisymmetricNSSolver(grid, IdealGasEOS(1.4), T_wall=300.0)
    s.set_freestream(5e-4, 1800.0, 5e-4 * 287.0 * 220.0)
    R = benchmark(s.residual, s.U)
    assert R.shape == s.U.shape


def test_bench_kinetics_wdot(benchmark):
    from repro.thermo.kinetics import park_air_mechanism
    mech = park_air_mechanism("air11")
    rng = np.random.default_rng(5)
    y = rng.random((3000, 11))
    y /= y.sum(axis=1, keepdims=True)
    rho = np.full(3000, 0.01)
    T = np.linspace(2000.0, 12000.0, 3000)
    w = benchmark(mech.wdot, rho, T, y)
    assert w.shape == (3000, 11)


# ---------------------------------------------------------------------------
# BENCH_kernels.json trajectory (kernel_bench fixture, plugin-free)
# ---------------------------------------------------------------------------

def test_bench_kernel_gibbs_equilibrium(kernel_bench, air_gas):
    """Gibbs equilibrium solve: batched composition_rho_T."""
    n = 512
    rho = np.full(n, 0.01)
    T = np.linspace(500.0, 12000.0, n)
    y = kernel_bench(air_gas.composition_rho_T, rho, T,
                     label="gibbs_equilibrium", meta={"states": n})
    assert y.shape == (n, 11)


def test_bench_kernel_kinetics_source(kernel_bench):
    """Finite-rate source terms: park_air_mechanism.wdot."""
    from repro.thermo.kinetics import park_air_mechanism
    mech = park_air_mechanism("air11")
    rng = np.random.default_rng(5)
    n = 3000
    y = rng.random((n, 11))
    y /= y.sum(axis=1, keepdims=True)
    rho = np.full(n, 0.01)
    T = np.linspace(2000.0, 12000.0, n)
    w = kernel_bench(mech.wdot, rho, T, y,
                     label="kinetics_source", meta={"cells": n})
    assert w.shape == (n, 11)


def test_bench_kernel_muscl_flux_sweep(kernel_bench):
    """One MUSCL reconstruction + HLLE flux pass over a 1-D line."""
    from repro.numerics.muscl import muscl_interface_states
    UL, UR = _face_states(20000)
    eos = IdealGasEOS(1.4)
    W = np.concatenate([UL, UR[-1:]], axis=0)

    def sweep():
        WL, WR = muscl_interface_states(W, axis=0)
        return hlle_flux(WL, WR, eos)

    F = kernel_bench(sweep, label="muscl_flux_sweep",
                     meta={"faces": W.shape[0] - 1})
    assert np.all(np.isfinite(F))


def test_bench_kernel_tangent_slab(kernel_bench):
    """Tangent-slab radiative wall flux over a synthetic shock layer."""
    from repro.radiation.tangent_slab import tangent_slab_flux
    ny, nw = 64, 256
    y = np.linspace(0.0, 0.05, ny)
    T = np.linspace(2000.0, 11000.0, ny)
    lam = np.linspace(2e-7, 1.2e-6, nw)
    j = (1e9 * np.exp(-((lam[None, :] - 6e-7) / 2e-7) ** 2)
         * (T[:, None] / 1e4) ** 4)
    q, q_lam = kernel_bench(tangent_slab_flux, y, j, T, lam,
                            label="tangent_slab",
                            meta={"layers": ny, "wavelengths": nw})
    assert np.isfinite(q)
    assert q_lam.shape == (nw,)


def test_bench_kernel_nasa7_eval(kernel_bench):
    """NASA-7 cp/h/g0 evaluation over a temperature batch, all species."""
    from repro.thermo.nasa7 import fit_nasa7
    from repro.thermo.statmech import ThermoSet
    db = species_set("air11")
    polys = [fit_nasa7(sp) for sp in ThermoSet(db).each]
    T = np.linspace(300.0, 5800.0, 4000)

    def eval_all():
        return np.stack([p.cp(T) + p.h(T) + p.g0(T) for p in polys],
                        axis=-1)

    out = kernel_bench(eval_all, label="nasa7_eval",
                       meta={"species": len(polys), "T_points": T.size})
    assert out.shape == (T.size, len(polys))


def test_bench_kernel_species_interp(kernel_bench, kernel_records):
    """Species-profile interpolation: per-j listcomp vs interp_columns.

    The vectorized form is what `solvers/vsl.py` and
    `solvers/shock_relaxation.py` now use; the recorded
    ``speedup`` is the measured loop/vectorized ratio.
    """
    from repro.numerics.interp import interp_columns
    rng = np.random.default_rng(11)
    nx, ns, nq = 400, 11, 160
    x = np.linspace(0.0, 1.0, nx)
    Y = rng.normal(size=(nx, ns))
    xq = np.linspace(-0.05, 1.05, nq)

    def loop():
        return np.stack([np.interp(xq, x, Y[:, j]) for j in range(ns)],
                        axis=-1)

    ref = kernel_bench(loop, label="species_interp_loop",
                       meta={"points": nq, "species": ns})
    out = kernel_bench(interp_columns, xq, x, Y,
                       label="species_interp_vectorized",
                       meta={"points": nq, "species": ns})
    assert np.allclose(out, ref, atol=1e-14)

    lo = kernel_records["species_interp_loop"]["median_s"]
    vec = kernel_records["species_interp_vectorized"]["median_s"]
    kernel_records["species_interp_vectorized"]["speedup_vs_loop"] = (
        round(lo / vec, 2))


def test_bench_kernel_thermo_g0(kernel_bench, kernel_records):
    """Standard Gibbs g0/RT of air11: SpeciesThermo loop vs ThermoSet.

    One state is the size of a VSL/PNS Gibbs call (stagnation-figs
    averages ~2.5 states per ``rho_T`` solve); 3,456 is one batch of the
    48 x 72 EOS-table build.  The loop is the per-species stack the
    batched ``ThermoSet`` replaced; ``speedup_vs_loop`` is loop/batched.
    """
    from repro.constants import R_UNIVERSAL
    from repro.thermo.statmech import ThermoSet
    ts = ThermoSet(species_set("air11"))
    for n in (1, 3456):
        T = np.linspace(500.0, 12000.0, n)

        def loop():
            return (np.stack([st.g0(T) for st in ts.each], axis=-1)
                    / (R_UNIVERSAL * T[:, None]))

        meta = {"states": n, "species": len(ts.each)}
        ref = kernel_bench(loop, label=f"thermo_g0_loop_{n}", meta=meta)
        out = kernel_bench(ts.g0_over_RT, T, label=f"thermo_g0_{n}",
                           meta=meta)
        np.testing.assert_array_equal(out, ref)

        lo = kernel_records[f"thermo_g0_loop_{n}"]["median_s"]
        vec = kernel_records[f"thermo_g0_{n}"]["median_s"]
        kernel_records[f"thermo_g0_{n}"]["speedup_vs_loop"] = round(
            lo / vec, 2)


def test_bench_kernel_boundary_layer(kernel_bench, monkeypatch):
    """One real-gas stagnation BL solve: float shooting kernel + profile.

    Recorded under its trace span name, so kernel time x calls
    reconciles with that span's time in a traced figure run.
    ``integrations`` counts the solve's kernel integrations and
    ``rhs_evals`` their right-hand-side calls.
    """
    from repro.solvers import boundary_layer
    from repro.solvers.boundary_layer import StagnationSimilarityBL

    # fixed, kinked closure shaped like the VSL's equilibrium-air table:
    # rho*mu falls with h, with a dissociation shoulder mid-range
    h = np.geomspace(1.5e5, 1.2e7, 48)
    rho_mu = 3e-6 * (h / 1e7) ** -0.3 * (1.0 + 0.2 / (1.0 + (h / 4e6) ** 4))
    bl = StagnationSimilarityBL(h0e=1e7, p_e=3e4, rho_e=0.01, mu_e=1e-4,
                                rho_mu_table=(h, rho_mu))
    hw = 3.5e5                                  # gw = 0.035, as in fig 2

    integrations, rhs_evals = [], []
    kernel = boundary_layer._dopri45_end

    def counted(rhs, y, t_end):
        integrations.append(1)
        return kernel(lambda *z: rhs_evals.append(1) or rhs(*z), y, t_end)

    monkeypatch.setattr(boundary_layer, "_dopri45_end", counted)
    bl.solve(hw)
    monkeypatch.undo()

    sol = kernel_bench(bl.solve, hw, label="solvers.boundary_layer.solve",
                       meta={"knots": h.size, "gw": hw / bl.h0e,
                             "integrations": len(integrations),
                             "rhs_evals": len(rhs_evals)})
    assert sol.fp[-1] == pytest.approx(1.0, abs=1e-4)
    assert sol.gp0 > 0.0


def test_bench_kernel_equilibrium_shock(kernel_bench, monkeypatch, air_gas):
    """One air11 equilibrium normal shock at fig 6's STS-3 freestream.

    Recorded under its trace span name, like the boundary-layer kernel;
    ``rho_T_calls`` is the number of Gibbs (rho, T) solves one shock
    makes.
    """
    from repro.solvers.shock import equilibrium_normal_shock
    from repro.thermo.equilibrium import EquilibriumSolver

    rho1, T1, u1 = 6.895e-5, 216.0, 6740.0
    calls = []
    solve = EquilibriumSolver.solve_rho_T
    monkeypatch.setattr(EquilibriumSolver, "solve_rho_T",
                        lambda self, *a, **kw: (calls.append(1)
                                                or solve(self, *a, **kw)))
    equilibrium_normal_shock(air_gas, rho1, T1, u1)
    monkeypatch.undo()

    res = kernel_bench(equilibrium_normal_shock, air_gas, rho1, T1, u1,
                       label="solvers.shock.equilibrium",
                       meta={"rho_T_calls": len(calls)})
    assert 1.0 / res["eps"] > 10.0


def test_bench_kernel_eos_table_build(kernel_bench, monkeypatch, air_gas):
    """Cold 48 x 72 equilibrium-air EOS table: 3,456 batched Gibbs solves.

    ``EquilibriumEOSTable.build`` bypasses the disk cache, so every round
    is a cold build, the whole of marching-figs' set-up.  Recorded under
    its trace span name.  Over one build, ``rho_T_states`` counts the
    states the ``solve_rho_T`` calls hold, ``jacobian_rows`` the rows the
    Gibbs Newton hands to ``numpy.linalg.solve``, ``newton_iterations``
    those solve calls, ``slope_rows`` the rows of the temperature
    slope's solves (``_T_slope``, counted apart from the Newton), and
    ``ladder_rows`` the rows handed to the per-cell recovery ladder.
    """
    from repro.thermo.eos_table import EquilibriumEOSTable
    from repro.thermo.equilibrium import EquilibriumSolver

    states, rows, slope_rows, ladder, in_slope = [], [], [], [], []
    solve_rho_T, solve = EquilibriumSolver.solve_rho_T, np.linalg.solve
    recover, T_slope = (EquilibriumSolver._recover_cells,
                        EquilibriumSolver._T_slope)

    def counted_rho_T(self, rho, T, *a, **kw):
        states.append(np.broadcast(rho, T).size)
        return solve_rho_T(self, rho, T, *a, **kw)

    def counted_recover(self, idx, *a, **kw):
        ladder.append(idx.size)
        return recover(self, idx, *a, **kw)

    def counted_slope(self, *a):
        in_slope.append(1)
        try:
            return T_slope(self, *a)
        finally:
            in_slope.pop()

    def counted_solve(a, b):
        (slope_rows if in_slope else rows).append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(EquilibriumSolver, "solve_rho_T", counted_rho_T)
    monkeypatch.setattr(EquilibriumSolver, "_recover_cells",
                        counted_recover)
    monkeypatch.setattr(EquilibriumSolver, "_T_slope", counted_slope)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    EquilibriumEOSTable.build(air_gas, n_rho=48, n_e=72)
    monkeypatch.undo()

    tab = kernel_bench(EquilibriumEOSTable.build, air_gas, n_rho=48, n_e=72,
                       label="thermo.eos_table.build",
                       meta={"states": 48 * 72, "rho_T_calls": len(states),
                             "rho_T_states": sum(states),
                             "jacobian_rows": sum(rows),
                             "newton_iterations": len(rows),
                             "slope_rows": sum(slope_rows),
                             "ladder_rows": sum(ladder)})
    assert tab.gamma.shape == (48, 72)
    assert np.all((tab.gamma > 1.0) & (tab.gamma < 1.7))


def test_bench_kernel_equilibrium_T_p(kernel_bench, monkeypatch):
    """Single-state (T, p) Gibbs solves, the service's equilibrium
    requests and the VSL's edge states: eight per gas over the service
    pool's range (300-12,000 K, 1e2-1e6 Pa) for equilibrium air, Titan
    and Jupiter, 24 ``solve_T_p`` calls per round.

    Recorded under the trace span name of ``solve_T_p``.  Over one
    round, ``inner_solves`` counts the density passes' (rho, T) solves,
    ``g0_calls`` the ``g0_over_RT`` evaluations and
    ``newton_iterations`` the Gibbs Newton's ``numpy.linalg.solve``
    calls.
    """
    from repro.core.api import make_gas
    from repro.thermo.equilibrium import EquilibriumSolver
    from repro.thermo.statmech import ThermoSet

    u = (np.arange(8) + 0.5) / 8.0
    v = ((3 * np.arange(8)) % 8 + 0.5) / 8.0
    states = list(zip(300.0 + 11700.0 * u, 10.0 ** (2.0 + 4.0 * v)))
    gases = [make_gas(name, cached=False)
             for name in ("equilibrium-air", "titan", "jupiter")]

    def solve_all():
        return [gas.solver.solve_T_p(T, p, gas.b)
                for gas in gases for T, p in states]

    inner, g0, solves = [], [], []
    flat, g0_over_RT = EquilibriumSolver._solve_flat, ThermoSet.g0_over_RT
    solve = np.linalg.solve
    monkeypatch.setattr(EquilibriumSolver, "_solve_flat",
                        lambda self, *a: inner.append(1) or flat(self, *a))
    monkeypatch.setattr(ThermoSet, "g0_over_RT",
                        lambda self, T: g0.append(1) or g0_over_RT(self, T))
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solves.append(1) or solve(a, b))
    solve_all()
    monkeypatch.undo()

    out = kernel_bench(solve_all, label="thermo.equilibrium.T_p",
                       meta={"solves": len(gases) * len(states),
                             "inner_solves": len(inner),
                             "g0_calls": len(g0),
                             "newton_iterations": len(solves)})
    assert len(g0) == len(out)
    for y, rho in out:
        assert np.isclose(y.sum(), 1.0) and rho > 0.0


def test_bench_kernel_pns_solve(kernel_bench, monkeypatch, air_gas):
    """Fig 6's equilibrium windward march at the STS-3 point.

    30 stations, the fully and the partially catalytic wall from one
    march, as fig 6 quick asks.  Recorded under the trace span name of
    ``solve``; ``T_p_calls`` is the number of ``solve_T_p`` calls one
    march makes.
    """
    from repro.atmosphere import EarthAtmosphere
    from repro.experiments.fig6_windward_heating import CONDITION
    from repro.geometry import OrbiterWindwardProfile
    from repro.solvers.pns import WindwardHeatingPNS
    from repro.thermo.equilibrium import EquilibriumSolver

    atm = EarthAtmosphere()
    point = dict(rho_inf=float(atm.density(CONDITION["h"])),
                 T_inf=float(atm.temperature(CONDITION["h"])),
                 V=CONDITION["V"], T_wall=CONDITION["T_wall"],
                 n_stations=30, catalytic_phi=(1.0, 0.15))
    pns = WindwardHeatingPNS(OrbiterWindwardProfile(
        alpha_deg=CONDITION["alpha_deg"], nose_radius=1.3), gas=air_gas)

    calls = []
    solve_T_p = EquilibriumSolver.solve_T_p
    monkeypatch.setattr(EquilibriumSolver, "solve_T_p",
                        lambda self, *a, **kw: (calls.append(1)
                                                or solve_T_p(self, *a,
                                                             **kw)))
    pns.solve(**point)
    monkeypatch.undo()

    eq, partial = kernel_bench(pns.solve, label="solvers.pns.solve",
                               meta={"stations": 30,
                                     "T_p_calls": len(calls)},
                               **point)
    assert np.all(partial.q < eq.q)


def test_bench_kernel_ns2d_step_tabulated(kernel_bench, monkeypatch):
    """One equilibrium-air NS step on fig 9's quick setup.

    31 x 41 hemisphere grid, Mach 20 at 20 km, the default 48 x 72
    table, after 50 warm-up steps; every round advances the march by one
    step.  Recorded under the trace span name of ``step``;
    ``table_locates`` is the number of table locates one step makes.
    """
    from repro.atmosphere import EarthAtmosphere
    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    from repro.solvers.ns2d import AxisymmetricNSSolver
    from repro.thermo.eos_table import EquilibriumEOSTable

    atm = EarthAtmosphere()
    rho = float(atm.density(20e3))
    T = float(atm.temperature(20e3))
    grid = blunt_body_grid(Hemisphere(0.1), n_s=31, n_normal=41,
                           density_ratio=0.08, margin=3.0,
                           wall_cluster_beta=1.8)
    s = AxisymmetricNSSolver(grid, TabulatedEOS(), T_wall=1500.0)
    s.set_freestream(rho, 20.0 * float(atm.sound_speed(20e3)),
                     rho * atm.gas_constant * T)
    for _ in range(50):
        s.step(0.3)

    calls = []
    locate = EquilibriumEOSTable._locate
    monkeypatch.setattr(EquilibriumEOSTable, "_locate",
                        lambda self, *a: calls.append(1) or locate(self,
                                                                   *a))
    s.step(0.3)
    monkeypatch.undo()

    res = kernel_bench(s.step, 0.3, label="solvers.euler2d.step",
                       meta={"cells": grid.ni * grid.nj,
                             "table_locates": len(calls)})
    assert np.isfinite(res)


def test_bench_kernel_shock_relaxation_solve(kernel_bench, monkeypatch):
    """Fig 7's quick relaxation solve: air11, 10 km/s at 0.1 Torr.

    Recorded under its trace span name.  ``rhs_evals`` counts every call
    of the ODE right-hand side (the BDF's finite-difference Jacobian
    columns included, which ``solve_ivp``'s ``nfev`` leaves out);
    ``wdot_per_rhs`` is the number of kinetics evaluations each makes;
    ``newton_evals`` counts the Tv Newton's e_v evaluations over the
    solve's ``Tv_from_ev`` calls (one per RHS and one per output
    station).
    """
    from repro.experiments.fig7_shock_relaxation import CONDITION
    from repro.solvers.shock_relaxation import ShockRelaxationSolver
    from repro.thermo.kinetics import ReactionMechanism
    from repro.thermo.statmech import ThermoSet

    solver = ShockRelaxationSolver("air11")
    kw = dict(CONDITION, x_end=0.02, n_out=120, rtol=1e-6)
    closures, wdots, evs = [], [], []
    closure, wdot = ShockRelaxationSolver._closure, ReactionMechanism.wdot
    e_cv = ThermoSet.e_cv_vib_el_mass
    monkeypatch.setattr(ShockRelaxationSolver, "_closure",
                        lambda self, *a: closures.append(1) or closure(self,
                                                                       *a))
    monkeypatch.setattr(ReactionMechanism, "wdot",
                        lambda self, *a, **k: wdots.append(1)
                        or wdot(self, *a, **k))
    monkeypatch.setattr(ThermoSet, "e_cv_vib_el_mass",
                        lambda self, Tv: evs.append(1) or e_cv(self, Tv))
    solver.solve(**kw)
    monkeypatch.undo()

    # the closure runs once per RHS and once per output station
    rhs_evals = len(closures) - (kw["n_out"] + 1)
    prof = kernel_bench(solver.solve, label="solvers.shock_relaxation.solve",
                        meta={"rhs_evals": rhs_evals,
                              "wdot_per_rhs": len(wdots) / rhs_evals,
                              "newton_evals": len(evs)},
                        **kw)
    assert prof.T[-1] < 0.3 * prof.T[0]


def test_bench_kernel_entry_integrate(kernel_bench, monkeypatch):
    """Fig 1's three quick entry trajectories (shuttle, AOTV, TAV).

    Recorded under its trace span name: the kernel is the three
    ``integrate_entry`` calls of ``fig1_flight_domain.run(quick=True)``.
    ``rhs_evals`` counts the RK45 right-hand-side calls over the three,
    ``layer_lookups`` the USSA76 layer lookups those calls make (one per
    ``density`` call).
    """
    from repro.atmosphere import EarthAtmosphere
    from repro.experiments import fig1_flight_domain
    from repro.trajectory import AOTV, SHUTTLE, TAV, integrate_entry

    atm = EarthAtmosphere()
    cases = ((SHUTTLE, dict(h0=120e3, V0=7800.0, gamma0_deg=-1.2)),
             (AOTV, dict(h0=122e3, V0=9800.0, gamma0_deg=-4.7,
                         t_max=1200.0)),
             (TAV, dict(h0=80e3, V0=6500.0, gamma0_deg=-0.5, t_max=1500.0,
                        V_stop=800.0)))

    def three():
        return [integrate_entry(veh, atm, rtol=1e-6, **kw)
                for veh, kw in cases]

    densities, lookups = [], []
    density, lookup = EarthAtmosphere.density, EarthAtmosphere._layer_index
    monkeypatch.setattr(EarthAtmosphere, "density",
                        lambda self, h: densities.append(1)
                        or density(self, h))
    monkeypatch.setattr(EarthAtmosphere, "_layer_index",
                        lambda self, hgp: lookups.append(1)
                        or lookup(self, hgp))
    three()
    monkeypatch.undo()

    trajectories = kernel_bench(three, label="trajectory.entry.integrate",
                                meta={"trajectories": len(cases),
                                      "rhs_evals": len(densities),
                                      "layer_lookups": len(lookups)})
    reference = fig1_flight_domain.run(quick=True)["vehicles"]["shuttle"]
    np.testing.assert_array_equal(
        trajectories[0].V[(trajectories[0].h < 125e3)
                          & (trajectories[0].mach > 0.5)],
        reference["velocity"])
