"""Outside-in span tracer for the benchmark's traced pass.

The package has no tracing of its own, so the traced pass wraps each
layer's public functions at run time, from outside: a wrapped call
becomes a span that records calls, total time and self time (its
duration minus the part covered by child spans).  Nothing under
``src/`` changes, and an untraced run installs no wrapper at all.

Sandboxed requests run in forked children; :func:`install` also wraps
the callable handed to ``IsolatedRunner.run_callable`` so that the
child ships its span table back with its result.  The parent merges it,
which leaves the sandbox span's self time as the fork, supervision and
pickle overhead alone.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

#: (span name, module, attribute path, scope).  ``scope="global"``
#: rebinds every ``repro`` module that imported the function by name;
#: ``"module"`` rebinds only that module's own binding (used for
#: ``solve_ivp``, which several modules import from scipy).
SPANS = [
    *[(f"experiments.fig{i}", f"repro.experiments.{mod}", "run", "global")
      for i, mod in ((1, "fig1_flight_domain"), (2, "fig2_titan_heating"),
                     (3, "fig3_species_profiles"),
                     (5, "fig5_orbiter_geometry"),
                     (6, "fig6_windward_heating"),
                     (7, "fig7_shock_relaxation"), (8, "fig8_spectra"),
                     (9, "fig9_n2_contours"))],
    ("solvers.boundary_layer.solve", "repro.solvers.boundary_layer",
     "solve_falkner_skan", "global"),
    ("solvers.boundary_layer.ode", "repro.solvers.boundary_layer",
     "solve_ivp", "module"),
    ("thermo.equilibrium.rho_T", "repro.thermo.equilibrium",
     "EquilibriumSolver.solve_rho_T", "global"),
    ("thermo.equilibrium.T_p", "repro.thermo.equilibrium",
     "EquilibriumSolver.solve_T_p", "global"),
    ("thermo.equilibrium.rho_e", "repro.thermo.equilibrium",
     "EquilibriumSolver.solve_rho_e", "global"),
    ("solvers.shock.equilibrium", "repro.solvers.shock",
     "equilibrium_normal_shock", "global"),
    ("solvers.vsl.solve", "repro.solvers.vsl", "StagnationVSL.solve",
     "global"),
    ("solvers.pns.solve", "repro.solvers.pns", "WindwardHeatingPNS.solve",
     "global"),
    ("solvers.euler2d.step", "repro.solvers.euler2d",
     "AxisymmetricEulerSolver.step", "global"),
    ("numerics.fluxes.hlle", "repro.numerics.fluxes", "hlle_flux",
     "global"),
    ("numerics.muscl.states", "repro.numerics.muscl",
     "muscl_interface_states", "global"),
    ("thermo.eos_table.lookup", "repro.thermo.eos_table",
     "EquilibriumEOSTable.lookup", "global"),
    ("thermo.eos_table.build", "repro.thermo.eos_table",
     "EquilibriumEOSTable.build", "global"),
    ("solvers.shock_relaxation.solve", "repro.solvers.shock_relaxation",
     "ShockRelaxationSolver.solve", "global"),
    ("solvers.shock_relaxation.ode", "repro.solvers.shock_relaxation",
     "solve_ivp", "module"),
    ("thermo.kinetics.wdot", "repro.thermo.kinetics",
     "ReactionMechanism.wdot", "global"),
    ("transport.properties.viscosity", "repro.transport.properties",
     "TransportModel.viscosity", "global"),
    ("radiation.spectra.emission", "repro.radiation.spectra",
     "EmissionModel.emission_coefficient", "global"),
    ("radiation.tangent_slab.flux", "repro.radiation.tangent_slab",
     "tangent_slab_flux", "global"),
    ("radiation.neqair.radiance", "repro.radiation.neqair",
     "NonequilibriumRadiator.spectral_radiance", "global"),
    ("trajectory.entry.integrate", "repro.trajectory.entry",
     "integrate_entry", "global"),
    ("service.batch.evaluate", "repro.service.batch", "evaluate_batch",
     "global"),
    ("service.request.validate", "repro.service.request",
     "validate_request", "global"),
    ("core.api.stagnation", "repro.core.api", "stagnation_environment",
     "global"),
    ("core.api.windward", "repro.core.api", "windward_heating", "global"),
    ("resilience.isolation.sandbox", "repro.resilience.isolation",
     "IsolatedRunner.run_callable", "global"),
]

#: Counters beyond calls/total/self, as reported in the per-layer table.
COUNTERS = ["solvers.boundary_layer.ode.rhs_evals",
            "thermo.equilibrium.rho_T.states",
            "thermo.equilibrium.T_p.states",
            "thermo.equilibrium.rho_e.states",
            "solvers.shock_relaxation.ode.rhs_evals"]

#: The benchmark's own calibration kernel (see :mod:`speed`): a span so
#: that its time is not charged to the program span it interrupts, and
#: left out of the per-layer metrics.
CALIBRATION = "perfbench.calibration"

_CHILD_MARK = "perfbench-span-table"


def _nfev(counter):
    def after(tracer, args, kwargs, out):
        tracer.counts[counter] += int(getattr(out, "nfev", 0))
    return after


def _states(counter):
    """Summed input size of an ``EquilibriumSolver.solve_*`` call: the
    broadcast size of its two state arguments (after ``self``)."""
    def after(tracer, args, kwargs, out):
        shape = np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))
        tracer.counts[counter] += int(np.prod(shape, dtype=np.int64))
    return after


_AFTER = {
    "solvers.boundary_layer.ode":
        _nfev("solvers.boundary_layer.ode.rhs_evals"),
    "solvers.shock_relaxation.ode":
        _nfev("solvers.shock_relaxation.ode.rhs_evals"),
    "thermo.equilibrium.rho_T": _states("thermo.equilibrium.rho_T.states"),
    "thermo.equilibrium.T_p": _states("thermo.equilibrium.T_p.states"),
    "thermo.equilibrium.rho_e": _states("thermo.equilibrium.rho_e.states"),
}


class Tracer:
    """In-memory span table: ``name -> [calls, total_ns, self_ns]``.

    Single-threaded by construction (the benchmark client starts no
    threads), so the open-span stack is a plain list whose top holds
    the time covered by the current span's children.
    """

    def __init__(self):
        self.spans = {name: [0, 0, 0] for name, *_ in SPANS}
        self.spans[CALIBRATION] = [0, 0, 0]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [0]

    def wrap(self, name, fn):
        rec, stack = self.spans[name], self._stack
        after = _AFTER.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                stack[-1] += dt
            if after is not None:
                after(self, args, kwargs, out)
            return out
        return span

    def self_total_ns(self) -> int:
        return sum(rec[2] for rec in self.spans.values())

    # -- sandbox children ---------------------------------------------

    def _reset_in_child(self):
        # the wrappers hold these very lists, so clear them in place
        for rec in self.spans.values():
            rec[:] = [0, 0, 0]
        for k in self.counts:
            self.counts[k] = 0
        self._stack[:] = [0]

    def _export(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts), "covered_ns": self._stack[0]}

    def _merge(self, table: dict, covered_before: int):
        for name, (calls, total, self_ns) in table["spans"].items():
            rec = self.spans[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_ns
        for k, v in table["counts"].items():
            self.counts[k] += v
        # The child's spans cover the sandbox span.  Calibration samples
        # the parent took while it waited ran in parallel on another
        # core, so they must not also be subtracted from its self time.
        self._stack[-1] = covered_before + table["covered_ns"]

    def traced_run_callable(self, run_callable):
        """``IsolatedRunner.run_callable`` whose child returns its span
        table with the result; the parent merges it before the sandbox
        span closes."""
        tracer = self

        def run(runner, fn, args=(), kwargs=None, **kw):
            def child(*a, **k):
                tracer._reset_in_child()
                out = fn(*a, **k)
                return (_CHILD_MARK, out, tracer._export())

            covered_before = tracer._stack[-1]
            res = run_callable(runner, child, args, kwargs, **kw)
            if (isinstance(res, tuple) and len(res) == 3
                    and res[0] == _CHILD_MARK):
                tracer._merge(res[2], covered_before)
                return res[1]
            return res
        return run

    # -- per-layer metrics --------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, (calls, total, self_ns) in self.spans.items():
            if name == CALIBRATION:
                continue
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total / 1e9, "s")
            out[f"{name}.self_s"] = (self_ns / 1e9, "s")
        for name, v in self.counts.items():
            unit = "states" if name.endswith(".states") else "count"
            out[name] = (v, unit)
        solves = self.spans["solvers.boundary_layer.solve"][0]
        odes = self.spans["solvers.boundary_layer.ode"][0]
        out["solvers.boundary_layer.integrations_per_solve"] = (
            odes / solves if solves else 0.0, "ratio")
        rho_t = self.spans["thermo.equilibrium.rho_T"][0]
        out["thermo.equilibrium.rho_T.states_per_call"] = (
            self.counts["thermo.equilibrium.rho_T.states"] / rho_t
            if rho_t else 0.0, "states")
        return out


def import_targets() -> None:
    """Import every module that holds a span target.  Traced and
    untraced runs both call this in set-up, so they differ only by the
    wrappers."""
    for _, module_name, _, _ in SPANS:
        importlib.import_module(module_name)


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *outer, leaf = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer) -> None:
    """Wrap every span target in :data:`SPANS` for the life of the
    process.  Call after the workload's modules are imported, so that
    every ``from x import f`` binding already exists to be rebound."""
    for name, module_name, attr_path, scope in SPANS:
        owner, leaf = _resolve(module_name, attr_path)
        raw = owner.__dict__[leaf]
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(name,
                                                         raw.__func__)))
            continue
        fn = raw
        if name == "resilience.isolation.sandbox":
            fn = tracer.traced_run_callable(raw)
        wrapped = tracer.wrap(name, fn)
        setattr(owner, leaf, wrapped)
        if scope != "global" or isinstance(owner, type):
            continue
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
