"""Bitwise digest of a source tree's answers, one JSON object on stdout.

Usage::

    HOME=$(mktemp -d) python benchmarks/bitwise_digest.py TREE > digest.json

``TREE`` is a checkout of this repository (its ``src`` and ``perfbench``
directories are imported).  Two trees give the same answers, bit for
bit, when their digests are equal; a scratch ``HOME`` per tree keeps
each side from reading the other's cached EOS table.  Each entry hashes
the float64 bytes of:

* ``fig9``, ``fig4``: fig 9's NS march and fig 4's two Euler marches
  (``U``, ``U_inf``, ``t``, ``steps``, residual history);
* ``leaves``: every numeric leaf of the nine quick figures through
  ``perfbench/check.py::flatten``, one [count, digest] per figure;
* ``reacting``: the reacting chaos case's final ``U`` and ``T``;
* ``fig7_full``: fig 7's full (non-quick) relaxation profile;
* ``two_temperature``: a 30-step two-temperature reacting march;
* ``ladder``: the five-rung continuation-ladder BL solve;
* ``heavy0``, ``heavy1``: perfbench's two heavy requests through the
  library;
* ``service_light``, ``service_heavy``: the 1,800 light requests of
  ``workloads.light_pool()`` as one ``evaluate_batch`` call, and both
  heavy requests through ``evaluate_batch`` in-process.
"""

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np


def h(*arrays):
    """sha256 over the C-ordered float64 bytes of each argument."""
    m = hashlib.sha256()
    for x in arrays:
        m.update(np.ascontiguousarray(np.asarray(x, float)).tobytes())
    return m.hexdigest()


def march(s):
    return h(s.U, s.U_inf, s.t, s.steps, s.residual_history)


def digest(repo):
    sys.path[:0] = [os.path.join(repo, "src"),
                    os.path.join(repo, "perfbench")]
    from check import flatten
    from repro.experiments import runner, fig4_shock_shape as f4
    from repro.resilience.chaos import CASES

    def tree(result):
        return hashlib.sha256(json.dumps(
            {k: h(v) for k, v in flatten(result).items()},
            sort_keys=True).encode()).hexdigest()

    fig4, solve = [], f4._solve_one

    def keep(*a, **k):
        fig4.append(solve(*a, **k))
        return fig4[-1]
    f4._solve_one = keep
    out, leaves = {}, {}
    for name, mod in runner._MODULES:
        r = mod.run(quick=True)
        if name == "fig9":
            out["fig9"] = march(r["solver"])
        fl = {k: h(v) for k, v in flatten(r, name).items()}
        leaves[name] = [len(fl), hashlib.sha256(
            json.dumps(fl, sort_keys=True).encode()).hexdigest()]
    out["fig4"] = [march(s) for s, _, _ in fig4]
    out["leaves"] = leaves

    s = CASES["reacting_euler2d"][0]()
    s.run(**CASES["reacting_euler2d"][1])
    out["reacting"] = h(s.U, s.T)

    from repro.experiments.fig7_shock_relaxation import CONDITION
    from repro.solvers.shock_relaxation import ShockRelaxationSolver
    p = ShockRelaxationSolver("air11").solve(x_end=0.06, n_out=300,
                                             rtol=1e-8, **CONDITION)
    out["fig7_full"] = h(p.x, p.T, p.Tv, p.y, p.rho, p.u, p.p)

    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    from repro.solvers.reacting_euler2d import ReactingEulerSolver
    s = ReactingEulerSolver(blunt_body_grid(Hemisphere(0.05), n_s=9,
                                            n_normal=13, density_ratio=0.12,
                                            margin=2.5),
                            "air5", chemistry_model="two_temperature")
    y = np.zeros(5)
    y[0], y[1] = 0.767, 0.233
    s.set_freestream(1e-3, 5000.0, 250.0, y).run(n_steps=30, cfl=0.3)
    out["two_temperature"] = h(s.U, s.T, s.Tv, s.ev)

    from repro.solvers.boundary_layer import solve_falkner_skan
    b = solve_falkner_skan(
        0.5, Pr=0.71, gw=0.05, _guess=(0.01, 2.0),
        C_table=(np.linspace(0.02, 1.0, 12),
                 [3.0, 2.0, 1.66, 1.52, 1.42, 1.34, 1.27, 1.21, 1.15, 1.09,
                  1.05, 1.0]))
    out["ladder"] = h(b.eta, b.f, b.fp, b.g, b.fpp0, b.gp0)

    from repro.core import api
    out["heavy0"] = tree(api.stagnation_environment(
        V=6740.0, h=71300.0, nose_radius=1.3, gas="equilibrium-air"))
    out["heavy1"] = [tree(api.windward_heating(
        V=6100.0, h=74000.0, alpha_deg=40.0, gas="equilibrium-air",
        catalytic_phi=phi)) for phi in (1.0, 0.2)]

    import workloads
    pool = workloads.light_pool()
    ids = sorted(pool)
    envs = workloads.batch.evaluate_batch([pool[i] for i in ids],
                                          workloads.POLICY).envelopes
    if not all(e.status == "ok" for e in envs):
        raise SystemExit("a light request failed")
    out["service_light"] = hashlib.sha256(json.dumps(
        {i: tree(e.result) for i, e in zip(ids, envs)},
        sort_keys=True).encode()).hexdigest()
    solo = dataclasses.replace(workloads.POLICY, isolate="never")
    out["service_heavy"] = [tree(workloads.batch.evaluate_batch(
        [r], solo).envelopes[0].result) for _, r in workloads.HEAVY]
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python benchmarks/bitwise_digest.py TREE")
    print(json.dumps(digest(os.path.abspath(sys.argv[1])), indent=1))
