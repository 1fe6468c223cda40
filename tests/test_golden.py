"""Figure, march and service outputs pinned to recorded references.

Runs every figure of the two figure workloads with the benchmark's own
arguments (``stagnation-figs``: figs 2, 3 and 6 quick; ``marching-figs``:
figs 1, 5, 8 and 9 quick), the benchmark's two heavy service requests
(a VSL stagnation and a PNS windward request, the only ones that reach
the boundary layer) and its whole pool of light service requests
(correlation and equilibrium, as one batch), and compares every numeric
leaf with ``perfbench/reference/figures.json`` and ``requests.json``
through the benchmark's gate, ``perfbench/check.py::compare`` (rtol
1e-4).  The perfbench files are only read here: a change that moves
these answers must justify the diff rather than re-record the
reference.

The runs the benchmark does not cover -- figs 4 and 7 quick, the
reacting solver's chaos case and a 30-step two-temperature reacting
march -- are pinned the same way against ``tests/golden/marches.json``,
recorded with ``check.to_record``.  Figs 4 and 9 are pinned at their
capped transients (1,200 steps), not at a settled shock.  Re-record the
golden file on purpose only, with ``PYTHONPATH=src python
tests/test_golden.py``.
"""

import dataclasses
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.experiments import fig4_shock_shape, fig7_shock_relaxation
from repro.geometry import Hemisphere
from repro.grid import blunt_body_grid
from repro.resilience.chaos import CASES
from repro.solvers.reacting_euler2d import ReactingEulerSolver

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "marches.json"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")


@pytest.fixture(scope="module")
def references():
    return check.load("figures")


@pytest.mark.parametrize(
    "name, module, kwargs", workloads.FIGURES["stagnation-figs"],
    ids=[name for name, _, _ in workloads.FIGURES["stagnation-figs"]])
def test_stagnation_figure_matches_reference(references, name, module,
                                             kwargs):
    assert check.compare(name, module.run(**kwargs),
                         references[name]) is None


@pytest.mark.parametrize(
    "name, module, kwargs", workloads.FIGURES["marching-figs"],
    ids=[name for name, _, _ in workloads.FIGURES["marching-figs"]])
def test_marching_figure_matches_reference(references, name, module,
                                           kwargs):
    assert check.compare(name, module.run(**kwargs),
                         references[name]) is None


@pytest.fixture(scope="module")
def request_references():
    return check.load("requests")


@pytest.mark.parametrize("name, request_", workloads.HEAVY,
                         ids=[name for name, _ in workloads.HEAVY])
def test_heavy_request_matches_reference(request_references, name,
                                         request_):
    # in-process rather than in the benchmark's sandbox child
    policy = dataclasses.replace(workloads.POLICY, isolate="never")
    [env] = workloads.batch.evaluate_batch([request_], policy).envelopes
    assert env.status == "ok", env.error
    assert check.compare(name, env.result,
                         request_references[name]) is None


def test_light_requests_match_reference(request_references):
    """The 1,800 correlation and equilibrium requests of the service
    workload's pool, sent as one batch with the benchmark's policy."""
    pool = workloads.light_pool()
    ids = sorted(pool)
    result = workloads.batch.evaluate_batch([pool[i] for i in ids],
                                            workloads.POLICY)
    failed = {i: e.error for i, e in zip(ids, result.envelopes)
              if e.status != "ok"}
    assert not failed
    mismatched = {}
    for pid, env in zip(ids, result.envelopes):
        why = check.compare(pid, env.result, request_references[pid])
        if why is not None:
            mismatched[pid] = why
    assert not mismatched


def _reacting_chaos_case():
    """The chaos matrix's reacting march: final state and T field."""
    make, run_kwargs = CASES["reacting_euler2d"][:2]
    s = make()
    s.run(**run_kwargs)
    return {"U": s.U, "T": s.T}


def _two_temperature_march():
    """30 two-temperature steps on the chaos case's grid and freestream."""
    grid = blunt_body_grid(Hemisphere(0.05), n_s=9, n_normal=13,
                           density_ratio=0.12, margin=2.5)
    s = ReactingEulerSolver(grid, "air5",
                            chemistry_model="two_temperature")
    y = np.zeros(s.ns)
    y[s.db.index["N2"]] = 0.767
    y[s.db.index["O2"]] = 0.233
    s.set_freestream(1e-3, 5000.0, 250.0, y).run(n_steps=30, cfl=0.3)
    return {"U": s.U, "T": s.T, "Tv": s.Tv, "ev": s.ev}


#: name -> run whose output ``tests/golden/marches.json`` pins
GOLDEN_RUNS = {
    "fig4": lambda: fig4_shock_shape.run(quick=True),
    "fig7": lambda: fig7_shock_relaxation.run(quick=True),
    "reacting_euler2d": _reacting_chaos_case,
    "two_temperature": _two_temperature_march,
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_matches_golden_record(golden, name):
    assert check.compare(name, GOLDEN_RUNS[name](), golden[name]) is None


if __name__ == "__main__":
    records = {name: check.to_record(name, run())
               for name, run in sorted(GOLDEN_RUNS.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(records, f, sort_keys=True, separators=(",", ":"),
                  allow_nan=True)
        f.write("\n")
    print(f"recorded {', '.join(records)} in {GOLDEN}")
