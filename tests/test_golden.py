"""Figure and service outputs pinned to the benchmark's recorded
references.

Runs the ``stagnation-figs`` figures (figs 2, 3 and 6 quick, with the
benchmark's own arguments) and the benchmark's two heavy service
requests (a VSL stagnation and a PNS windward request, the only ones
that reach the boundary layer), and compares every numeric leaf with
``perfbench/reference/figures.json`` and ``requests.json`` through the
benchmark's gate, ``perfbench/check.py::compare`` (rtol 1e-4).  The
perfbench files are only read here: a change that moves these answers
must justify the diff rather than re-record the reference.
"""

import dataclasses
import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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
