"""Figure outputs pinned to the benchmark's recorded references.

Runs the ``stagnation-figs`` figures (figs 2, 3 and 6 quick, with the
benchmark's own arguments) and compares every numeric leaf with
``perfbench/reference/figures.json`` through the benchmark's gate,
``perfbench/check.py::compare`` (rtol 1e-4).  The perfbench files are
only read here: a change that moves these answers must justify the diff
rather than re-record the reference.
"""

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
