"""Benchmark-suite configuration.

Every figure benchmark runs its experiment once (rounds=1) — these are
solver-scale reproductions, not microsecond kernels — and prints the
series the paper's figure reports (visible with ``pytest -s`` and
recorded in bench_output.txt).

Per-kernel timings use the ``kernel_bench`` fixture instead of
pytest-benchmark: it needs no plugin (CI runs the bare scientific
stack), and everything it records is flushed to one JSON artifact at
session end — ``BENCH_kernels.json``, the ROADMAP item-2 perf
trajectory.  Enable the artifact with ``--bench-kernels-json PATH`` or
``BENCH_KERNELS_JSON=PATH``; a session updates the kernels it timed and
keeps the other records of an existing file.

A shared host's speed drifts by up to 2x between processes, so each
record also carries the host's speed while the kernel ran: perfbench's
calibration kernel (``perfbench/speed.py::kernel``) runs ``MIN_ROUNDS``
times before and after the kernel's rounds, ``calibration_s`` is its
median duration and ``quiet_median_s`` rescales ``median_s`` to
perfbench's quiet-host reference (``REF_S``), as perfbench does.
"""

import importlib.util
import json
import os
import statistics
import time

import pytest


def _load_speed():
    """``perfbench/speed.py`` as a module (perfbench is not a package)."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "speed.py")
    spec = importlib.util.spec_from_file_location("perfbench_speed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPEED = _load_speed()

#: kernel name -> timing record, accumulated across the session.
_KERNEL_RECORDS = {}

#: ``kernel_bench`` times every kernel at least this many rounds, so a
#: slow kernel's median is the middle of seven samples, not of three.
MIN_ROUNDS = 7


def pytest_addoption(parser):
    parser.addoption(
        "--bench-kernels-json", default=None, metavar="PATH",
        help="write per-kernel timings (kernel_bench fixture) to PATH")


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark clock."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1,
                                  warmup_rounds=0)

    return _run


@pytest.fixture
def kernel_bench(request):
    """Time a kernel and record it for ``BENCH_kernels.json``.

    ``result = kernel_bench(fn, *args, label=..., meta=..., **kwargs)``
    warms the kernel up once, then runs it repeatedly until ~0.2 s of
    clock (at least ``MIN_ROUNDS``, at most 200 rounds) and records
    min/median/mean seconds per call under ``label`` (default: the test
    name minus its ``test_bench_`` prefix), with the calibration of the
    module docstring.  ``meta`` merges extra keys (sizes, derived
    speedups) into the record.  Returns the kernel's last result so the
    test can assert on it.
    """

    def calibrate():
        runs = []
        for _ in range(MIN_ROUNDS):
            t0 = time.perf_counter()
            _SPEED.kernel()
            runs.append(time.perf_counter() - t0)
        return runs

    def _run(fn, *args, label=None, meta=None, min_time=0.2,
             max_rounds=200, **kwargs):
        name = label or request.node.name.replace("test_bench_", "")
        result = fn(*args, **kwargs)          # warmup, untimed
        _SPEED.kernel()                       # scipy's lazy set-up, untimed
        calibration = calibrate()
        times = []
        deadline = time.perf_counter() + min_time
        while len(times) < max_rounds:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            times.append(time.perf_counter() - t0)
            if len(times) >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
        calibration += calibrate()
        times.sort()
        calibration_s = statistics.median(calibration)
        record = {
            "min_s": times[0],
            "median_s": times[len(times) // 2],
            "mean_s": sum(times) / len(times),
            "rounds": len(times),
            "calibration_s": calibration_s,
            "quiet_median_s": (times[len(times) // 2] * _SPEED.REF_S
                               / calibration_s),
        }
        if meta:
            record.update(meta)
        _KERNEL_RECORDS[name] = record
        return result

    return _run


@pytest.fixture
def kernel_records():
    """Direct access to the session's accumulated kernel records."""
    return _KERNEL_RECORDS


def _kernels_json_path(config):
    return (config.getoption("--bench-kernels-json")
            or os.environ.get("BENCH_KERNELS_JSON"))


#: Schema tag of ``BENCH_kernels.json``; a file with another tag is
#: rewritten rather than merged.
SCHEMA = "bench-kernels/1"


def _recorded_kernels(path):
    """The kernel records already in ``path`` (empty when the file is
    missing, unreadable or of another schema)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return {}
    return dict(doc.get("kernels") or {})


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's kernels into the artifact: the kernels it
    timed replace their old records, every other record is kept."""
    path = _kernels_json_path(session.config)
    if not path or not _KERNEL_RECORDS:
        return
    kernels = _recorded_kernels(path)
    kernels.update(_KERNEL_RECORDS)
    doc = {
        "schema": SCHEMA,
        "unit": "seconds per call",
        "kernels": dict(sorted(kernels.items())),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
