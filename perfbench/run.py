"""End-to-end benchmark of the reproduction: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload stagnation-figs --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics:

* ``setup_s``: process start to the first timed operation (imports,
  the cold EOS-table build, gas models and warm-up requests);
* ``wall_s``: the workload's fixed work after set-up;
* ``peak_rss_mb``: peak resident set of the benchmark process.

Both times are in quiet-host seconds: wall time divided by the slowdown
that the calibration kernel of :mod:`speed` measured over the same
interval.

``--trace 1`` first runs it untraced in a child process, then runs it
again with every layer's public functions wrapped (:mod:`spans`) and
reports the per-layer metrics, the service layer's request latency
percentiles, and ``trace.overhead_s``, the traced minus the untraced
``wall_s``.

Each workload's operation list is fixed (see :mod:`workloads`), so two
commits do the same work; ``--seconds`` is the nominal length of the
measured phase, which the lists were sized to at the commit that
defined the benchmark.  Every operation's output is checked against the
recorded reference (:mod:`check`).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A copy of the result, with the uncorrected wall time, the calibration
samples and the environment it ran in, is written under
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("stagnation-figs", "marching-figs", "service-mix")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


#: Request latency percentiles of the service layer, reported with the
#: per-layer metrics: (name, latency class, percentile, scale, unit).
#: Zero where the workload sends no request of that class.
REQUEST_LATENCIES = [
    ("service.corr_p50_ms", "corr", 50, 1e3, "ms"),
    ("service.corr_p95_ms", "corr", 95, 1e3, "ms"),
    ("service.gibbs_p50_ms", "gibbs", 50, 1e3, "ms"),
    ("service.gibbs_p90_ms", "gibbs", 90, 1e3, "ms"),
    ("service.solver_p50_s", "solver", 50, 1.0, "s"),
]


def _percentile(xs, q):
    import numpy as np
    return float(np.percentile(np.asarray(xs, dtype=float), q)) if xs \
        else 0.0


def _quartiles(xs):
    return [_percentile(xs, q) for q in (25, 50, 75)]


def _blas_threads():
    """Thread-pool size of the OpenBLAS bundled with NumPy, or None."""
    import ctypes
    import glob

    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "commit": _git_commit()}


def _untraced_wall(args) -> float:
    """``wall_s`` of an untraced run of the same workload and seed, in a
    child process, so the traced run can report the tracing overhead."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"untraced child exited {proc.returncode}")
    last = proc.stdout.strip().splitlines()[-1]
    return float(json.loads(last)["metrics"]["wall_s"]["value"])


def measure(args, t_start, untraced_wall_s=None) -> dict:
    """Set up, run the workload's operations, check their outputs.
    Set-up is timed from ``t_start``."""
    import speed
    import spans
    tracer = spans.Tracer() if args.trace else None
    meter = speed.Speedometer(
        tracer.wrap(spans.CALIBRATION, speed.kernel) if tracer
        else speed.kernel)
    meter.start()
    try:
        return _measure(args, t_start, untraced_wall_s, tracer, meter)
    finally:
        meter.stop()


def _measure(args, t_start, untraced_wall_s, tracer, meter) -> dict:
    sys.path.insert(0, SRC)
    import check
    import spans
    import workloads

    spans.import_targets()
    if tracer is not None:
        spans.install(tracer)

    from repro.thermo.eos_table import build_air_table
    board = workloads.BreakerBoard(workloads.POLICY.breaker)
    if args.workload == "marching-figs":
        build_air_table()          # cold: $HOME/.cache/repro is empty
    if args.workload == "service-mix":
        workloads.warm_up(board)
    ops = workloads.plan(args.workload, args.seed)
    refs = {"figure": check.load("figures"),
            "request": check.load("requests")}
    t_setup = time.perf_counter()

    self_before = tracer.self_total_ns() if tracer else 0
    latencies = {"figure": [], "corr": [], "gibbs": [], "solver": []}
    failures = []
    for op in ops:
        kind, name, _ = op
        t0 = time.perf_counter()
        try:
            status, out = workloads.run_op(op, board)
        except Exception as err:  # an operation that raised is a failure
            status, out = f"raised {type(err).__name__}: {err}", None
        latencies[workloads.latency_class(op)].append(
            time.perf_counter() - t0)
        if status == "ok":
            ref = refs[kind].get(name)
            status = ("no reference recorded" if ref is None
                      else check.compare(name, out, ref) or "ok")
        if status != "ok":
            failures.append({"op": name, "reason": status})
        del out
    t_end = time.perf_counter()
    raw = {"setup_s": t_setup - t_start,
           "wall_s": sum(sum(v) for v in latencies.values())}
    slowdown = {"setup_s": meter.slowdown(t_start, t_setup),
                "wall_s": meter.slowdown(t_setup, t_end)}
    setup_s, wall_s = (raw[k] / slowdown[k] for k in ("setup_s", "wall_s"))

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.metrics()
        for name, cls, q, scale, unit in REQUEST_LATENCIES:
            metrics[name] = (scale * _percentile(latencies[cls], q), unit)
        metrics["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
        metrics["trace.wall_s"] = (wall_s, "s")
        metrics["trace.self_share"] = (
            (tracer.self_total_ns() - self_before) / 1e9 / raw["wall_s"],
            "ratio")
    return {"correct": not failures, "attempted": len(ops),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "uncorrected": raw, "slowdown": slowdown,
            "calibration_samples": len(meter.samples),
            "calibration_quartiles_s": _quartiles(
                [d for _, d in meter.samples]),
            "samples": {k: len(v) for k, v in latencies.items()},
            "failures": failures}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    t_start, untraced = T_START, None
    if args.trace:
        untraced = _untraced_wall(args)
        t_start = time.perf_counter()
    # Fresh, empty $HOME (EOS-table cache) and $TMPDIR (sandbox work
    # dirs) inside the checkout: no run reuses an earlier run's table,
    # and none writes the user's ~/.cache/repro.
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    os.environ["HOME"] = os.path.join(run_dir, "home")
    os.environ["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.makedirs(os.environ["HOME"])
    os.makedirs(os.environ["TMPDIR"])
    tempfile.tempdir = None
    try:
        result = measure(args, t_start, untraced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), **result}
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}-{stamp}-"
                                    f"{os.getpid()}.json"), "w") as f:
        json.dump(record, f, indent=1)

    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    print(f"uncorrected {json.dumps(result['uncorrected'])} s, slowdown "
          f"{json.dumps(result['slowdown'])} from "
          f"{result['calibration_samples']} calibration samples "
          f"(quartiles {result['calibration_quartiles_s']} s)")
    print(f"samples {json.dumps(result['samples'])}")
    print(f"environment {json.dumps(record['environment'])}")
    for fail in result["failures"]:
        print(f"FAILED {fail['op']}: {fail['reason']}")
    print(f"correct {result['correct']}: {result['failed']} of "
          f"{result['attempted']} operations failed")
    print(json.dumps({k: result[k] for k in ("correct", "attempted",
                                             "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
