"""Record the reference outputs that the correctness gate compares with.

Run from the repository root, at the commit whose answers are the
reference::

    python3 perfbench/record_reference.py

It runs every figure of the figure workloads and every request of the
light pool and the heavy list once, and writes
``perfbench/reference/figures.json`` and ``requests.json``.  A request
that is not answered ``ok`` by its top rung aborts the recording: the
workloads must contain no failing operation.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import check
    import workloads

    figures = {}
    for figs in workloads.FIGURES.values():
        for name, mod, kwargs in figs:
            print(f"recording {name}", flush=True)
            figures[name] = check.to_record(name, mod.run(**kwargs))
    check.save("figures", figures)

    board = workloads.BreakerBoard(workloads.POLICY.breaker)
    requests = {}
    ops = [("request", pid, req)
           for pid, req in [*workloads.light_pool().items(),
                            *workloads.HEAVY]]
    print(f"recording {len(ops)} requests", flush=True)
    for op in ops:
        status, out = workloads.run_op(op, board)
        if status != "ok":
            print(f"{op[1]}: {status}", file=sys.stderr)
            return 1
        requests[op[1]] = check.to_record(op[1], out)
    check.save("requests", requests)
    return 0


if __name__ == "__main__":
    # build the EOS table from scratch rather than from ~/.cache/repro,
    # and keep sandbox work dirs inside the checkout
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=work)
    os.environ["HOME"] = os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
