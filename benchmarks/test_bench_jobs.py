"""Benchmark: async-job subsystem overhead.

Two perf trajectories for the jobs layer, both written to
``BENCH_jobs.json`` (the same record the CI ``jobs-smoke`` job uploads
from ``python -m repro chaos --jobs``):

* **submit latency** — ``submit()`` must return a durable job id
  without waiting for a worker, so its cost is one journaled enqueue
  and one read of the queue record; a burst of submits measures that
  floor;
* **async overhead** — wall-clock of a short solver march executed
  through submit -> farm -> result versus the same march called
  directly, bounding what the durability machinery (sandbox spawn,
  lease renewal, snapshot commits, heartbeats) costs a small job.
"""

import json
import os
import time

from repro.resilience.chaos import CASES
from repro.resilience.farm import Farm, FarmPolicy, write_bench_json
from repro.resilience.queue import BackoffPolicy
from repro.service.jobs import DONE, JobManager

BENCH_PATH = os.environ.get("BENCH_JOBS_JSON", "BENCH_jobs.json")


def _drain(queue_dir, **kw):
    kw.setdefault("n_workers", 1)
    kw.setdefault("poll_interval", 0.05)
    kw.setdefault("backoff", BackoffPolicy(max_attempts=3, base=0.01,
                                           max_delay=0.05))
    with open(os.devnull, "w") as null:
        Farm(queue_dir, FarmPolicy(**kw), label="bench",
             stream=null).run()


def _percentile(sorted_xs, q):
    return sorted_xs[min(len(sorted_xs) - 1,
                         int(q * len(sorted_xs)))]


def test_bench_submit_latency(once, tmp_path):
    """Durable-submit floor: one journaled enqueue."""
    mgr = JobManager(tmp_path / "q")

    def burst(n=32):
        return sorted(
            mgr.submit("sleep", {"duration": 0.01},
                       job_id=f"b{i:03d}")["submit_latency_s"]
            for i in range(n))

    lat = once(burst)
    rec = {"n": len(lat), "p50_s": _percentile(lat, 0.50),
           "p90_s": _percentile(lat, 0.90), "max_s": lat[-1]}
    print("\nsubmit latency (32 durable submits): "
          f"p50 {rec['p50_s'] * 1e3:6.2f} ms, "
          f"max {rec['max_s'] * 1e3:6.2f} ms")
    assert rec["p50_s"] < 0.5  # submit never waits on a worker

    record = {"bench": "jobs", "submit_latency": rec}
    write_bench_json(BENCH_PATH, record)


def test_bench_async_overhead(tmp_path):
    """submit -> farm -> result versus the same march run directly."""
    factory, run_kwargs, _, _ = CASES["euler1d"]
    t0 = time.monotonic()
    factory().run(**run_kwargs)
    direct_s = time.monotonic() - t0

    mgr = JobManager(tmp_path / "q")
    t0 = time.monotonic()
    mgr.submit("solver_case", {"case": "euler1d", "every_n_steps": 5},
               job_id="ovh")
    _drain(tmp_path / "q")
    res = mgr.result("ovh")
    async_s = time.monotonic() - t0
    assert res["state"] == DONE and res["ready"]

    rec = {"direct_s": round(direct_s, 4),
           "async_s": round(async_s, 4),
           "overhead_s": round(async_s - direct_s, 4)}
    print(f"\nasync overhead (euler1d march): direct {direct_s:.3f} s, "
          f"through jobs {async_s:.3f} s "
          f"(+{async_s - direct_s:.3f} s fixed cost)")
    # the durability machinery costs seconds, not minutes, per job
    assert async_s - direct_s < 60.0

    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as f:
            record = json.load(f)
    else:
        record = {"bench": "jobs"}
    record["async_overhead"] = rec
    write_bench_json(BENCH_PATH, record)
