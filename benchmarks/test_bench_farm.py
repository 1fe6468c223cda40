"""Benchmark: solve-farm throughput and scheduling overhead.

Two perf trajectories for ROADMAP item 2, both written to
``BENCH_farm.json`` (the same record the CI ``farm-smoke`` job uploads
via ``python -m repro campaign --bench``):

* **scheduling throughput** — a burst of near-zero-work jobs measures
  the queue's requests/sec ceiling (claim + sandbox spawn + fenced
  commit per job) at several `-j` values;
* **suite scaling** — a figure-shaped workload (the three fast figures,
  farm vs serial) quantifies what ``campaign --figures -j N`` buys over the
  serial runner.

The full 9-figure -j 1 vs -j N wall-clock comparison runs in CI through
``campaign --figures --compare-serial`` (no pytest-benchmark there);
this module keeps the local, repeatable version of the same numbers.
"""

import json
import os

from repro.resilience.farm import (FarmPolicy, bench_from_journal,
                                   run_campaign, write_bench_json)
from repro.resilience.queue import BackoffPolicy, Job, WorkQueue

BENCH_PATH = os.environ.get("BENCH_FARM_JSON", "BENCH_farm.json")


def _burst(tmp_path, n_jobs, n_workers, tag):
    jobs = [Job(id=f"j{i}", kind="sleep", payload={"duration": 0.01})
            for i in range(n_jobs)]
    queue_dir = tmp_path / f"q-{tag}"
    policy = FarmPolicy(n_workers=n_workers, poll_interval=0.05,
                        backoff=BackoffPolicy(max_attempts=2))
    ledger = run_campaign(queue_dir, jobs, policy=policy,
                          label=f"bench-{tag}")
    assert ledger["ok"], ledger
    return bench_from_journal(WorkQueue(queue_dir),
                              wall_time=ledger["wall_time"],
                              n_workers=n_workers)


def test_bench_farm_throughput(once, tmp_path):
    """Requests/sec of the scheduling path itself at -j 1/2/4."""
    results = once(lambda: {j: _burst(tmp_path, 24, j, f"t{j}")
                            for j in (1, 2, 4)})
    print("\nfarm scheduling throughput (24 near-empty jobs):")
    for j, rec in results.items():
        print(f"  -j {j}: {rec['requests_per_s']:8.2f} req/s, "
              f"per-job latency mean "
              f"{rec['per_job_latency_s']['mean'] * 1e3:7.1f} ms, "
              f"p50 {rec['per_job_latency_s']['p50'] * 1e3:7.1f} ms")
        assert rec["jobs_done"] == 24
        assert rec["requests_per_s"] > 0.5  # sandbox spawn dominates

    record = {"bench": "farm",
              "throughput_by_workers": {
                  str(j): rec for j, rec in results.items()}}
    write_bench_json(BENCH_PATH, record)
    print(f"  -> {BENCH_PATH}")
    assert json.load(open(BENCH_PATH))["throughput_by_workers"]["4"]


def test_bench_farm_figures_vs_serial(once, tmp_path):
    """Wall-clock of a figure workload, farm -j 2 vs serial in-process.

    Uses the three cheapest figures so the benchmark stays minutes-free
    locally; CI measures the full nine via ``--compare-serial``.
    """
    import io
    import time

    from repro.experiments import (fig1_flight_domain,
                                   fig4_shock_shape,
                                   fig5_orbiter_geometry)

    mods = [fig1_flight_domain, fig4_shock_shape, fig5_orbiter_geometry]

    def serial():
        t0 = time.monotonic()
        for mod in mods:
            mod.main(quick=True)
        return time.monotonic() - t0

    def farm():
        jobs = [Job(id=f"f{i}", kind="figure",
                    payload={"module": m.__name__.rsplit(".", 1)[1],
                             "quick": True})
                for i, m in enumerate(mods)]
        t0 = time.monotonic()
        ledger = run_campaign(tmp_path / "q-fig", jobs,
                              policy=FarmPolicy(n_workers=2),
                              label="bench-figures",
                              stream=io.StringIO())
        assert ledger["ok"] and ledger["jobs"] == {"done": 3}, ledger
        return time.monotonic() - t0

    t_serial, t_farm = once(lambda: (serial(), farm()))
    print(f"\n3-figure workload: serial {t_serial:.2f} s, "
          f"farm -j 2 {t_farm:.2f} s "
          f"(ratio {t_serial / t_farm:.2f}x)")
    # the farm must stay within sandbox-spawn overhead of serial even
    # on a single-core container; real speedup shows up with cores
    assert t_farm < 10 * t_serial + 30.0
