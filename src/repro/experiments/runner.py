"""Run every figure experiment and print a combined report.

``python -m repro.experiments.runner [--full]`` — the same as
``python -m repro figures`` and takes the same flags.

The runner is resilient two ways:

* a failing figure is caught, summarised (with its
  :class:`~repro.resilience.FailureReport` when the resilience layer
  attached one) and the suite continues — one bad flight condition must
  not cost the other eight figures;
* with ``checkpoint_dir`` the suite is **durable**: each completed
  figure leaves an atomically-written ``<name>.done`` marker holding its
  output, and marching figures persist solver snapshots beneath
  ``<checkpoint_dir>/<name>/``.  Re-running with ``resume=True`` after a
  crash (SIGKILL, OOM, preemption) replays completed figures from their
  markers and continues interrupted ones mid-march (see
  :mod:`repro.resilience.persistence`).

With ``isolate`` (``--isolate [--deadline S]`` on the CLI) each figure
additionally runs in a sandboxed child process under a wall-clock
deadline, an RSS memory budget and heartbeat stall detection
(:mod:`repro.resilience.isolation`): a hung or ballooning figure is
killed and retried in a fresh child — combined with ``checkpoint_dir``
the retry re-enters mid-march from the durable snapshots.
"""

from __future__ import annotations

import inspect
import os
import shutil
import sys
import time
import traceback

from repro.errors import SolverError

from repro.experiments import (fig1_flight_domain, fig2_titan_heating,
                               fig3_species_profiles, fig4_shock_shape,
                               fig5_orbiter_geometry,
                               fig6_windward_heating,
                               fig7_shock_relaxation, fig8_spectra,
                               fig9_n2_contours)

__all__ = ["run_all", "run_all_farm"]

_MODULES = [
    ("fig1", fig1_flight_domain),
    ("fig2", fig2_titan_heating),
    ("fig3", fig3_species_profiles),
    ("fig4", fig4_shock_shape),
    ("fig5", fig5_orbiter_geometry),
    ("fig6", fig6_windward_heating),
    ("fig7", fig7_shock_relaxation),
    ("fig8", fig8_spectra),
    ("fig9", fig9_n2_contours),
]


def _write_done(path: str, text: str) -> None:
    """Atomic done-marker write (temp -> fsync -> rename), so a crash
    mid-write never leaves a half-truthful completion record."""
    tmp = os.path.join(os.path.dirname(path),
                       f".tmp-{os.path.basename(path)}")
    with open(tmp, "w") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _run_isolated(name, mod, kwargs, isolate, checkpoint_dir, stream):
    """Run one figure inside an isolation sandbox; reports kill events
    on the stream and returns the figure's output text."""
    from repro.resilience.isolation import IsolatedRunner, as_isolation
    runner = IsolatedRunner(as_isolation(isolate), label=name)
    workdir = (None if checkpoint_dir is None
               else os.path.join(checkpoint_dir, f"{name}.sandbox"))
    try:
        return runner.run_callable(mod.main, kwargs=kwargs,
                                   workdir=workdir)
    finally:
        for ev in runner.events:
            print(f"[{name} isolation: {ev.kind} after "
                  f"{ev.elapsed:.1f} s on attempt {ev.attempt} — "
                  f"{ev.message}]", file=stream)


def run_all(quick: bool = True, *, stream=None, keep_going: bool = True,
            checkpoint_dir: str | None = None, resume: bool = False,
            isolate=None) -> dict:
    """Run every experiment.

    Returns ``{"timings": {name: seconds}, "failures": {name: exc},
    "skipped": [names replayed from done markers]}``.
    With ``keep_going`` (the default) a failing figure is reported —
    including its attached FailureReport, when present — and the rest of
    the suite still runs; ``keep_going=False`` restores fail-fast.

    ``checkpoint_dir`` makes the suite durable (done markers + solver
    snapshots); ``resume`` replays completed figures from their markers
    and lets marching figures continue from their latest on-disk
    snapshot instead of starting over.

    ``isolate`` (``True`` for defaults, or an
    :class:`~repro.resilience.IsolationPolicy`) sandboxes each figure
    in a supervised child process — hung, ballooning or crashing
    figures are killed, reported and retried in a fresh child.
    """
    stream = stream or sys.stdout
    timings: dict[str, float] = {}
    failures: dict[str, Exception] = {}
    skipped: list[str] = []
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    for name, mod in _MODULES:
        done_path = (None if checkpoint_dir is None
                     else os.path.join(checkpoint_dir, f"{name}.done"))
        print(f"\n{'=' * 78}\n{name}: {mod.__doc__.splitlines()[0]}"
              f"\n{'=' * 78}", file=stream)
        if resume and done_path is not None and os.path.exists(done_path):
            with open(done_path) as f:
                print(f.read(), file=stream)
            print(f"[{name} replayed from checkpoint]", file=stream)
            skipped.append(name)
            timings[name] = 0.0
            continue
        if checkpoint_dir is not None and not resume:
            # fresh (non-resume) run: stale markers/snapshots from an
            # earlier suite must not be silently resumed into
            if os.path.exists(done_path):
                os.remove(done_path)
            shutil.rmtree(os.path.join(checkpoint_dir, name),
                          ignore_errors=True)
        kwargs: dict = {"quick": quick}
        if (checkpoint_dir is not None and "persist_dir"
                in inspect.signature(mod.main).parameters):
            kwargs["persist_dir"] = os.path.join(checkpoint_dir, name)
        t0 = time.perf_counter()
        try:
            if isolate:
                out = _run_isolated(name, mod, kwargs, isolate,
                                    checkpoint_dir, stream)
            else:
                out = mod.main(**kwargs)
            print(out, file=stream)
            if done_path is not None:
                _write_done(done_path, out)
        except Exception as err:
            if not keep_going:
                raise
            failures[name] = err
            print(f"[{name} FAILED: {type(err).__name__}: {err}]",
                  file=stream)
            report = getattr(err, "report", None)
            if report is not None:
                print(report.summary(), file=stream)
            else:
                print("".join(traceback.format_exception(err)).rstrip(),
                      file=stream)
        finally:
            timings[name] = time.perf_counter() - t0
            print(f"[{name} completed in {timings[name]:.1f} s]",
                  file=stream)
    if skipped:
        print(f"\n{len(skipped)} figure(s) replayed from "
              f"{checkpoint_dir!r}: {skipped}", file=stream)
    if failures:
        print(f"\n{len(failures)}/{len(_MODULES)} figure(s) failed: "
              f"{sorted(failures)}", file=stream)
    return {"timings": timings, "failures": failures, "skipped": skipped}


def run_all_farm(quick: bool = True, *, n_workers: int = 4,
                 stream=None, queue_dir: str | None = None,
                 deadline: float | None = None,
                 stall_timeout: float | None = None,
                 memory_mb: float | None = None, kill_plan=None,
                 host_id: str | None = None,
                 max_skew: float = 2.0) -> dict:
    """Run the nine-figure suite on the solve farm (``figures --farm``).

    Each figure becomes one ``figure`` job on a durable
    :class:`~repro.resilience.WorkQueue`, drained by ``n_workers``
    sandboxed workers; a figure whose worker dies is reclaimed when its
    lease expires and retried, resuming any durable march from its
    snapshots under the job workdir.  Passing an existing ``queue_dir``
    resumes a previous campaign: completed figures replay from their
    queue results instead of recomputing (enqueue is idempotent).

    Returns the ``run_all`` dict plus a ``"farm"`` campaign ledger;
    ``failures`` maps dead-lettered figures to their recorded errors.
    """
    import tempfile

    from repro.resilience.farm import Farm, FarmPolicy
    from repro.resilience.queue import Job, WorkQueue

    stream = stream or sys.stdout
    if queue_dir is None:
        queue_dir = tempfile.mkdtemp(prefix="repro-figures-farm-")
    policy = FarmPolicy(n_workers=n_workers, deadline=deadline,
                        stall_timeout=stall_timeout,
                        memory_mb=memory_mb, host_id=host_id,
                        max_skew=max_skew)
    queue = WorkQueue(queue_dir, lease_ttl=policy.lease_ttl,
                      backoff=policy.backoff, host_id=host_id,
                      max_skew=max_skew)
    for name, mod in _MODULES:
        queue.enqueue(Job(
            id=name, kind="figure",
            payload={"module": mod.__name__.rsplit(".", 1)[1],
                     "quick": bool(quick)}))
    print(f"figures --farm: {len(_MODULES)} figure(s) on {n_workers} "
          f"worker(s), queue {queue_dir}", file=stream)
    farm = Farm(queue, policy, label="figures", stream=stream,
                kill_plan=kill_plan)
    ledger = farm.run()

    timings: dict[str, float] = {}
    failures: dict[str, Exception] = {}
    skipped: list[str] = []
    for name, mod in _MODULES:
        print(f"\n{'=' * 78}\n{name}: {mod.__doc__.splitlines()[0]}"
              f"\n{'=' * 78}", file=stream)
        res = queue.result(name)
        if res is not None:
            print((res.get("result") or {}).get("output"), file=stream)
            continue
        rec = queue.dead_letter(name) or {}
        err = SolverError(f"{name}: dead-lettered after "
                          f"{rec.get('attempts')} attempt(s): "
                          f"{rec.get('error')}")
        failures[name] = err
        print(f"[{name} FAILED: {err}]", file=stream)
    claims: dict[str, float] = {}
    for recd in queue.read_journal():
        if recd.get("event") == "claim":
            claims[recd.get("job")] = float(recd["t"])
        elif (recd.get("event") == "complete"
                and recd.get("job") in claims):
            timings[recd["job"]] = round(
                float(recd["t"]) - claims[recd["job"]], 2)
    print(f"\nfigures --farm: {ledger['jobs']} in "
          f"{ledger['wall_time']:.1f} s wall "
          f"({ledger['attempts']} attempt(s), "
          f"{ledger['reclaims']} reclaim(s))", file=stream)
    if failures:
        print(f"{len(failures)}/{len(_MODULES)} figure(s) failed: "
              f"{sorted(failures)}", file=stream)
    return {"timings": timings, "failures": failures, "skipped": skipped,
            "farm": ledger}


if __name__ == "__main__":
    from repro.__main__ import main
    raise SystemExit(main(["figures", *sys.argv[1:]]))
