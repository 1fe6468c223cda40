"""Chaos harness: the kill-and-resume campaigns of every supervision layer.

``python -m repro chaos`` is the operational proof of the resilience
stack.  Five campaigns, one per layer, share this module:

* **serial** (no mode flag): every round samples a solver and a random
  fault schedule (hangs, memory balloons, scripted crashes, snapshot
  corruption, transient NaN/perturbation upsets) and runs the march in
  an :class:`~repro.resilience.isolation.IsolatedRunner` sandbox with
  tight budgets.  Each round must terminate; a schedule whose faults
  never touch the marching state must resume **bitwise** onto a
  crash-free in-process run; every kill leaves a typed
  :class:`~repro.resilience.isolation.IsolationEvent`; an aborted round
  carries a :class:`~repro.resilience.report.FailureReport` embedding
  the exact (JSON round-trippable) schedule for replay; and no child
  process survives the round.  Sampling is a pure function of the seed:
  the same ``--seed`` yields the same solvers, schedules and outcomes.
* ``--farm``: the rounds become ``chaos_round`` jobs on the
  :mod:`~repro.resilience.farm` queue while the farm SIGKILLs its own
  running sandboxes on a seeded schedule, so the campaign also proves
  retry/backoff and resume from snapshots, and that no sandbox
  outlives the campaign.  Farm rounds seed per-round rngs (``[seed,
  index]``) so they are order-independent across sandboxes; the serial
  and farm schedules for one seed therefore differ, but each is
  deterministic.
* ``--farm --hosts N``: N supervisor processes ("hosts", each with its
  own ``host_id``, an optional ±skew clock offset and a per-host
  journal) drain one shared queue.  The harness SIGSTOPs one host's
  whole process tree past the lease window (a network partition),
  heals it, then SIGKILLs another host outright.  Every job must finish
  exactly once and the solver jobs bitwise-equal to in-process
  references.
* ``--batch``: seeded fault-injected requests ride a batch through
  :func:`~repro.service.batch.evaluate_batch`.  Good requests must come
  back bitwise-equal to a fault-free run, every injected failure must
  land in its own envelope, and the breakers must walk a deterministic
  ``closed -> open -> half_open -> closed`` arc.
* ``--jobs``: the supervisor host of an async job is SIGKILLed
  mid-march; a fresh host resumes the job bitwise from its latest
  snapshot, a second job cancels cooperatively, and ``gc`` leaves
  nothing behind.

Every campaign ends in :func:`_verdict`: its ledger carries ``mode``,
``checks`` (name -> bool) and ``ok = all(checks.values())``, lands in
``<out>/chaos-ledger.json``, and the exit code is 0 iff ``ok``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from repro.errors import SolverError
from repro.resilience.farm import (Farm, FarmPolicy, WorkerKillPlan,
                                   build_ledger, run_campaign,
                                   sandbox_records, state_fingerprint,
                                   sweep_orphans, write_bench_json)
from repro.resilience.faults import FaultInjector
from repro.resilience.isolation import (IsolatedRunner, IsolationPolicy,
                                        _read_rss_mb, kill_pid_tree,
                                        signal_group)
from repro.resilience.queue import BackoffPolicy, Job, WorkQueue

__all__ = ["CASES", "build_campaign_requests", "run_chaos",
           "run_chaos_batch", "run_chaos_farm", "run_chaos_hosts",
           "run_chaos_jobs", "run_round", "sample_schedule"]


# ----------------------------------------------------------------------
# solver case matrix (small, fast, persist-protocol instances): the one
# definition of these four marches, reused by the farm and the tests
# ----------------------------------------------------------------------

def _make_euler1d():
    from repro.solvers.euler1d import Euler1DSolver
    s = Euler1DSolver(np.linspace(0.0, 1.0, 41))
    rho = np.where(s.xc < 0.5, 1.0, 0.125)
    p = np.where(s.xc < 0.5, 1.0, 0.1)
    return s.set_initial(rho, 0.0, p)


def _blunt(cls, **kw):
    from repro.core.gas import IdealGasEOS
    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    grid = blunt_body_grid(Hemisphere(1.0), n_s=13, n_normal=17,
                           density_ratio=0.2, margin=2.5)
    s = cls(grid, IdealGasEOS(1.4), **kw)
    rho, T = 0.01, 220.0
    # catlint: disable=CAT002 -- T is the 220.0 literal above, gamma/R
    # positive constants
    s.set_freestream(rho, 8.0 * np.sqrt(1.4 * 287.0528 * T),
                     rho * 287.0528 * T)
    return s


def _make_euler2d():
    from repro.solvers.euler2d import AxisymmetricEulerSolver
    return _blunt(AxisymmetricEulerSolver)


def _make_ns2d():
    from repro.solvers.ns2d import AxisymmetricNSSolver
    return _blunt(AxisymmetricNSSolver, T_wall=500.0)


def _make_reacting():
    from repro.geometry import Hemisphere
    from repro.grid import blunt_body_grid
    from repro.solvers.reacting_euler2d import ReactingEulerSolver
    from repro.thermo.species import species_set
    grid = blunt_body_grid(Hemisphere(0.05), n_s=9, n_normal=13,
                           density_ratio=0.12, margin=2.5)
    db = species_set("air5")
    s = ReactingEulerSolver(grid, db)
    y = np.zeros(db.n)
    y[db.index["N2"]] = 0.767
    y[db.index["O2"]] = 0.233
    return s.set_freestream(1e-3, 5000.0, 250.0, y)


#: name -> (factory, run_kwargs, total marching steps, 2-D cell grid
#: bounds or None for a 1-D solver with 41 cells)
CASES = {
    "euler1d": (_make_euler1d, {"t_final": 0.1, "cfl": 0.4}, 20, None),
    "euler2d": (_make_euler2d, {"n_steps": 20, "cfl": 0.3}, 20, (13, 17)),
    "ns2d": (_make_ns2d, {"n_steps": 14, "cfl": 0.3}, 14, (13, 17)),
    "reacting_euler2d": (_make_reacting, {"n_steps": 10, "cfl": 0.3}, 10,
                         (9, 13)),
}

#: fault menu; the "resumable" kinds never mutate marching state, so a
#: killed-and-resumed run must land bitwise on the crash-free result
_MENU = ("hang", "memory_balloon", "crash", "io", "nan", "perturb")
_RESUMABLE = frozenset(("hang", "memory_balloon", "crash", "io"))

#: a round's RSS budget is the harness's own RSS plus this margin, and
#: an injected memory balloon allocates this much
_MEMORY_MARGIN_MB = 250.0
_BALLOON_MB = 500.0


# ----------------------------------------------------------------------
# what every campaign shares: timeline, reference march, hosts, verdict
# ----------------------------------------------------------------------

class _Timeline:
    """A campaign's clock and event log: :meth:`note` prints an event
    and records it with its elapsed time, :meth:`wait` polls a
    condition until ``budget`` seconds of campaign time have passed."""

    def __init__(self, stream):
        self.stream = stream
        self.events: list[dict] = []
        self._t0 = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def note(self, event: str, **fields) -> None:
        self.events.append({"t": round(self.elapsed(), 2), "event": event,
                            **fields})
        body = ", ".join(f"{k}={v}" for k, v in fields.items())
        print(f"  t={self.elapsed():.1f}s {event}: {body}",
              file=self.stream)

    def wait(self, cond, budget: float) -> bool:
        while not cond():
            if self.elapsed() > budget:
                return False
            time.sleep(0.1)
        return True


def _reference(case: str, **run_kwargs) -> str:
    """State fingerprint of ``CASES[case]`` marched uninterrupted in
    this process (``run_kwargs`` override the case's own)."""
    factory, kwargs, _, _ = CASES[case]
    solver = factory()
    solver.run(**{**kwargs, **run_kwargs})
    return state_fingerprint(solver)


def _queue_dir(queue_dir: str | None, out: str | None, name: str) -> str:
    """``queue_dir``, else ``<out>/<name>``, else a fresh temp dir."""
    if queue_dir is not None:
        return queue_dir
    if out is not None:
        return os.path.join(out, name)
    return tempfile.mkdtemp(prefix=f"chaos-{name}-")


def _host_main(queue_dir: str, policy: FarmPolicy) -> None:
    """One chaos "host": a farm supervisor in its own process group
    (each of its sandboxes leads another), draining ``queue_dir`` under
    ``policy``."""
    try:
        os.setpgid(0, 0)
    except OSError:
        pass
    with open(os.devnull, "w") as quiet:
        Farm(queue_dir, policy, label=f"chaos-{policy.host_id}",
             stream=quiet).run()


def _spawn_host(timeline: _Timeline, queue_dir: str, policy: FarmPolicy):
    proc = mp.get_context("fork").Process(
        target=_host_main, args=(queue_dir, policy))
    proc.start()
    timeline.note("host-up", host=policy.host_id, pid=proc.pid)
    return proc


def _host_pids(queue: WorkQueue, host: str, proc) -> list[int]:
    """The supervisor pid plus its running sandboxes' pids, read off
    their ``work/<job>/child.json`` presence records."""
    return [proc.pid] + sorted(int(rec["pid"]) for rec in
                               sandbox_records(queue, host))


def _kill_host(timeline: _Timeline, queue: WorkQueue, host: str,
               proc) -> list[int]:
    """SIGKILL a whole host: the supervisor's process group first, so
    it starts no more sandboxes, then its sandboxes, each leading its
    own group (the orphan sweep, which also deletes their presence
    records the dead supervisor cannot).  Returns the killed pids.

    The sweep comes before the join: a sandbox inherits the
    supervisor's exit pipe, so joining first would let it finish its
    march before it dies."""
    kill_pid_tree(proc.pid)
    swept = sweep_orphans(queue, host=host)
    proc.join(10.0)
    pids = [proc.pid] + sorted(int(rec["pid"]) for rec in swept)
    timeline.note("host-kill", host=host, pids=pids,
                  orphans_swept=len(swept))
    return pids


def _alive(pid) -> bool:
    """Does ``pid`` name a live process?"""
    try:
        os.kill(int(pid), 0)
    except OSError:
        return False
    return True


def _stop_hosts(procs) -> None:
    """Stop the hosts still running: SIGTERM (the graceful drain),
    join, then kill whatever is left."""
    for proc in procs:
        if proc.is_alive():
            signal_group(proc.pid, signal.SIGTERM)
    for proc in procs:
        proc.join(20.0)
        if proc.is_alive():
            kill_pid_tree(proc.pid)
            proc.join(5.0)


def _verdict(mode: str, out: str | None, ledger: dict, checks: dict,
             green: str, stream) -> int:
    """End a campaign: ``ledger`` gains ``mode``, ``checks`` and
    ``ok = all(checks.values())`` and goes to
    ``<out>/chaos-ledger.json``; one verdict line is printed.  Returns
    the exit code."""
    ok = all(checks.values())
    ledger = {"mode": mode, **ledger, "checks": checks, "ok": ok}
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "chaos-ledger.json"), "w") as f:
            json.dump(ledger, f, indent=1, default=str)
    failed = [name for name, passed in checks.items() if not passed]
    print(f"chaos {mode}: " + (f"green — {green}" if ok
                               else f"FAILED ({', '.join(failed)})"),
          file=stream)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# serial: random fault schedules under process isolation
# ----------------------------------------------------------------------

def sample_schedule(rng, case_name: str) -> tuple[FaultInjector, dict]:
    """Sample one fault schedule for ``case_name`` from ``rng``.

    Returns the armed injector and a JSON-able description
    ``{"case", "faults", "resumable"}``.  Everything the round does is
    a pure function of the generator state on entry.
    """
    _, _, n_steps, grid = CASES[case_name]
    n_faults = int(rng.integers(1, 3))
    kinds = [str(k) for k in rng.choice(_MENU, size=n_faults,
                                        replace=False)]
    fi = FaultInjector()
    for kind in kinds:
        step = int(rng.integers(2, max(3, n_steps - 1)))
        if kind == "hang":
            fi.inject_hang(step=step, duration=600.0)
        elif kind == "memory_balloon":
            fi.inject_memory_balloon(step=step, mb=_BALLOON_MB,
                                     hold=600.0)
        elif kind == "crash":
            fi.inject_crash(step=step)
        elif kind == "io":
            io_kind = str(rng.choice(("truncate", "bitflip", "torn")))
            fi.inject_io_fault(kind=io_kind,
                               write=int(rng.integers(0, 3)))
        else:   # nan | perturb: one transient single-cell upset
            if grid is None:
                cell = int(rng.integers(1, 40))
            else:
                ni, nj = grid
                cell = (int(rng.integers(1, ni - 1)),
                        int(rng.integers(1, nj - 1)))
            if kind == "nan":
                fi.inject_nan(step=step, cell=cell, component=0)
            else:
                fi.inject_perturbation(step=step, cell=cell,
                                       component=0,
                                       factor=float(rng.choice(
                                           (1e-3, 1e3))))
    schedule = {"case": case_name, "faults": fi.to_json()["faults"],
                "resumable": all(k in _RESUMABLE for k in kinds)}
    return fi, schedule


def _orphan_sweep() -> list[str]:
    """Surviving multiprocessing children of this process (should be
    empty after every round — the kill path joins everything)."""
    orphans = []
    for p in mp.active_children():
        p.join(timeout=1.0)
        if p.is_alive():
            orphans.append(f"pid={p.pid} name={p.name}")
    return orphans


def run_round(index: int, rng, *, out_dir: str | None = None,
              deadline: float = 30.0, stall_timeout: float = 2.0,
              cases=None, stream=None) -> dict:
    """Run one chaos round; returns its (JSON-able) report dict.

    The round passes (``report["ok"]``) when it terminates with every
    invariant intact; the report records the schedule, every isolation
    event, the invariant checks and — on abort — the failure report
    with the embedded schedule.
    """
    stream = stream or sys.stdout
    names = sorted(cases or CASES)
    case_name = str(rng.choice(names))
    factory, run_kwargs, _n, _grid = CASES[case_name]
    faults, schedule = sample_schedule(rng, case_name)
    kinds = [f["kind"] for f in schedule["faults"]]
    print(f"round {index}: {case_name} with fault(s) "
          f"{'+'.join(kinds)}", file=stream)

    base_rss = _read_rss_mb()
    policy = IsolationPolicy(
        deadline=deadline,
        memory_mb=None if base_rss is None
        else base_rss + _MEMORY_MARGIN_MB,
        stall_timeout=stall_timeout, max_restarts=3, every_n_steps=3)
    runner = IsolatedRunner(policy, label=f"chaos[{case_name}]")

    report: dict = {"round": index, "case": case_name,
                    "schedule": schedule, "policy": {
                        "deadline": policy.deadline,
                        "memory_mb": policy.memory_mb,
                        "stall_timeout": policy.stall_timeout,
                        "max_restarts": policy.max_restarts}}
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=f"chaos-{index}-") as workdir:
        try:
            solver = runner.run_solver(factory, run_kwargs,
                                       workdir=workdir, faults=faults,
                                       resilience=True, watchdog=True)
            report["outcome"] = "completed"
        except SolverError as err:
            solver = None
            report["outcome"] = "aborted"
            rep = getattr(err, "report", None)
            if rep is not None:
                rep.fault_schedule = faults.to_json()
                report["failure_report"] = rep.to_dict()
    report["elapsed"] = round(time.monotonic() - t0, 2)
    report["events"] = [e.to_dict() for e in runner.events]

    # -- invariants -----------------------------------------------------
    checks: dict = {"terminated": True}
    checks["every_kill_reported"] = all(
        e.kind in ("hang", "oom", "deadline", "crash")
        for e in runner.events)
    orphans = _orphan_sweep()
    checks["no_orphans"] = not orphans
    if orphans:
        report["orphans"] = orphans
    if schedule["resumable"]:
        # faults never touched the marching state: the sandboxed result
        # must match a crash-free in-process run bit for bit
        checks["completed"] = solver is not None
        checks["bitwise_match"] = (solver is not None
                                   and state_fingerprint(solver)
                                   == _reference(case_name))
    else:
        # state-corrupting transients: rollback-retry may legitimately
        # change the trajectory; the invariant is clean termination
        checks["completed"] = (solver is not None
                               or "failure_report" in report)
    if report["outcome"] == "aborted":
        checks["abort_has_report"] = "failure_report" in report
    report["checks"] = checks
    report["ok"] = all(checks.values())

    status = "ok" if report["ok"] else "FAILED"
    ev = "/".join(e.kind for e in runner.events) or "none"
    print(f"  -> {report['outcome']} in {report['elapsed']:.1f} s, "
          f"kills: {ev}, invariants: {status}", file=stream)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"round-{index:03d}.json")
        with open(path, "w") as f:
            json.dump(report, f, indent=1, default=str)
    return report


def run_chaos(*, rounds: int = 5, seed: int = 0, out: str | None =
              "chaos-reports", deadline: float = 30.0,
              stall_timeout: float = 2.0, cases=None, stream=None) -> int:
    """Run ``rounds`` chaos rounds; returns a process exit code
    (0 = every invariant held in every round, 1 otherwise).

    Per-round reports land in ``out`` (``round-NNN.json``) together
    with the campaign's ``chaos-ledger.json``.
    """
    stream = stream or sys.stdout
    rng = np.random.default_rng(seed)
    print(f"chaos serial: {rounds} round(s), seed {seed}, deadline "
          f"{deadline:.0f} s, stall {stall_timeout:.1f} s", file=stream)
    reports = [run_round(i, rng, out_dir=out, deadline=deadline,
                         stall_timeout=stall_timeout, cases=cases,
                         stream=stream)
               for i in range(rounds)]
    failed = [r["round"] for r in reports if not r["ok"]]
    kills = sum(len(r["events"]) for r in reports)
    return _verdict(
        "serial", out,
        {"rounds": rounds, "seed": seed, "failed_rounds": failed,
         "kills": kills,
         "outcomes": {r["round"]: r["outcome"] for r in reports}},
        {"rounds_ok": not failed},
        f"all {rounds} round(s) held every invariant ({kills} kill(s) "
        f"performed and recovered)", stream)


# ----------------------------------------------------------------------
# farm: rounds as queue jobs, chaos kills their sandboxes too
# ----------------------------------------------------------------------

def run_chaos_farm(*, rounds: int = 5, seed: int = 0, out: str | None =
                   "chaos-reports", n_workers: int = 2,
                   kill_workers: int = 2, deadline: float = 30.0,
                   queue_dir: str | None = None, stream=None) -> int:
    """Run the chaos campaign on the solve farm; returns an exit code.

    Every round is a ``chaos_round`` job, ``n_workers`` of them running
    at once; meanwhile the farm delivers ``kill_workers`` scheduled
    SIGKILLs to its running sandboxes.  A killed round fails, backs off
    and is retried, so the campaign must still end with every round
    done (invariants checked as in serial mode) or dead-lettered with a
    failure report, with every scheduled kill landed and with no
    sandbox the journal names still alive.
    """
    stream = stream or sys.stdout
    queue_dir = _queue_dir(queue_dir, out, "farm-queue")
    print(f"chaos farm: {rounds} round(s), {n_workers} at once, "
          f"seed {seed}, {kill_workers} scheduled sandbox kill(s), "
          f"queue {queue_dir}", file=stream)
    # a round may burn several inner attempts (max_restarts=3) of
    # `deadline` each before it settles; budget the outer sandbox for
    # the worst case, and disable the outer stall detector — the outer
    # child blocks supervising the inner sandbox and never beats
    round_budget = deadline * 6.0 + 60.0
    jobs = [Job(id=f"round-{i:03d}", kind="chaos_round",
                payload={"index": i, "seed": [seed, i],
                         "deadline": deadline},
                deadline=round_budget, max_attempts=3)
            for i in range(rounds)]
    policy = FarmPolicy(
        n_workers=n_workers, lease_ttl=10.0, poll_interval=0.2,
        stall_timeout=None, deadline=round_budget,
        backoff=BackoffPolicy(max_attempts=3, base=0.5, max_delay=5.0))
    plan = None
    if kill_workers > 0:
        # kills 1-4 s apart fall due while the rounds still run
        plan = WorkerKillPlan(seed=seed + 1000, kills=kill_workers,
                              min_interval=1.0, max_interval=4.0)
    farm_ledger = run_campaign(queue_dir, jobs, policy=policy,
                               label="chaos-farm", stream=stream,
                               kill_plan=plan)

    queue = WorkQueue(queue_dir)
    reports, failed, dead = [], [], []
    for i in range(rounds):
        res = queue.result(f"round-{i:03d}")
        if res is None:
            dead.append(i)
            continue
        report = res["result"]["report"]
        reports.append(report)
        if not report.get("ok"):
            failed.append(i)
        if out is not None:
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, f"round-{i:03d}.json"),
                      "w") as f:
                json.dump(report, f, indent=1, default=str)
    orphans = [rec.get("pid") for rec in queue.read_journal()
               if rec.get("event") == "worker-start"
               and _alive(rec.get("pid"))]
    checks = {"rounds_ok": not failed, "drained": farm_ledger["ok"],
              "dead_letters_reported": all(
                  (queue.dead_letter(f"round-{i:03d}") or {}).get(
                      "report") is not None for i in dead),
              "no_orphans": not orphans,
              "kills_landed": (len(farm_ledger["worker_kills"])
                               == kill_workers)}
    return _verdict(
        "farm", out,
        {"rounds": rounds, "seed": seed, "failed_rounds": failed,
         "dead_rounds": dead, "orphans": orphans,
         "kills": sum(len(r.get("events") or []) for r in reports),
         "worker_kills": farm_ledger["worker_kills"],
         "reclaims": farm_ledger["reclaims"],
         "requeues": farm_ledger["requeues"],
         "outcomes": {r["round"]: r["outcome"] for r in reports},
         "farm": {k: farm_ledger[k] for k in
                  ("wall_time", "n_workers", "attempts", "jobs", "ok")}},
        checks,
        f"all {rounds} round(s) held under "
        f"{len(farm_ledger['worker_kills'])} sandbox kill(s) "
        f"({farm_ledger['requeues']} requeue(s)), no sandbox left "
        f"behind", stream)


# ----------------------------------------------------------------------
# hosts: several supervisor "hosts", one shared queue
# ----------------------------------------------------------------------

def run_chaos_hosts(*, hosts: int = 2, rounds: int = 2,
                    out: str | None = "chaos-hosts-reports",
                    n_workers: int = 1, skew: float = 0.0,
                    partition: bool = False, deadline: float = 240.0,
                    queue_dir: str | None = None, stream=None) -> int:
    """Distributed chaos campaign; returns a process exit code.

    ``hosts`` supervisor processes (each its own ``host_id`` and, with
    ``skew``, an alternating ±skew wall-clock offset) drain one shared
    queue of ``rounds`` bitwise-verifiable solver jobs plus sleep
    ballast.  With ``partition`` the campaign SIGSTOPs the last host's
    process tree long enough for its leases to be reaped, then
    resumes it; then host 0 is SIGKILLed outright (supervisor and
    sandboxes).  The survivors must finish every job
    **exactly once** — the audit of the journal fold
    (:func:`~repro.resilience.farm.build_ledger`, kept under ``ledger``)
    finds no double completion, every stale commit is fenced, no job is
    dead-lettered — and each solver job's final state is bitwise
    identical to an in-process reference march.
    """
    stream = stream or sys.stdout
    if hosts < 2:
        raise SolverError("chaos --hosts: need at least 2 hosts")
    queue_dir = _queue_dir(queue_dir, out, "farm-queue")
    if out is not None:
        os.makedirs(out, exist_ok=True)
    lease_ttl, max_skew = 1.5, 1.0
    offsets = [0.0] * hosts
    if skew:
        # alternating ±skew: host clocks disagree by up to 2*skew
        offsets = [skew if i % 2 == 0 else -skew for i in range(hosts)]
    print(f"chaos hosts: {hosts} host(s) x {n_workers} job(s) at once, "
          f"{rounds} solver round(s), skew {offsets}, "
          f"partition {partition}, queue {queue_dir}", file=stream)
    timeline = _Timeline(stream)
    case_names = [("euler1d" if i % 2 == 0 else "euler2d")
                  for i in range(rounds)]
    ref = {name: _reference(name) for name in sorted(set(case_names))}

    queue = WorkQueue(queue_dir, lease_ttl=lease_ttl,
                      host_id="chaos-driver", max_skew=max_skew)
    jobs = ([Job(id=f"case-{i:02d}", kind="solver_case", priority=-1,
                 payload={"case": case_names[i], "every_n_steps": 2},
                 max_attempts=8)
             for i in range(rounds)]
            + [Job(id=f"pad-{i:02d}", kind="sleep", max_attempts=8,
                   payload={"duration": 0.5})
               for i in range(2 * hosts * n_workers)])
    for job in jobs:
        queue.enqueue(job)

    survivor = hosts - 1    # last host outlives the campaign
    names = [f"host{i}" for i in range(hosts)]
    base = FarmPolicy(
        n_workers=n_workers, lease_ttl=lease_ttl, poll_interval=0.1,
        deadline=deadline / 2.0,
        backoff=BackoffPolicy(max_attempts=6, base=0.2, max_delay=2.0),
        drain_when_idle=False,   # serve mode: the campaign stops us
        max_skew=max_skew)
    policies = [replace(base, host_id=names[i], clock_offset=offsets[i])
                for i in range(hosts)]
    procs = []
    drained = False
    try:
        for policy in policies:
            procs.append(_spawn_host(timeline, queue_dir, policy))
        # let work be claimed, and every host run a sandbox, before
        # injecting anything
        timeline.wait(lambda: any(r.get("event") == "claim"
                                  for r in queue.read_journal())
                      and all(len(_host_pids(queue, n, p)) > 1
                              for n, p in zip(names, procs)),
                      deadline / 4.0)
        if partition:
            # SIGSTOP the survivor's whole tree long enough for its
            # leases to expire on the other hosts' monotonic clocks:
            # the supervisor first, so it starts no sandbox unstopped
            host = names[survivor]
            signal_group(procs[survivor].pid, signal.SIGSTOP)
            pids = _host_pids(queue, host, procs[survivor])
            hold = lease_ttl + max_skew + 1.0
            for pid in pids[1:]:
                signal_group(pid, signal.SIGSTOP)
            timeline.note("partition", host=host, pids=pids, hold=hold)
            time.sleep(hold)
            for pid in pids:
                signal_group(pid, signal.SIGCONT)
            timeline.note("heal", host=host)
        _kill_host(timeline, queue, names[0], procs[0])
        drained = timeline.wait(queue.all_terminal, deadline)
    finally:
        _stop_hosts(procs)

    ledger = build_ledger(queue, wall_time=timeline.elapsed(),
                          label="chaos-hosts")
    audit, fenced = ledger["exactly_once_audit"], ledger["fenced"]
    mismatches = []
    for i, name in enumerate(case_names):
        res = queue.result(f"case-{i:02d}")
        got = None if res is None else res["result"]["state_sha256"]
        if got != ref[name]:
            mismatches.append({"job": f"case-{i:02d}", "got": got,
                               "want": ref[name]})
    checks = {"drained": drained, "exactly_once": audit["ok"],
              "no_dead_letters": not ledger["jobs"].get("dead", 0),
              "bitwise_match": not mismatches}
    return _verdict(
        "hosts", out,
        {"hosts": hosts, "rounds": rounds, "skew": offsets,
         "partition": partition, "events": timeline.events,
         "audit": audit, "fenced": fenced, "mismatches": mismatches,
         "jobs": ledger["jobs"], "ledger": ledger},
        checks,
        f"{ledger['jobs'].get('done', 0)} job(s) done exactly once "
        f"across {hosts} host(s) ({fenced} stale commit(s) fenced, "
        f"{audit['jobs_completed']} completion(s) audited), solver "
        f"states bitwise-identical to the in-process reference", stream)


# ----------------------------------------------------------------------
# batch: fault-injected requests through the service front door
# ----------------------------------------------------------------------

#: Deterministic fault mix over the faulted slots (cycled in order).
_FAULT_CYCLE = ("fail", "crash", "hang", "nan")

#: Known-good VSL condition (same as the tier-1 API tests) used for the
#: half-open probe that must re-close the tripped solver cell.
_PROBE_STAGNATION = {"method": "stagnation", "V": 6700.0, "h": 65500.0,
                     "nose_radius": 1.3}
_PROBE_HEAT_TITAN = {"method": "heat_point", "V": 5200.0, "h": 60.0e3,
                     "nose_radius": 1.1, "gas": "titan"}

#: Breaker cells the campaign trips (and must re-close).
_VSL_CELL = "stagnation/vsl:equilibrium-air"
_TITAN_CELL = "heat_point/correlation:titan"


def _good_request(i: int, rng) -> dict:
    """One cheap, deterministic, always-valid request."""
    pick = i % 3
    if pick == 0:
        return {"method": "heat_point",
                "V": round(3000.0 + 9000.0 * rng.random(), 3),
                "h": round(25.0e3 + 55.0e3 * rng.random(), 3),
                "nose_radius": round(0.3 + 4.0 * rng.random(), 4)}
    if pick == 1:
        return {"method": "stagnation_correlation",
                "V": round(4000.0 + 8000.0 * rng.random(), 3),
                "h": round(30.0e3 + 50.0e3 * rng.random(), 3),
                "nose_radius": round(0.5 + 3.0 * rng.random(), 4)}
    gas = ("equilibrium-air", "titan", "jupiter")[i % 9 // 3]
    return {"method": "equilibrium_composition",
            "T": round(1500.0 + 6000.0 * rng.random(), 3),
            "p": round(10.0 ** (3.0 + 2.0 * rng.random()), 3),
            "gas": gas}


def _faulted_request(i: int, rng) -> dict:
    """One fault-injected request.

    Solver-rung faults (fail/crash/hang) target the VSL rung of
    ``stagnation`` — the correlation rung still answers, so these come
    back ``degraded`` with the injected failure captured.  NaN faults
    corrupt a single-rung ``heat_point`` on the *titan* condition class
    (its own breaker cell, so good earth-class requests are never
    routed), which has no rung to fall back to and fails outright.
    """
    kind = _FAULT_CYCLE[i % len(_FAULT_CYCLE)]
    if kind == "nan":
        return {"method": "heat_point",
                "V": round(4500.0 + 10.0 * i, 3), "h": 55.0e3,
                "nose_radius": 1.0, "gas": "titan",
                "fault": {"kind": "nan"}}
    req = {"method": "stagnation",
           "V": round(7000.0 + 10.0 * i, 3), "h": 71.0e3,
           "nose_radius": 1.3,
           "fault": {"kind": kind, "rung": "vsl"}}
    if kind == "hang":
        req["deadline"] = 1.0   # the sandbox kill budget for the hang
    return req


def build_campaign_requests(*, requests: int, faulted: int,
                            seed: int) -> tuple:
    """Seeded deterministic campaign: ``requests`` total, ``faulted``
    of them fault-injected at seeded positions.  Returns
    ``(batch, fault_positions, good_positions)``."""
    rng = np.random.default_rng(seed)
    positions = sorted(rng.choice(requests, size=faulted,
                                  replace=False).tolist())
    fault_set = set(positions)
    batch, n_good = [], 0
    n_fault = 0
    for i in range(requests):
        if i in fault_set:
            batch.append(_faulted_request(n_fault, rng))
            n_fault += 1
        else:
            batch.append(_good_request(n_good, rng))
            n_good += 1
    good_positions = [i for i in range(requests) if i not in fault_set]
    return batch, positions, good_positions


def _transition_pairs(transitions: list, cell: str) -> list:
    return [(t["from"], t["to"]) for t in transitions
            if t["cell"] == cell]


def run_chaos_batch(*, requests: int = 200, faulted: int = 20,
                    seed: int = 0, out: str | None = "chaos-reports",
                    deadline: float = 120.0, stream=None) -> int:
    """Batch-service chaos campaign; returns a process exit code.

    A seeded campaign mixes fault-injected requests (hangs, child
    crashes, injected solver failures, NaN corruption) into a batch of
    good requests.  Exactly one envelope must come back per request
    within the batch deadline; every good result must be
    bitwise-identical to a fault-free reference run of the same
    requests; every injected failure must be captured in its own
    envelope (a failure record, or an explicit breaker routing); and
    the breaker transitions must follow a deterministic sequence — the
    campaign drives the cooldown with an offset clock, trips the
    faulted cells, then probes them back closed.
    """
    from repro.service.batch import BatchPolicy, evaluate_batch
    from repro.service.breaker import BreakerBoard, BreakerPolicy
    stream = stream or sys.stdout
    t0 = time.monotonic()
    cooldown = 600.0

    batch, fault_pos, good_pos = build_campaign_requests(
        requests=requests, faulted=faulted, seed=seed)
    policy = BatchPolicy(deadline=deadline, request_deadline=30.0,
                         allow_faults=True,
                         breaker=BreakerPolicy(trip_after=3,
                                               cooldown=cooldown))

    # Offset clock: the campaign, not the wall, decides when the
    # breaker cooldown has elapsed — keeps the transition ledger
    # deterministic.
    offset = [0.0]
    board = BreakerBoard(policy.breaker,
                         clock=lambda: time.monotonic() + offset[0])

    print(f"chaos batch: {requests} requests ({faulted} faulted), "
          f"seed {seed}", file=stream)
    result = evaluate_batch(batch, policy, breakers=board)

    print("chaos batch: fault-free reference run", file=stream)
    reference = evaluate_batch([batch[i] for i in good_pos],
                               BatchPolicy(deadline=deadline))

    # Cooldown elapses (by clock offset); half-open probes must
    # re-close both tripped cells.
    offset[0] += cooldown + 1.0
    print("chaos batch: half-open probes after cooldown", file=stream)
    probe = evaluate_batch([_PROBE_STAGNATION, _PROBE_HEAT_TITAN],
                           policy, breakers=board)

    envelopes = result.envelopes
    checks = {}
    checks["one_envelope_per_request"] = (
        len(envelopes) == requests
        and all(e is not None and e.index == i
                for i, e in enumerate(envelopes))
        and bool(result.ledger["ok"]))
    checks["deadline_respected"] = (time.monotonic() - t0) < deadline

    good_ok = good_bitwise = True
    for j, i in enumerate(good_pos):
        env, ref = envelopes[i], reference.envelopes[j]
        if env.status != "ok" or ref.status != "ok":
            good_ok = False
        elif env.result != ref.result:
            good_bitwise = False
    checks["good_requests_all_ok"] = good_ok
    checks["good_results_bitwise_identical"] = good_bitwise

    captured = True
    for i in fault_pos:
        env = envelopes[i]
        if env.status == "ok":
            captured = False
            continue
        has_failure = any("error_type" in rec for rec in
                          env.degradation) or env.error is not None
        if not (has_failure or env.routed_by_breaker):
            captured = False
    checks["injected_failures_captured"] = captured

    vsl = _transition_pairs(board.transitions, _VSL_CELL)
    titan = _transition_pairs(board.transitions, _TITAN_CELL)
    expected = [("closed", "open"), ("open", "half_open"),
                ("half_open", "closed")]
    # a cell only trips (and must then walk the full open -> half-open
    # -> closed arc) when it received >= trip_after injected failures;
    # below that the deterministic expectation is "no transitions"
    n_nan = sum(1 for j in range(faulted)
                if _FAULT_CYCLE[j % len(_FAULT_CYCLE)] == "nan")
    trip = policy.breaker.trip_after
    checks["breaker_transitions_deterministic"] = (
        vsl == (expected if faulted - n_nan >= trip else [])
        and titan == (expected if n_nan >= trip else []))
    checks["probes_reclose_ok"] = all(e.status == "ok"
                                      for e in probe.envelopes)

    elapsed = round(time.monotonic() - t0, 3)
    return _verdict(
        "batch", out,
        {"seed": seed, "requests": requests, "faulted": faulted,
         "fault_positions": fault_pos, "elapsed_s": elapsed,
         "ledger": result.ledger,
         "breaker_transitions": board.transitions,
         "probe_counts": probe.ledger["counts"]},
        checks,
        f"{requests} envelope(s) in {elapsed} s, good results "
        f"bitwise-identical to the fault-free run, every injected "
        f"failure captured, breakers re-closed", stream)


# ----------------------------------------------------------------------
# jobs: SIGKILL an async job's host mid-march, resume it elsewhere
# ----------------------------------------------------------------------

def run_chaos_jobs(*, n_steps: int = 400, deadline: float = 240.0,
                   out: str | None = "chaos-jobs-reports",
                   queue_dir: str | None = None, stream=None) -> int:
    """Kill-and-resume chaos campaign for the async-job subsystem.

    1. March ``CASES["euler2d"]`` for ``n_steps`` uninterrupted in
       process → the reference state fingerprint.
    2. ``submit`` the same march as an async job (benchmarking submit
       latency on ballast submissions first), start a host, and
       SIGKILL the whole host (supervisor and sandbox) once
       live progress and ≥ 1 durable snapshot prove the march is
       mid-flight.
    3. Start a second host: lease reaping requeues the dead job, the
       attempt resumes from the latest snapshot generation and
       finishes.
    4. Assert: final state bitwise-identical to the reference,
       exactly-once completion and cancellation from the merged
       journal, cooperative cancellation works, and after ``gc`` no
       job artifacts or orphan processes remain.

    Writes ``chaos-ledger.json`` + ``BENCH_jobs.json`` under ``out``;
    returns a process exit code.
    """
    from repro.service.jobs import (CANCELLED, DONE, JOB_TERMINAL,
                                    JobManager)
    stream = stream or sys.stdout
    case, every = "euler2d", 2
    queue_dir = _queue_dir(queue_dir, out, "jobs-queue")
    if out is not None:
        os.makedirs(out, exist_ok=True)
    timeline = _Timeline(stream)

    # -- 1. uninterrupted reference ------------------------------------
    t0 = time.monotonic()
    ref_fp = _reference(case, n_steps=n_steps)
    ref_wall = time.monotonic() - t0
    print(f"chaos jobs: case {case}, {n_steps} step(s); reference "
          f"marched in {ref_wall:.2f} s ({ref_fp[:12]}…)", file=stream)

    # -- submit-latency bench on a throwaway queue ---------------------
    with tempfile.TemporaryDirectory(prefix="jobs-bench-") as bench_dir:
        bench_mgr = JobManager(bench_dir)
        lat = sorted(
            bench_mgr.submit("sleep", {"duration": 0.01},
                             job_id=f"bench-{i:03d}")["submit_latency_s"]
            for i in range(20))
    submit_latency = {"n": len(lat),
                      "p50_s": round(lat[len(lat) // 2], 4),
                      "max_s": round(lat[-1], 4)}

    # -- 2. submit, supervise, kill mid-march --------------------------
    mgr = JobManager(queue_dir, host_id="jobs-client", lease_ttl=2.0,
                     max_skew=0.5)
    sub = mgr.submit("solver_case",
                     {"case": case, "run_kwargs": {"n_steps": n_steps},
                      "every_n_steps": every},
                     job_id="march-00", max_attempts=8)
    timeline.note("submit", job=sub["job"],
                  latency_s=sub["submit_latency_s"])
    base = FarmPolicy(
        n_workers=1, lease_ttl=2.0, poll_interval=0.1,
        backoff=BackoffPolicy(max_attempts=8, base=0.1, max_delay=1.0),
        max_skew=0.5)

    def spawn(host: str):
        return _spawn_host(timeline, queue_dir,
                           replace(base, host_id=host))

    def mid_march(st: dict) -> bool:
        step = int((st.get("progress") or {}).get("step") or 0)
        return (st["snapshots"]["generations"] >= 1 and step >= every
                and st["state"] not in JOB_TERMINAL)

    seen: dict = {}

    def settled() -> bool:
        # mid-march, or terminal: a march that ends before the kill is
        # a miss, reported at once instead of after the whole budget
        st = seen["status"] = mgr.status("march-00")
        return mid_march(st) or st["state"] in JOB_TERMINAL

    t_interrupted = time.monotonic()
    checks: dict[str, bool] = {}
    killed_pids: list[int] = []
    procs = []
    try:
        procs.append(spawn("jobsA"))
        timeline.wait(settled, deadline / 3.0)
        st = seen["status"]
        checks["reached_mid_march"] = mid_march(st)
        timeline.note("mid-march", state=st["state"],
                      progress=(st.get("progress") or {}).get("step"),
                      snapshots=st["snapshots"]["generations"])
        killed_pids = _kill_host(timeline, mgr.queue, "jobsA", procs[0])

        # -- 3. resume on a fresh host ---------------------------------
        procs.append(spawn("jobsB"))
        timeline.wait(mgr.queue.all_terminal, deadline)
        checks["resumed_done"] = mgr.sync("march-00").get("state") == DONE
        _stop_hosts(procs)
        wall_interrupted = time.monotonic() - t_interrupted
        res = mgr.result("march-00")
        got_fp = ((res.get("result") or {}).get("state_sha256")
                  if res.get("ready") else None)
        checks["bitwise_match"] = got_fp == ref_fp
        timeline.note("resumed", state=res.get("state"),
                      fingerprint=(got_fp or "?")[:12],
                      attempts=mgr.status("march-00").get("attempts"))

        # -- 4. cooperative cancellation probe -------------------------
        mgr.submit("solver_case",
                   {"case": case, "run_kwargs": {"n_steps": 4000},
                    "every_n_steps": every},
                   job_id="cancel-00", max_attempts=8)
        procs.append(spawn("jobsC"))
        timeline.wait(lambda: (mgr.status("cancel-00").get("progress")
                               or {}).get("step") is not None,
                      deadline / 3.0)
        cancelled = mgr.cancel("cancel-00", reason="chaos probe",
                               escalate_after=15.0, wait=deadline / 3.0)
        checks["cancelled"] = cancelled.get("state") == CANCELLED
        timeline.note("cancel", state=cancelled.get("state"),
                      escalated=cancelled.get("escalated"))
        timeline.wait(mgr.queue.all_terminal, deadline)
    finally:
        _stop_hosts(procs)

    # -- audits --------------------------------------------------------
    ledger = mgr.ledger()
    checks["exactly_once"] = bool(ledger["audit"]["ok"])

    # -- gc: no leaked artifacts, no orphan processes ------------------
    swept = mgr.gc(ttl=0.0, include_failed=True)
    leaked = []
    for job_id in swept["collected"]:
        for d in (mgr.queue.work_dir, mgr.queue.jobs_dir,
                  mgr.queue.state_dir, mgr.queue.results_dir):
            path = os.path.join(d, job_id)
            if os.path.exists(path) or os.path.exists(f"{path}.json"):
                leaked.append(path)
    checks["gc_clean"] = (not leaked
                          and swept["n_collected"] >= 2)
    orphans = [int(pid) for pid in killed_pids if _alive(pid)]
    checks["no_orphans"] = not orphans
    timeline.note("gc", collected=swept["n_collected"], leaked=len(leaked),
                  orphans=len(orphans))

    bench = {"bench": "jobs", "case": case, "n_steps": int(n_steps),
             "submit_latency": submit_latency,
             "resume": {"reference_wall_s": round(ref_wall, 3),
                        "interrupted_wall_s": round(wall_interrupted, 3),
                        "overhead_ratio":
                            (round(wall_interrupted / ref_wall, 2)
                             if ref_wall > 0 else None)}}
    if out is not None:
        write_bench_json(os.path.join(out, "BENCH_jobs.json"), bench)
    return _verdict(
        "jobs", out,
        {"case": case, "events": timeline.events, "bench": bench,
         "jobs_ledger": ledger},
        checks,
        f"killed the host mid-march, resumed bitwise-identical "
        f"({ref_fp[:12]}…), exactly-once audit clean, cancel "
        f"acknowledged, gc left nothing behind", stream)
