"""Chaos harness: random fault schedules under process isolation.

``python -m repro chaos --seed S --rounds N`` is the operational proof
of the resilience stack: every round samples a solver and a random
fault schedule (hangs, memory balloons, scripted crashes, snapshot
corruption, transient NaN/perturbation upsets), runs the march inside
an :class:`~repro.resilience.isolation.IsolatedRunner` sandbox with
tight budgets, and asserts the invariants production operation depends
on:

* **termination** — every round ends (kills + bounded restart budget:
  nothing can wedge the harness);
* **bitwise resume** — for schedules whose faults never corrupt the
  marching state (hang / balloon / crash / snapshot IO), the
  kill-and-resume result matches a crash-free in-process run bit for
  bit;
* **accounting** — every kill leaves a typed
  :class:`~repro.resilience.isolation.IsolationEvent`, an aborted round
  carries a :class:`~repro.resilience.report.FailureReport` embedding
  the exact (JSON round-trippable) fault schedule for deterministic
  replay, and a per-round report lands on disk;
* **no orphans** — after every round a process sweep finds no surviving
  child of the harness.

Sampling is fully deterministic in the seed: the same ``--seed`` yields
the same solvers, the same schedules and the same outcomes.

``--farm`` escalates the harness one supervision layer up: rounds
become jobs on the :mod:`~repro.resilience.farm` work queue, drained by
N workers, while the farm SIGKILLs the *workers themselves* on a
deterministic schedule — so the same campaign now also proves lease
reclaim, retry/backoff and worker replacement under fire.  Farm rounds
seed per-round rngs (``[seed, index]``) so they are order-independent
across workers; the serial and farm schedules for one seed therefore
differ, but each is individually deterministic.

``--farm --hosts N`` escalates once more, to the **distributed** farm:
N supervisor processes — each a separate "host" with its own
``host_id``, injected wall-clock skew and per-host journal — drain one
shared queue directory while the harness suspends a host mid-claim
(SIGSTOP: a network partition), freezes its clock beacon, delays its
queue I/O (stale NFS), heals it, and finally SIGKILLs a different host
outright.  The surviving host must finish every job exactly once
(journal audit) and the solver jobs' final states must be bitwise
identical to a single-host in-process reference.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import sys
import tempfile
import time

import numpy as np

from repro.errors import SolverError
from repro.resilience.faults import FaultInjector
from repro.resilience.isolation import (IsolatedRunner, IsolationPolicy,
                                        _read_rss_mb)

__all__ = ["CASES", "run_chaos", "run_chaos_farm", "run_chaos_hosts",
           "run_round", "sample_schedule"]


# ----------------------------------------------------------------------
# solver case matrix (small, fast, persist-protocol instances): the one
# definition of these four marches, reused by degrade-smoke and the tests
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


# ----------------------------------------------------------------------
# deterministic schedule sampling
# ----------------------------------------------------------------------

def sample_schedule(rng, case_name: str, *, balloon_mb: float = 500.0
                    ) -> tuple[FaultInjector, dict]:
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
            fi.inject_memory_balloon(step=step, mb=balloon_mb,
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


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------

def run_round(index: int, rng, *, out_dir: str | None = None,
              deadline: float = 30.0, stall_timeout: float = 2.0,
              memory_margin_mb: float = 250.0, balloon_mb: float = 500.0,
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
    faults, schedule = sample_schedule(rng, case_name,
                                       balloon_mb=balloon_mb)
    kinds = [f["kind"] for f in schedule["faults"]]
    print(f"round {index}: {case_name} with fault(s) "
          f"{'+'.join(kinds)}", file=stream)

    base_rss = _read_rss_mb()
    policy = IsolationPolicy(
        deadline=deadline,
        memory_mb=None if base_rss is None
        else base_rss + memory_margin_mb,
        stall_timeout=stall_timeout,
        max_restarts=3, poll_interval=0.05, term_grace=1.0,
        every_n_steps=3)
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
        if solver is not None:
            from repro.resilience.farm import state_fingerprint
            ref = factory()
            ref.run(**run_kwargs)
            checks["bitwise_match"] = (state_fingerprint(solver)
                                       == state_fingerprint(ref))
        else:
            checks["bitwise_match"] = False
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


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------

def run_chaos(*, rounds: int = 5, seed: int = 0, out: str | None =
              "chaos-reports", deadline: float = 30.0,
              stall_timeout: float = 2.0, memory_margin_mb: float = 250.0,
              balloon_mb: float = 500.0, cases=None, stream=None) -> int:
    """Run ``rounds`` chaos rounds; returns a process exit code
    (0 = every invariant held in every round, 1 otherwise).

    Per-round reports land in ``out`` (``round-NNN.json``) together
    with a ``chaos-ledger.json`` summarising the campaign.
    """
    stream = stream or sys.stdout
    rng = np.random.default_rng(seed)
    print(f"chaos: {rounds} round(s), seed {seed}, deadline "
          f"{deadline:.0f} s, stall {stall_timeout:.1f} s", file=stream)
    reports = []
    for i in range(rounds):
        reports.append(run_round(i, rng, out_dir=out, deadline=deadline,
                                 stall_timeout=stall_timeout,
                                 memory_margin_mb=memory_margin_mb,
                                 balloon_mb=balloon_mb, cases=cases,
                                 stream=stream))
    failed = [r["round"] for r in reports if not r["ok"]]
    ledger = {"rounds": len(reports), "seed": seed,
              "failed_rounds": failed,
              "kills": sum(len(r["events"]) for r in reports),
              "outcomes": {r["round"]: r["outcome"] for r in reports},
              "ok": not failed}
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "chaos-ledger.json"), "w") as f:
            json.dump(ledger, f, indent=1)
    if failed:
        print(f"chaos: {len(failed)}/{rounds} round(s) violated an "
              f"invariant: {failed}", file=stream)
        return 1
    print(f"chaos: all {rounds} round(s) green "
          f"({ledger['kills']} kill(s) performed and recovered)",
          file=stream)
    return 0


# ----------------------------------------------------------------------
# farm mode: rounds as queue jobs, chaos kills the workers too
# ----------------------------------------------------------------------

def run_chaos_farm(*, rounds: int = 5, seed: int = 0, out: str | None =
                   "chaos-reports", n_workers: int = 2,
                   kill_workers: int = 2, deadline: float = 30.0,
                   stall_timeout: float = 2.0,
                   memory_margin_mb: float = 250.0,
                   balloon_mb: float = 500.0, queue_dir: str | None =
                   None, stream=None) -> int:
    """Run the chaos campaign on the solve farm; returns an exit code.

    Every round is a ``chaos_round`` job; while workers drain them the
    farm delivers ``kill_workers`` scheduled SIGKILLs to its own
    workers.  A killed worker's round is reclaimed when its lease
    expires and retried elsewhere, so the campaign must still end with
    every round done (invariants checked as in serial mode) or
    dead-lettered with a failure report.
    """
    stream = stream or sys.stdout
    from repro.resilience.farm import (FarmPolicy, WorkerKillPlan,
                                       run_campaign)
    from repro.resilience.queue import BackoffPolicy, Job
    if queue_dir is None:
        queue_dir = (os.path.join(out, "farm-queue") if out is not None
                     else tempfile.mkdtemp(prefix="chaos-farm-"))
    print(f"chaos --farm: {rounds} round(s) on {n_workers} worker(s), "
          f"seed {seed}, {kill_workers} scheduled worker kill(s), "
          f"queue {queue_dir}", file=stream)
    # a round may burn several inner attempts (max_restarts=3) of
    # `deadline` each before it settles; budget the outer sandbox for
    # the worst case, and disable the outer stall detector — the outer
    # child blocks supervising the inner sandbox and never beats
    round_budget = deadline * 6.0 + 60.0
    jobs = [Job(id=f"round-{i:03d}", kind="chaos_round",
                payload={"index": i, "seed": [seed, i],
                         "deadline": deadline,
                         "stall_timeout": stall_timeout,
                         "memory_margin_mb": memory_margin_mb,
                         "balloon_mb": balloon_mb},
                deadline=round_budget, max_attempts=3)
            for i in range(rounds)]
    policy = FarmPolicy(
        n_workers=n_workers, lease_ttl=10.0, poll_interval=0.2,
        stall_timeout=None, deadline=round_budget,
        worker_restart_budget=2 * rounds + 4,
        backoff=BackoffPolicy(max_attempts=3, base=0.5, max_delay=5.0))
    plan = None
    if kill_workers > 0:
        plan = WorkerKillPlan(seed=seed + 1000, kills=kill_workers,
                              min_interval=2.0, max_interval=10.0)
    farm_ledger = run_campaign(queue_dir, jobs, policy=policy,
                               label="chaos-farm", stream=stream,
                               kill_plan=plan)

    from repro.resilience.queue import WorkQueue
    queue = WorkQueue(queue_dir)
    reports, failed, dead = [], [], []
    for i in range(rounds):
        job_id = f"round-{i:03d}"
        res = queue.result(job_id)
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
    dead_ok = all(
        (queue.dead_letter(f"round-{i:03d}") or {}).get("report")
        is not None for i in dead)
    ledger = {"rounds": rounds, "seed": seed, "mode": "farm",
              "failed_rounds": failed, "dead_rounds": dead,
              "kills": sum(len(r.get("events") or []) for r in reports),
              "worker_kills": farm_ledger["worker_kills"],
              "reclaims": farm_ledger["reclaims"],
              "requeues": farm_ledger["requeues"],
              "outcomes": {r["round"]: r["outcome"] for r in reports},
              "farm": {k: farm_ledger[k] for k in
                       ("wall_time", "n_workers", "attempts", "jobs",
                        "ok")},
              "ok": (not failed and farm_ledger["ok"]
                     and (not dead or dead_ok))}
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "chaos-ledger.json"), "w") as f:
            json.dump(ledger, f, indent=1, default=str)
    if not ledger["ok"]:
        print(f"chaos --farm: FAILED (rounds {failed} violated an "
              f"invariant; dead-lettered {dead}"
              f"{'' if dead_ok else ' without failure reports'})",
              file=stream)
        return 1
    print(f"chaos --farm: all {rounds} round(s) green under "
          f"{len(farm_ledger['worker_kills'])} worker kill(s) "
          f"({ledger['reclaims']} lease reclaim(s), "
          f"{ledger['requeues']} requeue(s))", file=stream)
    return 0


# ----------------------------------------------------------------------
# distributed mode: several supervisor "hosts", one shared queue
# ----------------------------------------------------------------------

def _chaos_host_main(queue_dir: str, host_id: str, cfg: dict) -> None:
    """One chaos "host": a farm supervisor serving the shared queue
    under its own identity, injected clock skew and chaos knobs."""
    try:
        os.setpgid(0, 0)
    except OSError:
        pass
    if cfg.get("io_delay"):
        # stale-NFS simulation: every queue I/O on this host sleeps
        os.environ["REPRO_QUEUE_IO_DELAY"] = str(cfg["io_delay"])
    from repro.resilience.farm import Farm, FarmPolicy
    from repro.resilience.queue import BackoffPolicy
    policy = FarmPolicy(
        n_workers=int(cfg["n_workers"]),
        lease_ttl=float(cfg["lease_ttl"]), poll_interval=0.1,
        worker_stall_timeout=60.0,
        worker_restart_budget=int(cfg.get("restart_budget", 4)),
        deadline=float(cfg["deadline"]), stall_timeout=None,
        backoff=BackoffPolicy(max_attempts=6, base=0.2, max_delay=2.0),
        drain_when_idle=False,   # serve mode: driver SIGTERMs us
        host_id=host_id, max_skew=float(cfg["max_skew"]),
        beacon_interval=0.2,
        clock_offset=float(cfg.get("clock_offset", 0.0)),
        freeze_beacon_after=cfg.get("freeze_beacon_after"))
    stream = sys.stdout if cfg.get("verbose") else open(os.devnull, "w")
    farm = Farm(queue_dir, policy, label=f"chaos-{host_id}",
                stream=stream)
    ledger = farm.run()
    if cfg.get("out"):
        path = os.path.join(cfg["out"], f"ledger-{host_id}.json")
        with open(path, "w") as f:
            json.dump(ledger, f, indent=1, default=str)


def _host_pids(queue, host_id: str, proc) -> list[int]:
    """The supervisor pid plus the worker pids its beacon advertises."""
    from repro.resilience.lease import read_beacons
    pids = [proc.pid]
    beacon = read_beacons(queue.hosts_dir).get(host_id) or {}
    pids.extend(int(p) for p in beacon.get("workers") or [])
    return pids


def run_chaos_hosts(*, hosts: int = 2, rounds: int = 2, seed: int = 0,
                    out: str | None = "chaos-hosts-reports",
                    n_workers: int = 1, skew: float = 0.0,
                    partition: bool = False, deadline: float = 240.0,
                    queue_dir: str | None = None, stream=None) -> int:
    """Distributed chaos campaign; returns a process exit code.

    ``hosts`` supervisor processes (each its own ``host_id`` and, with
    ``skew``, an alternating ±skew wall-clock offset) drain one shared
    queue of ``rounds`` bitwise-verifiable solver jobs plus sleep
    ballast.  With ``partition`` the campaign SIGSTOPs the surviving
    host mid-run (its beacon frozen, its queue I/O delayed after heal)
    long enough for its leases to be reaped, then resumes it; then host
    0 is SIGKILLed outright (supervisor, workers and sandbox children).
    The survivors must finish every job **exactly once** — the merged
    journal audit finds no double completion, every fenced stale commit
    is rejected, and each solver job's final state is bitwise identical
    to a single-host in-process reference march.
    """
    stream = stream or sys.stdout
    from repro.resilience.farm import (audit_exactly_once,
                                       merge_ledgers, state_fingerprint,
                                       sweep_orphans)
    from repro.resilience.isolation import kill_pid_tree
    from repro.resilience.queue import Job, WorkQueue
    if hosts < 2:
        raise SolverError("chaos --hosts: need at least 2 hosts")
    if queue_dir is None:
        queue_dir = (os.path.join(out, "farm-queue") if out is not None
                     else tempfile.mkdtemp(prefix="chaos-hosts-"))
    if out is not None:
        os.makedirs(out, exist_ok=True)
    lease_ttl, max_skew = 1.5, 1.0
    offsets = [0.0] * hosts
    if skew:
        # alternating ±skew: host clocks disagree by up to 2*skew
        offsets = [skew if i % 2 == 0 else -skew for i in range(hosts)]
    print(f"chaos --hosts: {hosts} host(s) x {n_workers} worker(s), "
          f"{rounds} solver round(s), skew {offsets}, "
          f"partition {partition}, queue {queue_dir}", file=stream)

    # bitwise reference: uninterrupted in-process marches
    case_names = [("euler1d" if i % 2 == 0 else "euler2d")
                  for i in range(rounds)]
    ref = {}
    for name in sorted(set(case_names)):
        factory, run_kwargs, _, _ = CASES[name]
        solver = factory()
        solver.run(**run_kwargs)
        ref[name] = state_fingerprint(solver)

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
    base_cfg = {"n_workers": n_workers, "lease_ttl": lease_ttl,
                "max_skew": max_skew, "deadline": deadline / 2.0,
                "out": out}
    ctx = mp.get_context("fork")
    procs = []
    for i in range(hosts):
        cfg = dict(base_cfg)
        cfg["clock_offset"] = offsets[i]
        if partition and i == survivor:
            # the partitioned host also loses its beacon (frozen) —
            # advisory beacons must not get its leases reaped early
            cfg["freeze_beacon_after"] = 0.5
        host_id = f"host{i}"
        proc = ctx.Process(target=_chaos_host_main,
                           args=(queue_dir, host_id, cfg),
                           daemon=False)
        proc.start()
        procs.append({"host": host_id, "proc": proc, "index": i})
        print(f"  host {host_id} up (pid {proc.pid}, "
              f"skew {offsets[i]:+.1f} s)", file=stream)

    t0 = time.monotonic()
    events: list[dict] = []

    def _elapsed():
        return time.monotonic() - t0

    def _wait(cond, budget):
        while not cond():
            if _elapsed() > budget:
                return False
            time.sleep(0.1)
        return True

    ok = True
    try:
        # let every host claim work before injecting anything
        _wait(lambda: any(r.get("event") == "claim"
                          for r in queue.read_journal()),
              deadline / 4.0)

        if partition:
            # -- partition the survivor: SIGSTOP its whole process
            # tree long enough for its leases to expire on the other
            # hosts' monotonic clocks, then heal it
            victim = procs[survivor]
            pids = _host_pids(queue, victim["host"], victim["proc"])
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGSTOP)
                except OSError:
                    pass
            hold = lease_ttl + max_skew + 1.0
            events.append({"t": round(_elapsed(), 2),
                           "event": "partition",
                           "host": victim["host"], "pids": pids,
                           "hold": hold})
            print(f"  t={_elapsed():.1f}s partition: SIGSTOP "
                  f"{victim['host']} ({len(pids)} pid(s)) for "
                  f"{hold:.1f} s", file=stream)
            time.sleep(hold)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGCONT)
                except OSError:
                    pass
            events.append({"t": round(_elapsed(), 2), "event": "heal",
                           "host": victim["host"]})
            print(f"  t={_elapsed():.1f}s heal: SIGCONT "
                  f"{victim['host']}", file=stream)

        # -- kill host 0 outright: supervisor, workers, sandboxes
        victim = procs[0]
        pids = _host_pids(queue, victim["host"], victim["proc"])
        for pid in pids:
            kill_pid_tree(pid)
        victim["proc"].join(10.0)
        swept = sweep_orphans(queue, host=victim["host"])
        events.append({"t": round(_elapsed(), 2), "event": "host-kill",
                       "host": victim["host"], "pids": pids,
                       "orphans_swept": len(swept)})
        print(f"  t={_elapsed():.1f}s host-kill: SIGKILL "
              f"{victim['host']} ({len(pids)} pid(s), {len(swept)} "
              f"orphan(s) swept)", file=stream)

        # -- the survivors must drain the queue
        ok = _wait(queue.all_terminal, deadline)
        if not ok:
            print(f"chaos --hosts: FAILED — queue not drained within "
                  f"{deadline:.0f} s: {queue.counts()}", file=stream)
    finally:
        # graceful stop for every live supervisor (writes its ledger)
        for rec in procs:
            if rec["proc"].is_alive():
                try:
                    os.kill(rec["proc"].pid, signal.SIGTERM)
                except OSError:
                    pass
        for rec in procs:
            rec["proc"].join(20.0)
            if rec["proc"].is_alive():
                kill_pid_tree(rec["proc"].pid)
                rec["proc"].join(5.0)

    # -- verdict: exactly-once + bitwise identity + dead letters ------
    audit = audit_exactly_once(queue)
    checks = {"drained": ok, "exactly_once": audit["ok"],
              "no_dead_letters":
                  not queue.counts().get("dead", 0)}
    mismatches = []
    for i in range(rounds):
        res = queue.result(f"case-{i:02d}")
        if res is None:
            mismatches.append({"job": f"case-{i:02d}",
                               "error": "no result"})
            continue
        got = res["result"]["state_sha256"]
        if got != ref[case_names[i]]:
            mismatches.append({"job": f"case-{i:02d}", "got": got,
                               "want": ref[case_names[i]]})
    checks["bitwise_match"] = not mismatches

    ledgers = []
    if out is not None:
        for rec in procs:
            path = os.path.join(out, f"ledger-{rec['host']}.json")
            try:
                with open(path) as f:
                    ledgers.append(json.load(f))
            except (OSError, ValueError):
                pass
    merged = merge_ledgers(ledgers) if ledgers else None
    fenced = sum(1 for r in queue.read_journal()
                 if r.get("event") == "fenced")
    ledger = {"mode": "hosts", "hosts": hosts, "rounds": rounds,
              "seed": seed, "skew": offsets, "partition": partition,
              "events": events, "checks": checks, "audit": audit,
              "fenced": fenced, "mismatches": mismatches,
              "jobs": queue.counts(), "merged_ledger": merged,
              "ok": all(checks.values())}
    if out is not None:
        with open(os.path.join(out, "chaos-ledger.json"), "w") as f:
            json.dump(ledger, f, indent=1, default=str)
    if not ledger["ok"]:
        failed = [k for k, v in checks.items() if not v]
        print(f"chaos --hosts: FAILED ({', '.join(failed)}); audit "
              f"{audit}", file=stream)
        return 1
    print(f"chaos --hosts: green — {queue.counts().get('done', 0)} "
          f"job(s) done exactly once across {hosts} host(s) "
          f"({fenced} stale commit(s) fenced, "
          f"{audit['jobs_completed']} completion(s) audited), "
          f"solver states bitwise-identical to the single-host "
          f"reference", file=stream)
    return 0
