"""Fault-tolerant solve farm: N supervised workers draining a durable
work queue.

The farm is the job scheduler the resilience stack was built toward:
:class:`~repro.resilience.isolation.IsolatedRunner` sandboxes one
attempt, :class:`~repro.resilience.persistence.SnapshotStore` makes a
killed march resumable, and the :mod:`~repro.resilience.queue` /
:mod:`~repro.resilience.lease` pair make *ownership* of work durable.
This module assembles them:

* **Workers** (:func:`_worker_main`) claim jobs off the shared
  :class:`~repro.resilience.queue.WorkQueue`, execute them inside an
  isolation sandbox under the job's wall-clock deadline, RSS budget and
  heartbeat stall timeout, renew their lease from a background thread
  while the job runs, and commit the result fenced by the lease token.
  SIGTERM drains gracefully: the current attempt is checkpointed (the
  sandbox child is killed — its durable snapshots survive), the job is
  preempted back to the queue *without* charging an attempt, and the
  worker exits 0.

* **The farm** (:class:`Farm`) spawns the workers, watches their
  heartbeat files (``workers/<host>:<pid>.json``, deleted when the farm
  drops the worker, so the directory names only live workers) with the
  liveness-by-silence test lease expiry uses
  (:func:`~repro.resilience.lease.expired_indices`), reaps expired job
  leases so a dead worker's job is reclaimed within one ttl, replaces
  dead or stalled workers from a bounded restart budget, sweeps the
  orphaned sandbox children a SIGKILLed worker leaves behind, and —
  when a :class:`WorkerKillPlan` is armed — SIGKILLs its own workers on
  a deterministic schedule (the chaos harness's ``--farm`` mode).

* **Job kinds** (:data:`JOB_KINDS`) map a job's ``kind`` string to the
  function that executes its payload inside the sandbox child: paper
  figures, persist-protocol solver marches (which auto-resume from the
  latest durable snapshot generation when a killed attempt is
  retried), chaos rounds, arbitrary callables, and two scripted kinds
  (``sleep``, ``flaky``) the tests and smoke campaigns lean on.

The farm is **multi-host aware**: each supervisor runs under a
``host_id`` (defaulting to the machine hostname) and names its workers
``host:pid`` so journal lines, leases, heartbeat files, orphan sweeps
and dead-letter reports attribute work to a machine.  Several
supervisors on different machines can drain one shared
(NFS-mounted) queue directory; cross-host lease reaping never compares
wall clocks (see :mod:`repro.resilience.lease`), and
:func:`audit_exactly_once` proves from the merged journal that no job
was completed twice.

Every attempt, kill, requeue, reclaim, preemption and dead-letter is a
line in the queue's crash-safe journal; :func:`build_ledger` folds the
merged journal into the campaign ledger, exactly-once audit included,
and :func:`bench_from_journal` into the ``BENCH_farm.json`` throughput
record.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import math
import multiprocessing as mp
import os
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.errors import CatError, InputError, SolverError
from repro.resilience.isolation import (Heartbeat, IsolatedRunner,
                                        IsolationPolicy,
                                        current_process_heartbeat,
                                        kill_pid_tree, terminate_process)
from repro.resilience.lease import default_host_id, expired_indices
from repro.resilience.persistence import atomic_write
from repro.resilience.queue import TERMINAL, BackoffPolicy, Job, WorkQueue

__all__ = ["Farm", "FarmPolicy", "JOB_KINDS", "WorkerKillPlan",
           "audit_exactly_once", "bench_from_journal", "build_ledger",
           "job_kind", "journal_lives", "run_campaign",
           "sweep_orphans", "write_bench_json"]


# ----------------------------------------------------------------------
# job kinds
# ----------------------------------------------------------------------

#: kind name -> ``fn(payload, ctx) -> JSON-able result`` executed in the
#: sandbox child.  ``ctx`` carries ``workdir`` (durable, per-job),
#: ``ckpt_dir`` (durable snapshot ladder — marches resume from here
#: after a kill), ``queue_dir`` and ``job_id``.  An executor commits
#: nothing to the queue: its return value (or its exception) is what the
#: worker's fenced ``complete``/``fail`` records.
JOB_KINDS: dict = {}


def job_kind(name: str):
    """Register a job executor under ``name`` (decorator)."""

    def deco(fn):
        JOB_KINDS[name] = fn
        return fn

    return deco


@job_kind("figure")
def _job_figure(payload: dict, ctx: dict) -> dict:
    """One paper figure: payload ``{"module": "fig1_flight_domain",
    "quick": true}``.  Figures that speak the persist protocol march
    durably under the job workdir, so a killed attempt resumes."""
    mod = importlib.import_module(
        f"repro.experiments.{payload['module']}")
    kwargs: dict = {"quick": bool(payload.get("quick", True))}
    if "persist_dir" in inspect.signature(mod.main).parameters:
        kwargs["persist_dir"] = os.path.join(ctx["workdir"], "persist")
    return {"output": mod.main(**kwargs)}


@job_kind("solver_case")
def _job_solver_case(payload: dict, ctx: dict) -> dict:
    """March one chaos-matrix solver case durably; returns a SHA-256
    fingerprint of the final marching state, so kill-and-resume
    campaigns can assert bitwise identity against a reference run."""
    from repro.resilience.chaos import CASES
    from repro.resilience.persistence import PersistencePolicy
    factory, run_kwargs, _, _ = CASES[payload["case"]]
    solver = factory()
    kwargs = dict(run_kwargs)
    kwargs.update(payload.get("run_kwargs") or {})
    solver.run(**kwargs, persist=PersistencePolicy(
        dir=ctx["ckpt_dir"],
        every_n_steps=int(payload.get("every_n_steps", 3))))
    return {"case": payload["case"], "steps": int(solver.steps),
            "state_sha256": state_fingerprint(solver)}


@job_kind("chaos_round")
def _job_chaos_round(payload: dict, ctx: dict) -> dict:
    """One chaos round with its own spawned rng (``seed`` is a sequence
    like ``[campaign_seed, index]`` so rounds are order-independent).

    The round supervises its *own* inner sandbox, so jobs of this kind
    must run with the outer ``stall_timeout`` disabled: the outer child
    blocks in the inner supervision loop and never beats.
    """
    from repro.resilience.chaos import run_round
    rng = np.random.default_rng(payload["seed"])
    report = run_round(
        int(payload["index"]), rng,
        out_dir=os.path.join(ctx["workdir"], "reports"),
        deadline=float(payload.get("deadline", 30.0)))
    return {"report": report}


@job_kind("batch")
def _job_batch(payload: dict, ctx: dict) -> dict:
    """One chunk of a sharded batch-service call: payload
    ``{"requests": [...], "policy": {...}, "offset": N}``.

    The chunk runs :func:`repro.service.batch.evaluate_batch` inside
    the worker's sandbox; envelopes come back with chunk-local indices
    (the merger re-offsets them).  Chunk job ids derive from the batch
    content key, so retry after preemption re-executes the same
    requests idempotently and the exactly-once audit still holds.
    """
    from repro.service.batch import BatchPolicy, evaluate_batch
    policy = BatchPolicy.from_dict(payload.get("policy"))
    result = evaluate_batch(payload["requests"], policy)
    return {"offset": int(payload.get("offset", 0)),
            "envelopes": [e.to_dict() for e in result.envelopes],
            "ledger": result.ledger}


@job_kind("callable")
def _job_callable(payload: dict, ctx: dict) -> dict:
    """``{"module": "pkg.mod", "func": "name", "kwargs": {...}}`` —
    the generic escape hatch (batch solve requests, benchmarks)."""
    mod = importlib.import_module(payload["module"])
    fn = getattr(mod, payload["func"])
    return {"result": fn(**dict(payload.get("kwargs") or {}))}


@job_kind("sleep")
def _job_sleep(payload: dict, ctx: dict) -> dict:
    """Scripted busy-wait that beats the process heartbeat — scheduling
    fodder for tests and throughput smoke campaigns."""
    t_end = time.monotonic() + float(payload.get("duration", 0.1))
    hb = current_process_heartbeat()
    while time.monotonic() < t_end:
        if hb is not None:
            hb.beat(force=True)
        time.sleep(0.01)
    return {"slept": float(payload.get("duration", 0.1))}


@job_kind("async")
def _job_async(payload: dict, ctx: dict) -> dict:
    """One attempt of a durable async job: payload ``{"kind": inner,
    "payload": {...}}``.  The wrapper acknowledges the job's cancel flag
    or runs the inner kind under the cancel hook — see
    :mod:`repro.service.jobs`."""
    from repro.service.jobs import run_async_attempt
    return run_async_attempt(payload, ctx)


@job_kind("flaky")
def _job_flaky(payload: dict, ctx: dict) -> dict:
    """Fails its first ``fail_first`` attempts (scripted, durable
    count), then succeeds — exercises the retry/backoff ladder and the
    dead-letter path end to end."""
    marker_dir = os.path.join(ctx["workdir"], "flaky-attempts")
    os.makedirs(marker_dir, exist_ok=True)
    n_before = len(os.listdir(marker_dir))
    with open(os.path.join(marker_dir, f"attempt-{n_before:04d}-"
                           f"{os.getpid()}"), "w") as f:
        f.write(str(time.time()))
    if n_before < int(payload.get("fail_first", 1)):
        raise SolverError(f"flaky job: scripted failure "
                          f"{n_before + 1}/{payload.get('fail_first')}")
    return {"attempts_used": n_before + 1}


def state_fingerprint(solver) -> str:
    """SHA-256 over the solver's full marching state, byte-exact."""
    h = hashlib.sha256()
    for k in sorted(solver.get_state()):
        v = solver.get_state()[k]
        h.update(k.encode())
        h.update(v.tobytes() if isinstance(v, np.ndarray)
                 else repr(v).encode())
    return h.hexdigest()


def _execute_job(queue_dir: str, job_id: str):
    """Sandbox-child entry point: resolve the job and run its kind."""
    queue = WorkQueue(queue_dir)
    job = queue.job(job_id)
    fn = JOB_KINDS.get(job.kind)
    if fn is None:
        raise SolverError(f"farm: unknown job kind {job.kind!r} "
                          f"(registered: {sorted(JOB_KINDS)})")
    workdir = queue.job_workdir(job_id)
    ctx = {"workdir": workdir,
           "ckpt_dir": os.path.join(workdir, "ckpt"),
           "queue_dir": queue_dir, "job_id": job_id}
    return fn(job.payload, ctx)


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------

@dataclass
class FarmPolicy:
    """Budgets and knobs of a farm run.

    Attributes
    ----------
    n_workers:
        Supervised worker processes draining the queue.
    lease_ttl:
        Job-lease time to live [s]; a worker renews every ttl/3, so a
        dead worker's job is reclaimed within roughly one ttl.
    poll_interval:
        Idle-worker and farm-supervision poll period [s].
    worker_restart_budget:
        Replacement workers the farm may spawn campaign-wide after
        deaths/kills before it stops replacing.
    deadline, memory_mb, stall_timeout:
        Per-job isolation budgets applied when the job spec leaves them
        None.
    backoff:
        The queue's retry :class:`~repro.resilience.queue.BackoffPolicy`
        (max attempts, exponential delay, deterministic jitter).
    drain_when_idle:
        Campaign mode: workers exit once every job is terminal.  The
        ``serve`` loop sets this False and waits for new work instead.
    max_wall_time:
        Campaign wall-clock budget [s]; None = unbounded.
    host_id:
        This supervisor's identity in the shared queue directory;
        defaults to the machine hostname.  Workers are named
        ``host_id:pid``.
    max_skew:
        Cross-host clock-skew bound [s] granted before reaping another
        host's lease (see :class:`~repro.resilience.lease.LeaseManager`).
    clock_offset:
        Injected wall-clock skew [s], finite, of either sign, for this
        farm and its workers — the chaos/testing knob for a machine
        whose clock is wrong.
    """

    n_workers: int = 2
    lease_ttl: float = 15.0
    poll_interval: float = 0.25
    worker_restart_budget: int = 8
    deadline: float | None = None
    memory_mb: float | None = None
    stall_timeout: float | None = None
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    drain_when_idle: bool = True
    max_wall_time: float | None = None
    host_id: str | None = None
    max_skew: float = 2.0
    clock_offset: float = 0.0

    def __post_init__(self):
        if self.n_workers < 1:
            raise InputError("n_workers must be >= 1")
        if self.lease_ttl <= 0.0 or self.poll_interval <= 0.0:
            raise InputError("lease_ttl and poll_interval must be "
                             "positive")
        if self.max_skew < 0.0:
            raise InputError("max_skew must be >= 0")
        if not math.isfinite(self.clock_offset):
            # a NaN clock never expires a lease or ends a backoff
            raise InputError(f"clock_offset must be finite, got "
                             f"{self.clock_offset!r}")

    def worker_config(self) -> dict:
        return {"lease_ttl": self.lease_ttl,
                "poll_interval": self.poll_interval,
                "deadline": self.deadline, "memory_mb": self.memory_mb,
                "stall_timeout": self.stall_timeout,
                "backoff": asdict(self.backoff),
                "drain_when_idle": self.drain_when_idle,
                "host_id": self.host_id or default_host_id(),
                "max_skew": self.max_skew,
                "clock_offset": self.clock_offset}

    def clock(self):
        """Wall clock for this farm, honouring ``clock_offset``."""
        return _offset_clock(self.clock_offset)


#: worker-heartbeat silence [s] after which the farm kills and replaces
#: the worker (its job lease then expires and reclaims)
_WORKER_STALL_TIMEOUT = 60.0


def _offset_clock(offset: float):
    """A ``time.time``-alike shifted by ``offset`` seconds (0 → None,
    which every clock consumer reads as plain ``time.time``)."""
    if not offset:
        return None
    return lambda: time.time() + offset


@dataclass
class WorkerKillPlan:
    """Deterministic worker-SIGKILL schedule (chaos ``--farm`` mode).

    ``kills`` SIGKILLs are delivered to randomly-chosen live workers at
    intervals drawn uniformly from [min_interval, max_interval] — all
    of it a pure function of ``seed``, so a failing campaign replays.
    """

    seed: int = 0
    kills: int = 2
    min_interval: float = 1.0
    max_interval: float = 6.0

    def schedule(self) -> list[float]:
        """Kill times as offsets from campaign start [s]."""
        rng = np.random.default_rng(self.seed)
        gaps = rng.uniform(self.min_interval, self.max_interval,
                           size=int(self.kills))
        return list(np.cumsum(gaps))


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------

class _DrainRequested(Exception):
    """Raised by the worker's SIGTERM handler mid-job: checkpoint,
    preempt the job back to the queue, exit clean."""


def _renew_loop(queue: WorkQueue, lease, stop: threading.Event,
                lost: threading.Event, hb: Heartbeat) -> None:
    """Background renewal while the job runs: keep the lease fresh and
    the worker's heartbeat visible; flag the lease as lost (fenced) the
    moment renewal fails."""
    interval = max(0.05, lease.ttl / 3.0)
    while not stop.wait(interval):
        hb.beat(force=True)
        if not queue.leases.renew(lease):
            lost.set()
            return


def _child_pid_path(workdir: str) -> str:
    return os.path.join(workdir, "child.json")


def sweep_orphans(queue: WorkQueue, *, worker: str | None = None,
                  host: str | None = None) -> list[dict]:
    """SIGKILL the sandbox children a dead worker (or a whole dead
    host) left behind — they live in their own process groups, so
    killing the worker's group does not reach them.

    Matches the advertised ``work/<job>/child.json`` records against
    ``worker`` (exact ``host:pid`` identity) or ``host`` (every worker
    whose name carries that host prefix).  Returns the swept records.
    """
    swept = []
    for job_id in queue.job_ids():
        path = _child_pid_path(os.path.join(queue.work_dir, job_id))
        try:
            with open(path) as f:
                rec = json.load(f)
        except (OSError, ValueError):
            continue
        owner = str(rec.get("worker") or "")
        if worker is not None and owner != worker:
            continue
        if host is not None and not owner.startswith(f"{host}:"):
            continue
        kill_pid_tree(rec.get("pid"))
        try:
            os.remove(path)
        except OSError:
            pass
        queue.journal("orphan-sweep", worker=owner,
                      job=rec.get("job"), pid=rec.get("pid"))
        swept.append(rec)
    return swept


def _run_one(queue: WorkQueue, job: Job, lease, name: str, cfg: dict,
             flags: dict, hb: Heartbeat) -> None:
    """Execute one claimed job attempt end to end (sandbox, renewal
    thread, fenced commit / requeue / preemption)."""
    if job.kind not in JOB_KINDS:
        # fail fast without burning a sandbox spawn on every retry
        queue.fail(job, lease, f"farm: unknown job kind {job.kind!r} "
                   f"(registered: {sorted(JOB_KINDS)})")
        return
    workdir = queue.job_workdir(job.id)
    policy = IsolationPolicy(
        deadline=(job.deadline if job.deadline is not None
                  else cfg["deadline"]),
        memory_mb=(job.memory_mb if job.memory_mb is not None
                   else cfg["memory_mb"]),
        stall_timeout=(job.stall_timeout if job.stall_timeout is not None
                       else cfg["stall_timeout"]),
        max_restarts=0,   # retries belong to the queue, not the sandbox
        term_grace=1.0)
    runner = IsolatedRunner(policy, label=f"{name}:{job.id}")

    def on_spawn(pid, attempt):
        # advertise the sandbox child so the farm can sweep it if this
        # worker is SIGKILLed out from under it
        try:
            with open(_child_pid_path(workdir), "w") as f:
                json.dump({"worker": name, "job": job.id, "pid": pid},
                          f)
        except OSError:
            pass

    stop, lost = threading.Event(), threading.Event()
    renewer = threading.Thread(target=_renew_loop,
                               args=(queue, lease, stop, lost, hb),
                               daemon=True)
    renewer.start()
    outcome, err_obj, result = "drain", None, None
    try:
        flags["raise_on_term"] = True
        try:
            if flags["draining"]:
                raise _DrainRequested()
            result = runner.run_callable(
                _execute_job, (queue.dir, job.id),
                workdir=os.path.join(workdir, "sandbox"),
                on_spawn=on_spawn)
            outcome = "ok"
        except _DrainRequested:
            outcome = "drain"
            flags["draining"] = True
        except CatError as err:
            outcome, err_obj = "fail", err
        # catlint: disable=CAT012 -- worker boundary: an exotic job
        # exception must dead-letter the job, never kill the worker
        # loop; SimulatedCrash is a BaseException and still propagates
        except Exception as err:
            outcome, err_obj = "fail", err
        finally:
            flags["raise_on_term"] = False
        if outcome == "ok":
            for ev in runner.events:
                queue.journal("isolation-event", job=job.id, worker=name,
                              kind=ev.kind, message=ev.message)
            queue.complete(job, lease, result)
        elif outcome == "drain":
            queue.preempt(job, lease)
        else:
            report = getattr(err_obj, "report", None)
            queue.fail(job, lease,
                       f"{type(err_obj).__name__}: {err_obj}",
                       report=None if report is None
                       else report.to_dict())
    finally:
        stop.set()
        renewer.join(timeout=5.0)
        try:
            os.remove(_child_pid_path(workdir))
        except OSError:
            pass


def worker_name(host_id: str, pid: int) -> str:
    """The canonical ``host:pid`` worker identity — computed the same
    way by the supervisor (from the spawned pid) and by the worker
    itself (from ``os.getpid()``), so both sides agree without an IPC
    handshake."""
    return f"{host_id}:{pid}"


def _worker_main(queue_dir: str, cfg: dict) -> None:
    """A worker process: claim → sandbox → commit, until drained."""
    try:
        os.setpgid(0, 0)
    except OSError:
        pass
    host = cfg.get("host_id") or default_host_id()
    name = worker_name(host, os.getpid())
    queue = WorkQueue(queue_dir, lease_ttl=cfg["lease_ttl"],
                      backoff=BackoffPolicy(**cfg["backoff"]),
                      host_id=host,
                      max_skew=float(cfg.get("max_skew", 2.0)),
                      clock=_offset_clock(
                          float(cfg.get("clock_offset", 0.0))))
    workers_dir = os.path.join(queue.dir, "workers")
    os.makedirs(workers_dir, exist_ok=True)
    hb = Heartbeat(os.path.join(workers_dir, f"{name}.json"),
                   min_interval=0.02, host=host)
    flags = {"draining": False, "raise_on_term": False}

    def on_term(signum, frame):
        flags["draining"] = True
        if flags["raise_on_term"]:
            raise _DrainRequested()

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    queue.journal("worker-start", worker=name, pid=os.getpid())
    while not flags["draining"]:
        hb.beat(force=True)
        claimed = queue.claim(name)
        if claimed is None:
            if cfg["drain_when_idle"] and queue.all_terminal():
                break
            time.sleep(cfg["poll_interval"])
            continue
        job, lease = claimed
        _run_one(queue, job, lease, name, cfg, flags, hb)
    queue.journal("worker-exit", worker=name, pid=os.getpid(),
                  drained=flags["draining"])


# ----------------------------------------------------------------------
# the farm
# ----------------------------------------------------------------------

class Farm:
    """Spawn, supervise and (when chaos demands) kill the workers.

    Parameters
    ----------
    queue:
        A :class:`~repro.resilience.queue.WorkQueue` or a queue
        directory path.
    policy:
        A :class:`FarmPolicy` (defaults apply when None).
    kill_plan:
        Optional :class:`WorkerKillPlan` — the farm SIGKILLs its own
        workers on the plan's deterministic schedule.
    """

    def __init__(self, queue, policy: FarmPolicy | None = None, *,
                 label: str = "farm", stream=None, kill_plan=None):
        self.policy = policy or FarmPolicy()
        self.host = self.policy.host_id or default_host_id()
        if not isinstance(queue, WorkQueue):
            queue = WorkQueue(queue, lease_ttl=self.policy.lease_ttl,
                              backoff=self.policy.backoff,
                              host_id=self.host,
                              max_skew=self.policy.max_skew,
                              clock=self.policy.clock())
        self.queue = queue
        self.label = label
        self.stream = stream or sys.stdout
        self.kill_plan = kill_plan
        self._stop = False
        self._workers: list[dict] = []   # {proc, name, index, last_raw,
        #                                   last_change}
        self._spawned = 0

    # -- worker lifecycle ----------------------------------------------

    def _spawn_worker(self, index: int) -> dict:
        self._spawned += 1
        ctx = mp.get_context("fork")
        proc = ctx.Process(target=_worker_main,
                           args=(self.queue.dir,
                                 self.policy.worker_config()),
                           daemon=False)
        proc.start()
        # the worker derives the same host:pid name from os.getpid()
        name = worker_name(self.host, proc.pid)
        rec = {"proc": proc, "name": name, "index": index,
               "last_raw": None, "last_change": time.monotonic()}
        print(f"[{self.label}] worker {name} started (pid {proc.pid})",
              file=self.stream)
        return rec

    def _hb_path(self, name: str) -> str:
        return os.path.join(self.queue.dir, "workers", f"{name}.json")

    def _drop(self, rec: dict) -> None:
        """Forget a worker that is gone (drained, dead or killed), and
        its heartbeat file with it, so ``workers/`` names only live
        workers and a reused pid is never taken for one of ours."""
        self._workers.remove(rec)
        try:
            os.remove(self._hb_path(rec["name"]))
        except OSError:
            pass

    def _observe(self, rec: dict, now: float) -> None:
        """Age a worker's heartbeat with the farm's own clock (payload
        change detection, same convention as IsolatedRunner)."""
        try:
            with open(self._hb_path(rec["name"]), "rb") as f:
                raw = f.read()
        except OSError:
            raw = None
        if raw != rec["last_raw"]:
            rec["last_raw"], rec["last_change"] = raw, now

    def _sweep_orphans(self, victim: str) -> None:
        sweep_orphans(self.queue, worker=victim)

    def _kill_worker(self, rec: dict, *, kind: str, reason: str) -> None:
        proc = rec["proc"]
        pid = proc.pid
        if kind == "chaos":
            # the whole point: an abrupt SIGKILL, no graceful path
            kill_pid_tree(pid)
            proc.join(10.0)
        else:
            terminate_process(proc, grace=1.0)
        self._sweep_orphans(rec["name"])
        self.queue.journal("worker-kill", worker=rec["name"], pid=pid,
                           kind=kind, reason=reason)
        print(f"[{self.label}] killed worker {rec['name']} ({kind}: "
              f"{reason})", file=self.stream)

    def _replace(self, rec: dict, restarts_left: int) -> int:
        self._drop(rec)
        if restarts_left <= 0:
            print(f"[{self.label}] worker restart budget exhausted; "
                  f"not replacing {rec['name']}", file=self.stream)
            return restarts_left
        self._workers.append(self._spawn_worker(rec["index"]))
        return restarts_left - 1

    # -- supervision loop ----------------------------------------------

    def _install_signals(self):
        def on_term(signum, frame):
            self._stop = True

        try:
            signal.signal(signal.SIGTERM, on_term)
            signal.signal(signal.SIGINT, on_term)
        except ValueError:
            pass   # not the main thread (tests drive run() directly)

    def run(self) -> dict:
        """Drive a campaign to completion; returns the campaign ledger.

        Exits when every job is terminal (``drain_when_idle``), when the
        wall-clock budget runs out, or on SIGTERM/SIGINT — always
        through the graceful drain (workers SIGTERMed, current attempts
        checkpointed and preempted) and always with a ledger.  Without
        ``drain_when_idle`` (``serve``) it keeps draining jobs other
        processes enqueue until the signal.
        """
        pol = self.policy
        self._install_signals()
        self.queue.journal("campaign-start", label=self.label,
                           n_workers=pol.n_workers,
                           jobs=len(self.queue.job_ids()))
        t0 = time.monotonic()
        self._workers = [self._spawn_worker(i)
                         for i in range(pol.n_workers)]
        restarts_left = pol.worker_restart_budget
        kill_times = (self.kill_plan.schedule()
                      if self.kill_plan is not None else [])
        kill_rng = (np.random.default_rng(self.kill_plan.seed + 1)
                    if self.kill_plan is not None else None)
        next_kill = 0
        try:
            while True:
                time.sleep(pol.poll_interval)
                now = time.monotonic()
                elapsed = now - t0
                for job_id in self.queue.reclaim_expired():
                    print(f"[{self.label}] lease expired: job "
                          f"{job_id} reclaimed", file=self.stream)
                # chaos kills on schedule
                while (next_kill < len(kill_times)
                        and elapsed >= kill_times[next_kill]):
                    alive = [r for r in self._workers
                             if r["proc"].is_alive()]
                    if alive:
                        victim = alive[int(kill_rng.integers(
                            0, len(alive)))]
                        self._kill_worker(victim, kind="chaos",
                                          reason="scheduled chaos kill")
                    next_kill += 1
                # worker liveness
                for rec in list(self._workers):
                    proc = rec["proc"]
                    self._observe(rec, now)
                    if not proc.is_alive():
                        if proc.exitcode == 0:
                            self._drop(rec)   # drained
                            continue
                        self.queue.journal(
                            "worker-death", worker=rec["name"],
                            exitcode=proc.exitcode)
                        self._sweep_orphans(rec["name"])
                        if not self.queue.all_terminal():
                            restarts_left = self._replace(
                                rec, restarts_left)
                        else:
                            self._drop(rec)
                        continue
                    age = now - rec["last_change"]
                    if expired_indices([age], _WORKER_STALL_TIMEOUT):
                        self._kill_worker(
                            rec, kind="stall",
                            reason=f"no heartbeat for {age:.1f} s")
                        restarts_left = self._replace(rec,
                                                      restarts_left)
                        continue
                if self._stop:
                    break
                if (pol.max_wall_time is not None
                        and elapsed > pol.max_wall_time):
                    self.queue.journal("campaign-timeout",
                                       elapsed=round(elapsed, 2))
                    break
                if pol.drain_when_idle and self.queue.all_terminal():
                    break
                if pol.drain_when_idle and not self._workers:
                    # every worker gone and none replaceable: jobs left
                    # unclaimed would wait forever — stop with a ledger
                    break
        finally:
            self._drain_workers()
        wall = time.monotonic() - t0
        ledger = build_ledger(self.queue, wall_time=wall,
                              label=self.label, n_workers=pol.n_workers)
        self.queue.journal("campaign-end", label=self.label,
                           wall=round(wall, 2), ok=ledger["ok"])
        return ledger

    def _drain_workers(self) -> None:
        """SIGTERM every worker (finish-or-checkpoint), then escalate."""
        for rec in self._workers:
            proc = rec["proc"]
            if proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + 15.0
        for rec in list(self._workers):
            proc = rec["proc"]
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                terminate_process(proc, grace=1.0)
                self._sweep_orphans(rec["name"])
            self._drop(rec)


# ----------------------------------------------------------------------
# ledger and bench records
# ----------------------------------------------------------------------

def build_ledger(queue: WorkQueue, *, wall_time: float, label: str,
                 n_workers: int | None = None) -> dict:
    """Fold the journal + job states into the campaign ledger.

    The journal read merges every host's file, so a ledger built on any
    host of a shared-queue campaign — or rebuilt post mortem — covers
    the whole campaign; ``hosts`` breaks claims / completes / kills down
    per writer host, ``worker_kills`` lists every journaled
    ``worker-kill`` in journal order, and ``exactly_once_audit`` is
    :func:`audit_exactly_once` of the queue.
    """
    by_event: dict[str, int] = {}
    by_host: dict[str, dict[str, int]] = {}
    kills: list[dict] = []
    for rec in queue.read_journal():
        ev = rec.get("event", "?")
        by_event[ev] = by_event.get(ev, 0) + 1
        if ev in ("claim", "complete", "worker-kill"):
            hc = by_host.setdefault(rec.get("host") or "?", {})
            hc[ev] = hc.get(ev, 0) + 1
        if ev == "worker-kill":
            kills.append({k: rec.get(k)
                          for k in ("worker", "pid", "kind", "reason")})
    counts = queue.counts()
    dead = []
    for job_id in queue.job_ids():
        if queue.state(job_id).get("status") == "dead":
            rec = queue.dead_letter(job_id) or {"id": job_id}
            dead.append({"id": job_id, "error": rec.get("error"),
                         "attempts": rec.get("attempts"),
                         "has_report": rec.get("report") is not None})
    n_jobs = len(queue.job_ids())
    done = counts.get("done", 0)
    return {"label": label, "wall_time": round(wall_time, 3),
            "n_workers": n_workers,
            "host": queue.host_id,
            "hosts": by_host,
            "jobs": counts, "n_jobs": n_jobs,
            "attempts": by_event.get("claim", 0),
            "requeues": by_event.get("requeue", 0),
            "reclaims": by_event.get("reclaim", 0),
            "preempts": by_event.get("preempt", 0),
            "fenced": by_event.get("fenced", 0),
            "worker_kills": kills,
            "dead_letter": dead,
            "events": by_event,
            "exactly_once_audit": audit_exactly_once(queue),
            "throughput_jobs_per_s": (round(done / wall_time, 4)
                                      if wall_time > 0 else None),
            "ok": sum(counts.get(k, 0) for k in TERMINAL) == n_jobs}


def bench_from_journal(queue: WorkQueue, *, wall_time: float,
                       n_workers: int) -> dict:
    """Throughput record for one farm run: requests/sec and per-job
    claim→complete latency stats out of the journal."""
    claims: dict[str, float] = {}
    latencies: list[float] = []
    for rec in queue.read_journal():
        if rec.get("event") == "claim":
            claims[rec.get("job")] = float(rec["t"])
        elif rec.get("event") == "complete":
            t_claim = claims.get(rec.get("job"))
            if t_claim is not None:
                latencies.append(float(rec["t"]) - t_claim)
    done = queue.counts().get("done", 0)
    lat = sorted(latencies)
    stats = None
    if lat:
        stats = {"mean": round(sum(lat) / len(lat), 4),
                 "p50": round(lat[len(lat) // 2], 4),
                 "max": round(lat[-1], 4)}
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count()
    return {"n_workers": int(n_workers),
            "cpu_count": cpus,
            "wall_time_s": round(wall_time, 3),
            "jobs_done": int(done),
            "requests_per_s": (round(done / wall_time, 4)
                               if wall_time > 0 else None),
            "per_job_latency_s": stats}


def journal_lives(records) -> tuple[list, dict]:
    """Fold journal records into per-life ``complete``/``cancel`` counts.

    A ``job-gc`` line ends one life of its job id: it carries, under
    ``retired``, the counts of the lines that life wrote.  Returns
    ``(retired, live)``: ``retired`` lists ``(job, counts)`` per ended
    life, and ``live`` maps each job id to the counts of its current
    life (every line less those its ``job-gc`` lines retired).  Only
    sums are taken, so the order in which skewed hosts' journals merge
    cannot move a line from one life to another.
    """
    retired: list[tuple[str, dict[str, int]]] = []
    live: dict[str, dict[str, int]] = {}
    for rec in records:
        event, job = rec.get("event"), rec.get("job")
        if event in ("complete", "cancel"):
            live.setdefault(job, {"complete": 0, "cancel": 0})[event] += 1
        elif event == "job-gc":
            ended = {ev: int((rec.get("retired") or {}).get(ev, 0))
                     for ev in ("complete", "cancel")}
            retired.append((job, ended))
            counts = live.setdefault(job, {"complete": 0, "cancel": 0})
            for ev, n in ended.items():
                counts[ev] -= n
    return retired, live


def audit_exactly_once(queue: WorkQueue) -> dict:
    """Prove from the merged multi-host journal that every done job was
    completed **exactly once**, and that no job was cancelled twice or
    both cancelled and completed.

    A fenced commit (stale token rejected after a reclaim) journals
    ``fenced``, not ``complete``, so any job with two ``complete``
    lines in one life — or a done job with none — is a real
    exactly-once violation, whichever host wrote the lines.  A
    ``cancel`` line is written under the job's lease like a claim, so
    it can meet neither another cancel nor a completion.  Each life of
    a job id is judged on its own (:func:`journal_lives`): a collected
    job resubmitted under its content-addressed id starts a new one.
    """
    retired, live = journal_lives(queue.read_journal())
    lives = retired + list(live.items())
    double = {job: n["complete"] for job, n in lives if n["complete"] > 1}
    double_cancels = {job: n["cancel"] for job, n in lives
                      if n["cancel"] > 1}
    both = sorted({job for job, n in lives
                   if n["complete"] > 0 and n["cancel"] > 0})
    missing = [job_id for job_id in queue.job_ids()
               if queue.state(job_id).get("status") == "done"
               and live.get(job_id, {}).get("complete", 0) <= 0]
    return {"ok": not (double or double_cancels or both or missing),
            "jobs_completed": len({job for job, n in lives
                                   if n["complete"] > 0}),
            "double_completions": double,
            "done_without_complete": sorted(missing),
            "double_cancels": double_cancels,
            "cancelled_and_completed": both}


def write_bench_json(path, record: dict) -> None:
    """Atomically write a ``BENCH_*.json`` perf-trajectory artifact."""
    record = dict(record)
    record.setdefault("bench", "farm")
    record.setdefault("created", time.time())
    atomic_write(path, json.dumps(record, indent=1))


# ----------------------------------------------------------------------
# campaign convenience
# ----------------------------------------------------------------------

def run_campaign(queue_dir, jobs: list[Job], *,
                 policy: FarmPolicy | None = None, label: str =
                 "campaign", stream=None, kill_plan=None) -> dict:
    """Enqueue ``jobs`` (idempotently) and run the farm to completion;
    returns the campaign ledger."""
    policy = policy or FarmPolicy()
    queue = WorkQueue(queue_dir, lease_ttl=policy.lease_ttl,
                      backoff=policy.backoff, host_id=policy.host_id,
                      max_skew=policy.max_skew, clock=policy.clock())
    for job in jobs:
        queue.enqueue(job)
    farm = Farm(queue, policy, label=label, stream=stream,
                kill_plan=kill_plan)
    return farm.run()
