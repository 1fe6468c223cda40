"""Fault-tolerant solve farm: one supervisor running sandboxed jobs off
a durable work queue.

The farm is the job scheduler the resilience stack was built toward:
:class:`~repro.resilience.isolation.IsolatedRunner` sandboxes one
attempt, :class:`~repro.resilience.persistence.SnapshotStore` makes a
killed march resumable, and the :mod:`~repro.resilience.queue` /
:mod:`~repro.resilience.lease` pair make *ownership* of work durable.
This module assembles them:

* **The supervisor** (:class:`Farm`) is one process and one loop.  It
  claims up to ``n_workers`` (``-j``) jobs off the shared
  :class:`~repro.resilience.queue.WorkQueue` and forks each into its
  own isolation :class:`~repro.resilience.isolation.Sandbox` under the
  job's wall-clock deadline, RSS budget and heartbeat stall timeout.
  Each pass renews every lease it holds, polls every sandbox against
  its budgets (a kill spans passes, so no pass blocks long enough to
  lose a lease), reaps expired leases so a dead host's jobs are
  reclaimed within one ttl, and commits each finished attempt fenced
  by its lease token; between passes it sleeps until a sandbox exits
  or ``poll_interval`` passes.  An attempt whose renewal failed never
  commits.  A failing claim or commit is journaled (``farm-error``) and
  the loop goes on.  SIGTERM drains gracefully: the sandboxes are
  killed (their durable snapshots survive), their jobs are preempted
  back to the queue *without* charging an attempt, and the supervisor
  returns its ledger.  With a :class:`WorkerKillPlan` armed it SIGKILLs
  running sandboxes on a deterministic schedule (the chaos harness's
  ``--kill-workers``); such a job fails, backs off and resumes from its
  snapshot.  The queue's retry is the one way a killed march resumes:
  a sandbox never restarts itself.

* **Job kinds** (:data:`JOB_KINDS`) map a job's ``kind`` string to the
  function that executes its payload inside the sandbox child: paper
  figures, persist-protocol solver marches (which auto-resume from the
  latest durable snapshot generation when a killed attempt is
  retried, and carry a chaos round's fault schedule), batch-service
  chunks, async jobs, arbitrary callables, and two scripted kinds
  (``sleep``, ``flaky``) the tests and smoke campaigns lean on.

The farm is **multi-host aware**: each supervisor runs under a
``host_id`` (defaulting to the machine hostname) and is named
``host:pid`` — the ``worker`` of its journal lines, leases and
dead-letter reports.  Its one presence record per running sandbox is
``work/<job>/child.json`` (supervisor name, job, sandbox pid), which
chaos host kills and ``jobs cancel --escalate-after`` read.  Several
supervisors on different machines can drain one shared (NFS-mounted)
queue directory; cross-host lease reaping never compares wall clocks
(see :mod:`repro.resilience.lease`), and :func:`audit_exactly_once`
proves from the merged journal that no job was completed twice.

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
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import numpy as np

from repro.errors import InputError, SolverError
from repro.resilience.isolation import (IsolatedRunner, IsolationPolicy,
                                        Sandbox, current_process_heartbeat,
                                        kill_pid_tree)
from repro.resilience.lease import Lease, default_host_id
from repro.resilience.persistence import atomic_write
from repro.resilience.queue import (TERMINAL, BackoffPolicy, Job,
                                    WorkQueue, check_budgets)

__all__ = ["Farm", "FarmPolicy", "JOB_KINDS", "WorkerKillPlan",
           "audit_exactly_once", "bench_from_journal", "build_ledger",
           "job_kind", "journal_lives", "run_campaign", "sandbox_records",
           "sweep_orphans", "write_bench_json"]


# ----------------------------------------------------------------------
# job kinds
# ----------------------------------------------------------------------

#: kind name -> ``fn(payload, ctx) -> JSON-able result`` executed in the
#: sandbox child.  ``ctx`` carries ``workdir`` (durable, per-job),
#: ``ckpt_dir`` (durable snapshot ladder — marches resume from here
#: after a kill), ``queue_dir``, ``job_id`` and ``attempt`` (1 for the
#: first, as the claim counted it).  An executor commits
#: nothing to the queue: its return value (or its exception) is what the
#: supervisor's fenced ``complete``/``fail`` records.
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
    """March one chaos-matrix solver case durably (persistence arms the
    retry ladder), under the conservation watchdog; returns a SHA-256
    fingerprint of the final marching state, so kill-and-resume
    campaigns can assert bitwise identity against a reference run.

    ``payload["faults"]`` (a :meth:`FaultInjector.to_json` schedule, a
    chaos round's) is armed on the first attempt only: a fault is a
    transient upset, and a retried attempt resumes clean from the
    snapshots the killed one left.  When none of them verifies, the
    attempt moves them aside to ``ckpt-damaged-<attempt>`` beside
    ``ckpt`` and marches a fresh solver from the start: the march is
    deterministic, so it ends on the state a resume would have."""
    from repro.errors import CheckpointError
    from repro.resilience.chaos import CASES
    from repro.resilience.faults import FaultInjector
    from repro.resilience.persistence import (PersistencePolicy,
                                              SnapshotStore)
    factory, run_kwargs, _, _ = CASES[payload["case"]]
    faults = payload.get("faults")
    kwargs = dict(run_kwargs)
    kwargs.update(payload.get("run_kwargs") or {})
    policy = PersistencePolicy(
        dir=ctx["ckpt_dir"],
        every_n_steps=int(payload.get("every_n_steps", 3)))

    def march():
        solver = factory()
        solver.run(**kwargs, persist=policy,
                   faults=(FaultInjector.from_json(faults)
                           if faults and ctx["attempt"] == 1 else None),
                   watchdog=True)
        return solver

    try:
        solver = march()
    except CheckpointError as err:
        # only a store whose every generation failed verification; a
        # fingerprint mismatch (another run's directory) still fails
        damaged = sorted(r["seq"] for r in err.recovery_log)
        if not damaged or damaged != SnapshotStore(policy).sequences():
            raise
        os.rename(ctx["ckpt_dir"], os.path.join(
            ctx["workdir"], f"ckpt-damaged-{ctx['attempt']}"))
        solver = march()
    return {"case": payload["case"], "steps": int(solver.steps),
            "state_sha256": state_fingerprint(solver)}


@job_kind("batch")
def _job_batch(payload: dict, ctx: dict) -> dict:
    """One chunk of a sharded batch-service call: payload
    ``{"requests": [...], "policy": {...}, "offset": N}``.

    The chunk runs :func:`repro.service.batch.evaluate_batch` inside
    the job's sandbox; envelopes come back with chunk-local indices
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


def _execute_job(queue_dir: str, job_id: str, attempt: int):
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
           "queue_dir": queue_dir, "job_id": job_id, "attempt": attempt}
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
        Jobs the supervisor runs at once (``-j``), one sandbox each.
    lease_ttl:
        Job-lease time to live [s]; the supervisor renews every held
        lease each ttl/3, so a dead host's jobs are reclaimed within
        roughly one ttl.
    poll_interval:
        Longest sleep of the supervision loop [s] between passes (it
        wakes at once when a sandbox exits): the period of its budget
        checks, claims and lease reaping.
    deadline, memory_mb, stall_timeout:
        Per-job isolation budgets applied when the job spec leaves them
        None; each None or a finite number > 0, as on a
        :class:`~repro.resilience.queue.Job`.
    backoff:
        The queue's retry :class:`~repro.resilience.queue.BackoffPolicy`
        (max attempts, exponential delay, deterministic jitter).
    drain_when_idle:
        Campaign mode: the supervisor returns once every job is
        terminal.  The ``serve`` loop sets this False and waits for new
        work instead.
    max_wall_time:
        Campaign wall-clock budget [s]; None = unbounded, else a finite
        number > 0.
    host_id:
        This supervisor's identity in the shared queue directory;
        defaults to the machine hostname.  The supervisor is named
        ``host_id:pid``.
    max_skew:
        Cross-host clock-skew bound [s] granted before reaping another
        host's lease (see :class:`~repro.resilience.lease.LeaseManager`).
    clock_offset:
        Injected wall-clock skew [s], finite, of either sign, for this
        farm — the chaos/testing knob for a machine whose clock is
        wrong.
    """

    n_workers: int = 2
    lease_ttl: float = 15.0
    poll_interval: float = 0.25
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
        check_budgets("farm policy", deadline=self.deadline,
                      memory_mb=self.memory_mb,
                      stall_timeout=self.stall_timeout,
                      max_wall_time=self.max_wall_time)

    def clock(self):
        """Wall clock for this farm, honouring ``clock_offset`` (None,
        which every clock consumer reads as plain ``time.time``, when
        there is no offset)."""
        offset = self.clock_offset
        if not offset:
            return None
        return lambda: time.time() + offset


@dataclass
class WorkerKillPlan:
    """Deterministic sandbox-SIGKILL schedule (chaos ``--kill-workers``).

    ``kills`` SIGKILLs are delivered to randomly-chosen running
    sandboxes at intervals drawn uniformly from [min_interval,
    max_interval] — all of it a pure function of ``seed``, so a failing
    campaign replays.  A kill that falls due while no sandbox runs
    waits for the next one to start, and one that finds its sandbox
    already exiting is tried again on the next pass.
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
# presence records
# ----------------------------------------------------------------------

def _child_pid_path(queue: WorkQueue, job_id: str) -> str:
    return os.path.join(queue.work_dir, job_id, "child.json")


def sandbox_records(queue: WorkQueue, host: str) -> list[dict]:
    """The ``work/<job>/child.json`` presence records of ``host``'s
    running sandboxes (``worker``, ``job``, ``pid``).  The supervisor
    writes one when it starts a sandbox and deletes it when it settles
    the attempt, so only a dead supervisor leaves one behind."""
    out = []
    for job_id in queue.job_ids():
        try:
            with open(_child_pid_path(queue, job_id)) as f:
                rec = json.load(f)
        except (OSError, ValueError):
            continue
        if str(rec.get("worker") or "").startswith(f"{host}:"):
            out.append(rec)
    return out


def sweep_orphans(queue: WorkQueue, *, host: str) -> list[dict]:
    """SIGKILL the sandboxes a dead host's supervisor left behind — each
    leads its own process group, so killing the supervisor's group does
    not reach them — and delete their presence records.  Returns the
    swept records."""
    swept = sandbox_records(queue, host)
    for rec in swept:
        kill_pid_tree(rec.get("pid"))
        try:
            os.remove(_child_pid_path(queue, rec.get("job")))
        except OSError:
            pass
        queue.journal("orphan-sweep", worker=rec.get("worker"),
                      job=rec.get("job"), pid=rec.get("pid"))
    return swept


# ----------------------------------------------------------------------
# the farm
# ----------------------------------------------------------------------

#: Longest wait [s] for the drain's stopped sandboxes to die (each is
#: SIGKILLed a grace after its SIGTERM); one still alive then is left
#: to its lease.
_DRAIN_WAIT = 10.0


@dataclass
class _Attempt:
    """One claimed job running in its sandbox."""

    job: Job
    lease: Lease              # carries the claim's attempt
    sandbox: Sandbox
    renewed: float            # monotonic time of the last renewal
    lost: bool = False        # a renewal failed: never commit
    drained: bool = False     # stopped by the drain: preempt


class Farm:
    """The supervisor: claim jobs, run each in its own sandbox, renew
    their leases and commit their attempts, in one loop.

    Parameters
    ----------
    queue:
        A :class:`~repro.resilience.queue.WorkQueue` or a queue
        directory path.
    policy:
        A :class:`FarmPolicy` (defaults apply when None).
    kill_plan:
        Optional :class:`WorkerKillPlan` — the farm SIGKILLs its own
        running sandboxes on the plan's deterministic schedule.
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
        self.name = f"{self.host}:{os.getpid()}"
        self._stop = False
        self._running: list[_Attempt] = []

    # -- one pass ------------------------------------------------------

    def _guarded(self, action: str, job_id, fn, *args):
        """Run one claim or commit.  An exception is journaled
        (``farm-error``) and the loop goes on: a job whose lease is no
        longer renewed expires and is reclaimed."""
        try:
            return fn(*args)
        # catlint: disable=CAT012 -- supervisor boundary: one job's
        # claim or commit must not end the loop that runs every other
        # job; SimulatedCrash is a BaseException and still propagates
        except Exception as err:
            msg = f"{type(err).__name__}: {err}"
            print(f"[{self.label}] {action} failed (job {job_id}): {msg}",
                  file=self.stream)
            try:
                self.queue.journal("farm-error", worker=self.name,
                                   job=job_id, action=action, error=msg)
            except OSError:
                pass
            return None

    def _claim(self) -> bool:
        """Claim one ready job and start its sandbox; False when nothing
        is claimable now."""
        claimed = self.queue.claim(self.name)
        if claimed is None:
            return False
        job, lease = claimed
        if job.kind not in JOB_KINDS:
            # fail fast without burning a sandbox spawn on every retry
            self.queue.fail(job, lease, f"farm: unknown job kind "
                            f"{job.kind!r} (registered: "
                            f"{sorted(JOB_KINDS)})")
            return True
        pol = self.policy
        runner = IsolatedRunner(IsolationPolicy(
            deadline=(job.deadline if job.deadline is not None
                      else pol.deadline),
            memory_mb=(job.memory_mb if job.memory_mb is not None
                       else pol.memory_mb),
            stall_timeout=(job.stall_timeout
                           if job.stall_timeout is not None
                           else pol.stall_timeout)),
            label=f"{self.name}:{job.id}")
        sb = runner.start(_execute_job,
                          (self.queue.dir, job.id, lease.attempt),
                          workdir=os.path.join(
                              self.queue.job_workdir(job.id), "sandbox"))
        self._running.append(_Attempt(job, lease, sb,
                                      renewed=time.monotonic()))
        self.queue.journal("worker-start", worker=self.name, pid=sb.pid,
                           job=job.id)
        atomic_write(_child_pid_path(self.queue, job.id), json.dumps(
            {"worker": self.name, "job": job.id, "pid": sb.pid}))
        return True

    def _settle(self, att: _Attempt) -> None:
        """Commit a finished attempt, fenced by its lease: its result,
        its failure (the queue backs off or dead-letters), or — for a
        sandbox the drain stopped — a preemption that charges no
        attempt."""
        job, lease, sb = att.job, att.lease, att.sandbox
        runner = sb.runner
        try:
            os.remove(_child_pid_path(self.queue, job.id))
        except OSError:
            pass
        if att.lost:
            return   # fenced when its renewal failed
        if att.drained and sb.event is None and sb.exitcode != 0:
            self.queue.preempt(job, lease)
            return
        try:
            result, err = runner.result(sb), None
        # catlint: disable=CAT012 -- supervisor boundary: an exotic job
        # exception must dead-letter the job, never end the loop;
        # SimulatedCrash is a BaseException and still propagates
        except Exception as exc:
            result, err = None, exc
        for ev in runner.events:
            self.queue.journal("isolation-event", job=job.id,
                               worker=self.name, attempt=lease.attempt,
                               **ev.to_dict())
        if err is None:
            self.queue.complete(job, lease, result)
            return
        report = getattr(err, "report", None)
        self.queue.fail(job, lease, f"{type(err).__name__}: {err}",
                        report=None if report is None else report.to_dict())

    def _tend(self, now: float) -> None:
        """Renew every lease due (ttl/3), poll every sandbox and settle
        the ones that are gone."""
        every = self.queue.leases.ttl / 3.0
        for att in list(self._running):
            if not att.lost and now - att.renewed >= every:
                att.renewed = now
                if not self.queue.leases.renew(att.lease):
                    # a successor may own the job now: never commit
                    att.lost = True
                    self.queue.journal("fenced", job=att.job.id,
                                       worker=self.name, action="renew")
                    att.sandbox.stop()
            if att.sandbox.poll(now):
                self._running.remove(att)
                self._guarded("commit", att.job.id, self._settle, att)

    def _chaos_kill(self, att: _Attempt) -> bool:
        """The whole point: an abrupt SIGKILL of a running sandbox, no
        graceful path; its job fails and retries from its snapshot.
        Returns whether it landed: a sandbox already exiting ends as it
        would have, and the kill goes unjournaled."""
        pid = att.sandbox.pid
        kill_pid_tree(pid)
        try:
            # prompt either way; WNOWAIT leaves the zombie to the poll
            end = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        except ChildProcessError:
            return False   # reaped already: it had exited on its own
        if end.si_code != os.CLD_KILLED or end.si_status != signal.SIGKILL:
            return False
        self.queue.journal("worker-kill", worker=self.name, pid=pid,
                           job=att.job.id, kind="chaos",
                           reason="scheduled chaos kill")
        print(f"[{self.label}] killed sandbox {pid} of job {att.job.id} "
              f"(chaos)", file=self.stream)
        return True

    def _wait(self) -> None:
        """Sleep until a sandbox exits or the next pass is due (never
        past the next lease renewal)."""
        wait([att.sandbox.sentinel for att in self._running],
             min(self.policy.poll_interval, self.queue.leases.ttl / 3.0))

    # -- the loop ------------------------------------------------------

    def _install_signals(self) -> dict:
        """Route SIGTERM and SIGINT to the graceful stop; returns the
        handlers they replace, for :meth:`run` to restore."""
        def on_term(signum, frame):
            self._stop = True

        previous = {}
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                previous[sig] = signal.signal(sig, on_term)
        except ValueError:
            pass   # not the main thread (tests drive run() directly)
        return previous

    def run(self) -> dict:
        """Drive a campaign to completion; returns the campaign ledger.

        Exits when every job is terminal (``drain_when_idle``), when the
        wall-clock budget runs out, or on SIGTERM/SIGINT — always
        through the graceful drain (sandboxes killed, their jobs
        preempted) and always with a ledger.  Without
        ``drain_when_idle`` (``serve``) it keeps draining jobs other
        processes enqueue until the signal.
        """
        pol = self.policy
        previous = self._install_signals()
        try:
            self.queue.journal("campaign-start", label=self.label,
                               n_workers=pol.n_workers,
                               jobs=len(self.queue.job_ids()))
            t0 = time.monotonic()
            kill_times = (self.kill_plan.schedule()
                          if self.kill_plan is not None else [])
            kill_rng = (np.random.default_rng(self.kill_plan.seed + 1)
                        if self.kill_plan is not None else None)
            next_kill = 0
            while True:
                now = time.monotonic()
                # renew before reaping, so a late pass never reaps a
                # lease of its own
                self._tend(now)
                if (next_kill < len(kill_times) and self._running
                        and now - t0 >= kill_times[next_kill]
                        and self._chaos_kill(self._running[int(
                            kill_rng.integers(0, len(self._running)))])):
                    next_kill += 1
                for job_id in self.queue.reclaim_expired():
                    print(f"[{self.label}] lease expired: job "
                          f"{job_id} reclaimed", file=self.stream)
                if self._stop:
                    break
                if (pol.max_wall_time is not None
                        and now - t0 > pol.max_wall_time):
                    self.queue.journal("campaign-timeout",
                                       elapsed=round(now - t0, 2))
                    break
                while (len(self._running) < pol.n_workers and not self._stop
                       and self._guarded("claim", None, self._claim)):
                    pass
                if (pol.drain_when_idle and not self._running
                        and self.queue.all_terminal()):
                    break
                self._wait()
        finally:
            try:
                self._drain()
            finally:
                # a finished farm no longer owns the process's signals
                for sig, handler in previous.items():
                    if handler is not None:    # None: not set from Python
                        signal.signal(sig, handler)
        wall = time.monotonic() - t0
        ledger = build_ledger(self.queue, wall_time=wall,
                              label=self.label, n_workers=pol.n_workers)
        self.queue.journal("campaign-end", label=self.label,
                           wall=round(wall, 2), ok=ledger["ok"])
        return ledger

    def _drain(self) -> None:
        """Stop every running sandbox and preempt its job, renewing the
        leases of the ones still dying; one that finished meanwhile
        commits as usual."""
        for att in self._running:
            att.drained = True
            att.sandbox.stop()
        t_end = time.monotonic() + _DRAIN_WAIT
        while self._running and time.monotonic() < t_end:
            self._wait()
            self._tend(time.monotonic())


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
