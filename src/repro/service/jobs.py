"""Durable asynchronous jobs: submit a long solve, walk away, come back.

The batch service (DESIGN §8) is synchronous — the caller holds the
connection while the farm works.  The paper's real workloads (full
trajectory marches, vehicle/material sweep campaigns) run for minutes to
hours, so this module adds the asynchronous front door: ``submit()``
returns a job id immediately, the solve runs on the existing farm, and
the client polls ``status``/``watch`` or collects ``result`` later —
surviving client disconnects, supervisor crashes and whole-host loss on
the way.  See DESIGN §9.

Architecture — three cooperating layers, all rooted in one queue dir:

* **Queue layer** (:mod:`repro.resilience.queue`): the job rides the
  durable work queue as kind ``"async"`` wrapping an inner
  :data:`~repro.resilience.farm.JOB_KINDS` executor.  Claims, leases,
  retry/backoff, dead-lettering and the exactly-once completion audit
  are all inherited unchanged.

* **Job state machine** (this module): a crash-safe JSON record at
  ``work/<id>/jobstate.json`` — deliberately next to the job's durable
  :class:`~repro.resilience.persistence.SnapshotStore` ladder at
  ``work/<id>/ckpt`` — tracking ``pending → claimed → running →
  checkpointing → done | failed | cancelled``.  Every transition is
  journaled (``job-transition``) and **fenced**: attempt-side
  transitions are committed only by the worker holding the job's lease,
  validated against the on-disk lease token before *and* after the
  write (the queue's double-verify idiom), so a partitioned supervisor
  whose lease was reaped can never commit a stale transition — it
  journals ``job-fenced`` and abandons the write instead.  Terminal
  states are *derived* from the queue's own fenced commits (result file
  / dead letter), which keeps "done" exactly-once by construction.

* **Progress channel**: the marching supervisor publishes step / time /
  residual through the existing heartbeat file
  (``work/<id>/sandbox/heartbeat.json``), so ``status`` and ``watch``
  show live progress without ever signalling or touching the child.

Cancellation is cooperative first — a flag file the supervisor's
process-global cancel hook polls every march iteration, answered with a
final durable snapshot and a terminal ``cancelled`` state — then
escalates down the existing SIGTERM → SIGKILL kill path against the
advertised sandbox child.  Dead jobs (killed supervisors/workers) are
detected by lease reaping and requeued automatically; the next attempt
resumes from the latest durable snapshot generation.  ``gc`` applies a
TTL + keep-last retention policy to finished-job artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import time

from repro.errors import CancelledError, InputError, SolverError
from repro.resilience.isolation import (kill_pid_tree, set_process_cancel,
                                        signal_group)
from repro.resilience.persistence import set_save_observer
from repro.resilience.queue import Job, WorkQueue

__all__ = ["AsyncJob", "JOB_STATES", "JOB_TERMINAL", "JOB_TRANSITIONS",
           "JobManager", "audit_job_transitions", "run_async_attempt"]


# ----------------------------------------------------------------------
# the state machine
# ----------------------------------------------------------------------

PENDING, CLAIMED, RUNNING = "pending", "claimed", "running"
CHECKPOINTING = "checkpointing"
DONE, FAILED, CANCELLED = "done", "failed", "cancelled"

JOB_STATES = (PENDING, CLAIMED, RUNNING, CHECKPOINTING, DONE, FAILED,
              CANCELLED)

#: terminal job states — never left, whatever the queue does next
JOB_TERMINAL = frozenset((DONE, FAILED, CANCELLED))

#: the legal transition table.  ``running/claimed/checkpointing →
#: pending`` is the requeue edge (lease reaped, worker preempted or a
#: failed attempt backing off); every state may reach a terminal.
#: ``failed → pending`` is the one exit from a terminal: the operator
#: resurrect edge taken when ``campaign --retry-dead-letters`` grants a
#: dead job a fresh attempt budget.
JOB_TRANSITIONS: dict = {
    PENDING: frozenset((CLAIMED, DONE, FAILED, CANCELLED)),
    CLAIMED: frozenset((RUNNING, PENDING, DONE, FAILED, CANCELLED)),
    RUNNING: frozenset((CHECKPOINTING, PENDING, DONE, FAILED,
                        CANCELLED)),
    CHECKPOINTING: frozenset((RUNNING, PENDING, DONE, FAILED,
                              CANCELLED)),
    DONE: frozenset(), FAILED: frozenset((PENDING,)),
    CANCELLED: frozenset(),
}

#: jobstate history entries kept in the record file (the journal keeps
#: them all; the record keeps a bounded tail plus a total counter)
_HISTORY_KEEP = 50


def _record_path(queue: WorkQueue, job_id: str) -> str:
    return os.path.join(queue.job_workdir(job_id), "jobstate.json")


def _cancel_path(queue: WorkQueue, job_id: str) -> str:
    return os.path.join(queue.job_workdir(job_id), "cancel.json")


def _terminal_marker(queue: WorkQueue, job_id: str) -> str:
    return os.path.join(queue.job_workdir(job_id), "terminal.lock")


def read_record(queue: WorkQueue, job_id: str) -> dict | None:
    """The job's persisted state record; None when never submitted.

    A torn record (crash mid-write is impossible — writes are atomic —
    but disk corruption is not) is quarantined and rebuilt by replaying
    the journal's ``job-transition`` stream, the same recovery path the
    queue uses for its own state files.
    """
    path = _record_path(queue, job_id)
    rec, torn = queue._read_json_checked(path)
    if rec is not None:
        return rec
    if torn:
        queue._quarantine(path, "unparseable jobstate record")
        rebuilt = _record_from_journal(queue, job_id)
        if rebuilt is not None:
            queue._write_json(path, rebuilt)
            queue.journal("job-state-rebuilt", job=job_id,
                          state=rebuilt.get("state"))
            return rebuilt
    return None


def _record_from_journal(queue: WorkQueue, job_id: str) -> dict | None:
    rec = None
    for line in queue.read_journal():
        if line.get("job") != job_id \
                or line.get("event") != "job-transition":
            continue
        if rec is None:
            rec = {"id": job_id, "kind": line.get("kind"),
                   "state": line.get("to"),
                   "submitted_at": float(line.get("t") or 0.0),
                   "updated_at": float(line.get("t") or 0.0),
                   "transitions": 0, "history": [], "error": None}
        rec["state"] = line.get("to")
        rec["updated_at"] = float(line.get("t") or 0.0)
        rec["transitions"] += 1
        if line.get("error"):
            rec["error"] = line["error"]
    return rec


def _verify_token(queue: WorkQueue, job_id: str,
                  token: str | None) -> bool:
    """Does the on-disk lease (or its absence) match our credential?

    ``token=None`` is the client/reconciler fence: legal only while no
    lease exists at all, so a client-side write can never race a live
    attempt's fenced commits.
    """
    held = queue.leases.holder(job_id)
    if token is None:
        return held is None
    return held is not None and held.get("token") == token


def commit_transition(queue: WorkQueue, job_id: str, to: str, *,
                      by: str | None, token: str | None = None,
                      kind: str | None = None, error: str | None = None,
                      detail: str | None = None) -> bool:
    """Atomically commit one fenced state-machine transition.

    Returns True when the transition landed.  Rejections are silent to
    the caller but never to the audit trail: a lease-token mismatch
    journals ``job-fenced`` (a partitioned writer was stopped), an
    illegal edge journals ``job-illegal`` (a logic bug or a racing
    terminal), and both leave the record untouched.

    The fence is checked twice — before building the new record and
    again immediately before the atomic replace — mirroring the queue's
    double-verify completion commit, so the stale-writer window is one
    rename wide and anything slipping through shows up in the journal
    replay that :func:`audit_job_transitions` validates.
    """
    if to not in JOB_STATES:
        raise InputError(f"unknown job state {to!r}")
    if not _verify_token(queue, job_id, token):
        queue.journal("job-fenced", job=job_id, to=to, by=by)
        return False
    rec = read_record(queue, job_id)
    if rec is None:
        if to != PENDING:
            queue.journal("job-illegal", job=job_id, frm=None, to=to,
                          by=by)
            return False
        now = queue.clock()
        rec = {"id": job_id, "kind": kind, "state": PENDING,
               "submitted_at": now, "updated_at": now,
               "transitions": 0, "history": [], "error": None}
        frm = None
    else:
        frm = rec.get("state")
        if to not in JOB_TRANSITIONS.get(frm, frozenset()):
            queue.journal("job-illegal", job=job_id, frm=frm, to=to,
                          by=by)
            return False
    if to in JOB_TERMINAL:
        # exclusive hard gate on the *journal* line: of N concurrent
        # terminal writers (the lease holder vs. racing client-side
        # reconcilers) exactly one O_EXCL create succeeds, so the
        # at-most-one-terminal audit invariant holds by construction.
        # A marker creator dying before the record write is repaired
        # journal-lessly by JobManager.sync().
        try:
            fd = os.open(_terminal_marker(queue, job_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            os.close(fd)
        except FileExistsError:
            return False
        except OSError:
            pass   # marker dir gone (gc race): proceed unguarded
    now = queue.clock()
    rec["state"] = to
    rec["updated_at"] = now
    rec["transitions"] = int(rec.get("transitions", 0)) + 1
    if error is not None:
        rec["error"] = error
    entry = {"from": frm, "to": to, "at": now, "by": by}
    if detail:
        entry["detail"] = detail
    history = list(rec.get("history") or [])
    history.append(entry)
    rec["history"] = history[-_HISTORY_KEEP:]
    if not _verify_token(queue, job_id, token):
        queue.journal("job-fenced", job=job_id, to=to, by=by)
        return False
    queue._write_json(_record_path(queue, job_id), rec)
    if frm in JOB_TERMINAL and to == PENDING:
        # resurrect (dead-letter retry): re-arm the exclusive terminal
        # gate and drop any stale cancel flag from the prior life
        for stale in (_terminal_marker(queue, job_id),
                      _cancel_path(queue, job_id)):
            try:
                os.remove(stale)
            except OSError:
                pass
    queue.journal("job-transition", job=job_id, frm=frm, to=to, by=by,
                  kind=rec.get("kind"), error=error, detail=detail,
                  token=None if token is None else token[:8])
    return True


def _journal_lagging_edge(queue: WorkQueue, job_id: str, rec: dict, *,
                          by: str | None) -> None:
    """Journal the edge a killed attempt left on the record alone.

    :func:`commit_transition` replaces the record before it appends the
    journal line, so an attempt SIGKILLed between the two leaves the
    record one legal edge ahead of the journal.  Whoever reconciles the
    dead attempt journals that edge first, so the history that
    :func:`audit_job_transitions` replays stays continuous.
    """
    replayed = _record_from_journal(queue, job_id)
    frm = None if replayed is None else replayed.get("state")
    to = rec.get("state")
    if frm != to and to in JOB_TRANSITIONS.get(frm, frozenset()):
        queue.journal("job-transition", job=job_id, frm=frm, to=to, by=by,
                      kind=rec.get("kind"), error=None,
                      detail="journal caught up with the record",
                      token=None)


def audit_job_transitions(queue: WorkQueue) -> dict:
    """Replay every journaled ``job-transition`` and prove the history
    legal: each edge in :data:`JOB_TRANSITIONS`, at most one terminal
    per job, nothing after a terminal."""
    state: dict[str, str | None] = {}
    violations: list[dict] = []
    for line in queue.read_journal():
        if line.get("event") != "job-transition":
            continue
        job, frm, to = line.get("job"), line.get("frm"), line.get("to")
        seen = state.get(job)
        resurrect = frm == FAILED and to == PENDING
        if seen in JOB_TERMINAL and not (resurrect and seen == FAILED):
            # covers double-terminal too: a second terminal while
            # already terminal (without a resurrect in between) lands
            # here
            violations.append({"job": job, "kind": "after-terminal",
                               "frm": frm, "to": to})
        elif seen is not None and frm is not None and seen != frm:
            violations.append({"job": job, "kind": "discontinuity",
                               "recorded": seen, "frm": frm, "to": to})
        if frm is None:
            legal = to == PENDING
        else:
            legal = to in JOB_TRANSITIONS.get(frm, frozenset())
        if not legal:
            violations.append({"job": job, "kind": "illegal-edge",
                               "frm": frm, "to": to})
        state[job] = to
    return {"ok": not violations, "jobs": len(state),
            "violations": violations}


# ----------------------------------------------------------------------
# the attempt executor (runs in the farm's sandbox child)
# ----------------------------------------------------------------------

class _CancelPoll:
    """Throttled cancel-flag poll installed as the process-global cancel
    hook: the supervisor calls it every march iteration; it touches the
    filesystem at most every ``min_interval`` seconds."""

    def __init__(self, path: str, *, min_interval: float = 0.2):
        self.path = path
        self.min_interval = float(min_interval)
        self._last = 0.0
        self._reason: str | None = None

    def __call__(self) -> str | None:
        if self._reason is not None:
            return self._reason
        now = time.monotonic()
        if now - self._last < self.min_interval:
            return None
        self._last = now
        try:
            with open(self.path) as f:
                flag = json.load(f)
        except (OSError, ValueError):
            return None
        self._reason = str(flag.get("reason") or "cancel requested")
        return self._reason


class _CheckpointObserver:
    """Save observer bracketing every durable snapshot commit with
    fenced ``running → checkpointing → running`` transitions."""

    def __init__(self, queue: WorkQueue, job_id: str,
                 token: str | None, worker: str | None):
        self.queue = queue
        self.job_id = job_id
        self.token = token
        self.worker = worker

    def __call__(self, phase: str, *, store=None, seq=None,
                 completed=False) -> None:
        try:
            if phase == "begin":
                commit_transition(self.queue, self.job_id, CHECKPOINTING,
                                  by=self.worker, token=self.token)
            elif phase == "end":
                commit_transition(self.queue, self.job_id, RUNNING,
                                  by=self.worker, token=self.token,
                                  detail=f"snapshot seq {seq}")
        except OSError:
            pass   # a failed bookkeeping write must never kill a save


def _cancel_requested(queue: WorkQueue, job_id: str) -> dict | None:
    return queue._read_json(_cancel_path(queue, job_id))


def run_async_attempt(payload: dict, ctx: dict) -> dict:
    """Execute one fenced attempt of an async job (sandbox-child side).

    Reconciles any non-terminal state a killed predecessor left behind
    (back to ``pending``, legally), acknowledges a pending cancel flag
    before spending any compute, then drives the inner job kind under
    ``claimed → running → (checkpointing …) → `` bookkeeping.  A
    cooperative :class:`~repro.errors.CancelledError` becomes a clean
    ``{"cancelled": True}`` result — the queue still records a fenced,
    exactly-once *completion*; the job-level terminal state is derived
    as ``cancelled`` from the result payload.
    """
    from repro.resilience.farm import JOB_KINDS
    queue = WorkQueue(ctx["queue_dir"], host_id=ctx.get("host_id"))
    job_id = ctx["job_id"]
    token = ctx.get("lease_token")
    worker = ctx.get("worker")
    inner_kind = payload.get("kind")
    fn = JOB_KINDS.get(inner_kind)
    if fn is None:
        raise SolverError(f"async job {job_id}: unknown inner kind "
                          f"{inner_kind!r} (registered: "
                          f"{sorted(JOB_KINDS)})")
    rec = read_record(queue, job_id)
    if rec is None:
        # submitted through the bare queue API: adopt it
        commit_transition(queue, job_id, PENDING, by=worker,
                          token=token, kind=inner_kind)
        rec = read_record(queue, job_id)
    state = (rec or {}).get("state")
    if state in (CLAIMED, RUNNING, CHECKPOINTING):
        # a killed attempt never got to requeue its record — do it now,
        # under our lease, before claiming
        _journal_lagging_edge(queue, job_id, rec, by=worker)
        commit_transition(queue, job_id, PENDING, by=worker,
                          token=token, detail="stale attempt reconciled")
        state = PENDING
    elif state == FAILED:
        # the operator granted a dead-lettered job a fresh attempt
        # budget (retry_dead_letters): take the resurrect edge
        commit_transition(queue, job_id, PENDING, by=worker,
                          token=token, detail="dead-letter retry")
        state = PENDING
    flag = _cancel_requested(queue, job_id)
    if flag is not None or state == CANCELLED:
        # acknowledge without burning compute; queue-level completion
        # still commits exactly once through the worker's fenced path
        if state not in JOB_TERMINAL:
            commit_transition(queue, job_id, CANCELLED, by=worker,
                              token=token,
                              detail="cancelled before start")
        return {"job": job_id, "cancelled": True,
                "reason": (flag or {}).get("reason"), "wall_s": 0.0}
    commit_transition(queue, job_id, CLAIMED, by=worker, token=token)
    poll = _CancelPoll(_cancel_path(queue, job_id))
    set_process_cancel(poll)
    set_save_observer(_CheckpointObserver(queue, job_id, token, worker))
    commit_transition(queue, job_id, RUNNING, by=worker, token=token)
    t0 = time.monotonic()
    try:
        inner = fn(dict(payload.get("payload") or {}), ctx)
    except CancelledError as err:
        commit_transition(queue, job_id, CANCELLED, by=worker,
                          token=token, detail=str(err))
        return {"job": job_id, "cancelled": True, "reason": str(err),
                "step": err.step,
                "wall_s": round(time.monotonic() - t0, 3)}
    finally:
        set_process_cancel(None)
        set_save_observer(None)
    commit_transition(queue, job_id, DONE, by=worker, token=token)
    return {"job": job_id, "cancelled": False, "result": inner,
            "wall_s": round(time.monotonic() - t0, 3)}


# ----------------------------------------------------------------------
# the client surface
# ----------------------------------------------------------------------

def _job_id_for(kind: str, payload: dict) -> str:
    """Content-addressed default job id: resubmitting the same work is
    idempotent (the queue dedups on id), mirroring the batch service's
    idempotency keys."""
    blob = json.dumps({"kind": kind, "payload": payload},
                      sort_keys=True, default=str)
    return f"job-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"


class JobManager:
    """Client-side surface over one queue directory's async jobs.

    Every method opens its own view of the shared directory — there is
    no in-memory authority to lose, so any number of clients, CLIs and
    supervisors can operate on the same jobs concurrently.
    """

    def __init__(self, queue_dir, *, host_id: str | None = None,
                 lease_ttl: float = 15.0, max_skew: float = 2.0,
                 clock=None):
        self.queue = WorkQueue(queue_dir, host_id=host_id,
                               lease_ttl=lease_ttl, max_skew=max_skew,
                               clock=clock)

    # -- submit ---------------------------------------------------------

    def submit(self, kind: str, payload: dict | None = None, *,
               job_id: str | None = None, priority: int = 0,
               max_attempts: int | None = None,
               deadline: float | None = None,
               memory_mb: float | None = None,
               stall_timeout: float | None = None) -> dict:
        """Enqueue an async job; returns ``{"job", "state", "fresh"}``
        immediately — the solve itself runs whenever a farm supervisor
        (``python -m repro serve``) drains the queue."""
        from repro.resilience.farm import JOB_KINDS
        if kind not in JOB_KINDS or kind == "async":
            raise InputError(f"unknown job kind {kind!r} (registered: "
                             f"{sorted(k for k in JOB_KINDS if k != 'async')})")
        payload = dict(payload or {})
        job_id = job_id or _job_id_for(kind, payload)
        t0 = time.monotonic()
        fresh = self.queue.enqueue(Job(
            id=job_id, kind="async",
            payload={"kind": kind, "payload": payload},
            priority=priority, max_attempts=max_attempts,
            deadline=deadline, memory_mb=memory_mb,
            stall_timeout=stall_timeout))
        if fresh:
            commit_transition(self.queue, job_id, PENDING, by="client",
                              kind=kind)
        rec = read_record(self.queue, job_id) or {}
        return {"job": job_id, "state": rec.get("state", PENDING),
                "kind": kind, "fresh": fresh,
                "submit_latency_s": round(time.monotonic() - t0, 4)}

    # -- reconciliation -------------------------------------------------

    def sync(self, job_id: str) -> dict | None:
        """Reconcile the job record against queue truth; returns it.

        Terminal states derive from the queue's fenced commits: a
        result file means ``done`` (or ``cancelled`` when the attempt
        reported a cooperative cancellation), a dead letter means
        ``failed``.  A non-terminal record whose attempt lost its lease
        (reaped, preempted or requeued with backoff) is folded back to
        ``pending``.  Also reaps expired leases first — dead-job
        detection does not wait for a farm supervisor to notice.
        """
        self.queue.reclaim_expired()
        rec = read_record(self.queue, job_id)
        if rec is None:
            return None
        if rec.get("state") in JOB_TERMINAL:
            return rec
        qst = self.queue.state(job_id)
        status = qst.get("status")
        to, error, detail = None, None, None
        if status == "done":
            res = (self.queue.result(job_id) or {}).get("result") or {}
            to = CANCELLED if res.get("cancelled") else DONE
            detail = "derived from queue completion"
        elif status == "dead":
            dead = self.queue.dead_letter(job_id) or {}
            to, error = FAILED, dead.get("error")
            detail = "derived from dead letter"
        elif (status == "pending"
              and rec.get("state") in (CLAIMED, RUNNING, CHECKPOINTING)
              and self.queue.leases.holder(job_id) is None):
            _journal_lagging_edge(self.queue, job_id, rec, by="reconcile")
            commit_transition(self.queue, job_id, PENDING,
                              by="reconcile", error=qst.get("last_error"),
                              detail="attempt lost its lease; requeued")
        if to is not None:
            commit_transition(self.queue, job_id, to, by="reconcile",
                              error=error, detail=detail)
            rec = read_record(self.queue, job_id)
            if rec is not None and rec.get("state") not in JOB_TERMINAL:
                # a prior terminal writer created the exclusive marker
                # and died before the record write (or its fenced
                # commit was abandoned post-marker): repair the record
                # journal-lessly — the queue's own fenced commit is the
                # durable proof; the journal simply never shows this
                # terminal edge
                rec["state"] = to
                rec["updated_at"] = self.queue.clock()
                if error is not None:
                    rec["error"] = error
                self.queue._write_json(_record_path(self.queue, job_id),
                                       rec)
                self.queue.journal("job-terminal-repair", job=job_id,
                                   to=to)
            return rec
        return read_record(self.queue, job_id)

    # -- introspection --------------------------------------------------

    def _progress(self, job_id: str) -> dict | None:
        hb = self.queue._read_json(os.path.join(
            self.queue.job_workdir(job_id), "sandbox",
            "heartbeat.json"))
        return (hb or {}).get("progress")

    def _snapshots(self, job_id: str) -> dict:
        ckpt_dir = os.path.join(self.queue.job_workdir(job_id), "ckpt")
        try:
            names = sorted(n for n in os.listdir(ckpt_dir)
                           if n.startswith("ckpt-")
                           and n.endswith(".json"))
        except OSError:
            names = []
        latest = None
        if names:
            latest = int(names[-1][len("ckpt-"):-len(".json")])
        return {"generations": len(names), "latest": latest}

    def status(self, job_id: str) -> dict:
        """One reconciled, JSON-able view of the job: state-machine
        state, queue status, live progress and snapshot ladder — read
        entirely from durable files, never from the child."""
        rec = self.sync(job_id)
        if rec is None:
            raise InputError(f"unknown job {job_id!r}")
        qst = self.queue.state(job_id)
        lease = self.queue.leases.holder(job_id)
        return {"job": job_id, "state": rec.get("state"),
                "kind": rec.get("kind"),
                "queue_status": qst.get("status"),
                "attempts": qst.get("attempts"),
                "owner": None if lease is None else lease.get("owner"),
                "error": rec.get("error"),
                "cancel_requested":
                    _cancel_requested(self.queue, job_id) is not None,
                "progress": self._progress(job_id),
                "snapshots": self._snapshots(job_id),
                "transitions": rec.get("transitions"),
                "updated_at": rec.get("updated_at"),
                "history": list(rec.get("history") or [])[-8:]}

    def watch(self, job_id: str, *, timeout: float | None = None,
              poll: float = 0.5, stream=None) -> dict:
        """Poll ``status`` until the job is terminal, emitting one JSON
        line per observed change; returns the final status (with
        ``timed_out=True`` when the budget ran out first)."""
        t0 = time.monotonic()
        last_line = None
        while True:
            st = self.status(job_id)
            line = json.dumps(
                {k: st.get(k) for k in ("job", "state", "attempts",
                                        "progress", "snapshots")},
                sort_keys=True, default=str)
            if stream is not None and line != last_line:
                print(line, file=stream, flush=True)
                last_line = line
            if st["state"] in JOB_TERMINAL:
                return st
            if (timeout is not None
                    and time.monotonic() - t0 > timeout):
                st["timed_out"] = True
                return st
            time.sleep(poll)

    def result(self, job_id: str, *, wait: float | None = None,
               poll: float = 0.5) -> dict:
        """The job's terminal outcome: ``{"job", "state", "result" |
        "error", ...}``.  With ``wait`` blocks up to that long for a
        terminal state; a non-terminal job reports ``ready=False``."""
        t0 = time.monotonic()
        while True:
            rec = self.sync(job_id)
            if rec is None:
                raise InputError(f"unknown job {job_id!r}")
            state = rec.get("state")
            if state in JOB_TERMINAL:
                break
            if wait is None or time.monotonic() - t0 > wait:
                return {"job": job_id, "state": state, "ready": False}
            time.sleep(poll)
        out = {"job": job_id, "state": state, "ready": True}
        if state == FAILED:
            dead = self.queue.dead_letter(job_id) or {}
            out["error"] = dead.get("error") or rec.get("error")
            out["attempts"] = dead.get("attempts")
        else:
            envelope = (self.queue.result(job_id) or {}).get("result") \
                or {}
            out["wall_s"] = envelope.get("wall_s")
            if state == CANCELLED:
                out["reason"] = envelope.get("reason")
            else:
                out["result"] = envelope.get("result")
        return out

    # -- cancellation ---------------------------------------------------

    def cancel(self, job_id: str, *, reason: str | None = None,
               escalate_after: float | None = None,
               wait: float | None = None, poll: float = 0.25) -> dict:
        """Request cancellation; cooperative first, then escalating.

        Writes the durable cancel flag (the running march's cancel hook
        acknowledges it within one poll interval, commits a final
        snapshot and exits ``cancelled``); an unclaimed job is
        terminalized client-side immediately.  With ``escalate_after``
        a job still not terminal after that many seconds gets the
        SIGTERM → SIGKILL path against its advertised sandbox child —
        the lease then expires, the requeued attempt sees the flag at
        entry and acknowledges it without marching.
        """
        rec = self.sync(job_id)
        if rec is None:
            raise InputError(f"unknown job {job_id!r}")
        if rec.get("state") in JOB_TERMINAL:
            return {"job": job_id, "state": rec["state"],
                    "already_terminal": True}
        queue = self.queue
        queue._write_json(_cancel_path(queue, job_id),
                          {"job": job_id, "t": queue.clock(),
                           "by": queue.host_id,
                           "reason": reason or "client cancel"})
        queue.journal("job-cancel-request", job=job_id,
                      reason=reason or "client cancel")
        # an unclaimed job can be terminalized right now (fenced by the
        # absence of any lease; a racing claim converges at attempt
        # entry, which re-checks the flag before marching)
        if queue.state(job_id).get("status") == "pending" \
                and queue.leases.holder(job_id) is None:
            commit_transition(queue, job_id, CANCELLED, by="client",
                              detail=reason or "client cancel")
        escalated = False
        t0 = time.monotonic()
        deadline = None if wait is None else t0 + wait
        esc_at = (None if escalate_after is None
                  else t0 + escalate_after)
        while True:
            rec = self.sync(job_id)
            if rec.get("state") in JOB_TERMINAL:
                break
            now = time.monotonic()
            if esc_at is not None and now >= esc_at and not escalated:
                escalated = True
                self._escalate(job_id)
            if deadline is None or now >= deadline:
                break
            time.sleep(poll)
        return {"job": job_id, "state": rec.get("state"),
                "escalated": escalated,
                "already_terminal": False}

    def _escalate(self, job_id: str, *, grace: float = 2.0) -> None:
        """SIGTERM the advertised sandbox child, then SIGKILL its
        group — the same escalation every other supervisor uses."""
        child = self.queue._read_json(os.path.join(
            self.queue.job_workdir(job_id), "child.json"))
        pid = None if child is None else child.get("pid")
        if pid is None:
            return
        self.queue.journal("job-cancel-escalate", job=job_id, pid=pid)
        signal_group(int(pid), signal.SIGTERM)
        t_end = time.monotonic() + grace
        while time.monotonic() < t_end:
            try:
                os.kill(int(pid), 0)
            except OSError:
                return   # gone within the grace window
            time.sleep(0.1)
        kill_pid_tree(int(pid))

    # -- garbage collection ---------------------------------------------

    def gc(self, *, ttl: float = 0.0, keep_last: int = 0,
           include_failed: bool = False) -> dict:
        """TTL-based retention sweep over *finished* jobs.

        Removes every artifact (spec, state, result, dead letter,
        workdir with its snapshot ladder) of jobs terminal for longer
        than ``ttl`` seconds — except the ``keep_last`` most recently
        finished, and except ``failed`` jobs unless ``include_failed``
        (their dead letters are the debugging record).  Running,
        pending and leased jobs are never touched.
        """
        now = self.queue.clock()
        finished: list[tuple[float, str, str]] = []
        for job_id in self.queue.job_ids():
            rec = self.sync(job_id)
            if rec is None or rec.get("state") not in JOB_TERMINAL:
                continue
            if self.queue.leases.holder(job_id) is not None:
                continue
            finished.append((float(rec.get("updated_at") or 0.0),
                             job_id, rec["state"]))
        finished.sort(reverse=True)
        retained = [j for _, j, _ in finished[:max(0, int(keep_last))]]
        collected: list[str] = []
        for updated, job_id, state in finished[max(0, int(keep_last)):]:
            if state == FAILED and not include_failed:
                continue
            if now - updated < ttl:
                continue
            self._remove_artifacts(job_id)
            collected.append(job_id)
        return {"collected": sorted(collected),
                "retained": sorted(retained),
                "n_collected": len(collected)}

    def _remove_artifacts(self, job_id: str) -> None:
        queue = self.queue
        shutil.rmtree(os.path.join(queue.work_dir, job_id),
                      ignore_errors=True)
        for path in (
                os.path.join(queue.jobs_dir, f"{job_id}.json"),
                os.path.join(queue.state_dir, f"{job_id}.json"),
                os.path.join(queue.results_dir, f"{job_id}.json"),
                os.path.join(queue.dead_dir, f"{job_id}.json"),
                os.path.join(queue.dead_dir, f"{job_id}-history.json")):
            try:
                os.remove(path)
            except OSError:
                pass
        queue.journal("job-gc", job=job_id)

    # -- fleet view -----------------------------------------------------

    def ledger(self) -> dict:
        """Summary of every job in the queue directory, plus both
        audits (queue-level exactly-once, job-level legal history)."""
        from repro.resilience.farm import audit_exactly_once
        rows = []
        by_state: dict[str, int] = {}
        for job_id in self.queue.job_ids():
            rec = self.sync(job_id)
            if rec is None:
                continue
            state = rec.get("state", "?")
            by_state[state] = by_state.get(state, 0) + 1
            rows.append({"job": job_id, "state": state,
                         "kind": rec.get("kind"),
                         "transitions": rec.get("transitions"),
                         "error": rec.get("error"),
                         "updated_at": rec.get("updated_at")})
        return {"jobs": rows, "by_state": by_state,
                "audit": audit_exactly_once(self.queue),
                "transitions_audit":
                    audit_job_transitions(self.queue)}


class AsyncJob:
    """Thin client handle returned by :func:`repro.core.submit_async`:
    the job id plus bound ``status``/``watch``/``result``/``cancel``."""

    def __init__(self, manager: JobManager, job_id: str):
        self.manager = manager
        self.id = job_id

    def status(self) -> dict:
        return self.manager.status(self.id)

    def watch(self, **kwargs) -> dict:
        return self.manager.watch(self.id, **kwargs)

    def result(self, **kwargs) -> dict:
        return self.manager.result(self.id, **kwargs)

    def cancel(self, **kwargs) -> dict:
        return self.manager.cancel(self.id, **kwargs)

    def __repr__(self) -> str:
        return f"AsyncJob({self.id!r})"
