"""Durable asynchronous jobs: submit a long solve, walk away, come back.

The batch service (DESIGN §8) is synchronous — the caller holds the
connection while the farm works.  The paper's real workloads (full
trajectory marches, vehicle/material sweep campaigns) run for minutes to
hours, so this module adds the asynchronous front door: ``submit()``
returns a job id immediately, the solve runs on the existing farm, and
the client polls ``status``/``watch`` or collects ``result`` later —
surviving client disconnects, supervisor crashes and whole-host loss on
the way.  See DESIGN §9.

A job rides the durable work queue (:mod:`repro.resilience.queue`) as
kind ``"async"`` wrapping an inner
:data:`~repro.resilience.farm.JOB_KINDS` executor, and the queue's state
record *is* the job record: claims, leases, fenced commits,
retry/backoff, dead-lettering, journal rebuild and the exactly-once
audit are the queue's own.  The job state reads off the queue status:
``dead`` reads ``failed``, and ``done`` reads ``cancelled`` when the
attempt's result says so.  The marching supervisor publishes step /
time / residual through the heartbeat file
(``work/<id>/sandbox/heartbeat.json``), so ``status`` and ``watch``
show live progress without ever signalling or touching the child.

A pending job is cancelled by the queue at once, under its lease as a
claim is.  A leased one is cancelled cooperatively: a flag file the
supervisor's process-global cancel hook polls every march iteration,
answered with a final durable snapshot and a cancelled result — then,
on request, the existing SIGTERM → SIGKILL kill path against the live
attempt's sandbox child.  Dead jobs (killed supervisors) are detected
by lease reaping and requeued automatically; the next attempt resumes
from the latest durable snapshot generation.  ``gc`` applies a
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
from repro.resilience.persistence import SnapshotStore
from repro.resilience.queue import CANCEL_FLAG, Job, WorkQueue, check_job_id

__all__ = ["AsyncJob", "JOB_STATES", "JOB_TERMINAL", "JobManager",
           "run_async_attempt"]


PENDING, RUNNING = "pending", "running"
DONE, FAILED, CANCELLED = "done", "failed", "cancelled"

JOB_STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED)

#: terminal job states — never left, except ``failed`` through the
#: queue's dead-letter retry
JOB_TERMINAL = frozenset((DONE, FAILED, CANCELLED))


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
        self._last = float("-inf")
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


def run_async_attempt(payload: dict, ctx: dict) -> dict:
    """Execute one attempt of an async job (sandbox-child side).

    Acknowledges a cancel flag before spending any compute, or runs the
    inner job kind under the cancel hook.  A cooperative
    :class:`~repro.errors.CancelledError` becomes a clean
    ``{"cancelled": True}`` result.  The attempt writes nothing to the
    queue: the supervisor's fenced ``complete``/``fail`` is its only
    commit, and the job reads ``cancelled`` off that result.
    """
    from repro.resilience.farm import JOB_KINDS
    job_id = ctx["job_id"]
    inner_kind = payload.get("kind")
    fn = JOB_KINDS.get(inner_kind)
    if fn is None:
        raise SolverError(f"async job {job_id}: unknown inner kind "
                          f"{inner_kind!r} (registered: "
                          f"{sorted(JOB_KINDS)})")
    poll = _CancelPoll(os.path.join(ctx["workdir"], CANCEL_FLAG))
    reason = poll()
    if reason is not None:
        return {"job": job_id, "cancelled": True, "reason": reason,
                "wall_s": 0.0}
    set_process_cancel(poll)
    t0 = time.monotonic()
    try:
        inner = fn(dict(payload.get("payload") or {}), ctx)
    except CancelledError as err:
        return {"job": job_id, "cancelled": True, "reason": str(err),
                "step": err.step,
                "wall_s": round(time.monotonic() - t0, 3)}
    finally:
        set_process_cancel(None)
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
        rec = self.sync(job_id) or {}
        return {"job": job_id, "state": rec.get("state", PENDING),
                "kind": kind, "fresh": fresh,
                "submit_latency_s": round(time.monotonic() - t0, 4)}

    # -- the job record: the queue's ---------------------------------

    def sync(self, job_id: str) -> dict | None:
        """The job's record, read off its queue record; None when
        ``job_id`` names no async job.

        Reaps expired leases first, so a dead attempt reads ``pending``
        without waiting for a farm supervisor to notice.
        """
        check_job_id(job_id)
        self.queue.reclaim_expired()
        spec = self.queue._read_json(os.path.join(self.queue.jobs_dir,
                                                  f"{job_id}.json"))
        if spec is None or spec.get("kind") != "async":
            return None
        st = self.queue.state(job_id)
        status = st.get("status")
        if status == "unknown":
            return None
        state, reason = status, st.get("reason")
        if status == "dead":
            state = FAILED
        elif status == "done":
            envelope = (self.queue.result(job_id) or {}).get("result") \
                or {}
            if envelope.get("cancelled"):
                state, reason = CANCELLED, envelope.get("reason")
        return {"state": state,
                "kind": (spec.get("payload") or {}).get("kind"),
                "error": st.get("last_error"), "reason": reason,
                "queue_status": status, "attempts": st.get("attempts")}

    def _known(self, job_id: str) -> dict:
        rec = self.sync(job_id)
        if rec is None:
            raise InputError(f"unknown job {job_id!r}")
        return rec

    # -- introspection (read paths: they create nothing) ----------------

    def _progress(self, job_id: str) -> dict | None:
        hb = self.queue._read_json(os.path.join(
            self.queue.work_dir, job_id, "sandbox", "heartbeat.json"))
        return (hb or {}).get("progress")

    def _snapshots(self, job_id: str) -> dict:
        seqs = SnapshotStore(os.path.join(self.queue.work_dir, job_id,
                                          "ckpt")).sequences()
        return {"generations": len(seqs),
                "latest": seqs[-1] if seqs else None}

    def status(self, job_id: str) -> dict:
        """One JSON-able view of the job: state, queue status, live
        progress and snapshot ladder — read entirely from durable
        files, never from the child."""
        rec = self._known(job_id)
        lease = self.queue.leases.holder(job_id)
        flag = os.path.join(self.queue.work_dir, job_id, CANCEL_FLAG)
        return {"job": job_id, "state": rec["state"], "kind": rec["kind"],
                "queue_status": rec["queue_status"],
                "attempts": rec["attempts"],
                "owner": None if lease is None else lease.get("owner"),
                "error": rec["error"],
                "cancel_requested": os.path.exists(flag),
                "progress": self._progress(job_id),
                "snapshots": self._snapshots(job_id)}

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
            rec = self._known(job_id)
            state = rec["state"]
            if state in JOB_TERMINAL:
                break
            if wait is None or time.monotonic() - t0 > wait:
                return {"job": job_id, "state": state, "ready": False}
            time.sleep(poll)
        out = {"job": job_id, "state": state, "ready": True}
        if state == FAILED:
            dead = self.queue.dead_letter(job_id) or {}
            out["error"] = dead.get("error") or rec["error"]
            out["attempts"] = dead.get("attempts")
        else:
            envelope = (self.queue.result(job_id) or {}).get("result") \
                or {}
            out["wall_s"] = envelope.get("wall_s")
            if state == CANCELLED:
                out["reason"] = rec["reason"]
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
        snapshot and returns a cancelled result), then lets the queue
        cancel the job at once if nobody holds it.  A claim that wins
        that race finds the flag at attempt entry and acknowledges it
        without marching.  With ``escalate_after`` a job still not
        terminal after that many seconds gets the SIGTERM → SIGKILL
        path against its live attempt's sandbox child — the lease then
        expires and the requeued attempt acknowledges the flag.
        """
        rec = self._known(job_id)
        if rec["state"] in JOB_TERMINAL:
            return {"job": job_id, "state": rec["state"],
                    "already_terminal": True}
        queue = self.queue
        reason = reason or "client cancel"
        queue._write_json(os.path.join(queue.job_workdir(job_id),
                                       CANCEL_FLAG),
                          {"job": job_id, "t": queue.clock(),
                           "by": queue.host_id, "reason": reason})
        queue.journal("job-cancel-request", job=job_id, reason=reason)
        queue.cancel(job_id, reason)
        escalated = False
        t0 = time.monotonic()
        deadline = None if wait is None else t0 + wait
        esc_at = (None if escalate_after is None
                  else t0 + escalate_after)
        while True:
            rec = self._known(job_id)
            if rec["state"] in JOB_TERMINAL:
                break
            now = time.monotonic()
            if esc_at is not None and now >= esc_at and not escalated:
                escalated = True
                self._escalate(job_id)
            if deadline is None or now >= deadline:
                break
            time.sleep(poll)
        return {"job": job_id, "state": rec["state"],
                "escalated": escalated,
                "already_terminal": False}

    def _escalate(self, job_id: str, *, grace: float = 2.0) -> None:
        """SIGTERM the live attempt's sandbox child, then SIGKILL its
        group — the same escalation every other supervisor uses.

        ``child.json`` outlives a SIGKILLed host, and by then its pid
        may name an unrelated process: the child is signalled only when
        the file's ``worker`` (the supervisor) holds the job's lease
        now.
        """
        child = self.queue._read_json(os.path.join(
            self.queue.work_dir, job_id, "child.json"))
        pid = None if child is None else child.get("pid")
        if pid is None:
            return
        owner = (self.queue.leases.holder(job_id) or {}).get("owner")
        if owner is None or child.get("worker") != owner:
            self.queue.journal("job-cancel-escalate-skipped", job=job_id,
                               pid=pid, worker=child.get("worker"),
                               owner=owner)
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
        now = time.time()
        finished: list[tuple[float, str, str]] = []
        for job_id in self.queue.job_ids():
            rec = self.sync(job_id)
            if rec is None or rec["state"] not in JOB_TERMINAL:
                continue
            if self.queue.leases.holder(job_id) is not None:
                continue
            # nothing rewrites a terminal job's state file: its mtime
            # is when the job finished
            try:
                finished_at = os.path.getmtime(
                    self.queue._state_path(job_id))
            except OSError:
                continue   # collected by a concurrent gc
            finished.append((finished_at, job_id, rec["state"]))
        finished.sort(reverse=True)
        retained = [j for _, j, _ in finished[:max(0, int(keep_last))]]
        collected: list[str] = []
        # a collected job is terminal and unleased, and every commit
        # journals its line before releasing the lease: the lines of
        # the life this gc ends are all on disk now
        from repro.resilience.farm import journal_lives
        live = journal_lives(self.queue.read_journal())[1]
        for finished_at, job_id, state in finished[max(0, int(keep_last)):]:
            if state == FAILED and not include_failed:
                continue
            if now - finished_at < ttl:
                continue
            self._remove_artifacts(
                job_id, live.get(job_id, {"complete": 0, "cancel": 0}))
            collected.append(job_id)
        return {"collected": sorted(collected),
                "retained": sorted(retained),
                "n_collected": len(collected)}

    def _remove_artifacts(self, job_id: str, retired: dict) -> None:
        """Remove a finished job's files and journal ``job-gc`` with the
        ``complete``/``cancel`` line counts of the life it ends, which
        the exactly-once audit then judges apart from any later life of
        the same id.  Only the gc that removes the state file journals,
        so two concurrent sweeps retire a life once."""
        queue = self.queue
        shutil.rmtree(os.path.join(queue.work_dir, job_id),
                      ignore_errors=True)
        state_path = queue._state_path(job_id)
        ended_here = False
        for path in (
                os.path.join(queue.jobs_dir, f"{job_id}.json"),
                state_path,
                os.path.join(queue.results_dir, f"{job_id}.json"),
                os.path.join(queue.dead_dir, f"{job_id}.json"),
                os.path.join(queue.dead_dir, f"{job_id}-history.json")):
            try:
                os.remove(path)
            except OSError:
                continue
            ended_here = ended_here or path == state_path
        if ended_here:
            queue.journal("job-gc", job=job_id, retired=retired)

    # -- fleet view -----------------------------------------------------

    def ledger(self) -> dict:
        """Summary of every async job in the queue directory, plus the
        queue's exactly-once audit."""
        from repro.resilience.farm import audit_exactly_once
        rows = []
        by_state: dict[str, int] = {}
        for job_id in self.queue.job_ids():
            rec = self.sync(job_id)
            if rec is None:
                continue
            state = rec["state"]
            by_state[state] = by_state.get(state, 0) + 1
            rows.append({"job": job_id, "state": state,
                         "kind": rec["kind"], "error": rec["error"]})
        return {"jobs": rows, "by_state": by_state,
                "audit": audit_exactly_once(self.queue)}


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
