"""Durable filesystem work queue: atomic claims, crash-safe journals,
retry/backoff requeue and a dead-letter ledger — safe for many hosts.

The queue is a directory; every mutation is an atomic filesystem
operation, so any number of farm supervisors **on any number of hosts
mounting the directory** can share it and a crash at any instant
leaves a state the survivors can read:

```
queue-dir/
  jobs/<id>.json      immutable job spec (atomic write at enqueue)
  state/<id>.json     mutable status record (atomic replace)
  leases/lease-<id>.json   ownership (O_EXCL create, see lease.py)
  results/<id>.json   result payload of a completed job
  dead/<id>.json      dead-letter record (error + FailureReport)
  dead/<id>-history.json   prior dead-letter records preserved across
                      ``retry_dead_letters`` requeues
  work/<id>/          per-job workdir: ckpt/ (durable snapshots),
                      sandbox/ (isolation heartbeat + error notes),
                      child.json (the running sandbox's pid, see
                      farm.py) and cancel.json (a cancel request for a
                      leased job)
  quarantine/         torn/corrupt records moved aside, never parsed
  journal-<host>.jsonl  this host's append-only ledger (one per host)
```

A job moves through a small state machine::

    pending --claim--> running --complete--> done
       ^  |               |
       |  +--cancel--> cancelled
       |                  +--fail (attempts < max) --> pending
       |                  |     (not_before = now + backoff + jitter)
       |                  +--fail (attempts == max) --> dead
       |                  +--preempt (drain; attempt not counted)
       +---reclaim (lease expired: owner died) ---------+
       +---retry-dead-letter (fresh attempt budget) --- dead

Claims are arbitrated by the lease file (exactly one ``O_CREAT|O_EXCL``
create wins, kernel-arbitrated even over NFS); completion, failure and
preemption are all fenced by the lease token so a supervisor that lost
its lease mid-job — died, stalled, or **partitioned and healed** —
cannot clobber its successor.  Multi-host safety rests on three rules:

* **one journal file per host.**  ``O_APPEND`` writes are atomic on a
  local filesystem but *not* across NFS clients; giving each host its
  own ``journal-<host>.jsonl`` keeps every append single-writer-host.
  :meth:`WorkQueue.read_journal` merges all hosts' files back into one
  ledger stream.
* **no cross-host wall-clock comparisons.**  Lease expiry is
  observation-based (see :mod:`repro.resilience.lease`); the queue's
  own timestamps (backoff ``not_before``, journal ``t``) tolerate
  bounded skew because backoff delays are seconds-scale and ledger
  folding only counts events.
* **transient I/O failure is retried, torn state is quarantined.**
  Reads and atomic writes retry with exponential backoff (stale NFS
  handles, transient EIO); a state record that parses as garbage is
  moved to ``quarantine/`` and **rebuilt from the journal** — the
  journal, not the state file, is the source of truth.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from numbers import Integral, Real

from repro.errors import InputError, SolverError
from repro.resilience.lease import Lease, LeaseManager, default_host_id
from repro.resilience.persistence import atomic_write

__all__ = ["BackoffPolicy", "Job", "WorkQueue"]


# ----------------------------------------------------------------------
# retry / backoff
# ----------------------------------------------------------------------

#: Delay growth per failed attempt, and the largest jitter fraction
#: added on top of a delay.
_BACKOFF_FACTOR, _JITTER = 2.0, 0.5

#: Transient-OSError retries around every queue read/write (exponential
#: backoff from 50 ms), for stale-NFS-handle and EIO-class blips.
_IO_RETRIES = 3

@dataclass
class BackoffPolicy:
    """Exponential backoff with deterministic, job-seeded jitter.

    Delay before attempt ``n+1`` (after ``n`` failed attempts) is
    ``min(max_delay, base * 2**(n-1)) * (1 + 0.5 * u)`` where
    ``u`` in [0, 1) is a pure function of (job id, attempt) — never of
    process or host state — so the same campaign replays with the same
    requeue times on any host, retry schedules computed independently
    by several hosts for one job agree exactly, and concurrent failures
    of *different* jobs never thundering-herd the same instant.
    """

    max_attempts: int = 3
    base: float = 0.5
    max_delay: float = 30.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise InputError("max_attempts must be >= 1")
        if self.base < 0.0 or self.max_delay < 0.0:
            raise InputError("backoff delays must be >= 0")

    @staticmethod
    def jitter_u(job_id: str, attempt: int) -> float:
        """The jitter fraction in [0, 1): sha256(job:attempt), no
        process-global or host-local state anywhere in the seed."""
        h = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
        return int.from_bytes(h[:8], "big") / 2.0 ** 64

    def delay(self, job_id: str, attempt: int) -> float:
        """Requeue delay after ``attempt`` (1-based) failed attempts."""
        if attempt < 1:
            return 0.0
        raw = min(self.max_delay,
                  self.base * _BACKOFF_FACTOR ** (attempt - 1))
        return raw * (1.0 + _JITTER * self.jitter_u(job_id, attempt))


# ----------------------------------------------------------------------
# job spec
# ----------------------------------------------------------------------

@dataclass
class Job:
    """Immutable description of one unit of work.

    ``kind`` names a registered executor in
    :data:`repro.resilience.farm.JOB_KINDS`; ``payload`` is its
    JSON-able argument.  The three budget fields become the per-job
    :class:`~repro.resilience.isolation.IsolationPolicy` the farm
    sandboxes the job under (None = farm default).
    """

    id: str
    kind: str
    payload: dict = field(default_factory=dict)
    priority: int = 0
    max_attempts: int | None = None
    deadline: float | None = None
    memory_mb: float | None = None
    stall_timeout: float | None = None

    def __post_init__(self):
        check_job_id(self.id)
        n = self.max_attempts
        if n is not None and (isinstance(n, bool)
                              or not isinstance(n, Integral) or n < 1):
            raise InputError(f"job {self.id!r}: max_attempts must be an "
                             f"integer >= 1, got {n!r}")
        for name in ("deadline", "memory_mb", "stall_timeout"):
            v = getattr(self, name)
            if v is not None and (isinstance(v, bool)
                                  or not isinstance(v, Real)
                                  or not (math.isfinite(v) and v > 0)):
                raise InputError(f"job {self.id!r}: {name} must be a "
                                 f"finite number > 0, got {v!r}")

    def to_dict(self) -> dict:
        return {"id": self.id, "kind": self.kind,
                "payload": dict(self.payload),
                "priority": int(self.priority),
                "max_attempts": self.max_attempts,
                "deadline": self.deadline, "memory_mb": self.memory_mb,
                "stall_timeout": self.stall_timeout}

    @classmethod
    def from_dict(cls, d: dict) -> "Job":
        return cls(id=d["id"], kind=d["kind"],
                   payload=dict(d.get("payload") or {}),
                   priority=int(d.get("priority", 0)),
                   max_attempts=d.get("max_attempts"),
                   deadline=d.get("deadline"),
                   memory_mb=d.get("memory_mb"),
                   stall_timeout=d.get("stall_timeout"))


def check_job_id(job_id) -> str:
    """``job_id`` when it is a clean filename fragment, else InputError
    — checked before any path is built from it."""
    if (not isinstance(job_id, str) or not job_id or "/" in job_id
            or job_id != job_id.strip() or job_id.startswith(".")):
        raise InputError(f"invalid job id {job_id!r} (must be a clean "
                         f"filename fragment)")
    return job_id


#: terminal statuses — a campaign is over when every job reaches one
TERMINAL = frozenset(("done", "dead", "cancelled"))

#: the cancel-request flag in a job's workdir (see :meth:`WorkQueue.cancel`)
CANCEL_FLAG = "cancel.json"


def _safe_host(host: str) -> str:
    """Host id as a journal-filename fragment (no separators)."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", host) or "host"


# ----------------------------------------------------------------------
# the queue
# ----------------------------------------------------------------------

class WorkQueue:
    """Shared, durable job queue rooted at ``dir``.

    Every process (enqueuer, farm supervisors, a reaper) — on this host
    or any other host mounting the directory — opens its own
    ``WorkQueue``; there is no in-memory authority to lose.

    Parameters beyond PR 6:

    host_id:
        This process's clock/journal domain (default: hostname; the
        ``serve --host-id`` flag overrides).
    max_skew:
        Cross-host lease slack [s] (see
        :class:`~repro.resilience.lease.LeaseManager`).
    clock:
        Injectable wall clock (skew tests / chaos).

    Every read and write retries transient OSErrors
    (:data:`_IO_RETRIES` times).
    """

    def __init__(self, dir, *, lease_ttl: float = 15.0,
                 backoff: BackoffPolicy | None = None,
                 host_id: str | None = None,
                 max_skew: float = 2.0, clock=None):
        self.dir = os.fspath(dir)
        self.backoff = backoff or BackoffPolicy()
        self.host_id = host_id or default_host_id()
        self.clock = clock or time.time
        self.jobs_dir = os.path.join(self.dir, "jobs")
        self.state_dir = os.path.join(self.dir, "state")
        self.results_dir = os.path.join(self.dir, "results")
        self.dead_dir = os.path.join(self.dir, "dead")
        self.work_dir = os.path.join(self.dir, "work")
        self.quarantine_dir = os.path.join(self.dir, "quarantine")
        for d in (self.jobs_dir, self.state_dir, self.results_dir,
                  self.dead_dir, self.work_dir, self.quarantine_dir):
            os.makedirs(d, exist_ok=True)
        self.leases = LeaseManager(os.path.join(self.dir, "leases"),
                                   ttl=lease_ttl, host_id=self.host_id,
                                   max_skew=max_skew, clock=self.clock)
        self.journal_path = os.path.join(
            self.dir, f"journal-{_safe_host(self.host_id)}.jsonl")

    # -- retried, atomic JSON plumbing ---------------------------------

    def _with_retries(self, op, what: str):
        """Run a filesystem operation, retrying transient OSErrors with
        exponential backoff (stale NFS handles heal on reopen)."""
        delay = 0.05
        for attempt in range(_IO_RETRIES + 1):
            try:
                return op()
            except OSError:
                if attempt >= _IO_RETRIES:
                    raise
                time.sleep(delay)
                delay *= 2.0

    def _write_json(self, path: str, obj: dict) -> None:
        text = json.dumps(obj, indent=1, default=str)
        self._with_retries(lambda: atomic_write(path, text, fsync=True),
                           f"write {path}")

    def _read_json_checked(self, path: str) -> tuple[dict | None, bool]:
        """``(payload, torn)``: torn means the file exists but does not
        parse — corruption, not absence."""
        def op():
            try:
                with open(path) as f:
                    raw = f.read()
            except FileNotFoundError:
                return None, False
            try:
                return json.loads(raw), False
            except ValueError:
                return None, True

        try:
            return self._with_retries(op, f"read {path}")
        except OSError:
            return None, False

    def _read_json(self, path: str) -> dict | None:
        return self._read_json_checked(path)[0]

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a torn/corrupt record aside instead of crashing on (or
        worse, trusting) it; the original name and a timestamp survive
        in the quarantine filename."""
        dest = os.path.join(
            self.quarantine_dir,
            f"{os.path.basename(path)}.{int(self.clock() * 1e3)}"
            f".{os.getpid()}")
        try:
            os.replace(path, dest)
        except OSError:
            return
        self.journal("quarantine", path=os.path.basename(path),
                     reason=reason)

    # -- journal: one append-only file per host, merged on read --------

    def journal(self, event: str, **fields) -> None:
        """Append one fsync'd line to this host's campaign journal.

        O_APPEND writes of one line are atomic on a local filesystem;
        cross-host atomicity is not needed because every host appends
        only to its own ``journal-<host>.jsonl``.
        """
        rec = {"t": self.clock(), "host": self.host_id, "event": event}
        rec.update(fields)
        line = json.dumps(rec, default=str) + "\n"

        def op():
            fd = os.open(self.journal_path,
                         os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
            try:
                os.write(fd, line.encode())
                os.fsync(fd)
            finally:
                os.close(fd)

        self._with_retries(op, "journal append")

    def _journal_files(self) -> list[str]:
        """Every host's ``journal-<host>.jsonl``, sorted by name."""
        try:
            names = os.listdir(self.dir)
        except OSError:
            return []
        return sorted(n for n in names
                      if n.startswith("journal-") and n.endswith(".jsonl"))

    def read_journal(self) -> list[dict]:
        """Every journal record from every host, oldest first (torn
        tails skipped).

        With a single writing host, file order is authoritative; with
        several hosts the streams are merged by timestamp (stable, so
        each host's internal order is preserved — cross-host order is
        only as good as the clocks, which ledger folding never relies
        on).
        """
        out: list[dict] = []
        hosts = set()
        for name in self._journal_files():
            try:
                with open(os.path.join(self.dir, name)) as f:
                    for line in f:
                        try:
                            rec = json.loads(line)
                        except ValueError:
                            continue   # torn tail from a crash mid-append
                        if not isinstance(rec, dict):
                            continue   # a journal line is always a record
                        hosts.add(rec.get("host"))
                        out.append(rec)
            except OSError:
                continue
        if len(hosts) > 1:
            out.sort(key=lambda r: float(r.get("t", 0.0)))
        return out

    # -- enqueue --------------------------------------------------------

    def enqueue(self, job: Job) -> bool:
        """Add ``job``; idempotent (an existing id keeps its state and
        returns False — re-running a campaign never resets progress)."""
        spec_path = os.path.join(self.jobs_dir, f"{job.id}.json")
        if os.path.exists(spec_path):
            return False
        self._write_json(spec_path, job.to_dict())
        self._write_json(self._state_path(job.id),
                         {"id": job.id, "status": "pending",
                          "attempts": 0, "not_before": 0.0,
                          "owner": None, "last_error": None})
        self.journal("enqueue", job=job.id, kind=job.kind,
                     priority=job.priority)
        return True

    # -- introspection --------------------------------------------------

    def _state_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, f"{job_id}.json")

    def job(self, job_id: str) -> Job:
        spec = self._read_json(os.path.join(self.jobs_dir,
                                            f"{job_id}.json"))
        if spec is None:
            raise SolverError(f"work queue: unknown job {job_id!r}")
        return Job.from_dict(spec)

    def _state_from_journal(self, job_id: str) -> dict | None:
        """Rebuild a job's state record by replaying its journal
        transitions — the recovery path for a torn state file.  Returns
        None when the journal has never heard of the job."""
        st = None
        for rec in self.read_journal():
            if rec.get("job") != job_id:
                continue
            ev = rec.get("event")
            if ev == "enqueue":
                st = {"id": job_id, "status": "pending", "attempts": 0,
                      "not_before": 0.0, "owner": None,
                      "last_error": None}
            elif st is None:
                continue
            elif ev == "claim":
                st.update(status="running", owner=rec.get("worker"),
                          attempts=int(rec.get("attempt")
                                       or st["attempts"] + 1))
            elif ev == "complete":
                st.update(status="done", owner=None)
            elif ev == "requeue":
                st.update(status="pending", owner=None, not_before=0.0,
                          last_error=rec.get("error"))
            elif ev in ("reclaim", "retry-dead-letter"):
                st.update(status="pending", owner=None, not_before=0.0)
                if ev == "retry-dead-letter":
                    st["attempts"] = 0
            elif ev == "preempt":
                st.update(status="pending", owner=None,
                          attempts=max(0, st["attempts"] - 1),
                          not_before=0.0)
            elif ev == "dead-letter":
                st.update(status="dead", owner=None,
                          last_error=rec.get("error"))
            elif ev == "cancel":
                st.update(status="cancelled", owner=None,
                          reason=rec.get("reason"))
        return st

    def state(self, job_id: str) -> dict:
        path = self._state_path(job_id)
        st, torn = self._read_json_checked(path)
        if st is not None:
            return st
        if torn:
            # corrupt record (torn NFS write, bitrot): quarantine it
            # and rebuild the truth from the journal
            self._quarantine(path, "unparseable state record")
            rebuilt = self._state_from_journal(job_id)
            if rebuilt is not None:
                self._write_json(path, rebuilt)
                self.journal("state-rebuilt", job=job_id,
                             status=rebuilt.get("status"))
                return rebuilt
        return {"id": job_id, "status": "unknown", "attempts": 0}

    def job_ids(self) -> list[str]:
        try:
            names = os.listdir(self.jobs_dir)
        except FileNotFoundError:
            return []
        return sorted(n[:-len(".json")] for n in names
                      if n.endswith(".json"))

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for job_id in self.job_ids():
            status = self.state(job_id).get("status", "unknown")
            out[status] = out.get(status, 0) + 1
        return out

    def all_terminal(self) -> bool:
        return all(self.state(j).get("status") in TERMINAL
                   for j in self.job_ids())

    def result(self, job_id: str) -> dict | None:
        return self._read_json(os.path.join(self.results_dir,
                                            f"{job_id}.json"))

    def dead_letter(self, job_id: str) -> dict | None:
        return self._read_json(os.path.join(self.dead_dir,
                                            f"{job_id}.json"))

    def dead_letter_history(self, job_id: str) -> list[dict]:
        """Dead-letter records preserved from *prior* attempt budgets
        (``retry_dead_letters`` moves the active record here)."""
        payload = self._read_json(os.path.join(
            self.dead_dir, f"{job_id}-history.json"))
        return list(payload.get("records") or []) if payload else []

    def job_workdir(self, job_id: str) -> str:
        d = os.path.join(self.work_dir, job_id)
        os.makedirs(d, exist_ok=True)
        return d

    # -- claim ----------------------------------------------------------

    def ready(self, now: float | None = None) -> list[str]:
        """Pending, unleased, past-backoff job ids in (priority, id)
        order."""
        if now is None:
            now = self.clock()
        out = []
        for job_id in self.job_ids():
            st = self.state(job_id)
            if st.get("status") != "pending":
                continue
            if float(st.get("not_before") or 0.0) > now:
                continue
            if self.leases.holder(job_id) is not None:
                continue
            out.append(job_id)
        out.sort(key=lambda j: (self.job(j).priority, j))
        return out

    def claim(self, owner: str, now: float | None = None
              ) -> tuple[Job, Lease] | None:
        """Claim the first ready job for ``owner``; None when nothing is
        claimable right now.  Losing every race returns None too — the
        caller just polls again."""
        for job_id in self.ready(now):
            lease = self.leases.acquire(job_id, owner)
            if lease is None:
                continue
            st = self.state(job_id)
            if st.get("status") != "pending":
                # finished by another claimant since ready() listed it
                self.leases.release(lease)
                continue
            job = self.job(job_id)
            limit = (self.backoff.max_attempts if job.max_attempts is
                     None else int(job.max_attempts))
            if not self.leases.verify(lease):
                # reaped while this claim stalled: a successor may have
                # run the job since, so the state read above is stale
                self.journal("fenced", job=job_id, worker=owner,
                             action="claim")
                continue
            if int(st.get("attempts", 0)) >= limit:
                # poison job: every past attempt took its supervisor
                # down (reclaims charge the attempt but never reach
                # fail()), so it must dead-letter here or loop forever
                self._write_json(
                    os.path.join(self.dead_dir, f"{job_id}.json"),
                    {"id": job_id, "attempts": st["attempts"],
                     "worker": owner, "report": None, "t": self.clock(),
                     "error": (st.get("last_error")
                               or "attempt budget exhausted: every "
                                  "attempt lost its supervisor (lease "
                                  "reclaimed, no failure recorded)")})
                st.update(status="dead", owner=None)
                self._write_json(self._state_path(job_id), st)
                self.journal("dead-letter", job=job_id, worker=owner,
                             attempts=st["attempts"],
                             error="attempt budget exhausted on claim")
                self.leases.release(lease)
                continue
            st.update(status="running", owner=owner,
                      attempts=int(st.get("attempts", 0)) + 1)
            self._write_json(self._state_path(job_id), st)
            self.journal("claim", job=job_id, worker=owner,
                         attempt=st["attempts"])
            return job, lease
        return None

    def cancel(self, job_id: str, reason: str) -> bool:
        """Make a pending job ``cancelled``, a terminal nothing claims.

        The lease is taken first, as a claim takes it, so a cancel and a
        claim of one job are ordered by one ``O_EXCL`` create.  Returns
        False when the job is leased or not pending: a running attempt
        acknowledges the job's :data:`CANCEL_FLAG` instead.
        """
        lease = self.leases.acquire(job_id, f"{self.host_id}:cancel")
        if lease is None:
            return False
        try:
            st = self.state(job_id)
            if st.get("status") != "pending" \
                    or not self.leases.verify(lease):
                return False
            st.update(status="cancelled", owner=None, reason=reason)
            self._write_json(self._state_path(job_id), st)
            self.journal("cancel", job=job_id, reason=reason)
            return True
        finally:
            self.leases.release(lease)

    # -- completion / failure / preemption ------------------------------

    def complete(self, job: Job, lease: Lease, result: dict | None
                 ) -> bool:
        """Commit a result.  Returns False (and journals ``fenced``)
        when the lease was lost — the successor owns the job now and
        this result is discarded.

        The token is checked **twice**: before staging the result and
        again before publishing it, so a holder that is reaped while
        writing (a partitioned supervisor healing mid-commit) is caught in
        the narrowest possible window.  The residual race — reaped
        between the second check and the rename — is bounded by one
        write and is exactly what the journal's exactly-once audit
        (:func:`repro.resilience.farm.audit_exactly_once`) detects.
        """
        if not self.leases.verify(lease):
            self.journal("fenced", job=job.id, worker=lease.owner,
                         action="complete")
            return False
        path = os.path.join(self.results_dir, f"{job.id}.json")
        tmp = os.path.join(self.results_dir,
                           f".tmp-{os.getpid()}-{job.id}.json")

        def stage():
            with open(tmp, "w") as f:
                json.dump({"id": job.id, "result": result,
                           "worker": lease.owner, "host": lease.host,
                           "token": lease.token, "t": self.clock()},
                          f, indent=1, default=str)
                f.flush()
                os.fsync(f.fileno())

        self._with_retries(stage, f"stage result {job.id}")
        if not self.leases.verify(lease):
            try:
                os.remove(tmp)
            except OSError:
                pass
            self.journal("fenced", job=job.id, worker=lease.owner,
                         action="complete")
            return False
        self._with_retries(lambda: os.replace(tmp, path),
                           f"publish result {job.id}")
        st = self.state(job.id)
        st.update(status="done", owner=None)
        self._write_json(self._state_path(job.id), st)
        self.journal("complete", job=job.id, worker=lease.owner,
                     attempt=st.get("attempts"))
        self.leases.release(lease)
        return True

    def fail(self, job: Job, lease: Lease, error: str, *,
             report: dict | None = None) -> str:
        """Record a failed attempt: requeue with backoff, or dead-letter
        once attempts are exhausted.  Returns the resulting status."""
        if not self.leases.verify(lease):
            self.journal("fenced", job=job.id, worker=lease.owner,
                         action="fail")
            return self.state(job.id).get("status", "unknown")
        st = self.state(job.id)
        attempts = int(st.get("attempts", 0))
        limit = (self.backoff.max_attempts if job.max_attempts is None
                 else int(job.max_attempts))
        if attempts >= limit:
            self._write_json(os.path.join(self.dead_dir,
                                          f"{job.id}.json"),
                             {"id": job.id, "error": error,
                              "attempts": attempts,
                              "worker": lease.owner,
                              "report": report, "t": self.clock()})
            st.update(status="dead", owner=None, last_error=error)
            self._write_json(self._state_path(job.id), st)
            self.journal("dead-letter", job=job.id, worker=lease.owner,
                         attempts=attempts, error=error)
            status = "dead"
        else:
            delay = self.backoff.delay(job.id, attempts)
            st.update(status="pending", owner=None, last_error=error,
                      not_before=self.clock() + delay)
            self._write_json(self._state_path(job.id), st)
            self.journal("requeue", job=job.id, worker=lease.owner,
                         attempt=attempts, backoff=round(delay, 3),
                         error=error)
            status = "pending"
        self.leases.release(lease)
        return status

    def preempt(self, job: Job, lease: Lease) -> None:
        """Return a job to the pool without charging an attempt (the
        graceful-drain path: the supervisor stopped the sandbox, whose
        durable snapshots survive, and is exiting).
        Fenced like complete/fail — a preempt racing a reclaim must not
        clobber the successor's running state."""
        if not self.leases.verify(lease):
            self.journal("fenced", job=job.id, worker=lease.owner,
                         action="preempt")
            return
        st = self.state(job.id)
        st.update(status="pending", owner=None,
                  attempts=max(0, int(st.get("attempts", 1)) - 1),
                  not_before=0.0)
        self._write_json(self._state_path(job.id), st)
        self.journal("preempt", job=job.id, worker=lease.owner)
        self.leases.release(lease)

    # -- lease expiry ----------------------------------------------------

    def reclaim_expired(self, now: float | None = None) -> list[str]:
        """Reap expired leases and return their jobs to the pending
        pool (attempt already charged at claim).  The dead holder's
        durable snapshots remain under ``work/<id>/ckpt``, so the next
        attempt resumes the march instead of restarting it."""
        freed = self.leases.reap(now)
        for job_id in freed:
            st = self.state(job_id)
            if st.get("status") != "running":
                continue   # completed/failed just before expiry
            owner = st.get("owner")
            st.update(status="pending", owner=None, not_before=0.0)
            self._write_json(self._state_path(job_id), st)
            self.journal("reclaim", job=job_id, worker=owner)
        return freed

    # -- dead-letter requeue --------------------------------------------

    def retry_dead_letters(self, job_ids=None) -> list[str]:
        """Requeue dead-lettered jobs with a fresh attempt budget
        (``campaign --retry-dead-letters``).

        The exhausted dead-letter record — error, attempts, the
        attached FailureReport — is *preserved* by appending it to
        ``dead/<id>-history.json`` before the job returns to pending
        with ``attempts=0``.  Returns the requeued job ids.
        """
        requeued: list[str] = []
        for job_id in (self.job_ids() if job_ids is None
                       else list(job_ids)):
            st = self.state(job_id)
            if st.get("status") != "dead":
                continue
            rec = self.dead_letter(job_id)
            hist_path = os.path.join(self.dead_dir,
                                     f"{job_id}-history.json")
            if rec is not None:
                hist = self._read_json(hist_path) or {"id": job_id,
                                                      "records": []}
                hist["records"].append(rec)
                self._write_json(hist_path, hist)
                try:
                    os.remove(os.path.join(self.dead_dir,
                                           f"{job_id}.json"))
                except OSError:
                    pass
            # a fresh budget is a fresh life: a cancel flag the dead
            # one never acknowledged must not cancel the retry
            try:
                os.remove(os.path.join(self.work_dir, job_id, CANCEL_FLAG))
            except OSError:
                pass
            st.update(status="pending", owner=None, attempts=0,
                      not_before=0.0)
            self._write_json(self._state_path(job_id), st)
            self.journal("retry-dead-letter", job=job_id,
                         prior_attempts=rec.get("attempts")
                         if rec else None)
            requeued.append(job_id)
        return requeued
