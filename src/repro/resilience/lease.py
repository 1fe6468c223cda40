"""Lease-based job ownership, heartbeat-age liveness and host clocks.

A distributed farm needs one answer to one question: *who owns this
job, and are they still alive?*  This module gives both halves a single
implementation — and, since PR 7, an answer that stays correct when the
claimants live on **different machines with different clocks**:

* :class:`LeaseManager` — filesystem leases.  A farm supervisor claims
  a job by exclusively creating ``lease-<job>.json`` (``O_CREAT |
  O_EXCL`` — the kernel arbitrates, so exactly one claimant wins no
  matter how many race), embeds a random fencing ``token``, its
  ``host`` identity and a monotonic heartbeat ``epoch``, and renews by
  atomically rewriting the file with the epoch incremented.  A holder
  that dies simply stops renewing; any process may then
  :meth:`~LeaseManager.reap` the expired lease and the job returns to
  the pending pool.  The token fences late writers: a holder that lost
  its lease (reaped while stalled or partitioned) discovers the token
  mismatch before committing a result and abandons it instead of
  double-completing.

* **Clock-skew-tolerant expiry.**  Same-host leases age on the shared
  wall clock as before.  A *cross-host* lease is never aged by
  comparing the holder's wall timestamps to the observer's clock
  (raw mtime comparison double-frees jobs the moment two hosts
  disagree by more than a ttl): instead the observer watches the
  lease's ``(token, epoch)`` pair and ages *changes* on its **own
  monotonic clock** — exactly the convention the
  :class:`~repro.resilience.isolation.Heartbeat` channel uses.  A
  cross-host lease expires only after it has been *observed unchanged*
  for ``ttl + max_skew`` seconds; a freshly started reaper therefore
  waits out one full observation window before touching anything,
  which is the safe direction to fail.

Every clock consumer here takes an injectable ``clock`` (default
``time.time``).  Skew between hosts is injected per farm through
:attr:`~repro.resilience.farm.FarmPolicy.clock_offset`, as the
distributed chaos harness and ``serve --clock-offset`` do, without
touching the system clock.
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import time
from dataclasses import dataclass

from repro.errors import InputError
from repro.resilience.persistence import atomic_write

__all__ = ["Lease", "LeaseManager", "default_host_id"]


# ----------------------------------------------------------------------
# host identity
# ----------------------------------------------------------------------

def default_host_id() -> str:
    """This machine's identity in the queue directory (hostname).

    Every process on one machine shares it, so their wall clocks are
    mutually comparable; ``serve --host-id`` overrides it when two
    logical "hosts" share a box (tests, containers).
    """
    return socket.gethostname() or "localhost"


# ----------------------------------------------------------------------
# filesystem leases
# ----------------------------------------------------------------------

@dataclass
class Lease:
    """One granted job lease.

    ``token`` is the fencing credential: every mutation the holder
    commits is validated against the token on disk, so a holder whose
    lease was reaped (and possibly re-granted) cannot clobber the new
    owner's work.  ``host`` names the clock domain the ``renewed``
    timestamp belongs to; ``epoch`` increments on every renewal and is
    what cross-host observers age instead of the timestamp.
    """

    job_id: str
    owner: str
    token: str
    ttl: float
    renewed: float   # holder's wall clock at the last renewal
    host: str = ""
    epoch: int = 0

    def to_payload(self) -> dict:
        return {"job_id": self.job_id, "owner": self.owner,
                "token": self.token, "ttl": self.ttl,
                "renewed": self.renewed, "host": self.host,
                "epoch": self.epoch}


class LeaseManager:
    """Grant, renew, verify and reap filesystem leases in one directory.

    Parameters
    ----------
    dir:
        The lease directory (inside the shared queue directory).
    ttl:
        Renewal deadline [s].  Holders renew every ttl/3.
    host_id:
        This process's clock domain (default: hostname).  Leases whose
        ``host`` matches are aged on the wall clock; everything else is
        aged by observed ``(token, epoch)`` change on this process's
        monotonic clock.
    max_skew:
        Cross-host slack [s]: a foreign lease must sit unchanged for
        ``ttl + max_skew`` before it is declared expired.  Generous
        values only delay reclaim; small values never cause premature
        reaping (expiry is observation-based), they just leave less
        margin for slow NFS propagation of renew writes.
    clock:
        Wall clock callable (injectable for skew tests; defaults to
        ``time.time``).
    """

    def __init__(self, dir, *, ttl: float = 15.0,
                 host_id: str | None = None, max_skew: float = 2.0,
                 clock=None):
        if ttl <= 0.0:
            raise InputError("lease ttl must be positive")
        if max_skew < 0.0:
            raise InputError("max_skew must be >= 0")
        self.dir = os.fspath(dir)
        self.ttl = float(ttl)
        self.host_id = host_id or default_host_id()
        self.max_skew = float(max_skew)
        self.clock = clock or time.time
        #: job_id -> ((token, epoch), first-observed monotonic time):
        #: the cross-host expiry state.  Per-process, never persisted —
        #: a fresh reaper simply starts its observation window anew.
        self._observed: dict[str, tuple[tuple, float]] = {}
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, job_id: str) -> str:
        return os.path.join(self.dir, f"lease-{job_id}.json")

    def _read(self, job_id: str) -> dict | None:
        try:
            with open(self._path(job_id)) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    # -- grant / renew / release ---------------------------------------

    def acquire(self, job_id: str, owner: str) -> Lease | None:
        """Exclusively claim ``job_id``; None when someone else holds it.

        The ``O_CREAT | O_EXCL`` create is the arbitration point: of N
        racing claimants exactly one syscall succeeds.
        """
        lease = Lease(job_id=job_id, owner=owner,
                      token=secrets.token_hex(8), ttl=self.ttl,
                      renewed=self.clock(), host=self.host_id, epoch=0)
        try:
            fd = os.open(self._path(job_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(lease.to_payload(), f)
        except OSError:
            return None
        return lease

    def renew(self, lease: Lease) -> bool:
        """Push the expiry forward (epoch +1); False when the lease was
        lost (reaped, re-granted, or the file vanished) — the holder
        must then abandon the job."""
        held = self._read(lease.job_id)
        if held is None or held.get("token") != lease.token:
            return False
        lease.renewed = self.clock()
        lease.epoch += 1
        try:
            atomic_write(self._path(lease.job_id),
                         json.dumps(lease.to_payload()))
        except OSError:
            return False
        return True

    def verify(self, lease: Lease) -> bool:
        """Does the on-disk lease still carry the holder's token?"""
        held = self._read(lease.job_id)
        return held is not None and held.get("token") == lease.token

    def release(self, lease: Lease) -> None:
        """Drop the lease (only when still held — never unlink a
        successor's grant)."""
        if self.verify(lease):
            try:
                os.remove(self._path(lease.job_id))
            except OSError:
                pass
            self._observed.pop(lease.job_id, None)

    # -- expiry ---------------------------------------------------------

    def holder(self, job_id: str) -> dict | None:
        """Current on-disk lease payload, if any."""
        return self._read(job_id)

    def is_expired(self, job_id: str, now: float | None = None) -> bool:
        """Has this lease's holder gone silent past its deadline?

        Same-host leases (holder's ``host`` equals ours, so one wall
        clock covers both) age as ``now - renewed > ttl``.  Cross-host
        leases — or legacy leases without a host field — expire only
        after their ``(token, epoch)`` has been **observed unchanged**
        for ``ttl + max_skew`` on *this process's* monotonic clock:
        no cross-machine timestamp is ever compared, so a +/- 5 s (or
        +/- 5 h) wall-clock disagreement can neither reap a healthy
        holder nor immortalise a dead one.
        """
        held = self._read(job_id)
        if held is None:
            self._observed.pop(job_id, None)
            return False
        if held.get("host") == self.host_id:
            if now is None:
                now = self.clock()
            age = now - float(held.get("renewed", 0.0))
            return age > float(held.get("ttl", self.ttl))
        key = (held.get("token"), held.get("epoch"))
        mono = time.monotonic()
        seen = self._observed.get(job_id)
        if seen is None or seen[0] != key:
            self._observed[job_id] = (key, mono)
            return False
        unchanged_for = mono - seen[1]
        return unchanged_for > float(held.get("ttl", self.ttl)) \
            + self.max_skew

    def reap(self, now: float | None = None) -> list[str]:
        """Remove every expired lease; returns the freed job ids.

        Any process may reap — the farm supervisor does it each pass,
        so a SIGKILLed supervisor's jobs return to the pool within one
        ttl (plus ``max_skew`` when the dead holder lived on another
        host).
        Concurrent reapers race on the ``os.remove``; the kernel picks
        exactly one winner per lease.
        """
        freed: list[str] = []
        try:
            names = os.listdir(self.dir)
        except FileNotFoundError:
            return freed
        live = set()
        for name in names:
            if not (name.startswith("lease-") and name.endswith(".json")):
                continue
            job_id = name[len("lease-"):-len(".json")]
            live.add(job_id)
            if self.is_expired(job_id, now):
                try:
                    os.remove(os.path.join(self.dir, name))
                except OSError:
                    continue
                self._observed.pop(job_id, None)
                freed.append(job_id)
        # drop observation state for leases released elsewhere
        for job_id in list(self._observed):
            if job_id not in live:
                del self._observed[job_id]
        return freed
