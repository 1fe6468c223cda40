"""Circuit breakers for the batch front door.

One breaker *cell* guards one ``method/rung:condition-class`` combination
(e.g. the VSL rung of ``stagnation`` for ``equilibrium-air``).  The
state machine is the classical three-state breaker:

* ``closed`` — requests flow; ``trip_after`` *consecutive* failures
  trip the cell open.
* ``open`` — the rung is skipped outright (the batch engine routes
  straight to the next rung down the ladder) until ``cooldown``
  seconds have elapsed, at which point the next request becomes a
  half-open probe.
* ``half_open`` — exactly one probe is allowed through; success
  re-closes the cell, failure re-opens it (and restarts the cooldown).

Every transition is appended to a ledger with a monotone sequence
number and the request index that caused it, so a chaos campaign can
assert the exact open/close history.  The clock is injectable for
fake-clock tests.

Sequence numbers are per-board (per-process): two farm chunks both
count 0, 1, 2, ...  Each transition therefore also carries an
``origin`` (``host:pid`` of the board that wrote it) so merged ledgers
can be keyed by the globally-unique ``(cell, origin, seq)`` instead of
the colliding bare ``seq`` — see
:func:`repro.service.batch._merge_chunk_breakers`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = ["BreakerPolicy", "BreakerCell", "BreakerBoard"]

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


def _default_origin() -> str:
    """``host:pid`` identity of this board's writer process — the same
    convention as farm supervisor names."""
    from repro.resilience.lease import default_host_id
    return f"{default_host_id()}:{os.getpid()}"


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/recovery knobs shared by every cell of a board."""

    trip_after: int = 3      #: consecutive failures that trip the cell
    cooldown: float = 30.0   #: seconds open before a half-open probe

    def to_dict(self) -> dict:
        return {"trip_after": self.trip_after,
                "cooldown": self.cooldown}

    @classmethod
    def from_dict(cls, d: dict | None) -> "BreakerPolicy":
        d = d or {}
        return cls(trip_after=int(d.get("trip_after", 3)),
                   cooldown=float(d.get("cooldown", 30.0)))


class BreakerCell:
    """State machine for one method/rung/condition-class cell."""

    def __init__(self, name: str, policy: BreakerPolicy, clock,
                 ledger: list, origin: str | None = None):
        self.name = name
        self.policy = policy
        self._clock = clock
        self._ledger = ledger
        self.origin = origin or _default_origin()
        self.state = CLOSED
        self.consecutive = 0
        self.opened_at = None
        self._probing = False

    def _transition(self, to: str, *, request_index=None) -> None:
        self._ledger.append({"seq": len(self._ledger),
                             "origin": self.origin,
                             "cell": self.name, "from": self.state,
                             "to": to, "at": float(self._clock()),
                             "consecutive": self.consecutive,
                             "request_index": request_index})
        self.state = to

    def allow(self, *, request_index=None) -> bool:
        """May a request use this rung right now?  An open cell whose
        cooldown has elapsed converts the call into the half-open
        probe (and allows it)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if (self._clock() - self.opened_at
                    >= self.policy.cooldown):
                self._transition(HALF_OPEN,
                                 request_index=request_index)
                self._probing = False
            else:
                return False
        # half-open: let exactly one probe through at a time
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self, *, request_index=None) -> None:
        self.consecutive = 0
        self._probing = False
        if self.state != CLOSED:
            self._transition(CLOSED, request_index=request_index)

    def record_failure(self, *, request_index=None) -> None:
        self.consecutive += 1
        self._probing = False
        if self.state == HALF_OPEN:
            self._transition(OPEN, request_index=request_index)
            self.opened_at = float(self._clock())
        elif (self.state == CLOSED
              and self.consecutive >= self.policy.trip_after):
            self._transition(OPEN, request_index=request_index)
            self.opened_at = float(self._clock())


class BreakerBoard:
    """All breaker cells of one service instance, plus the shared
    transition ledger."""

    def __init__(self, policy: BreakerPolicy | None = None, *,
                 clock=time.monotonic, origin: str | None = None):
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self.origin = origin or _default_origin()
        self.cells: dict[str, BreakerCell] = {}
        self.transitions: list[dict] = []

    def cell(self, method: str, rung: str,
             condition_class: str) -> BreakerCell:
        name = f"{method}/{rung}:{condition_class}"
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = BreakerCell(
                name, self.policy, self._clock, self.transitions,
                self.origin)
        return cell

    def snapshot(self) -> dict:
        """Ledger-style summary for the batch ledger."""
        return {"policy": self.policy.to_dict(),
                "states": {n: c.state
                           for n, c in sorted(self.cells.items())},
                "transitions": list(self.transitions)}
