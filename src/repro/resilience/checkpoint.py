"""Solver state checkpoints for rollback-and-retry marching.

A checkpoint is a deep copy of everything a marching solver needs to
resume from a known-good step: the conserved field, clocks/counters and
any warm-start caches.  Solvers advertise what to save via
``get_state()`` / ``set_state()``, the same protocol durable
persistence requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Checkpoint"]


def _copy_value(v):
    """Recursive copy: ndarrays nested inside dicts/lists (warm-start
    caches, ``residual_history`` entries) must not stay aliased to live
    solver state, or a later step silently mutates the "restored" data."""
    if isinstance(v, np.ndarray):
        return v.copy()
    if isinstance(v, dict):
        return {k: _copy_value(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_copy_value(x) for x in v]
    if isinstance(v, tuple):
        return tuple(_copy_value(x) for x in v)
    return v


@dataclass
class Checkpoint:
    """One restorable snapshot of a marching solver."""

    step: int
    payload: dict

    @classmethod
    def capture(cls, solver) -> "Checkpoint":
        """Deep-copy the solver's marching state."""
        # re-copy defensively: a get_state() that hands back a live
        # container (warm-start cache dict, history list) would
        # otherwise alias the checkpoint to the marching state
        payload = {k: _copy_value(v) for k, v in solver.get_state().items()}
        return cls(step=int(getattr(solver, "steps", 0) or 0),
                   payload=payload)

    def restore(self, solver) -> None:
        """Restore the solver to this snapshot (copies again, so the
        checkpoint stays valid for further rollbacks)."""
        solver.set_state({k: _copy_value(v) for k, v in self.payload.items()})
