"""Shared degradation + progress protocol for the marching solvers.

:class:`QuarantineMixin` gives a solver the numerics-ladder half of the
:mod:`repro.resilience.degradation` protocol: a boolean
``quarantined_cells`` mask (shaped like the cell grid) that the solver's
reconstruction passes to
:func:`repro.numerics.muscl.muscl_interface_states` as
``first_order_mask``.  The mask is *not* part of the resilience
``get_state``/``set_state`` protocol on purpose — a rollback restores
the flow field but keeps the quarantine, which is what makes the
degraded retry different from the ones that failed.

Since the async-job subsystem (PR 10) the mixin also carries the
solvers' **progress hook**: :meth:`QuarantineMixin.progress` returns a
small JSON-able snapshot (step counter, physical time, latest residual)
that :class:`~repro.resilience.supervisor.RunSupervisor` merges into
every heartbeat it publishes, so ``python -m repro jobs status`` can
show live march progress without ever touching the child process.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuarantineMixin"]


class QuarantineMixin:
    """Numerics-ladder degradation: local first-order quarantine zone."""

    #: Boolean cell mask of the quarantine zone (None = none); masked
    #: cells reconstruct first order.
    quarantined_cells = None

    def quarantine(self, mask=None) -> int:
        """Flag cells for first-order reconstruction; ``None`` flags the
        whole domain.  Returns the number of *newly* flagged cells (0
        when the mask adds nothing — the degradation controller then
        falls through to the next rung)."""
        shape = np.asarray(self.U).shape[:-1]
        if mask is None:
            mask = np.ones(shape, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != shape:
            raise ValueError(f"quarantine mask shape {mask.shape} != "
                             f"cell shape {shape}")
        if self.quarantined_cells is None:
            self.quarantined_cells = mask.copy()
            return int(mask.sum())
        new = mask & ~self.quarantined_cells
        self.quarantined_cells = self.quarantined_cells | mask
        return int(new.sum())

    def progress(self) -> dict:
        """Live march-progress snapshot for the heartbeat channel."""
        out = {"steps": int(getattr(self, "steps", 0) or 0),
               "t": float(getattr(self, "t", 0.0) or 0.0)}
        hist = getattr(self, "residual_history", None)
        if hist is not None and len(hist):
            out["residual"] = float(hist[-1])
        return out
