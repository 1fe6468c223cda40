"""Graceful physics degradation: fall down the fidelity ladder, not over.

The paper organises computational aerothermodynamics as a fidelity ladder
— full NS → PNS → Euler+BL → VSL on the flow side, two-temperature →
finite-rate → frozen on the physics side.  Production codes exploit the
same structure at *runtime*: when high-fidelity physics goes off-manifold
in a few cells, they degrade locally and keep marching instead of
aborting the run.  This module is that rung, slotted by
:class:`~repro.resilience.supervisor.RunSupervisor` **between**
rollback-retry and abort:

* **numerics ladder** — MUSCL reconstruction drops to first order inside
  a *quarantine zone* (flagged cells plus a halo), via the solvers'
  ``quarantine`` protocol feeding
  :func:`repro.numerics.muscl.muscl_interface_states`'s
  ``first_order_mask``;
* **physics ladder** — per-cell chemistry model demotion
  (two-temperature → single-T finite-rate → frozen) via the reacting
  solver's ``degrade_physics`` protocol.

Every action lands in a :class:`DegradationLedger` (what, where, when,
why), and after :data:`PROMOTE_AFTER` consecutive clean steps the most
recent action is undone — automatic re-promotion, most-recent-first, so
a transient upset leaves no permanent fidelity loss.

Degradation state deliberately lives *outside* the solvers'
``get_state``/``set_state`` protocol: a rollback restores the flow field
but keeps the quarantine, which is the whole point of degrading before
the retry that follows.

Solver protocol (duck-typed, all optional):

* ``quarantine(mask=None) -> int`` — flag cells (boolean cell-mask, or
  ``None`` for the whole domain) for first-order reconstruction; returns
  the number of *newly* flagged cells; the current mask is readable (and
  restorable) as ``quarantined_cells``;
* ``degrade_physics(mask=None) -> str | None`` — demote the chemistry
  model one rung in the masked cells; returns the rung name demoted to,
  or ``None`` when every masked cell is already at the bottom; per-cell
  rungs are readable (and restorable) as ``chem_rung``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DegradationLedger", "DegradationController"]

#: Cells around each flagged cell included in the quarantine zone (and
#: in per-cell physics demotion).
QUARANTINE_HALO = 3
#: Consecutive clean steps before the most recent degradation is undone.
PROMOTE_AFTER = 15
#: Total demotions allowed before the cascade declares itself exhausted
#: (the supervisor then aborts with a report).
MAX_ACTIONS = 20


class DegradationLedger:
    """Ordered record of every degradation action taken during a run."""

    def __init__(self, label: str | None = None):
        self.label = label
        self.entries: list[dict] = []

    def record(self, *, action: str, ladder: str, rung, step: int,
               cells=None, n_cells: int | None = None,
               reason: str = "") -> dict:
        entry = {"action": action, "ladder": ladder, "rung": rung,
                 "step": int(step),
                 "cells": (None if cells is None
                           else [list(c) for c in cells]),
                 "n_cells": n_cells, "reason": reason}
        self.entries.append(entry)
        return entry

    def demotions(self) -> list[dict]:
        return [e for e in self.entries if e["action"] == "demote"]

    def promotions(self) -> list[dict]:
        return [e for e in self.entries if e["action"] == "promote"]

    @property
    def fully_promoted(self) -> bool:
        """True when every demotion has been undone (or none happened)."""
        return len(self.promotions()) >= len(self.demotions())

    def to_dict(self) -> dict:
        return {"label": self.label,
                "n_demotions": len(self.demotions()),
                "n_promotions": len(self.promotions()),
                "fully_promoted": self.fully_promoted,
                "entries": [dict(e) for e in self.entries]}

    def summary(self) -> str:
        head = f"DegradationLedger[{self.label or '-'}]: " \
               f"{len(self.demotions())} demotion(s), " \
               f"{len(self.promotions())} re-promotion(s)"
        lines = [head]
        for e in self.entries:
            where = (f"{e['n_cells']} cell(s)" if e["n_cells"] is not None
                     else "whole domain")
            lines.append(f"  step {e['step']:>6}: {e['action']} "
                         f"{e['ladder']}/{e['rung']} [{where}]"
                         + (f" — {e['reason']}" if e["reason"] else ""))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.summary()


def _patch_mask(shape, cells, halo: int):
    """Boolean cell mask covering ``cells`` plus an inclusive halo."""
    mask = np.zeros(shape, dtype=bool)
    for cell in cells:
        cell = tuple(int(c) for c in cell)[:len(shape)]
        if len(cell) < len(shape):
            continue
        sl = tuple(slice(max(0, c - halo), c + halo + 1) for c in cell)
        mask[sl] = True
    return mask


class DegradationController:
    """Applies and (after clean steps) reverts degradation actions.

    One controller supervises one run; its :class:`DegradationLedger` is
    the run's auditable fidelity record.  Created standalone or by a
    march's ``run(degradation=True)``.
    """

    def __init__(self, *, label: str | None = None):
        self.ledger = DegradationLedger(label)
        self.clean_steps = 0
        self._stack: list[dict] = []

    # ------------------------------------------------------------------

    @property
    def active(self) -> int:
        """Number of degradation actions currently in force."""
        return len(self._stack)

    def _cell_shape(self, solver):
        U = getattr(solver, "U", None)
        return None if U is None else np.asarray(U).shape[:-1]

    def _mask_for(self, solver, cells):
        shape = self._cell_shape(solver)
        if shape is None or not cells:
            return None          # None = whole domain
        return _patch_mask(shape, cells, QUARANTINE_HALO)

    # ------------------------------------------------------------------

    def degrade(self, solver, *, step: int, cells=(),
                reason: str = "") -> bool:
        """Apply the next rung of the cascade; True when something
        changed (the supervisor should roll back and retry), False when
        the cascade is exhausted (the supervisor should abort).

        The numerics rung (local first order) comes before the physics
        rung: it is cheaper, and reconstruction overshoots are the most
        common instability source."""
        if len(self.ledger.demotions()) >= MAX_ACTIONS:
            return False
        cells = [tuple(int(i) for i in c) for c in cells
                 if c is not None]
        mask = self._mask_for(solver, cells)
        fn = getattr(solver, "quarantine", None)
        if fn is not None:
            prev = getattr(solver, "quarantined_cells", None)
            prev = None if prev is None else prev.copy()
            n_new = int(fn(mask))
            if n_new > 0:
                self._stack.append({"ladder": "numerics", "prev": prev,
                                    "rung": "first_order"})
                self.ledger.record(
                    action="demote", ladder="numerics",
                    rung="first_order", step=step,
                    cells=cells or None,
                    n_cells=(None if mask is None else n_new),
                    reason=reason)
                self.clean_steps = 0
                return True
        fn = getattr(solver, "degrade_physics", None)
        if fn is None:
            return False
        prev = getattr(solver, "chem_rung", None)
        prev = None if prev is None else np.array(prev, copy=True)
        rung = fn(mask)
        if rung is None:
            return False
        self._stack.append({"ladder": "physics", "prev": prev,
                            "rung": rung})
        self.ledger.record(
            action="demote", ladder="physics", rung=rung, step=step,
            cells=cells or None,
            n_cells=(None if mask is None else int(mask.sum())),
            reason=reason)
        self.clean_steps = 0
        return True

    # ------------------------------------------------------------------

    def note_failure(self):
        """A step failed: restart the clean-step counter."""
        self.clean_steps = 0

    def note_clean_step(self, solver, *, step: int):
        """A step succeeded; after :data:`PROMOTE_AFTER` consecutive
        clean steps, undo the most recent degradation (LIFO)."""
        if not self._stack:
            return
        self.clean_steps += 1
        if self.clean_steps < PROMOTE_AFTER:
            return
        entry = self._stack.pop()
        if entry["ladder"] == "numerics":
            solver.quarantined_cells = entry["prev"]
        else:
            solver.chem_rung = entry["prev"]
        self.ledger.record(action="promote", ladder=entry["ladder"],
                           rung=entry["rung"], step=step,
                           reason=f"{self.clean_steps} clean steps")
        self.clean_steps = 0
