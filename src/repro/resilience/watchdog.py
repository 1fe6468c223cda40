"""Runtime conservation watchdog: per-step physics auditing.

A marching solver can go wrong long before :func:`check_state` trips —
mass leaking through a buggy boundary, species fractions drifting off the
simplex, entropy *decreasing* across a captured shock.  The
:class:`ConservationWatchdog` audits a solver after every supervised step
and records structured :class:`WatchdogEvent` s:

* **conservation budgets** — global mass / energy / per-element totals
  tracked over a sliding step window; relative drift beyond tolerance on
  a closed domain is flagged (open domains exchange mass/energy with the
  boundaries, so budget checks arm only when the solver declares
  ``closed_domain = True``),
* **species bounds** — raw mass fractions outside ``[0, 1]`` and
  ``sum(Y)`` drifting from 1,
* **entropy decrease** — the total entropy functional must not decrease
  (shocks *produce* entropy); a drop flags an unphysical update,
* **invalid-state localization** — a :class:`~repro.errors.StabilityError`
  from :func:`check_state` is converted into an event carrying the first
  offending cell, component, value and a local state-neighbourhood
  snapshot.

Events are *observations*, not errors: they are recorded and surfaced
through :class:`~repro.resilience.report.FailureReport` (and on the
solver as ``watchdog_events`` after a supervised run).

Solver hooks (all optional, duck-typed):

* ``conservation_totals() -> dict[str, float]`` — global invariants
  (``"mass"``, ``"energy"``, ``"element:N"``...),
* ``closed_domain`` (bool) — budgets only audit closed domains,
* ``total_entropy() -> float | None`` — a global entropy functional,
* ``species_mass_fractions() -> ndarray | None`` — *raw* (unclipped)
  mass fractions with the trailing species axis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import StabilityError

__all__ = ["WatchdogEvent", "ConservationWatchdog",
           "snapshot_neighborhood"]

#: Event kinds the watchdog can emit.
EVENT_KINDS = ("mass_budget", "energy_budget", "element_budget",
               "species_bounds", "species_sum", "entropy_decrease",
               "state_invalid")

#: Sliding-window length [steps] of the conservation budgets: the newest
#: totals are compared against the totals this many steps back.
WINDOW = 10
#: Steps skipped before budget and entropy auditing starts
#: (impulsive-start transients).
WARMUP = 2
#: Relative drift tolerated over the window by the mass, energy and
#: element budgets.
BUDGET_TOL = 1e-6
#: Slack outside ``[0, 1]`` tolerated for raw mass fractions.
Y_BOUND_TOL = 1e-9
#: Tolerated ``|sum(Y) - 1|`` drift.
Y_SUM_TOL = 1e-6
#: Tolerated relative decrease of the total entropy functional per step.
ENTROPY_TOL = 1e-8
#: Recording cap: past it the audit stops appending (but keeps counting
#: in ``n_suppressed``), so a persistent drift cannot grow an unbounded
#: event list.
MAX_EVENTS = 200


@dataclass
class WatchdogEvent:
    """One structured watchdog observation.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    step:
        Marching step at which the condition was observed.
    message:
        Human-readable one-liner.
    cell:
        First-offending cell index tuple, when the condition localizes.
    component:
        Offending state component name, when the condition localizes.
    value:
        Offending value (drift fraction for budgets, state value for
        localized conditions).
    data:
        Extra structured payload — window endpoints for budgets, the
        local state-neighbourhood snapshot for invalid states.
    """

    kind: str
    step: int
    message: str
    cell: tuple | None = None
    component: str | None = None
    value: float | None = None
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "step": self.step,
                "message": self.message,
                "cell": None if self.cell is None else list(self.cell),
                "component": self.component, "value": self.value,
                "data": dict(self.data)}


def snapshot_neighborhood(U, cell, halo: int = 1) -> dict:
    """Local state patch around ``cell`` (inclusive ``halo`` in every
    grid direction), JSON-able, for post-mortem triage."""
    U = np.asarray(U)
    cell = tuple(int(c) for c in cell)
    grid_idx = cell[:-1] if len(cell) == U.ndim else cell
    sl = tuple(slice(max(0, c - halo), c + halo + 1) for c in grid_idx)
    return {"cell": list(cell),
            "origin": [int(s.start) for s in sl],
            "patch": np.asarray(U[sl], dtype=float).tolist()}


class ConservationWatchdog:
    """Per-step runtime auditor feeding :class:`WatchdogEvent` s.

    Use standalone (``wd.audit(solver)`` after each step) or arm it
    through any solver's ``run(watchdog=True)``: the
    :class:`~repro.resilience.supervisor.RunSupervisor` then audits
    automatically and surfaces the events on the solver and in any
    :class:`FailureReport`.
    """

    def __init__(self, *, label: str | None = None):
        self.label = label
        self.events: list[WatchdogEvent] = []
        self.n_suppressed = 0
        self._totals = deque(maxlen=WINDOW + 1)
        self._entropy_prev: tuple[int, float] | None = None

    # ------------------------------------------------------------------

    def reset(self):
        """Clear recorded events and the sliding budget window."""
        self.events.clear()
        self.n_suppressed = 0
        self._totals.clear()
        self._entropy_prev = None
        return self

    def events_as_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    # ------------------------------------------------------------------

    def _emit(self, event: WatchdogEvent) -> WatchdogEvent:
        if len(self.events) < MAX_EVENTS:
            self.events.append(event)
        else:
            self.n_suppressed += 1
        return event

    # -- budget audits --------------------------------------------------

    @staticmethod
    def _budget_kind(name: str) -> str | None:
        if name in ("mass", "energy"):
            return f"{name}_budget"
        if name.startswith("element:"):
            return "element_budget"
        return None                          # unknown totals: not audited

    def _audit_budgets(self, solver, step: int, out: list):
        totals_fn = getattr(solver, "conservation_totals", None)
        if totals_fn is None or not getattr(solver, "closed_domain",
                                            False):
            return
        totals = {k: float(v) for k, v in totals_fn().items()}
        self._totals.append((step, totals))
        if step < WARMUP or len(self._totals) < 2:
            return
        old_step, old = self._totals[0]
        for name, new_val in totals.items():
            kind = self._budget_kind(name)
            if kind is None or name not in old:
                continue
            ref = max(abs(old[name]), 1e-300)
            drift = abs(new_val - old[name]) / ref
            if drift > BUDGET_TOL:
                out.append(self._emit(WatchdogEvent(
                    kind=kind, step=step, value=drift,
                    component=name,
                    message=(f"{name} drifted {drift:.3e} (rel) over "
                             f"steps {old_step}..{step} "
                             f"({old[name]:.9e} -> {new_val:.9e})"),
                    data={"window": [old_step, step],
                          "old": old[name], "new": new_val})))

    # -- species audits -------------------------------------------------

    def _audit_species(self, solver, step: int, out: list):
        y_fn = getattr(solver, "species_mass_fractions", None)
        if y_fn is None:
            return
        y = y_fn()
        if y is None:
            return
        y = np.asarray(y)
        names = getattr(getattr(solver, "db", None), "names", None)
        bad = (y < -Y_BOUND_TOL) | (y > 1.0 + Y_BOUND_TOL)
        if np.any(bad):
            first = tuple(int(i) for i in np.argwhere(bad)[0])
            s = first[-1]
            name = (names[s] if names is not None and s < len(names)
                    else str(s))
            out.append(self._emit(WatchdogEvent(
                kind="species_bounds", step=step, cell=first[:-1],
                component=f"species[{name}]", value=float(y[first]),
                message=(f"mass fraction Y[{name}] = {float(y[first]):.6g}"
                         f" outside [0, 1] at cell {first[:-1]} "
                         f"({int(bad.sum())} offending entr"
                         f"{'y' if bad.sum() == 1 else 'ies'})"))))
        ysum = np.sum(y, axis=-1)
        off = np.abs(ysum - 1.0) > Y_SUM_TOL
        if np.any(off):
            first = tuple(int(i) for i in np.argwhere(off)[0])
            out.append(self._emit(WatchdogEvent(
                kind="species_sum", step=step, cell=first,
                component="sum(Y)", value=float(ysum[first]),
                message=(f"sum(Y) = {float(ysum[first]):.9f} at cell "
                         f"{first} ({int(off.sum())} cell(s) beyond "
                         f"{Y_SUM_TOL:g})"))))

    # -- entropy audit --------------------------------------------------

    def _audit_entropy(self, solver, step: int, out: list):
        s_fn = getattr(solver, "total_entropy", None)
        if s_fn is None:
            return
        s_now = s_fn()
        if s_now is None:
            return
        s_now = float(s_now)
        prev = self._entropy_prev
        self._entropy_prev = (step, s_now)
        if prev is None or step <= WARMUP:
            return
        prev_step, s_prev = prev
        drop = (s_prev - s_now) / max(abs(s_prev), 1e-300)
        if drop > ENTROPY_TOL:
            out.append(self._emit(WatchdogEvent(
                kind="entropy_decrease", step=step,
                component="total_entropy", value=drop,
                message=(f"total entropy decreased {drop:.3e} (rel) "
                         f"over steps {prev_step}..{step} — shocks "
                         f"must produce entropy"),
                data={"old": s_prev, "new": s_now})))

    # ------------------------------------------------------------------

    def audit(self, solver) -> list[WatchdogEvent]:
        """Run every applicable audit; returns the events of this step."""
        step = int(getattr(solver, "steps", 0) or 0)
        out: list[WatchdogEvent] = []
        self._audit_budgets(solver, step, out)
        self._audit_species(solver, step, out)
        self._audit_entropy(solver, step, out)
        return out

    def record_error(self, err: StabilityError,
                     solver=None) -> WatchdogEvent:
        """Convert a (localized) :class:`StabilityError` into a
        ``state_invalid`` event, with a local state-neighbourhood
        snapshot when the error names a cell."""
        data = {}
        cell = getattr(err, "cell", None)
        U = getattr(solver, "U", None)
        if cell is not None and U is not None:
            try:
                data["snapshot"] = snapshot_neighborhood(U, cell)
            except (IndexError, TypeError):
                pass
        event = WatchdogEvent(
            kind="state_invalid",
            step=int(getattr(err, "step", None)
                     or getattr(solver, "steps", 0) or 0),
            message=str(err), cell=cell,
            component=getattr(err, "component", None),
            value=getattr(err, "value", None), data=data)
        return self._emit(event)
