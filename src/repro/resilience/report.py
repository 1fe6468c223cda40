"""Failure diagnostic bundles.

When a supervised run exhausts its retry budget the library does not die
with a bare traceback: it assembles a :class:`FailureReport` — the last
good state snapshot, the residual history, the retry ladder trace and the
solver configuration — and attaches it to the raised
:class:`~repro.errors.CatError` as ``err.report``.  Production triage then
starts from the report, not from a core dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["FailureReport", "solver_config"]

#: Attributes worth snapshotting into the config section of a report.
_CONFIG_ATTRS = ("flux_name", "order", "n", "nv", "ns", "t", "steps",
                 "T_wall", "prandtl", "mode", "rn", "gamma")


def _jsonable(v):
    """Best-effort conversion of config values to plain python."""
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return {"shape": list(v.shape), "dtype": str(v.dtype)}
    return v


def solver_config(solver) -> dict:
    """Introspect a solver object into a small config dict for a report."""
    cfg: dict[str, Any] = {"solver": type(solver).__name__}
    for name in _CONFIG_ATTRS:
        v = getattr(solver, name, None)
        if v is not None and not callable(v):
            cfg[name] = _jsonable(v)
    grid = getattr(solver, "grid", None)
    if grid is not None:
        ni, nj = getattr(grid, "ni", None), getattr(grid, "nj", None)
        if ni is not None:
            cfg["grid"] = (int(ni), int(nj))
    eos = getattr(solver, "eos", None)
    if eos is not None:
        cfg["eos"] = type(eos).__name__
    return cfg


@dataclass
class FailureReport:
    """Diagnostic bundle emitted when a recovery ladder is exhausted.

    Attributes
    ----------
    label:
        Which subsystem failed (e.g. ``"euler2d"``).
    error:
        The final error message.
    step:
        Marching step (or station/call index) at failure, if known.
    cell, component, value:
        Localization of the final error, when
        :func:`~repro.numerics.time_integration.check_state` (or the
        watchdog) pinned it to a first-offending cell.
    attempts:
        Retry ladder trace: one dict per retry with the backed-off
        parameters and the error that triggered it.
    residual_history:
        Residual trace of the failing run (may be empty for one-shot
        solves).
    config:
        Solver/problem configuration snapshot.
    state:
        Last good checkpoint payload (arrays), when one exists.
    wall_time:
        Seconds spent inside the supervised region.
    watchdog_events:
        :class:`~repro.resilience.watchdog.WatchdogEvent` dicts recorded
        by an attached watchdog (``None`` when none was attached).
    isolation:
        :class:`~repro.resilience.isolation.IsolationEvent` dicts — the
        kill the supervising parent performed (``None`` when the run
        was not sandboxed).
    fault_schedule:
        Exact :meth:`~repro.resilience.faults.FaultInjector.to_json`
        schedule that was armed (``None`` when none) — enough for a
        deterministic replay of a failing chaos round.
    """

    label: str
    error: str
    step: int | None = None
    cell: tuple | None = None
    component: str | None = None
    value: float | None = None
    attempts: list[dict] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    state: dict | None = None
    wall_time: float = 0.0
    watchdog_events: list[dict] | None = None
    isolation: list[dict] | None = None
    fault_schedule: dict | None = None

    def to_dict(self) -> dict:
        """Plain-dict view (state arrays summarised, not copied)."""
        state_summary = None
        if self.state is not None:
            state_summary = {k: _jsonable(np.asarray(v))
                            if isinstance(v, np.ndarray) else _jsonable(v)
                            for k, v in self.state.items()}
        return {"label": self.label, "error": self.error,
                "step": self.step,
                "cell": None if self.cell is None else list(self.cell),
                "component": self.component, "value": self.value,
                "attempts": list(self.attempts),
                "residual_history": [float(r)
                                     for r in self.residual_history],
                "config": dict(self.config), "state": state_summary,
                "wall_time": self.wall_time,
                "watchdog_events": (None if self.watchdog_events is None
                                    else list(self.watchdog_events)),
                "isolation": (None if self.isolation is None
                              else list(self.isolation)),
                "fault_schedule": (None if self.fault_schedule is None
                                   else dict(self.fault_schedule))}

    def summary(self) -> str:
        """Human-readable multi-line triage summary."""
        lines = [f"FailureReport[{self.label}]: {self.error}"]
        if self.step is not None:
            lines.append(f"  failed at step {self.step}")
        if self.cell is not None or self.component is not None:
            val = "" if self.value is None else f" = {self.value:.6g}"
            lines.append(f"  first offender: cell {self.cell}, "
                         f"component {self.component}{val}")
        lines.append(f"  retries attempted: {len(self.attempts)}")
        for a in self.attempts:
            knobs = ", ".join(f"{k}={v}" for k, v in a.items()
                              if k != "error")
            lines.append(f"    - {knobs}: {a.get('error', '?')}")
        if self.residual_history:
            r = self.residual_history
            lines.append(f"  residuals: first={r[0]:.3e} "
                         f"last={r[-1]:.3e} n={len(r)}")
        if self.config:
            kv = ", ".join(f"{k}={v}" for k, v in self.config.items())
            lines.append(f"  config: {kv}")
        if self.state is not None:
            lines.append(f"  last-good state: {sorted(self.state)}")
        if self.watchdog_events:
            lines.append(f"  watchdog events: {len(self.watchdog_events)}")
            for e in self.watchdog_events[-5:]:
                lines.append(f"    - [{e.get('kind')}] step "
                             f"{e.get('step')}: {e.get('message')}")
        if self.isolation:
            kinds = "/".join(e.get("kind", "?") for e in self.isolation)
            lines.append(f"  isolation kills: {len(self.isolation)} "
                         f"({kinds})")
            for e in self.isolation[-5:]:
                lines.append(f"    - [{e.get('kind')}] step "
                             f"{e.get('step')}: {e.get('message')}")
        if self.fault_schedule and self.fault_schedule.get("faults"):
            lines.append(f"  fault schedule: "
                         f"{len(self.fault_schedule['faults'])} armed "
                         f"fault(s) (embedded for replay)")
        if self.wall_time:
            lines.append(f"  wall time: {self.wall_time:.2f} s")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.summary()
