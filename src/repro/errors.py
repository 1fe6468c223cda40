"""Exception hierarchy for the CAT toolkit.

Every error the library raises deliberately derives from :class:`CatError`
so callers can catch toolkit failures without catching programming errors.
"""

from __future__ import annotations


class CatError(Exception):
    """Base class for all errors raised by the `repro` toolkit.

    Attributes
    ----------
    report:
        Optional :class:`repro.resilience.report.FailureReport` attached
        by the resilience layer when a recovery ladder is exhausted —
        the diagnostic bundle (state snapshot, residual history, retry
        trace, solver config) that replaces a bare traceback.
    """

    report = None


class ConvergenceError(CatError):
    """An iterative solver failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual (solver-defined norm), if known.
    bad_indices:
        Flat batch indices of the non-converged states (batched solves).
    residual_trajectory:
        Per-iteration residual norms of the failing solve, if recorded.
    worst:
        Small dict describing the worst offending state(s) — indices,
        final residuals and the local thermodynamic inputs.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None, bad_indices=None,
                 residual_trajectory=None, worst: dict | None = None,
                 report=None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.bad_indices = bad_indices
        self.residual_trajectory = residual_trajectory
        self.worst = worst
        self.report = report


class InputError(CatError, ValueError):
    """User-supplied input is out of the physically meaningful range."""


class SpeciesError(CatError, KeyError):
    """Unknown chemical species or inconsistent species set."""


class GridError(CatError):
    """Grid construction or metric evaluation failed."""


class StabilityError(CatError):
    """A time-marching solution became non-physical (NaN, negative
    density or energy).

    Attributes
    ----------
    step:
        Marching step at which the bad state was detected, if known.
    cell:
        Grid index tuple of the *first* offending cell, if localized.
    component:
        Name of the offending state component (``"density"``,
        ``"energy"``, ``"species[N2]"``, ...), if localized.
    value:
        The offending value at ``(cell, component)``, if localized.
    """

    def __init__(self, message: str, *, step: int | None = None,
                 cell: tuple | None = None, component: str | None = None,
                 value: float | None = None, report=None) -> None:
        super().__init__(message)
        self.step = step
        self.cell = cell
        self.component = component
        self.value = value
        self.report = report


class SolverError(CatError, RuntimeError):
    """A solver subsystem failed structurally (dead sandbox child,
    unknown job kind, unusable execution environment).

    Attributes
    ----------
    exitcode:
        Exit code of the dead sandbox child, if known.
    """

    def __init__(self, message: str, *,
                 exitcode: int | None = None) -> None:
        super().__init__(message)
        self.exitcode = exitcode


class OverloadError(CatError):
    """The batch service refused a batch at the door.

    Raised by :func:`repro.service.evaluate_batch` (and its farm path)
    when the batch is larger than the policy's ``shed_above``, before
    any request runs.

    Attributes
    ----------
    limit:
        The configured bound that was exceeded.
    """

    def __init__(self, message: str, *, limit: int | None = None) -> None:
        super().__init__(message)
        self.limit = limit


class CheckpointError(CatError):
    """A durable snapshot could not be written, read or verified.

    Attributes
    ----------
    path:
        Checkpoint directory or file involved, if known.
    recovery_log:
        List of per-generation rejection records accumulated while
        searching for a loadable snapshot (newest first).
    """

    def __init__(self, message: str, *, path=None,
                 recovery_log: list | None = None) -> None:
        super().__init__(message)
        self.path = path
        self.recovery_log = list(recovery_log or [])


class CancelledError(CatError):
    """A supervised run was cancelled cooperatively.

    Raised by :class:`~repro.resilience.supervisor.RunSupervisor` when
    the process-global cancel hook (see
    :func:`repro.resilience.isolation.set_process_cancel`) reports a
    cancellation — after committing a durable snapshot, so the march
    could still resume if the cancellation is ever retracted.  The
    async-job executor converts it into a terminal ``cancelled`` job
    state rather than a failure.

    Attributes
    ----------
    step:
        March step at which the cancellation was observed, if known.
    """

    def __init__(self, message: str, *, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


class TableRangeError(CatError):
    """A tabulated property lookup fell outside the table's domain."""

    def __init__(self, message: str, *, value: float | None = None,
                 lo: float | None = None, hi: float | None = None) -> None:
        super().__init__(message)
        self.value = value
        self.lo = lo
        self.hi = hi
