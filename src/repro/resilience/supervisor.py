"""The marching loop: checkpoint / rollback / CFL-backoff retry.

The paper's solvers all "march in a time-like manner until a steady state
is asymptotically achieved" — and an unsupervised march dies on the first
transient NaN.  :meth:`RunSupervisor.march` is the one loop every
solver's ``run()`` marches through.  A bare march (no supervision
keyword) steps, guards the state and reports progress, and lets a
failing step's own error through.  An armed march recovers instead:

1. periodic :class:`~repro.resilience.checkpoint.Checkpoint` captures,
2. a per-step :func:`~repro.numerics.time_integration.check_state` guard,
3. automatic rollback to the last good checkpoint on
   :class:`~repro.errors.StabilityError`, with exponential CFL backoff
   through a bounded retry ladder,
4. a :class:`~repro.resilience.report.FailureReport` diagnostic bundle
   attached to the error raised on exhaustion.

A :class:`~repro.resilience.watchdog.ConservationWatchdog`
(``watchdog=True``) audits every clean step (conservation budgets,
species bounds, entropy) and its events land in the report.

One-shot solves (PNS stations, VSL, the shock-relaxation BDF integration)
use :func:`supervised_call`, the same bounded-ladder idea expressed as a
sequence of parameter adjustments instead of CFL backoff.

With ``persist=PersistencePolicy(dir, every_n_steps)`` the supervisor
additionally commits **durable** snapshots to disk through a
:class:`~repro.resilience.persistence.SnapshotStore`, and first looks
for a valid on-disk snapshot and continues from it.  That is the one
way a march resumes: after a SIGKILL, build the solver as before and
call the same ``run(..., persist=dir)`` again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import (CancelledError, CatError, ConvergenceError,
                          StabilityError)
from repro.numerics.time_integration import check_state
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.report import FailureReport, solver_config
from repro.resilience.watchdog import ConservationWatchdog

__all__ = ["RetryPolicy", "RunSupervisor", "supervised_call"]

#: Successful steps between in-memory rollback checkpoints.
CHECKPOINT_INTERVAL = 25


def _switch(name: str, value, policy: type | None = None) -> bool:
    """An on/off supervision keyword: ``None`` and ``False`` are off;
    ``True``, or an instance of ``policy`` when one is named, is on."""
    if value is None or value is False:
        return False
    if value is True or (policy is not None and isinstance(value, policy)):
        return True
    allowed = ("None, False or True" if policy is None
               else f"None, False, True or a {policy.__name__}")
    raise TypeError(f"{name} must be {allowed}, not "
                    f"{type(value).__name__}")


@dataclass
class RetryPolicy:
    """Knobs of the rollback-retry ladder.

    Attributes
    ----------
    max_retries:
        Rollbacks allowed before the run is declared dead.
    cfl_backoff:
        Multiplier applied to the CFL number at each rollback.
    cfl_min:
        Ladder floor: a retry that would drop CFL below this gives up.

    An armed march captures a rollback checkpoint at its start and every
    :data:`CHECKPOINT_INTERVAL` steps; a bare march captures none.
    """

    max_retries: int = 4
    cfl_backoff: float = 0.5
    cfl_min: float = 1e-3


class RunSupervisor:
    """The one marching loop: every solver's ``run()`` hands its step
    closure and stop rule to :meth:`march`, bare or supervised.

    Parameters
    ----------
    solver:
        Any object exposing ``U`` (conserved field), ``steps`` and
        ``get_state``/``set_state`` (see
        :class:`~repro.resilience.checkpoint.Checkpoint`).
    label:
        Name used in errors, reports, ledgers and manifests.

    The remaining four are the supervision keywords of every marching
    ``run()`` (``Euler1DSolver``, ``AxisymmetricEulerSolver`` /
    ``AxisymmetricNSSolver``, ``ReactingEulerSolver``), forwarded here
    unchanged:

    resilience:
        A :class:`RetryPolicy`, or ``True`` for the defaults: the
        rollback / CFL-backoff retry ladder.  ``None`` and ``False``
        leave it off; any other value raises :class:`TypeError`.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; armed
        faults are applied after every successful step so that the guard
        and rollback paths are exercised deterministically.
    persist:
        Optional :class:`~repro.resilience.persistence.PersistencePolicy`
        (or a bare directory path): durable, crash-safe snapshots on top
        of the in-memory rollback ladder; re-running the same ``run()``
        on a freshly built solver resumes from them after a crash.
    watchdog:
        ``True`` arms a
        :class:`~repro.resilience.watchdog.ConservationWatchdog`:
        per-step conservation/species/entropy auditing; events are
        surfaced on the solver (``watchdog_events``) and in any report.
        ``None`` and ``False`` leave it off.

    Retry is armed when any of the four is given (``False`` counts as
    not given): ``resilience`` is used when it is a
    :class:`RetryPolicy`, the default ``RetryPolicy()`` otherwise.  With
    none given the march is bare
    (``policy`` is None): a failing step's own exception propagates
    unchanged — no rollback, no report, no snapshot.

    Every march, bare or not, beats the process heartbeat and polls the
    process cancel hook (see
    :func:`~repro.resilience.isolation.set_process_heartbeat` and
    :func:`~repro.resilience.isolation.set_process_cancel`), so a
    sandboxing parent can tell a slow march from a hung one and a job
    can stop it; both hooks are None in an ordinary in-process run.
    """

    def __init__(self, solver, resilience=None, *, faults=None,
                 label: str | None = None, persist=None, watchdog=None):
        from repro.resilience.isolation import current_process_heartbeat
        self.solver = solver
        self.label = label or type(solver).__name__
        self.watchdog = (ConservationWatchdog()
                         if _switch("watchdog", watchdog) else None)
        armed = _switch("resilience", resilience, RetryPolicy) or any(
            v is not None and v is not False
            for v in (faults, persist, self.watchdog))
        self.policy = (resilience if isinstance(resilience, RetryPolicy)
                       else RetryPolicy() if armed else None)
        self.faults = faults
        self.heartbeat = current_process_heartbeat()
        self.attempts: list[dict] = []
        self.report: FailureReport | None = None
        self.store = None
        if persist is not None:
            from repro.resilience.persistence import SnapshotStore
            self.store = SnapshotStore(persist, faults=faults)

    # ------------------------------------------------------------------

    def _guard(self):
        """Per-step state validation using the solver's declared layout."""
        layout = getattr(self.solver, "state_layout", None) or {}
        check_state(self.solver.U,
                    step=int(getattr(self.solver, "steps", 0) or 0),
                    label=self.label, **layout)

    def _build_report(self, err, ckpt, t0) -> FailureReport:
        hist = list(getattr(self.solver, "residual_history", []) or [])
        return FailureReport(
            label=self.label, error=str(err),
            step=getattr(err, "step", None)
            or int(getattr(self.solver, "steps", 0) or 0),
            cell=getattr(err, "cell", None),
            component=getattr(err, "component", None),
            value=getattr(err, "value", None),
            attempts=list(self.attempts),
            residual_history=hist[-200:],
            config=solver_config(self.solver),
            state=dict(ckpt.payload),
            wall_time=time.monotonic() - t0,
            watchdog_events=(None if self.watchdog is None
                             else self.watchdog.events_as_dicts()))

    def _expose(self):
        """Surface audit artefacts on the solver after any march end."""
        if self.watchdog is not None:
            self.solver.watchdog_events = self.watchdog.events

    def _progress_payload(self, k, n_steps, cfl_now, retries,
                          res) -> dict:
        """March progress published through the heartbeat channel so a
        supervising parent (``jobs status``/``watch``) sees step / time
        / residual without ever touching this process.  ``steps``,
        ``t`` and ``residual`` are the solver's own clocks and latest
        logged residual, where it keeps them."""
        solver = self.solver
        p = {"label": self.label, "step": int(k),
             "n_steps": int(n_steps), "cfl": float(cfl_now),
             "retries": int(retries)}
        if res is not None:
            p["residual"] = float(res)
        p["steps"] = int(getattr(solver, "steps", 0) or 0)
        p["t"] = float(getattr(solver, "t", 0.0) or 0.0)
        hist = getattr(solver, "residual_history", None)
        if hist is not None and len(hist):
            p["residual"] = float(hist[-1])
        return p

    # ------------------------------------------------------------------

    def march(self, step_fn, *, n_steps, cfl, tol=None,
              stop=None) -> bool:
        """Advance ``step_fn(cfl) -> residual | None`` up to ``n_steps``
        successful steps, with rollback-retry when armed.

        ``stop()`` (optional) ends the march as converged (transient runs
        marching to a target time), also when the last allowed step
        reaches it; ``tol`` ends it when the returned residual drops
        below it (steady runs).  Returns the converged flag, which is
        also set on ``solver.converged``.  On an exhausted retry ladder
        it raises :class:`StabilityError` carrying a
        :class:`FailureReport`.

        With a durable store attached (``persist=``), the march first
        resumes from the newest valid on-disk snapshot, re-entering the
        retry ladder where it stood (step, CFL and retries spent),
        commits a snapshot every ``every_n_steps`` successful steps, and
        commits a final one marked ``completed`` when the march ends.
        """
        from repro.resilience.isolation import current_process_cancel
        solver, store, pol = self.solver, self.store, self.policy
        cfl_now = float(cfl)
        retries = 0
        t0 = time.monotonic()
        k = ckpt_k = 0
        converged = False
        last_res = None

        def commit(*, completed, converged):
            store.save(solver, march={"k": k, "cfl": cfl_now,
                                      "retries": retries},
                       completed=completed, converged=converged,
                       label=self.label)

        if store is not None:
            snap = store.load_latest(solver=solver)
            if snap is not None:
                if snap.completed:
                    solver.converged = bool(snap.converged)
                    return solver.converged
                k = ckpt_k = int(snap.march.get("k", 0))
                cfl_now = float(snap.march.get("cfl", cfl_now))
                retries = int(snap.march.get("retries", 0))
        # only an armed march rolls back: a bare one keeps no checkpoint
        ckpt = Checkpoint.capture(solver) if pol is not None else None
        if store is not None and not store.sequences():
            commit(completed=False, converged=False)
        while k < n_steps:
            if self.heartbeat is not None:
                self.heartbeat.beat(step=k,
                                    progress=self._progress_payload(
                                        k, n_steps, cfl_now, retries,
                                        last_res))
            cancel = current_process_cancel()
            if cancel is not None:
                reason = cancel()
                if reason:
                    # commit a durable snapshot first: a cancelled
                    # march stays resumable if the request is retracted
                    if store is not None:
                        commit(completed=False, converged=False)
                    solver.converged = False
                    self._expose()
                    raise CancelledError(
                        f"{self.label}: march cancelled at step {k}: "
                        f"{reason}", step=k)
            if stop is not None and stop():
                converged = True
                break
            try:
                res = step_fn(cfl_now)
                last_res = res
                if self.faults is not None:
                    self.faults.apply(solver)
                self._guard()
                if self.watchdog is not None:
                    self.watchdog.audit(solver)
            except (StabilityError, ConvergenceError) as err:
                if pol is None:   # bare: the step's own error
                    raise
                # ConvergenceError mid-march means an implicit sub-solve
                # (T(e) Newton, point-implicit chemistry) died on a
                # corrupted state — same pathology as a NaN, same cure:
                # roll back, back off
                retries += 1
                self.attempts.append(
                    {"retry": retries, "cfl": cfl_now,
                     "step": int(getattr(solver, "steps", k) or k),
                     "error": str(err)})
                if self.watchdog is not None:
                    self.watchdog.record_error(err, solver)
                next_cfl = cfl_now * pol.cfl_backoff
                if retries > pol.max_retries or next_cfl < pol.cfl_min:
                    self.report = self._build_report(err, ckpt, t0)
                    self._expose()
                    exhausted = StabilityError(
                        f"{self.label}: retry ladder exhausted after "
                        f"{retries} attempt(s): {err}",
                        step=getattr(err, "step", None),
                        cell=getattr(err, "cell", None),
                        component=getattr(err, "component", None),
                        value=getattr(err, "value", None),
                        report=self.report)
                    raise exhausted from err
                ckpt.restore(solver)
                k = ckpt_k
                cfl_now = next_cfl
                continue
            k += 1
            if tol is not None and res is not None and res < tol:
                converged = True
                break
            if store is not None and k % store.policy.every_n_steps == 0:
                commit(completed=False, converged=False)
            if pol is not None and k % CHECKPOINT_INTERVAL == 0:
                ckpt = Checkpoint.capture(solver)
                ckpt_k = k
        # the step budget may run out on the very step that reaches stop
        converged = converged or (stop is not None and bool(stop()))
        solver.converged = converged
        self._expose()
        if store is not None:
            commit(completed=True, converged=converged)
        return converged


def supervised_call(fn, *, label, ladder=(), config=None):
    """Run a one-shot solve through a bounded parameter-adjustment ladder.

    Calls ``fn()`` first as-given, then once per entry of ``ladder``
    (each entry a dict of keyword overrides for ``fn``) while it raises
    :class:`~repro.errors.CatError`.  On exhaustion the *original* error
    is re-raised with a :class:`FailureReport` (ladder trace + config)
    attached as ``err.report``.
    """
    from repro.resilience.isolation import current_process_heartbeat
    attempts: list[dict] = []
    last: CatError | None = None
    for i, overrides in enumerate([{}, *ladder]):
        hb = current_process_heartbeat()
        if hb is not None:   # sandboxed one-shot ladders beat per attempt
            hb.beat()
        try:
            return fn(**overrides)
        except CatError as err:
            last = err
            attempts.append({"attempt": i, **{k: repr(v) for k, v
                                              in overrides.items()},
                             "error": str(err)})
    report = FailureReport(label=label, error=str(last),
                           attempts=attempts, config=dict(config or {}))
    last.report = report
    raise last
