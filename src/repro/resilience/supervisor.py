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
4. a :class:`~repro.resilience.report.FailureReport` diagnostic bundle on
   exhaustion — either attached to the raised error or, with
   ``return_best=True``, delivered alongside the best-so-far state
   flagged ``converged=False``.

Between rollback-retry and abort sits the **degradation rung**: with a
:class:`~repro.resilience.degradation.DegradationController` attached
(``degradation=``), an exhausted CFL ladder first tries falling down the
fidelity ladder — local first-order reconstruction in a quarantine zone
around the flagged cells, then per-cell chemistry-model demotion — rolls
back, restores the original CFL and retries with a fresh ladder.  Only
when the cascade itself is exhausted does the march abort.  A
:class:`~repro.resilience.watchdog.ConservationWatchdog` (``watchdog=``)
audits every clean step (conservation budgets, species bounds, entropy)
and its events seed the quarantine zone and land in the report.

One-shot solves (PNS stations, VSL, the shock-relaxation BDF integration)
use :func:`supervised_call`, the same bounded-ladder idea expressed as a
sequence of parameter adjustments instead of CFL backoff.

With ``persist=PersistencePolicy(dir, every_n_steps)`` the supervisor
additionally commits **durable** snapshots to disk through a
:class:`~repro.resilience.persistence.SnapshotStore`, and — unless the
policy disables resume — first looks for a valid on-disk snapshot and
continues from it, so a SIGKILLed run picks up where it died (see
:func:`repro.resilience.persistence.resume_run`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import (CancelledError, CatError, ConvergenceError,
                          StabilityError)
from repro.numerics.time_integration import check_state
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.degradation import as_degradation
from repro.resilience.report import FailureReport, solver_config
from repro.resilience.watchdog import as_watchdog

__all__ = ["RetryPolicy", "RunSupervisor", "supervised_call"]


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
    checkpoint_interval:
        Steps between checkpoint captures.
    max_wall_time:
        Optional wall-clock budget [s]; on expiry the march stops and
        returns the current (best-so-far) state with ``converged=False``.
    return_best:
        On retry exhaustion, restore the last good checkpoint and return
        it flagged ``converged=False`` instead of raising.
    """

    max_retries: int = 4
    cfl_backoff: float = 0.5
    cfl_min: float = 1e-3
    checkpoint_interval: int = 25
    max_wall_time: float | None = None
    return_best: bool = False


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

    The remaining five are the supervision keywords of every marching
    ``run()`` (``Euler1DSolver``, ``AxisymmetricEulerSolver`` /
    ``AxisymmetricNSSolver``, ``ReactingEulerSolver``), forwarded here
    unchanged:

    resilience:
        A :class:`RetryPolicy`, or ``True`` for the defaults: the
        rollback / CFL-backoff retry ladder.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; armed
        faults are applied after every successful step so that the guard
        and rollback paths are exercised deterministically.
    persist:
        Optional :class:`~repro.resilience.persistence.PersistencePolicy`
        (or a :class:`~repro.resilience.persistence.SnapshotStore`, or a
        bare directory path): durable, crash-safe snapshots on top of the
        in-memory rollback ladder, resumed from after a crash (see
        :func:`~repro.resilience.persistence.resume_run`).
    watchdog:
        ``True`` (defaults), a
        :class:`~repro.resilience.watchdog.WatchdogPolicy` or a
        :class:`~repro.resilience.watchdog.ConservationWatchdog`:
        per-step conservation/species/entropy auditing; events are
        surfaced on the solver (``watchdog_events``) and in any report.
    degradation:
        ``True`` (defaults), a
        :class:`~repro.resilience.degradation.DegradationPolicy` or a
        :class:`~repro.resilience.degradation.DegradationController`:
        the graceful-degradation rung between rollback-retry and abort;
        the ledger lands on the solver as ``degradation_ledger``.

    Retry is armed when any of the five is given: ``resilience`` is
    used when it is a :class:`RetryPolicy`, the default
    ``RetryPolicy()`` otherwise.  With none given the march is bare
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
                 label: str | None = None, persist=None, watchdog=None,
                 degradation=None):
        from repro.resilience.isolation import current_process_heartbeat
        self.solver = solver
        armed = any(v is not None for v in (resilience, faults, persist,
                                            watchdog, degradation))
        self.policy = (resilience if isinstance(resilience, RetryPolicy)
                       else RetryPolicy() if armed else None)
        self.faults = faults
        self.heartbeat = current_process_heartbeat()
        self.label = label or type(solver).__name__
        self.attempts: list[dict] = []
        self.report: FailureReport | None = None
        self.watchdog = as_watchdog(watchdog)
        self.degradation = as_degradation(degradation)
        if self.degradation is not None \
                and self.degradation.ledger.label is None:
            self.degradation.ledger.label = self.label
        self.store = None
        if persist is not None:
            from repro.resilience.persistence import SnapshotStore
            self.store = (persist if isinstance(persist, SnapshotStore)
                          else SnapshotStore(persist, faults=faults))

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
                             else self.watchdog.events_as_dicts()),
            degradation=(None if self.degradation is None
                         else self.degradation.ledger.to_dict()))

    def _expose(self):
        """Surface audit artefacts on the solver after any march end."""
        if self.watchdog is not None:
            self.solver.watchdog_events = self.watchdog.events
        if self.degradation is not None:
            self.solver.degradation_ledger = self.degradation.ledger

    def _progress_payload(self, k, n_steps, cfl_now, retries,
                          res) -> dict:
        """March progress published through the heartbeat channel so a
        supervising parent (``jobs status``/``watch``) sees step / time
        / residual without ever touching this process."""
        p = {"label": self.label, "step": int(k),
             "n_steps": int(n_steps), "cfl": float(cfl_now),
             "retries": int(retries)}
        if res is not None:
            p["residual"] = float(res)
        hook = getattr(self.solver, "progress", None)
        if callable(hook):
            p.update(hook() or {})
        return p

    # ------------------------------------------------------------------

    def march(self, step_fn, *, n_steps, cfl, tol=None, stop=None,
              run_kwargs=None) -> bool:
        """Advance ``step_fn(cfl) -> residual | None`` up to ``n_steps``
        successful steps, with rollback-retry when armed.

        ``stop()`` (optional) ends the march as converged (transient runs
        marching to a target time), also when the last allowed step
        reaches it; ``tol`` ends it when the returned residual drops
        below it (steady runs).  Returns the converged flag, which is
        also set on ``solver.converged``.  On an exhausted retry ladder
        it either raises :class:`StabilityError` carrying a
        :class:`FailureReport` or — with ``return_best=True`` — restores
        the last good checkpoint and returns False.

        With a durable store attached (``persist=``), the march first
        resumes from the newest valid on-disk snapshot (when the policy
        allows), commits a snapshot every ``every_n_steps`` successful
        steps, and commits a final one marked ``completed`` when the
        march ends for any reason other than the wall-clock budget —
        ``run_kwargs`` is embedded in each manifest so
        :func:`~repro.resilience.persistence.resume_run` can re-enter
        the same ``run(...)`` call.
        """
        from repro.resilience.isolation import current_process_cancel
        solver, store = self.solver, self.store
        pol = self.policy or RetryPolicy()   # bare: default cadence only
        cfl_now = float(cfl)
        retries = 0
        t0 = time.monotonic()
        k = ckpt_k = 0
        converged = False
        last_res = None

        def commit(*, completed, converged):
            store.save(solver, march={"k": k, "cfl": cfl_now,
                                      "retries": retries},
                       run=dict(run_kwargs or {}), completed=completed,
                       converged=converged, label=self.label)

        if store is not None and store.policy.resume:
            snap = store.load_latest(solver=solver)
            if snap is not None:
                if snap.completed:
                    solver.converged = bool(snap.converged)
                    return solver.converged
                k = ckpt_k = int(snap.march.get("k", 0))
                cfl_now = float(snap.march.get("cfl", cfl_now))
        ckpt = Checkpoint.capture(solver)
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
            if (pol.max_wall_time is not None
                    and time.monotonic() - t0 > pol.max_wall_time):
                # budget exhausted: best-so-far, converged=False; a
                # durable snapshot (not marked completed) lets a later
                # resume_run continue the march
                if store is not None:
                    commit(completed=False, converged=False)
                solver.converged = False
                self._expose()
                return False
            try:
                res = step_fn(cfl_now)
                last_res = res
                if self.faults is not None:
                    self.faults.apply(solver)
                self._guard()
                if self.watchdog is not None:
                    self.watchdog.audit(solver)
                if self.degradation is not None:
                    self.degradation.note_clean_step(
                        solver, step=int(getattr(solver, "steps", k)
                                         or k))
            except (StabilityError, ConvergenceError) as err:
                if self.policy is None:   # bare: the step's own error
                    raise
                # ConvergenceError mid-march means an implicit sub-solve
                # (T(e) Newton, point-implicit chemistry) died on a
                # corrupted state — same pathology as a NaN, same cure:
                # roll back, back off, degrade
                retries += 1
                self.attempts.append(
                    {"retry": retries, "cfl": cfl_now,
                     "step": int(getattr(solver, "steps", k) or k),
                     "error": str(err)})
                if self.watchdog is not None:
                    self.watchdog.record_error(err, solver)
                if self.degradation is not None:
                    self.degradation.note_failure()
                next_cfl = cfl_now * pol.cfl_backoff
                if retries > pol.max_retries or next_cfl < pol.cfl_min:
                    # degradation rung: before aborting, try falling
                    # down the fidelity ladder and re-running the
                    # retry ladder from the original CFL
                    if self.degradation is not None:
                        cells = [getattr(err, "cell", None)]
                        if self.watchdog is not None:
                            cells += self.watchdog.event_cells(last_n=5)
                        if self.degradation.degrade(
                                solver,
                                step=int(getattr(err, "step", None)
                                         or k),
                                cells=[c for c in cells
                                       if c is not None],
                                reason=str(err)):
                            ckpt.restore(solver)
                            k = ckpt_k
                            retries = 0
                            cfl_now = float(cfl)
                            continue
                    self.report = self._build_report(err, ckpt, t0)
                    self._expose()
                    if pol.return_best:
                        ckpt.restore(solver)
                        solver.converged = False
                        return False
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
            if k % pol.checkpoint_interval == 0:
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
