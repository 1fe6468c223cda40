"""Process-level isolation: sandboxed solves under deadline, memory
budget and heartbeat supervision.

The in-process resilience ladder (rollback-retry, degradation,
durable persistence) recovers from *numerical* and *crash* failures —
but a solve that **hangs** (livelocked implicit sub-solve, a process
SIGSTOPped by an operator, a stuck Newton continuation) or **leaks
memory** until the kernel OOM killer fires still takes the whole
process, and every figure queued behind it, down with it.  Production
hypersonic codes run solves as supervised jobs with wall-clock budgets;
this module brings that operational layer to `repro` with nothing
beyond the standard library and ``/proc``:

* :class:`Heartbeat` — a tiny file-based liveness channel the child
  touches every marching step (throttled, atomic writes);
* :class:`IsolationPolicy` — the budgets: wall-clock **deadline**, RSS
  **memory budget** (polled from ``/proc/<pid>/status``, falling back
  to the child's self-reported ``getrusage`` numbers), heartbeat
  **stall timeout** (a hang is declared after silence, not just total
  elapsed time) and a bounded **restart budget**;
* :class:`IsolationEvent` — the typed record (``hang`` / ``oom`` /
  ``deadline`` / ``crash``) every kill leaves behind;
* :class:`IsolatedRunner` — executes any persist-protocol marching
  solver (:meth:`IsolatedRunner.run_solver`) or an arbitrary callable
  (:meth:`IsolatedRunner.run_callable`, used by the batch service and
  the solve farm) in a supervised child process.  On a violation
  the child is SIGCONT+SIGTERMed, then SIGKILLed after a grace period
  (its whole process group, so grandchildren die too), the event is
  recorded, and the solve is **auto-resumed in a fresh child from the
  durable** :class:`~repro.resilience.persistence.SnapshotStore` —
  optionally down a tightened ladder (lower CFL, degradation
  pre-armed).  A wedged solve becomes a resumed solve, not an abort;
  only restart-budget exhaustion raises, and then with a
  :class:`~repro.resilience.report.FailureReport` carrying every
  isolation event (and the exact fault schedule, when one was armed).

The chaos harness (:mod:`repro.resilience.chaos`, ``python -m repro
chaos``) drives random fault schedules through this runner and asserts
the invariants hold round after round.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import multiprocessing as mp

from repro.errors import CatError, CheckpointError, SolverError
from repro.resilience.persistence import atomic_write
from repro.resilience.report import FailureReport

__all__ = ["Heartbeat", "IsolationEvent", "IsolationPolicy",
           "IsolatedRunner", "current_process_cancel",
           "current_process_heartbeat", "set_process_cancel",
           "set_process_heartbeat", "signal_group", "kill_pid_tree",
           "terminate_process"]


# ----------------------------------------------------------------------
# RSS introspection (no third-party deps)
# ----------------------------------------------------------------------

def _read_rss_mb(pid: int | None = None) -> float | None:
    """Resident set size in MiB via ``/proc/<pid>/status`` (``VmRSS``).

    For the calling process itself (``pid=None``) falls back to
    ``resource.getrusage`` (peak RSS — good enough for budget checks)
    where ``/proc`` is unavailable.  Returns None when nothing works.
    """
    path = f"/proc/{pid}/status" if pid is not None else "/proc/self/status"
    try:
        with open(path) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    if pid is None:
        try:
            import resource
            return resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except (ImportError, OSError, ValueError):
            return None
    return None


# ----------------------------------------------------------------------
# heartbeat channel
# ----------------------------------------------------------------------

class Heartbeat:
    """File-based liveness channel between a supervised child and its
    parent.

    The child calls :meth:`beat` every marching step (the
    supervisor does it automatically); the write is throttled to
    ``min_interval`` and atomic (temp file + rename) so the parent
    never reads a torn payload.  The parent does not compare clocks —
    it watches the payload *change* and timestamps changes with its own
    monotonic clock, so no cross-process time agreement is needed.

    The payload attributes the beat to its writer (``pid``, plus an
    optional ``host``) so a shared-directory farm can tell *whose*
    heartbeat file it is looking at after workers die and are replaced.
    """

    def __init__(self, path, *, min_interval: float = 0.02,
                 host: str | None = None):
        self.path = os.fspath(path)
        self.min_interval = float(min_interval)
        self.host = host
        self._last = 0.0
        self._seq = 0
        self._progress: dict | None = None
        self.beat(force=True)

    def beat(self, *, step: int | None = None, force: bool = False,
             progress: dict | None = None):
        """Record liveness (rate-limited unless ``force``).

        ``progress`` attaches a JSON-able payload (march step / time /
        residual, published by the run supervisor) that *sticks*: later
        beats without one re-publish the last progress, so a throttled
        or forced renewal beat never blanks what ``jobs status`` shows.
        """
        if progress is not None:
            self._progress = dict(progress)
        now = time.monotonic()
        if not force and now - self._last < self.min_interval:
            return
        self._last = now
        self._seq += 1
        payload = {"seq": self._seq,
                   "step": None if step is None else int(step),
                   "rss_mb": _read_rss_mb(),
                   "pid": os.getpid()}
        if self._progress is not None:
            payload["progress"] = self._progress
        if self.host is not None:
            payload["host"] = self.host
        try:
            atomic_write(self.path, json.dumps(payload))
        except OSError:
            pass  # liveness is advisory; never kill the solve over it


#: Process-global heartbeat: set inside an isolated child so every
#: march (bare or supervised) and every supervised_call ladder in that
#: process beats without each call site having to thread the object
#: through.
_PROCESS_HEARTBEAT: Heartbeat | None = None


def set_process_heartbeat(hb: Heartbeat | None):
    """Install (or clear) the process-global heartbeat."""
    global _PROCESS_HEARTBEAT
    _PROCESS_HEARTBEAT = hb


def current_process_heartbeat() -> Heartbeat | None:
    """The heartbeat installed for this process, if any."""
    return _PROCESS_HEARTBEAT


#: Process-global cancellation hook: a callable returning a reason
#: string when the current run should stop (None/"" = keep going).
#: The async-job executor installs a throttled cancel-flag file poll
#: here; RunSupervisor.march checks it once per iteration, the same
#: pattern as the process heartbeat.
_PROCESS_CANCEL = None


def set_process_cancel(fn) -> None:
    """Install (or clear, with None) the process-global cancel hook."""
    global _PROCESS_CANCEL
    _PROCESS_CANCEL = fn


def current_process_cancel():
    """The cancel hook installed for this process, if any."""
    return _PROCESS_CANCEL


# ----------------------------------------------------------------------
# process-tree killing (one code path for every supervisor)
# ----------------------------------------------------------------------

def signal_group(pid: int | None, sig: int) -> None:
    """Deliver ``sig`` to ``pid``'s process group, falling back to the
    process alone while it has not yet moved into its own group."""
    if pid is None:
        return
    try:
        os.killpg(pid, sig)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            os.kill(pid, sig)
        except (ProcessLookupError, OSError):
            pass


def terminate_process(proc, *, grace: float = 2.0) -> None:
    """SIGTERM -> grace -> SIGKILL a ``multiprocessing.Process`` and its
    whole group; SIGCONT alongside so a SIGSTOPped tree still dies.

    Used by :class:`IsolatedRunner` on budget violations and by the
    farm supervisor (:mod:`repro.resilience.farm`) on worker kills —
    the same escalation everywhere a child must die.
    """
    signal_group(proc.pid, signal.SIGTERM)
    signal_group(proc.pid, signal.SIGCONT)
    proc.join(grace)
    if proc.is_alive():
        signal_group(proc.pid, signal.SIGKILL)
        signal_group(proc.pid, signal.SIGCONT)
        proc.join(10.0)
    proc.join(0.1)   # reap


def kill_pid_tree(pid: int | None) -> None:
    """SIGKILL a process group we cannot ``join`` (not our direct
    child): the farm uses this to take down the orphaned sandbox
    children of a SIGKILLed worker."""
    signal_group(pid, signal.SIGKILL)
    signal_group(pid, signal.SIGCONT)


# ----------------------------------------------------------------------
# policy and events
# ----------------------------------------------------------------------

@dataclass
class IsolationPolicy:
    """Budgets and knobs of a sandboxed solve.

    Attributes
    ----------
    deadline:
        Wall-clock budget per attempt [s]; None = unlimited.
    memory_mb:
        RSS budget [MiB] for the child; None = unlimited.  Note that a
        fork child initially *shares* its parent's resident pages, so
        absolute budgets should be set relative to the parent's own RSS
        (see :func:`_read_rss_mb`).
    stall_timeout:
        Heartbeat silence [s] after which the child is declared hung.
        None disables hang detection (the right default for callables
        that never beat); marching solves under
        :meth:`IsolatedRunner.run_solver` beat every step.
    max_restarts:
        Fresh children spawned after kills before the runner gives up
        and raises with a report.  0 = one attempt, no resume.
    poll_interval:
        Parent supervision poll period [s].
    term_grace:
        Seconds between SIGTERM and SIGKILL escalation.
    every_n_steps:
        Durable snapshot cadence the child marches with (the resume
        granularity after a kill).
    """

    deadline: float | None = None
    memory_mb: float | None = None
    stall_timeout: float | None = None
    max_restarts: int = 2
    poll_interval: float = 0.05
    term_grace: float = 2.0
    every_n_steps: int = 10


@dataclass
class IsolationEvent:
    """One kill (or child death) observed by the supervising parent.

    ``kind`` is one of ``"hang"`` (heartbeat silence beyond the stall
    timeout), ``"oom"`` (RSS budget exceeded), ``"deadline"``
    (wall-clock budget exceeded) or ``"crash"`` (the child died on its
    own — non-zero exit or a signal).
    """

    kind: str
    attempt: int
    elapsed: float
    message: str
    step: int | None = None
    rss_mb: float | None = None
    exitcode: int | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "attempt": int(self.attempt),
                "elapsed": round(float(self.elapsed), 3),
                "message": self.message, "step": self.step,
                "rss_mb": (None if self.rss_mb is None
                           else round(float(self.rss_mb), 1)),
                "exitcode": self.exitcode}


# ----------------------------------------------------------------------
# child mains (run under the fork start method: no pickling of targets)
# ----------------------------------------------------------------------

def _enter_sandbox(hb_path):
    """Common child prologue: own process group + process heartbeat."""
    try:
        os.setpgid(0, 0)   # so the parent can kill the whole group
    except OSError:
        pass
    set_process_heartbeat(Heartbeat(hb_path))


def _write_error(err_path, exc):
    try:
        with open(err_path, "w") as f:
            f.write("".join(traceback.format_exception(exc)))
    except OSError:
        pass


def _solver_child(factory, run_kwargs, ckpt_dir, hb_path, err_path,
                  faults, resilience, watchdog, degradation,
                  every_n_steps):
    """Build the solver and march it durably inside the sandbox."""
    from repro.resilience.persistence import PersistencePolicy
    _enter_sandbox(hb_path)
    try:
        solver = factory()
        policy = PersistencePolicy(dir=ckpt_dir,
                                   every_n_steps=int(every_n_steps))
        solver.run(**dict(run_kwargs or {}), persist=policy,
                   faults=faults, resilience=resilience,
                   watchdog=watchdog, degradation=degradation)
        sys.exit(0)
    except SystemExit:
        raise
    # catlint: disable=CAT012 -- sandbox child boundary: every failure,
    # *including* SimulatedCrash, must become a written traceback plus a
    # nonzero exit so the supervising parent sees a crash, not a hang
    except BaseException as exc:
        _write_error(err_path, exc)
        sys.exit(70)


def _callable_child(fn, args, kwargs, res_path, hb_path, err_path):
    """Run ``fn`` in the sandbox and pickle ``(raised, value)`` for the
    parent: its result, or a :class:`~repro.errors.CatError` it raised,
    which the parent re-raises.  Any other exception, or an error that
    does not survive a pickle round trip, exits nonzero (a crash)."""
    _enter_sandbox(hb_path)
    try:
        try:
            blob = pickle.dumps((False, fn(*args, **dict(kwargs or {}))))
        except CatError as err:
            blob = pickle.dumps((True, err))
            pickle.loads(blob)      # the parent must be able to rebuild it
        atomic_write(res_path, blob)
        sys.exit(0)
    except SystemExit:
        raise
    # catlint: disable=CAT012 -- sandbox child boundary: every failure
    # must become a written traceback plus a nonzero exit (see
    # _solver_child)
    except BaseException as exc:
        _write_error(err_path, exc)
        sys.exit(70)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

class IsolatedRunner:
    """Supervised, sandboxed execution with auto-resume.

    Parameters
    ----------
    policy:
        An :class:`IsolationPolicy` (None for the defaults).
    label:
        Name used in events, errors and reports.

    After a run, :attr:`events` holds every :class:`IsolationEvent`
    observed (empty for an undisturbed solve).
    """

    def __init__(self, policy: IsolationPolicy | None = None, *,
                 label: str | None = None):
        self.policy = policy or IsolationPolicy()
        self.label = label or "isolated"
        self.events: list[IsolationEvent] = []

    # -- supervision core ----------------------------------------------

    def _spawn(self, target, args):
        ctx = mp.get_context("fork")
        proc = ctx.Process(target=target, args=args, daemon=False)
        proc.start()
        return proc

    def _kill(self, proc):
        """SIGTERM -> grace -> SIGKILL; SIGCONT first so a stopped
        (SIGSTOPped) child can actually receive the termination."""
        terminate_process(proc, grace=self.policy.term_grace)

    def _read_beat(self, hb_path):
        try:
            with open(hb_path, "rb") as f:
                return f.read()
        except OSError:
            return None

    def _parse_beat(self, raw):
        if not raw:
            return {}
        try:
            return json.loads(raw.decode())
        except (ValueError, UnicodeDecodeError):
            return {}

    def _supervise(self, proc, hb_path, attempt) -> IsolationEvent | None:
        """Watch one child until clean exit (None) or violation/death
        (the recorded :class:`IsolationEvent`; the child is dead on
        return either way)."""
        pol = self.policy
        t0 = time.monotonic()
        last_raw = self._read_beat(hb_path)
        last_change = t0
        while True:
            proc.join(pol.poll_interval)
            now = time.monotonic()
            raw = self._read_beat(hb_path)
            if raw != last_raw:
                last_raw, last_change = raw, now
            beat = self._parse_beat(last_raw)
            if not proc.is_alive():
                if proc.exitcode == 0:
                    return None
                code = proc.exitcode
                sig_note = (f"signal {-code}" if code is not None
                            and code < 0 else f"exit code {code}")
                ev = IsolationEvent(
                    kind="crash", attempt=attempt, elapsed=now - t0,
                    step=beat.get("step"), rss_mb=beat.get("rss_mb"),
                    exitcode=code,
                    message=f"{self.label}: child died with {sig_note}")
                self.events.append(ev)
                return ev
            rss = _read_rss_mb(proc.pid)
            if rss is None:
                rss = beat.get("rss_mb")
            violation = None
            if pol.deadline is not None and now - t0 > pol.deadline:
                violation = ("deadline",
                             f"{self.label}: wall-clock deadline "
                             f"{pol.deadline:.1f} s exceeded")
            elif (pol.memory_mb is not None and rss is not None
                    and rss > pol.memory_mb):
                violation = ("oom",
                             f"{self.label}: RSS {rss:.0f} MiB exceeds "
                             f"budget {pol.memory_mb:.0f} MiB")
            elif (pol.stall_timeout is not None
                    and now - last_change > pol.stall_timeout):
                violation = ("hang",
                             f"{self.label}: no heartbeat for "
                             f"{now - last_change:.1f} s (stall timeout "
                             f"{pol.stall_timeout:.1f} s)")
            if violation is None:
                continue
            kind, msg = violation
            self._kill(proc)
            ev = IsolationEvent(kind=kind, attempt=attempt,
                                elapsed=now - t0, step=beat.get("step"),
                                rss_mb=rss, exitcode=proc.exitcode,
                                message=msg)
            self.events.append(ev)
            return ev

    def _read_error_tail(self, err_path) -> str:
        try:
            with open(err_path) as f:
                lines = f.read().strip().splitlines()
            return lines[-1] if lines else ""
        except OSError:
            return ""

    def _exhausted(self, faults=None) -> SolverError:
        """Typed abort: restart budget gone; report carries the events
        (and, when a fault injector was armed, its exact schedule)."""
        last = self.events[-1] if self.events else None
        report = FailureReport(
            label=self.label,
            error=(last.message if last is not None
                   else f"{self.label}: isolation budget exhausted"),
            step=None if last is None else last.step,
            attempts=[e.to_dict() for e in self.events],
            isolation=[e.to_dict() for e in self.events],
            fault_schedule=(None if faults is None
                            or not hasattr(faults, "to_json")
                            else faults.to_json()))
        err = SolverError(
            f"{self.label}: isolated solve killed "
            f"{len(self.events)} time(s) "
            f"({'/'.join(e.kind for e in self.events)}) and the restart "
            f"budget ({self.policy.max_restarts}) is exhausted",
            exitcode=None if last is None else last.exitcode)
        err.report = report
        return err

    # -- public API -----------------------------------------------------

    def run_solver(self, factory, run_kwargs: dict | None = None, *,
                   workdir, faults=None, resilience=None, watchdog=None,
                   degradation=None, on_spawn=None):
        """March ``factory()`` to completion inside supervised children.

        Parameters
        ----------
        factory:
            Zero-argument callable building a fresh, initialised
            persist-protocol solver (euler1d, euler2d/ns2d,
            reacting_euler2d).  Runs inside the child (fork start
            method: no pickling needed).
        run_kwargs:
            Keyword arguments for ``solver.run``.
        workdir:
            Directory for the durable snapshot ladder, heartbeat file
            and error notes.  The snapshots are what a fresh child
            resumes from after a kill.
        faults:
            Optional :class:`~repro.resilience.faults.FaultInjector`
            armed **only for the first attempt** — the model is a
            transient upset; restarted children run clean and replay
            from the last durable snapshot.
        resilience, watchdog, degradation:
            Passed through to ``solver.run`` in the child.
        on_spawn:
            Optional ``on_spawn(pid, attempt)`` hook called right after
            each child starts (ops/testing: pin, trace or — in the test
            suite — SIGSTOP it).

        Returns the completed solver, rebuilt bit-for-bit from the
        final durable snapshot, with ``solver.isolation_events`` set.
        Raises :class:`~repro.errors.SolverError` (with a
        :class:`~repro.resilience.report.FailureReport`) only when the
        restart budget is exhausted.
        """
        from repro.resilience.persistence import (PersistencePolicy,
                                                  SnapshotStore,
                                                  rebuild_solver)
        pol = self.policy
        self.events = []
        workdir = os.fspath(workdir)
        os.makedirs(workdir, exist_ok=True)
        ckpt_dir = os.path.join(workdir, "ckpt")
        hb_path = os.path.join(workdir, "heartbeat.json")
        for attempt in range(pol.max_restarts + 1):
            err_path = os.path.join(workdir, f"attempt-{attempt}.err")
            proc = self._spawn(_solver_child, (
                factory, run_kwargs, ckpt_dir, hb_path, err_path,
                faults if attempt == 0 else None, resilience, watchdog,
                degradation, pol.every_n_steps))
            try:
                if on_spawn is not None:
                    on_spawn(proc.pid, attempt)
                ev = self._supervise(proc, hb_path, attempt)
            finally:
                if proc.is_alive():   # supervisor itself raised
                    self._kill(proc)
            if ev is None:
                store = SnapshotStore(PersistencePolicy(dir=ckpt_dir))
                try:
                    snap = store.load_latest()
                except CheckpointError:
                    snap = None
                if snap is not None and snap.completed:
                    solver = rebuild_solver(snap)
                    solver.converged = snap.converged
                    solver.isolation_events = [e.to_dict()
                                               for e in self.events]
                    return solver
                # clean exit but the completed generation is missing or
                # failed verification (e.g. a torn/corrupt tail): treat
                # like a crash and let a fresh child re-march from the
                # newest valid snapshot
                ev = IsolationEvent(
                    kind="crash", attempt=attempt, elapsed=0.0,
                    exitcode=0,
                    message=(f"{self.label}: child exited cleanly but "
                             f"left no completed snapshot in "
                             f"{ckpt_dir!r} (corrupt or missing tail)"))
                self.events.append(ev)
                continue
            if ev.kind == "crash":
                tail = self._read_error_tail(err_path)
                if tail:
                    ev.message = f"{ev.message}: {tail}"
        raise self._exhausted(faults)

    def run_callable(self, fn, args: tuple = (), kwargs: dict | None
                     = None, *, workdir=None, on_spawn=None):
        """Run ``fn(*args, **kwargs)`` sandboxed; return its (pickled)
        result.

        A :class:`~repro.errors.CatError` that ``fn`` raises is re-raised
        here, not restarted, with a ``FailureReport`` attached when it
        carries none.  Restarts after a crash call ``fn`` again from
        scratch — idempotent work only (a farm job qualifies: its
        journal and durable solver snapshots make re-entry cheap).
        Hang detection applies only when ``policy.stall_timeout`` is set
        *and* the callable beats (every solver march inside it does, via
        the process heartbeat).
        """
        pol = self.policy
        self.events = []
        own_tmp = None
        if workdir is None:
            own_tmp = tempfile.TemporaryDirectory(prefix="repro-isolate-")
            workdir = own_tmp.name
        workdir = os.fspath(workdir)
        os.makedirs(workdir, exist_ok=True)
        hb_path = os.path.join(workdir, "heartbeat.json")
        res_path = os.path.join(workdir, "result.pkl")
        try:
            for attempt in range(pol.max_restarts + 1):
                err_path = os.path.join(workdir,
                                        f"attempt-{attempt}.err")
                try:
                    os.remove(res_path)
                except OSError:
                    pass
                proc = self._spawn(_callable_child, (
                    fn, args, kwargs, res_path, hb_path, err_path))
                try:
                    if on_spawn is not None:
                        on_spawn(proc.pid, attempt)
                    ev = self._supervise(proc, hb_path, attempt)
                finally:
                    if proc.is_alive():
                        self._kill(proc)
                if ev is None:
                    try:
                        with open(res_path, "rb") as f:
                            raised, value = pickle.load(f)
                    except (OSError, pickle.UnpicklingError, EOFError) \
                            as exc:
                        raise SolverError(
                            f"{self.label}: isolated child exited "
                            f"cleanly but its result could not be "
                            f"read back: {exc}") from exc
                    if not raised:
                        return value
                    if value.report is None:
                        value.report = FailureReport(
                            label=self.label, error=str(value),
                            attempts=[*(e.to_dict() for e in self.events),
                                      {"attempt": attempt,
                                       "error_type": type(value).__name__,
                                       "message": str(value)}])
                    raise value
                if ev.kind == "crash":
                    tail = self._read_error_tail(err_path)
                    if tail:
                        ev.message = f"{ev.message}: {tail}"
            raise self._exhausted()
        finally:
            if own_tmp is not None:
                own_tmp.cleanup()
