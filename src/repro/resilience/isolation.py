"""Process-level isolation: sandboxed solves under deadline, memory
budget and heartbeat supervision.

The in-process resilience ladder (rollback-retry, durable
persistence) recovers from *numerical* and *crash* failures —
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
  elapsed time) and, for marching solves, a bounded **restart budget**;
* :class:`IsolationEvent` — the typed record (``hang`` / ``oom`` /
  ``deadline`` / ``crash``) every kill leaves behind;
* :class:`Sandbox` — one running child, checked against the budgets by
  each non-blocking :meth:`Sandbox.poll`, so one supervisor (the solve
  farm) can watch many;
* :class:`IsolatedRunner` — executes any persist-protocol marching
  solver (:meth:`IsolatedRunner.run_solver`) or an arbitrary callable
  (:meth:`IsolatedRunner.run_callable`, used by the batch service; the
  solve farm calls its two halves, :meth:`~IsolatedRunner.start` and
  :meth:`~IsolatedRunner.result`, around its own supervision loop) in a
  supervised child process.  On a violation the child's group is
  killed and the event recorded.  A marching solve is then
  **auto-resumed in a fresh child from the durable**
  :class:`~repro.resilience.persistence.SnapshotStore`, with the
  caller's own ``resilience`` and ``watchdog`` and no faults, so a
  wedged solve becomes a resumed solve, not an abort; only
  restart-budget exhaustion raises, and then with a
  :class:`~repro.resilience.report.FailureReport` carrying every
  isolation event (and the exact fault schedule, when one was armed).
  A callable runs once: its kill raises at once, with the same report.

A sandbox started inside a sandbox (a farm ``chaos_round`` job's inner
march, a farm ``batch`` chunk's sandboxed request) stays in the
enclosing sandbox's process group — only a top-level sandbox calls
``setpgid`` — so the one group kill that ends the outer sandbox ends
every sandbox inside it.

The chaos harness (:mod:`repro.resilience.chaos`, ``python -m repro
chaos``) drives random fault schedules through this runner and asserts
the invariants hold round after round.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pickle
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait

import multiprocessing as mp

from repro.errors import CatError, CheckpointError, SolverError
from repro.resilience.persistence import atomic_write
from repro.resilience.report import FailureReport

__all__ = ["Heartbeat", "IsolationEvent", "IsolationPolicy",
           "IsolatedRunner", "Sandbox", "current_process_cancel",
           "current_process_heartbeat", "set_process_cancel",
           "set_process_heartbeat", "signal_group", "kill_pid_tree"]

#: Budget-check period [s] of the blocking supervision loop
#: (:meth:`IsolatedRunner.run_solver`, :meth:`IsolatedRunner.run_callable`);
#: the loop still wakes at once when the child exits.
_POLL_INTERVAL = 0.02

#: Seconds between the SIGTERM that starts a kill and the SIGKILL that
#: ends it.  Only a child that ignores SIGTERM (a chaos hang fault)
#: waits it out.
_TERM_GRACE = 1.0

#: True in a sandbox child, and through fork in every sandbox it
#: starts: only a top-level sandbox leaves its parent's process group.
_IN_SANDBOX = False


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

    The payload names its writer's ``pid``.
    """

    def __init__(self, path, *, min_interval: float = 0.02):
        self.path = os.fspath(path)
        self.min_interval = float(min_interval)
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


def kill_pid_tree(pid: int | None) -> None:
    """SIGKILL a process group, with SIGCONT so a stopped group dies
    too: a sandbox's end, a chaos kill, a dead host's orphan sweep and
    the job layer's cancel escalation all take a tree down this way."""
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
        Fresh children :meth:`IsolatedRunner.run_solver` spawns after
        kills before it gives up and raises with a report.  0 = one
        attempt, no resume.  A callable always runs once.
    every_n_steps:
        Durable snapshot cadence the child marches with (the resume
        granularity after a kill); an integer >= 1.
    """

    deadline: float | None = None
    memory_mb: float | None = None
    stall_timeout: float | None = None
    max_restarts: int = 2
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
    """Common child prologue: the process group (see the module
    docstring's nesting rule), the default SIGTERM action — a kill must
    end the child, not run a handler it inherited through fork, such as
    the farm supervisor's drain flag — and the process heartbeat."""
    global _IN_SANDBOX
    if not _IN_SANDBOX:
        _IN_SANDBOX = True
        try:
            os.setpgid(0, 0)
        except OSError:
            pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    set_process_heartbeat(Heartbeat(hb_path))


def _write_error(err_path, exc):
    try:
        with open(err_path, "w") as f:
            f.write("".join(traceback.format_exception(exc)))
    except OSError:
        pass


def _solver_child(hb_path, err_path, factory, run_kwargs, persist,
                  faults, resilience, watchdog):
    """Build the solver and march it durably inside the sandbox."""
    _enter_sandbox(hb_path)
    try:
        solver = factory()
        solver.run(**dict(run_kwargs or {}), persist=persist,
                   faults=faults, resilience=resilience,
                   watchdog=watchdog)
        sys.exit(0)
    except SystemExit:
        raise
    # catlint: disable=CAT012 -- sandbox child boundary: every failure,
    # *including* SimulatedCrash, must become a written traceback plus a
    # nonzero exit so the supervising parent sees a crash, not a hang
    except BaseException as exc:
        _write_error(err_path, exc)
        sys.exit(70)


def _callable_child(hb_path, err_path, fn, args, kwargs, res_path):
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
# one sandbox, watched without blocking
# ----------------------------------------------------------------------

def _read_beat(hb_path):
    try:
        with open(hb_path, "rb") as f:
            return f.read()
    except OSError:
        return None


def _parse_beat(raw) -> dict:
    if not raw:
        return {}
    try:
        return json.loads(raw.decode())
    except (ValueError, UnicodeDecodeError):
        return {}


def _read_error_tail(err_path) -> str:
    try:
        with open(err_path) as f:
            lines = f.read().strip().splitlines()
        return lines[-1] if lines else ""
    except OSError:
        return ""


def _exited(pid: int) -> bool:
    """Has our child ``pid`` exited?  Peeks without reaping, so the pid
    — and with it the child's process group id — stays reserved for
    one more group signal."""
    try:
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG
                         | os.WNOWAIT) is not None
    except ChildProcessError:
        return True   # reaped already: Process.start reaps its siblings


class Sandbox:
    """One running sandbox child, supervised without blocking.

    :meth:`IsolatedRunner.start` (or :meth:`IsolatedRunner.run_solver`)
    forks it into ``workdir``, where it keeps its heartbeat
    (``heartbeat.json``) and error notes (``attempt-N.err``).  Each
    :meth:`poll` checks it once against the runner's budgets and returns
    True once the child is gone.  A violation, or :meth:`stop`, starts
    the kill, which spans polls: SIGTERM and SIGCONT (a stopped child
    must be continued to hear anything) to the child's process group
    now, SIGKILL to the group once the child has exited or
    :data:`_TERM_GRACE` has passed.  The group is SIGKILLed whenever its
    leader ends, so nothing the sandbox started outlives it.

    After the last poll :attr:`exitcode` is the child's exit code and
    :attr:`event` the recorded :class:`IsolationEvent` (also appended to
    the runner's ``events``) — None for a clean exit or a :meth:`stop`.
    Wait on :attr:`sentinel` (``multiprocessing.connection.wait``) to
    wake when the child exits.
    """

    def __init__(self, runner, workdir: str, attempt: int, target,
                 *args):
        self.runner = runner
        self.workdir = workdir
        self.attempt = attempt
        self.hb_path = os.path.join(workdir, "heartbeat.json")
        self.err_path = os.path.join(workdir, f"attempt-{attempt}.err")
        self._raw = _read_beat(self.hb_path)
        self.proc = mp.get_context("fork").Process(
            target=target, args=(self.hb_path, self.err_path, *args),
            daemon=False)
        self.proc.start()
        self.pid = self.proc.pid
        self.sentinel = self.proc.sentinel
        self.t0 = self._changed = time.monotonic()
        self._kill_at: float | None = None
        self.event: IsolationEvent | None = None
        self.exitcode: int | None = None
        self.done = False

    def stop(self, event: IsolationEvent | None = None) -> None:
        """Start killing the child and return at once; later polls end
        the kill.  ``event`` records why; None (a stop on the caller's
        behalf) records nothing."""
        if self.done or self._kill_at is not None:
            return
        if event is not None:
            self.event = event
            self.runner.events.append(event)
        signal_group(self.pid, signal.SIGTERM)
        signal_group(self.pid, signal.SIGCONT)
        self._kill_at = time.monotonic() + _TERM_GRACE

    def poll(self, now: float | None = None) -> bool:
        """Check the child once, without blocking; True once it is gone
        (exited and reaped)."""
        if self.done:
            return True
        now = time.monotonic() if now is None else now
        raw = _read_beat(self.hb_path)
        if raw != self._raw:
            self._raw, self._changed = raw, now
        beat = _parse_beat(self._raw)
        if not _exited(self.pid):
            if self._kill_at is None:
                self._check_budgets(now, beat)
            elif now >= self._kill_at:
                kill_pid_tree(self.pid)
                self._kill_at = math.inf
            return False
        kill_pid_tree(self.pid)   # before the reap frees the group id
        self.proc.join()          # the child is a zombie: returns at once
        self.exitcode = code = self.proc.exitcode
        self.done = True
        if self.event is not None:
            self.event.exitcode = code
        elif code != 0 and self._kill_at is None:
            sig_note = (f"signal {-code}" if code is not None and code < 0
                        else f"exit code {code}")
            self.event = IsolationEvent(
                kind="crash", attempt=self.attempt, elapsed=now - self.t0,
                step=beat.get("step"), rss_mb=beat.get("rss_mb"),
                exitcode=code,
                message=f"{self.runner.label}: child died with {sig_note}")
            self.runner.events.append(self.event)
        return True

    def _check_budgets(self, now: float, beat: dict) -> None:
        """Start the kill on a violation: deadline, then RSS, then
        heartbeat silence."""
        pol, label = self.runner.policy, self.runner.label
        rss = _read_rss_mb(self.pid)
        if rss is None:
            rss = beat.get("rss_mb")
        silent = now - self._changed
        if pol.deadline is not None and now - self.t0 > pol.deadline:
            kind, msg = ("deadline", f"{label}: wall-clock deadline "
                                     f"{pol.deadline:.1f} s exceeded")
        elif (pol.memory_mb is not None and rss is not None
                and rss > pol.memory_mb):
            kind, msg = ("oom", f"{label}: RSS {rss:.0f} MiB exceeds "
                                f"budget {pol.memory_mb:.0f} MiB")
        elif pol.stall_timeout is not None and silent > pol.stall_timeout:
            kind, msg = ("hang", f"{label}: no heartbeat for {silent:.1f} "
                                 f"s (stall timeout "
                                 f"{pol.stall_timeout:.1f} s)")
        else:
            return
        self.stop(IsolationEvent(kind=kind, attempt=self.attempt,
                                 elapsed=now - self.t0,
                                 step=beat.get("step"), rss_mb=rss,
                                 message=msg))


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

    def _supervise(self, sb: Sandbox, on_spawn=None) -> IsolationEvent | None:
        """Poll ``sb`` until it is gone, waking when it exits or every
        :data:`_POLL_INTERVAL`; returns its event (None: clean exit).
        When the hook or the loop raises, the child is killed first."""
        try:
            if on_spawn is not None:
                on_spawn(sb.pid, sb.attempt)
            while not sb.poll():
                wait([sb.sentinel], _POLL_INTERVAL)
        finally:
            if not sb.done:
                sb.stop()
                while not sb.poll():
                    wait([sb.sentinel], _POLL_INTERVAL)
        return sb.event

    def _killed(self, message: str, faults=None) -> SolverError:
        """Typed abort; its report carries every event (and, when a
        fault injector was armed, its exact schedule)."""
        last = self.events[-1] if self.events else None
        report = FailureReport(
            label=self.label,
            error=(last.message if last is not None
                   else f"{self.label}: {message}"),
            step=None if last is None else last.step,
            attempts=[e.to_dict() for e in self.events],
            isolation=[e.to_dict() for e in self.events],
            fault_schedule=(None if faults is None
                            or not hasattr(faults, "to_json")
                            else faults.to_json()))
        err = SolverError(f"{self.label}: {message}",
                          exitcode=None if last is None else last.exitcode)
        err.report = report
        return err

    # -- public API -----------------------------------------------------

    def run_solver(self, factory, run_kwargs: dict | None = None, *,
                   workdir, faults=None, resilience=None, watchdog=None,
                   on_spawn=None):
        """March ``factory()`` to completion inside supervised children.

        Parameters
        ----------
        factory:
            Zero-argument callable building a fresh, initialised
            persist-protocol solver (euler1d, euler2d/ns2d,
            reacting_euler2d).  Runs inside each child (fork start
            method: no pickling needed), and once in the parent to
            take the final snapshot.
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
        resilience, watchdog:
            Passed through to ``solver.run`` in the child.
        on_spawn:
            Optional ``on_spawn(pid, attempt)`` hook called right after
            each child starts (ops/testing: pin, trace or — in the test
            suite — SIGSTOP it).

        Returns a fresh ``factory()`` solver holding the final durable
        snapshot's state (fingerprint-checked), with
        ``solver.isolation_events`` set.  Raises
        :class:`~repro.errors.SolverError` (with a
        :class:`~repro.resilience.report.FailureReport`) only when the
        restart budget is exhausted, and the store's
        :class:`~repro.errors.CheckpointError` before any child starts
        when ``policy.every_n_steps`` is not an integer >= 1.
        """
        from repro.resilience.persistence import (PersistencePolicy,
                                                  SnapshotStore)
        pol = self.policy
        self.events = []
        workdir = os.fspath(workdir)
        os.makedirs(workdir, exist_ok=True)
        ckpt_dir = os.path.join(workdir, "ckpt")
        persist = PersistencePolicy(dir=ckpt_dir,
                                    every_n_steps=pol.every_n_steps)
        store = SnapshotStore(persist)
        for attempt in range(pol.max_restarts + 1):
            sb = Sandbox(self, workdir, attempt, _solver_child, factory,
                         run_kwargs, persist,
                         faults if attempt == 0 else None, resilience,
                         watchdog)
            ev = self._supervise(sb, on_spawn)
            if ev is None:
                solver = factory()
                try:
                    snap = store.load_latest(solver=solver)
                except CheckpointError:
                    snap = None
                if snap is not None and snap.completed:
                    solver.converged = snap.converged
                    solver.isolation_events = [e.to_dict()
                                               for e in self.events]
                    return solver
                # clean exit but the completed generation is missing or
                # failed verification (e.g. a torn/corrupt tail): treat
                # like a crash and let a fresh child re-march from the
                # newest valid snapshot
                self.events.append(IsolationEvent(
                    kind="crash", attempt=attempt, elapsed=0.0,
                    exitcode=0,
                    message=(f"{self.label}: child exited cleanly but "
                             f"left no completed snapshot in "
                             f"{ckpt_dir!r} (corrupt or missing tail)")))
                continue
            if ev.kind == "crash":
                tail = _read_error_tail(sb.err_path)
                if tail:
                    ev.message = f"{ev.message}: {tail}"
        raise self._killed(
            f"isolated solve killed {len(self.events)} time(s) "
            f"({'/'.join(e.kind for e in self.events)}) and the restart "
            f"budget ({pol.max_restarts}) is exhausted", faults)

    def start(self, fn, args: tuple = (), kwargs: dict | None = None, *,
              workdir) -> Sandbox:
        """Fork ``fn(*args, **kwargs)`` into a sandbox and return it at
        once: poll it until it is gone, then read its outcome with
        :meth:`result`.  ``workdir`` holds the heartbeat, the pickled
        result and the error notes; this runner's :attr:`events`
        restart empty."""
        self.events = []
        workdir = os.fspath(workdir)
        os.makedirs(workdir, exist_ok=True)
        res_path = os.path.join(workdir, "result.pkl")
        try:
            os.remove(res_path)
        except OSError:
            pass
        return Sandbox(self, workdir, 0, _callable_child, fn, args, kwargs,
                       res_path)

    def result(self, sb: Sandbox):
        """What a finished :meth:`start` sandbox returned.

        Re-raises the :class:`~repro.errors.CatError` ``fn`` raised (not
        restarted), with a ``FailureReport`` attached when it carries
        none; a killed, crashed or stopped child raises
        :class:`~repro.errors.SolverError` with the report of its event.
        """
        if sb.event is not None or sb.exitcode != 0:
            ev = sb.event
            if ev is not None and ev.kind == "crash":
                tail = _read_error_tail(sb.err_path)
                if tail:
                    ev.message = f"{ev.message}: {tail}"
            raise self._killed(
                "sandboxed call stopped" if ev is None
                else f"sandboxed call killed ({ev.kind})")
        try:
            with open(os.path.join(sb.workdir, "result.pkl"), "rb") as f:
                raised, value = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise SolverError(
                f"{self.label}: isolated child exited cleanly but its "
                f"result could not be read back: {exc}") from exc
        if not raised:
            return value
        if value.report is None:
            value.report = FailureReport(
                label=self.label, error=str(value),
                attempts=[*(e.to_dict() for e in self.events),
                          {"attempt": sb.attempt,
                           "error_type": type(value).__name__,
                           "message": str(value)}])
        raise value

    def run_callable(self, fn, args: tuple = (), kwargs: dict | None
                     = None, *, workdir=None, on_spawn=None):
        """Run ``fn(*args, **kwargs)`` sandboxed, once; return its
        (pickled) result — :meth:`start`, supervised to the end, then
        :meth:`result`.

        Hang detection applies only when ``policy.stall_timeout`` is set
        *and* the callable beats (every solver march inside it does, via
        the process heartbeat).  Without ``workdir`` the sandbox keeps
        its files in a temporary directory removed on return.
        """
        with (tempfile.TemporaryDirectory(prefix="repro-isolate-")
              if workdir is None else contextlib.nullcontext(workdir)) \
                as wd:
            sb = self.start(fn, args, kwargs, workdir=wd)
            self._supervise(sb, on_spawn)
            return self.result(sb)
