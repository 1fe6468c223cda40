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
  to the child's self-reported ``getrusage`` numbers) and heartbeat
  **stall timeout** (a hang is declared after silence, not just total
  elapsed time);
* :class:`IsolationEvent` — the typed record (``hang`` / ``oom`` /
  ``deadline`` / ``crash``) every kill leaves behind;
* :class:`Sandbox` — one running child, checked against the budgets by
  each non-blocking :meth:`Sandbox.poll`, so one supervisor (the solve
  farm) can watch many;
* :class:`IsolatedRunner` — runs one call in a supervised child
  process, once: :meth:`~IsolatedRunner.run_callable` (used by the
  batch service) supervises it to the end; the solve farm calls its two
  halves, :meth:`~IsolatedRunner.start` and
  :meth:`~IsolatedRunner.result`, around its own supervision loop.  On
  a violation the child's group is killed, the event recorded, and the
  call raises with a :class:`~repro.resilience.report.FailureReport`
  carrying it.

A sandbox never restarts itself.  A killed march resumes as a farm job
does: the queue retries the job, and the next attempt's march resumes
from the durable snapshots in its ``work/<id>/ckpt`` directory (see
:mod:`repro.resilience.farm`).

A sandbox started inside a sandbox (a farm ``batch`` chunk's sandboxed
request) stays in the enclosing sandbox's process group — only a
top-level sandbox calls ``setpgid`` — so the one group kill that ends
the outer sandbox ends every sandbox inside it.

The chaos harness (:mod:`repro.resilience.chaos`, ``python -m repro
chaos``) drives random fault schedules through farm sandboxes and
asserts the invariants hold round after round.
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

from repro.errors import CatError, SolverError
from repro.resilience.persistence import atomic_write
from repro.resilience.report import FailureReport

__all__ = ["Heartbeat", "IsolationEvent", "IsolationPolicy",
           "IsolatedRunner", "Sandbox", "current_process_cancel",
           "current_process_heartbeat", "set_process_cancel",
           "set_process_heartbeat", "signal_group", "kill_pid_tree"]

#: Budget-check period [s] of the blocking supervision loop
#: (:meth:`IsolatedRunner.run_callable`); the loop still wakes at once
#: when the child exits.
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
    """The three budgets of a sandboxed call.

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
        that never beat); every solver march beats every step.
    """

    deadline: float | None = None
    memory_mb: float | None = None
    stall_timeout: float | None = None


@dataclass
class IsolationEvent:
    """One kill (or child death) observed by the supervising parent.

    ``kind`` is one of ``"hang"`` (heartbeat silence beyond the stall
    timeout), ``"oom"`` (RSS budget exceeded), ``"deadline"``
    (wall-clock budget exceeded) or ``"crash"`` (the child died on its
    own — non-zero exit or a signal).
    """

    kind: str
    elapsed: float
    message: str
    step: int | None = None
    rss_mb: float | None = None
    exitcode: int | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind,
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
    # catlint: disable=CAT012 -- sandbox child boundary: every failure,
    # *including* SimulatedCrash, must become a written traceback plus a
    # nonzero exit so the supervising parent sees a crash, not a hang
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

    :meth:`IsolatedRunner.start` forks it into ``workdir``, where it
    keeps its heartbeat (``heartbeat.json``) and error notes
    (``child.err``).  Each
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

    def __init__(self, runner, workdir: str, target, *args):
        self.runner = runner
        self.workdir = workdir
        self.hb_path = os.path.join(workdir, "heartbeat.json")
        self.err_path = os.path.join(workdir, "child.err")
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
                kind="crash", elapsed=now - self.t0,
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
        self.stop(IsolationEvent(kind=kind, elapsed=now - self.t0,
                                 step=beat.get("step"), rss_mb=rss,
                                 message=msg))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

class IsolatedRunner:
    """Supervised, sandboxed execution of one call at a time.

    Parameters
    ----------
    policy:
        An :class:`IsolationPolicy` (None for the defaults).
    label:
        Name used in events, errors and reports.

    After a run, :attr:`events` holds the :class:`IsolationEvent` of
    its kill (empty for an undisturbed call).
    """

    def __init__(self, policy: IsolationPolicy | None = None, *,
                 label: str | None = None):
        self.policy = policy or IsolationPolicy()
        self.label = label or "isolated"
        self.events: list[IsolationEvent] = []

    def _killed(self, message: str) -> SolverError:
        """Typed abort; its report carries the kill's event."""
        last = self.events[-1] if self.events else None
        report = FailureReport(
            label=self.label,
            error=(last.message if last is not None
                   else f"{self.label}: {message}"),
            step=None if last is None else last.step,
            attempts=[e.to_dict() for e in self.events],
            isolation=[e.to_dict() for e in self.events])
        err = SolverError(f"{self.label}: {message}",
                          exitcode=None if last is None else last.exitcode)
        err.report = report
        return err

    # -- public API -----------------------------------------------------

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
        return Sandbox(self, workdir, _callable_child, fn, args, kwargs,
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
                attempts=[{"attempt": 0,
                           "error_type": type(value).__name__,
                           "message": str(value)}])
        raise value

    def run_callable(self, fn, args: tuple = (), kwargs: dict | None
                     = None, *, workdir=None, on_spawn=None):
        """Run ``fn(*args, **kwargs)`` sandboxed, once; return its
        (pickled) result — :meth:`start`, polled until the child is
        gone (waking when it exits or every :data:`_POLL_INTERVAL`),
        then :meth:`result`.

        Hang detection applies only when ``policy.stall_timeout`` is set
        *and* the callable beats (every solver march inside it does, via
        the process heartbeat).  ``on_spawn(pid)``, when given, is
        called right after the child starts; when it or the loop raises,
        the child is killed first.  Without ``workdir`` the sandbox
        keeps its files in a temporary directory removed on return.
        """
        with (tempfile.TemporaryDirectory(prefix="repro-isolate-")
              if workdir is None else contextlib.nullcontext(workdir)) \
                as wd:
            sb = self.start(fn, args, kwargs, workdir=wd)
            try:
                if on_spawn is not None:
                    on_spawn(sb.pid)
                while not sb.poll():
                    wait([sb.sentinel], _POLL_INTERVAL)
            finally:
                if not sb.done:
                    sb.stop()
                    while not sb.poll():
                        wait([sb.sentinel], _POLL_INTERVAL)
            return self.result(sb)
