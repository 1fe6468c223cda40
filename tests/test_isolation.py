"""Process-isolation tests.

The contract under test (see DESIGN.md "Process isolation" and
ISSUE acceptance criteria):

* a genuinely SIGSTOPped child (real OS stop, not a simulation) is
  declared hung via heartbeat silence, killed through the
  SIGCONT+SIGTERM→SIGKILL escalation and auto-resumed from the latest
  durable snapshot to a **bitwise-identical** final state,
* a child that actually balloons its RSS past the budget is killed with
  an ``oom`` event and likewise resumed bitwise,
* a wall-clock deadline expiring mid-march kills and resumes,
* restart-budget exhaustion raises a typed :class:`SolverError`
  carrying a :class:`FailureReport` with every isolation event and the
  exact fault schedule for replay,
* the chaos harness is deterministic (same seed → same schedules →
  same outcomes) and leaves no orphan processes,
* the CLI exits 0 on success, 1 on solver failure, 2 on usage errors.
"""

import io
import json
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import InputError, SolverError
from repro.resilience import (FaultInjector, IsolatedRunner,
                              IsolationPolicy)
from repro.resilience.chaos import (CASES, run_chaos, run_chaos_hosts,
                                    run_chaos_jobs, sample_schedule)
from repro.resilience.isolation import _read_rss_mb


def _state_bytes(solver):
    out = {}
    for k, v in solver.get_state().items():
        out[k] = v.tobytes() if isinstance(v, np.ndarray) else v
    return out


def _no_orphans():
    for p in mp.active_children():
        p.join(timeout=2.0)
    return not any(p.is_alive() for p in mp.active_children())


def _chaos_ledger(out, mode, check_names):
    """The campaign ledger in ``out``: its mode, its exact check names,
    and ``ok`` as the conjunction of the checks."""
    with open(out / "chaos-ledger.json") as f:
        ledger = json.load(f)
    assert ledger["mode"] == mode
    assert sorted(ledger["checks"]) == sorted(check_names)
    assert ledger["ok"] == all(ledger["checks"].values())
    return ledger


def _assert_host_pids(ledger, kinds):
    """Each ``kinds`` timeline event names its host's supervisor pid
    first and at least one worker pid after it."""
    up = {e["host"]: e["pid"] for e in ledger["events"]
          if e["event"] == "host-up"}
    events = [e for e in ledger["events"] if e["event"] in kinds]
    assert sorted(e["event"] for e in events) == sorted(kinds)
    for e in events:
        assert e["pids"][0] == up[e["host"]] and len(e["pids"]) >= 2, e


# ----------------------------------------------------------------------
# real hang: SIGSTOP mid-march
# ----------------------------------------------------------------------


class TestSigstopHang:
    def test_stopped_child_killed_and_resumed_bitwise(self, tmp_path):
        """SIGSTOP a marching child once it has durable snapshots; the
        runner must see heartbeat silence, kill through the SIGCONT
        escalation, and resume to the uninterrupted answer."""
        factory, _, _, _ = CASES["euler2d"]
        run_kwargs = {"n_steps": 40, "cfl": 0.3}
        ref = factory()
        ref.run(**run_kwargs)

        hb_path = tmp_path / "heartbeat.json"
        stopped = []

        def stopper(pid, attempt):
            if attempt != 0:
                return

            def watch():
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    try:
                        with open(hb_path) as f:
                            beat = json.load(f)
                    except (OSError, ValueError):
                        beat = {}
                    if (beat.get("step") or 0) >= 8:
                        try:
                            os.kill(pid, signal.SIGSTOP)
                        except ProcessLookupError:
                            return
                        stopped.append(beat["step"])
                        return
                    time.sleep(0.005)

            threading.Thread(target=watch, daemon=True).start()

        policy = IsolationPolicy(stall_timeout=1.0, max_restarts=2,
                                 term_grace=1.0, every_n_steps=3,
                                 poll_interval=0.05)
        runner = IsolatedRunner(policy, label="sigstop")
        solver = runner.run_solver(factory, run_kwargs,
                                   workdir=tmp_path, on_spawn=stopper)

        assert stopped, "watcher never caught the march to SIGSTOP it"
        kinds = [e.kind for e in runner.events]
        assert kinds == ["hang"], kinds
        assert runner.events[0].attempt == 0
        assert _state_bytes(solver) == _state_bytes(ref)
        assert solver.isolation_events[0]["kind"] == "hang"
        assert _no_orphans()


# ----------------------------------------------------------------------
# real memory balloon
# ----------------------------------------------------------------------


class TestMemoryBalloon:
    def test_ballooning_child_killed_as_oom_and_resumed(self, tmp_path):
        factory, run_kwargs, _, _ = CASES["euler1d"]
        ref = factory()
        ref.run(**run_kwargs)

        base = _read_rss_mb()
        assert base is not None, "RSS introspection unavailable"
        # a fork child shares the parent's resident pages, so the budget
        # must sit above the parent's own RSS; the 500 MiB balloon blows
        # straight through the 250 MiB headroom
        faults = FaultInjector().inject_memory_balloon(step=9, mb=500.0,
                                                       hold=600.0)
        policy = IsolationPolicy(memory_mb=base + 250.0,
                                 stall_timeout=None, max_restarts=2,
                                 term_grace=1.0, every_n_steps=3)
        runner = IsolatedRunner(policy, label="balloon")
        solver = runner.run_solver(factory, run_kwargs,
                                   workdir=tmp_path, faults=faults)

        kinds = [e.kind for e in runner.events]
        assert kinds == ["oom"], kinds
        ev = runner.events[0]
        assert ev.rss_mb is not None and ev.rss_mb > policy.memory_mb
        assert _state_bytes(solver) == _state_bytes(ref)
        assert _no_orphans()


# ----------------------------------------------------------------------
# deadline expiry mid-march
# ----------------------------------------------------------------------


class TestDeadline:
    def test_deadline_expiry_kills_and_resumes(self, tmp_path):
        factory, run_kwargs, _, _ = CASES["euler1d"]
        ref = factory()
        ref.run(**run_kwargs)

        # the hang fault parks the march mid-way with SIGTERM ignored:
        # the deadline (stall detection off) is what must fire, and the
        # kill must escalate to SIGKILL past the ignored SIGTERM
        faults = FaultInjector().inject_hang(step=7, duration=600.0)
        policy = IsolationPolicy(deadline=2.0, stall_timeout=None,
                                 max_restarts=1, term_grace=0.5,
                                 every_n_steps=3)
        runner = IsolatedRunner(policy, label="deadline")
        t0 = time.monotonic()
        solver = runner.run_solver(factory, run_kwargs,
                                   workdir=tmp_path, faults=faults)
        elapsed = time.monotonic() - t0

        kinds = [e.kind for e in runner.events]
        assert kinds == ["deadline"], kinds
        assert _state_bytes(solver) == _state_bytes(ref)
        # deadline + grace + resume, not the fault's 600 s sleep
        assert elapsed < 30.0
        assert _no_orphans()


# ----------------------------------------------------------------------
# restart-budget exhaustion -> typed abort
# ----------------------------------------------------------------------


class TestRestartBudget:
    def test_exhaustion_raises_with_report_and_schedule(self, tmp_path):
        factory, run_kwargs, _, _ = CASES["euler1d"]
        faults = FaultInjector().inject_crash(step=99)  # never fires

        def stopper(pid, attempt):
            os.kill(pid, signal.SIGSTOP)   # every attempt wedges at birth

        policy = IsolationPolicy(stall_timeout=0.5, max_restarts=2,
                                 term_grace=0.5, every_n_steps=3)
        runner = IsolatedRunner(policy, label="wedged")
        with pytest.raises(SolverError) as exc:
            runner.run_solver(factory, run_kwargs, workdir=tmp_path,
                              faults=faults, on_spawn=stopper)
        err = exc.value
        assert "restart budget" in str(err)
        report = err.report
        assert report is not None
        assert len(report.isolation) == policy.max_restarts + 1
        assert all(e["kind"] == "hang" for e in report.isolation)
        assert report.fault_schedule == faults.to_json()
        # the embedded schedule re-arms for deterministic replay
        clone = FaultInjector.from_json(report.fault_schedule)
        assert clone.to_json() == faults.to_json()
        assert "isolation kills" in report.summary()
        assert _no_orphans()

    def test_callable_exhaustion(self):
        policy = IsolationPolicy(stall_timeout=0.5, max_restarts=1,
                                 term_grace=0.5)
        runner = IsolatedRunner(policy, label="sleeper")
        with pytest.raises(SolverError) as exc:
            runner.run_callable(time.sleep, (600.0,))
        assert len(exc.value.report.isolation) == 2
        assert _no_orphans()


# ----------------------------------------------------------------------
# sandboxed callables
# ----------------------------------------------------------------------


class TestRunCallable:
    def test_result_round_trip(self):
        runner = IsolatedRunner(IsolationPolicy(), label="plain")
        assert runner.run_callable(sum, ([1, 2, 3],)) == 6
        assert runner.events == []

    def test_idempotent_retry_after_deadline(self, tmp_path):
        marker = tmp_path / "first-attempt"

        def flaky():
            if marker.exists():
                return 42
            marker.write_text("x")
            time.sleep(600.0)

        policy = IsolationPolicy(deadline=1.0, max_restarts=1,
                                 term_grace=0.5)
        runner = IsolatedRunner(policy, label="flaky")
        assert runner.run_callable(flaky) == 42
        assert [e.kind for e in runner.events] == ["deadline"]
        assert _no_orphans()

    def test_child_exception_becomes_crash_event(self):
        def boom():
            raise RuntimeError("scripted failure")

        policy = IsolationPolicy(max_restarts=0)
        runner = IsolatedRunner(policy, label="boom")
        with pytest.raises(SolverError) as exc:
            runner.run_callable(boom)
        assert [e.kind for e in runner.events] == ["crash"]
        assert "scripted failure" in runner.events[0].message
        assert exc.value.report is not None

    def test_typed_error_keeps_its_type_and_is_not_restarted(self):
        def bad_input():
            raise InputError("scripted input error")

        policy = IsolationPolicy(max_restarts=2)
        runner = IsolatedRunner(policy, label="typed")
        with pytest.raises(InputError, match="scripted input error") as exc:
            runner.run_callable(bad_input)
        assert runner.events == []
        assert exc.value.report.label == "typed"
        assert exc.value.report.attempts == [
            {"attempt": 0, "error_type": "InputError",
             "message": "scripted input error"}]


# ----------------------------------------------------------------------
# chaos harness determinism and hygiene
# ----------------------------------------------------------------------


class TestChaosHarness:
    def test_same_seed_same_schedule(self):
        for case in sorted(CASES):
            f1, s1 = sample_schedule(np.random.default_rng(42), case)
            f2, s2 = sample_schedule(np.random.default_rng(42), case)
            assert s1 == s2
            assert f1.to_json() == f2.to_json()
            assert repr(f1) == repr(f2)

    def test_schedule_json_round_trip(self):
        rng = np.random.default_rng(3)
        for case in sorted(CASES):
            fi, _ = sample_schedule(rng, case)
            clone = FaultInjector.from_json(fi.to_json())
            assert clone.to_json() == fi.to_json()
            assert repr(clone) == repr(fi)

    def test_campaign_deterministic_and_leaves_no_orphans(self,
                                                          tmp_path):
        """Two euler1d-only campaigns with the same seed must sample the
        same schedules, reach the same outcomes, exit 0 and leave no
        children behind."""
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            rc = run_chaos(rounds=2, seed=11, out=str(out),
                           deadline=30.0, stall_timeout=1.0,
                           cases=["euler1d"], stream=io.StringIO())
            assert rc == 0
            assert _no_orphans()
        for i in range(2):
            reports = []
            for out in outs:
                with open(out / f"round-{i:03d}.json") as f:
                    reports.append(json.load(f))
            a, b = reports
            assert a["schedule"] == b["schedule"]
            assert a["outcome"] == b["outcome"]
            assert [e["kind"] for e in a["events"]] == \
                [e["kind"] for e in b["events"]]
            assert a["ok"] and b["ok"]
        ledgers = [_chaos_ledger(out, "serial", ["rounds_ok"])
                   for out in outs]
        assert ledgers[0] == ledgers[1]
        assert ledgers[0]["ok"]

    def test_hosts_campaign_passes_and_leaves_no_orphans(self, tmp_path,
                                                          silent):
        """Two skewed hosts, one partitioned and healed, one SIGKILLed:
        every job done exactly once, bitwise-equal to the references."""
        rc = run_chaos_hosts(hosts=2, rounds=2, skew=5.0, partition=True,
                             out=str(tmp_path), stream=silent)
        assert rc == 0, silent.getvalue()
        ledger = _chaos_ledger(tmp_path, "hosts", [
            "drained", "exactly_once", "no_dead_letters",
            "bitwise_match"])
        assert ledger["ok"]
        _assert_host_pids(ledger, ["partition", "host-kill"])
        assert _no_orphans()

    def test_jobs_campaign_passes_and_leaves_no_orphans(self, tmp_path,
                                                         silent):
        """SIGKILL the job's host mid-march, resume it on a fresh host:
        bitwise parity, exactly-once completion and cancellation, clean
        gc."""
        rc = run_chaos_jobs(out=str(tmp_path), stream=silent)
        assert rc == 0, silent.getvalue()
        ledger = _chaos_ledger(tmp_path, "jobs", [
            "reached_mid_march", "resumed_done", "bitwise_match",
            "cancelled", "exactly_once", "gc_clean", "no_orphans"])
        assert ledger["ok"]
        _assert_host_pids(ledger, ["host-kill"])
        audit = ledger["jobs_ledger"]["audit"]
        assert not audit["double_cancels"]
        assert not audit["cancelled_and_completed"]
        assert (tmp_path / "BENCH_jobs.json").exists()
        assert _no_orphans()


# ----------------------------------------------------------------------
# CLI exit codes: 0 ok / 1 solver failure / 2 usage
# ----------------------------------------------------------------------


class TestCLIExitCodes:
    def test_usage_errors_exit_2(self, capsys):
        from repro.__main__ import main
        bad = [
            ["frobnicate"],
            ["figures", "--bogus"],
            ["figures", "--resume"],                  # needs --checkpoint-dir
            # sandboxed figure runs are campaign --figures
            ["figures", "--farm"],
            ["figures", "--isolate"],
            ["figures", "--memory-mb", "100"],
            ["figures", "--deadline", "5"],
            ["figures", "--isolate", "--deadline", "abc"],
            ["figures", "--isolate", "--memory-mb", "-4"],
            ["figures", "-j", "4"],
            ["stagnation", "1", "2"],
            ["stagnation", "a", "b", "c"],
            ["degrade-smoke", "--what"],
            ["chaos", "--rounds", "0"],
            ["chaos", "--rounds", "x"],
            ["chaos", "--seed"],
            ["chaos", "--deadline", "-1"],
            # mode-only flags are rejected even at their default values
            ["chaos", "-j", "2"],                     # needs --farm
            ["chaos", "--kill-workers", "2"],         # needs --farm
            ["chaos", "--steps", "40"],               # needs --jobs
            ["chaos", "--requests", "200"],           # needs --batch
            ["chaos", "--faulted", "20"],             # needs --batch
            # a flag the chosen campaign does not read
            ["chaos", "--jobs", "-j", "4"],
            ["chaos", "--jobs", "--seed", "9", "--rounds", "3"],
            ["chaos", "--jobs", "--partition"],
            ["chaos", "--jobs", "--kill-workers", "3"],
            ["chaos", "--batch", "-j", "3"],
            ["chaos", "--batch", "--partition"],
            ["chaos", "--batch", "--rounds", "9", "--kill-workers", "1"],
            ["chaos", "--farm", "--hosts", "2", "--kill-workers", "5"],
            ["chaos", "--farm", "--hosts", "1"],      # needs >= 2 hosts
        ]
        for argv in bad:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "usage:" in err, argv

    def test_serve_clock_offset_must_be_finite(self, capsys):
        """A NaN or infinite offset would stop lease expiry and backoff
        on its host; parse only, so a bad flag runs no pool."""
        from repro.__main__ import _build_parser
        parser = _build_parser()
        argv = ["serve", "--queue-dir", "q"]
        for bad in ("nan", "inf", "-inf", "x"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, f"--clock-offset={bad}"])
            assert exc.value.code == 2, bad
            assert "usage:" in capsys.readouterr().err, bad
        for good in ("-5", "+5", "0.25"):   # either sign parses
            parser.parse_args([*argv, "--clock-offset", good])

    def test_help_exits_0(self, capsys):
        from repro.__main__ import main
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out and "--isolate" in out
