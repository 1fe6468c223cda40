"""Process-isolation tests.

The contract under test (see DESIGN.md "Process isolation"):

* a genuinely SIGSTOPped sandbox (real OS stop, not a simulation) is
  declared hung via heartbeat silence and killed through the
  SIGCONT+SIGTERM→SIGKILL escalation; the farm retries its
  ``solver_case`` job, whose next attempt resumes from the latest
  durable snapshot to a **bitwise-identical** final state,
* a sandbox that actually balloons its RSS past the budget is killed
  with an ``oom`` event and likewise resumed bitwise,
* a wall-clock deadline expiring mid-march kills and resumes,
* attempt-budget exhaustion dead-letters the job with a
  :class:`FailureReport` carrying the isolation event, one journal line
  per killed attempt,
* a sandboxed callable runs once; a sandbox started inside a sandbox
  dies with it, even when it ignores SIGTERM,
* the chaos harness is deterministic (same seed → same schedules →
  same outcomes), reports each run's own rounds and kills, and leaves
  no orphan processes,
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
from repro.resilience.chaos import (CASES, _round_report, run_chaos,
                                    run_chaos_hosts, run_chaos_jobs,
                                    sample_schedule)
from repro.resilience.farm import (FarmPolicy, run_campaign,
                                   sandbox_records, state_fingerprint)
from repro.resilience.isolation import (_read_rss_mb,
                                        current_process_heartbeat)
from repro.resilience.queue import BackoffPolicy, Job, WorkQueue
from repro.resilience.report import FailureReport

#: the rounds campaign's checks, whatever its -j and --kill-workers
ROUNDS_CHECKS = ["rounds_ok", "drained", "dead_letters_reported",
                 "no_orphans", "kills_landed"]


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


def _assert_host_pids(ledger, kinds, queue_dir):
    """Each ``kinds`` timeline event names its host's supervisor pid
    first, then only sandboxes that supervisor's ``worker-start``
    journal lines name; returns the events."""
    up = {e["host"]: e["pid"] for e in ledger["events"]
          if e["event"] == "host-up"}
    started = {}
    for rec in WorkQueue(queue_dir, host_id="test").read_journal():
        if rec["event"] == "worker-start":
            started.setdefault(rec["worker"], set()).add(rec["pid"])
    events = [e for e in ledger["events"] if e["event"] in kinds]
    assert sorted(e["event"] for e in events) == sorted(kinds)
    for e in events:
        supervisor = f"{e['host']}:{up[e['host']]}"
        assert e["pids"][0] == up[e["host"]], e
        assert set(e["pids"][1:]) <= started.get(supervisor, set()), e
    return events


def _presence(queue_dir, host):
    """``host``'s sandbox presence records left in the queue
    directory; none once every supervisor is drained or swept."""
    assert not (queue_dir / "workers").exists()
    return sandbox_records(WorkQueue(queue_dir, host_id="test"), host)


def _ignore_term_and_sleep():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60.0)


def _running(pid):
    """``pid`` is alive: its ``/proc`` entry exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _reference(case, **run_kwargs):
    """Fingerprint of ``case`` marched uninterrupted in this process."""
    factory, kwargs, _, _ = CASES[case]
    solver = factory()
    solver.run(**{**kwargs, **run_kwargs})
    return state_fingerprint(solver)


def _march_on_farm(tmp_path, silent, case, *, run_kwargs=None,
                   faults=None, max_attempts=3, **budgets):
    """Run ``case`` as the one ``solver_case`` job (id ``march``) of an
    in-process farm, ``faults`` armed on its first attempt and
    ``budgets`` its isolation budgets; returns the queue, the job's
    ``isolation-event`` journal lines and its result fingerprint (None
    when it dead-lettered)."""
    payload = {"case": case, "run_kwargs": dict(run_kwargs or {})}
    if faults is not None:
        payload["faults"] = faults.to_json()
    job = Job(id="march", kind="solver_case", payload=payload,
              max_attempts=max_attempts, **budgets)
    run_campaign(tmp_path / "q", [job], policy=FarmPolicy(
        n_workers=1, lease_ttl=10.0, poll_interval=0.05,
        backoff=BackoffPolicy(base=0.05, max_delay=0.2)), stream=silent)
    queue = WorkQueue(tmp_path / "q")
    events = [rec for rec in queue.read_journal()
              if rec["event"] == "isolation-event"]
    res = queue.result("march")
    return queue, events, (None if res is None
                           else res["result"]["state_sha256"])


# ----------------------------------------------------------------------
# real hang: SIGSTOP mid-march
# ----------------------------------------------------------------------


class TestSigstopHang:
    def test_stopped_child_killed_and_resumed_bitwise(self, tmp_path,
                                                      silent):
        """SIGSTOP a marching sandbox once it has durable snapshots; the
        farm must see heartbeat silence, kill through the SIGCONT
        escalation, and the retried job resume to the uninterrupted
        answer."""
        run_kwargs = {"n_steps": 40, "cfl": 0.3}
        hb_path = tmp_path / "q" / "work" / "march" / "sandbox" \
            / "heartbeat.json"
        stopped = []

        def watch():
            deadline = time.monotonic() + 60.0
            while not stopped and time.monotonic() < deadline:
                try:
                    beat = json.loads(hb_path.read_text())
                except (OSError, ValueError):
                    beat = {}
                if (beat.get("step") or 0) >= 8:
                    try:
                        os.kill(beat["pid"], signal.SIGSTOP)
                    except ProcessLookupError:
                        return
                    stopped.append(beat["step"])
                time.sleep(0.005)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        _, events, got = _march_on_farm(tmp_path, silent, "euler2d",
                                        run_kwargs=run_kwargs,
                                        stall_timeout=1.0)
        watcher.join(60.0)

        assert stopped, "watcher never caught the march to SIGSTOP it"
        assert [(e["kind"], e["attempt"]) for e in events] == \
            [("hang", 1)], events
        assert got == _reference("euler2d", **run_kwargs)
        assert _no_orphans()


# ----------------------------------------------------------------------
# real memory balloon
# ----------------------------------------------------------------------


class TestMemoryBalloon:
    def test_ballooning_child_killed_as_oom_and_resumed(self, tmp_path,
                                                        silent):
        base = _read_rss_mb()
        assert base is not None, "RSS introspection unavailable"
        # a fork child shares the parent's resident pages, so the budget
        # must sit above the parent's own RSS; the 500 MiB balloon blows
        # straight through the 250 MiB headroom
        faults = FaultInjector().inject_memory_balloon(step=9, mb=500.0,
                                                       hold=600.0)
        budget = base + 250.0
        _, events, got = _march_on_farm(tmp_path, silent, "euler1d",
                                        faults=faults, memory_mb=budget)

        assert [e["kind"] for e in events] == ["oom"], events
        assert events[0]["rss_mb"] is not None
        assert events[0]["rss_mb"] > budget
        assert got == _reference("euler1d")
        assert _no_orphans()


# ----------------------------------------------------------------------
# deadline expiry mid-march
# ----------------------------------------------------------------------


class TestDeadline:
    def test_deadline_expiry_kills_and_resumes(self, tmp_path, silent):
        # the hang fault parks the march mid-way with SIGTERM ignored:
        # the deadline (stall detection off) is what must fire, and the
        # kill must escalate to SIGKILL past the ignored SIGTERM
        faults = FaultInjector().inject_hang(step=7, duration=600.0)
        t0 = time.monotonic()
        _, events, got = _march_on_farm(tmp_path, silent, "euler1d",
                                        faults=faults, deadline=2.0)
        elapsed = time.monotonic() - t0

        assert [e["kind"] for e in events] == ["deadline"], events
        assert got == _reference("euler1d")
        # deadline + grace + resume, not the fault's 600 s sleep
        assert elapsed < 30.0
        assert _no_orphans()


# ----------------------------------------------------------------------
# attempt-budget exhaustion -> dead letter with a report
# ----------------------------------------------------------------------


class TestRestartBudget:
    def test_exhaustion_dead_letters_with_report(self, tmp_path, silent,
                                                 monkeypatch):
        """Every attempt wedges at birth (SIGSTOP right after the fork):
        each is killed as hung, and the job dead-letters once its
        attempt budget is spent, with the last kill's report."""
        start = IsolatedRunner.start

        def start_stopped(runner, *args, **kwargs):
            sb = start(runner, *args, **kwargs)
            os.kill(sb.pid, signal.SIGSTOP)
            return sb

        monkeypatch.setattr(IsolatedRunner, "start", start_stopped)
        queue, events, got = _march_on_farm(tmp_path, silent, "euler1d",
                                            stall_timeout=0.5)
        assert got is None
        assert queue.state("march")["status"] == "dead"
        assert [(e["kind"], e["attempt"]) for e in events] == \
            [("hang", 1), ("hang", 2), ("hang", 3)]
        rec = queue.dead_letter("march")
        assert rec["attempts"] == 3
        report = rec["report"]
        assert report is not None
        assert [e["kind"] for e in report["isolation"]] == ["hang"]
        assert "no heartbeat" in report["error"]
        assert _no_orphans()

    def test_callable_exhaustion(self):
        """A callable runs once: its kill raises at once."""
        policy = IsolationPolicy(stall_timeout=0.5)
        runner = IsolatedRunner(policy, label="sleeper")
        with pytest.raises(SolverError) as exc:
            runner.run_callable(time.sleep, (600.0,))
        assert [e["kind"] for e in exc.value.report.isolation] == ["hang"]
        assert _no_orphans()


# ----------------------------------------------------------------------
# sandboxed callables
# ----------------------------------------------------------------------


class TestRunCallable:
    def test_result_round_trip(self):
        runner = IsolatedRunner(IsolationPolicy(), label="plain")
        assert runner.run_callable(sum, ([1, 2, 3],)) == 6
        assert runner.events == []

    def test_deadline_kills_the_one_attempt(self, tmp_path):
        calls = tmp_path / "calls"

        def slow():
            with open(calls, "a") as f:
                f.write("x")
            current_process_heartbeat().beat(step=5, force=True)
            time.sleep(600.0)

        policy = IsolationPolicy(deadline=1.0)
        runner = IsolatedRunner(policy, label="slow")
        with pytest.raises(SolverError, match=r"killed \(deadline\)") \
                as exc:
            runner.run_callable(slow)
        assert [e.kind for e in runner.events] == ["deadline"]
        assert exc.value.report.isolation[0]["kind"] == "deadline"
        # the triage summary lists the kill with the step it caught
        summary = exc.value.report.summary()
        assert "isolation kills: 1 (deadline)" in summary
        assert "    - [deadline] step 5: slow: wall-clock deadline" \
            in summary
        assert calls.read_text() == "x"
        assert _no_orphans()

    def test_a_kill_ends_the_child_despite_the_parents_handler(self):
        """A farm supervisor handles SIGTERM itself (it drains); the
        sandboxes it forks must not inherit that handler, or every kill
        would wait out the grace for its SIGKILL."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            runner = IsolatedRunner(IsolationPolicy(deadline=0.3))
            with pytest.raises(SolverError, match="deadline"):
                runner.run_callable(time.sleep, (30.0,))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert runner.events[0].exitcode == -signal.SIGTERM

    @pytest.mark.parametrize("inner", [(time.sleep, (60.0,)),
                                       (_ignore_term_and_sleep, ())],
                             ids=["sleeper", "ignores-sigterm"])
    def test_nested_sandbox_dies_with_its_parent(self, tmp_path, inner):
        """The outer sandbox's deadline kill must take the sandbox it
        started down too, even one that ignores SIGTERM."""
        pid_file = tmp_path / "inner.pid"

        def outer():
            IsolatedRunner(label="inner").run_callable(
                *inner, on_spawn=lambda pid: pid_file.write_text(str(pid)))

        policy = IsolationPolicy(deadline=2.0)
        with pytest.raises(SolverError, match="deadline"):
            IsolatedRunner(policy, label="outer").run_callable(outer)
        inner_pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while _running(inner_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(inner_pid)
        assert _no_orphans()

    def test_child_exception_becomes_crash_event(self):
        def boom():
            raise RuntimeError("scripted failure")

        runner = IsolatedRunner(label="boom")
        with pytest.raises(SolverError) as exc:
            runner.run_callable(boom)
        assert [e.kind for e in runner.events] == ["crash"]
        assert "scripted failure" in runner.events[0].message
        assert exc.value.report is not None

    def test_typed_error_keeps_its_type_and_is_not_restarted(self):
        def bad_input():
            raise InputError("scripted input error")

        runner = IsolatedRunner(label="typed")
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
        """Two euler1d-only ``-j 1`` campaigns with the same seed must
        sample the same schedules, reach the same outcomes and kills,
        exit 0 and leave no children behind."""
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
        ledgers = [_chaos_ledger(out, "rounds", ROUNDS_CHECKS)
                   for out in outs]
        for key in ("checks", "outcomes", "kills", "failed_rounds",
                    "dead_rounds", "worker_kills"):
            assert ledgers[0][key] == ledgers[1][key], key
        assert ledgers[0]["ok"] and ledgers[0]["orphans"] == []

    def test_a_rerun_in_the_same_out_runs_its_own_rounds(self, tmp_path):
        """Without a queue directory every run starts afresh: a second
        campaign with another seed in the same ``out`` runs and reports
        its own round (a torn snapshot write, no kill), not the first
        run's (a scripted crash, one kill, two attempts)."""
        for seed in (26, 1):
            rc = run_chaos(rounds=1, seed=seed, out=str(tmp_path),
                           deadline=30.0, cases=["euler1d"],
                           stream=io.StringIO())
            assert rc == 0
            with open(tmp_path / "round-000.json") as f:
                report = json.load(f)
            rng = np.random.default_rng([seed, 0])
            rng.choice(["euler1d"])
            assert report["schedule"] == sample_schedule(rng, "euler1d")[1]
        assert [f["kind"] for f in report["schedule"]["faults"]] == ["io"]
        assert report["events"] == [] and report["attempts"] == 1
        assert report["ok"] and _no_orphans()

    def test_dead_lettered_round_embeds_its_exact_schedule(self,
                                                           tmp_path):
        """A round that dead-letters reports its abort with the failure
        report, which embeds the exact schedule the job ran: a replay
        rebuilds the same injector."""
        faults = (FaultInjector().inject_hang(step=5, duration=600.0)
                  .inject_nan(step=3, cell=7, component=0))
        q = WorkQueue(tmp_path / "q")
        q.enqueue(Job(id="round-000", kind="solver_case", max_attempts=1,
                      payload={"case": "euler1d",
                               "faults": faults.to_json()}))
        job, lease = q.claim("w0")
        q.journal("isolation-event", job=job.id, kind="hang",
                  attempt=lease.attempt)
        q.fail(job, lease, "SolverError: killed (hang)",
               report=FailureReport(label="round", error="killed (hang)",
                                    isolation=[{"kind": "hang"}]).to_dict())
        report = _round_report(q, q.read_journal(), 0, {})
        assert report["outcome"] == "aborted" and report["ok"]
        assert report["checks"] == {"every_kill_reported": True,
                                    "completed": True,
                                    "abort_has_report": True}
        assert report["schedule"]["faults"] == faults.to_json()["faults"]
        replay = FaultInjector.from_json(
            report["failure_report"]["fault_schedule"])
        assert replay.to_json() == faults.to_json()

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
        queue_dir = tmp_path / "farm-queue"
        _assert_host_pids(ledger, ["partition", "host-kill"], queue_dir)
        assert _presence(queue_dir, "host0") == []
        assert _presence(queue_dir, "host1") == []
        assert _no_orphans()

    def test_farm_campaign_passes_and_leaves_no_orphans(self, tmp_path,
                                                         silent):
        """Two chaos rounds at once with one scheduled sandbox SIGKILL:
        every round holds its invariants, the kill lands and no sandbox
        the journal names outlives the campaign."""
        queue_dir = tmp_path / "farm-queue"
        rc = run_chaos(rounds=2, seed=7, out=str(tmp_path), n_workers=2,
                       kill_workers=1, deadline=30.0,
                       queue_dir=str(queue_dir), stream=silent)
        assert rc == 0, silent.getvalue()
        ledger = _chaos_ledger(tmp_path, "rounds", ROUNDS_CHECKS)
        assert ledger["ok"] and ledger["orphans"] == []
        assert len(ledger["worker_kills"]) == 1
        assert sorted(ledger["outcomes"]) == ["0", "1"]
        assert _presence(queue_dir, WorkQueue(queue_dir).host_id) == []
        assert _no_orphans()
        # resuming the drained queue runs nothing: the earlier run's
        # kill is not this run's, so the kill check fails
        rc = run_chaos(rounds=2, seed=7, out=str(tmp_path / "again"),
                       n_workers=2, kill_workers=1, deadline=30.0,
                       queue_dir=str(queue_dir), stream=silent)
        assert rc == 1
        again = _chaos_ledger(tmp_path / "again", "rounds", ROUNDS_CHECKS)
        assert again["worker_kills"] == []
        assert [k for k, ok in again["checks"].items() if not ok] == \
            ["kills_landed"]

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
        # the kill lands mid-march: it takes the march's sandbox too
        [kill] = _assert_host_pids(ledger, ["host-kill"],
                                   tmp_path / "jobs-queue")
        assert len(kill["pids"]) == 2
        audit = ledger["jobs_ledger"]["audit"]
        assert not audit["double_cancels"]
        assert not audit["cancelled_and_completed"]
        assert (tmp_path / "BENCH_jobs.json").exists()
        assert _presence(tmp_path / "jobs-queue", "jobsA") == []
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
            ["chaos", "--rounds", "0"],
            ["chaos", "--rounds", "x"],
            ["chaos", "--seed"],
            ["chaos", "--deadline", "-1"],
            ["chaos", "--farm"],                      # rounds are farm jobs
            # mode-only flags are rejected even at their default values
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
            ["chaos", "--hosts", "2", "--kill-workers", "5"],
            ["chaos", "--hosts", "2", "--seed", "3"],
            ["chaos", "--hosts", "1"],                # needs >= 2 hosts
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
