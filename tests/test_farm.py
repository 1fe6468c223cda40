"""Solve-farm tests: queue, leases, retry/backoff, dead-letter, drain
and kill-and-resume campaigns.

The contract under test (ISSUE 6 acceptance criteria and DESIGN.md
"Fault-tolerant solve farm"):

* the filesystem queue is durable and idempotent: atomic claims (one
  winner per job no matter how many workers race), crash-safe journal,
  re-enqueue never resets progress,
* lease ownership fences: an expired lease is reclaimed and the late
  holder's commit is discarded (``fenced``), never double-applied,
* retry/backoff: a failing job requeues with deterministic jittered
  exponential backoff and dead-letters at ``max_attempts`` with its
  :class:`~repro.resilience.FailureReport` attached,
* SIGKILLing random sandboxes mid-campaign still completes the campaign
  with solver results **bitwise identical** to an unkilled reference,
* the supervisor enforces each job's budgets itself, keeps every lease
  it holds while a kill is under way, and survives a failing claim or
  commit,
* graceful drain: SIGTERM preempts the running job back to the queue
  (attempt uncharged) and the supervisor returns its ledger.
"""

import ast
import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import InputError
from repro.resilience.chaos import CASES
from repro.resilience import farm as farm_module
from repro.resilience.farm import (JOB_KINDS, Farm, FarmPolicy,
                                   WorkerKillPlan, audit_exactly_once,
                                   bench_from_journal, build_ledger,
                                   run_campaign, sandbox_records,
                                   state_fingerprint, sweep_orphans,
                                   write_bench_json)
from repro.resilience.isolation import kill_pid_tree
from repro.resilience.lease import LeaseManager
from repro.resilience.queue import BackoffPolicy, Job, WorkQueue

FAST = BackoffPolicy(max_attempts=3, base=0.01, max_delay=0.05)


def fast_policy(**kw):
    kw.setdefault("n_workers", 2)
    kw.setdefault("lease_ttl", 4.0)
    kw.setdefault("poll_interval", 0.05)
    kw.setdefault("backoff", FAST)
    return FarmPolicy(**kw)


# ----------------------------------------------------------------------
# queue mechanics
# ----------------------------------------------------------------------


class TestQueue:
    def test_enqueue_claim_complete_roundtrip(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        assert q.enqueue(Job(id="a", kind="sleep",
                             payload={"duration": 0.01}))
        assert q.state("a")["status"] == "pending"
        job, lease = q.claim("w0")
        assert job.id == "a"
        assert q.state("a")["status"] == "running"
        assert q.claim("w1") is None  # exclusively leased
        assert q.complete(job, lease, {"x": 1})
        assert q.state("a")["status"] == "done"
        assert q.result("a")["result"] == {"x": 1}
        assert q.all_terminal()
        events = [r["event"] for r in q.read_journal()]
        assert events == ["enqueue", "claim", "complete"]

    def test_enqueue_is_idempotent(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        assert q.enqueue(Job(id="a", kind="sleep"))
        job, lease = q.claim("w0")
        q.complete(job, lease, None)
        # re-running the campaign re-enqueues: progress must survive
        assert not q.enqueue(Job(id="a", kind="sleep"))
        assert q.state("a")["status"] == "done"

    def test_claim_exclusivity_under_racing_workers(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        for i in range(5):
            q.enqueue(Job(id=f"j{i}", kind="sleep"))
        claims = [q.claim(f"w{i}") for i in range(8)]
        got = [c[0].id for c in claims if c is not None]
        assert sorted(got) == [f"j{i}" for i in range(5)]
        assert claims[5:] == [None, None, None]

    def test_bad_job_id_rejected(self, tmp_path):
        with pytest.raises(InputError):
            Job(id="../escape", kind="sleep")
        with pytest.raises(InputError):
            Job(id="", kind="sleep")

    def test_backoff_is_deterministic_and_bounded(self):
        pol = BackoffPolicy(max_attempts=5, base=0.5, max_delay=4.0)
        d1 = [pol.delay("job-x", n) for n in range(1, 6)]
        d2 = [pol.delay("job-x", n) for n in range(1, 6)]
        assert d1 == d2  # same job+attempt -> same jitter
        assert pol.delay("job-y", 1) != pol.delay("job-x", 1)
        for n, d in enumerate(d1, start=1):
            raw = min(4.0, 0.5 * 2.0 ** (n - 1))
            assert raw <= d <= raw * 1.5

    def test_fail_requeues_with_backoff_then_dead_letters(self, tmp_path):
        q = WorkQueue(tmp_path / "q",
                      backoff=BackoffPolicy(max_attempts=2, base=5.0))
        q.enqueue(Job(id="a", kind="sleep"))
        job, lease = q.claim("w0")
        assert q.fail(job, lease, "boom 1") == "pending"
        st = q.state("a")
        assert st["attempts"] == 1 and st["last_error"] == "boom 1"
        assert st["not_before"] > time.time() + 1.0  # backoff armed
        assert q.claim("w0") is None  # not ready until backoff passes
        job, lease = q.claim("w0", now=time.time() + 60.0)
        assert q.fail(job, lease, "boom 2",
                      report={"error": "boom 2"}) == "dead"
        assert q.state("a")["status"] == "dead"
        rec = q.dead_letter("a")
        assert rec["error"] == "boom 2"
        assert rec["report"] == {"error": "boom 2"}
        assert q.all_terminal()


# ----------------------------------------------------------------------
# leases: expiry, reclaim, fencing
# ----------------------------------------------------------------------


class TestLeases:
    def test_acquire_is_exclusive_and_released(self, tmp_path):
        lm = LeaseManager(tmp_path / "leases", ttl=5.0)
        lease = lm.acquire("job", "w0")
        assert lease is not None
        assert lm.acquire("job", "w1") is None
        lm.release(lease)
        assert lm.acquire("job", "w1") is not None

    def test_expired_lease_reaped_and_job_reclaimed(self, tmp_path):
        q = WorkQueue(tmp_path / "q", lease_ttl=0.2, backoff=FAST)
        q.enqueue(Job(id="a", kind="sleep"))
        job, lease = q.claim("w0")
        assert q.reclaim_expired() == []  # still fresh
        time.sleep(0.3)  # owner "dies": no renewals
        assert q.reclaim_expired() == ["a"]
        st = q.state("a")
        assert st["status"] == "pending" and st["attempts"] == 1
        job2, lease2 = q.claim("w1")
        assert job2.id == "a" and q.state("a")["attempts"] == 2

    def test_late_holder_is_fenced_after_reclaim(self, tmp_path):
        q = WorkQueue(tmp_path / "q", lease_ttl=0.2, backoff=FAST)
        q.enqueue(Job(id="a", kind="sleep"))
        job, stale = q.claim("w0")
        time.sleep(0.3)
        q.reclaim_expired()
        job2, lease2 = q.claim("w1")
        # the stalled original holder wakes up and tries to commit
        assert not q.complete(job, stale, {"from": "w0"})
        assert q.state("a")["status"] == "running"  # w1 still owns it
        assert q.fail(job, stale, "late failure") == "running"
        assert q.complete(job2, lease2, {"from": "w1"})
        assert q.result("a")["result"] == {"from": "w1"}
        fenced = [r for r in q.read_journal() if r["event"] == "fenced"]
        assert {f["action"] for f in fenced} == {"complete", "fail"}

    def test_claim_skips_a_job_finished_after_ready(self, tmp_path,
                                                    monkeypatch):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="a", kind="sleep"))
        job, lease = q.claim("w0")
        assert q.complete(job, lease, {"from": "w0"})
        # w1 listed "a" as ready just before w0 completed it
        monkeypatch.setattr(q, "ready", lambda now=None: ["a"])
        assert q.claim("w1") is None
        st = q.state("a")
        assert st["status"] == "done" and st["attempts"] == 1
        assert q.leases.holder("a") is None

    def test_claim_fenced_when_its_lease_is_reaped_mid_claim(self,
                                                             tmp_path):
        """w0 stalls between reading the state and writing ``running``;
        its lease expires and is reaped, and w1 claims and completes the
        job.  w0's stale claim must not write over the finished job."""
        now = [1000.0]
        q = WorkQueue(tmp_path / "q", lease_ttl=5.0, backoff=FAST,
                      clock=lambda: now[0])
        q.enqueue(Job(id="a", kind="sleep"))
        read_job, stalled = q.job, []

        def job(job_id):
            held = q.leases.holder(job_id)
            if not stalled and held is not None and held["owner"] == "w0":
                stalled.append(job_id)
                now[0] += 10.0
                assert q.reclaim_expired() == ["a"]
                job1, lease1 = q.claim("w1")
                assert q.complete(job1, lease1, {"from": "w1"})
            return read_job(job_id)

        q.job = job
        assert q.claim("w0") is None
        assert stalled == ["a"]
        st = q.state("a")
        assert st["status"] == "done" and st["attempts"] == 1
        assert q.result("a")["result"] == {"from": "w1"}
        fenced = [(r["worker"], r["action"]) for r in q.read_journal()
                  if r["event"] == "fenced"]
        assert fenced == [("w0", "claim")]

    def test_renew_extends_and_detects_loss(self, tmp_path):
        lm = LeaseManager(tmp_path / "leases", ttl=0.3)
        lease = lm.acquire("job", "w0")
        time.sleep(0.2)
        assert lm.renew(lease)
        time.sleep(0.2)
        assert not lm.is_expired("job")  # renewal pushed expiry out
        time.sleep(0.25)
        assert lm.reap() == ["job"]
        assert not lm.renew(lease)  # loss detected on next renewal

    def test_poison_job_dead_letters_at_claim(self, tmp_path):
        """A job whose every attempt kills its worker never reaches
        fail(); the attempt budget must still end it, at claim time."""
        q = WorkQueue(tmp_path / "q", lease_ttl=0.1,
                      backoff=BackoffPolicy(max_attempts=2, base=0.0))
        q.enqueue(Job(id="a", kind="sleep"))
        for _ in range(2):  # two claims, two owner deaths
            assert q.claim("w0") is not None
            time.sleep(0.15)
            assert q.reclaim_expired() == ["a"]
        assert q.claim("w0") is None  # third claim dead-letters instead
        assert q.state("a")["status"] == "dead"
        assert "attempt budget" in q.dead_letter("a")["error"]


# ----------------------------------------------------------------------
# campaigns end to end
# ----------------------------------------------------------------------


class TestCampaign:
    def test_flaky_job_retries_then_succeeds(self, tmp_path, silent):
        jobs = [Job(id="fl", kind="flaky", payload={"fail_first": 2},
                    max_attempts=4)]
        ledger = run_campaign(tmp_path / "q", jobs,
                              policy=fast_policy(n_workers=1),
                              stream=silent)
        assert ledger["ok"] and ledger["jobs"] == {"done": 1}
        q = WorkQueue(tmp_path / "q")
        assert q.result("fl")["result"]["attempts_used"] == 3
        assert ledger["requeues"] == 2

    def test_exhausted_job_dead_letters_with_report(self, tmp_path,
                                                    silent):
        jobs = [Job(id="bad", kind="flaky", payload={"fail_first": 99},
                    max_attempts=2),
                Job(id="ok", kind="sleep", payload={"duration": 0.01})]
        ledger = run_campaign(tmp_path / "q", jobs,
                              policy=fast_policy(), stream=silent)
        assert ledger["jobs"] == {"dead": 1, "done": 1}
        assert ledger["ok"]  # dead-lettered *with accounting* is ok
        [dead] = ledger["dead_letter"]
        assert dead["id"] == "bad" and dead["has_report"]
        rec = WorkQueue(tmp_path / "q").dead_letter("bad")
        assert rec["report"]["attempts"]  # FailureReport attached

    def test_campaign_is_resumable_from_queue_dir(self, tmp_path,
                                                  silent):
        jobs = [Job(id=f"s{i}", kind="sleep",
                    payload={"duration": 0.01}) for i in range(3)]
        run_campaign(tmp_path / "q", jobs, policy=fast_policy(),
                     stream=silent)
        # second run over the same durable queue: nothing recomputes
        ledger = run_campaign(tmp_path / "q", jobs,
                              policy=fast_policy(), stream=silent)
        assert ledger["ok"] and ledger["attempts"] == 3  # not 6

    def test_campaign_restores_signal_handlers(self, tmp_path, silent):
        """An in-process campaign hands SIGTERM and SIGINT back: after it
        the process's own handlers run again, not the finished farm's
        stop flag."""
        sigs = (signal.SIGTERM, signal.SIGINT)
        before = {sig: signal.getsignal(sig) for sig in sigs}
        ledger = run_campaign(tmp_path / "q", [
            Job(id="s", kind="sleep", payload={"duration": 0.01})],
            policy=fast_policy(), stream=silent)
        assert ledger["ok"]
        assert {sig: signal.getsignal(sig) for sig in sigs} == before

    @pytest.mark.parametrize("fails", ["journal", "_drain"])
    def test_failed_run_restores_signal_handlers(self, tmp_path, silent,
                                                 monkeypatch, fails):
        """A run that raises, whether writing ``campaign-start`` or
        draining, still hands SIGTERM and SIGINT back."""
        sigs = (signal.SIGTERM, signal.SIGINT)
        before = {sig: signal.getsignal(sig) for sig in sigs}
        farm = Farm(WorkQueue(tmp_path / "q", backoff=FAST), fast_policy(),
                    stream=silent)

        def broken(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(farm.queue if fails == "journal" else farm,
                            fails, broken)
        with pytest.raises(OSError, match="disk full"):
            farm.run()
        assert {sig: signal.getsignal(sig) for sig in sigs} == before

    def test_bench_record_from_journal(self, tmp_path, silent):
        jobs = [Job(id=f"s{i}", kind="sleep",
                    payload={"duration": 0.02}) for i in range(4)]
        run_campaign(tmp_path / "q", jobs, policy=fast_policy(),
                     stream=silent)
        q = WorkQueue(tmp_path / "q")
        bench = bench_from_journal(q, wall_time=1.0, n_workers=2)
        assert bench["jobs_done"] == 4
        # catlint: disable=CAT010 -- round(4 / 1.0, 4) is exactly 4.0
        assert bench["requests_per_s"] == 4.0
        assert bench["per_job_latency_s"]["mean"] >= 0.02
        path = tmp_path / "BENCH_farm.json"
        write_bench_json(path, bench)
        on_disk = json.loads(path.read_text())
        assert on_disk["bench"] == "farm" and on_disk["jobs_done"] == 4


# ----------------------------------------------------------------------
# kill-and-resume: the acceptance scenario
# ----------------------------------------------------------------------


def _running(pid):
    """``pid`` is alive: its ``/proc`` entry exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _reference_fingerprints(names):
    out = {}
    for n in names:
        factory, run_kwargs, _, _ = CASES[n]
        solver = factory()
        solver.run(**run_kwargs)
        out[n] = state_fingerprint(solver)
    return out


class TestKillAndResume:
    def test_sigkilled_worker_campaign_bitwise_identical(self, tmp_path,
                                                         silent):
        """SIGKILL workers mid-campaign; every solver job must still
        complete with a final state bitwise identical to an unkilled
        in-process reference march."""
        names = ["euler1d", "euler2d"]
        ref = _reference_fingerprints(names)
        # solver cases first (priority), sleep ballast keeps the
        # campaign alive past the kill schedule so the kills land
        jobs = ([Job(id=f"case-{n}", kind="solver_case", priority=-1,
                     payload={"case": n, "every_n_steps": 2},
                     max_attempts=8) for n in names]
                + [Job(id=f"pad{i}", kind="sleep", max_attempts=8,
                       payload={"duration": 0.5}) for i in range(6)])
        policy = fast_policy(
            n_workers=2, lease_ttl=1.5,
            backoff=BackoffPolicy(max_attempts=8, base=0.02,
                                  max_delay=0.1))
        plan = WorkerKillPlan(seed=3, kills=2, min_interval=0.25,
                              max_interval=0.5)
        ledger = run_campaign(tmp_path / "q", jobs, policy=policy,
                              stream=silent, kill_plan=plan)
        assert ledger["ok"], ledger
        assert ledger["worker_kills"], "no kill landed — tune the plan"
        # another host rebuilds the same kills from the journal alone
        rebuilt = build_ledger(WorkQueue(tmp_path / "q",
                                         host_id="post-mortem"),
                               wall_time=0.0, label="post-mortem")
        assert rebuilt["worker_kills"] == ledger["worker_kills"]
        q = WorkQueue(tmp_path / "q")
        for n in names:
            res = q.result(f"case-{n}")
            assert res is not None, q.state(f"case-{n}")
            assert res["result"]["state_sha256"] == ref[n], \
                f"{n}: resumed state differs from unkilled reference"

    def test_a_due_kill_spares_a_sandbox_that_has_exited(self, tmp_path,
                                                         silent):
        """The kill falls due while the one sandbox has exited but is
        not yet settled (the loop wakes only at its exit): it must wait
        for a running sandbox, not land on the exited one — here none
        comes, so the job completes and no kill is journaled."""
        jobs = [Job(id="s0", kind="sleep", payload={"duration": 0.3})]
        plan = WorkerKillPlan(seed=0, kills=1, min_interval=0.01,
                              max_interval=0.02)
        ledger = run_campaign(tmp_path / "q", jobs, policy=fast_policy(
            poll_interval=10.0, lease_ttl=60.0), stream=silent,
            kill_plan=plan)
        assert ledger["jobs"] == {"done": 1}
        assert ledger["worker_kills"] == []
        assert not [r for r in WorkQueue(tmp_path / "q").read_journal()
                    if r["event"] == "isolation-event"]

    def test_kill_plan_is_deterministic(self):
        a = WorkerKillPlan(seed=5, kills=4).schedule()
        b = WorkerKillPlan(seed=5, kills=4).schedule()
        assert a == b and len(a) == 4
        assert a == sorted(a)  # cumulative offsets
        assert WorkerKillPlan(seed=6, kills=4).schedule() != a

    def test_worker_death_reclaims_via_lease_expiry(self, tmp_path,
                                                    silent):
        """SIGKILL a whole supervisor (the claim line's ``worker``) and
        its sandbox mid-job: it never commits, its lease expires, and a
        second supervisor reclaims and finishes the job once."""
        qdir = tmp_path / "q"
        queue = WorkQueue(qdir, lease_ttl=1.0, backoff=FAST)
        queue.enqueue(Job(id="s0", kind="sleep", payload={"duration": 1.5},
                          max_attempts=5))
        policy = fast_policy(n_workers=1, lease_ttl=1.0,
                             drain_when_idle=False)

        def host():
            os.setpgid(0, 0)
            with open(os.devnull, "w") as quiet:
                Farm(str(qdir), policy, stream=quiet).run()

        proc = mp.get_context("fork").Process(target=host)
        proc.start()
        try:
            deadline = time.monotonic() + 30.0
            while (not sandbox_records(queue, queue.host_id)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            [rec] = sandbox_records(queue, queue.host_id)
        finally:
            kill_pid_tree(proc.pid)
            swept = sweep_orphans(queue, host=queue.host_id)
            proc.join(10.0)
        assert [r["pid"] for r in swept] == [rec["pid"]]
        assert rec["worker"] == f"{queue.host_id}:{proc.pid}"
        ledger = run_campaign(qdir, [], policy=fast_policy(lease_ttl=1.0),
                              stream=silent)
        assert ledger["ok"] and ledger["jobs"] == {"done": 1}
        journal = queue.read_journal()
        assert [r["worker"] for r in journal if r["event"] == "reclaim"] \
            == [rec["worker"]]
        assert [r["attempt"] for r in journal
                if r["event"] == "complete"] == [2]
        assert ledger["exactly_once_audit"]["ok"]
        assert not _running(rec["pid"])

    def test_stalled_sandbox_is_killed_and_retried(self, tmp_path,
                                                   silent):
        """SIGSTOP the first sandbox the farm starts: its heartbeat falls
        silent, the supervisor kills it with a typed ``hang`` event, and
        the job is retried and completes exactly once."""
        q = WorkQueue(tmp_path / "q")
        jobs = [Job(id=f"s{i}", kind="sleep", payload={"duration": 0.5},
                    max_attempts=3, stall_timeout=1.0) for i in range(3)]
        stopped = []

        def stop_first_sandbox():
            deadline = time.monotonic() + 30.0
            while not stopped and time.monotonic() < deadline:
                for rec in q.read_journal():
                    if rec["event"] == "worker-start":
                        os.kill(rec["pid"], signal.SIGSTOP)
                        stopped.append(rec)
                        break
                time.sleep(0.01)

        watcher = threading.Thread(target=stop_first_sandbox, daemon=True)
        watcher.start()
        ledger = run_campaign(tmp_path / "q", jobs, policy=fast_policy(),
                              stream=silent)
        watcher.join(30.0)
        assert stopped, "the farm started no sandbox"
        job = stopped[0]["job"]
        journal = q.read_journal()
        [hang] = [r for r in journal if r["event"] == "isolation-event"]
        assert hang["job"] == job and hang["kind"] == "hang"
        assert "no heartbeat" in hang["message"]
        assert [r["job"] for r in journal if r["event"] == "requeue"] \
            == [job]
        assert ledger["ok"] and ledger["jobs"] == {"done": 3}
        assert ledger["exactly_once_audit"]["ok"]
        assert not ledger["worker_kills"]
        assert not mp.active_children()
        assert not _running(stopped[0]["pid"])

    def test_job_past_its_deadline_dead_letters_with_the_events(
            self, tmp_path, silent):
        jobs = [Job(id="slow", kind="sleep", payload={"duration": 30.0},
                    max_attempts=2, deadline=0.5)]
        ledger = run_campaign(tmp_path / "q", jobs, policy=fast_policy(),
                              stream=silent)
        assert ledger["jobs"] == {"dead": 1}
        q = WorkQueue(tmp_path / "q")
        report = q.dead_letter("slow")["report"]
        assert [e["kind"] for e in report["isolation"]] == ["deadline"]
        assert [r["kind"] for r in q.read_journal()
                if r["event"] == "isolation-event"] == ["deadline"] * 2

    def test_a_slow_kill_costs_no_other_job_its_lease(self, tmp_path,
                                                      silent, monkeypatch):
        """One sandbox ignores the SIGTERM of its deadline kill and dies
        only at the SIGKILL a grace later; the loop keeps renewing the
        other running job's short lease meanwhile."""
        def stubborn(payload, ctx):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(60.0)

        monkeypatch.setitem(JOB_KINDS, "stubborn", stubborn)
        jobs = [Job(id="stubborn", kind="stubborn", deadline=0.3,
                    max_attempts=1),
                Job(id="steady", kind="sleep", payload={"duration": 2.5})]
        ledger = run_campaign(tmp_path / "q", jobs,
                              policy=fast_policy(lease_ttl=1.0),
                              stream=silent)
        assert ledger["jobs"] == {"dead": 1, "done": 1}
        journal = WorkQueue(tmp_path / "q").read_journal()
        [kill] = [r for r in journal if r["event"] == "isolation-event"]
        assert kill["job"] == "stubborn" and kill["kind"] == "deadline"
        assert not [r for r in journal
                    if r["event"] in ("reclaim", "fenced")]
        assert [r["attempt"] for r in journal if r["event"] == "complete"] \
            == [1]

    def test_an_exit_is_committed_without_waiting_out_the_poll(
            self, tmp_path, silent):
        jobs = [Job(id="s0", kind="sleep", payload={"duration": 0.1})]
        t0 = time.monotonic()
        ledger = run_campaign(tmp_path / "q", jobs, policy=fast_policy(
            poll_interval=10.0, lease_ttl=60.0), stream=silent)
        assert ledger["jobs"] == {"done": 1}
        assert time.monotonic() - t0 < 5.0

    def test_a_failing_claim_or_commit_is_journaled_and_survived(
            self, tmp_path, silent, monkeypatch):
        claim, complete = WorkQueue.claim, WorkQueue.complete
        raised = []

        def once(fn, action):
            def wrapped(self, *a, **kw):
                if action not in raised:
                    raised.append(action)
                    raise OSError(f"scripted {action} failure")
                return fn(self, *a, **kw)
            return wrapped

        monkeypatch.setattr(WorkQueue, "claim", once(claim, "claim"))
        monkeypatch.setattr(WorkQueue, "complete",
                            once(complete, "commit"))
        jobs = [Job(id=f"s{i}", kind="sleep", payload={"duration": 0.05})
                for i in range(2)]
        ledger = run_campaign(tmp_path / "q", jobs,
                              policy=fast_policy(lease_ttl=1.0),
                              stream=silent)
        assert ledger["ok"] and ledger["jobs"] == {"done": 2}
        journal = WorkQueue(tmp_path / "q").read_journal()
        errors = [(r["action"], r["error"]) for r in journal
                  if r["event"] == "farm-error"]
        assert errors == [("claim", "OSError: scripted claim failure"),
                          ("commit", "OSError: scripted commit failure")]
        # the uncommitted job came back when its lease expired
        assert len([r for r in journal if r["event"] == "reclaim"]) == 1
        assert ledger["exactly_once_audit"]["ok"]

    def test_an_attempt_that_lost_its_lease_never_commits(
            self, tmp_path, silent, monkeypatch):
        renew = LeaseManager.renew
        failed = []

        def renew_fails_once(self, lease):
            if not failed:
                failed.append(lease.job_id)
                return False
            return renew(self, lease)

        monkeypatch.setattr(LeaseManager, "renew", renew_fails_once)
        jobs = [Job(id="s0", kind="sleep", payload={"duration": 1.0},
                    max_attempts=3)]
        ledger = run_campaign(tmp_path / "q", jobs,
                              policy=fast_policy(lease_ttl=1.5),
                              stream=silent)
        assert failed == ["s0"]
        assert ledger["ok"] and ledger["jobs"] == {"done": 1}
        journal = WorkQueue(tmp_path / "q").read_journal()
        assert [(r["event"], r.get("action")) for r in journal
                if r["event"] in ("fenced", "complete")] == [
            ("fenced", "renew"), ("complete", None)]
        assert [r["attempt"] for r in journal
                if r["event"] == "complete"] == [2]


class TestProcessModel:
    def test_a_job_runs_in_a_sandbox_the_supervisor_forked(self, tmp_path,
                                                           silent):
        jobs = [Job(id="ppid", kind="callable",
                    payload={"module": "os", "func": "getppid"})]
        ledger = run_campaign(tmp_path / "q", jobs, policy=fast_policy(),
                              stream=silent)
        assert ledger["jobs"] == {"done": 1}
        q = WorkQueue(tmp_path / "q")
        assert q.result("ppid")["result"] == {"result": os.getpid()}
        assert not (tmp_path / "q" / "workers").exists()
        assert sandbox_records(q, q.host_id) == []   # settled, removed

    def test_the_farm_module_starts_no_thread(self):
        with open(farm_module.__file__) as f:
            tree = ast.parse(f.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "threading" not in imported


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_sigterm_preempts_and_drains(self, tmp_path, silent):
        """SIGTERM mid-campaign: the farm stops, running jobs are
        preempted (attempt uncharged) or finished, and a later campaign
        on the same queue completes the rest."""
        import threading

        jobs = [Job(id=f"s{i}", kind="sleep",
                    payload={"duration": 0.4}) for i in range(6)]
        policy = fast_policy(n_workers=2)
        queue = WorkQueue(tmp_path / "q", lease_ttl=policy.lease_ttl,
                          backoff=policy.backoff)
        for j in jobs:
            queue.enqueue(j)
        farm = Farm(queue, policy, stream=silent)
        timer = threading.Timer(0.6, lambda: setattr(farm, "_stop",
                                                     True))
        timer.start()
        ledger = farm.run()
        timer.cancel()
        done_first = ledger["jobs"].get("done", 0)
        assert done_first < 6  # interrupted mid-campaign
        # preempted jobs are pending again with attempts uncharged
        for job_id in queue.job_ids():
            st = queue.state(job_id)
            assert st["status"] in ("pending", "done")
            if st["status"] == "pending":
                assert st["attempts"] == 0
        ledger2 = run_campaign(tmp_path / "q", jobs, policy=policy,
                               stream=silent)
        assert ledger2["ok"]
        assert ledger2["jobs"] == {"done": 6}

    def test_ledger_accounts_for_every_job(self, tmp_path, silent):
        jobs = ([Job(id=f"s{i}", kind="sleep",
                     payload={"duration": 0.01}) for i in range(3)]
                + [Job(id="bad", kind="flaky",
                       payload={"fail_first": 99}, max_attempts=1)])
        ledger = run_campaign(tmp_path / "q", jobs,
                              policy=fast_policy(), stream=silent)
        assert ledger["n_jobs"] == 4
        assert ledger["jobs"]["done"] + len(ledger["dead_letter"]) == 4
        assert ledger["throughput_jobs_per_s"] > 0
        rebuilt = build_ledger(WorkQueue(tmp_path / "q"), wall_time=1.0,
                               label="rebuild", n_workers=2)
        assert rebuilt["jobs"] == ledger["jobs"]  # journal is durable


class TestServe:
    def test_sigterm_drains_and_writes_the_audited_ledger(self,
                                                          tmp_path):
        """``serve`` runs until SIGTERM, exits 0 and writes the
        campaign ledger with its exactly-once audit."""
        qdir, led = tmp_path / "q", tmp_path / "ledger.json"
        queue = WorkQueue(qdir, host_id="driver")
        for i in range(3):
            queue.enqueue(Job(id=f"s{i}", kind="sleep",
                              payload={"duration": 0.05}))
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src)
                   + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--queue-dir",
             str(qdir), "--host-id", "h1", "-j", "1", "--poll", "0.05",
             "--ledger", str(led)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while (not queue.all_terminal()
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        ledger = json.loads(led.read_text())
        assert ledger["jobs"] == {"done": 3}
        assert list(ledger["hosts"]) == ["h1"]
        assert ledger["exactly_once_audit"]["ok"]


# ----------------------------------------------------------------------
# farm policy validation
# ----------------------------------------------------------------------


class TestPolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(InputError):
            FarmPolicy(n_workers=0)
        with pytest.raises(InputError):
            FarmPolicy(lease_ttl=0.0)
        with pytest.raises(InputError):
            BackoffPolicy(max_attempts=0)
        # a NaN clock never expires a lease; inf never ends a backoff
        for offset in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InputError, match="clock_offset"):
                FarmPolicy(clock_offset=offset)
        # budgets follow Job's rule: None or a finite number > 0, no
        # bools — a negative deadline kills every attempt as it starts,
        # a NaN memory budget is never exceeded
        for name in ("deadline", "memory_mb", "stall_timeout",
                     "max_wall_time"):
            for bad in (-1.0, 0.0, float("nan"), float("inf"), True, "5"):
                with pytest.raises(InputError, match=name):
                    FarmPolicy(**{name: bad})
            FarmPolicy(**{name: 2.5})

    def test_unknown_job_kind_dead_letters(self, tmp_path, silent):
        jobs = [Job(id="x", kind="no-such-kind", max_attempts=1)]
        ledger = run_campaign(tmp_path / "q", jobs,
                              policy=fast_policy(n_workers=1),
                              stream=silent)
        assert ledger["jobs"] == {"dead": 1}
        rec = WorkQueue(tmp_path / "q").dead_letter("x")
        assert "unknown job kind" in rec["error"]


# ----------------------------------------------------------------------
# multi-host leases under clock skew
# ----------------------------------------------------------------------


def _skewed(offset):
    """A wall clock that is simply wrong by ``offset`` seconds."""
    return lambda: time.time() + offset


class TestLeaseSkew:
    def test_skew_alone_never_expires_a_cross_host_lease(self, tmp_path):
        """A wall-clock disagreement far beyond max_skew — in either
        direction — must not free a freshly granted foreign lease:
        cross-host expiry is observation-based, never mtime-based."""
        for offset in (60.0, -60.0):
            d = tmp_path / f"leases{offset:+.0f}"
            holder = LeaseManager(d, ttl=5.0, host_id="hostA",
                                  clock=_skewed(offset))
            reaper = LeaseManager(d, ttl=5.0, host_id="hostB",
                                  max_skew=0.5)
            assert holder.acquire("job", "hostA:1") is not None
            assert not reaper.is_expired("job")
            assert reaper.reap() == []

    def test_renewed_cross_host_lease_survives_reaper(self, tmp_path):
        """Concurrent renew-vs-reap: as long as the holder keeps
        bumping the lease epoch, a skewed observer must never reap it,
        even long past ttl + max_skew of wall time."""
        import threading

        holder = LeaseManager(tmp_path / "l", ttl=0.15, host_id="hostA",
                              clock=_skewed(120.0))
        reaper = LeaseManager(tmp_path / "l", ttl=0.15, host_id="hostB",
                              max_skew=0.1)
        lease = holder.acquire("job", "hostA:1")
        lost = []
        stop = threading.Event()

        def renew_loop():
            while not stop.is_set():
                if not holder.renew(lease):
                    lost.append(True)
                    return
                time.sleep(0.03)

        t = threading.Thread(target=renew_loop)
        t.start()
        freed = []
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            freed += reaper.reap()
            time.sleep(0.02)
        stop.set()
        t.join()
        assert freed == [] and not lost
        assert lease.epoch > 5  # renewals really happened

    def test_dead_cross_host_holder_reaped_after_window(self, tmp_path):
        """A foreign holder that stops renewing is reclaimed — but only
        after its (token, epoch) sat unchanged for ttl + max_skew on
        the observer's own monotonic clock."""
        holder = LeaseManager(tmp_path / "l", ttl=0.2, host_id="hostA",
                              clock=_skewed(-120.0))
        reaper = LeaseManager(tmp_path / "l", ttl=0.2, host_id="hostB",
                              max_skew=0.2)
        holder.acquire("job", "hostA:1")  # hostA then "dies": no renews
        assert reaper.reap() == []        # opens the observation window
        time.sleep(0.6)                   # > ttl + max_skew, unchanged
        assert reaper.reap() == ["job"]

    def test_stale_commit_fenced_after_cross_host_reclaim(self, tmp_path):
        """A partitioned hostA worker whose job was reclaimed by hostB
        must have its late commit fenced, and the exactly-once audit
        must count a single completion."""
        qa = WorkQueue(tmp_path / "q", lease_ttl=0.2, backoff=FAST,
                       host_id="hostA", max_skew=0.2, clock=_skewed(7.0))
        qb = WorkQueue(tmp_path / "q", lease_ttl=0.2, backoff=FAST,
                       host_id="hostB", max_skew=0.2)
        qa.enqueue(Job(id="a", kind="sleep", max_attempts=5))
        job, stale = qa.claim("hostA:1")
        assert qb.reclaim_expired() == []   # window opens, nothing freed
        time.sleep(0.6)
        assert qb.reclaim_expired() == ["a"]
        job2, lease2 = qb.claim("hostB:1")
        # partition heals; the original holder tries to commit
        assert not qa.complete(job, stale, {"from": "hostA"})
        assert qb.complete(job2, lease2, {"from": "hostB"})
        assert qb.result("a")["result"] == {"from": "hostB"}
        fenced = [r for r in qb.read_journal() if r["event"] == "fenced"]
        assert {f["action"] for f in fenced} == {"complete"}
        audit = audit_exactly_once(qb)
        assert audit["ok"] and audit["jobs_completed"] == 1


# ----------------------------------------------------------------------
# the exactly-once audit
# ----------------------------------------------------------------------


def _drain_serially(q, n):
    for i in range(n):
        q.enqueue(Job(id=f"s{i:02d}", kind="sleep"))
    while True:
        got = q.claim("w0")
        if got is None:
            break
        job, lease = got
        q.complete(job, lease, {"id": job.id})


class TestAuditExactlyOnce:
    def test_flags_a_second_completion(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        _drain_serially(q, 4)
        assert audit_exactly_once(q)["ok"]
        # forge a duplicate completion record
        q.journal("complete", job="s00", worker="w-evil")
        audit = audit_exactly_once(q)
        assert not audit["ok"]
        assert audit["double_completions"] == {"s00": 2}

    def test_flags_a_done_job_without_a_completion(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        _drain_serially(q, 3)
        # lose s01's complete line, as a crash between the state write
        # and the journal append would
        with open(q.journal_path) as f:
            lines = f.readlines()
        with open(q.journal_path, "w") as f:
            f.writelines(ln for ln in lines
                         if not ('"complete"' in ln and '"s01"' in ln))
        audit = audit_exactly_once(q)
        assert not audit["ok"]
        assert audit["done_without_complete"] == ["s01"]
        assert audit["double_completions"] == {}
        assert audit["jobs_completed"] == 2


# ----------------------------------------------------------------------
# dead-letter retry with a fresh budget
# ----------------------------------------------------------------------


class TestRetryDeadLetters:
    def test_retry_restores_budget_and_preserves_history(self,
                                                         tmp_path):
        q = WorkQueue(tmp_path / "q",
                      backoff=BackoffPolicy(max_attempts=1, base=0.0))
        q.enqueue(Job(id="a", kind="sleep", max_attempts=1))
        job, lease = q.claim("w0")
        assert q.fail(job, lease, "boom",
                      report={"error": "boom"}) == "dead"
        assert q.retry_dead_letters() == ["a"]
        st = q.state("a")
        assert st["status"] == "pending" and st["attempts"] == 0
        assert q.dead_letter("a") is None  # active record cleared...
        [hist] = q.dead_letter_history("a")  # ...but never lost
        assert hist["error"] == "boom"
        assert hist["report"] == {"error": "boom"}
        job, lease = q.claim("w1")
        assert q.complete(job, lease, {"ok": True})
        assert q.state("a")["status"] == "done"
        retries = [r for r in q.read_journal()
                   if r["event"] == "retry-dead-letter"]
        assert retries and retries[0]["prior_attempts"] == 1

    def test_retry_is_selective_and_skips_live_jobs(self, tmp_path):
        q = WorkQueue(tmp_path / "q",
                      backoff=BackoffPolicy(max_attempts=1, base=0.0))
        for jid in ("dead1", "dead2", "ok"):
            q.enqueue(Job(id=jid, kind="sleep", max_attempts=1))
        for jid in ("dead1", "dead2"):
            job, lease = q.claim("w0", now=time.time() + 60.0)
            q.fail(job, lease, f"{jid} boom")
        assert q.retry_dead_letters(["dead2", "ok"]) == ["dead2"]
        assert q.state("dead1")["status"] == "dead"  # not selected
        assert q.state("dead2")["status"] == "pending"
        assert q.state("ok")["status"] == "pending"  # untouched

    def test_campaign_cli_jobs_retry_and_merge(self, tmp_path):
        from repro.__main__ import main
        specs, qd = tmp_path / "jobs.json", str(tmp_path / "q")
        led = tmp_path / "led.json"
        specs.write_text(json.dumps([
            {"id": "f1", "kind": "flaky", "payload": {"fail_first": 99},
             "max_attempts": 1},
            {"id": "s1", "kind": "sleep", "payload": {"duration": 0.01}}]))
        assert main(["campaign", "--jobs", str(specs), "--queue-dir", qd,
                     "-j", "1"]) == 1                       # f1 dies
        assert main(["campaign", "--retry-dead-letters", "--queue-dir",
                     qd, "-j", "1", "--ledger", str(led)]) == 1
        q = WorkQueue(qd)
        assert q.state("f1")["status"] == "dead"
        assert q.state("s1")["status"] == "done"
        assert [r["job"] for r in q.read_journal()
                if r["event"] == "retry-dead-letter"] == ["f1"]
        # the second campaign's ledger folds the whole journal, the
        # first campaign included
        fold = json.loads(led.read_text())
        assert fold["ok"] and fold["exactly_once_audit"]["ok"]

    @pytest.mark.parametrize("spec", [
        {"kind": "sleep"},                                # no id
        5,                                                # not an object
        {"id": "a", "kind": "sleep", "priority": "x"},    # bad priority
        # a budget the queue or the sandbox would fail on at claim time,
        # killing every worker that claims the job
        {"id": "a", "kind": "sleep", "max_attempts": "x"},
        {"id": "a", "kind": "sleep", "deadline": 0},
        {"id": "a", "kind": "sleep", "memory_mb": "512"},
        {"id": "a", "kind": "sleep", "stall_timeout": -1.0},
    ], ids=["no-id", "not-an-object", "bad-priority", "bad-max-attempts",
            "zero-deadline", "string-memory", "negative-stall-timeout"])
    def test_campaign_cli_bad_job_spec_is_usage_error(self, tmp_path,
                                                      capsys, spec):
        from repro.__main__ import main
        specs = tmp_path / "jobs.json"
        specs.write_text(json.dumps([{"id": "ok", "kind": "sleep"}, spec]))
        assert main(["campaign", "--jobs", str(specs), "--queue-dir",
                     str(tmp_path / "q")]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "job spec 1 " in err
        assert WorkQueue(tmp_path / "q").job_ids() == []  # none enqueued

    def test_campaign_cli_bad_job_spec_leaves_no_temp_queue(
            self, tmp_path, monkeypatch, capsys):
        import tempfile

        from repro.__main__ import main
        specs = tmp_path / "jobs.json"
        specs.write_text(json.dumps([{"kind": "sleep"}]))
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp))
        monkeypatch.setattr(tempfile, "tempdir", None)
        assert main(["campaign", "--jobs", str(specs)]) == 2
        assert "job spec 0 " in capsys.readouterr().err
        assert not list(tmp.glob("repro-campaign-*"))

    @pytest.mark.parametrize("field, bad", [
        ("max_attempts", 0), ("max_attempts", True), ("max_attempts", 2.0),
        ("deadline", float("nan")), ("memory_mb", float("inf")),
        ("stall_timeout", False)])
    def test_job_rejects_bad_budget(self, field, bad):
        with pytest.raises(InputError, match=field):
            Job(id="a", kind="sleep", **{field: bad})

    def test_jitter_unit_is_pure_and_job_seeded(self):
        """Satellite: backoff jitter is a pure hash of (job id,
        attempt) — identical on every host, no shared RNG state."""
        u = BackoffPolicy.jitter_u("case-01", 1)
        assert 0.0 <= u < 1.0
        # catlint: disable=CAT010 -- sha256-derived values are exact
        assert BackoffPolicy.jitter_u("case-01", 1) == u
        assert BackoffPolicy.jitter_u("case-02", 1) != u
        assert BackoffPolicy.jitter_u("case-01", 2) != u
        # two policy instances (two hosts, in real life) agree on the
        # whole delay schedule
        a = BackoffPolicy(max_attempts=5)
        b = BackoffPolicy(max_attempts=5)
        assert [a.delay("j", n) for n in (1, 2, 3)] \
            == [b.delay("j", n) for n in (1, 2, 3)]


# ----------------------------------------------------------------------
# two hosts, one queue
# ----------------------------------------------------------------------


class TestTwoHostCampaign:
    def test_two_skewed_hosts_drain_one_queue_exactly_once(
            self, tmp_path, silent):
        """Two supervisors with ±5 s clock skew drain one shared queue:
        every job completes exactly once and the journal fold is one
        consistent campaign view."""
        import threading

        qdir = tmp_path / "q"
        seed = WorkQueue(qdir, backoff=FAST, host_id="hostA")
        for i in range(8):
            seed.enqueue(Job(id=f"s{i}", kind="sleep",
                             payload={"duration": 0.2}, max_attempts=5))
        ledgers = {}

        def serve(host, offset):
            pol = fast_policy(n_workers=1, lease_ttl=3.0, host_id=host,
                              max_skew=1.0, clock_offset=offset)
            farm = Farm(WorkQueue(qdir, lease_ttl=3.0, backoff=FAST,
                                  host_id=host, max_skew=1.0,
                                  clock=pol.clock()),
                        pol, label=host, stream=silent)
            ledgers[host] = farm.run()

        threads = [
            threading.Thread(target=serve, args=("hostA", 5.0)),
            threading.Thread(target=serve, args=("hostB", -5.0))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(90.0)
        assert not any(t.is_alive() for t in threads)
        q = WorkQueue(qdir, host_id="driver")
        assert q.all_terminal()
        assert all(q.state(j)["status"] == "done" for j in q.job_ids())
        fold = build_ledger(q, wall_time=0.0, label="driver")
        audit = fold["exactly_once_audit"]
        assert audit["ok"], audit
        assert audit["jobs_completed"] == 8
        assert fold["ok"] and fold["jobs"] == {"done": 8}
        assert sum(h.get("complete", 0)
                   for h in fold["hosts"].values()) == 8
        assert set(ledgers) == {"hostA", "hostB"}
