"""Asynchronous-job subsystem tests.

The contract under test (DESIGN.md §9):

* ``submit`` returns a durable job id immediately; the job's record is
  its work-queue record, and the job state reads off the queue status
  (``dead`` reads ``failed``; ``done`` reads ``cancelled`` when the
  attempt's result says so),
* ``WorkQueue.cancel`` makes a pending job a journaled ``cancelled``
  terminal under the job's lease, so it is refused while anyone holds
  the lease and a stale worker cannot complete the job afterwards,
* cancellation of a leased job is cooperative first (a flag file the
  marching supervisor acknowledges with a durable snapshot) and the job
  ends ``cancelled``, not ``failed``; escalation signals only the live
  attempt's sandbox child,
* the attempt writes nothing to the queue: the worker's fenced
  ``complete``/``fail`` is its only commit,
* dead attempts are detected by lease reaping and the requeued attempt
  auto-resumes from the latest snapshot generation, bitwise-identical
  to an uninterrupted reference,
* ``gc`` removes finished-job artifacts past TTL honoring keep-last
  retention and never touches live jobs,
* ``audit_exactly_once`` proves from the merged journal that no job was
  completed twice, cancelled twice, or both.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import InputError
from repro.resilience.farm import (Farm, FarmPolicy, audit_exactly_once,
                                   build_ledger, state_fingerprint)
from repro.resilience.queue import CANCEL_FLAG, BackoffPolicy, Job, WorkQueue
from repro.service.jobs import (CANCELLED, DONE, FAILED, PENDING, RUNNING,
                                JobManager, run_async_attempt)

FAST = BackoffPolicy(max_attempts=3, base=0.01, max_delay=0.05)


def drain(queue_dir, **kw):
    """Run a small farm until the queue is empty; returns its ledger."""
    kw.setdefault("n_workers", 1)
    kw.setdefault("poll_interval", 0.05)
    kw.setdefault("lease_ttl", 5.0)
    kw.setdefault("backoff", FAST)
    with open(os.devnull, "w") as null:
        return Farm(queue_dir, FarmPolicy(**kw), label="test",
                    stream=null).run()


def _async_job(job_id, duration=0.01):
    return Job(id=job_id, kind="async",
               payload={"kind": "sleep",
                        "payload": {"duration": duration}})


def _ctx(q, job_id):
    workdir = q.job_workdir(job_id)
    return {"workdir": workdir, "ckpt_dir": os.path.join(workdir, "ckpt"),
            "queue_dir": q.dir, "job_id": job_id}


# ----------------------------------------------------------------------
# the one state machine: the queue record is the job record
# ----------------------------------------------------------------------


class TestStateMachine:
    def test_legal_walk_commits_and_journals(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        q = mgr.queue
        mgr.submit("sleep", {"duration": 0.01}, job_id="j1")
        assert mgr.status("j1")["state"] == PENDING
        job, lease = q.claim("w0")
        st = mgr.status("j1")
        assert st["state"] == RUNNING and st["owner"] == "w0"
        assert q.complete(job, lease, {"job": "j1", "cancelled": False,
                                       "result": {"slept": 0.01}})
        assert mgr.status("j1")["state"] == DONE
        walked = [r["event"] for r in q.read_journal()
                  if r.get("job") == "j1"]
        assert walked == ["enqueue", "claim", "complete"]
        assert audit_exactly_once(q)["ok"]

    def test_cancel_makes_a_pending_job_terminal(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="j1", kind="sleep"))
        q.enqueue(Job(id="j2", kind="sleep"))
        assert q.cancel("j1", "operator")
        assert q.state("j1")["status"] == "cancelled"
        assert q.leases.holder("j1") is None   # the cancel's own lease
        cancels = [(r["job"], r["reason"]) for r in q.read_journal()
                   if r.get("event") == "cancel"]
        assert cancels == [("j1", "operator")]
        # never claimed: the one claim goes to j2, then nothing is left
        job, lease = q.claim("w0")
        assert job.id == "j2" and q.claim("w0") is None
        q.complete(job, lease, {})
        assert q.all_terminal()
        ledger = build_ledger(q, wall_time=1.0, label="t")
        assert ledger["ok"] and ledger["jobs"] == {"cancelled": 1,
                                                   "done": 1}

    def test_illegal_transition_refused_and_journaled(self, tmp_path):
        # a worker whose lease was reaped cannot complete the job once it
        # was cancelled: its commit is fenced and journaled as such
        q = WorkQueue(tmp_path / "q", backoff=FAST, lease_ttl=0.2)
        q.enqueue(Job(id="j1", kind="sleep"))
        job, stale = q.claim("w0")
        time.sleep(0.3)
        assert q.reclaim_expired() == ["j1"]
        assert q.cancel("j1", "operator")
        assert not q.complete(job, stale, {"late": True})
        assert q.state("j1")["status"] == "cancelled"
        assert q.result("j1") is None
        fenced = [r["action"] for r in q.read_journal()
                  if r.get("event") == "fenced"]
        assert fenced == ["complete"]
        assert audit_exactly_once(q)["ok"]

    def test_terminal_is_exclusive(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="a-done", kind="sleep"))
        q.enqueue(Job(id="b-gone", kind="sleep"))
        job, lease = q.claim("w0")
        assert job.id == "a-done" and q.complete(job, lease, {})
        assert q.cancel("b-gone", "first")
        # no terminal is left: no second cancel, no cancel of a done
        # job, no claim of a cancelled one
        assert not q.cancel("b-gone", "again")
        assert not q.cancel("a-done", "late")
        assert q.claim("w1") is None
        assert q.state("a-done")["status"] == "done"
        assert q.state("b-gone")["reason"] == "first"
        audit = audit_exactly_once(q)
        assert audit["ok"], audit

    def test_lease_token_fences_stale_writer(self, tmp_path):
        # the cancel takes the lease first, as a claim does: it is
        # refused while anyone holds the job's lease
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="j1", kind="sleep"))
        q.enqueue(Job(id="j2", kind="sleep"))
        job, lease = q.claim("w0")
        assert job.id == "j1"
        assert not q.cancel("j1", "too late")
        assert q.state("j1")["status"] == "running"
        assert q.leases.verify(lease)   # the holder's lease is untouched
        assert q.complete(job, lease, {"ok": True})
        mid_claim = q.leases.acquire("j2", "w1")   # a claim in flight
        assert not q.cancel("j2", "racing")
        assert q.state("j2")["status"] == "pending"
        q.leases.release(mid_claim)
        assert q.cancel("j2", "now")
        assert [r["job"] for r in q.read_journal()
                if r.get("event") == "cancel"] == ["j2"]

    def test_torn_record_rebuilt_from_journal(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="j1", kind="sleep"))
        assert q.cancel("j1", "operator")
        with open(q._state_path("j1"), "w") as f:
            f.write('{"id": "j1", "status": "canc')   # torn write
        st = q.state("j1")
        assert st["status"] == "cancelled" and st["reason"] == "operator"
        assert any(r.get("event") == "state-rebuilt"
                   for r in q.read_journal())
        assert q.claim("w0") is None

    def test_resurrect_edge_rearms_terminal_gate(self, tmp_path):
        # a dead-letter retry is a fresh life: the cancel flag the dead
        # attempt never acknowledged must not cancel the retried job
        q = WorkQueue(tmp_path / "q",
                      backoff=BackoffPolicy(max_attempts=1, base=0.0))
        q.enqueue(_async_job("a1"))
        job, lease = q.claim("w0")
        flag = os.path.join(q.job_workdir("a1"), CANCEL_FLAG)
        with open(flag, "w") as f:
            json.dump({"reason": "stale"}, f)
        assert q.fail(job, lease, "SolverError: boom") == "dead"
        assert q.retry_dead_letters() == ["a1"]
        assert not os.path.exists(flag)
        job, lease = q.claim("w1")
        out = run_async_attempt(job.payload, _ctx(q, "a1"))
        assert out["cancelled"] is False
        assert out["result"] == {"slept": 0.01}

    def test_audit_flags_illegal_history(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        for job_id in ("both", "twice"):
            q.enqueue(Job(id=job_id, kind="sleep"))
        # forge the histories no fenced writer can produce
        q.journal("cancel", job="both", reason="x")
        q.journal("complete", job="both", worker="w0")
        q.journal("cancel", job="twice", reason="x")
        q.journal("cancel", job="twice", reason="y")
        audit = audit_exactly_once(q)
        assert not audit["ok"]
        assert audit["cancelled_and_completed"] == ["both"]
        assert audit["double_cancels"] == {"twice": 2}

    def test_audit_judges_each_life_of_an_id(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="twice", kind="sleep"))
        q.journal("complete", job="twice", worker="w0")
        q.journal("complete", job="twice", worker="w1")
        audit = audit_exactly_once(q)
        assert not audit["ok"]
        assert audit["double_completions"] == {"twice": 2}
        # a job-gc line ends that life with both lines; the double
        # completion stays on its record
        q.journal("job-gc", job="twice",
                  retired={"complete": 2, "cancel": 0})
        audit = audit_exactly_once(q)
        assert not audit["ok"]
        assert audit["double_completions"] == {"twice": 2}
        # one completion in each of two lives is no violation
        q.enqueue(Job(id="again", kind="sleep"))
        for _ in range(2):
            q.journal("complete", job="again", worker="w0")
            q.journal("job-gc", job="again",
                      retired={"complete": 1, "cancel": 0})
        audit = audit_exactly_once(q)
        assert "again" not in audit["double_completions"]


# ----------------------------------------------------------------------
# the client surface
# ----------------------------------------------------------------------


class TestJobManager:
    def test_submit_returns_id_immediately_and_is_idempotent(
            self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        sub = mgr.submit("sleep", {"duration": 0.01})
        assert sub["fresh"] and sub["state"] == PENDING
        assert sub["job"].startswith("job-")
        again = mgr.submit("sleep", {"duration": 0.01})
        assert again["job"] == sub["job"] and not again["fresh"]
        other = mgr.submit("sleep", {"duration": 0.02})
        assert other["job"] != sub["job"]  # content-addressed ids

    def test_unknown_kind_rejected(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        with pytest.raises(InputError):
            mgr.submit("warp-drive", {})
        with pytest.raises(InputError):
            mgr.submit("async", {})  # no recursive wrapping

    def test_status_unknown_job_raises(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        with pytest.raises(InputError):
            mgr.status("nope")
        # reads of unknown or malformed ids create nothing on disk
        for read in (mgr.status, mgr.result, mgr.cancel):
            for job_id in ("nope", "../../escape", ".hidden", ""):
                with pytest.raises(InputError):
                    read(job_id)
        assert os.listdir(mgr.queue.work_dir) == []
        assert not (tmp_path / "escape").exists()

    def test_submit_run_status_result(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        sub = mgr.submit("sleep", {"duration": 0.02}, job_id="s1")
        assert mgr.result("s1") == {"job": "s1", "state": PENDING,
                                    "ready": False}
        drain(tmp_path / "q")
        st = mgr.status("s1")
        assert st["state"] == DONE and st["queue_status"] == "done"
        res = mgr.result("s1")
        assert res["ready"] and res["result"] == {"slept": 0.02}
        led = mgr.ledger()
        assert led["audit"]["ok"] and led["by_state"] == {DONE: 1}

    def test_failed_job_reports_error(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        mgr.submit("flaky", {"fail_first": 99}, job_id="f1",
                   max_attempts=2)
        drain(tmp_path / "q")
        st = mgr.status("f1")
        assert st["state"] == FAILED
        res = mgr.result("f1")
        assert res["ready"] and res["state"] == FAILED and res["error"]

    def test_cancel_before_start_terminalizes(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        mgr.submit("sleep", {"duration": 30.0}, job_id="c1")
        out = mgr.cancel("c1", reason="nevermind")
        assert out["state"] == CANCELLED and not out["escalated"]
        # the queue never hands a cancelled job to a worker, and a farm
        # over it has nothing left to do
        farm_ledger = drain(tmp_path / "q")
        assert farm_ledger["ok"] and farm_ledger["attempts"] == 0
        res = mgr.result("c1")
        assert res["state"] == CANCELLED and res["reason"] == "nevermind"
        assert mgr.status("c1")["attempts"] == 0
        led = mgr.ledger()
        assert led["audit"]["ok"] and led["by_state"] == {CANCELLED: 1}

    def test_watch_streams_until_terminal(self, tmp_path, capsys):
        import io
        mgr = JobManager(tmp_path / "q")
        mgr.submit("sleep", {"duration": 0.01}, job_id="w1")
        drain(tmp_path / "q")
        buf = io.StringIO()
        st = mgr.watch("w1", timeout=5.0, poll=0.05, stream=buf)
        assert st["state"] == DONE
        lines = [json.loads(x) for x in
                 buf.getvalue().strip().splitlines()]
        assert lines and lines[-1]["state"] == DONE

    def test_gc_retention(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        for i in range(3):
            mgr.submit("sleep", {"duration": 0.01}, job_id=f"g{i}")
        mgr.submit("flaky", {"fail_first": 99}, job_id="gf",
                   max_attempts=2)
        mgr.submit("sleep", {"duration": 0.01}, job_id="live")
        drain(tmp_path / "q")
        # make "live" non-terminal again: forge a fresh pending job
        mgr.submit("sleep", {"duration": 9.0}, job_id="pending-one")
        swept = mgr.gc(ttl=3600.0)
        assert swept["n_collected"] == 0  # nothing old enough
        swept = mgr.gc(ttl=0.0, keep_last=2)
        # failed kept (no --include-failed), 2 most recent kept
        assert "gf" not in swept["collected"]
        assert "pending-one" not in swept["collected"]
        assert len(swept["retained"]) == 2
        swept = mgr.gc(ttl=0.0, include_failed=True)
        assert set(mgr.queue.job_ids()) == {"pending-one"}
        workdirs = os.listdir(mgr.queue.work_dir)
        assert set(workdirs) <= {"pending-one"}

    def test_gc_then_resubmit_audits_clean(self, tmp_path):
        mgr = JobManager(tmp_path / "q")
        job = mgr.submit("sleep", {"duration": 0.01})["job"]
        drain(tmp_path / "q")
        assert mgr.gc(ttl=0.0)["collected"] == [job]
        # the id is content-addressed: the same work comes back under it
        assert mgr.submit("sleep", {"duration": 0.01})["job"] == job
        drain(tmp_path / "q")
        audit = mgr.ledger()["audit"]
        assert audit["ok"], audit
        assert audit["jobs_completed"] == 1
        assert audit["double_completions"] == {}
        mgr.gc(ttl=0.0)
        gcs = [r["retired"] for r in mgr.queue.read_journal()
               if r["event"] == "job-gc"]
        assert gcs == [{"complete": 1, "cancel": 0}] * 2
        assert audit_exactly_once(mgr.queue)["ok"]

    def test_dead_attempt_requeues_via_sync(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST, lease_ttl=0.2)
        mgr = JobManager(tmp_path / "q", lease_ttl=0.2)
        mgr.submit("sleep", {"duration": 0.01}, job_id="d1")
        q.claim("doomed")
        assert mgr.sync("d1")["state"] == RUNNING
        # the holder dies silently; past the ttl sync() reaps the lease
        # and the queue requeues the job
        time.sleep(0.3)
        rec = mgr.sync("d1")
        assert rec["state"] == PENDING and rec["attempts"] == 1
        assert mgr.queue.state("d1")["status"] == "pending"
        assert audit_exactly_once(mgr.queue)["ok"]

    def _leased_job_with_child(self, tmp_path, child_worker):
        """Job e1 claimed by ``hostB:777``, whose sandbox is not spawned
        yet, and a ``child.json`` naming ``child_worker`` and the pid of
        a live process that leads its own process group."""
        mgr = JobManager(tmp_path / "q")
        mgr.submit("sleep", {"duration": 30.0}, job_id="e1")
        mgr.queue.claim("hostB:777")
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            preexec_fn=os.setpgrp)
        with open(os.path.join(mgr.queue.job_workdir("e1"),
                               "child.json"), "w") as f:
            json.dump({"worker": child_worker, "job": "e1",
                       "pid": proc.pid}, f)
        return mgr, proc

    def test_escalation_spares_the_pid_of_a_stale_child_file(
            self, tmp_path):
        # hostA:4242 died with the job; its child.json outlived it
        mgr, bystander = self._leased_job_with_child(tmp_path,
                                                     "hostA:4242")
        try:
            out = mgr.cancel("e1", escalate_after=0.0)
            assert out["escalated"] and out["state"] == RUNNING
            time.sleep(0.2)
            assert bystander.poll() is None
            skipped = [(r["worker"], r["owner"])
                       for r in mgr.queue.read_journal()
                       if r["event"] == "job-cancel-escalate-skipped"]
            assert skipped == [("hostA:4242", "hostB:777")]
        finally:
            bystander.kill()
            bystander.wait()

    def test_escalation_signals_the_lease_owners_child(self, tmp_path):
        mgr, child = self._leased_job_with_child(tmp_path, "hostB:777")
        try:
            assert mgr.cancel("e1", escalate_after=0.0)["escalated"]
            assert child.wait(timeout=10.0) == -signal.SIGTERM
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()


# ----------------------------------------------------------------------
# the attempt executor
# ----------------------------------------------------------------------


class TestRunAsyncAttempt:
    def test_attempt_walks_the_state_machine(self, tmp_path):
        # the attempt runs the inner kind and writes nothing to the
        # queue: the worker's fenced complete is its only commit
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(_async_job("a1"))
        job, lease = q.claim("t0")
        journal, state = q.read_journal(), q.state("a1")
        out = run_async_attempt(job.payload, _ctx(q, "a1"))
        assert out["cancelled"] is False
        assert out["result"] == {"slept": 0.01}
        assert q.read_journal() == journal and q.state("a1") == state
        assert q.complete(job, lease, out)
        assert JobManager(q.dir).status("a1")["state"] == DONE

    def test_unknown_inner_kind_raises(self, tmp_path):
        from repro.errors import SolverError
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(Job(id="a1", kind="async",
                      payload={"kind": "nope", "payload": {}}))
        job, lease = q.claim("t0")
        with pytest.raises(SolverError):
            run_async_attempt(job.payload, _ctx(q, "a1"))

    def test_cancel_flag_acknowledged_before_compute(self, tmp_path):
        q = WorkQueue(tmp_path / "q", backoff=FAST)
        q.enqueue(_async_job("a1", duration=60.0))
        with open(os.path.join(q.job_workdir("a1"), CANCEL_FLAG),
                  "w") as f:
            json.dump({"reason": "late veto"}, f)
        job, lease = q.claim("t0")
        t0 = time.monotonic()
        out = run_async_attempt(job.payload, _ctx(q, "a1"))
        assert out["cancelled"] and time.monotonic() - t0 < 5.0
        assert q.complete(job, lease, out)
        res = JobManager(q.dir).result("a1")
        assert res["state"] == CANCELLED and res["reason"] == "late veto"

    def test_stale_attempt_state_reconciled(self, tmp_path):
        # a killed predecessor committed nothing: the queue reclaims its
        # expired lease and the next claim's attempt runs to done
        q = WorkQueue(tmp_path / "q", backoff=FAST, lease_ttl=0.2)
        q.enqueue(_async_job("a1"))
        q.claim("ghost")
        time.sleep(0.3)
        assert q.reclaim_expired() == ["a1"]
        job, lease = q.claim("t0")
        out = run_async_attempt(job.payload, _ctx(q, "a1"))
        assert out["cancelled"] is False and q.complete(job, lease, out)
        st = JobManager(q.dir).status("a1")
        assert st["state"] == DONE and st["attempts"] == 2
        assert audit_exactly_once(q)["ok"]


# ----------------------------------------------------------------------
# marching jobs: progress, checkpoint transitions, resume parity
# ----------------------------------------------------------------------


class TestMarchingJobs:
    def test_solver_march_publishes_progress_and_snapshots(
            self, tmp_path):
        from repro.resilience.chaos import CASES
        mgr = JobManager(tmp_path / "q")
        mgr.submit("solver_case",
                   {"case": "euler1d", "every_n_steps": 3},
                   job_id="m1")
        drain(tmp_path / "q")
        st = mgr.status("m1")
        assert st["state"] == DONE
        assert st["snapshots"]["generations"] >= 1
        prog = st["progress"]
        assert prog is not None and prog["step"] >= 1
        assert prog["label"]  # supervisor label made it to the channel
        assert audit_exactly_once(mgr.queue)["ok"]
        # and the march result is bitwise-identical to a direct run
        factory, run_kwargs, _, _ = CASES["euler1d"]
        ref = factory()
        ref.run(**run_kwargs)
        res = mgr.result("m1")
        assert res["result"]["state_sha256"] == state_fingerprint(ref)

    def test_attempt_journals_under_its_worker_host(self, tmp_path):
        """The worker appends the attempt's claim and completion to its
        own host's journal file, never to another host's."""
        q = tmp_path / "q"
        mgr = JobManager(q, host_id="client")
        mgr.submit("solver_case", {"case": "euler1d", "every_n_steps": 3},
                   job_id="m1")
        drain(q, host_id="hX")
        assert mgr.status("m1")["state"] == DONE
        files = sorted(n for n in os.listdir(q) if n.startswith("journal"))
        assert files == ["journal-client.jsonl", "journal-hX.jsonl"]
        by_file = {}
        for name in files:
            with open(q / name) as f:
                for line in f:
                    rec = json.loads(line)
                    if rec["event"] in ("claim", "complete") \
                            and str(rec["worker"]).startswith("hX:"):
                        by_file[name] = by_file.get(name, 0) + 1
        assert list(by_file) == ["journal-hX.jsonl"], by_file


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------


class TestJobsCLI:
    def _run(self, *argv):
        from repro.__main__ import main
        return main(list(argv))

    def test_submit_status_result_gc_roundtrip(self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        code = self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                         '{"duration": 0.01}', "--id", "cli1")
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["job"] == "cli1" and out["state"] == PENDING
        drain(qd)
        assert self._run("jobs", "status", "--queue-dir", qd,
                         "cli1") == 0
        st = json.loads(capsys.readouterr().out)
        assert st["state"] == DONE
        assert self._run("jobs", "result", "--queue-dir", qd,
                         "cli1") == 0
        res = json.loads(capsys.readouterr().out)
        assert res["result"] == {"slept": 0.01}
        assert self._run("jobs", "ledger", "--queue-dir", qd) == 0
        led = json.loads(capsys.readouterr().out)
        assert led["audit"]["ok"]
        assert self._run("jobs", "gc", "--queue-dir", qd, "--ttl",
                         "0") == 0
        swept = json.loads(capsys.readouterr().out)
        assert swept["collected"] == ["cli1"]

    def test_cancel_exits_zero(self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                  '{"duration": 30}', "--id", "cli2")
        capsys.readouterr()
        assert self._run("jobs", "cancel", "--queue-dir", qd,
                         "cli2") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["state"] == CANCELLED

    def test_failed_job_exits_one(self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        self._run("jobs", "submit", "--queue-dir", qd, "flaky",
                  '{"fail_first": 99}', "--id", "cli3",
                  "--max-attempts", "2")
        drain(qd)
        capsys.readouterr()
        assert self._run("jobs", "result", "--queue-dir", qd,
                         "cli3") == 1

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        assert self._run("jobs") == 2
        assert self._run("jobs", "teleport", "--queue-dir", qd) == 2
        assert self._run("jobs", "status", "--queue-dir", qd) == 2
        assert self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                         "not json") == 2
        assert self._run("jobs", "submit", "sleep") == 2  # no queue
        # each action takes only its JobManager method's keywords
        assert self._run("jobs", "gc", "--queue-dir", qd, "--wait",
                         "5") == 2
        assert self._run("jobs", "result", "--queue-dir", qd, "j1",
                         "--ttl", "3") == 2
        assert self._run("jobs", "status", "--queue-dir", qd, "j1",
                         "--ttl", "3") == 2
        assert self._run("jobs", "ledger", "--queue-dir", qd, "--ttl",
                         "5") == 2
        # ... with ranges
        assert self._run("jobs", "gc", "--queue-dir", qd, "--ttl",
                         "-5") == 2
        assert self._run("jobs", "gc", "--queue-dir", qd, "--keep-last",
                         "-1") == 2
        assert self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                         "--max-attempts", "0") == 2
        assert self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                         "--deadline", "inf") == 2
        assert self._run("campaign", "--figures", "--kill-workers",
                         "-1") == 2
        capsys.readouterr()
        # zero kills is the default and stays legal (parse only: no
        # campaign runs)
        from repro.__main__ import _build_parser
        for argv in (["campaign", "--kill-workers", "0", "--figures"],
                     ["chaos", "--kill-workers", "0"]):
            assert _build_parser().parse_args(argv).kill_workers == 0

    def test_malformed_job_id_is_a_usage_error_and_creates_nothing(
            self, tmp_path, capsys):
        qd = str(tmp_path / "q")
        for action in ("status", "watch", "result", "cancel"):
            assert self._run("jobs", action, "--queue-dir", qd,
                             "../../escape") == 2
            assert self._run("jobs", action, "--queue-dir", qd,
                             "--id", "../../escape") == 2
        assert self._run("jobs", "submit", "--queue-dir", qd, "sleep",
                         "--id", "../../escape") == 2
        assert "invalid job id" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_api_submit_async_handle(self, tmp_path):
        from repro.core import submit_async
        handle = submit_async("sleep", {"duration": 0.01},
                              queue_dir=str(tmp_path / "q"))
        assert handle.status()["state"] == PENDING
        drain(str(tmp_path / "q"))
        assert handle.result()["result"] == {"slept": 0.01}
