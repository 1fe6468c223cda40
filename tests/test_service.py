"""Batch evaluation service: envelopes, load shedding, deadlines,
breakers, idempotency keys and the farm-sharded path."""

import json

import numpy as np
import pytest

from repro.errors import InputError, OverloadError
from repro.service import (BatchPolicy, BreakerBoard, BreakerPolicy,
                           canonical_request, evaluate_batch,
                           evaluate_batch_farm, request_key,
                           validate_request)
from repro.service.batch import batch_jobs, shard_requests


def _good(i=0, **kw):
    req = {"method": "heat_point", "V": 7000.0 + i, "h": 50e3,
           "nose_radius": 1.0}
    req.update(kw)
    return req


class TestValidation:
    def test_non_dict_is_invalid_record(self):
        req, env = validate_request("garbage", index=3)
        assert req is None
        assert env.status == "failed"
        assert env.error["kind"] == "invalid"
        assert env.error["error_type"] == "InputError"
        assert env.index == 3

    def test_unknown_method_lists_options(self):
        _, env = validate_request({"method": "warp"}, index=0)
        assert "heat_point" in env.error["message"]

    def test_missing_and_out_of_range_fields_all_reported(self):
        _, env = validate_request({"method": "heat_point", "V": -5.0},
                                  index=0)
        msgs = " ".join(env.error["problems"])
        assert "'V'" in msgs and "nose_radius" in msgs and "'h'" in msgs

    def test_unknown_gas_is_invalid(self):
        _, env = validate_request(_good(gas="venus"), index=0)
        assert "venus" in env.error["message"]
        assert "titan" in env.error["message"]

    def test_fault_rejected_without_allow_faults(self):
        _, env = validate_request(_good(fault={"kind": "fail"}),
                                  index=0)
        assert env is not None and "fault" in env.error["message"]
        req, env = validate_request(_good(fault={"kind": "fail"}),
                                    index=0, allow_faults=True)
        assert env is None and req.fault == {"kind": "fail"}

    def test_nonfinite_and_unexpected_fields(self):
        _, env = validate_request(_good(V=float("nan"), bogus=1),
                                  index=0)
        msgs = " ".join(env.error["problems"])
        assert "finite" in msgs and "bogus" in msgs

    @pytest.mark.parametrize("raw, problem", [
        (json.loads('{"method": "heat_point", "V": 1' + "0" * 400
                    + ', "h": 5e4, "nose_radius": 1.0}'),
         "field 'V' must be finite, got inf"),
        (json.loads('{"method": "heat_point", "V": 7e3, "h": 5e4, '
                    '"nose_radius": 1.0, "deadline": 1' + "0" * 400
                    + '}'),
         "field 'deadline' must be finite, got inf"),
        ({**_good(), 7: "x"}, "unexpected field 7"),
        (_good(V={1, 2}), "field 'V' must be a number, got set"),
    ], ids=["huge-int-field", "huge-int-deadline", "non-string-name",
            "unencodable-value"])
    def test_malformed_request_is_a_record_not_an_exception(self, raw,
                                                            problem):
        req, env = validate_request(raw, index=0)
        assert req is None
        assert env.error["kind"] == "invalid"
        assert env.error["problems"] == [problem]
        assert len(env.key) == 64


class TestRequestKeys:
    def test_key_of_a_json_request_is_pinned(self):
        # dedup and the farm's chunk ids depend on this exact digest
        assert request_key({"method": "heat_point", "V": 7200.0,
                            "h": 55e3, "nose_radius": 1.3}) == (
            "66d1e925c8e5a92841a431f9987799a1c5235cda950030872569d6d1"
            "77fac7a6")

    def test_key_ignores_volatile_tags_and_order(self):
        a = {"method": "heat_point", "V": 7.0e3, "h": 5.0e4,
             "nose_radius": 1.0, "id": "client-1"}
        b = {"id": "client-2", "nose_radius": 1.0, "h": 5.0e4,
             "V": 7000.0, "method": "heat_point"}
        assert request_key(a) == request_key(b)

    def test_fault_changes_the_key(self):
        assert request_key(_good()) != request_key(
            _good(fault={"kind": "hang"}))

    def test_canonical_drops_tags(self):
        assert "id" not in canonical_request(_good(id="x"))

    def test_dedup_within_batch(self):
        res = evaluate_batch([_good(), _good(i=1), _good()])
        assert res.envelopes[2].deduped_of == 0
        assert res.envelopes[2].result == res.envelopes[0].result
        assert res.ledger["deduped"] == 1

    def test_no_dedup_when_disabled(self):
        res = evaluate_batch([_good(), _good()],
                             BatchPolicy(dedup=False))
        assert res.envelopes[1].deduped_of is None


class TestBreakerStateMachine:
    def _board(self, trip_after=3, cooldown=10.0):
        clock = [0.0]
        board = BreakerBoard(BreakerPolicy(trip_after=trip_after,
                                           cooldown=cooldown),
                             clock=lambda: clock[0])
        return board, clock

    def test_trips_after_k_consecutive_failures(self):
        board, _ = self._board(trip_after=3)
        cell = board.cell("stagnation", "vsl", "air")
        for _ in range(2):
            assert cell.allow()
            cell.record_failure()
        assert cell.state == "closed"
        assert cell.allow()
        cell.record_failure()
        assert cell.state == "open"
        assert not cell.allow()

    def test_success_resets_the_consecutive_count(self):
        board, _ = self._board(trip_after=3)
        cell = board.cell("m", "r", "c")
        cell.record_failure()
        cell.record_failure()
        cell.record_success()
        cell.record_failure()
        cell.record_failure()
        assert cell.state == "closed"

    def test_half_open_probe_recloses_on_success(self):
        board, clock = self._board(trip_after=1, cooldown=10.0)
        cell = board.cell("m", "r", "c")
        cell.allow()
        cell.record_failure()
        assert cell.state == "open"
        clock[0] = 5.0
        assert not cell.allow()          # cooldown not elapsed
        clock[0] = 10.0
        assert cell.allow()              # the half-open probe
        assert cell.state == "half_open"
        assert not cell.allow()          # only one probe at a time
        cell.record_success()
        assert cell.state == "closed"
        pairs = [(t["from"], t["to"]) for t in board.transitions]
        assert pairs == [("closed", "open"), ("open", "half_open"),
                         ("half_open", "closed")]

    def test_half_open_probe_reopens_on_failure(self):
        board, clock = self._board(trip_after=1, cooldown=10.0)
        cell = board.cell("m", "r", "c")
        cell.allow()
        cell.record_failure()
        clock[0] = 11.0
        assert cell.allow()
        cell.record_failure()
        assert cell.state == "open"
        clock[0] = 20.0
        assert not cell.allow()          # cooldown restarted at 11
        clock[0] = 21.0
        assert cell.allow()

    def test_breaker_routes_batch_down_the_ladder(self):
        # three failing requests trip the cell; the fourth routes to
        # the correlation rung without touching the failing rung
        pol = BatchPolicy(allow_faults=True,
                          breaker=BreakerPolicy(trip_after=3,
                                                cooldown=600.0))
        reqs = [{"method": "stagnation", "V": 7000.0 + i, "h": 71e3,
                 "nose_radius": 1.3,
                 "fault": {"kind": "fail", "rung": "vsl"}}
                for i in range(4)]
        res = evaluate_batch(reqs, pol)
        assert [e.status for e in res.envelopes] == ["degraded"] * 4
        assert res.envelopes[3].routed_by_breaker
        trans = res.ledger["breaker"]["transitions"]
        assert [(t["from"], t["to"]) for t in trans] == [
            ("closed", "open")]
        assert trans[0]["request_index"] == 2


class TestAdmissionControl:
    def test_shed_above_rejects_the_whole_batch(self):
        with pytest.raises(OverloadError) as exc:
            evaluate_batch([_good(i) for i in range(5)],
                           BatchPolicy(shed_above=3))
        assert exc.value.limit == 3

    def test_farm_path_sheds_at_the_door(self, tmp_path):
        with pytest.raises(OverloadError):
            evaluate_batch_farm([_good(i) for i in range(5)],
                                BatchPolicy(shed_above=3),
                                queue_dir=str(tmp_path / "q"))
        assert not (tmp_path / "q").exists()    # no job was enqueued

    def test_default_cap_is_one_hundred_thousand(self):
        assert BatchPolicy().shed_above == 100_000
        assert evaluate_batch([_good()],
                              BatchPolicy(shed_above=1)).counts == {
            "ok": 1}


class TestBatchPolicyChecks:
    @pytest.mark.parametrize("name, value", [
        ("deadline", 0.0), ("deadline", float("nan")),
        ("deadline", float("inf")), ("deadline", True),
        ("request_deadline", 0.0), ("request_deadline", -1.0),
        ("request_deadline", "10"), ("shed_above", 0),
        ("shed_above", 2.5), ("shed_above", True), ("chunk_size", 0),
        ("chunk_size", None), ("chunk_size", False),
        ("isolate", "sometimes")])
    def test_bad_budget_is_refused(self, name, value):
        with pytest.raises(InputError, match=name):
            BatchPolicy(**{name: value})
        with pytest.raises(InputError, match=name):
            BatchPolicy.from_dict({name: value})

    def test_good_budgets_pass(self):
        pol = BatchPolicy(deadline=5, request_deadline=None,
                          shed_above=None, chunk_size=1)
        assert BatchPolicy.from_dict(pol.to_dict()) == pol


class TestDeadlines:
    def test_batch_deadline_marks_unserved_requests(self):
        pol = BatchPolicy(deadline=0.2, allow_faults=True)
        reqs = [_good(fault={"kind": "slow", "seconds": 0.3})]
        reqs += [_good(i) for i in range(1, 4)]
        res = evaluate_batch(reqs, pol)
        assert res.envelopes[0].status == "ok"   # ran before expiry
        late = [e for e in res.envelopes[1:]]
        assert all(e.status == "failed"
                   and e.error["kind"] == "deadline" for e in late)
        assert res.ledger["deadline_expired"] == 3

    def test_hung_request_is_killed_and_recorded(self):
        pol = BatchPolicy(allow_faults=True, request_deadline=0.6)
        res = evaluate_batch([_good(fault={"kind": "hang"}),
                              _good(i=1)], pol)
        hung, good = res.envelopes
        assert hung.status == "failed"
        assert hung.error["kind"] == "hang"
        assert hung.report is not None
        assert good.status == "ok"

    def test_per_request_deadline_field_wins_when_tighter(self):
        pol = BatchPolicy(allow_faults=True, request_deadline=30.0)
        res = evaluate_batch(
            [_good(fault={"kind": "hang"}, deadline=0.5)], pol)
        assert res.envelopes[0].error["kind"] == "hang"
        assert res.envelopes[0].latency_s < 5.0


class TestChaosStyleBatch:
    def test_200_requests_20_faulted_exactly_180_ok_bitwise(self):
        rng = np.random.default_rng(42)
        good = []
        for i in range(180):
            pick = i % 3
            if pick == 0:
                good.append({"method": "heat_point",
                             "V": 3000.0 + 9000.0 * rng.random(),
                             "h": 30e3 + 50e3 * rng.random(),
                             "nose_radius": 0.5 + 3.0 * rng.random()})
            elif pick == 1:
                good.append({"method": "stagnation_correlation",
                             "V": 4000.0 + 8000.0 * rng.random(),
                             "h": 30e3 + 50e3 * rng.random(),
                             "nose_radius": 0.5 + 3.0 * rng.random()})
            else:
                good.append({"method": "equilibrium_composition",
                             "T": 1500.0 + 6000.0 * rng.random(),
                             "p": 10.0 ** (3 + 2 * rng.random())})
        # 20 fault-injected requests on the titan condition class: a
        # breaker cell the good (earth-class) requests never share
        faulted = [{"method": "heat_point", "V": 5000.0 + 7.0 * i,
                    "h": 55e3, "nose_radius": 1.0, "gas": "titan",
                    "fault": {"kind": ("fail", "nan")[i % 2]}}
                   for i in range(20)]
        positions = sorted(rng.choice(200, size=20,
                                      replace=False).tolist())
        batch, gi, fi = [], 0, 0
        for i in range(200):
            if i in set(positions):
                batch.append(faulted[fi]); fi += 1
            else:
                batch.append(good[gi]); gi += 1

        res = evaluate_batch(batch, BatchPolicy(allow_faults=True))
        ref = evaluate_batch(good)

        assert len(res.envelopes) == 200
        ok = [e for e in res.envelopes if e.status == "ok"]
        assert len(ok) == 180
        good_pos = [i for i in range(200) if i not in set(positions)]
        for j, i in enumerate(good_pos):
            assert res.envelopes[i].status == "ok"
            assert res.envelopes[i].result == ref.envelopes[j].result
        for i in positions:
            env = res.envelopes[i]
            assert env.status == "failed"
            assert env.error is not None

    def test_campaign_entry_point_passes(self, tmp_path):
        from repro.resilience.chaos import run_chaos_batch
        code = run_chaos_batch(requests=24, faulted=5, seed=3,
                               out=str(tmp_path), deadline=120.0,
                               stream=open(tmp_path / "log.txt", "w"))
        report = json.loads(
            (tmp_path / "chaos-ledger.json").read_text())
        assert code == 0, report["checks"]
        assert report["mode"] == "batch"
        assert sorted(report["checks"]) == sorted([
            "one_envelope_per_request", "deadline_respected",
            "good_requests_all_ok", "good_results_bitwise_identical",
            "injected_failures_captured",
            "breaker_transitions_deterministic", "probes_reclose_ok"])
        assert report["ok"] == all(report["checks"].values())
        assert report["ok"]
        assert report["checks"]["good_results_bitwise_identical"]
        assert report["checks"]["breaker_transitions_deterministic"]


class TestFarmBatch:
    def test_farm_shards_match_serial_bitwise(self, tmp_path):
        reqs = [_good(i) for i in range(11)]
        reqs[4] = {"method": "heat_point", "V": -1.0, "h": 50e3,
                   "nose_radius": 1.0}    # invalid rides along
        serial = evaluate_batch(reqs)
        farm = evaluate_batch_farm(reqs, queue_dir=str(tmp_path / "q"),
                                   n_workers=2, chunk_size=4)
        assert farm.ledger["ok"]
        assert farm.ledger["audit"]["ok"]
        assert len(farm.envelopes) == len(reqs)
        for s, f in zip(serial.envelopes, farm.envelopes):
            assert s.status == f.status
            assert s.result == f.result
            assert f.index == s.index

    def test_chunk_job_ids_are_content_addressed(self):
        reqs = [_good(i) for i in range(10)]
        a = batch_jobs(reqs, BatchPolicy(), chunk_size=4)
        b = batch_jobs(list(reqs), BatchPolicy(), chunk_size=4)
        assert [j.id for j in a] == [j.id for j in b]
        assert len(a) == 3
        assert [j.payload["offset"] for j in a] == [0, 4, 8]

    def test_dead_lettered_chunk_still_yields_envelopes(self, tmp_path):
        from repro.resilience.farm import FarmPolicy
        from repro.resilience.queue import BackoffPolicy, Job, WorkQueue
        # poison the first chunk's (content-addressed) job id with an
        # always-failing job: enqueue is idempotent, so the campaign
        # inherits the poisoned job, it dead-letters after one attempt,
        # and the merge must synthesize one failed envelope per request
        pol = BatchPolicy(chunk_size=3)
        reqs = [_good(i) for i in range(5)]
        jobs = batch_jobs(reqs, pol, chunk_size=3)
        queue = WorkQueue(str(tmp_path / "q"))
        queue.enqueue(Job(id=jobs[0].id, kind="flaky",
                          payload={"fail_first": 99}, max_attempts=1))
        farm = evaluate_batch_farm(
            reqs, pol, queue_dir=str(tmp_path / "q"), n_workers=1,
            chunk_size=3,
            farm_policy=FarmPolicy(
                n_workers=1,
                backoff=BackoffPolicy(max_attempts=1)))
        assert len(farm.envelopes) == 5
        assert all(e is not None for e in farm.envelopes)
        assert [e.error["kind"] for e in farm.envelopes[:3]] \
            == ["farm"] * 3
        assert [e.status for e in farm.envelopes[3:]] == ["ok", "ok"]
        assert farm.ledger["failed_kinds"]["farm"] == 3

    def test_ledger_counts_the_workers_that_ran(self, tmp_path):
        from repro.resilience.farm import FarmPolicy
        farm = evaluate_batch_farm(
            [_good(i) for i in range(2)], queue_dir=str(tmp_path / "q"),
            farm_policy=FarmPolicy(n_workers=1))
        assert farm.ledger["ok"]
        assert farm.ledger["farm"]["n_workers"] == 1

    def test_shard_requests_covers_everything_once(self):
        shards = shard_requests(list(range(10)), 4)
        assert [s[0] for s in shards] == [0, 4, 8]
        assert sum((s[1] for s in shards), []) == list(range(10))


class TestEnvelopeInvariants:
    def test_no_exception_escapes_and_nan_results_fail(self):
        pol = BatchPolicy(allow_faults=True)
        reqs = [_good(),
                _good(i=1, fault={"kind": "nan"}),
                {"method": "equilibrium_composition", "T": 4000.0,
                 "p": 1.0e4, "gas": "jupiter"},
                "garbage",
                {"method": "windward", "V": 5000.0, "h": 60e3,
                 "alpha_deg": 1e9}]
        res = evaluate_batch(reqs, pol)
        assert [e.index for e in res.envelopes] == list(range(5))
        assert res.envelopes[1].status == "failed"
        assert "non-finite" in res.envelopes[1].error["message"]
        assert res.ledger["ok"]

    def test_columns_align_with_requests(self):
        res = evaluate_batch([_good(), "junk", _good(i=2)])
        cols = res.columns(["q_conv"])
        assert cols["q_conv"].shape == (3,)
        assert np.isnan(cols["q_conv"][1])
        assert cols["ok"].tolist() == [True, False, True]

    def test_roundtrips_through_json(self):
        from repro.service import Envelope
        res = evaluate_batch([_good(), "junk"])
        for env in res.envelopes:
            blob = json.dumps(env.to_dict(), default=str)
            back = Envelope.from_dict(json.loads(blob))
            assert back.status == env.status
            assert back.result == env.result


class TestBatchCLI:
    def _write(self, tmp_path, rows):
        p = tmp_path / "reqs.jsonl"
        p.write_text("\n".join(json.dumps(r) if isinstance(r, dict)
                               else r for r in rows) + "\n")
        return str(p)

    def test_good_batch_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main
        path = self._write(tmp_path, [_good(i) for i in range(3)])
        out = tmp_path / "out.jsonl"
        assert main(["batch", path, "--out", str(out)]) == 0
        lines = [json.loads(x) for x in
                 out.read_text().splitlines()]
        assert [e["status"] for e in lines] == ["ok"] * 3

    def test_failures_exit_one(self, tmp_path):
        from repro.__main__ import main
        path = self._write(tmp_path, [_good(), "not-json"])
        assert main(["batch", path, "--out",
                     str(tmp_path / "o.jsonl")]) == 1

    def test_integer_too_large_for_a_float_is_one_invalid_envelope(
            self, tmp_path):
        from repro.__main__ import main
        huge = ('{"method": "heat_point", "V": 1' + "0" * 400
                + ', "h": 5e4, "nose_radius": 1.0}')
        path = self._write(tmp_path, [huge, _good()])
        out = tmp_path / "o.jsonl"
        assert main(["batch", path, "--out", str(out)]) == 1
        lines = [json.loads(x) for x in out.read_text().splitlines()]
        assert [e["status"] for e in lines] == ["failed", "ok"]
        assert lines[0]["error"]["kind"] == "invalid"

    def test_usage_errors_exit_two(self, tmp_path):
        from repro.__main__ import main
        path = self._write(tmp_path, [_good()])
        assert main(["batch", "--bogus"]) == 2
        assert main(["batch", path, "-j", "4"]) == 2
        # -j at its default value must still require --farm
        assert main(["batch", path, "-j", "2"]) == 2
        assert main(["batch", path, "--isolate", "sometimes"]) == 2
        assert main(["batch", path, "--deadline", "nan"]) == 2
        assert main(["batch", path, "--deadline", "inf"]) == 2
        assert main(["batch", str(tmp_path / "missing.jsonl")]) == 2
        assert main(["chaos", "--requests", "10"]) == 2
        assert main(["chaos", "--batch", "--requests", "5",
                     "--faulted", "5"]) == 2

    def test_farm_bench_records_default_workers(self, tmp_path):
        from repro.__main__ import main
        path = self._write(tmp_path, [_good(i) for i in range(3)])
        bench = tmp_path / "bench.json"
        assert main(["batch", path, "--farm", "--queue-dir",
                     str(tmp_path / "q"), "--out",
                     str(tmp_path / "o.jsonl"), "--bench", str(bench)]) == 0
        record = json.loads(bench.read_text())
        assert record["mode"] == "farm" and record["n_workers"] == 2

    def test_bench_and_ledger_written(self, tmp_path):
        from repro.__main__ import main
        path = self._write(tmp_path, [_good(i) for i in range(4)])
        led, bench = tmp_path / "led.json", tmp_path / "bench.json"
        code = main(["batch", path, "--out",
                     str(tmp_path / "o.jsonl"), "--ledger", str(led),
                     "--bench", str(bench)])
        assert code == 0
        ledger = json.loads(led.read_text())
        record = json.loads(bench.read_text())
        assert ledger["counts"] == {"ok": 4}
        assert record["requests_per_s"] > 0
        assert set(record["latency_s"]) >= {"p50", "p99"}


# ----------------------------------------------------------------------
# breaker ledger merge determinism (satellite)
# ----------------------------------------------------------------------


class TestBreakerMergeDeterminism:
    """Chunk boards number transitions per-process, so bare ``seq``
    values collide across chunks; the merged ledger keys by
    ``(cell, origin, seq)`` and must be a pure function of the chunk
    set, whatever order the farm finished the chunks in."""

    @staticmethod
    def _chunk(origin, cells):
        return {"breaker": {
            "states": {c: "open" for c in cells},
            "transitions": [{"seq": i, "origin": origin, "cell": c,
                             "frm": "closed", "to": "open",
                             "request": 10 * i}
                            for i, c in enumerate(cells)]}}

    def test_merge_is_chunk_order_invariant(self):
        import random
        from repro.service.batch import _merge_chunk_breakers
        chunks = [self._chunk("hostA:11", ["c2", "c0", "c1"]),
                  self._chunk("hostB:7", ["c1", "c0"]),
                  self._chunk("hostA:90", ["c2"]),
                  {"breaker": {}},   # chunk with no trips
                  None]              # dead-lettered chunk
        ref = _merge_chunk_breakers(chunks)
        assert len(ref["transitions"]) == 6
        assert list(ref["states"]) == sorted(ref["states"])
        for seed in range(8):
            shuffled = list(chunks)
            random.Random(seed).shuffle(shuffled)
            merged = _merge_chunk_breakers(shuffled)
            assert merged["transitions"] == ref["transitions"]
            assert list(merged["states"]) == list(ref["states"])

    def test_colliding_bare_seqs_stay_distinct(self):
        from repro.service.batch import _merge_chunk_breakers
        merged = _merge_chunk_breakers(
            [self._chunk("hostA:1", ["c0"]),
             self._chunk("hostB:2", ["c0"])])
        # both chunks tripped cell c0 with seq 0; the composite key
        # keeps both records instead of deduplicating one away
        keys = {(t["cell"], t["origin"], t["seq"])
                for t in merged["transitions"]}
        assert len(keys) == len(merged["transitions"]) == 2

    def test_live_boards_stamp_distinct_origins(self):
        from repro.service.breaker import BreakerBoard, BreakerPolicy
        a = BreakerBoard(BreakerPolicy(), origin="hostA:1")
        b = BreakerBoard(BreakerPolicy(), origin="hostB:2")
        for board in (a, b):
            cell = board.cell("stag", "euler", "laminar")
            for i in range(board.policy.trip_after):
                cell.record_failure(request_index=i)
        trips = (a.snapshot()["transitions"]
                 + b.snapshot()["transitions"])
        assert len(trips) == 2
        assert {t["origin"] for t in trips} == {"hostA:1", "hostB:2"}
