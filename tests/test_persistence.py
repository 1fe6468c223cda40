"""Durable checkpoint/restart tests.

The contract under test (see DESIGN.md "Durable persistence"):

* save -> kill -> re-run on the same directory reproduces the
  uninterrupted trajectory **bit for bit** on every marching solver,
* corruption of the latest snapshot (truncation, bit flip, torn
  manifest) is detected by SHA-256 verification and recovery proceeds
  from the previous generation,
* writes are atomic (no live temp files), retention keeps last K,
* resuming into the wrong directory is refused by config fingerprint,
* a real SIGKILLed process resumes from disk,
* the figure suite skips completed figures and re-enters interrupted
  ones.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from repro.errors import CancelledError, CheckpointError, StabilityError
from repro.resilience import (Checkpoint, FaultInjector, Heartbeat,
                              PersistencePolicy, RetryPolicy,
                              SimulatedCrash, SnapshotStore,
                              solver_fingerprint)
from repro.resilience.chaos import CASES as CHAOS_CASES
from repro.resilience.isolation import (set_process_cancel,
                                        set_process_heartbeat)

# ----------------------------------------------------------------------
# solver case matrix: the chaos harness's four marches, with this
# suite's own step counts and crash steps
# ----------------------------------------------------------------------


def _factory(name):
    return CHAOS_CASES[name][0]


#: name -> (factory, run(solver, **kw), total steps, crash step)
CASES = {
    "euler1d": (_factory("euler1d"),
                lambda s, **kw: s.run(0.1, cfl=0.4, **kw), 20, 13),
    "euler2d": (_factory("euler2d"),
                lambda s, **kw: s.run(n_steps=24, cfl=0.3, **kw), 24, 15),
    "ns2d": (_factory("ns2d"),
             lambda s, **kw: s.run(n_steps=16, cfl=0.3, **kw), 16, 11),
    "reacting_euler2d": (_factory("reacting_euler2d"),
                         lambda s, **kw: s.run(n_steps=10, cfl=0.3, **kw),
                         10, 7),
}


def _state_bytes(solver):
    out = {}
    for k, v in solver.get_state().items():
        out[k] = v.tobytes() if isinstance(v, np.ndarray) else v
    return out


# ----------------------------------------------------------------------
# one march loop: every run() goes through RunSupervisor.march
# ----------------------------------------------------------------------


@pytest.fixture
def process_hooks():
    yield
    set_process_heartbeat(None)
    set_process_cancel(None)


class TestOneMarchLoop:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_supervision_keywords_leave_fault_free_march_bitwise(
            self, name, tmp_path):
        factory, run, _n, _c = CASES[name]
        states = []
        for kw in ({}, {"resilience": True}, {"watchdog": True},
                   {"persist": PersistencePolicy(tmp_path / name)}):
            s = factory()
            run(s, **kw)
            states.append(_state_bytes(s))
        assert all(st == states[0] for st in states[1:])

    @pytest.mark.parametrize("kw, captures",
                             [({}, 0), ({"resilience": True}, 3)])
    def test_only_an_armed_march_keeps_rollback_checkpoints(
            self, kw, captures, monkeypatch):
        # an armed march captures at its start and every
        # CHECKPOINT_INTERVAL (25) steps; a bare one re-raises a failing
        # step's error and never rolls back, so it captures nothing
        calls, capture = [], Checkpoint.capture
        monkeypatch.setattr(Checkpoint, "capture", staticmethod(
            lambda solver: calls.append(1) or capture(solver)))
        s = _factory("euler2d")()
        s.run(n_steps=60, cfl=0.3, **kw)
        assert s.steps == 60
        assert len(calls) == captures

    def test_bare_failure_is_the_steps_own_error(self):
        s = _factory("euler1d")()
        with np.errstate(all="ignore"), \
                pytest.raises(StabilityError) as exc:
            s.run(0.1, cfl=5.0)
        msg = str(exc.value)
        assert msg.startswith("euler1d: non-finite state at cell (19,)")
        assert "retry ladder exhausted" not in msg
        assert exc.value.report is None

    @pytest.mark.parametrize("switch", ["resilience", "watchdog"])
    def test_false_switch_leaves_the_march_bare(self, switch):
        """``False``, like ``None``, leaves a supervision switch off."""
        s = _factory("euler1d")()
        with np.errstate(all="ignore"), \
                pytest.raises(StabilityError) as exc:
            s.run(0.1, cfl=5.0, **{switch: False})
        assert "retry ladder exhausted" not in str(exc.value)
        assert exc.value.report is None

    @pytest.mark.parametrize("switch", ["watchdog", "resilience"])
    def test_audit_switches_take_only_booleans(self, switch):
        """Anything but None, False, True (or, for ``resilience``, a
        RetryPolicy) is refused, not read as "on"."""
        for value in (1, 0, "off", []):
            with pytest.raises(TypeError, match=switch):
                _factory("euler1d")().run(0.1, cfl=0.4, **{switch: value})

    @pytest.mark.parametrize("kw", [{}, {"resilience": True}])
    def test_budget_spent_on_the_final_step_is_converged(self, kw):
        factory, run_kwargs, _n, _b = CHAOS_CASES["euler1d"]
        s = factory().run(**run_kwargs, max_steps=20, **kw)
        assert s.steps == 20 and s.t == pytest.approx(0.1, abs=1e-15)
        assert s.converged is True

    def test_budget_spent_on_the_final_step_resumes_converged(
            self, tmp_path):
        factory, run_kwargs, _n, _b = CHAOS_CASES["euler1d"]
        policy = PersistencePolicy(tmp_path)
        factory().run(**run_kwargs, max_steps=20, persist=policy)
        again = factory().run(**run_kwargs, max_steps=20, persist=policy)
        assert again.converged is True

    def test_bare_march_beats_process_heartbeat(self, tmp_path,
                                                process_hooks):
        hb_path = tmp_path / "hb.json"
        set_process_heartbeat(Heartbeat(hb_path, min_interval=0.0))
        s = _factory("euler1d")().run(0.1, cfl=0.4)
        beat = json.loads(hb_path.read_text())
        assert beat["step"] == s.steps == 20
        assert beat["progress"]["label"] == "euler1d"
        assert beat["progress"]["step"] == s.steps
        # the stop rule ends the march at the top of step 20, after the
        # last beat: the beat carries the solver's own clocks
        assert beat["progress"]["steps"] == s.steps
        assert beat["progress"]["t"] == s.t
        assert "residual" not in beat["progress"]

    def test_bare_2d_march_beats_its_residual(self, tmp_path,
                                              process_hooks):
        hb_path = tmp_path / "hb.json"
        set_process_heartbeat(Heartbeat(hb_path, min_interval=0.0))
        s = _factory("euler2d")().run(n_steps=12, cfl=0.3)
        beat = json.loads(hb_path.read_text())
        # the last beat precedes step 12: it reports step 11's residual
        assert beat["step"] == s.steps - 1 == 11
        assert beat["progress"]["label"] == "AxisymmetricEulerSolver"
        assert beat["progress"]["step"] == 11
        assert beat["progress"]["steps"] == 11
        assert beat["progress"]["t"] == s.t
        assert beat["progress"]["residual"] == s.residual_history[10]

    def test_bare_march_polls_process_cancel(self, process_hooks):
        set_process_cancel(lambda: "stop")
        s = _factory("euler1d")()
        with pytest.raises(CancelledError, match="stop"):
            s.run(0.1, cfl=0.4)
        assert s.steps == 0


# ----------------------------------------------------------------------
# save -> kill -> resume round-trips
# ----------------------------------------------------------------------


class TestCrashResumeRoundTrip:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bitwise_identical_after_crash_resume(self, name, tmp_path):
        factory, run, _n, crash_step = CASES[name]
        ref = factory()
        run(ref)

        d = tmp_path / name
        crashed = factory()
        faults = FaultInjector().inject_crash(step=crash_step)
        with pytest.raises(SimulatedCrash):
            run(crashed, faults=faults,
                persist=PersistencePolicy(d, every_n_steps=4))
        assert faults.n_fired == 1

        resumed = factory()
        run(resumed, persist=PersistencePolicy(d, every_n_steps=4))
        ref_state, res_state = _state_bytes(ref), _state_bytes(resumed)
        assert sorted(ref_state) == sorted(res_state)
        for key in ref_state:
            assert res_state[key] == ref_state[key], key

    @pytest.mark.parametrize("name", ["euler1d", "euler2d"])
    def test_completed_run_resumes_as_noop(self, name, tmp_path):
        factory, run, n, _crash = CASES[name]
        d = tmp_path / name
        done = factory()
        run(done, persist=PersistencePolicy(d, every_n_steps=4))
        seqs = SnapshotStore(PersistencePolicy(d)).sequences()
        again = factory()
        run(again, persist=PersistencePolicy(d, every_n_steps=4))
        assert again.steps == done.steps
        assert again.U.tobytes() == done.U.tobytes()
        assert SnapshotStore(PersistencePolicy(d)).sequences() == seqs

    def test_rerun_with_same_dir_continues_mid_march(self, tmp_path):
        """Re-entering run(persist=dir) after a crash (the figure-suite
        path) resumes instead of restarting."""
        factory, run, _n, crash_step = CASES["euler2d"]
        ref = factory()
        run(ref)
        d = tmp_path / "ck"
        s = factory()
        with pytest.raises(SimulatedCrash):
            run(s, faults=FaultInjector().inject_crash(step=crash_step),
                persist=PersistencePolicy(d, every_n_steps=4))
        s2 = factory()
        run(s2, persist=PersistencePolicy(d, every_n_steps=4))
        assert s2.U.tobytes() == ref.U.tobytes()
        # the resumed march must not have replayed from step 0
        assert len(s2.residual_history) == len(ref.residual_history)

    def test_resumed_march_keeps_its_spent_retries(self, tmp_path):
        """The snapshot records the retries spent, and a re-run
        re-enters the ladder with them: a second NaN after the resume
        exhausts a one-retry budget exactly as it does uninterrupted,
        while a march whose budget is not exhausted still resumes
        bitwise."""
        factory, run_kwargs, _n, _b = CHAOS_CASES["euler1d"]
        policy = RetryPolicy(max_retries=1)

        def nans(*steps):
            faults = FaultInjector()
            for step in steps:
                faults.inject_nan(step=step, cell=(20,))
            return faults

        with pytest.raises(StabilityError) as ref_exc:
            factory().run(**run_kwargs, resilience=policy,
                          faults=nans(5, 30))
        assert "retry ladder exhausted after 2 attempt(s)" in \
            str(ref_exc.value)

        d = PersistencePolicy(tmp_path / "ck", every_n_steps=4)
        with pytest.raises(SimulatedCrash):
            factory().run(**run_kwargs, resilience=policy, persist=d,
                          faults=nans(5).inject_crash(step=14))
        assert SnapshotStore(d).load_latest().march["retries"] == 1
        with pytest.raises(StabilityError) as exc:
            factory().run(**run_kwargs, resilience=policy, persist=d,
                          faults=nans(30))
        assert str(exc.value) == str(ref_exc.value)

        ref = factory().run(**run_kwargs, resilience=policy,
                            faults=nans(5))
        d = PersistencePolicy(tmp_path / "one", every_n_steps=4)
        with pytest.raises(SimulatedCrash):
            factory().run(**run_kwargs, resilience=policy, persist=d,
                          faults=nans(5).inject_crash(step=14))
        resumed = factory().run(**run_kwargs, resilience=policy,
                                persist=d)
        assert _state_bytes(resumed) == _state_bytes(ref)

    def test_parent_format_snapshot_resumes(self, tmp_path):
        """A generation written with the constructor arrays and ``run``
        entry of the older manifest format still verifies and resumes
        bitwise: every payload entry is checksummed, only ``state::``
        entries are restored."""
        factory, run, _n, crash_step = CASES["euler2d"]
        ref = factory()
        run(ref)
        d = tmp_path / "ck"
        s = factory()
        with pytest.raises(SimulatedCrash):
            run(s, faults=FaultInjector().inject_crash(step=crash_step),
                persist=PersistencePolicy(d, every_n_steps=4))
        store = SnapshotStore(PersistencePolicy(d))
        seq = store.sequences()[-1]
        npz, man = store._paths(seq)
        with np.load(npz) as z:
            arrays = {k: np.array(z[k]) for k in z.files}
        grid_x = np.ascontiguousarray(s.grid.x)
        arrays["construct::grid_x"] = grid_x
        np.savez(npz, **arrays)
        with open(man) as f:
            m = json.load(f)
        m["run"] = {"n_steps": 24, "cfl": 0.3, "tol": 1e-8}
        m["payload"]["construct::grid_x"] = {
            "type": "ndarray",
            "sha256": hashlib.sha256(grid_x.tobytes()).hexdigest(),
            "shape": list(grid_x.shape), "dtype": str(grid_x.dtype)}
        with open(man, "w") as f:
            json.dump(m, f)

        snap = store.load_latest()
        assert snap.seq == seq and store.recovery_log == []
        assert "grid_x" not in snap.state
        resumed = factory()
        run(resumed, persist=PersistencePolicy(d, every_n_steps=4))
        assert resumed.U.tobytes() == ref.U.tobytes()


# ----------------------------------------------------------------------
# corruption recovery
# ----------------------------------------------------------------------


def _persisted_euler2d(d, *, every=4, crash=15):
    factory, run, _n, _c = CASES["euler2d"]
    s = factory()
    with pytest.raises(SimulatedCrash):
        run(s, faults=FaultInjector().inject_crash(step=crash),
            persist=PersistencePolicy(d, every_n_steps=every))
    return s


class TestCorruptionRecovery:
    def test_truncated_npz_falls_back_a_generation(self, tmp_path):
        d = tmp_path / "ck"
        _persisted_euler2d(d)
        store = SnapshotStore(PersistencePolicy(d))
        seqs = store.sequences()
        assert len(seqs) >= 2
        npz, _man = store._paths(seqs[-1])
        size = os.path.getsize(npz)
        with open(npz, "r+b") as f:
            f.truncate(size // 2)
        snap = store.load_latest()
        assert snap.seq == seqs[-2]
        assert store.recovery_log and \
            store.recovery_log[0]["seq"] == seqs[-1]

    def test_flipped_checksum_byte_falls_back(self, tmp_path):
        d = tmp_path / "ck"
        _persisted_euler2d(d)
        store = SnapshotStore(PersistencePolicy(d))
        seqs = store.sequences()
        npz, _man = store._paths(seqs[-1])
        size = os.path.getsize(npz)
        with open(npz, "r+b") as f:
            f.seek(size // 2)
            b = f.read(1)
            f.seek(size // 2)
            f.write(bytes([b[0] ^ 0xFF]))
        snap = store.load_latest()
        assert snap.seq == seqs[-2]
        assert "sha" in store.recovery_log[0]["reason"].lower() or \
            store.recovery_log[0]["reason"]

    def test_torn_manifest_falls_back(self, tmp_path):
        d = tmp_path / "ck"
        _persisted_euler2d(d)
        store = SnapshotStore(PersistencePolicy(d))
        seqs = store.sequences()
        _npz, man = store._paths(seqs[-1])
        size = os.path.getsize(man)
        with open(man, "r+b") as f:
            f.truncate(size // 2)
        snap = store.load_latest()
        assert snap.seq == seqs[-2]

    def test_scripted_io_faults_and_resume_equivalence(self, tmp_path):
        """FaultInjector IO faults corrupt a commit; the resumed run
        still lands bitwise-identical to the uninterrupted one."""
        factory, run, _n, crash_step = CASES["euler2d"]
        ref = factory()
        run(ref)
        for kind in ("truncate", "bitflip", "torn"):
            d = tmp_path / kind
            s = factory()
            faults = (FaultInjector()
                      .inject_crash(step=crash_step)
                      .inject_io_fault(kind=kind, write=2))
            with pytest.raises(SimulatedCrash):
                run(s, faults=faults,
                    persist=PersistencePolicy(d, every_n_steps=4))
            kinds = [e["kind"] for e in faults.log]
            assert "io" in kinds and "crash" in kinds
            resumed = factory()
            run(resumed, persist=PersistencePolicy(d, every_n_steps=4))
            assert resumed.U.tobytes() == ref.U.tobytes(), kind

    def test_all_generations_corrupt_raises_with_trail(self, tmp_path):
        d = tmp_path / "ck"
        _persisted_euler2d(d)
        store = SnapshotStore(PersistencePolicy(d))
        for seq in store.sequences():
            npz, _man = store._paths(seq)
            with open(npz, "r+b") as f:
                f.truncate(8)
        with pytest.raises(CheckpointError) as exc:
            store.load_latest()
        assert len(exc.value.recovery_log) == len(store.sequences())


# ----------------------------------------------------------------------
# store mechanics
# ----------------------------------------------------------------------


class TestStoreMechanics:
    def test_retention_keeps_last_k(self, tmp_path):
        d = tmp_path / "ck"
        factory, run, _n, _c = CASES["euler1d"]
        s = factory()
        run(s, persist=PersistencePolicy(d, every_n_steps=2,
                                         keep_last=2))
        store = SnapshotStore(PersistencePolicy(d))
        assert len(store.sequences()) == 2

    def test_no_temp_files_survive(self, tmp_path):
        d = tmp_path / "ck"
        _persisted_euler2d(d)
        assert not [f for f in os.listdir(d) if f.startswith(".tmp-")]

    def test_keep_last_below_two_is_refused(self, tmp_path):
        with pytest.raises(CheckpointError):
            SnapshotStore(PersistencePolicy(tmp_path, keep_last=1))

    @pytest.mark.parametrize("every", [0, -1, 2.5, True, "3"])
    def test_cadence_below_one_is_refused(self, tmp_path, every):
        """A cadence is an integer >= 1: 0 would divide by zero after
        the first step and -1 would snapshot every step.  A farm job's
        payload sets it, so the store checks it when it is built."""
        with pytest.raises(CheckpointError, match="every_n_steps"):
            SnapshotStore(PersistencePolicy(tmp_path, every_n_steps=every))

    def test_manifest_schema_fields(self, tmp_path):
        d = tmp_path / "ck"
        _persisted_euler2d(d)
        store = SnapshotStore(PersistencePolicy(d))
        _npz, man = store._paths(store.sequences()[-1])
        with open(man) as f:
            m = json.load(f)
        for key in ("schema_version", "seq", "solver_class", "config",
                    "fingerprint", "step", "march", "completed",
                    "converged", "payload", "npz"):
            assert key in m, key
        assert all(k.startswith("state::") for k in m["payload"])
        assert m["schema_version"] == 1
        assert m["solver_class"].startswith("repro.solvers.")
        for entry in m["payload"].values():
            if entry["type"] != "none":
                assert len(entry["sha256"]) == 64

    def test_fingerprint_mismatch_refused(self, tmp_path):
        from repro.core.gas import IdealGasEOS
        from repro.solvers.euler1d import Euler1DSolver
        d = tmp_path / "ck"
        factory, run, _n, _c = CASES["euler1d"]
        run(factory(), persist=PersistencePolicy(d, every_n_steps=4))
        other = Euler1DSolver(np.linspace(0.0, 1.0, 41),
                              IdealGasEOS(1.3))
        rho = np.where(other.xc < 0.5, 1.0, 0.125)
        other.set_initial(rho, 0.0, np.where(other.xc < 0.5, 1.0, 0.1))
        store = SnapshotStore(PersistencePolicy(d))
        with pytest.raises(CheckpointError, match="fingerprint"):
            store.load_latest(solver=other)

    def test_fingerprint_stable_across_rebuild(self, tmp_path):
        """A freshly built solver carries the fingerprint its crashed
        march wrote, so re-running it on the directory resumes."""
        for name in ("euler1d", "euler2d", "ns2d", "reacting_euler2d"):
            factory, run, _n, crash = CASES[name]
            d = tmp_path / name
            s = factory()
            with pytest.raises(SimulatedCrash):
                run(s, faults=FaultInjector().inject_crash(step=crash),
                    persist=PersistencePolicy(d, every_n_steps=4))
            snap = SnapshotStore(PersistencePolicy(d)).load_latest()
            assert solver_fingerprint(factory()) == \
                snap.manifest["fingerprint"], name

    @staticmethod
    def _tabulated_ns(n_rho, n_e):
        from repro.core.gas import TabulatedEOS
        from repro.geometry import Hemisphere
        from repro.grid import blunt_body_grid
        from repro.solvers.ns2d import AxisymmetricNSSolver
        from repro.thermo.eos_table import build_air_table
        grid = blunt_body_grid(Hemisphere(0.1), n_s=9, n_normal=13,
                               density_ratio=0.08, margin=3.0)
        eos = TabulatedEOS(build_air_table(n_rho=n_rho, n_e=n_e))
        s = AxisymmetricNSSolver(grid, eos, T_wall=1500.0)
        s.set_freestream(0.0889, 5900.0, 5529.0)
        return s

    def test_tabulated_fingerprint_tracks_the_table(self):
        from repro.core.gas import eos_spec
        small = self._tabulated_ns(24, 32)
        default = self._tabulated_ns(48, 72)
        assert solver_fingerprint(small) != solver_fingerprint(default)
        # the default table keeps the bare spec, so the fingerprints of
        # existing checkpoints stand
        assert eos_spec(default.eos) == {"kind": "tabulated"}

    def test_tabulated_run_rebuilds_onto_its_table(self, tmp_path):
        s = self._tabulated_ns(24, 32)
        s.run(n_steps=4, cfl=0.3,
              persist=PersistencePolicy(tmp_path, every_n_steps=2))
        fresh = self._tabulated_ns(24, 32)
        snap = SnapshotStore(PersistencePolicy(tmp_path)).load_latest(
            solver=fresh)
        assert snap.completed
        assert fresh.eos.table.gamma.shape == (24, 32)
        assert fresh.U.tobytes() == s.U.tobytes()


# ----------------------------------------------------------------------
# checkpoint deep-copy regression (satellite fix)
# ----------------------------------------------------------------------


class TestCheckpointDeepCopy:
    def test_nested_arrays_are_not_aliased(self):
        class Toy:
            def __init__(self):
                self.U = np.ones(3)
                self.steps = 0
                self.cache = {"warm": np.arange(3.0),
                              "trace": [np.zeros(2)]}

            def get_state(self):
                return {"U": self.U.copy(), "steps": self.steps,
                        "cache": self.cache}

            def set_state(self, state):
                self.U = state["U"]
                self.steps = state["steps"]
                self.cache = state["cache"]

        toy = Toy()
        ck = Checkpoint.capture(toy)
        # mutate live state through the ORIGINAL nested arrays
        toy.cache["warm"][:] = -99.0
        toy.cache["trace"][0][:] = -99.0
        ck.restore(toy)
        assert np.all(toy.cache["warm"] == np.arange(3.0))
        # catlint: disable=CAT010 -- bitwise restore contract: restored array must be exact
        assert np.all(toy.cache["trace"][0] == 0.0)
        # and restore() must hand out fresh copies each time
        toy.cache["warm"][:] = -1.0
        ck.restore(toy)
        assert np.all(toy.cache["warm"] == np.arange(3.0))


# ----------------------------------------------------------------------
# real SIGKILL: a separate process dies mid-march, we resume its files
# ----------------------------------------------------------------------


_SIGKILL_DRIVER = """
import sys, time
import numpy as np
from repro.solvers.euler1d import Euler1DSolver
from repro.resilience import PersistencePolicy

d = sys.argv[1]
s = Euler1DSolver(np.linspace(0.0, 1.0, 41))
rho = np.where(s.xc < 0.5, 1.0, 0.125)
p = np.where(s.xc < 0.5, 1.0, 0.1)
s.set_initial(rho, 0.0, p)
_orig = s.step
def slow_step(dt):
    time.sleep(0.05)   # stretch the march so the parent can SIGKILL it
    _orig(dt)
s.step = slow_step
s.run(0.1, cfl=0.4, persist=PersistencePolicy(d, every_n_steps=2))
"""


class TestRealSigkill:
    def test_sigkilled_process_resumes_bitwise(self, tmp_path):
        factory, run, _n, _c = CASES["euler1d"]
        ref = factory()
        run(ref)

        d = str(tmp_path / "ck")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.Popen([sys.executable, "-c", _SIGKILL_DRIVER, d],
                                env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            store = SnapshotStore(PersistencePolicy(d))
            while time.monotonic() < deadline:
                if len(store.sequences()) >= 2 or proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert store.sequences(), "driver never committed a snapshot"
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        resumed = factory()
        run(resumed, persist=PersistencePolicy(d, every_n_steps=2))
        assert resumed.U.tobytes() == ref.U.tobytes()
        assert resumed.t == ref.t
        assert resumed.steps == ref.steps


# ----------------------------------------------------------------------
# figure suite: done markers + mid-march resume
# ----------------------------------------------------------------------


class TestFigureSuiteResume:
    def _fake_modules(self, calls, fail_on=None):
        def make(name):
            def main(quick=True):
                if name == fail_on:
                    raise SimulatedCrash(f"{name} killed")
                calls.append(name)
                return f"{name} output"
            return types.SimpleNamespace(__doc__=f"{name} doc\n",
                                         main=main)
        return [(n, make(n)) for n in ("figA", "figB", "figC")]

    def test_done_markers_skip_completed_figures(self, tmp_path,
                                                 monkeypatch):
        import io

        from repro.experiments import runner
        calls: list = []
        monkeypatch.setattr(runner, "_MODULES",
                            self._fake_modules(calls, fail_on="figB"))
        d = str(tmp_path / "suite")
        with pytest.raises(SimulatedCrash):
            runner.run_all(checkpoint_dir=d, stream=io.StringIO())
        assert calls == ["figA"]
        assert os.path.exists(os.path.join(d, "figA.done"))

        calls.clear()
        monkeypatch.setattr(runner, "_MODULES",
                            self._fake_modules(calls))
        out = io.StringIO()
        res = runner.run_all(checkpoint_dir=d, resume=True, stream=out)
        assert res["skipped"] == ["figA"]
        assert calls == ["figB", "figC"]   # figA replayed, not re-run
        assert "figA output" in out.getvalue()
        assert not res["failures"]

    def test_run_without_resume_clears_stale_state(self, tmp_path,
                                               monkeypatch):
        import io

        from repro.experiments import runner
        calls: list = []
        monkeypatch.setattr(runner, "_MODULES",
                            self._fake_modules(calls))
        d = str(tmp_path / "suite")
        runner.run_all(checkpoint_dir=d, stream=io.StringIO())
        calls.clear()
        res = runner.run_all(checkpoint_dir=d, resume=False,
                             stream=io.StringIO())
        assert calls == ["figA", "figB", "figC"]  # everything re-ran
        assert res["skipped"] == []


# ----------------------------------------------------------------------
# CLI flag handling (satellite)
# ----------------------------------------------------------------------


class TestFiguresCLI:
    def test_help_exits_zero(self, capsys):
        from repro.__main__ import main
        assert main(["--help"]) == 0
        assert "checkpoint-dir" in capsys.readouterr().out

    def test_unknown_command_exits_two_with_usage(self, capsys):
        from repro.__main__ import main
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err and "usage" in err

    def test_unknown_figures_flag_exits_two(self, capsys):
        from repro.__main__ import main
        assert main(["figures", "--fast"]) == 2

    def test_resume_without_dir_exits_two(self, capsys):
        from repro.__main__ import main
        assert main(["figures", "--resume"]) == 2

    def test_checkpoint_dir_needs_value(self, capsys):
        from repro.__main__ import main
        assert main(["figures", "--checkpoint-dir"]) == 2


# ----------------------------------------------------------------------
# concurrent writers: the exclusive manifest commit (satellite)
# ----------------------------------------------------------------------


class TestConcurrentCommit:
    """Two live processes hammering one store must settle every
    generation race at the ``os.link`` commit point: exactly one writer
    wins each sequence number, the loser retries on the next, and the
    store stays loadable with no temp-file litter."""

    def test_two_process_manifest_race_stays_consistent(self, tmp_path):
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        d = str(tmp_path / "store")
        barrier = ctx.Barrier(2)
        n_saves = 6

        def writer():
            solver = _factory("euler1d")()
            store = SnapshotStore(PersistencePolicy(dir=d, keep_last=100))
            barrier.wait()   # maximise overlap of the save loops
            for _ in range(n_saves):
                store.save(solver)

        procs = [ctx.Process(target=writer) for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(120)
            assert p.exitcode == 0
        store = SnapshotStore(PersistencePolicy(dir=d, keep_last=100))
        # every save committed exactly one generation; probing upward
        # from a stale scan can skip a number only if it is occupied,
        # so the committed sequence is gapless
        assert store.sequences() == list(range(2 * n_saves))
        # the temporally-last commit holds the highest seq and its
        # payload was written by the same process, so the walk finds a
        # verified generation even if a raced npz was clobbered
        loaded = store.load_latest()
        assert loaded is not None
        reference = _factory("euler1d")().get_state()
        for name in reference:
            np.testing.assert_array_equal(loaded.state[name],
                                          reference[name])
        assert not [n for n in os.listdir(d) if n.startswith(".tmp-")]
