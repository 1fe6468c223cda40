"""Durable, crash-safe run persistence (checkpoint/restart on disk).

PR 1's :class:`~repro.resilience.supervisor.RunSupervisor` survives
*numerical* failure with in-memory rollback; this module survives
*process* failure — SIGKILL, OOM, node preemption — the way production
hypersonic codes do, by treating restart files as first-class state.

A durable snapshot is two files in a checkpoint directory:

* ``ckpt-<seq>.npz`` — every array of the solver's marching state plus
  the constructor arrays needed to rebuild it (grid nodes, cell edges),
* ``ckpt-<seq>.json`` — the manifest: schema version, fully-qualified
  solver class, a JSON config whose SHA-256 **fingerprint** guards
  against resuming the wrong run, step/time clocks, march/run bookkeeping
  and a per-array SHA-256 checksum table.

Writes are atomic and ordered (payload → fsync → rename, then manifest →
fsync → rename, then directory fsync): the manifest is the commit record,
so a crash at any instant leaves either the previous generation intact or
a torn tail that verification rejects.  A keep-last-K retention ladder
bounds disk use, and :meth:`SnapshotStore.load_latest` walks generations
newest-first, checksumming every array and falling back a generation on
any corruption (torn write, truncation, bit flip — each scripted by
:meth:`~repro.resilience.faults.FaultInjector.inject_io_fault` so every
recovery path is tested).

Solvers opt in through a three-method protocol —

* ``persist_config()`` → JSON-able constructor fingerprint,
* ``persist_arrays()`` → constructor ndarrays (grid nodes, ...),
* ``from_persist(config, arrays)`` → rebuilt, state-less instance —

on top of the PR-1 ``get_state()``/``set_state()`` round-trip, which must
be *complete*: a restored solver replays the exact trajectory bit for
bit.  :func:`resume_run` is the user-facing entry point: point it at a
checkpoint directory and it rebuilds the solver from the manifest and
keeps marching where the dead process stopped.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import re
import time
import zipfile
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.errors import CheckpointError

__all__ = ["MANIFEST_SCHEMA_VERSION", "PersistencePolicy", "SnapshotStore",
           "LoadedSnapshot", "atomic_write", "resume_run",
           "solver_fingerprint"]

MANIFEST_SCHEMA_VERSION = 1

_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.json$")


@dataclass
class PersistencePolicy:
    """Knobs of the durable snapshot ladder.

    Attributes
    ----------
    dir:
        Checkpoint directory (created on first write).
    every_n_steps:
        Successful marching steps between durable snapshots.
    keep_last:
        Generations retained on disk; older pairs are deleted after each
        commit.  Must be >= 2 for corruption fall-back to have somewhere
        to land.

    A supervised march always first looks for a valid snapshot in
    ``dir`` and continues from it instead of starting over.
    """

    dir: str | os.PathLike
    every_n_steps: int = 50
    keep_last: int = 3


@dataclass
class LoadedSnapshot:
    """A verified snapshot pulled off disk."""

    manifest: dict
    state: dict
    construct_arrays: dict

    @property
    def seq(self) -> int:
        return int(self.manifest["seq"])

    @property
    def completed(self) -> bool:
        return bool(self.manifest.get("completed"))

    @property
    def converged(self) -> bool:
        return bool(self.manifest.get("converged"))

    @property
    def march(self) -> dict:
        return dict(self.manifest.get("march") or {})

    @property
    def run_kwargs(self) -> dict:
        return dict(self.manifest.get("run") or {})


# ----------------------------------------------------------------------
# atomic file writes
# ----------------------------------------------------------------------

def _tmp_path(path: str) -> str:
    """Per-process temp name beside ``path``: writers racing one target
    never rename each other's temp file away."""
    return os.path.join(os.path.dirname(path),
                        f".tmp-{os.getpid()}-{os.path.basename(path)}")


def atomic_write(path, data, *, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` (str or bytes) in one rename, so a
    reader sees the old file or the new one, never a torn one.  With
    ``fsync`` the data reaches the disk before the rename (the durable
    records: queue state, snapshots, done markers)."""
    path = os.fspath(path)
    tmp = _tmp_path(path)
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)
        if fsync:
            f.flush()
            os.fsync(f.fileno())
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# fingerprints and payload encoding
# ----------------------------------------------------------------------

def _class_path(cls) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def solver_fingerprint(solver_or_cls, config: dict | None = None) -> str:
    """SHA-256 over the solver class path + canonical persist config.

    Two runs share a fingerprint iff they would rebuild the same solver;
    resuming into a mismatched directory is refused, not silently wrong.
    """
    if config is None:
        config = solver_or_cls.persist_config()
        cls = type(solver_or_cls)
    else:
        cls = (solver_or_cls if isinstance(solver_or_cls, type)
               else type(solver_or_cls))
    blob = _canonical_json({"class": _class_path(cls), "config": config})
    return hashlib.sha256(blob.encode()).hexdigest()


def _sha256_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _encode_payload(state: dict, construct: dict):
    """Split solver state + constructor arrays into (arrays, entry table).

    Every value lands in the ``.npz`` as an ndarray (scalars as 0-d, float
    lists as 1-d) so restores are lossless down to the bit; the manifest
    entry table remembers each value's original python type.
    """
    arrays: dict[str, np.ndarray] = {}
    entries: dict[str, dict] = {}
    for section, mapping in (("state", state), ("construct", construct)):
        for name, v in mapping.items():
            key = f"{section}::{name}"
            if v is None:
                entries[key] = {"type": "none"}
                continue
            if isinstance(v, np.ndarray):
                a, typ = v, "ndarray"
            elif isinstance(v, bool):
                a, typ = np.asarray(v), "bool"
            elif isinstance(v, (int, np.integer)):
                a, typ = np.asarray(int(v)), "int"
            elif isinstance(v, (float, np.floating)):
                a, typ = np.asarray(float(v)), "float"
            elif isinstance(v, (list, tuple)):
                a, typ = np.asarray(v, dtype=float), "list"
            else:
                raise CheckpointError(
                    f"cannot persist {section} entry {name!r} of type "
                    f"{type(v).__name__}")
            arrays[key] = a
            entries[key] = {"type": typ, "sha256": _sha256_array(a),
                            "shape": list(a.shape), "dtype": str(a.dtype)}
    return arrays, entries


def _decode_payload(npz, entries: dict):
    """Inverse of :func:`_encode_payload` (checksums already verified)."""
    state: dict = {}
    construct: dict = {}
    for key, meta in entries.items():
        section, name = key.split("::", 1)
        out = state if section == "state" else construct
        typ = meta["type"]
        if typ == "none":
            out[name] = None
            continue
        a = npz[key]
        if typ == "ndarray":
            out[name] = a
        elif typ == "bool":
            out[name] = bool(a)
        elif typ == "int":
            out[name] = int(a)
        elif typ == "float":
            out[name] = float(a)
        elif typ == "list":
            out[name] = [float(x) for x in np.atleast_1d(a)]
        else:
            raise CheckpointError(f"unknown payload type {typ!r} for "
                                  f"{key!r}")
    return state, construct


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class SnapshotStore:
    """Generation ladder of atomic, checksummed snapshots in one
    directory.

    Parameters
    ----------
    policy:
        A :class:`PersistencePolicy`, or just a directory path (defaults
        apply).
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; armed
        IO faults corrupt the matching commit *after* it lands, so load
        verification is tested against real on-disk damage.
    """

    def __init__(self, policy, *, faults=None):
        if not isinstance(policy, PersistencePolicy):
            policy = PersistencePolicy(dir=policy)
        if policy.keep_last < 2:
            raise CheckpointError("keep_last must be >= 2 (corruption "
                                  "fall-back needs a previous generation)")
        n = policy.every_n_steps
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise CheckpointError(f"every_n_steps must be an integer >= 1, "
                                  f"got {n!r}")
        self.policy = policy
        self.dir = os.fspath(policy.dir)
        self.faults = faults
        #: per-generation rejection records from the last load, newest
        #: first — the triage trail when corruption recovery kicked in.
        self.recovery_log: list[dict] = []

    # -- paths ----------------------------------------------------------

    def _paths(self, seq: int):
        stem = f"ckpt-{seq:08d}"
        return (os.path.join(self.dir, stem + ".npz"),
                os.path.join(self.dir, stem + ".json"))

    def sequences(self) -> list[int]:
        """Committed generation numbers, ascending (manifest = commit)."""
        try:
            names = os.listdir(self.dir)
        except FileNotFoundError:
            return []
        seqs = [int(m.group(1)) for n in names
                if (m := _CKPT_RE.match(n))]
        return sorted(seqs)

    def _fsync_dir(self):
        fd = os.open(self.dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _commit_exclusive(self, path: str, data: bytes) -> bool:
        """Commit ``data`` at ``path`` only if no one else has: the
        ``os.link`` fails on an existing target, so of two concurrent
        writers racing one generation number exactly one commits and
        the loser moves on to the next seq.  (The farm can produce such
        co-writers: an orphaned sandbox child still marching while its
        reclaimed job's successor marches the same deterministic
        trajectory into the same store.)"""
        tmp = _tmp_path(path)
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            try:
                os.remove(tmp)
            except OSError:
                pass
        return True

    # -- save -----------------------------------------------------------

    def save(self, solver, *, march: dict | None = None,
             run: dict | None = None, completed: bool = False,
             converged: bool = False, label: str | None = None) -> int:
        """Commit one durable snapshot of ``solver``; returns its seq.

        Ordering makes the write crash-safe: payload tempfile → fsync →
        rename, manifest tempfile → fsync → exclusive hard link (the
        commit point — concurrent writers racing one generation number
        settle there, the loser retries on the next seq), directory
        fsync, *then* retention trims old generations.
        """
        config = solver.persist_config()
        construct = (solver.persist_arrays()
                     if hasattr(solver, "persist_arrays") else {})
        arrays, entries = _encode_payload(solver.get_state(), construct)
        os.makedirs(self.dir, exist_ok=True)
        seqs = self.sequences()
        seq = (seqs[-1] + 1) if seqs else 0
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        while True:
            npz_path, man_path = self._paths(seq)
            atomic_write(npz_path, buf.getvalue(), fsync=True)
            manifest = {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "seq": seq,
                "label": label or type(solver).__name__,
                "solver_class": _class_path(type(solver)),
                "config": config,
                "fingerprint": solver_fingerprint(type(solver), config),
                "step": int(getattr(solver, "steps", 0) or 0),
                "t": float(getattr(solver, "t", 0.0) or 0.0),
                "march": dict(march or {}),
                "run": dict(run or {}),
                "completed": bool(completed),
                "converged": bool(converged),
                "payload": entries,
                "npz": os.path.basename(npz_path),
                "created": time.time(),
            }
            if self._commit_exclusive(
                    man_path, json.dumps(manifest, indent=1).encode()):
                break
            # a concurrent writer committed this generation between our
            # sequences() scan and the link: take the next number (at
            # worst the race leaves one generation whose payload the
            # checksum rejects at load, and the walk falls back)
            seq += 1
        self._fsync_dir()
        if self.faults is not None:
            self.faults.corrupt_snapshot(npz_path, man_path)
        self._retain()
        return seq

    def _retain(self):
        for seq in self.sequences()[:-self.policy.keep_last]:
            for path in self._paths(seq):
                try:
                    os.remove(path)
                except OSError:
                    pass

    # -- load -----------------------------------------------------------

    def _verify_one(self, seq: int) -> LoadedSnapshot:
        npz_path, man_path = self._paths(seq)
        with open(man_path, "rb") as f:
            manifest = json.loads(f.read().decode())
        if manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
            raise CheckpointError(
                f"manifest schema {manifest.get('schema_version')!r} != "
                f"{MANIFEST_SCHEMA_VERSION}")
        entries = manifest["payload"]
        with np.load(npz_path) as npz:
            loaded = {k: np.array(npz[k]) for k in npz.files}
        for key, meta in entries.items():
            if meta["type"] == "none":
                continue
            if key not in loaded:
                raise CheckpointError(f"payload array {key!r} missing")
            a = loaded[key]
            if (list(a.shape) != meta["shape"]
                    or str(a.dtype) != meta["dtype"]):
                raise CheckpointError(f"payload array {key!r} has wrong "
                                      f"shape/dtype")
            if _sha256_array(a) != meta["sha256"]:
                raise CheckpointError(f"payload array {key!r} failed its "
                                      f"SHA-256 checksum")
        state, construct = _decode_payload(loaded, entries)
        return LoadedSnapshot(manifest=manifest, state=state,
                              construct_arrays=construct)

    def load_latest(self, *, solver=None) -> LoadedSnapshot | None:
        """Newest snapshot that verifies, or None for an empty/virgin dir.

        Walks generations newest-first; any corrupt generation is logged
        to :attr:`recovery_log` and skipped.  When every committed
        generation is damaged, raises :class:`CheckpointError` with the
        full rejection trail.  With ``solver`` given, additionally
        demands a fingerprint match (wrong-directory protection) and
        applies the state via ``set_state``.
        """
        self.recovery_log = []
        seqs = self.sequences()
        if not seqs:
            return None
        snap = None
        for seq in reversed(seqs):
            try:
                snap = self._verify_one(seq)
                break
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile, CheckpointError) as err:
                self.recovery_log.append(
                    {"seq": seq, "reason": f"{type(err).__name__}: {err}"})
        if snap is None:
            raise CheckpointError(
                f"no loadable snapshot in {self.dir!r}: every generation "
                f"failed verification", path=self.dir,
                recovery_log=self.recovery_log)
        if solver is not None:
            want = solver_fingerprint(solver)
            got = snap.manifest.get("fingerprint")
            if want != got:
                raise CheckpointError(
                    f"snapshot fingerprint mismatch in {self.dir!r}: the "
                    f"directory holds a "
                    f"{snap.manifest.get('solver_class')} run with a "
                    f"different configuration", path=self.dir)
            solver.set_state(snap.state)
        return snap


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------

def _import_class(path: str):
    mod_name, _, qualname = path.partition(":")
    obj = importlib.import_module(mod_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def rebuild_solver(snap: LoadedSnapshot):
    """Reconstruct a state-loaded solver instance from a snapshot."""
    cls = _import_class(snap.manifest["solver_class"])
    if not hasattr(cls, "from_persist"):
        raise CheckpointError(
            f"{snap.manifest['solver_class']} does not implement the "
            f"persistence protocol (from_persist)")
    solver = cls.from_persist(snap.manifest["config"],
                              snap.construct_arrays)
    solver.set_state(snap.state)
    return solver


def resume_run(dir, *, policy: PersistencePolicy | None = None,
               resilience=None, faults=None):
    """Reconstruct the solver persisted in ``dir`` and keep marching.

    Loads the newest valid snapshot (checksum-verified, falling back a
    generation on corruption), rebuilds the solver class named in the
    manifest via ``from_persist``, restores its state and — unless the
    snapshot is marked completed — re-enters the recorded ``run(...)``
    call under the same persistence policy, so the continued march keeps
    checkpointing and lands bit-identical to an uninterrupted run.

    Returns the solver (marched to completion, or as-loaded when the
    run had already completed).
    """
    if policy is None:
        policy = PersistencePolicy(dir=dir)
    store = SnapshotStore(policy, faults=faults)
    snap = store.load_latest()
    if snap is None:
        raise CheckpointError(f"no snapshot found in {os.fspath(dir)!r}",
                              path=os.fspath(dir))
    solver = rebuild_solver(snap)
    if snap.completed:
        solver.converged = snap.converged
        return solver
    solver.run(**snap.run_kwargs, resilience=resilience, faults=faults,
               persist=policy)
    return solver
