"""Deterministic fault injection for resilience testing.

Recovery code that is never exercised is recovery code that does not
work.  A :class:`FaultInjector` arms a scripted set of faults — NaNs or
multiplicative perturbations in the conserved field at chosen steps and
cells — and the supervised marching loops apply them at exactly the
scripted moment.  Every fault is deterministic and
logged, so a test can assert both that the fault fired and that the
recovery path survived it.

By default a fault fires **once** (a transient upset: the model for a
cosmic-ray bitflip or a one-off bad thermodynamic state); a rollback
therefore retries a clean trajectory.  ``persistent=True`` faults re-fire
on every matching step and model a reproducible defect that retries
cannot clear — the path that must end in a :class:`FailureReport`.

The durable-persistence layer adds two more fault families:

* **crash faults** (:meth:`FaultInjector.inject_crash`) raise
  :class:`SimulatedCrash` — a ``BaseException``, so neither the retry
  ladder nor ``except Exception`` handlers absorb it, exactly like a
  SIGKILL — after a chosen marching step, leaving whatever snapshots the
  run had persisted on disk for ``resume_run`` to pick up;
* **IO faults** (:meth:`FaultInjector.inject_io_fault`) corrupt the n-th
  committed snapshot on disk (truncated ``.npz``, flipped byte, torn
  manifest) so the checksum-verify / fall-back-a-generation load path is
  exercised deterministically.

The process-isolation layer adds two operational fault families the
in-process ladders *cannot* recover from — only a supervising parent
(:class:`~repro.resilience.isolation.IsolatedRunner`) can:

* **hang faults** (:meth:`FaultInjector.inject_hang`) stop the march
  dead after a chosen step (SIGTERM is ignored for the duration, the
  model for a truly wedged process), so heartbeat silence — not elapsed
  time — is what the parent must detect;
* **memory-balloon faults** (:meth:`FaultInjector.inject_memory_balloon`)
  allocate-and-hold a scripted number of MiB, the model for a leak
  marching toward the OOM killer.

Fault schedules round-trip through JSON (:meth:`FaultInjector.to_json` /
:meth:`FaultInjector.from_json`), so the chaos harness can persist the
exact schedule of a failing round into its
:class:`~repro.resilience.report.FailureReport` for deterministic replay.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["Fault", "FaultInjector", "SimulatedCrash"]


class SimulatedCrash(BaseException):
    """Scripted process death (the test model for SIGKILL / OOM / node
    preemption).

    Deliberately **not** a :class:`~repro.errors.CatError` — not even an
    :class:`Exception` — so resilience ladders and keep-going runners
    propagate it like a real crash would.
    """

    def __init__(self, message: str, *, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


@dataclass
class Fault:
    """One scripted fault."""

    kind: str                     #: "nan"|"perturb"|"crash"|"io"|
                                  #: "hang"|"memory_balloon"
    step: int | None = None       #: step to fire at (nan/perturb/crash/
                                  #: hang/memory_balloon)
    cell: tuple | int | None = None
    component: int = 0
    factor: float = 10.0          #: multiplier for "perturb"
    call: int = 0                 #: snapshot-write index ("io")
    io_kind: str | None = None    #: "truncate" | "bitflip" | "torn" ("io")
    duration: float = 600.0       #: hang sleep / balloon hold [s]
    mb: float = 256.0             #: balloon size [MiB]
    persistent: bool = False
    fired: int = 0

    def to_json(self) -> dict:
        """JSON-able schedule entry (arming state only, not ``fired``)."""
        d = asdict(self)
        d.pop("fired")
        if isinstance(d["cell"], tuple):
            d["cell"] = list(d["cell"])
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Fault":
        """Inverse of :meth:`to_json`."""
        d = dict(d)
        d.pop("fired", None)
        if isinstance(d.get("cell"), list):
            d["cell"] = tuple(d["cell"])
        return cls(**d)

    def __repr__(self) -> str:
        d = asdict(self)
        d.pop("fired")
        default = {f.name: f.default for f in
                   type(self).__dataclass_fields__.values()}
        args = ", ".join(f"{k}={v!r}" for k, v in d.items()
                         if k == "kind" or v != default.get(k))
        return f"Fault({args})"


class FaultInjector:
    """Deterministic, scripted fault source of the supervised loops
    (flow-state, crash, hang and balloon faults) and the snapshot store
    (IO faults)."""

    def __init__(self):
        self.faults: list[Fault] = []
        self.log: list[dict] = []
        self._snapshot_writes = 0
        self._balloons: list = []   # keeps balloon pages resident

    # -- schedule (de)serialization -------------------------------------

    def to_json(self) -> dict:
        """The armed schedule as a JSON-able dict (see
        :meth:`from_json`); what the chaos harness embeds in a failing
        round's :class:`~repro.resilience.report.FailureReport`."""
        return {"faults": [f.to_json() for f in self.faults]}

    @classmethod
    def from_json(cls, data: dict) -> "FaultInjector":
        """Re-arm an injector from :meth:`to_json` output — the same
        schedule, every fault fresh."""
        fi = cls()
        for d in data.get("faults", ()):
            fi.faults.append(Fault.from_json(d))
        return fi

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.faults)
        return f"FaultInjector([{inner}])"

    # -- arming ---------------------------------------------------------

    def inject_nan(self, *, step, cell, component=0, persistent=False):
        """Poison one state component of one cell with NaN after the
        given marching step completes."""
        self.faults.append(Fault(kind="nan", step=int(step), cell=cell,
                                 component=int(component),
                                 persistent=persistent))
        return self

    def inject_perturbation(self, *, step, cell, component=0, factor=10.0,
                            persistent=False):
        """Scale one state component of one cell by ``factor`` after the
        given marching step completes."""
        self.faults.append(Fault(kind="perturb", step=int(step), cell=cell,
                                 component=int(component),
                                 factor=float(factor),
                                 persistent=persistent))
        return self

    def inject_crash(self, *, step, persistent=False):
        """Kill the process (model: SIGKILL/OOM/preemption) by raising
        :class:`SimulatedCrash` after the given marching step completes
        — after any armed state faults for the same step have fired."""
        self.faults.append(Fault(kind="crash", step=int(step),
                                 persistent=persistent))
        return self

    def inject_hang(self, *, step, duration=600.0, persistent=False):
        """Wedge the process after the given marching step: SIGTERM is
        ignored and the march sleeps for ``duration`` seconds.  The
        in-process ladders cannot recover from this — only a
        supervising parent watching the heartbeat channel
        (:class:`~repro.resilience.isolation.IsolatedRunner`) can."""
        self.faults.append(Fault(kind="hang", step=int(step),
                                 duration=float(duration),
                                 persistent=persistent))
        return self

    def inject_memory_balloon(self, *, step, mb=256.0, hold=600.0,
                              persistent=False):
        """Allocate-and-hold ``mb`` MiB after the given marching step
        (the model for a leak marching toward the OOM killer), then
        stall for ``hold`` seconds with the pages resident so a
        supervising parent's RSS poll reliably observes the balloon."""
        self.faults.append(Fault(kind="memory_balloon", step=int(step),
                                 mb=float(mb), duration=float(hold),
                                 persistent=persistent))
        return self

    def inject_io_fault(self, *, kind, write=0, persistent=False):
        """Corrupt the ``write``-th durable snapshot commit (0 = the
        first snapshot a :class:`~repro.resilience.persistence.SnapshotStore`
        writes after arming).

        ``kind`` selects the corruption model:

        * ``"truncate"`` — the ``.npz`` payload is cut to half its size
          (interrupted write reaching the disk),
        * ``"bitflip"``  — one byte in the middle of the ``.npz`` is
          inverted (silent media corruption),
        * ``"torn"``     — the JSON manifest is cut mid-document (crash
          between payload rename and manifest commit).
        """
        if kind not in ("truncate", "bitflip", "torn"):
            raise ValueError(f"unknown io fault kind {kind!r}")
        self.faults.append(Fault(kind="io", io_kind=kind, call=int(write),
                                 persistent=persistent))
        return self

    # -- firing ---------------------------------------------------------

    @staticmethod
    def _index(cell, component):
        idx = cell if isinstance(cell, tuple) else (int(cell),)
        return idx + (int(component),)

    def apply(self, solver) -> bool:
        """Fire any armed flow-state faults matching ``solver.steps``.

        Mutates ``solver.U`` in place; returns True when something fired.
        A matching crash fault fires last (state faults at the same step
        land first, as they would in a real dying process) and raises
        :class:`SimulatedCrash`.
        """
        fired = False
        step = int(getattr(solver, "steps", 0) or 0)
        for f in self.faults:
            if f.kind not in ("nan", "perturb") or f.step != step:
                continue
            if f.fired and not f.persistent:
                continue
            idx = self._index(f.cell, f.component)
            if f.kind == "nan":
                solver.U[idx] = np.nan
            else:
                solver.U[idx] = solver.U[idx] * f.factor
            f.fired += 1
            fired = True
            self.log.append({"kind": f.kind, "step": step,
                             "cell": f.cell, "component": f.component})
        for f in self.faults:
            if f.kind not in ("hang", "memory_balloon") or f.step != step:
                continue
            if f.fired and not f.persistent:
                continue
            f.fired += 1
            fired = True
            if f.kind == "memory_balloon":
                # allocate-and-touch: RSS genuinely rises, then stalls
                # with the pages held so the supervising poll sees it
                self._balloons.append(np.full(int(f.mb * 131072), 1.0))
                self.log.append({"kind": "memory_balloon", "step": step,
                                 "mb": f.mb})
                time.sleep(f.duration)
            else:
                # a truly wedged process: TERM is ignored, the march
                # stops beating — only SIGKILL (or patience) ends this
                self.log.append({"kind": "hang", "step": step,
                                 "duration": f.duration})
                try:
                    prev = signal.signal(signal.SIGTERM, signal.SIG_IGN)
                except ValueError:          # not the main thread
                    prev = None
                try:
                    time.sleep(f.duration)
                finally:
                    if prev is not None:
                        signal.signal(signal.SIGTERM, prev)
        for f in self.faults:
            if f.kind != "crash" or f.step != step:
                continue
            if f.fired and not f.persistent:
                continue
            f.fired += 1
            self.log.append({"kind": "crash", "step": step})
            raise SimulatedCrash(f"scripted crash after step {step}",
                                 step=step)
        return fired

    def corrupt_snapshot(self, npz_path, manifest_path) -> bool:
        """Fire armed IO faults against a just-committed snapshot.

        Called by :class:`~repro.resilience.persistence.SnapshotStore`
        once per durable commit; the running write counter selects which
        commit each fault hits.  Returns True when something fired.
        """
        write = self._snapshot_writes
        self._snapshot_writes += 1
        fired = False
        for f in self.faults:
            if f.kind != "io" or f.call != write:
                continue
            if f.fired and not f.persistent:
                continue
            if f.io_kind == "truncate":
                size = os.path.getsize(npz_path)
                with open(npz_path, "r+b") as fh:
                    fh.truncate(size // 2)
            elif f.io_kind == "bitflip":
                size = os.path.getsize(npz_path)
                with open(npz_path, "r+b") as fh:
                    fh.seek(size // 2)
                    byte = fh.read(1)
                    fh.seek(size // 2)
                    fh.write(bytes([byte[0] ^ 0xFF]))
            elif f.io_kind == "torn":
                size = os.path.getsize(manifest_path)
                with open(manifest_path, "r+b") as fh:
                    fh.truncate(max(size // 2, 1))
            f.fired += 1
            fired = True
            self.log.append({"kind": "io", "io_kind": f.io_kind,
                             "write": write})
        return fired

    # -- bookkeeping ----------------------------------------------------

    @property
    def n_fired(self) -> int:
        return len(self.log)

    def reset(self):
        """Re-arm every fault and clear the log."""
        for f in self.faults:
            f.fired = 0
        self.log.clear()
        self._snapshot_writes = 0
        self._balloons.clear()
        return self
