"""The batch evaluation front door: ``evaluate_batch`` and friends.

Production failure semantics, end to end:

* every request is validated *up front* into a typed per-request
  :class:`~repro.errors.InputError` record — one malformed request
  never aborts the batch;
* load shedding refuses a batch larger than ``shed_above`` at the
  door with a typed :class:`~repro.errors.OverloadError`;
* per-request and whole-batch wall-clock deadlines are threaded into
  :class:`~repro.resilience.isolation.IsolatedRunner` for sandboxed
  (heavy/fault-carrying) requests, so a hung solve is killed and
  recorded, not waited on;
* a failed solve drops one rung down the method's model ladder (VSL or
  PNS to the engineering correlations), and is recorded in the
  request's envelope when no rung answers;
* circuit breakers per method rung and condition class trip after K
  consecutive failures and route requests straight down the model
  ladder during cooldown (see :mod:`repro.service.breaker`);
* idempotent request keys dedup identical requests within a batch and
  make farm-chunk retry safe across preemption.

Exactly one :class:`~repro.service.request.Envelope` comes back per
request; the only exception ``evaluate_batch`` ever raises (beyond
programming errors) is ``OverloadError`` at the door, before any work
starts.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from numbers import Integral

from repro.errors import CatError, InputError, OverloadError, SolverError
from repro.resilience.queue import check_budgets
from repro.service.breaker import BreakerBoard, BreakerPolicy
from repro.service.request import Envelope, METHODS, validate_request

__all__ = ["BatchPolicy", "BatchResult", "evaluate_batch",
           "evaluate_batch_farm", "batch_jobs", "shard_requests",
           "batch_bench_record"]


# ----------------------------------------------------------------- policy

@dataclass(frozen=True)
class BatchPolicy:
    """Budgets and knobs of one batch evaluation.

    Attributes
    ----------
    deadline:
        Whole-batch wall-clock budget [s]; requests the budget expires
        before get ``failed/deadline`` envelopes instead of running.
    request_deadline:
        Per-request wall-clock budget [s], enforced preemptively (kill
        + FailureReport) for sandboxed requests and used to bound every
        sandbox attempt.  A request may carry its own ``deadline``
        field; the effective budget is the minimum of both and of the
        remaining batch budget.
    shed_above:
        Reject any batch larger than this outright (load shedding) with
        :class:`~repro.errors.OverloadError`; ``None`` takes any size.
    isolate:
        ``"auto"`` (default) sandboxes heavy solver rungs and any
        fault-carrying request; ``"always"``/``"never"`` force it.
        Hang/crash faults are always sandboxed regardless.
    allow_faults:
        Honor chaos ``fault`` fields (tests/chaos only); otherwise a
        fault field is invalid input.
    dedup:
        Collapse requests with identical idempotency keys to one
        execution.
    breaker:
        :class:`~repro.service.breaker.BreakerPolicy` for the board.
    chunk_size:
        Requests per farm chunk job (``evaluate_batch_farm``).
    """

    deadline: float | None = None
    request_deadline: float | None = 10.0
    shed_above: int | None = 100_000
    isolate: str = "auto"
    allow_faults: bool = False
    dedup: bool = True
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    chunk_size: int = 64

    def __post_init__(self):
        if self.isolate not in ("auto", "always", "never"):
            raise InputError(f"isolate must be auto/always/never, got "
                             f"{self.isolate!r}")
        check_budgets("batch policy", deadline=self.deadline,
                      request_deadline=self.request_deadline)
        counts = {"chunk_size": self.chunk_size}
        if self.shed_above is not None:
            counts["shed_above"] = self.shed_above
        for name, v in counts.items():
            if isinstance(v, bool) or not isinstance(v, Integral) or v < 1:
                raise InputError(f"{name} must be an integer >= 1, got "
                                 f"{v!r}")

    def to_dict(self) -> dict:
        return {"deadline": self.deadline,
                "request_deadline": self.request_deadline,
                "shed_above": self.shed_above,
                "isolate": self.isolate,
                "allow_faults": self.allow_faults,
                "dedup": self.dedup,
                "breaker": self.breaker.to_dict(),
                "chunk_size": self.chunk_size}

    @classmethod
    def from_dict(cls, d: dict | None) -> "BatchPolicy":
        d = dict(d or {})
        d["breaker"] = BreakerPolicy.from_dict(d.get("breaker"))
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


def _shed(n: int, policy: BatchPolicy) -> None:
    """Load shedding at the door: a batch above ``shed_above`` is
    refused whole, before any request runs."""
    if policy.shed_above is not None and n > policy.shed_above:
        raise OverloadError(f"batch of {n} requests exceeds shed_above="
                            f"{policy.shed_above}; split it or raise the "
                            f"limit", limit=policy.shed_above)


# ------------------------------------------------------------- executors

#: Sutton-Graves constant selector for each named gas model.
_GAS_ATMOSPHERE = {"equilibrium-air": "earth", "titan": "titan",
                   "jupiter": "jupiter"}


def _correlation_point(params: dict) -> dict:
    """Sutton-Graves + Tauber-Sutton at one freestream point."""
    from repro.atmosphere import EarthAtmosphere
    from repro.heating import sutton_graves_heating
    from repro.radiation.correlations import tauber_sutton_radiative
    key = _GAS_ATMOSPHERE.get(params.get("gas", "equilibrium-air"),
                              "earth")
    rho = float(EarthAtmosphere().density(params["h"]))
    V, rn = params["V"], params["nose_radius"]
    q_conv = float(sutton_graves_heating(rho, V, rn, atmosphere=key))
    q_rad = (float(tauber_sutton_radiative(rho, V, rn))
             if key == "earth" and rho > 0.0 and V > 0.0 else 0.0)
    return {"q_conv": q_conv, "q_rad": q_rad,
            "q_total": q_conv + q_rad, "p_stag": rho * V * V,
            "rho": rho}


def _exec_stagnation_vsl(params: dict) -> dict:
    from repro.core.api import stagnation_environment
    r = stagnation_environment(V=params["V"], h=params["h"],
                               nose_radius=params["nose_radius"],
                               gas=params.get("gas", "equilibrium-air"),
                               T_wall=params.get("T_wall", 1500.0),
                               quick=True)
    return {"q_conv": float(r["q_conv"]), "q_rad": float(r["q_rad"]),
            "q_total": float(r["q_conv"]) + float(r["q_rad"]),
            "standoff": float(r["standoff"]),
            "p_stag": float(r["p_stag"]),
            "T_edge": float(r["T_edge"])}


def _exec_windward_pns(params: dict) -> dict:
    from repro.core.api import windward_heating
    r = windward_heating(V=params["V"], h=params["h"],
                         alpha_deg=params["alpha_deg"],
                         nose_radius=params.get("nose_radius", 1.3),
                         length=params.get("length", 32.77),
                         gas=params.get("gas", "equilibrium-air"))
    q = r["q"]
    return {"q_stag": float(r["q_stag"]), "q_max": float(max(q)),
            "q_tail": float(q[-1])}


def _exec_windward_correlation(params: dict) -> dict:
    from repro.atmosphere import EarthAtmosphere
    from repro.heating import sutton_graves_heating
    rn = params.get("nose_radius", 1.3)
    length = params.get("length", 32.77)
    rho = float(EarthAtmosphere().density(params["h"]))
    q_stag = float(sutton_graves_heating(rho, params["V"], rn))
    q_tail = q_stag / math.sqrt(1.0 + length / rn)
    return {"q_stag": q_stag, "q_max": q_stag, "q_tail": q_tail}


def _exec_equilibrium_gibbs(params: dict) -> dict:
    from repro.core.api import make_gas
    gas = make_gas(params.get("gas", "equilibrium-air"))
    y, rho = gas.composition_T_p(params["T"], params["p"])
    comp = {name: float(y[i]) for i, name in enumerate(gas.db.names)
            if float(y[i]) > 1.0e-12}
    return {"rho": float(rho), "y": comp}


_EXECUTORS = {
    ("stagnation", "vsl"): _exec_stagnation_vsl,
    ("stagnation", "correlation"): _correlation_point,
    ("stagnation_correlation", "correlation"): _correlation_point,
    ("windward", "pns"): _exec_windward_pns,
    ("windward", "correlation"): _exec_windward_correlation,
    ("heat_point", "correlation"): _correlation_point,
    ("equilibrium_composition", "gibbs"): _exec_equilibrium_gibbs,
}


def _apply_fault(fault: dict | None) -> None:
    if not fault:
        return
    kind = fault.get("kind")
    if kind == "hang":
        while True:          # killed by the sandbox deadline
            time.sleep(0.2)
    if kind == "crash":
        import os
        os._exit(77)         # hard child death, no cleanup
    if kind == "fail":
        raise SolverError("injected fault: fail")
    if kind == "slow":
        time.sleep(float(fault.get("seconds", 0.2)))


def _run_rung_child(method: str, rung: str, params: dict,
                    fault: dict | None) -> dict:
    """The unit of work — also the callable a sandbox child runs."""
    _apply_fault(fault)
    result = _EXECUTORS[(method, rung)](params)
    if fault and fault.get("kind") == "nan":
        result = {k: (float("nan") if isinstance(v, float) else v)
                  for k, v in result.items()}
    return result


# ------------------------------------------------------------ the engine

def _needs_sandbox(policy: BatchPolicy, heavy: bool,
                   fault: dict | None) -> bool:
    if fault and fault.get("kind") in ("hang", "crash"):
        return True          # only a child process can absorb these
    if policy.isolate == "always":
        return True
    if policy.isolate == "never":
        return False
    return heavy


def _effective_deadline(policy, req, remaining) -> float | None:
    budgets = [b for b in (policy.request_deadline, req.deadline,
                           remaining) if b is not None]
    return min(budgets) if budgets else None


def _error_kind(err: CatError) -> str:
    report = getattr(err, "report", None)
    events = getattr(report, "isolation", None) or []
    kinds = {e.get("kind") for e in events if isinstance(e, dict)}
    if kinds & {"deadline", "hang"}:
        return "hang"
    if "oom" in kinds:
        return "oom"
    if "crash" in kinds:
        return "crash"
    return "solver"


def _report_dict(err: CatError) -> dict | None:
    report = getattr(err, "report", None)
    if report is None:
        return None
    return report.to_dict() if hasattr(report, "to_dict") else report


def _failure_record(rung: str, err: CatError) -> dict:
    return {"rung": rung, "error_type": type(err).__name__,
            "kind": _error_kind(err), "message": str(err),
            "report": _report_dict(err)}


def _run_one(req, rung: str, fault: dict | None, *,
             policy: BatchPolicy, deadline: float | None) -> dict:
    sandbox = _needs_sandbox(policy, req.spec.heavy, fault)
    if sandbox:
        from repro.resilience.isolation import (IsolatedRunner,
                                                IsolationPolicy)
        label = f"batch[{req.index}]:{req.method}/{rung}"
        result = IsolatedRunner(IsolationPolicy(deadline=deadline),
                                label=label).run_callable(
            _run_rung_child, args=(req.method, rung, req.params, fault))
    else:
        result = _run_rung_child(req.method, rung, req.params, fault)
    if not isinstance(result, dict):
        raise SolverError(f"rung {req.method}/{rung} returned "
                          f"{type(result).__name__}, expected dict")
    bad = [k for k, v in result.items()
           if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise SolverError(f"non-finite result fields {bad} from "
                          f"{req.method}/{rung}")
    return result


def _execute_request(req, policy: BatchPolicy, board: BreakerBoard,
                     remaining: float | None) -> Envelope:
    """Walk the method's model ladder for one request.  Returns an
    envelope; never raises a CatError."""
    spec = req.spec
    captured: list = []
    routed = False
    for rung in spec.rungs:
        cell = board.cell(req.method, rung, req.condition_class)
        if not cell.allow(request_index=req.index):
            captured.append({"rung": rung, "skipped": "breaker-open",
                             "cell": cell.name})
            routed = True
            continue
        fault = req.fault
        if fault and fault.get("rung") not in (None, rung):
            fault = None
        deadline = _effective_deadline(policy, req, remaining)
        try:
            result = _run_one(req, rung, fault, policy=policy,
                              deadline=deadline)
        except CatError as err:
            cell.record_failure(request_index=req.index)
            captured.append(_failure_record(rung, err))
            continue
        cell.record_success(request_index=req.index)
        degraded = rung != spec.rungs[0]
        return Envelope(index=req.index, key=req.key,
                        method=req.method,
                        status="degraded" if degraded else "ok",
                        rung=rung, result=result,
                        degradation=captured,
                        routed_by_breaker=routed)
    last = next((c for c in reversed(captured) if "error_type" in c),
                None)
    if last is not None:
        error = {"error_type": last["error_type"],
                 "kind": last["kind"], "message": last["message"]}
        report = last.get("report")
    else:
        error = {"error_type": "SolverError", "kind": "breaker-open",
                 "message": "every rung skipped by an open circuit "
                            "breaker"}
        report = None
    return Envelope(index=req.index, key=req.key, method=req.method,
                    status="failed", error=error, report=report,
                    degradation=captured, routed_by_breaker=routed)


def _deadline_envelope(req, message: str) -> Envelope:
    return Envelope(index=req.index, key=req.key, method=req.method,
                    status="failed",
                    error={"error_type": "SolverError",
                           "kind": "deadline", "message": message})


def _copy_for_duplicate(src: Envelope, req) -> Envelope:
    env = replace(src, index=req.index, key=req.key,
                  deduped_of=src.index, latency_s=0.0,
                  degradation=list(src.degradation))
    return env


def _percentile(sorted_xs: list, q: float) -> float:
    if not sorted_xs:
        return 0.0
    pos = (len(sorted_xs) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_xs) - 1)
    frac = pos - lo
    return sorted_xs[lo] * (1.0 - frac) + sorted_xs[hi] * frac


def _latency_summary(envelopes: list) -> dict | None:
    lat = sorted(e.latency_s for e in envelopes
                 if e is not None and e.deduped_of is None
                 and e.latency_s > 0.0)
    if not lat:
        return None
    return {"p50": _percentile(lat, 50.0),
            "p99": _percentile(lat, 99.0),
            "mean": sum(lat) / len(lat), "max": lat[-1],
            "n": len(lat)}


def _count(items) -> dict:
    out: dict = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


def _build_batch_ledger(envelopes, *, wall, deduped, breaker, policy,
                        ok=True, **extra) -> dict:
    """The batch ledger of both paths: a fold of the envelopes, plus
    the breaker ledger, the policy and the path's own ``extra`` keys.
    It is ``ok`` when every request has an envelope and the caller's
    ``ok`` (the farm's exactly-once audit) holds."""
    n = len(envelopes)
    complete = all(e is not None for e in envelopes)
    counts = _count(e.status for e in envelopes if e is not None)
    kinds = _count((e.error or {}).get("kind", "?") for e in envelopes
                   if e is not None and e.status == "failed")
    return {"ok": ok and complete,
            "n_requests": n,
            "counts": counts,
            "failed_kinds": kinds,
            "deduped": deduped,
            "wall_s": round(wall, 4),
            "requests_per_s": (round(n / wall, 2) if wall > 0
                               else None),
            "latency_s": _latency_summary(envelopes),
            "methods": _count(e.method for e in envelopes
                              if e is not None and e.method),
            "breaker": breaker,
            **extra,
            "policy": policy.to_dict()}


@dataclass
class BatchResult:
    """Envelopes (one per request, in request order) plus the batch
    ledger; ``columns()`` gives the columnar view."""

    envelopes: list
    ledger: dict

    @property
    def counts(self) -> dict:
        return dict(self.ledger.get("counts", {}))

    def columns(self, fields=None) -> dict:
        import numpy as np
        if fields is None:
            names: set = set()
            for e in self.envelopes:
                if e.result:
                    names.update(k for k, v in e.result.items()
                                 if isinstance(v, (int, float))
                                 and not isinstance(v, bool))
            fields = sorted(names)
        n = len(self.envelopes)
        cols = {"status": np.array([e.status for e in self.envelopes]),
                "ok": np.array([e.status == "ok"
                                for e in self.envelopes])}
        for name in fields:
            col = np.full(n, np.nan)
            for i, e in enumerate(self.envelopes):
                v = (e.result or {}).get(name)
                if isinstance(v, (int, float)) and not isinstance(
                        v, bool):
                    col[i] = float(v)
            cols[name] = col
        return cols

    def to_dict(self) -> dict:
        return {"envelopes": [e.to_dict() for e in self.envelopes],
                "ledger": self.ledger}


def evaluate_batch(requests, policy: BatchPolicy | None = None, *,
                   breakers: BreakerBoard | None = None) -> BatchResult:
    """Evaluate a batch of requests with production failure semantics.

    Returns a :class:`BatchResult` with exactly one envelope per
    request, in request order.  Raises only
    :class:`~repro.errors.OverloadError`, at the door (``shed_above``),
    before any request runs; every later failure — invalid input,
    solver error, hang, crash, deadline — is recorded in the offending
    request's envelope.
    """
    policy = policy or BatchPolicy()
    requests = list(requests)
    n = len(requests)
    _shed(n, policy)
    t0 = time.monotonic()
    board = breakers if breakers is not None \
        else BreakerBoard(policy.breaker)
    envelopes: list = [None] * n
    deduped = expired = 0
    run_list = []
    primaries: dict = {}
    dupes = []
    for i, raw in enumerate(requests):
        req, env = validate_request(
            raw, index=i, allow_faults=policy.allow_faults)
        if env is not None:
            envelopes[i] = env
        elif policy.dedup and req.key in primaries:
            dupes.append((req, primaries[req.key]))
        else:
            primaries[req.key] = req.index
            run_list.append(req)
    for req in run_list:
        remaining = None
        if policy.deadline is not None:
            remaining = policy.deadline - (time.monotonic() - t0)
            if remaining <= 0.0:
                envelopes[req.index] = _deadline_envelope(
                    req, "batch deadline exhausted before execution")
                expired += 1
                continue
        t_req = time.monotonic()
        env = _execute_request(req, policy, board, remaining)
        env.latency_s = time.monotonic() - t_req
        envelopes[req.index] = env
    for req, primary_index in dupes:
        envelopes[req.index] = _copy_for_duplicate(
            envelopes[primary_index], req)
        deduped += 1
    wall = time.monotonic() - t0
    ledger = _build_batch_ledger(envelopes, wall=wall, deduped=deduped,
                                 breaker=board.snapshot(), policy=policy,
                                 deadline_expired=expired)
    return BatchResult(envelopes=envelopes, ledger=ledger)


# ------------------------------------------------------------- farm glue

def shard_requests(requests: list, chunk_size: int) -> list:
    """Split a batch into ``(offset, chunk)`` shards."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [(start, requests[start:start + chunk_size])
            for start in range(0, len(requests), chunk_size)]


def _batch_key(requests: list) -> str:
    from repro.service.request import request_key
    blob = ",".join(request_key(r) if isinstance(r, dict) else repr(r)
                    for r in requests)
    return hashlib.sha256(blob.encode()).hexdigest()


def batch_jobs(requests: list, policy: BatchPolicy, *,
               chunk_size: int | None = None) -> list:
    """Chunk jobs for the ``batch`` farm job kind.  Job ids derive from
    the batch content key, so re-enqueueing after a crash or preemption
    is idempotent (the queue dedups on id) and results commit exactly
    once."""
    from repro.resilience.queue import Job
    chunk_size = chunk_size or policy.chunk_size
    key = _batch_key(requests)
    jobs = []
    for start, chunk in shard_requests(requests, chunk_size):
        chunk_deadline = None
        if policy.request_deadline is not None:
            chunk_deadline = (policy.request_deadline * len(chunk)
                              + 30.0)
        jobs.append(Job(id=f"batch-{key[:12]}-c{start:06d}",
                        kind="batch",
                        payload={"requests": chunk,
                                 "policy": policy.to_dict(),
                                 "offset": start},
                        deadline=chunk_deadline))
    return jobs


def _merge_chunk_breakers(chunk_ledgers: list) -> dict:
    """Merge per-chunk breaker snapshots deterministically.

    Chunk boards number their transitions per-process, so bare ``seq``
    values collide across chunks and concatenation order depends on
    farm scheduling.  Keying by ``(cell, origin, seq)`` — origin is
    the writing board's ``host:pid`` — and stable-sorting makes the
    merged ledger a pure function of the chunk set, whatever order the
    farm finished them in.
    """
    transitions = []
    states: dict = {}
    for led in chunk_ledgers:
        brk = (led or {}).get("breaker") or {}
        transitions.extend(brk.get("transitions") or [])
        states.update(brk.get("states") or {})
    transitions.sort(key=lambda tr: (str(tr.get("cell") or ""),
                                     str(tr.get("origin") or ""),
                                     int(tr.get("seq") or 0)))
    return {"states": dict(sorted(states.items())),
            "transitions": transitions}


def evaluate_batch_farm(requests, policy: BatchPolicy | None = None, *,
                        queue_dir, n_workers: int = 2,
                        chunk_size: int | None = None,
                        farm_policy=None, stream=None) -> BatchResult:
    """Shard a batch across the solve farm as ``batch`` chunk jobs.

    Each chunk runs :func:`evaluate_batch` as a farm job (its own
    sandboxed process, lease-protected, retried with backoff on
    preemption); chunk envelopes merge back in request order and the
    farm ledger's exactly-once audit is attached to the merged ledger.
    A chunk that dead-letters still yields one ``failed`` envelope per
    request — the one-envelope-per-request invariant survives a lost
    sandbox or supervisor.
    """
    from repro.resilience.farm import FarmPolicy, run_campaign
    from repro.resilience.queue import WorkQueue
    policy = policy or BatchPolicy()
    requests = list(requests)
    n = len(requests)
    _shed(n, policy)
    t0 = time.monotonic()
    jobs = batch_jobs(requests, policy, chunk_size=chunk_size)
    fpolicy = farm_policy or FarmPolicy(
        n_workers=n_workers, max_wall_time=policy.deadline)
    farm_ledger = run_campaign(queue_dir, jobs, policy=fpolicy,
                               label="batch", stream=stream)
    queue = WorkQueue(queue_dir)
    envelopes: list = [None] * n
    chunk_ledgers = []
    for job in jobs:
        offset = job.payload["offset"]
        chunk = job.payload["requests"]
        rec = queue.result(job.id)
        res = rec.get("result") if isinstance(rec, dict) else None
        if not isinstance(res, dict) or "envelopes" not in res:
            for i in range(offset, offset + len(chunk)):
                envelopes[i] = Envelope(
                    index=i, key=None, method=None, status="failed",
                    error={"error_type": "SolverError", "kind": "farm",
                           "message": f"chunk job {job.id} did not "
                                      "produce a result (dead-lettered "
                                      "or lost)"})
            continue
        for d in res["envelopes"]:
            env = Envelope.from_dict(d)
            env.index += offset
            if env.deduped_of is not None:
                env.deduped_of += offset
            envelopes[env.index] = env
        chunk_ledgers.append(res.get("ledger"))
    wall = time.monotonic() - t0
    audit = farm_ledger["exactly_once_audit"]
    ledger = _build_batch_ledger(
        envelopes, wall=wall,
        deduped=sum((led or {}).get("deduped", 0)
                    for led in chunk_ledgers),
        breaker=_merge_chunk_breakers(chunk_ledgers), policy=policy,
        ok=audit["ok"],
        farm={"label": farm_ledger["label"],
              "wall_time": farm_ledger["wall_time"],
              "jobs": len(jobs),
              "n_workers": farm_ledger["n_workers"]},
        audit=audit)
    return BatchResult(envelopes=envelopes, ledger=ledger)


def batch_bench_record(result: BatchResult, *, mode: str,
                       n_workers: int = 1) -> dict:
    """BENCH_batch.json record: requests/sec + latency percentiles."""
    led = result.ledger
    return {"bench": "batch", "mode": mode, "n_workers": n_workers,
            "n_requests": led.get("n_requests"),
            "counts": led.get("counts"),
            "wall_s": led.get("wall_s"),
            "requests_per_s": led.get("requests_per_s"),
            "latency_s": led.get("latency_s")}
