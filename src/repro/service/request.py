"""Typed batch requests, canonical idempotency keys, outcome envelopes.

A batch request is a plain JSON-able dict::

    {"method": "heat_point", "V": 7200.0, "h": 55e3, "nose_radius": 1.3}

``method`` selects an entry in :data:`METHODS`; every other field is
validated against the method's spec *up front*, before any physics
runs, so one malformed request can never abort the batch.  Validation
failures become typed per-request :class:`~repro.errors.InputError`
records inside a ``failed`` :class:`Envelope` — never exceptions.

Idempotency: :func:`request_key` is the sha256 of the canonicalized
request (client-side tags dropped, keys sorted, numbers normalized).
Two requests asking the same physical question share a key, which the
batch engine uses to dedup within a batch and the farm uses for safe
retry across preemption.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.core.api import GAS_MODELS
from repro.errors import InputError

__all__ = ["METHODS", "MethodSpec", "Request", "Envelope",
           "canonical_request", "request_key", "validate_request",
           "FAULT_KINDS"]

#: Fault kinds a chaos/test request may carry (``allow_faults`` only).
#: "hang" and "crash" are only honored inside a sandboxed child.
FAULT_KINDS = ("hang", "crash", "fail", "nan", "slow")

#: Fields that never affect the physical answer and are dropped from
#: the canonical form (client-side correlation tags).
_VOLATILE_FIELDS = ("id", "tag")


@dataclass(frozen=True)
class MethodSpec:
    """What the front door knows about one evaluation method.

    Attributes
    ----------
    rungs:
        Model ladder, best first.  The batch engine walks it downward
        on failure (and skips rungs whose circuit breaker is open).
    heavy:
        True when the top rung is a full solver (VSL / PNS) that can
        hang — under ``isolate="auto"`` such requests run sandboxed
        with a preemptive per-request deadline.
    fields:
        ``name -> (required, lo, hi)`` numeric-field spec.  Bounds are
        inclusive; ``None`` means unbounded on that side.
    has_gas:
        Whether the request may carry a ``gas`` name (validated against
        :data:`repro.core.api.GAS_MODELS`).
    """

    rungs: tuple
    heavy: bool
    fields: dict
    has_gas: bool = True


METHODS = {
    "stagnation": MethodSpec(
        rungs=("vsl", "correlation"), heavy=True,
        fields={"V": (True, 1.0, 2.0e4), "h": (True, -500.0, 2.0e5),
                "nose_radius": (True, 1.0e-3, 50.0),
                "T_wall": (False, 100.0, 5000.0)}),
    "stagnation_correlation": MethodSpec(
        rungs=("correlation",), heavy=False,
        fields={"V": (True, 1.0, 2.0e4), "h": (True, -500.0, 2.0e5),
                "nose_radius": (True, 1.0e-3, 50.0)}),
    "windward": MethodSpec(
        rungs=("pns", "correlation"), heavy=True,
        fields={"V": (True, 1.0, 2.0e4), "h": (True, -500.0, 2.0e5),
                "alpha_deg": (True, -60.0, 60.0),
                "nose_radius": (False, 1.0e-3, 50.0),
                "length": (False, 0.1, 200.0)}),
    "heat_point": MethodSpec(
        rungs=("correlation",), heavy=False,
        fields={"V": (True, 0.0, 2.0e4), "h": (True, -500.0, 2.0e5),
                "nose_radius": (True, 1.0e-3, 50.0)}),
    "equilibrium_composition": MethodSpec(
        rungs=("gibbs",), heavy=False,
        fields={"T": (True, 200.0, 3.0e4), "p": (True, 1.0e-2, 1.0e9)}),
}


@dataclass
class Request:
    """A validated request, ready for execution."""

    index: int
    key: str
    method: str
    params: dict
    fault: dict | None = None
    deadline: float | None = None

    @property
    def spec(self) -> MethodSpec:
        return METHODS[self.method]

    @property
    def condition_class(self) -> str:
        """Breaker scoping: requests of one method and gas share a
        breaker cell (a sick solver is sick for the whole class)."""
        return str(self.params.get("gas", "-"))


@dataclass
class Envelope:
    """Per-request outcome record — exactly one per request, always.

    ``status`` is ``"ok"`` (top rung answered), ``"degraded"`` (a lower
    rung answered; ``degradation`` wraps the captured failures and
    ``rung`` names the rung that produced ``result``) or ``"failed"``
    (``error`` carries the typed record, ``report`` the FailureReport
    dict when the resilience layer produced one).
    """

    index: int
    key: str | None
    method: str | None
    status: str
    rung: str | None = None
    result: dict | None = None
    error: dict | None = None
    report: dict | None = None
    degradation: list = field(default_factory=list)
    routed_by_breaker: bool = False
    deduped_of: int | None = None
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {"index": self.index, "key": self.key,
                "method": self.method, "status": self.status,
                "rung": self.rung, "result": self.result,
                "error": self.error, "report": self.report,
                "degradation": self.degradation,
                "routed_by_breaker": self.routed_by_breaker,
                "deduped_of": self.deduped_of,
                "latency_s": self.latency_s}

    @classmethod
    def from_dict(cls, d: dict) -> "Envelope":
        return cls(**{k: d.get(k) for k in
                      ("index", "key", "method", "status", "rung",
                       "result", "error", "report", "deduped_of")},
                   degradation=d.get("degradation") or [],
                   routed_by_breaker=bool(d.get("routed_by_breaker")),
                   latency_s=float(d.get("latency_s") or 0.0))


def _canonical_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return float(v)
    if isinstance(v, int):
        return int(v)
    if isinstance(v, dict):
        return {str(k): _canonical_value(v[k]) for k in sorted(v, key=str)}
    if isinstance(v, (list, tuple)):
        return [_canonical_value(x) for x in v]
    return v


def canonical_request(raw: dict) -> dict:
    """Canonical form of a request: volatile client tags dropped, keys
    sorted (by their string form, so a Python caller's non-string key
    sorts too), numbers normalized.  The ``fault`` field (chaos only)
    stays in the key — an injected fault changes the answer."""
    return {str(k): _canonical_value(raw[k])
            for k in sorted(raw, key=str) if k not in _VOLATILE_FIELDS}


def request_key(raw: dict) -> str:
    """sha256 hex digest of the canonicalized request.  Never raises: a
    value JSON cannot encode enters by its ``repr``; a request that
    cannot be serialized at all (a recursive container, an integer too
    long to print) is keyed by its identity."""
    try:
        blob = json.dumps(canonical_request(raw), sort_keys=True,
                          separators=(",", ":"), default=repr)
    except (ValueError, RecursionError):
        blob = f"{type(raw).__name__}@{id(raw)}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _invalid(index: int, raw, problems: list) -> Envelope:
    """Typed InputError record inside a failed envelope — the only
    shape a validation failure ever takes."""
    method = raw.get("method") if isinstance(raw, dict) else None
    key = request_key(raw) if isinstance(raw, dict) else None
    err = InputError("; ".join(problems))
    return Envelope(index=index, key=key,
                    method=method if isinstance(method, str) else None,
                    status="failed",
                    error={"error_type": type(err).__name__,
                           "kind": "invalid", "message": str(err),
                           "problems": list(problems)})


def _number(name: str, v, problems: list) -> float | None:
    """``v`` as a finite float, or None once the problem is recorded."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        problems.append(f"field {name!r} must be a number, got "
                        f"{type(v).__name__}")
        return None
    try:
        v = float(v)
    except OverflowError:       # a JSON integer beyond the float range
        v = math.inf if v > 0 else -math.inf
    if not math.isfinite(v):
        problems.append(f"field {name!r} must be finite, got {v!r}")
        return None
    return v


def validate_request(raw, *, index: int,
                     allow_faults: bool = False):
    """Validate one raw request.

    Returns ``(Request, None)`` on success or ``(None, Envelope)`` with
    a typed failed envelope on any problem.  Never raises: every
    malformed input — wrong container type, unknown method, missing or
    out-of-range fields, unexpected fault — becomes a record.
    """
    if not isinstance(raw, dict):
        return None, _invalid(index, raw,
                              [f"request must be an object, got "
                               f"{type(raw).__name__}"])
    problems = []
    method = raw.get("method")
    spec = METHODS.get(method) if isinstance(method, str) else None
    if spec is None:
        problems.append(f"unknown method {method!r}; options: "
                        f"{', '.join(sorted(METHODS))}")
        return None, _invalid(index, raw, problems)

    params = {}
    for name, (required, lo, hi) in spec.fields.items():
        if name not in raw:
            if required:
                problems.append(f"missing required field {name!r}")
            continue
        v = _number(name, raw[name], problems)
        if v is None:
            continue
        if lo is not None and v < lo:
            problems.append(f"field {name!r}={v:g} below {lo:g}")
            continue
        if hi is not None and v > hi:
            problems.append(f"field {name!r}={v:g} above {hi:g}")
            continue
        params[name] = v

    if spec.has_gas:
        gas = raw.get("gas", "equilibrium-air")
        if not isinstance(gas, str) or gas not in GAS_MODELS:
            problems.append(f"unknown gas model {gas!r}; options: "
                            f"{', '.join(sorted(GAS_MODELS))}")
        else:
            params["gas"] = gas

    known = set(spec.fields) | {"method", "gas", "fault", "deadline",
                                *_VOLATILE_FIELDS}
    for name in raw:
        if name not in known:
            problems.append(f"unexpected field {name!r}")

    deadline = raw.get("deadline")
    if deadline is not None:
        deadline = _number("deadline", deadline, problems)
        if deadline is not None and deadline <= 0.0:
            problems.append(f"field 'deadline' must be positive, got "
                            f"{deadline:g}")
            deadline = None

    fault = raw.get("fault")
    if fault is not None:
        if not allow_faults:
            problems.append("'fault' field present but fault injection "
                            "is not enabled for this batch")
        elif (not isinstance(fault, dict)
              or fault.get("kind") not in FAULT_KINDS):
            problems.append(f"bad fault spec {fault!r}; kinds: "
                            f"{', '.join(FAULT_KINDS)}")
        elif fault.get("rung") is not None \
                and fault["rung"] not in spec.rungs:
            problems.append(f"fault rung {fault['rung']!r} not in "
                            f"{method!r} ladder {spec.rungs}")

    if problems:
        return None, _invalid(index, raw, problems)
    return Request(index=index, key=request_key(raw), method=method,
                   params=params, fault=fault, deadline=deadline), None
