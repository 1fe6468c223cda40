"""Correctness gate: compare operation outputs with recorded references.

An output is flattened to its numeric leaves (``path -> array``): dict
entries, list items, dataclass fields, numbers and numeric arrays; any
other object is skipped.  A leaf matches its reference when the shape
is equal and every value satisfies::

    |x - ref| <= RTOL * max(|ref|, FLOOR * max|ref over the leaf|) + ATOL

``RTOL`` is 100x the loosest convergence tolerance of the solvers behind
these outputs (1e-6: boundary-layer shooting residual and the quick ODE
rtol of figs 1 and 7), so a change that converges to another point
within those tolerances still passes while a changed answer does not.
``FLOOR`` keeps entries many decades below their series' peak (trace
species mole fractions) from demanding relative agreement at 1e-16, and
``ATOL`` does the same for lone trace mass fractions.  The service
drops species below 1e-12 from a composition, so a leaf present on one
side only passes when all its values are below ``ABSENT``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

RTOL = 1e-4
FLOOR = 1e-6
ATOL = 1e-12
ABSENT = 1e-9

#: Outputs left out of the gate: fig 9's contour segments are derived
#: geometry whose segment count can change with a last-digit change of
#: the N2 field, which is itself compared.
SKIP = {"fig9": ("contours",)}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) \
        and not isinstance(x, (bool, np.bool_))


def flatten(obj, prefix: str = "", out: dict | None = None,
            depth: int = 0) -> dict:
    """``path -> np.ndarray`` of the numeric leaves of ``obj``."""
    out = {} if out is None else out
    if depth > 4:
        return out
    if _is_number(obj):
        out[prefix] = np.asarray(float(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iuf" and obj.size:
            out[prefix] = obj.astype(float)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            flatten(v, f"{prefix}/{k}", out, depth + 1)
    elif isinstance(obj, (list, tuple)):
        if obj and all(_is_number(x) for x in obj):
            out[prefix] = np.asarray(obj, dtype=float)
        else:
            for i, v in enumerate(obj):
                flatten(v, f"{prefix}/{i}", out, depth + 1)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            flatten(getattr(obj, f.name), f"{prefix}/{f.name}", out,
                    depth + 1)
    return out


def to_record(name: str, output) -> dict:
    """JSON-able reference record of one operation's output."""
    skip = SKIP.get(name, ())
    leaves = flatten(output)
    return {path: {"shape": list(arr.shape),
                   "values": arr.ravel().tolist()}
            for path, arr in sorted(leaves.items())
            if path.split("/")[1] not in skip}


def compare(name: str, output, reference: dict) -> str | None:
    """``None`` when ``output`` matches ``reference``, else a one-line
    description of the first mismatch."""
    got = to_record(name, output)
    for path in sorted(set(got) ^ set(reference)):
        leaf = got.get(path) or reference[path]
        if not np.all(np.abs(leaf["values"]) < ABSENT):
            side = "output" if path in got else "reference"
            return f"{path}: only in the {side}"
    for path in sorted(set(got) & set(reference)):
        ref = reference[path]
        if got[path]["shape"] != ref["shape"]:
            return (f"{path}: shape {got[path]['shape']} != "
                    f"{ref['shape']}")
        x = np.asarray(got[path]["values"], dtype=float)
        r = np.asarray(ref["values"], dtype=float)
        both_nan = np.isnan(x) & np.isnan(r)
        scale = np.maximum(np.abs(r), FLOOR * np.nanmax(np.abs(r))
                           if np.any(np.isfinite(r)) else 0.0)
        bad = ~both_nan & ~(np.abs(x - r) <= RTOL * scale + ATOL)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            return (f"{path}[{i}]: {float(x[i])!r} vs reference "
                    f"{float(r[i])!r} (rtol {RTOL:g})")
    return None


def load(kind: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{kind}.json")) as f:
        return json.load(f)


def save(kind: str, records: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{kind}.json")
    with open(path, "w") as f:
        json.dump(records, f, sort_keys=True, separators=(",", ":"),
                  allow_nan=True)
        f.write("\n")
