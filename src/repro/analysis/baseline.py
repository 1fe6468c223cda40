"""Baseline persistence and diffing.

A baseline is a JSON snapshot of accepted findings.  Each finding is
keyed by ``(path, rule, stripped source line)`` — deliberately **not**
by line number, so unrelated edits above a grandfathered finding do
not resurrect it — with a multiplicity count for identical lines.

CI runs ``lint --baseline``: findings whose key-count exceeds the
baseline's count are *new* and fail the build; baseline entries whose
finding disappeared are reported as stale (informational) so the file
can be re-generated with ``--write-baseline``.
"""

from __future__ import annotations

import collections
import json
import os
from typing import Iterable

from repro.analysis.findings import Finding

#: Default baseline location, relative to the repo root / CWD.
DEFAULT_BASELINE_PATH = ".catlint-baseline.json"

_FORMAT_VERSION = 1


def _counts(findings: Iterable[Finding]) -> collections.Counter:
    return collections.Counter(f.key() for f in findings)


def write_baseline(findings: Iterable[Finding], path: str) -> dict:
    findings = sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    doc = {
        "format": _FORMAT_VERSION,
        "tool": "catlint",
        "entries": [
            {"key": f.key(), "rule": f.rule, "path": f.path,
             "source_line": f.source_line.strip(), "message": f.message}
            for f in findings
        ],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return doc


def load_baseline(path: str) -> collections.Counter:
    """Key -> accepted multiplicity.  Missing file = empty baseline.

    Raises :class:`ValueError` unless the file is a JSON object whose
    ``entries`` is a list of objects, each with a string ``key``.
    """
    if not os.path.exists(path):
        return collections.Counter()
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) and isinstance(e.get("key"), str)
                    for e in entries)):
        raise ValueError(f"not a catlint baseline: {path}")
    return collections.Counter(e["key"] for e in entries)


def diff_against_baseline(findings: list[Finding],
                          baseline: collections.Counter,
                          ) -> tuple[list[Finding], int]:
    """Return (new_findings, n_stale_entries).

    ``new_findings`` are findings beyond the baselined multiplicity of
    their key; ``n_stale_entries`` counts baseline entries whose
    finding no longer occurs (candidates for re-baselining).
    """
    remaining = collections.Counter(baseline)
    new: list[Finding] = []
    for f in sorted(findings, key=lambda x: (x.path, x.line, x.col, x.rule)):
        k = f.key()
        if remaining[k] > 0:
            remaining[k] -= 1
        else:
            new.append(f)
    stale = sum(c for c in remaining.values() if c > 0)
    return new, stale
