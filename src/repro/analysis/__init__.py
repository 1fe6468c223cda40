"""Static analysis for the CAT toolkit: ``catlint`` + units checker.

The analysis layer is intentionally **stdlib-only** (``ast``,
``tokenize``, ``json``) so it can run in CI before numpy/scipy are
even installed, and so a broken scientific stack can never mask a
lint regression.

Two engines live here:

``catlint`` (:mod:`repro.analysis.engine`, :mod:`repro.analysis.rules`)
    An AST-walking lint engine with CAT-specific numerical-safety
    rules — unguarded ``np.log``/``np.sqrt``, division by an
    unguarded difference, float ``==``, overbroad ``except`` clauses
    that can swallow :class:`~repro.errors.StabilityError` or
    ``SimulatedCrash``, ``np.empty`` without full initialization,
    missing ``dtype`` on hot-path array constructors, silent
    float32 downcasts, non-deterministic set-ordered reductions,
    mutable default arguments and ``assert``-as-validation.

units checker (:mod:`repro.analysis.units`)
    A lightweight dimensional analysis pass driven by the ``[J/kg]``
    style unit tags the codebase already carries in docstrings and
    ``constants.py`` ``#:`` comments, plus a curated registry for the
    thermo/transport/kinetics public API.  Flags dimensionally
    incompatible additions, inconsistent reassignments and call-site
    unit mismatches.

Both are exposed through ``python -m repro.analysis`` (see
:mod:`repro.analysis.cli`) with text/JSON output and per-rule pragmas
(``# catlint: disable=RULE -- reason``); CI fails on any finding.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Severity
from repro.analysis.engine import (
    RULES,
    LintContext,
    Rule,
    lint_paths,
    lint_source,
    register,
)
from repro.analysis.units import check_units_paths, check_units_source
from repro.analysis.dimensions import Dim, UnitParseError, parse_unit

__all__ = [
    "Finding",
    "Severity",
    "RULES",
    "Rule",
    "LintContext",
    "register",
    "lint_paths",
    "lint_source",
    "check_units_paths",
    "check_units_source",
    "Dim",
    "parse_unit",
    "UnitParseError",
]
