"""catlint core: rule registry, AST walking, pragma filtering.

A :class:`Rule` inspects one parsed module and yields
:class:`~repro.analysis.findings.Finding` objects.  Rules register
themselves with :func:`register`; the engine parses each file once,
annotates parent links, builds the pragma index and runs every
selected rule.

The engine is stdlib-only by design — it must run before the
scientific stack is importable.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.pragmas import PragmaIndex

#: Registry of all known rules, keyed by code (e.g. ``"CAT001"``).
RULES: dict[str, "Rule"] = {}

#: Source subtrees where dtype discipline is enforced (CAT021 et al.).
HOT_PATH_PARTS = ("solvers", "numerics", "thermo", "transport")


def register(rule_cls: type["Rule"]) -> type["Rule"]:
    """Class decorator: instantiate and add a rule to :data:`RULES`."""
    rule = rule_cls()
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return rule_cls


class LintContext:
    """Everything a rule needs about one module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        norm = path.replace(os.sep, "/")
        parts = norm.split("/")
        base = os.path.basename(norm)
        self.is_test = "tests" in parts or base.startswith("test_")
        self.is_hot_path = (not self.is_test
                            and any(p in parts for p in HOT_PATH_PARTS))
        #: Names known positive in this module: physical constants
        #: imported from repro.constants (all positive by convention)
        #: and module-level aliases / positive literals.
        self.positive_names: set[str] = set()
        for node in tree.body:
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "repro.constants"):
                for alias in node.names:
                    self.positive_names.add(alias.asname or alias.name)
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                if is_guarded(node.value,
                              lambda n: n in self.positive_names):
                    self.positive_names.add(node.targets[0].id)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str,
                severity: str | None = None) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule.code, severity=severity or rule.severity,
                       path=self.path, line=line, col=col, message=message,
                       source_line=self.source_line(line))

    def enclosing_function(self, node: ast.AST):
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parents.get(cur)
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set ``code``, ``name``, ``severity``, ``description``
    and implement :meth:`check`.
    """

    code = "CAT000"
    name = "abstract"
    severity = Severity.WARNING
    description = ""

    def applies(self, ctx: LintContext) -> bool:
        return True

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError


# --- shared AST helpers used by the concrete rules -----------------------

def dotted_name(node: ast.AST) -> str:
    """``np.linalg.norm`` -> "np.linalg.norm"; "" if not a name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    return dotted_name(node.func)


def is_number(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def const_value(node: ast.AST):
    if is_number(node):
        return node.value
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and is_number(node.operand)):
        return -node.operand.value
    return None


_GUARD_CALLS = {
    "np.maximum", "np.fmax", "np.clip", "np.abs", "np.absolute",
    "numpy.maximum", "numpy.fmax", "numpy.clip", "numpy.abs",
    "abs", "max", "np.exp", "np.expm1", "np.cosh", "np.hypot",
    "np.square", "math.exp", "math.cosh", "math.hypot",
    "np.linalg.norm",
    # repro's own clamping helpers (repro.numerics.safety and the
    # thermo temperature coercer, which clamps T >= 1e-3 K)
    "clamp_positive", "safe_log", "safe_sqrt", "safe_div", "_as_T",
}

#: Names that are positive by mathematical definition, plus the repo's
#: own positive reference-state constants (repro.thermo.statmech /
#: repro.constants).
_POSITIVE_NAMES = {"math.pi", "np.pi", "numpy.pi", "math.e", "np.e",
                   "math.tau", "math.inf", "np.inf", "numpy.inf",
                   "P_STANDARD", "P_ATM"}


def is_guarded(node: ast.AST, resolve=None) -> bool:
    """Heuristic: is this expression protected against zero/negative?

    True when the expression is a clamping or positivity-preserving
    construct: ``np.maximum``/``np.clip``/``abs``-family calls, a
    positive numeric literal, an added positive epsilon, an even
    power, ``x * x``, or products/quotients of guarded factors.

    ``resolve`` is an optional callback ``(dotted_name) -> bool`` that
    answers whether a bare name is known positive (module constants,
    variables whose every assignment is guarded).
    """
    v = const_value(node)
    if v is not None:
        return v > 0
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = dotted_name(node)
        if name in _POSITIVE_NAMES:
            return True
        return bool(resolve and resolve(name))
    if isinstance(node, ast.Call):
        return call_name(node) in _GUARD_CALLS
    if isinstance(node, ast.UnaryOp):
        return (isinstance(node.op, ast.UAdd)
                and is_guarded(node.operand, resolve))
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Add):
            lv, rv = const_value(node.left), const_value(node.right)
            if (lv is not None and lv > 0) or (rv is not None and rv > 0):
                return True
            return (is_guarded(node.left, resolve)
                    or is_guarded(node.right, resolve))
        if isinstance(node.op, ast.Pow):
            exp = const_value(node.right)
            if (exp is not None and exp == int(exp)
                    and int(exp) % 2 == 0):
                return True
            return is_guarded(node.left, resolve)
        if isinstance(node.op, ast.Mult):
            if (isinstance(node.left, ast.Name)
                    and isinstance(node.right, ast.Name)
                    and node.left.id == node.right.id):
                return True
            return (is_guarded(node.left, resolve)
                    and is_guarded(node.right, resolve))
        if isinstance(node.op, ast.Div):
            return (is_guarded(node.left, resolve)
                    and is_guarded(node.right, resolve))
    return False


# --- running -------------------------------------------------------------

def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs
                                 if d not in {"__pycache__", ".git"})
                for f in sorted(files):
                    if f.endswith(".py"):
                        yield os.path.join(root, f)


def lint_source(source: str, path: str = "<string>",
                select: Iterable[str] | None = None) -> list[Finding]:
    """Lint one source string; returns pragma-filtered findings."""
    # make sure the default rule set is registered
    from repro.analysis import rules as _rules  # noqa: F401
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return [Finding(rule="CAT999", severity=Severity.ERROR, path=path,
                        line=err.lineno or 1, col=(err.offset or 1) - 1,
                        message=f"syntax error: {err.msg}")]
    ctx = LintContext(path, source, tree)
    pragmas = PragmaIndex.from_source(source)
    selected = set(select) if select is not None else None
    out: list[Finding] = []
    for code in sorted(RULES):
        rule = RULES[code]
        if selected is not None and code not in selected:
            continue
        if not rule.applies(ctx):
            continue
        for f in rule.check(ctx):
            if not pragmas.disabled(f.rule, f.line):
                out.append(f)
    if selected is None or "CAT090" in selected:
        for line, codes in pragmas.missing_reason:
            if pragmas.disabled("CAT090", line):
                continue
            out.append(Finding(
                rule="CAT090", severity=Severity.INFO, path=path,
                line=line, col=0,
                message=("pragma disables "
                         f"{','.join(codes)} without a '-- reason'"),
                source_line=ctx.source_line(line)))
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return out


def lint_paths(paths: Iterable[str],
               select: Iterable[str] | None = None) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            findings.append(Finding(
                rule="CAT998", severity=Severity.ERROR, path=path,
                line=1, col=0, message=f"unreadable file: {err}"))
            continue
        findings.extend(lint_source(source, path=path, select=select))
    return findings
