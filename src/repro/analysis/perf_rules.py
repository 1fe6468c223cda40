"""The PERF rule family: hot-path performance lint.

catlint's CAT rules guard numerical *safety*; the PERF rules inventory
numerical *throughput* — every scalar-per-cell Python pattern left on a
hot path.  They run only under ``python -m repro.analysis perf``, which
builds the call graph and hot-path index first (a plain ``lint`` run
skips them: without hotness information every rule's ``applies`` is
False).  Pragmas, severity, baseline keys and JSON output are the
standard catlint machinery; suppression is
``# catlint: disable=PERF00x -- reason``.

Each finding carries score metadata and the engine emits a **ranked
vectorization worklist**::

    score = (hot_depth + local_depth) * trip_estimate * multiplicity

* ``hot_depth``   — loop depth accumulated along call edges from the
  anchors (a kernel invoked from a stepping loop starts at >= 1);
* ``local_depth`` — enclosing for/while/comprehension nesting at the
  finding, inside its function;
* ``trip_estimate`` — static iteration-count guess for the innermost
  relevant loop (``range(8)`` -> 8; species axes -> 16; unknown
  per-cell axes -> 256; see :func:`estimate_trips`);
* ``multiplicity`` — distinct hot call sites reaching the scope.

Findings inside ``except`` handlers are rescue paths, not steady
state: their score is discounted 100x (they stay in the inventory —
a rescue loop still deserves vectorizing — but never outrank the
per-step kernels).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.callgraph import CallGraph, FunctionNode
from repro.analysis.engine import (
    LintContext,
    Rule,
    call_name,
    const_value,
    dotted_name,
    iter_python_files,
    register,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.hotpath import HotInfo, HotPathIndex, default_anchor
from repro.analysis.pragmas import PragmaIndex

#: Static trip-count buckets (documented in DESIGN.md §7): a species
#: axis is ~10-20 wide, an element/constraint axis under 10, and an
#: unknown axis is assumed to be a per-cell axis.
SPECIES_TRIP = 16
ELEMENT_TRIP = 8
DEFAULT_TRIP = 256

#: Names whose ``range(...)`` iteration is an element/constraint axis.
_ELEMENT_NAMES = frozenset({"K", "n_el", "n_con", "n_constraints"})
#: Names whose iteration is a species axis.
_SPECIES_NAMES = frozenset({"ns", "n_s", "n_sp", "n_species", "nsp"})

#: Kernel callables assumed pure for PERF006 (loop-invariant
#: recomputation): NASA-7 / statmech / mixture property evaluators.
PURE_KERNELS = frozenset({
    "cp", "h", "s", "g0", "g0_over_RT", "gibbs",
    "cp_mass", "cv_mass", "h_mass", "e_mass", "s_mass",
    "gas_constant", "molar_mass", "viscosity", "conductivity",
    "e_vib_el", "cv_vib_el", "h_tr_rot", "cp_tr_rot",
    "cp_tr_rot_mass", "sound_speed_frozen", "gamma_frozen",
})

_NP_ALLOC = frozenset({
    "np.zeros", "np.ones", "np.empty", "np.full", "np.eye",
    "np.zeros_like", "np.ones_like", "np.empty_like", "np.full_like",
    "np.arange", "np.linspace", "np.geomspace", "np.logspace",
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
    "numpy.zeros_like", "numpy.ones_like", "numpy.empty_like",
    "numpy.full_like",
})

_NP_GROW = frozenset({
    "np.append", "np.concatenate", "np.vstack", "np.hstack",
    "np.insert", "np.delete", "np.column_stack", "np.row_stack",
    "numpy.append", "numpy.concatenate", "numpy.vstack",
    "numpy.hstack", "numpy.insert", "numpy.delete",
})

_NP_FROM_COMP = frozenset({
    "np.array", "np.asarray", "np.stack", "np.concatenate",
    "np.vstack", "np.hstack", "np.column_stack",
    "numpy.array", "numpy.asarray", "numpy.stack",
    "numpy.concatenate", "numpy.vstack", "numpy.hstack",
})

_COMPS = (ast.ListComp, ast.GeneratorExp)
_ALL_COMPS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


# --------------------------------------------------------------------------
# trip estimation
# --------------------------------------------------------------------------

def estimate_trips(iter_node: ast.AST | None) -> tuple[int, str]:
    """Static trip-count estimate for a loop iterable.

    Returns ``(count, basis)`` where basis documents the heuristic
    (``"constant"``, ``"species-axis"``, ``"element-axis"``,
    ``"assumed-cell-axis"``).
    """
    if iter_node is None:
        return DEFAULT_TRIP, "assumed-cell-axis"
    if isinstance(iter_node, ast.Call) and call_name(iter_node) == "range":
        args = iter_node.args
        vals = [const_value(a) for a in args]
        if len(vals) == 1 and vals[0] is not None:
            return max(int(vals[0]), 1), "constant"
        if len(vals) >= 2 and vals[0] is not None and vals[1] is not None:
            return max(int(vals[1]) - int(vals[0]), 1), "constant"
        if args:
            return _axis_guess(args[0])
        return DEFAULT_TRIP, "assumed-cell-axis"
    if isinstance(iter_node, ast.Call) and call_name(iter_node) in (
            "enumerate", "zip", "reversed"):
        if iter_node.args:
            return estimate_trips(iter_node.args[0])
    return _axis_guess(iter_node)


def _axis_guess(node: ast.AST) -> tuple[int, str]:
    name = dotted_name(node)
    bare = name.rsplit(".", 1)[-1] if name else ""
    if bare in _ELEMENT_NAMES or name.endswith(".K"):
        return ELEMENT_TRIP, "element-axis"
    if (bare in _SPECIES_NAMES or name.endswith(".n")
            or "species" in name.lower()):
        return SPECIES_TRIP, "species-axis"
    v = const_value(node)
    if v is not None:
        return max(int(v), 1), "constant"
    return DEFAULT_TRIP, "assumed-cell-axis"


# --------------------------------------------------------------------------
# perf finding + context helpers
# --------------------------------------------------------------------------

@dataclass
class PerfFinding:
    """One PERF finding plus its worklist scoring metadata."""

    finding: Finding
    function: str              #: enclosing hot scope qualname
    hot_depth: int
    local_depth: int
    trips: int
    trip_basis: str
    multiplicity: int
    via: tuple[str, ...]
    rescue_path: bool = False  #: inside an except handler

    @property
    def loop_depth(self) -> int:
        return self.hot_depth + self.local_depth

    @property
    def score(self) -> float:
        s = float(max(self.loop_depth, 1) * self.trips
                  * max(self.multiplicity, 1))
        return round(s / 100.0, 2) if self.rescue_path else s

    def to_dict(self) -> dict:
        doc = self.finding.to_dict()
        doc.update({
            "function": self.function,
            "hot_depth": self.hot_depth,
            "local_depth": self.local_depth,
            "loop_depth": self.loop_depth,
            "trip_estimate": self.trips,
            "trip_basis": self.trip_basis,
            "multiplicity": self.multiplicity,
            "score": self.score,
            "rescue_path": self.rescue_path,
            "hot_via": list(self.via),
        })
        return doc


class _PerfScope:
    """Resolved hotness of one AST node's enclosing function."""

    def __init__(self, fn: FunctionNode | None, hot: HotInfo | None,
                 is_callback: bool) -> None:
        self.fn = fn
        self.hot = hot
        self.is_callback = is_callback

    @property
    def qualname(self) -> str:
        return self.fn.qualname if self.fn is not None else "<module>"


def _scope_of(ctx: LintContext, node: ast.AST) -> _PerfScope:
    index: HotPathIndex = ctx.hot          # type: ignore[attr-defined]
    graph: CallGraph = index.graph
    fn = graph.function_at(ctx.path, getattr(node, "lineno", 1))
    hot = None
    cur = fn
    while cur is not None:
        hot = index.info.get(cur.key)
        if hot is not None:
            break
        cur = (graph.nodes.get((ctx.path, cur.parent))
               if cur.parent else None)
    is_cb = fn is not None and fn.key in graph.callbacks
    return _PerfScope(fn, hot, is_cb)


def _local_depth(ctx: LintContext, node: ast.AST) -> int:
    """for/while/comprehension nesting of ``node`` inside its function."""
    depth = 0
    cur: ast.AST = node
    parent = ctx.parents.get(cur)
    while parent is not None and not isinstance(parent, _FUNCS):
        if isinstance(parent, ast.For):
            if cur is not parent.iter and cur is not parent.target:
                depth += 1
        elif isinstance(parent, ast.While):
            if cur is not parent.test:
                depth += 1
        elif isinstance(parent, _ALL_COMPS):
            skip = (isinstance(cur, ast.comprehension)
                    and parent.generators
                    and cur is parent.generators[0])
            if not skip:
                depth += len(parent.generators)
        cur = parent
        parent = ctx.parents.get(parent)
    return depth


def _in_except_handler(ctx: LintContext, node: ast.AST) -> bool:
    cur = ctx.parents.get(node)
    while cur is not None and not isinstance(cur, _FUNCS):
        if isinstance(cur, ast.ExceptHandler):
            return True
        cur = ctx.parents.get(cur)
    return False


def _enclosing_loop(ctx: LintContext, node: ast.AST):
    """Innermost For/While whose body contains ``node`` (same function)."""
    cur: ast.AST = node
    parent = ctx.parents.get(cur)
    while parent is not None and not isinstance(parent, _FUNCS):
        if isinstance(parent, ast.For) and cur is not parent.iter \
                and cur is not parent.target:
            return parent
        if isinstance(parent, ast.While) and cur is not parent.test:
            return parent
        cur = parent
        parent = ctx.parents.get(parent)
    return None


def _loop_vars(ctx: LintContext, node: ast.AST) -> set[str]:
    """Targets of every enclosing For / comprehension around ``node``."""
    out: set[str] = set()
    cur: ast.AST = node
    parent = ctx.parents.get(cur)
    while parent is not None and not isinstance(parent, _FUNCS):
        if isinstance(parent, ast.For) and cur is not parent.iter:
            for n in ast.walk(parent.target):
                if isinstance(n, ast.Name):
                    out.add(n.id)
        elif isinstance(parent, _ALL_COMPS):
            for gen in parent.generators:
                for n in ast.walk(gen.target):
                    if isinstance(n, ast.Name):
                        out.add(n.id)
        cur = parent
        parent = ctx.parents.get(parent)
    return out


def _iterating_trips(ctx: LintContext, node: ast.AST,
                     scope: _PerfScope) -> tuple[int, str]:
    """Trip estimate for a site that runs repeatedly (loop/callback)."""
    loop = _enclosing_loop(ctx, node)
    if isinstance(loop, ast.For):
        return estimate_trips(loop.iter)
    if loop is not None:
        return DEFAULT_TRIP, "while-loop"
    if scope.is_callback:
        return DEFAULT_TRIP, "per-step-callback"
    return DEFAULT_TRIP, "comprehension-axis"


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _subscripted_by(node: ast.AST, names: set[str]) -> list[str]:
    """Arrays subscripted with any of ``names`` inside ``node``."""
    hits: list[str] = []
    for n in ast.walk(node):
        if isinstance(n, ast.Subscript) and _names_in(n.slice) & names:
            base = dotted_name(n.value)
            if base:
                hits.append(base)
    return hits


# --------------------------------------------------------------------------
# rule base
# --------------------------------------------------------------------------

class PerfRule(Rule):
    """Base for PERF rules: fire only inside inferred hot scopes.

    Subclasses implement :meth:`check_perf` yielding
    :class:`PerfFinding`; the plain :meth:`check` view (used by the
    generic engine, should anyone select a PERF rule there) strips the
    metadata.
    """

    severity = Severity.WARNING

    def applies(self, ctx: LintContext) -> bool:
        return (getattr(ctx, "hot", None) is not None
                and not ctx.is_test)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for pf in self.check_perf(ctx):
            yield pf.finding

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        raise NotImplementedError

    # -- helpers shared by the concrete rules -----------------------------

    def _emit(self, ctx: LintContext, node: ast.AST, message: str,
              scope: _PerfScope, trips: int, basis: str,
              local: int | None = None) -> PerfFinding:
        hot = scope.hot
        return PerfFinding(
            finding=ctx.finding(self, node, message),
            function=scope.qualname,
            hot_depth=hot.depth if hot else 0,
            local_depth=(_local_depth(ctx, node) if local is None
                         else local),
            trips=trips, trip_basis=basis,
            multiplicity=hot.multiplicity if hot else 1,
            via=hot.via if hot else (),
            rescue_path=_in_except_handler(ctx, node))

    def _hot_nodes(self, ctx: LintContext, types) -> Iterator[tuple]:
        """(node, scope) for nodes of ``types`` inside hot scopes."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, types):
                continue
            scope = _scope_of(ctx, node)
            if scope.hot is None:
                continue
            yield node, scope

    @staticmethod
    def _in_iterating_context(scope: _PerfScope, local: int) -> bool:
        """Does this site run repeatedly?

        Either it sits inside a loop locally, or its whole scope is a
        callback an iterative consumer (ODE integrator, root finder)
        invokes per step.
        """
        return local >= 1 or scope.is_callback


# --------------------------------------------------------------------------
# the rules
# --------------------------------------------------------------------------

@register
class PerElementLoopRule(PerfRule):
    code = "PERF001"
    name = "per-element-loop"
    severity = Severity.WARNING
    description = ("Python for-loop over range(...) indexing ndarray "
                   "elements on a hot path — a per-cell interpreter "
                   "round-trip per element; replace with a whole-array "
                   "numpy expression.")

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        for node, scope in self._hot_nodes(ctx, ast.For):
            if not (isinstance(node.iter, ast.Call)
                    and call_name(node.iter) == "range"):
                continue
            targets = {n.id for n in ast.walk(node.target)
                       if isinstance(n, ast.Name)}
            arrays = []
            for stmt in node.body:
                arrays += _subscripted_by(stmt, targets)
            if not arrays:
                continue
            uniq = sorted(set(arrays))
            trips, basis = estimate_trips(node.iter)
            yield self._emit(
                ctx, node,
                f"per-element loop indexing {', '.join(uniq[:4])} "
                f"(~{trips} trips) — vectorize over the array axis",
                scope, trips, basis,
                local=_local_depth(ctx, node) + 1)


@register
class ListCompToArrayRule(PerfRule):
    code = "PERF002"
    name = "listcomp-to-array"
    severity = Severity.WARNING
    description = ("Per-cell list comprehension materialised through "
                   "np.array/np.stack/np.concatenate on a hot path — "
                   "builds Python objects per element; use a batched "
                   "call over the axis (e.g. "
                   "repro.numerics.interp_columns).")

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        for node, scope in self._hot_nodes(ctx, ast.Call):
            if call_name(node) not in _NP_FROM_COMP or not node.args:
                continue
            arg = node.args[0]
            if not isinstance(arg, _COMPS):
                continue
            gen = arg.generators[0]
            trips, basis = estimate_trips(gen.iter)
            yield self._emit(
                ctx, node,
                f"{call_name(node)} over a list comprehension "
                f"(~{trips} trips) — replace the per-element loop "
                "with one batched array operation",
                scope, trips, basis,
                local=_local_depth(ctx, node) + len(arg.generators))


@register
class ScalarMathInLoopRule(PerfRule):
    code = "PERF003"
    name = "scalar-math-in-loop"
    severity = Severity.WARNING
    description = ("math.* call or float(...) coercion inside a hot "
                   "loop/per-step callback — forces scalar Python "
                   "round-trips per element; keep the data in arrays "
                   "and use np.* on the whole axis.")

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        for node, scope in self._hot_nodes(ctx, ast.Call):
            fn = call_name(node)
            is_math = fn.startswith("math.")
            is_coerce = (fn == "float" and node.args
                         and isinstance(node.args[0],
                                        (ast.Call, ast.Subscript)))
            if not (is_math or is_coerce):
                continue
            local = _local_depth(ctx, node)
            if not self._in_iterating_context(scope, local):
                continue
            trips, basis = _iterating_trips(ctx, node, scope)
            what = (f"scalar {fn} call" if is_math
                    else "float(...) scalar coercion")
            yield self._emit(
                ctx, node,
                f"{what} in an iterating hot scope (~{trips} "
                "trips) — batch the computation over the array axis",
                scope, trips, basis, local=max(local, 1))


@register
class AllocInLoopRule(PerfRule):
    code = "PERF004"
    name = "alloc-in-loop"
    severity = Severity.WARNING
    description = ("Array allocation (np.zeros/np.empty/.copy()/...) "
                   "inside a stepping loop or per-step callback — "
                   "allocator pressure per iteration; hoist the buffer "
                   "out and reuse it (out=, in-place ops).")

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        for node, scope in self._hot_nodes(ctx, ast.Call):
            fn = call_name(node)
            is_alloc = fn in _NP_ALLOC or fn.endswith(".copy")
            if not is_alloc:
                continue
            local = _local_depth(ctx, node)
            if not self._in_iterating_context(scope, local):
                continue
            trips, basis = _iterating_trips(ctx, node, scope)
            yield self._emit(
                ctx, node,
                f"{fn} allocates inside an iterating hot scope "
                f"(~{trips} trips) — hoist the buffer and reuse it",
                scope, trips, basis, local=max(local, 1))


@register
class ArrayGrowthInLoopRule(PerfRule):
    code = "PERF005"
    name = "array-growth-in-loop"
    severity = Severity.WARNING
    description = ("np.append/np.concatenate/np.vstack inside a loop — "
                   "quadratic copying as the array regrows per "
                   "iteration; preallocate or collect once and "
                   "concatenate after the loop.")

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        for node, scope in self._hot_nodes(ctx, ast.Call):
            if call_name(node) not in _NP_GROW:
                continue
            if node.args and isinstance(node.args[0], _COMPS):
                continue                      # PERF002's pattern
            local = _local_depth(ctx, node)
            if local < 1:
                continue
            loop = _enclosing_loop(ctx, node)
            trips, basis = (estimate_trips(loop.iter)
                            if isinstance(loop, ast.For)
                            else (DEFAULT_TRIP, "while-loop"))
            yield self._emit(
                ctx, node,
                f"{call_name(node)} grows an array inside a loop "
                f"(~{trips} trips, quadratic copying) — preallocate "
                "or concatenate once after the loop",
                scope, trips, basis, local=local)


@register
class LoopInvariantKernelRule(PerfRule):
    code = "PERF006"
    name = "loop-invariant-kernel"
    severity = Severity.WARNING
    description = ("Pure property-kernel call (NASA-7 cp/h/s, mixture "
                   "thermo, transport fits) re-evaluated inside a loop "
                   "with loop-invariant arguments — identical result "
                   "every iteration; hoist it above the loop.")

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        for node, scope in self._hot_nodes(ctx, ast.Call):
            bare = call_name(node).rsplit(".", 1)[-1]
            if bare not in PURE_KERNELS:
                continue
            loop = _enclosing_loop(ctx, node)
            if loop is None:
                continue
            mutated = self._mutated_in(loop) | _loop_vars(ctx, node)
            args = [*node.args, *(kw.value for kw in node.keywords)]
            invariant = all(
                not (_names_in(a) & mutated)
                and not any(isinstance(n, ast.Call) for n in ast.walk(a))
                for a in args)
            # the bound object itself must not be rebound in the loop
            base = call_name(node).split(".", 1)[0]
            if base in mutated or not invariant:
                continue
            trips, basis = (estimate_trips(loop.iter)
                            if isinstance(loop, ast.For)
                            else (DEFAULT_TRIP, "while-loop"))
            yield self._emit(
                ctx, node,
                f"loop-invariant kernel {call_name(node)}(...) "
                f"recomputed ~{trips} times — hoist the call above "
                "the loop",
                scope, trips, basis)

    @staticmethod
    def _mutated_in(loop: ast.AST) -> set[str]:
        out: set[str] = set()
        for n in ast.walk(loop):
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                tgts = (n.targets if isinstance(n, ast.Assign)
                        else [n.target])
                for t in tgts:
                    for nn in ast.walk(t):
                        if isinstance(nn, ast.Name):
                            out.add(nn.id)
            elif isinstance(n, ast.For):
                for nn in ast.walk(n.target):
                    if isinstance(nn, ast.Name):
                        out.add(nn.id)
        return out


@register
class ScalarAccumulationRule(PerfRule):
    code = "PERF007"
    name = "scalar-accumulation"
    severity = Severity.WARNING
    description = ("Python-float accumulation over array elements "
                   "(acc += x[i] in a loop, or sum(... x[i] ...)) — "
                   "per-element interpreter arithmetic; use "
                   "np.sum/np.dot/np.einsum over the axis.")

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        for node, scope in self._hot_nodes(ctx,
                                           (ast.AugAssign, ast.Call)):
            if isinstance(node, ast.AugAssign):
                if not (isinstance(node.op, (ast.Add, ast.Sub))
                        and isinstance(node.target, ast.Name)):
                    continue
                lvars = _loop_vars(ctx, node)
                if not lvars or not _subscripted_by(node.value, lvars):
                    continue
                loop = _enclosing_loop(ctx, node)
                trips, basis = (estimate_trips(loop.iter)
                                if isinstance(loop, ast.For)
                                else (DEFAULT_TRIP, "while-loop"))
                yield self._emit(
                    ctx, node,
                    f"scalar accumulation of array elements into "
                    f"{node.target.id!r} (~{trips} trips) — use "
                    "np.sum/np.dot over the axis",
                    scope, trips, basis)
            else:
                if call_name(node) != "sum" or not node.args:
                    continue
                arg = node.args[0]
                if not isinstance(arg, _COMPS):
                    continue
                gvars = {n.id for gen in arg.generators
                         for n in ast.walk(gen.target)
                         if isinstance(n, ast.Name)}
                if not _subscripted_by(arg.elt, gvars):
                    continue
                trips, basis = estimate_trips(arg.generators[0].iter)
                yield self._emit(
                    ctx, node,
                    f"built-in sum over subscripted elements "
                    f"(~{trips} trips) — use np.sum/np.einsum",
                    scope, trips, basis,
                    local=_local_depth(ctx, node) + len(arg.generators))


@register
class DtypeChurnInLoopRule(PerfRule):
    code = "PERF008"
    name = "dtype-churn-in-loop"
    severity = Severity.WARNING
    description = ("Per-iteration dtype conversion/rewrap (.astype, "
                   "np.asarray(x, dtype=...), np.array(scalar)) inside "
                   "a hot loop or per-step callback — a full copy or "
                   "object round-trip every iteration; convert once "
                   "outside.")

    def check_perf(self, ctx: LintContext) -> Iterator[PerfFinding]:
        for node, scope in self._hot_nodes(ctx, ast.Call):
            fn = call_name(node)
            is_astype = fn.endswith(".astype")
            rewrap = (fn in ("np.asarray", "np.array", "numpy.asarray",
                             "numpy.array")
                      and node.args
                      and isinstance(node.args[0], ast.Name))
            if not (is_astype or rewrap):
                continue
            local = _local_depth(ctx, node)
            if not self._in_iterating_context(scope, local):
                continue
            trips, basis = _iterating_trips(ctx, node, scope)
            what = fn if not is_astype else ".astype"
            yield self._emit(
                ctx, node,
                f"{what} conversion repeated ~{trips} times in an "
                "iterating hot scope — convert once outside the loop",
                scope, trips, basis, local=max(local, 1))


#: The PERF rule view of the global registry.
def perf_rule_codes() -> list[str]:
    from repro.analysis.engine import RULES
    return sorted(code for code in RULES if code.startswith("PERF"))


# --------------------------------------------------------------------------
# the perf engine
# --------------------------------------------------------------------------

def perf_lint_source(source: str, path: str, index: HotPathIndex,
                     select: Iterable[str] | None = None,
                     ) -> list[PerfFinding]:
    """Run the PERF rules over one module with a prebuilt hot index."""
    from repro.analysis.engine import RULES
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    ctx = LintContext(path, source, tree)
    ctx.hot = index                       # type: ignore[attr-defined]
    pragmas = PragmaIndex.from_source(source)
    selected = set(select) if select is not None else None
    out: list[PerfFinding] = []
    for code in perf_rule_codes():
        rule = RULES[code]
        if selected is not None and code not in selected:
            continue
        if not rule.applies(ctx):
            continue
        for pf in rule.check_perf(ctx):
            if not pragmas.disabled(pf.finding.rule, pf.finding.line):
                out.append(pf)
    out.sort(key=lambda pf: (pf.finding.path, pf.finding.line,
                             pf.finding.col, pf.finding.rule))
    return out


def perf_lint_paths(paths: Iterable[str],
                    select: Iterable[str] | None = None,
                    anchor=default_anchor) -> list[PerfFinding]:
    """Build the call graph + hot index over ``paths``, run PERF rules.

    The whole path set feeds the graph (benchmarks anchor kernels even
    though PERF rules skip test files), then every non-test module is
    linted against the shared index.
    """
    sources: dict[str, str] = {}
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                sources[path] = fh.read()
        except (OSError, UnicodeDecodeError):
            continue
    graph = CallGraph()
    for path, source in sources.items():
        CallGraph.from_source(source, path=path, graph=graph)
    index = HotPathIndex.build(graph, anchor=anchor)
    findings: list[PerfFinding] = []
    for path, source in sources.items():
        findings.extend(perf_lint_source(source, path, index,
                                         select=select))
    return findings


def rank_worklist(findings: list[PerfFinding]) -> list[PerfFinding]:
    """Stable score-descending ranking (ties: path/line order)."""
    return sorted(findings,
                  key=lambda pf: (-pf.score, pf.finding.path,
                                  pf.finding.line, pf.finding.rule))
