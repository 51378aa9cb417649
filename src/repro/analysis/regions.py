"""Loop-bound and path-count analysis over the Fig. 2 IR.

Static facts per task, computed from the desugared composed program
``P ; P⁻¹`` before any solver work:

* **Loop bounds** — for every loop with a ground comparison guard, a
  ranking expression derived from the guard (``i < n`` → ``n - i - 1``)
  whose per-iteration decrease is verified by composing the loop body's
  SSA definitions into exact-integer :class:`~repro.analysis.linear.Affine`
  forms.  A verified constant decrease certifies the loop terminates and
  bounds its trip count symbolically (``⌈(rank₀+1)/d⌉``).

* **Path counts** — :func:`path_count` counts the syntactic paths of the
  composed program at the task's unroll bound.

* **Value ranges** — :func:`value_ranges_from_axioms` recovers per-array
  cell ranges from the task's input range axioms; the constraint checker
  uses them to complete array witnesses with in-range default cells.

Consumers (DESIGN.md §15): :func:`inferred_path_budget` turns the path
count into a ``paths=`` bench budget when the hand profile has none.
Because the symbolic executor returns each syntactic path at most once,
the inferred budget can never fire — it is a pure safety net, and hand
values stay as overrides (linted by :func:`lint_profile_budget` when
they exceed the ceiling).  ``python -m repro.analysis regions`` prints
the whole report.  No pass here runs inside ``run_pins``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..lang import ast
from ..lang.ast import Assign, Assume, Expr, Sort, Stmt, While
from ..lang.transform import version_expr
from .diagnostics import WARNING, Diagnostic
from .linear import Affine, affine_expr

STALE_PROFILE_BUDGET = "stale-profile-budget"
"""Diagnostic code: a hand-tuned ``paths=`` bench budget exceeds the
statically inferred syntactic path ceiling, so it can never fire."""

PATH_COUNT_CAP = 100_000
"""Largest syntactic path count worth writing into a ``paths=`` budget;
counts above it are still reported by the analysis but not inferred as
budgets (a never-firing limit that large is pure noise)."""


@dataclass
class LoopBound:
    """A symbolic iteration bound for one loop."""

    loop_id: str
    guard: str
    rank: Optional[Expr] = None
    decrease: int = 0
    bounded: bool = False

    def describe(self) -> str:
        if not self.bounded:
            return f"{self.loop_id}: guard {self.guard}, no static bound"
        step = "" if self.decrease == 1 else f" / {self.decrease}"
        return (f"{self.loop_id}: guard {self.guard}, rank {self.rank} "
                f"(≤ {self.rank} + 1{step} iterations)")


@dataclass
class RegionReport:
    """Loop bounds, path count and value ranges of one task."""

    name: str
    loops: List[LoopBound] = field(default_factory=list)
    path_count: Optional[int] = None
    max_unroll: int = 0
    value_ranges: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    """Array cell-value ranges ``name -> (lo, hi)`` recovered from the
    task's input range axioms (``lo <= a[k] < hi``)."""

    def bounded_loops(self) -> int:
        return sum(1 for lb in self.loops if lb.bounded)

    def describe(self) -> str:
        lines = [f"{self.name}: {len(self.loops)} loop(s), "
                 f"{self.bounded_loops()} bounded, "
                 f"paths(unroll={self.max_unroll}) = "
                 f"{self.path_count if self.path_count is not None else '?'}"]
        for lb in self.loops:
            lines.append(f"  loop {lb.describe()}")
        for name in sorted(self.value_ranges):
            lo, hi = self.value_ranges[name]
            lines.append(f"  range {name}[k] in [{lo}, {hi})")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path_count": self.path_count,
            "max_unroll": self.max_unroll,
            "loops": [{"loop_id": lb.loop_id, "guard": lb.guard,
                       "rank": str(lb.rank) if lb.rank is not None else None,
                       "decrease": lb.decrease, "bounded": lb.bounded}
                      for lb in self.loops],
            "value_ranges": {name: list(rng) for name, rng
                             in sorted(self.value_ranges.items())},
        }


# ---------------------------------------------------------------------------
# Loop bounds (guard-derived ranking + affine decrease check)
# ---------------------------------------------------------------------------


def _path_deltas(rank: Expr, body: Stmt,
                 sorts: Mapping[str, Sort]) -> Optional[List[int]]:
    """Per-path constant deltas of ``rank`` over ``body`` at unroll 0.

    Composes each unroll-0 body path's SSA definitions into affine forms
    and folds ``rank^final - rank^0`` to a constant; None when any path
    fails to fold.  Nested loops are skipped at unroll 0, so their
    bodies must not be able to *increase* the rank — checked by
    recursively requiring every inner-body path delta to be a constant
    ``<= 0`` (an inner loop that only drives the rank further down, like
    the run-scanning loop in runlength, keeps the outer fold sound).
    An unfoldable definition leaves its SSA name symbolic, which keeps
    the overall fold conservative.
    """
    from ..symexec.executor import enumerate_paths, loops_of
    from ..symexec.paths import Def

    def is_int(name: str) -> bool:
        return sorts.get(name.rsplit("#", 1)[0]) is Sort.INT

    def fold(e: Expr, env: Mapping[str, Affine]) -> Optional[Affine]:
        return affine_expr(e, env, is_int=is_int)

    rank_vars = ast.expr_vars(rank)
    for inner in loops_of(body):
        if rank_vars & ast.assigned_vars(inner.body):
            inner_deltas = _path_deltas(rank, inner.body, sorts)
            if inner_deltas is None or any(d > 0 for d in inner_deltas):
                return None
    vars_all = sorted(rank_vars | ast.assigned_vars(body))
    vmap0 = {name: 0 for name in vars_all}
    deltas: List[int] = []
    try:
        paths = list(enumerate_paths(body, max_unroll=0, limit=64,
                                     initial_vmap=vmap0))
    except TypeError:
        return None
    if not paths:
        return None
    for path in paths:
        env: Dict[str, Affine] = {f"{name}#0": Affine.of_var(f"{name}#0")
                                  for name in vars_all if is_int(name)}
        for item in path.items:
            if not isinstance(item, Def):
                continue
            val = fold(item.expr, env)
            if val is not None:
                env[item.versioned_var] = val
        vmap = dict(path.final_vmap)
        r0 = fold(version_expr(rank, {n: 0 for n in vars_all}), env)
        rf = fold(version_expr(rank, vmap), env)
        if r0 is None or rf is None:
            return None
        delta = rf - r0
        if delta.terms:
            return None
        deltas.append(delta.const)
    return deltas


def _body_decrease(rank: Expr, body: Stmt,
                   sorts: Mapping[str, Sort]) -> Optional[int]:
    """The guaranteed per-iteration decrease of ``rank`` over ``body``:
    the minimum of :func:`_path_deltas`' magnitudes when every path
    strictly decreases, else None."""
    deltas = _path_deltas(rank, body, sorts)
    if deltas is None or any(d >= 0 for d in deltas):
        return None
    return min(-d for d in deltas)


def loop_bounds(body: Stmt, sorts: Mapping[str, Sort]) -> List[LoopBound]:
    """Ranking-function bounds for every ground-guard loop in ``body``."""
    from ..pins.termination import derive_ranking_candidates
    from ..symexec.executor import loop_guard_and_body, loops_of

    bounds: List[LoopBound] = []
    for loop in loops_of(body):
        try:
            guard, rest = loop_guard_and_body(loop)
        except ValueError:
            bounds.append(LoopBound(loop.loop_id, guard="<unstructured>"))
            continue
        bound = LoopBound(loop.loop_id, guard=str(guard))
        if not ast.expr_unknowns(guard):
            for rank in derive_ranking_candidates([guard]):
                step = _body_decrease(rank, rest, sorts)
                if step is not None:
                    bound.rank = rank
                    bound.decrease = step
                    bound.bounded = True
                    break
        bounds.append(bound)
    return bounds


# ---------------------------------------------------------------------------
# Value ranges from input axioms
# ---------------------------------------------------------------------------


def value_ranges_from_axioms(axioms: Iterable[object]
                             ) -> Dict[str, Tuple[int, int]]:
    """Recover per-array cell ranges from range-axiom bodies.

    Matches the :func:`repro.suite.common.array_range_axiom` shape —
    ``lo <= sel(A#0, ?k)`` and ``sel(A#0, ?k) < hi`` conjuncts over a
    quantified index — and maps the version-stripped array name to
    ``(lo, hi)``.
    """
    from ..smt.terms import Op
    from ..smt.terms import subterms as term_subterms

    ranges: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
    for ax in axioms:
        variables = getattr(ax, "variables", ())
        body = getattr(ax, "body", None)
        if body is None:
            continue
        qvars = set(variables)

        def cell_of(t: object) -> Optional[str]:
            if (getattr(t, "op", None) is Op.SELECT
                    and t.args[0].op is Op.VAR and t.args[1] in qvars):
                return str(t.args[0].payload).split("#", 1)[0]
            return None

        def cell_plus_const(t: object) -> Optional[Tuple[str, int]]:
            """Match ``cell`` or ``cell + c`` (``mk_lt`` desugars the
            strict upper bound to ``LE(ADD(cell, 1), hi)``)."""
            name = cell_of(t)
            if name is not None:
                return name, 0
            if getattr(t, "op", None) is Op.ADD and len(t.args) == 2:
                for cell_arg, const_arg in (t.args, t.args[::-1]):
                    if const_arg.op is Op.INT_CONST:
                        name = cell_of(cell_arg)
                        if name is not None:
                            return name, int(const_arg.payload)
            return None

        for t in term_subterms(body):
            if getattr(t, "op", None) is not Op.LE:
                continue
            if t.args[0].op is Op.INT_CONST:
                name = cell_of(t.args[1])
                if name is not None:
                    lo, hi = ranges.get(name, (None, None))
                    c = int(t.args[0].payload)
                    ranges[name] = (c if lo is None else max(lo, c), hi)
            elif t.args[1].op is Op.INT_CONST:
                matched = cell_plus_const(t.args[0])
                if matched is not None:
                    name, offset = matched
                    lo, hi = ranges.get(name, (None, None))
                    # cell + offset <= h  ==>  cell < h - offset + 1
                    c = int(t.args[1].payload) - offset + 1
                    ranges[name] = (lo, c if hi is None else min(hi, c))
    return {name: (lo, hi) for name, (lo, hi) in ranges.items()
            if lo is not None and hi is not None and lo < hi}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def path_count(body: Stmt, max_unroll: int) -> Optional[int]:
    """Exact syntactic path count at ``max_unroll``.

    Mirrors :func:`repro.symexec.executor.enumerate_paths`' control flow
    (per-``loop_id`` unroll counters persist along a path, ``If``
    branches fork, ``Exit`` completes a path) but carries no SSA items
    and memoizes on the continuation stack, so counts that would take
    exponential enumeration come back in milliseconds.  None when the
    body contains statements the enumerator cannot walk.
    """
    from ..lang.ast import Exit, If, In, Out, Seq, Skip

    memo: Dict[Tuple[Tuple[int, ...], Tuple[Tuple[str, int], ...]], int] = {}

    def walk(cont: List[Stmt],
             unrolls: Tuple[Tuple[str, int], ...]) -> int:
        key = (tuple(id(s) for s in cont), unrolls)
        hit = memo.get(key)
        if hit is not None:
            return hit
        count = _walk(list(cont), unrolls)
        memo[key] = count
        return count

    def _walk(cont: List[Stmt],
              unrolls: Tuple[Tuple[str, int], ...]) -> int:
        while cont:
            s = cont.pop()
            if isinstance(s, Seq):
                cont.extend(reversed(s.stmts))
            elif isinstance(s, If):
                return (walk(cont + [s.then], unrolls)
                        + walk(cont + [s.els], unrolls))
            elif isinstance(s, While):
                taken = dict(unrolls).get(s.loop_id, 0)
                total = walk(cont, unrolls)
                if taken < max_unroll:
                    bumped = tuple(sorted(
                        {**dict(unrolls), s.loop_id: taken + 1}.items()))
                    total += walk(cont + [s, s.body], bumped)
                return total
            elif isinstance(s, Exit):
                return 1
            elif isinstance(s, (Assign, Assume, In, Out, Skip)):
                continue
            else:
                raise TypeError(f"cannot count through {s!r}")
        return 1

    try:
        return walk([body], ())
    except TypeError:
        return None


def analyze_regions(body: Stmt, decls: Mapping[str, Sort],
                    max_unroll: int = 0, name: str = "",
                    axioms: Iterable[object] = ()) -> RegionReport:
    """The full loop-bound/path-count analysis of one desugared body."""
    return RegionReport(
        name=name,
        loops=loop_bounds(body, decls),
        path_count=path_count(body, max_unroll),
        max_unroll=max_unroll,
        value_ranges=value_ranges_from_axioms(axioms),
    )


def analyze_task(task: object, name: str = "") -> RegionReport:
    """Region report for a :class:`repro.pins.task.SynthesisTask`."""
    from ..lang.transform import compose, desugar_program

    desugared = desugar_program(compose(task.program, task.inverse))
    return analyze_regions(
        desugared.body, desugared.decls,
        max_unroll=task.max_unroll,
        name=name or task.name,
        axioms=tuple(task.axioms) + tuple(task.input_axioms),
    )


def inferred_path_budget(name: str) -> Optional[int]:
    """Syntactic path ceiling of a registered suite program.

    The symbolic executor returns each syntactic path at most once per
    run, so a ``paths=`` budget at exactly this count is unreachable —
    appending it to a hand budget can never change a trajectory.
    """
    from ..lang.transform import compose, desugar_program
    from ..suite import get_benchmark

    task = get_benchmark(name).task
    desugared = desugar_program(compose(task.program, task.inverse))
    return path_count(desugared.body, task.max_unroll)


# ---------------------------------------------------------------------------
# The stale-profile-budget suitelint rule
# ---------------------------------------------------------------------------


def lint_profile_budget(name: str, budget_spec: Optional[str]
                        ) -> List[Diagnostic]:
    """Flag hand ``paths=`` bench budgets above the inferred ceiling.

    A path budget larger than the syntactic path count can never fire
    (the executor returns each syntactic path at most once), so it is a
    dead knob — either stale after a program edit or mistuned.
    """
    if not budget_spec or "paths" not in budget_spec:
        return []
    hand: Optional[int] = None
    for part in budget_spec.split(";"):
        key, _, raw = part.partition("=")
        if key.strip().lower() in ("paths", "symexec_paths"):
            try:
                hand = int(raw.strip())
            except ValueError:
                return []
    if hand is None:
        return []
    ceiling = inferred_path_budget(name)
    if ceiling is None or hand <= ceiling:
        return []
    return [Diagnostic(
        code=STALE_PROFILE_BUDGET,
        severity=WARNING,
        message=(f"profile budget paths={hand} exceeds the inferred "
                 f"syntactic ceiling {ceiling} and can never fire"),
        program=name,
    )]

