"""Forward-backward abstract analysis of the synthesis template's unknowns.

PINS enumerates a finite candidate family per hole and asks SAT/SMT about
every combination the CDCL loop proposes.  Following Yoon-Lee-Yi
("Inductive Program Synthesis via Iterative Forward-Backward Abstract
Interpretation"), this module derives *necessary conditions on the
unknowns themselves*:

* :func:`analyze_unknowns` — the static pass.  A
  :class:`~repro.analysis.absint.ForwardAnalyzer` run over the forward
  program ``P`` yields abstract facts at the template boundary (the
  inverse's inputs are ``P``'s outputs); a per-site
  :class:`~repro.analysis.absint.BackwardAnalyzer` walk from the identity
  spec back through the template yields the *necessary* abstract value of
  every hole's target; each hole evaluates as the abstract join over its
  still-feasible candidates, and a candidate whose transfer cannot meet
  the necessary condition is refuted.  The two directions are iterated to
  a fixpoint, and pairs of candidates at distinct holes are refined
  against each other (fixing one hole's candidate and re-running the
  forward pass), producing a per-hole feasible set plus refuted
  (hole, candidate) units and pairs.  It is a lint and CLI tool
  (:func:`repro.analysis.lint.lint_unknowns`, ``python -m repro.analysis
  unknowns``), not part of ``run_pins``: on the suite's permissive
  templates it refutes nothing.

* :func:`fold_goal` — backward symbolic composition of a constraint's SSA
  definitions into linear forms (:mod:`repro.analysis.fold`), deciding
  goals like ``rank^V < rank^0`` without the solver whenever the rank
  delta folds to a constant.  The checker's linear screen
  (:meth:`repro.pins.checker.ConstraintChecker.fwdbwd_screen`) uses it.

Soundness: unit/pair refutations are only emitted for holes assigned at
*top-level* template sites (executed on every run), where "every value the
candidate can produce lies outside the necessary set" proves every
execution under that choice misses the spec; linear folds hold for all
valuations of their bases.

The linear screen sits behind the standard switch cascade: explicit
override, else ``REPRO_FWDBWD``, else follow the absint switch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..lang import ast
from ..lang.ast import Assign, Expr, GIf, GWhile, Pred, Seq, Sort, Stmt
from .absint import (AbsEnv, BackwardAnalyzer, ForwardAnalyzer, absint_enabled,
                     eval_expr, refine_expr, refine_pred)
from .domains import AbsVal

ENV_FLAG = "REPRO_FWDBWD"


def fwdbwd_enabled(override: Optional[bool] = None,
                   absint: Optional[bool] = None) -> bool:
    """Resolve the fwdbwd switch: explicit override, else the
    ``REPRO_FWDBWD`` env var, else follow the absint switch (``absint``
    may be an already-resolved boolean or None to re-resolve)."""
    if override is not None:
        return override
    raw = os.environ.get(ENV_FLAG)
    if raw is not None:
        return raw.strip().lower() not in ("0", "false", "off")
    return absint_enabled(absint)


# ---------------------------------------------------------------------------
# Backward symbolic goal folding (rank deltas and friends)
# ---------------------------------------------------------------------------


def fold_goal(items: Sequence[object], ground_goal: Pred,
              expr_map: Mapping[str, Expr]) -> Optional[bool]:
    """Three-valued truth of ``ground_goal`` under the path's definitions.

    Composes the SSA definitions into multi-variable affine forms
    (:mod:`repro.analysis.linear`) over free (version-0 or opaque)
    variables and folds the goal; guards are ignored, so a ``False``
    answer proves the goal unsatisfiable under the path condition for
    *all* inputs — e.g. a ranking delta ``rank^V - rank^0`` whose
    difference folds to a negative constant decides a ``decrease``
    constraint without any solver query, even when the rank mixes
    several variables (``m - mp - 1``).
    """
    from ..lang.transform import substitute_expr
    from ..symexec.paths import Def
    from .linear import Affine, affine_expr, affine_pred

    env: Dict[str, Affine] = {}
    for item in items:
        if isinstance(item, Def):
            aff = affine_expr(substitute_expr(item.expr, expr_map), env)
            if aff is not None:
                env[item.versioned_var] = aff
    return affine_pred(ground_goal, env)


# ---------------------------------------------------------------------------
# The static unknowns analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Refutation:
    """One statically refuted candidate."""

    hole: str
    index: int
    candidate: str
    reason: str

    def __str__(self) -> str:
        return f"{self.hole}[{self.index}] = {self.candidate}: {self.reason}"


@dataclass(frozen=True)
class PairRefutation:
    """A refuted conjunction of two candidates at distinct holes."""

    first: Tuple[str, int]
    second: Tuple[str, int]
    reason: str

    def __str__(self) -> str:
        return (f"({self.first[0]}[{self.first[1]}], "
                f"{self.second[0]}[{self.second[1]}]): {self.reason}")


@dataclass
class FeasibleSet:
    """Per-hole surviving candidate indices after the static pass."""

    hole: str
    kind: str  # 'expr' | 'pred'
    total: int
    feasible: Tuple[int, ...]
    refuted: Tuple[Refutation, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.feasible


@dataclass
class FwdBwdReport:
    """Per-hole feasible sets and refutations from one analysis run."""

    program: str
    iterations: int
    boundary: str
    feasible: Dict[str, FeasibleSet] = field(default_factory=dict)
    pairs: Tuple[PairRefutation, ...] = ()

    @property
    def units_refuted(self) -> int:
        return sum(len(fs.refuted) for fs in self.feasible.values())

    def empty_holes(self) -> List[str]:
        return sorted(fs.hole for fs in self.feasible.values() if fs.empty)

    def describe(self) -> str:
        lines = [f"{self.program}: boundary {self.boundary} "
                 f"({self.iterations} fwd/bwd round(s))"]
        for name in sorted(self.feasible):
            fs = self.feasible[name]
            status = "EMPTY" if fs.empty else f"{len(fs.feasible)}/{fs.total}"
            lines.append(f"  {name} ({fs.kind}): {status} feasible")
            for r in fs.refuted:
                lines.append(f"    refuted [{r.index}] {r.candidate}: {r.reason}")
        for p in self.pairs:
            lines.append(f"  pair refuted: {p}")
        if not any(fs.refuted for fs in self.feasible.values()) and not self.pairs:
            lines.append("  (no candidate statically refuted)")
        return "\n".join(lines)


class _SiteForward(ForwardAnalyzer):
    """Forward pass over the template: holes evaluate as the join over
    their feasible candidates, and the abstract state flowing into every
    hole-bearing statement is recorded (joined across visits)."""

    def __init__(self, sorts: Mapping[str, Sort], hole_eval,
                 unroll_fuel: int = 0):
        super().__init__(sorts, unroll_fuel=unroll_fuel)
        self.hole_eval = hole_eval  # fn(name, env) -> Optional[AbsVal]
        self.site_envs: Dict[int, AbsEnv] = {}

    def _note_site(self, s: Stmt, env: AbsEnv) -> None:
        if env.bottom:
            return
        prev = self.site_envs.get(id(s))
        self.site_envs[id(s)] = env if prev is None else prev.join(env)

    def _stmt(self, s: Stmt, env: AbsEnv) -> AbsEnv:
        if env.bottom:
            return env
        if isinstance(s, Assign):
            if any(isinstance(e, ast.Unknown) for e in s.exprs):
                self._note_site(s, env)
            vals = []
            for e in s.exprs:
                v = None
                if isinstance(e, ast.Unknown):
                    v = self.hole_eval(e.name, env)
                vals.append(v if v is not None else eval_expr(e, env))
            for t, v in zip(s.targets, vals):
                env = env.set(t, v)
            return env
        if isinstance(s, (GWhile, GIf)) and ast.expr_unknowns(s.cond):
            self._note_site(s, env)
        return super()._stmt(s, env)


class _SiteBackward(BackwardAnalyzer):
    """Backward pass recording the necessary post-state at every
    assignment (joined across paths that reach it)."""

    def __init__(self, sorts: Mapping[str, Sort]):
        super().__init__(sorts)
        self.sites: Dict[int, AbsEnv] = {}

    def _bwd(self, s: Stmt, post: Optional[AbsEnv]) -> Optional[AbsEnv]:
        if isinstance(s, Assign) and post is not None:
            prev = self.sites.get(id(s))
            self.sites[id(s)] = post if prev is None else prev.join(post)
        return super()._bwd(s, post)


def _top_level_stmts(body: Stmt) -> Set[int]:
    """ids of statements executed unconditionally on every template run
    (reachable without entering a loop or conditional body)."""
    out: Set[int] = set()
    stack = [body]
    while stack:
        s = stack.pop()
        out.add(id(s))
        if isinstance(s, Seq):
            stack.extend(s.stmts)
    return out


def _hole_sites(body: Stmt) -> List[Tuple[Stmt, str, str, bool]]:
    """(stmt, hole_name, target_var, is_expr) for each hole occurrence
    that is a whole-RHS expression hole or a guard predicate hole."""
    sites: List[Tuple[Stmt, str, str, bool]] = []
    for stmt in ast.walk_stmts(body):
        if isinstance(stmt, Assign):
            for target, e in zip(stmt.targets, stmt.exprs):
                if isinstance(e, ast.Unknown):
                    sites.append((stmt, e.name, target, True))
        elif isinstance(stmt, (GIf, GWhile)):
            if isinstance(stmt.cond, ast.UnknownPred):
                sites.append((stmt, stmt.cond.name, "", False))
    return sites


def analyze_unknowns(program: ast.Program, inverse: ast.Program,
                     space, spec, sorts: Mapping[str, Sort],
                     max_rounds: int = 4) -> FwdBwdReport:
    """The iterative forward-backward unknowns analysis.

    ``space`` is the (possibly pruned) :class:`HoleSpace` whose candidate
    indices the refutations refer to; ``spec`` the
    :class:`~repro.pins.spec.InversionSpec` providing the identity
    postcondition; ``sorts`` the composed program's declarations.
    """
    expr_cands: Dict[str, Tuple[Expr, ...]] = dict(space.expr_holes)
    pred_cands: Dict[str, Tuple[Pred, ...]] = dict(space.pred_holes)

    # Forward facts at the template boundary: P's outputs are T's inputs.
    fwd_p = ForwardAnalyzer(sorts, unroll_fuel=0).run(program.body).final
    boundary = AbsEnv(sorts)
    for name in inverse.decls:
        val = fwd_p.get(name)
        if not val.is_top:
            boundary = boundary.set(name, val)

    # Necessary exit facts from the identity spec: each recovered scalar
    # must match the abstract value its forward counterpart can take.
    post = AbsEnv(sorts)
    for fwd_var, inv_var in spec.scalar_pairs:
        val = fwd_p.get(fwd_var)
        if not val.is_top:
            post = post.set(inv_var, val)

    sites = _hole_sites(inverse.body)
    top_level = _top_level_stmts(inverse.body)
    feasible: Dict[str, List[int]] = {}
    refuted: Dict[str, List[Refutation]] = {}
    for name, cands in expr_cands.items():
        feasible[name] = list(range(len(cands)))
        refuted[name] = []
    for name, cands in pred_cands.items():
        feasible[name] = list(range(len(cands)))
        refuted[name] = []

    def hole_eval(name: str, env: AbsEnv) -> Optional[AbsVal]:
        cands = expr_cands.get(name)
        if cands is None:
            return None
        live = feasible.get(name, ())
        if not live:
            return AbsVal.BOT
        out = AbsVal.BOT
        for i in live:
            out = out.join(eval_expr(cands[i], env))
            if out.is_top:
                break
        return out

    def run_passes(pinned: Optional[Tuple[str, Expr]] = None
                   ) -> Tuple[Dict[int, AbsEnv], Dict[int, AbsEnv]]:
        def pinned_eval(name: str, env: AbsEnv) -> Optional[AbsVal]:
            if pinned is not None and name == pinned[0]:
                return eval_expr(pinned[1], env)
            return hole_eval(name, env)

        fwd = _SiteForward(sorts, pinned_eval)
        fwd.run(inverse.body, boundary.copy())
        bwd = _SiteBackward(sorts)
        bwd.run(inverse.body, post.copy())
        return fwd.site_envs, bwd.sites

    def refute_at(stmt: Stmt, hole: str, target: str,
                  fwd_envs: Dict[int, AbsEnv], bwd_envs: Dict[int, AbsEnv],
                  sink) -> None:
        """Test each live candidate of ``hole`` against the meet of the
        forward state at its site and the backward-necessary value of its
        target; refuted indices go to ``sink(index, reason)``."""
        pre = fwd_envs.get(id(stmt))
        need = bwd_envs.get(id(stmt))
        if pre is None or need is None:
            return
        required = need.get(target)
        if required.is_top:
            return
        for i in list(feasible[hole]):
            cand = expr_cands[hole][i]
            val = eval_expr(cand, pre)
            if val.meet(required).is_bottom:
                sink(i, f"produces {val}, but {required} is necessary")
            elif refine_expr(cand, pre, required) is None:
                sink(i, f"no state at the site lets it reach {required}")

    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1
        fwd_envs, bwd_envs = run_passes()
        for stmt, hole, target, is_expr in sites:
            if id(stmt) not in top_level:
                continue
            if is_expr:
                def unit_sink(i: int, reason: str, hole=hole) -> None:
                    nonlocal changed
                    feasible[hole].remove(i)
                    refuted[hole].append(Refutation(
                        hole, i, str(expr_cands[hole][i]), reason))
                    changed = True
                refute_at(stmt, hole, target, fwd_envs, bwd_envs, unit_sink)
            else:
                # Guard candidates that can never be true in any state
                # reaching the site are degenerate (loop never entered /
                # branch dead).  Reported, never turned into clauses: a
                # degenerate guard is suspicious, not spec-violating.
                pre = fwd_envs.get(id(stmt))
                if pre is None:
                    continue
                for i in list(feasible[hole]):
                    cand = pred_cands[hole][i]
                    if refine_pred(cand, pre) is None:
                        feasible[hole].remove(i)
                        refuted[hole].append(Refutation(
                            hole, i, str(cand),
                            "conjunct false in every state arriving at the "
                            "guard (degenerate: the body never runs)"))
                        changed = True

    # Pairwise refinement: pin one top-level hole's candidate, re-run the
    # forward pass, and see which candidates at *other* top-level holes
    # become infeasible only under that choice.
    pairs: List[PairRefutation] = []
    expr_sites = [(stmt, hole, target) for stmt, hole, target, is_expr in sites
                  if is_expr and id(stmt) in top_level and hole in expr_cands]
    for stmt_a, hole_a, _target_a in expr_sites:
        for i in feasible[hole_a]:
            fwd_envs, bwd_envs = run_passes(
                pinned=(hole_a, expr_cands[hole_a][i]))
            for stmt_b, hole_b, target_b in expr_sites:
                if hole_b == hole_a:
                    continue

                def pair_sink(j: int, reason: str,
                              hole_a=hole_a, i=i, hole_b=hole_b) -> None:
                    if j not in feasible[hole_b]:
                        return  # already refuted unconditionally
                    key = ((hole_a, i), (hole_b, j))
                    if all(p.first != key[0] or p.second != key[1]
                           for p in pairs):
                        pairs.append(PairRefutation(
                            key[0], key[1],
                            f"under {hole_a}={expr_cands[hole_a][i]}: "
                            f"{reason}"))
                refute_at(stmt_b, hole_b, target_b, fwd_envs, bwd_envs,
                          pair_sink)

    report = FwdBwdReport(
        program=inverse.name,
        iterations=rounds,
        boundary=str(boundary),
        pairs=tuple(pairs),
    )
    for name, cands in expr_cands.items():
        report.feasible[name] = FeasibleSet(
            name, "expr", len(cands), tuple(feasible[name]),
            tuple(refuted[name]))
    for name, cands in pred_cands.items():
        report.feasible[name] = FeasibleSet(
            name, "pred", len(cands), tuple(feasible[name]),
            tuple(refuted[name]))
    return report
