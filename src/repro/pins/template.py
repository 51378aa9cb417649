"""Synthesis templates, hole spaces, and solutions.

A synthesis template is the paper's triple ``(P, Phi_e, Phi_p)``: a
program with unknowns plus the candidate sets the unknowns range over.
Expression holes take exactly one candidate from ``Phi_e``; predicate
holes take a *subset* of ``Phi_p``, denoting conjunction (the paper notes
the search space is counted this way, e.g. ``117 * 2^30`` for run-length).

A :class:`Solution` is a total assignment of candidates to holes; its
``key`` is canonical, so solutions are hashable and comparable across
iterations (stabilization check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..lang import ast
from ..lang.ast import Expr, Pred, Program
from ..lang.transform import substitute_stmt


@dataclass(frozen=True)
class HoleSpace:
    """The finite candidate space for every hole in a template."""

    expr_holes: Tuple[Tuple[str, Tuple[Expr, ...]], ...]
    pred_holes: Tuple[Tuple[str, Tuple[Pred, ...]], ...]
    rank_holes: Tuple[Tuple[str, Tuple[Expr, ...]], ...] = ()
    max_pred_conj: int = 2

    @staticmethod
    def build(template_body: ast.Stmt,
              phi_e: Sequence[Expr], phi_p: Sequence[Pred],
              rank_holes: Mapping[str, Sequence[Expr]] = (),
              expr_overrides: Mapping[str, Sequence[Expr]] = (),
              pred_overrides: Mapping[str, Sequence[Pred]] = (),
              max_pred_conj: int = 2,
              decls: Optional[Mapping[str, ast.Sort]] = None,
              extern_sorts: Optional[Mapping[str, ast.Sort]] = None,
              ) -> "HoleSpace":
        """Discover holes in a template body and attach candidate sets.

        When ``decls`` is given, each expression hole standing for an
        assignment to variable ``x`` only receives candidates whose sort
        matches ``x`` (the paper's templates are implicitly well-sorted;
        filtering also shrinks the search space honestly).
        """
        from ..analysis.sorts import candidate_fits

        expr_overrides = dict(expr_overrides or {})
        pred_overrides = dict(pred_overrides or {})
        expr_names: list = []
        target_sort: Dict[str, ast.Sort] = {}
        pred_names: list = []
        for stmt in ast.walk_stmts(template_body):
            if isinstance(stmt, ast.Assign):
                for target, e in zip(stmt.targets, stmt.exprs):
                    for node in ast.walk_exprs(e):
                        if isinstance(node, ast.Unknown) and node.name not in expr_names:
                            expr_names.append(node.name)
                            if e is node and decls is not None and target in decls:
                                target_sort[node.name] = decls[target]
            preds = []
            if isinstance(stmt, ast.Assume):
                preds.append(stmt.pred)
            elif isinstance(stmt, (ast.GIf, ast.GWhile)):
                preds.append(stmt.cond)
            for p in preds:
                for node in ast.walk_exprs(p):
                    if isinstance(node, ast.UnknownPred) and node.name not in pred_names:
                        pred_names.append(node.name)
                    if isinstance(node, ast.Unknown) and node.name not in expr_names:
                        expr_names.append(node.name)

        def fits(name: str, cand: Expr) -> bool:
            if decls is None or name not in target_sort:
                return True
            return candidate_fits(cand, target_sort[name], decls, extern_sorts)

        expr_holes = []
        for name in expr_names:
            cands = tuple(c for c in expr_overrides.get(name, phi_e) if fits(name, c))
            expr_holes.append((name, cands))
        return HoleSpace(
            expr_holes=tuple(expr_holes),
            pred_holes=tuple(
                (name, tuple(pred_overrides.get(name, phi_p))) for name in pred_names
            ),
            rank_holes=tuple((name, tuple(cands)) for name, cands in dict(rank_holes or {}).items()),
            max_pred_conj=max_pred_conj,
        )

    def with_rank_holes(self, rank_holes: Mapping[str, Sequence[Expr]],
                        invariant_holes: Mapping[str, Sequence[Pred]] = (),
                        ) -> "HoleSpace":
        """Attach ranking-function and loop-invariant holes."""
        extra_preds = tuple(
            (name, tuple(cands)) for name, cands in dict(invariant_holes or {}).items()
        )
        return HoleSpace(
            self.expr_holes,
            self.pred_holes + extra_preds,
            tuple((name, tuple(cands)) for name, cands in rank_holes.items()),
            self.max_pred_conj,
        )

    # -- size accounting (Table 2's "search space" column) ---------------------

    def pred_subset_count(self, n: int) -> int:
        if self.max_pred_conj is None or self.max_pred_conj >= n:
            return 2 ** n
        return sum(math.comb(n, k) for k in range(self.max_pred_conj + 1))

    def size(self, include_auxiliary: bool = False) -> int:
        """Template-instantiation count (Table 2's search-space column).

        Auxiliary holes (ranking functions ``rank!*`` and invariants
        ``inv!*``) are excluded by default: they do not appear in the
        synthesized program.
        """
        total = 1
        for _, cands in self.expr_holes:
            total *= max(1, len(cands))
        for name, cands in self.pred_holes:
            if not include_auxiliary and name.startswith("inv!"):
                continue
            total *= self.pred_subset_count(len(cands))
        if include_auxiliary:
            for _, cands in self.rank_holes:
                total *= max(1, len(cands))
        return total

    def log2_size(self) -> float:
        return math.log2(max(1, self.size()))


@dataclass(frozen=True)
class Solution:
    """A total assignment of candidates to holes."""

    exprs: Tuple[Tuple[str, Expr], ...]
    preds: Tuple[Tuple[str, Tuple[Pred, ...]], ...]

    @property
    def expr_map(self) -> Dict[str, Expr]:
        return dict(self.exprs)

    @property
    def pred_map(self) -> Dict[str, Tuple[Pred, ...]]:
        return dict(self.preds)

    @property
    def key(self) -> tuple:
        return (self.exprs, self.preds)

    def describe(self) -> str:
        parts = [f"{name} -> {expr}" for name, expr in self.exprs]
        for name, conj in self.preds:
            rhs = " && ".join(str(p) for p in conj) if conj else "true"
            parts.append(f"{name} -> {rhs}")
        return "; ".join(parts)


@dataclass
class SynthesisTemplate:
    """The paper's template triple, with the inverse program attached.

    Construction fails fast (:class:`repro.analysis.AnalysisError`) when
    the template provably cannot write an output variable the identity
    spec requires: no assignment targets it, the forward program never
    produces it, and it is not an input."""

    program: Program
    inverse: Program
    space: HoleSpace
    prune_report: Optional[object] = None
    """Static-pruning accounting from ``build_template`` (None when
    pruning was disabled)."""

    def __post_init__(self) -> None:
        from ..analysis.diagnostics import AnalysisError
        from ..analysis.lint import check_writable_outputs

        entry_defined = (frozenset(self.program.inputs)
                         | ast.assigned_vars(self.program.body))
        diags = check_writable_outputs(self.inverse, entry_defined)
        if diags:
            raise AnalysisError(diags)

    def instantiate(self, solution: Solution) -> Program:
        """Apply a solution to the inverse template (guarded form intact)."""
        body = substitute_stmt(self.inverse.body, solution.expr_map, solution.pred_map)
        residual = ast.stmt_unknowns(body)
        if residual:
            raise ValueError(f"solution leaves holes unfilled: {sorted(residual)}")
        return self.inverse.with_body(body)
