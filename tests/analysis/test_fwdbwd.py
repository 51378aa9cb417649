"""The forward-backward unknowns analysis: switch cascade, goal folding,
and static unit/pair/empty-family refutation on synthetic templates (the
real suite templates are deliberately permissive, so the refutation
paths need constructed cases)."""

import pytest

from repro.analysis.fwdbwd import (
    ENV_FLAG,
    analyze_unknowns,
    fold_goal,
    fwdbwd_enabled,
)
from repro.lang import ast
from repro.lang.ast import Sort, Var
from repro.lang.parser import parse_expr, parse_program
from repro.pins.spec import InversionSpec
from repro.pins.template import HoleSpace
from repro.symexec.paths import Def

INT = Sort.INT

FWD = parse_program("""
program fwd [int n; int s] {
  in(n);
  assume(n >= 0);
  assume(n <= 10);
  s := n + 1;
  out(s);
}
""")

INV_TEMPLATE = parse_program("""
program fwd_inv [int s; int np] {
  np := [e1];
  out(np);
}
""")

SPEC = InversionSpec(scalar_pairs=(("n", "np"),))
SORTS = {"n": INT, "s": INT, "np": INT}


def space_with(cands):
    return HoleSpace(expr_holes=(("e1", tuple(parse_expr(c) for c in cands)),),
                     pred_holes=())


# -- the switch ---------------------------------------------------------------


def test_fwdbwd_enabled_cascade(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    # Follows the absint switch when nothing else is set.
    assert fwdbwd_enabled(None, absint=True) is True
    assert fwdbwd_enabled(None, absint=False) is False
    monkeypatch.setenv(ENV_FLAG, "0")
    assert fwdbwd_enabled(None, absint=True) is False
    monkeypatch.setenv(ENV_FLAG, "on")
    assert fwdbwd_enabled(None, absint=False) is True
    # An explicit override always wins.
    assert fwdbwd_enabled(False, absint=True) is False
    monkeypatch.setenv(ENV_FLAG, "0")
    assert fwdbwd_enabled(True, absint=False) is True


# -- backward goal folding ----------------------------------------------------


def test_fold_goal_decides_rank_delta():
    # rank = m - mp; body sets mp#1 = mp#0 + 1, so the negated decrease
    # goal (new rank >= old rank) folds to a constant False.
    items = (Def("mp", 1, ast.add(Var("mp#0"), ast.n(1))),)
    neg_goal = ast.ge(ast.sub(Var("m#0"), Var("mp#1")),
                      ast.sub(Var("m#0"), Var("mp#0")))
    assert fold_goal(items, neg_goal, {}) is False
    # The satisfied direction folds True; an unrelated goal stays None.
    goal = ast.lt(ast.sub(Var("m#0"), Var("mp#1")),
                  ast.sub(Var("m#0"), Var("mp#0")))
    assert fold_goal(items, goal, {}) is True
    open_goal = ast.lt(Var("m#0"), Var("k#0"))
    assert fold_goal(items, open_goal, {}) is None


def test_fold_goal_substitutes_hole_expressions():
    hole = ast.HoleExpr("e9", vmap=(("s", 0),))
    items = (Def("x", 1, ast.add(hole, ast.n(0))),)
    neg = ast.ne(Var("x#1"), ast.add(Var("s#0"), ast.n(2)))
    expr_map = {"e9": parse_expr("s + 2")}
    assert fold_goal(items, neg, expr_map) is False


# -- static unit refutation ---------------------------------------------------


def test_analyze_unknowns_refutes_out_of_range_candidate():
    # Boundary: s = n + 1 in [1, 11]; necessary np = n in [0, 10].
    # "0 - s" can only produce [-11, -1] -> statically refuted.
    space = space_with(["s - 1", "0 - s", "s + 1"])
    report = analyze_unknowns(FWD, INV_TEMPLATE, space, SPEC, SORTS)
    fs = report.feasible["e1"]
    assert fs.kind == "expr" and fs.total == 3
    assert list(fs.feasible) == [0, 2]
    assert report.units_refuted == 1
    assert [(r.hole, r.index, r.candidate) for r in fs.refuted] == [
        ("e1", 1, str(parse_expr("0 - s")))]
    assert not report.empty_holes()
    assert "refuted" in report.describe()


def test_analyze_unknowns_empty_family():
    space = space_with(["0 - s", "0 - s - 1"])
    report = analyze_unknowns(FWD, INV_TEMPLATE, space, SPEC, SORTS)
    assert report.empty_holes() == ["e1"]
    assert report.feasible["e1"].empty
    assert report.units_refuted == 2


def test_analyze_unknowns_keeps_feasible_space_untouched():
    space = space_with(["s - 1", "s", "0"])
    report = analyze_unknowns(FWD, INV_TEMPLATE, space, SPEC, SORTS)
    assert list(report.feasible["e1"].feasible) == [0, 1, 2]
    assert report.units_refuted == 0 and not report.pairs
    assert "no candidate statically refuted" in report.describe()


def test_analyze_unknowns_skips_non_top_level_sites():
    # The same doomed candidate inside a conditional is NOT refutable:
    # the branch may simply never run.
    inv = parse_program("""
    program fwd_inv [int s; int np] {
      np := s - 1;
      if (s > 100) { np := [e1]; }
      out(np);
    }
    """)
    space = space_with(["0 - s"])
    report = analyze_unknowns(FWD, inv, space, SPEC, SORTS)
    assert report.units_refuted == 0
    assert list(report.feasible["e1"].feasible) == [0]


# -- pairwise refinement ------------------------------------------------------


def test_analyze_unknowns_refutes_pairs():
    # a in {0, 5}; np = a + b-candidates.  Under a = 0 the candidate
    # "a - 1" lands at -1, outside the necessary [0, 10]; under a = 5
    # it is fine.  So (ea=0, eb="a - 1") dies as a *pair*, not a unit.
    inv = parse_program("""
    program fwd_inv [int s; int a; int np] {
      a := [ea];
      np := [eb];
      out(np);
    }
    """)
    space = HoleSpace(
        expr_holes=(("ea", (parse_expr("0"), parse_expr("5"))),
                    ("eb", (parse_expr("a - 1"), parse_expr("a")))),
        pred_holes=())
    sorts = {"n": INT, "s": INT, "a": INT, "np": INT}
    report = analyze_unknowns(FWD, inv, space, sorts=sorts, spec=SPEC)
    assert report.units_refuted == 0
    refuted = [(p.first, p.second) for p in report.pairs]
    assert (("ea", 0), ("eb", 0)) in refuted
    assert (("ea", 1), ("eb", 0)) not in refuted
    assert (("ea", 1), ("eb", 1)) not in refuted
