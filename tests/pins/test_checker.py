"""ConstraintChecker tests on hand-built paths."""

from repro.lang import ast
from repro.lang.parser import parse_expr, parse_pred
from repro.pins.checker import HOLDS, UNKNOWN, VIOLATED, ConstraintChecker
from repro.pins.constraints import Constraint, safepath
from repro.pins.spec import InversionSpec
from repro.pins.template import Solution
from repro.symexec.paths import Def, Guard, Path

SORTS = {"n": ast.Sort.INT, "y": ast.Sort.INT, "yp": ast.Sort.INT}
SPEC = InversionSpec(scalar_pairs=(("n", "yp"),))


def path_for(expr_text):
    """P: y := n + 1;  T: yp := [e1] with e1 -> expr."""
    items = (
        Def("y", 1, ast.add(ast.Var("n#0"), ast.n(1))),
        Def("yp", 1, ast.HoleExpr("e1", (("n", 0), ("y", 1), ("yp", 0)))),
    )
    return Path(items, (("n", 0), ("y", 1), ("yp", 1)))


def checker():
    return ConstraintChecker(SORTS)


def test_correct_inverse_holds():
    c = safepath(path_for(None), SPEC, "p")
    sol = Solution(exprs=(("e1", parse_expr("y - 1")),), preds=())
    assert checker().check(c, sol).status == HOLDS


def test_wrong_inverse_violated_with_counterexample():
    c = safepath(path_for(None), SPEC, "p")
    sol = Solution(exprs=(("e1", parse_expr("y + 1")),), preds=())
    outcome = checker().check(c, sol)
    assert outcome.status == VIOLATED
    assert outcome.counterexample is not None
    # The counterexample genuinely refutes: yp = n + 2 != n.
    n_val = outcome.counterexample.get("n", 0)
    assert n_val + 2 != n_val


def test_infeasible_path_vacuously_holds():
    items = (
        Guard(ast.lt(ast.Var("n#0"), ast.n(0))),
        Guard(ast.gt(ast.Var("n#0"), ast.n(0))),
        Def("yp", 1, ast.Var("n#0")),
    )
    c = safepath(Path(items, (("n", 0), ("yp", 1))), SPEC, "p")
    sol = Solution(exprs=(), preds=())
    outcome = checker().check(c, sol)
    assert outcome.status == HOLDS and outcome.vacuous


def test_screen_concrete_refutation():
    c = safepath(path_for(None), SPEC, "p")
    good = Solution(exprs=(("e1", parse_expr("y - 1")),), preds=())
    bad = Solution(exprs=(("e1", parse_expr("y + 1")),), preds=())
    chk = checker()
    assert chk.screen(c, good, {"n": 3})
    assert not chk.screen(c, bad, {"n": 3})


def test_screen_diverging_input_is_vacuous():
    items = (Guard(ast.eq(ast.Var("n#0"), ast.n(7))),) + path_for(None).items
    c = safepath(Path(items, (("n", 0), ("y", 1), ("yp", 1))), SPEC, "p")
    bad = Solution(exprs=(("e1", parse_expr("y + 1")),), preds=())
    assert checker().screen(c, bad, {"n": 3})  # does not follow the path
    assert not checker().screen(c, bad, {"n": 7})


def test_path_infeasible_api():
    items = (Guard(ast.HolePred("p1", (("n", 0),))),)
    path = Path(items, (("n", 0),))
    chk = checker()
    contradictory = Solution(
        exprs=(), preds=(("p1", (parse_pred("n < 0"), parse_pred("n > 0"))),))
    assert chk.path_infeasible(path, contradictory)
    satisfiable = Solution(exprs=(), preds=(("p1", (parse_pred("n > 0"),)),))
    assert not chk.path_infeasible(path, satisfiable)


def test_goal_constraint_check():
    # decrease-style: guard n > 0, body y := n - 1, rank = n must decrease.
    items = (
        Guard(ast.gt(ast.Var("n#0"), ast.n(0))),
        Def("n", 1, ast.sub(ast.Var("n#0"), ast.n(1))),
    )
    c = Constraint(kind="decrease", label="d", items=items,
                   final_vmap=(("n", 1),),
                   neg_goal=ast.ge(ast.HoleExpr("rank!L", (("n", 1),)),
                                   ast.HoleExpr("rank!L", (("n", 0),))))
    chk = checker()
    decreasing = Solution(exprs=(("rank!L", parse_expr("n")),), preds=())
    assert chk.check(c, decreasing).status == HOLDS
    constant = Solution(exprs=(("rank!L", parse_expr("0 - 1")),), preds=())
    assert chk.check(c, constant).status == VIOLATED
