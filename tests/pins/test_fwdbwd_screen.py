"""The checker's linear (fwdbwd) screening tier.

The screen must be trajectory-safe: HOLDS-only answers, with every
proven-UNSAT query primed into the SAT-result cache exactly as the
solver would have stored it, so a run with the screen on visits the
same candidates as a run with it off.
"""

from repro.lang import ast
from repro.lang.parser import parse_expr
from repro.pins.checker import HOLDS, ConstraintChecker
from repro.pins.constraints import Constraint, safepath
from repro.pins.pickone import infeasible_score
from repro.pins.spec import InversionSpec
from repro.pins.template import Solution
from repro.symexec.paths import Def, Guard, Path

SORTS = {"n": ast.Sort.INT, "y": ast.Sort.INT, "yp": ast.Sort.INT}
SPEC = InversionSpec(scalar_pairs=(("n", "yp"),))
EMPTY = Solution(exprs=(), preds=())


def contradictory_path():
    items = (
        Guard(ast.lt(ast.Var("n#0"), ast.n(0))),
        Guard(ast.gt(ast.Var("n#0"), ast.n(0))),
        Def("yp", 1, ast.Var("n#0")),
    )
    return Path(items, (("n", 0), ("yp", 1)))


def checker(**kw):
    kw.setdefault("fwdbwd", True)
    kw.setdefault("absint", False)
    return ConstraintChecker(SORTS, **kw)


def test_screen_holds_vacuously_and_primes_sat_cache():
    chk = checker()
    c = safepath(contradictory_path(), SPEC, "p")
    outcome = chk.fwdbwd_screen(c, EMPTY)
    assert outcome is not None
    assert outcome.status == HOLDS and outcome.vacuous
    assert outcome.via == "fwdbwd"
    # No solver ran, yet a later feasibility probe on the same ground is
    # a cache hit with the exact entry SMT would have stored.
    assert chk.stats.smt_checks == 0
    ground = chk._ground(c, EMPTY)
    assert chk.has_cached(ground)
    status, model = chk._check_sat(ground, want_model=False)
    assert (status, model) == ("unsat", None)
    assert chk.stats.smt_checks == 0  # still never invoked the solver
    assert chk.stats.fwdbwd_screens == 1 and chk.stats.fwdbwd_holds == 1


def test_screen_folds_goal_constraints():
    # decrease constraint: rank = n - yp, body bumps yp by one, so the
    # negated decrease goal folds to constant False for every input.
    items = (Def("yp", 1, ast.add(ast.Var("yp#0"), ast.n(1))),)
    neg = ast.ge(ast.sub(ast.Var("n#0"), ast.Var("yp#1")),
                 ast.sub(ast.Var("n#0"), ast.Var("yp#0")))
    c = Constraint(kind="decrease", label="d", items=items, neg_goal=neg)
    chk = checker()
    outcome = chk.fwdbwd_screen(c, EMPTY)
    assert outcome is not None
    assert outcome.status == HOLDS and outcome.via == "fwdbwd"
    assert chk.stats.smt_checks == 0


def test_screen_abstains_on_satisfiable_ground():
    items = (Def("yp", 1, ast.add(ast.Var("y#0"), ast.n(1))),)
    c = safepath(Path(items, (("n", 0), ("yp", 1))), SPEC, "p")
    chk = checker()
    assert chk.fwdbwd_screen(c, EMPTY) is None
    assert chk.stats.fwdbwd_screens == 1 and chk.stats.fwdbwd_holds == 0
    assert not chk.has_cached(chk._ground(c, EMPTY))


def test_check_routes_through_screen_when_enabled():
    c = safepath(contradictory_path(), SPEC, "p")
    on = checker()
    outcome = on.check(c, EMPTY)
    assert outcome.via == "fwdbwd" and outcome.status == HOLDS
    assert on.stats.smt_checks == 0
    # With the switch off the same check runs on the solver and agrees.
    off = checker(fwdbwd=False)
    assert off.fwdbwd is False
    outcome = off.check(c, EMPTY)
    assert outcome.via == "smt" and outcome.status == HOLDS
    assert off.stats.fwdbwd_screens == 0
    assert off.stats.smt_checks > 0


def test_infeasible_score_counts_infeasible_paths():
    chk = checker()
    explored = [contradictory_path(), contradictory_path()]
    solution = Solution(exprs=(("e1", parse_expr("y - 1")),), preds=())
    score = infeasible_score(solution, explored, chk)
    assert score == 2  # both contradictory paths are infeasible under it
