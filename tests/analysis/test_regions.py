"""The loop-bound analysis: exact path counting, loop bounds (including
the inner-loop decrease refinement), axiom-derived value ranges and the
checker's default cells, and the stale-profile-budget lint."""

import pytest

from repro.analysis.regions import (
    PATH_COUNT_CAP,
    STALE_PROFILE_BUDGET,
    analyze_task,
    inferred_path_budget,
    lint_profile_budget,
    path_count,
)
from repro.lang.transform import compose, desugar_program
from repro.pins.checker import ConstraintChecker
from repro.suite import BENCHMARK_MODULES, get_benchmark, resolved_budget
from repro.suite.common import array_range_axiom
from repro.symexec.executor import enumerate_paths


def task_of(name):
    return get_benchmark(name).task


def composed_body(name):
    task = task_of(name)
    return desugar_program(compose(task.program, task.inverse)).body


# -- exact path counting ------------------------------------------------------


@pytest.mark.parametrize("name,unroll", [("sumi", 2), ("runlength", 1)])
def test_path_count_matches_enumeration(name, unroll):
    body = composed_body(name)
    enumerated = sum(1 for _ in enumerate_paths(body, max_unroll=unroll,
                                                limit=100_000))
    assert path_count(body, unroll) == enumerated


def test_path_count_scales_past_enumeration_budgets():
    # permute_count at its task unroll has > 10^6 syntactic paths; the
    # memoized walker must count them exactly without enumerating.
    task = task_of("permute_count")
    body = composed_body("permute_count")
    count = path_count(body, task.max_unroll)
    assert count is not None and count > PATH_COUNT_CAP


# -- loop bounds --------------------------------------------------------------


def test_forward_loop_bounded_on_sumi():
    report = analyze_task(task_of("sumi"), name="sumi")
    bounded = [lb for lb in report.loops if lb.bounded]
    assert len(bounded) == 1
    assert str(bounded[0].rank) == "((n - i) - 1)"
    assert bounded[0].decrease == 1
    # The inverse loop's guard is a predicate hole: never bounded.
    unbounded = [lb for lb in report.loops if not lb.bounded]
    assert unbounded and all("[p" in lb.guard for lb in unbounded)


def test_outer_loop_bounded_despite_inner_loop_on_runlength():
    # runlength's inner run-scanning loop also advances i; the decrease
    # check must accept it (inner paths only drive the rank down).
    report = analyze_task(task_of("runlength"), name="runlength")
    assert report.bounded_loops() == 1


# -- value ranges -------------------------------------------------------------


def test_value_ranges_recovered_from_axioms():
    assert analyze_task(task_of("lzw")).value_ranges == {"A": (0, 2)}
    assert analyze_task(task_of("uuencode")).value_ranges == {"A": (0, 256)}
    assert analyze_task(task_of("pkt_wrapper")).value_ranges == {"F": (0, 9)}
    assert analyze_task(task_of("sumi")).value_ranges == {}


def test_default_cell_prefers_range_low_end():
    task = task_of("lzw")
    axioms = (tuple(task.axioms) + tuple(task.input_axioms)
              + (array_range_axiom("X", "n", 5, 10),))
    cells = ConstraintChecker({}, axioms=axioms)._default_cells
    assert cells["A"] == 0  # 0 is inside [0, 2)
    assert cells["X"] == 5  # 0 outside the range: snap to lo
    assert "unknown" not in cells  # completed with 0


# -- inferred path budgets ----------------------------------------------------


def test_inferred_budget_is_the_syntactic_ceiling():
    body = composed_body("sumi")
    assert inferred_path_budget("sumi") == path_count(body,
                                                     task_of("sumi").max_unroll)


def test_resolved_budget_appends_only_when_absent():
    assert resolved_budget("sumi").endswith(
        f";paths={inferred_path_budget('sumi')}")
    # Hand paths= values win.
    assert resolved_budget("base64") == "smt=120;paths=4;wall=600"
    # permute_count's ceiling exceeds PATH_COUNT_CAP, so stripping its
    # hand paths= would leave the spec unaugmented rather than capped.
    assert inferred_path_budget("permute_count") > PATH_COUNT_CAP
    # Unregistered programs have no profile budget to augment.
    assert resolved_budget("no_such_program") is None


def test_lint_flags_dead_path_budget():
    diags = lint_profile_budget("sumi", "smt=100;paths=99999")
    assert len(diags) == 1
    assert diags[0].code == STALE_PROFILE_BUDGET
    assert lint_profile_budget("sumi", "smt=100;paths=4") == []
    assert lint_profile_budget("sumi", "smt=100") == []
    assert lint_profile_budget("sumi", None) == []


def test_suite_profiles_pass_the_lint():
    from repro.suite import bench_profile

    for name in BENCHMARK_MODULES:
        assert lint_profile_budget(name, bench_profile(name).budget) == [], name

