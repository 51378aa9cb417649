"""Golden smoke anchor: lu_decomp's full-suite bench record, pinned.

lu_decomp is the suite's canary for the extern-axiom machinery: at the
full-suite config it deterministically explores 5 paths, exhausts the
``paths=12`` budget dimension's search frontier with status
``paths_exhausted``, finds exactly 2 real inverses, and issues exactly
468 SMT queries.  Those numbers are the recorded ``full-suite`` row in
``BENCH_pins.json``; this test pins them so a trajectory change — even
one that still synthesizes correct inverses — is caught as a diff, not
discovered as a silent benchmark drift later.

The pin is config-exact: it only runs under the default analysis stack
(the ``--no-static-pruning`` CI pass legitimately changes the query
count and budget cut point, so the anchor skips there).
"""

import os

import pytest

from repro.pins import PinsConfig, run_pins
from repro.suite import get_benchmark, resolved_budget

# The recorded full-suite row (BENCH_pins.json, label "full-suite").
EXPECTED_DIGEST = ("38cad06f844738042cf59637a28d931213c5a120"
                   "eff7bb701a082347863a24fe")
EXPECTED_QUERIES = 468
EXPECTED_SOLUTIONS = 2
EXPECTED_PATHS = 5
EXPECTED_BUDGET = "smt=1000;paths=12;wall=300"

_ANALYSIS_VARS = ("REPRO_STATIC_PRUNING", "REPRO_ABSINT", "REPRO_FWDBWD",
                  "REPRO_INCREMENTAL")


def _default_analysis_stack() -> bool:
    return all(os.environ.get(var, "").strip() in ("", "1", "true")
               for var in _ANALYSIS_VARS)


@pytest.mark.skipif(not _default_analysis_stack(),
                    reason="anchor pins the default analysis stack's "
                           "trajectory; REPRO_* overrides change it")
def test_lu_decomp_full_suite_record_is_pinned(monkeypatch):
    for var in ("REPRO_BUDGET", "REPRO_FAULTS", "REPRO_QUERY_CACHE",
                "REPRO_JOBS", "REPRO_WORKERS"):
        monkeypatch.delenv(var, raising=False)

    budget = resolved_budget("lu_decomp")
    assert budget == EXPECTED_BUDGET, (
        "lu_decomp's profile budget moved; re-record BENCH_pins.json "
        "and this anchor together")

    result = run_pins(get_benchmark("lu_decomp").task,
                      PinsConfig(m=10, max_iterations=30, seed=1,
                                 budget=budget))

    assert result.status == "paths_exhausted"
    assert result.stats.paths_explored == EXPECTED_PATHS
    assert len(result.solutions) == EXPECTED_SOLUTIONS
    assert result.metrics.counter("smt.queries") == EXPECTED_QUERIES, (
        "lu_decomp's SMT query profile drifted from the recorded "
        "full-suite matrix")
    assert result.inverse_digest() == EXPECTED_DIGEST, (
        "lu_decomp's inverse set drifted from the recorded full-suite "
        "matrix; if intentional, re-record BENCH_pins.json and update "
        "this anchor")
