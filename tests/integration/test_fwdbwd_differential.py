"""Differential tests: the forward-backward linear checker screen must
not change results, only avoid SMT work.

Mirrors ``test_absint_differential.py`` for the fwdbwd layer
(DESIGN.md §13): same seed, both runs must stabilize, and the
stabilized inverse programs must be bit-identical.  The screen is
HOLDS-only by construction, so this A/B is the whole trajectory-safety
argument made executable.
"""

import pytest

from repro.lang.pretty import pretty_program
from repro.pins import PinsConfig, run_pins
from repro.suite import get_benchmark

CASES = [
    ("sumi", dict(m=10, max_iterations=25, seed=1)),
    ("runlength", dict(m=3, max_iterations=20, seed=1)),
]


@pytest.mark.parametrize("name,kwargs", CASES, ids=[c[0] for c in CASES])
def test_fwdbwd_differential(name, kwargs):
    task = get_benchmark(name).task
    on = run_pins(task, PinsConfig(fwdbwd=True, **kwargs))
    off = run_pins(task, PinsConfig(fwdbwd=False, **kwargs))

    assert on.status == "stabilized", f"{name} (fwdbwd on): {on.status}"
    assert off.status == "stabilized", f"{name} (fwdbwd off): {off.status}"

    programs_on = {pretty_program(p) for p in on.inverse_programs()}
    programs_off = {pretty_program(p) for p in off.inverse_programs()}
    assert programs_on == programs_off, (
        f"{name}: fwdbwd changed the synthesized inverses")

    # The linear screen must have decided checks, and each one it decided
    # is a checker SMT query the baseline had to pay for.
    assert on.stats.fwdbwd_screen_holds > 0, name
    assert off.stats.fwdbwd_screen_holds == 0, name
    assert on.stats.checker_smt_checks < off.stats.checker_smt_checks, (
        f"{name}: screen saved no checker SMT work "
        f"({on.stats.checker_smt_checks} vs {off.stats.checker_smt_checks})")
