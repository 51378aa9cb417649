"""Counterexamples must replay: the checker's replay contract.

Every VIOLATED verdict the checker keeps is backed by a counterexample
that replays concretely through the interpreter.  When a SAT model's
extern function table diverges from the real semantics the replay fails;
such counterexamples are downgraded to UNKNOWN instead of blocking good
candidates with garbage.  The downgrade is unconditional, so this smoke
asserts the contract across the whole 16-program suite under every
analysis configuration — zero kept-but-unreplayable counterexamples —
and that extern-free programs never downgrade at all.
"""

from __future__ import annotations

import pytest

from repro.pins import PinsConfig, run_pins
from repro.suite import BENCHMARK_MODULES, get_benchmark

SMOKE_BUDGET = "smt=60;paths=6;wall=10"

ANALYSIS_CONFIGS = {
    "default": {},
    "no-absint": {"absint": False},
    "no-static-pruning": {"static_pruning": False},
}


@pytest.mark.parametrize("config", list(ANALYSIS_CONFIGS))
@pytest.mark.parametrize("name", BENCHMARK_MODULES)
def test_no_kept_counterexample_fails_replay(name, config):
    bench = get_benchmark(name)
    pins_config = PinsConfig(m=3, max_iterations=3, seed=1,
                             budget=SMOKE_BUDGET, **ANALYSIS_CONFIGS[config])
    result = run_pins(bench.task, pins_config)
    assert result.metrics.counter("analysis.regions.replay_failed") == 0, (
        f"{name} ({config}): a VIOLATED counterexample did not replay "
        f"concretely")


@pytest.mark.parametrize("name", ["sumi", "vector_shift"])
def test_extern_free_programs_never_downgrade(name):
    # Only queries applying an extern can be downgraded, so programs
    # without externs keep the exact trajectory the check alone gives.
    bench = get_benchmark(name)
    assert not bench.task.externs.names()
    result = run_pins(bench.task, PinsConfig(m=3, max_iterations=3, seed=1,
                                             budget=SMOKE_BUDGET))
    assert result.metrics.counter("analysis.regions.downgraded") == 0
