"""Bench-harness profiles for every registered suite program.

The full-suite matrix (Table 2 scale-out) needs per-program knobs that
don't belong on :class:`~repro.suite.base.Benchmark` itself — they
describe how the *harness* should drive a program, not what the program
is:

``set``
    ``"fast"`` programs finish in seconds at the default bench config
    and run on every CI push; ``"slow"`` ones take minutes (or only
    terminate under a budget) and run in the nightly/dispatch matrix
    job.

``budget``
    Default :mod:`repro.resil` budget spec applied by
    ``scripts/run_bench.py`` when the user doesn't pass ``--budget``.
    Budgets here are *deterministic* (SMT-query/path counts, plus a
    generous wall backstop) so the cut point — and therefore the
    inverse digest — is machine-independent.

``digest_stable``
    Whether the program's inverse digest is reproducible across runs at
    the profile config, i.e. whether ``--check-inverses-against`` should
    gate it.  Only wall-budget-truncated programs are unstable.

``queries_slack``
    Extra fractional headroom this program gets from
    ``--check-queries-against`` on top of the CLI-wide ``--queries-slack``
    (programs whose query counts wobble under budget truncation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class BenchProfile:
    set: str = "fast"  # 'fast' | 'slow'
    budget: Optional[str] = None
    digest_stable: bool = True
    queries_slack: float = 0.0


# Budgets were tuned at the bench-harness defaults (m=10, iters=30,
# seed=1, serial): count budgets fire (or the program stabilizes) long
# before the wall backstop, so recorded digests are reproducible.
# Measured wall times in the comments are this-machine single-core.
PROFILES: Dict[str, BenchProfile] = {
    # compressors
    "inplace_rl": BenchProfile(  # stabilizes at 708 q, ~140 s
        set="slow", budget="smt=1500;wall=900"),
    "runlength": BenchProfile(  # stabilizes at 565 q, ~8 s
        set="fast", budget="smt=1500;wall=300"),
    "lz77": BenchProfile(  # stabilizes at 614 q, ~120 s
        set="slow", budget="smt=1500;wall=900"),
    "lzw": BenchProfile(  # stabilizes at 1215 q, ~25 min (replay
        # downgrades + round-trip refuter; budget is a backstop only)
        set="slow", budget="smt=8000;wall=2400", queries_slack=0.10),
    "delta_encode": BenchProfile(  # stabilizes at ~120 q, ~2 s
        set="fast", budget="smt=1500;wall=300"),
    # encoders
    "base64": BenchProfile(  # path budget fires, ~30 s
        set="slow", budget="smt=120;paths=4;wall=600", queries_slack=0.10),
    "uuencode": BenchProfile(  # query budget fires, ~4 s
        set="fast", budget="smt=250;paths=6;wall=300", queries_slack=0.10),
    "pkt_wrapper": BenchProfile(  # query budget fires, ~2 s
        set="fast", budget="smt=300;paths=8;wall=300", queries_slack=0.10),
    "serialize": BenchProfile(  # stabilizes at 223 q, ~1 s
        set="fast", budget="smt=1500;wall=300"),
    # arithmetic
    "sumi": BenchProfile(  # stabilizes at ~75 q, ~1 s
        set="fast", budget="smt=1500;wall=300"),
    "vector_shift": BenchProfile(  # stabilizes at 58 q, ~1 s
        set="fast", budget="smt=1500;wall=300"),
    "vector_scale": BenchProfile(  # stabilizes at 153 q, ~1 s
        set="fast", budget="smt=1500;wall=300"),
    "vector_rotate": BenchProfile(  # stabilizes at 50 q, ~1 s
        set="fast", budget="smt=1500;wall=300"),
    "vector_reverse": BenchProfile(  # stabilizes at 234 q, ~3 s
        set="fast", budget="smt=1500;wall=300"),
    "permute_count": BenchProfile(  # query budget fires, ~13 s
        set="slow", budget="smt=300;paths=8;wall=600", queries_slack=0.10),
    "lu_decomp": BenchProfile(  # paths exhaust at 468 q / 5 paths, ~8 s
        set="fast", budget="smt=1000;paths=12;wall=300"),
}

BENCH_SETS = ("fast", "slow", "all")


def bench_profile(name: str) -> BenchProfile:
    """Profile for one registered program (default profile if unlisted)."""
    return PROFILES.get(name, BenchProfile())


def resolved_budget(name: str) -> Optional[str]:
    """The profile budget with an inferred ``paths=`` safety net.

    When the hand profile has no path budget, the statically inferred
    syntactic path ceiling (see
    :func:`repro.analysis.regions.inferred_path_budget`) is appended as
    ``paths=<ceiling>``.  The executor returns each syntactic path at
    most once per run, so a budget at exactly the ceiling can never
    fire — appending it cannot change any trajectory or digest; it only
    turns a hypothetical runaway enumeration into a clean
    ``budget_exhausted``.  Hand-tuned ``paths=`` values always win (and
    are linted against the ceiling by suitelint's
    ``stale-profile-budget`` rule).  Ceilings above
    :data:`repro.analysis.regions.PATH_COUNT_CAP` are left off — a
    six-digit never-firing limit is noise.
    """
    profile = bench_profile(name)
    spec = profile.budget
    if spec is None or "paths" in spec:
        return spec
    from ..analysis.regions import PATH_COUNT_CAP, inferred_path_budget

    ceiling = inferred_path_budget(name)
    if ceiling is None or ceiling > PATH_COUNT_CAP:
        return spec
    return f"{spec};paths={ceiling}"


def bench_set(which: str) -> List[str]:
    """Registry-ordered program names in the given set."""
    from . import BENCHMARK_MODULES

    if which not in BENCH_SETS:
        raise KeyError(
            f"unknown bench set {which!r}; valid sets: {', '.join(BENCH_SETS)}")
    if which == "all":
        return list(BENCHMARK_MODULES)
    return [n for n in BENCHMARK_MODULES if bench_profile(n).set == which]
