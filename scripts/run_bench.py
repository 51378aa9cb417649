#!/usr/bin/env python
"""Run PINS on suite benchmarks, validate results, and record bench data.

Program names come from the ``repro.suite`` registry — ``--help`` lists
every registered program, ``--all`` runs all of them, and ``--set
fast|slow|all`` runs the named profile set (``repro.suite.profiles``).
Per-program default budgets from the profiles keep the slow programs
(lz77, lu_decomp, base64, …) terminating deterministically; ``--budget``
overrides them globally and ``--no-program-budgets`` disables them.

Beyond the original dev-harness behavior (run + validate each named
benchmark), this emits machine-readable performance records so runs can
be compared across configurations::

    # Record the full Table-2-style matrix.
    python scripts/run_bench.py --all \\
        --bench-json BENCH_pins.json --bench-label full-suite

    # Fast-set regression run; fail on inverse-digest drift or an SMT
    # query-count regression against the recorded matrix.
    python scripts/run_bench.py --set fast --no-validate \\
        --bench-json BENCH_pins.json --bench-label fast-ci \\
        --check-inverses-against full-suite \\
        --check-queries-against full-suite --queries-slack 0.05

Each labeled run records, per benchmark: wall time (of the synthesis
loop only, not validation), status, iterations, paths, SMT query count,
query-cache hit/miss counts and hit rate, solution count, the budget
spec in force, and a digest of the pretty-printed inverse programs.
When the JSON already holds a ``serial-baseline`` label, a
total-wall-time speedup against it is computed and stored.  The JSON
file is written atomically (tmp + ``os.replace``) so a crashed run never
corrupts previous records.

Render a recorded matrix with ``python -m repro.experiments table2``.

The digest gate honors each program's ``digest_stable`` profile bit
(wall-truncated programs are reported but don't fail the gate) and the
query gate adds each program's ``queries_slack`` on top of
``--queries-slack``.
"""

import argparse
import json
import os
import sys
import time

from repro.pins import PinsConfig, run_pins
from repro.resil import Budget
from repro.suite import (BENCH_SETS, BENCHMARK_MODULES, bench_profile,
                         bench_set, get_benchmark, resolved_budget)
from repro.validate import random_pool, validate_inverse

BASELINE_LABEL = "serial-baseline"
PROFILE_FRACTIONS = (0.25, 0.5, 1.0)


def inverse_digest(result) -> str:
    """Canonical digest of the synthesized inverse set (see
    :meth:`repro.pins.algorithm.PinsResult.inverse_digest`)."""
    return result.inverse_digest()


def bench_record(result, elapsed: float, budget=None) -> dict:
    stats = result.stats
    hits = stats.smt_cache_hits
    misses = stats.smt_cache_misses
    queries = result.metrics.counter("smt.queries")
    record = {
        "wall_time_s": round(elapsed, 4),
        "status": result.status,
        "iterations": stats.iterations,
        "paths": stats.paths_explored,
        "smt_queries": queries,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        "solutions": stats.num_solutions,
        "inverse_digest": inverse_digest(result),
    }
    if budget is not None:
        record["budget"] = budget
    if stats.budget_exhausted:
        record["budget_exhausted"] = stats.budget_exhausted
    # Counterexample-replay health (the lzw axiom-incompleteness story):
    # recorded only when nonzero so untouched programs keep their exact
    # historical record shape.
    replay_failed = result.metrics.counter("analysis.regions.replay_failed")
    downgraded = result.metrics.counter("analysis.regions.downgraded")
    if replay_failed:
        record["cex_replay_failed"] = replay_failed
    if downgraded:
        record["cex_replay_downgraded"] = downgraded
    return record


def budget_profile(task, config, full_record: dict) -> list:
    """Anytime-quality curve: rerun under a wall budget at fractions of
    the unbudgeted wall time and record the best-so-far quality.

    ``digest_matches_full`` flags the fraction at which the budgeted
    run's solution set already equals the unbudgeted one — the headline
    "how early could we have stopped" number.
    """
    points = []
    full_wall = full_record["wall_time_s"]
    for frac in PROFILE_FRACTIONS:
        budget = Budget(wall_s=max(frac * full_wall, 1e-3))
        cfg = dict(config.__dict__)
        cfg["budget"] = budget
        t0 = time.time()
        result = run_pins(task, PinsConfig(**cfg))
        elapsed = time.time() - t0
        digest = inverse_digest(result)
        points.append({
            "fraction": frac,
            "wall_budget_s": round(budget.wall_s, 4),
            "wall_time_s": round(elapsed, 4),
            "status": result.status,
            "solutions": result.stats.num_solutions,
            "inverse_digest": digest,
            "digest_matches_full": digest == full_record["inverse_digest"],
        })
    return points


def load_bench_json(path: str) -> dict:
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and isinstance(data.get("labels"), dict):
            return data
    return {"labels": {}}


def save_bench_json(path: str, data: dict) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def build_parser() -> argparse.ArgumentParser:
    sets = {s: bench_set(s) for s in BENCH_SETS if s != "all"}
    epilog_lines = ["registered programs (registry order):",
                    "  " + " ".join(BENCHMARK_MODULES), ""]
    for set_name, names in sets.items():
        epilog_lines.append(f"--set {set_name}:")
        epilog_lines.append("  " + " ".join(names))
    ap = argparse.ArgumentParser(
        description="PINS benchmark harness with machine-readable records",
        epilog="\n".join(epilog_lines),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*",
                    help="benchmark names from the registry (see epilog); "
                         "or use --all / --set")
    ap.add_argument("--all", action="store_true",
                    help="run every registered suite program")
    ap.add_argument("--set", choices=BENCH_SETS, default=None, dest="bench_set",
                    help="run a profile set of programs (fast|slow|all)")
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--iters", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker processes for parallel probe fan-out")
    ap.add_argument("--workers", choices=("persistent", "fork", "serial"),
                    default=None,
                    help="worker strategy for --jobs > 1: 'persistent' "
                         "forks one warm fleet per run, 'fork' (default) "
                         "forks per iteration, 'serial' disables the pool")
    ap.add_argument("--no-incremental", action="store_true",
                    help="disable assumption-based incremental SMT "
                         "contexts (restores one-shot solving) for A/B "
                         "runs")
    ap.add_argument("--query-cache", default=None,
                    help="SMT query-cache spec: 'mem', a file, or a dir/")
    ap.add_argument("--no-validate", action="store_true",
                    help="skip inverse validation (pure perf runs)")
    ap.add_argument("--no-absint", action="store_true",
                    help="disable the abstract-interpretation layer "
                         "(screen + path pruning) for A/B runs")
    ap.add_argument("--no-fwdbwd", action="store_true",
                    help="disable the forward-backward linear "
                         "constraint screen for A/B runs")
    ap.add_argument("--budget", default=None, metavar="SPEC",
                    help="resource budget, e.g. 'wall=30;smt=5000' "
                         "(see repro.resil.parse_budget_spec); overrides "
                         "the per-program profile budgets")
    ap.add_argument("--no-program-budgets", action="store_true",
                    help="ignore the per-program default budgets from "
                         "repro.suite.profiles (unbudgeted unless --budget)")
    ap.add_argument("--faults", default=None, metavar="SPEC",
                    help="fault-injection plan, e.g. 'pool.worker_crash@0' "
                         "(chaos runs; see repro.resil.faults)")
    ap.add_argument("--budget-profile", action="store_true",
                    help="after each run, rerun at 25/50/100%% of its "
                         "wall time and record best-so-far quality")
    ap.add_argument("--bench-json", default=None,
                    help="merge a per-benchmark record into this JSON file")
    ap.add_argument("--bench-label", default=None,
                    help="label for this run in the bench JSON")
    ap.add_argument("--check-inverses-against", default=None, metavar="LABEL",
                    help="exit 1 unless inverse digests match LABEL's "
                         "(programs profiled digest_stable=False are "
                         "reported but don't fail; see --strict-digests)")
    ap.add_argument("--strict-digests", action="store_true",
                    help="apply --check-inverses-against to every program, "
                         "ignoring the digest_stable profile bit")
    ap.add_argument("--check-queries-against", default=None, metavar="LABEL",
                    help="exit 1 if a benchmark issues more SMT queries "
                         "than LABEL's record (query-count regression gate)")
    ap.add_argument("--queries-slack", type=float, default=0.0,
                    help="fractional headroom for --check-queries-against "
                         "(0.05 allows 5%% more queries than the record); "
                         "per-program profile slack is added on top")
    ap.add_argument("--min-speedup", type=float, default=None, metavar="X",
                    help="exit 1 unless this label's total-wall speedup vs "
                         "the recorded serial-baseline label is > X "
                         "(perf-regression gate; requires --bench-json)")
    return ap


def resolve_names(ap: argparse.ArgumentParser, args) -> list:
    picked = [bool(args.names), args.all, args.bench_set is not None]
    if sum(picked) > 1:
        ap.error("give program names, --all, or --set — not a combination")
    if args.all:
        return list(BENCHMARK_MODULES)
    if args.bench_set is not None:
        return bench_set(args.bench_set)
    if not args.names:
        ap.error("no programs selected; pass names, --all, or --set "
                 "(see --help for the registry)")
    try:
        for name in args.names:
            get_benchmark(name)
    except KeyError as exc:
        ap.error(str(exc.args[0]))
    return args.names


def main() -> int:
    ap = build_parser()
    args = ap.parse_args()
    names = resolve_names(ap, args)

    if args.bench_json and not args.bench_label:
        ap.error("--bench-json requires --bench-label")

    bench_data = load_bench_json(args.bench_json) if args.bench_json else None
    records = {}
    exit_code = 0

    for name in names:
        bench = get_benchmark(name)
        profile = bench_profile(name)
        task = bench.task
        # Precedence: --budget > REPRO_BUDGET env > per-program profile.
        # The env var is the resilience layer's documented knob; profile
        # defaults must not outrank an operator's explicit tightening.
        budget = args.budget
        if budget is None and os.environ.get("REPRO_BUDGET"):
            budget = os.environ["REPRO_BUDGET"]
        if budget is None and not args.no_program_budgets:
            # Profile budget plus the inferred never-firing paths=
            # ceiling (hand paths= values win; see suite.resolved_budget).
            budget = resolved_budget(name)
        config = PinsConfig(m=args.m, max_iterations=args.iters,
                            seed=args.seed, jobs=args.jobs,
                            workers=args.workers,
                            query_cache=args.query_cache,
                            absint=False if args.no_absint else None,
                            fwdbwd=False if args.no_fwdbwd else None,
                            incremental=False if args.no_incremental else None,
                            budget=budget, faults=args.faults)
        t0 = time.time()
        result = run_pins(task, config)
        elapsed = time.time() - t0
        record = bench_record(result, elapsed, budget=budget)
        records[name] = record
        if args.budget_profile:
            record["budget_profile"] = budget_profile(task, config, record)
            for point in record["budget_profile"]:
                match = "=full" if point["digest_matches_full"] else "partial"
                print(f"  budget {int(point['fraction'] * 100):3d}%: "
                      f"{point['status']}, {point['solutions']} sols, "
                      f"{match}", flush=True)
        print(f"=== {name}: {result.status}, {len(result.solutions)} sols, "
              f"{result.stats.iterations} iters, "
              f"{result.stats.paths_explored} paths, {elapsed:.2f}s, "
              f"cache {record['cache_hits']}/{record['cache_hits'] + record['cache_misses']} hits",
              flush=True)

        if args.check_inverses_against and bench_data is not None:
            ref = (bench_data["labels"]
                   .get(args.check_inverses_against, {})
                   .get("benchmarks", {}).get(name))
            if ref is None:
                print(f"  !! no '{args.check_inverses_against}' record for "
                      f"{name}; cannot check inverses", flush=True)
                exit_code = 1
            elif ref["inverse_digest"] != record["inverse_digest"]:
                if profile.digest_stable or args.strict_digests:
                    print(f"  !! inverse digest differs from "
                          f"'{args.check_inverses_against}' "
                          f"({record['inverse_digest'][:12]} vs "
                          f"{ref['inverse_digest'][:12]})", flush=True)
                    exit_code = 1
                else:
                    print(f"  inverse digest differs from "
                          f"'{args.check_inverses_against}' but {name} is "
                          f"profiled digest_stable=False; not gating",
                          flush=True)
            else:
                print(f"  inverses identical to "
                      f"'{args.check_inverses_against}'", flush=True)

        if args.check_queries_against and bench_data is not None:
            ref = (bench_data["labels"]
                   .get(args.check_queries_against, {})
                   .get("benchmarks", {}).get(name))
            if ref is None or "smt_queries" not in ref:
                print(f"  !! no '{args.check_queries_against}' query record "
                      f"for {name}; cannot check query count", flush=True)
                exit_code = 1
            else:
                slack = args.queries_slack + profile.queries_slack
                limit = int(ref["smt_queries"] * (1.0 + slack))
                if record["smt_queries"] > limit:
                    print(f"  !! SMT query regression vs "
                          f"'{args.check_queries_against}': "
                          f"{record['smt_queries']} > {limit} "
                          f"(record {ref['smt_queries']}, "
                          f"slack {slack:.0%})", flush=True)
                    exit_code = 1
                else:
                    print(f"  SMT queries within "
                          f"'{args.check_queries_against}' budget "
                          f"({record['smt_queries']} <= {limit})", flush=True)

        if not args.no_validate:
            spec = task.derived_spec(
                {**task.program.decls, **task.inverse.decls})
            pool = list(task.initial_inputs)
            if task.input_gen is not None:
                pool += random_pool(task.input_gen, 30, seed=7)
            n_correct = 0
            for idx, inv in enumerate(result.inverse_programs()):
                report = validate_inverse(task.program, inv, spec, pool,
                                          task.externs,
                                          precondition=task.precondition)
                ok = "CORRECT" if report.ok else f"WRONG ({len(report.failures)} fails)"
                if report.ok:
                    n_correct += 1
                print(f"  candidate {idx}: {ok}", flush=True)
            print(f"  => {n_correct}/{len(result.solutions)} candidates correct",
                  flush=True)

    if bench_data is not None:
        # Merge into an existing label so multi-invocation protocols
        # (per-benchmark --m/--iters) accumulate one record set.
        entry = bench_data["labels"].setdefault(
            args.bench_label,
            {"jobs": args.jobs, "workers": args.workers,
             "query_cache": args.query_cache,
             "seed": args.seed, "benchmarks": {}})
        entry["benchmarks"].update(records)
        baseline = bench_data["labels"].get(BASELINE_LABEL)
        if baseline is not None and args.bench_label != BASELINE_LABEL:
            common = (set(baseline.get("benchmarks", {}))
                      & set(entry["benchmarks"]))
            if common:
                base_total = sum(
                    baseline["benchmarks"][n]["wall_time_s"] for n in common)
                this_total = sum(
                    entry["benchmarks"][n]["wall_time_s"] for n in common)
                if this_total > 0:
                    entry["speedup_vs_serial_baseline"] = round(
                        base_total / this_total, 3)
                    entry["speedup_benchmarks"] = sorted(common)
                    print(f"speedup vs {BASELINE_LABEL} on "
                          f"{sorted(common)}: "
                          f"{entry['speedup_vs_serial_baseline']}x "
                          f"({base_total:.2f}s -> {this_total:.2f}s)",
                          flush=True)
        save_bench_json(args.bench_json, bench_data)
        print(f"bench record '{args.bench_label}' written to "
              f"{args.bench_json}", flush=True)

    if args.min_speedup is not None:
        speedup = None
        if bench_data is not None:
            speedup = (bench_data["labels"]
                       .get(args.bench_label, {})
                       .get("speedup_vs_serial_baseline"))
        if speedup is None:
            print(f"!! --min-speedup {args.min_speedup} given but no "
                  f"speedup vs {BASELINE_LABEL} was computed "
                  f"(need --bench-json and a recorded baseline)", flush=True)
            exit_code = 1
        elif speedup <= args.min_speedup:
            print(f"!! speedup regression: {speedup}x vs {BASELINE_LABEL} "
                  f"is not above the {args.min_speedup}x floor", flush=True)
            exit_code = 1
        else:
            print(f"speedup {speedup}x clears the "
                  f"{args.min_speedup}x floor", flush=True)

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
