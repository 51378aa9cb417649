"""Command-line analysis tools: ``python -m repro.analysis``.

Two modes:

* ``python -m repro.analysis [files...] [--suite]`` — lint source files
  in the Fig. 2 concrete syntax (as accepted by
  :func:`repro.lang.parser.parse_program`), or the whole benchmark suite.
  Exit status: 0 clean, 1 diagnostics failed the run, 2 a file could not
  be parsed.
* ``python -m repro.analysis certify [names...]`` — abstractly certify
  the suite's ground-truth inverses (``P ; P⁻¹`` identity) over each
  task's bounded value range and report per-variable PROVED/UNKNOWN.
  With ``--baseline FILE`` exits 1 if any recorded PROVED verdict
  regressed; ``--write-baseline FILE`` records the current verdicts.
* ``python -m repro.analysis unknowns [names...]`` — run the
  forward-backward unknowns analysis on suite templates and report each
  hole's feasible candidate set plus any static unit/pair refutations.
  Exit status 1 when a hole's candidate family is statically empty.
* ``python -m repro.analysis regions [names...]`` — run the loop-bound
  analysis on suite tasks and report per-loop ranking bounds,
  axiom-derived cell value ranges, the syntactic path count, and
  hand-vs-inferred path budgets.  Exit status 1 when any
  ``stale-profile-budget`` lint fires.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from ..lang.parser import ParseError, parse_program
from .diagnostics import failing
from .lint import lint_program
from .suitelint import run_suite_lint


def certify_main(argv: List[str]) -> int:
    from .certify import (certify_suite, compare_to_baseline, load_baseline,
                          reports_to_json, save_baseline)

    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis certify",
        description="Abstractly certify suite inverses (P ; P⁻¹ identity).")
    ap.add_argument("names", nargs="*",
                    help="benchmark names (default: the whole suite)")
    ap.add_argument("--max-boxes", type=int, default=512,
                    help="subdivision budget per certified variable")
    ap.add_argument("--json", action="store_true",
                    help="emit the verdict map as JSON on stdout")
    ap.add_argument("--baseline", metavar="FILE",
                    help="fail on regressions from this recorded verdict map")
    ap.add_argument("--write-baseline", metavar="FILE",
                    help="record the current verdict map to FILE")
    args = ap.parse_args(argv)

    reports = certify_suite(args.names or None, max_boxes=args.max_boxes)
    if args.json:
        print(json.dumps(reports_to_json(reports), indent=2, sort_keys=True))
    else:
        for r in reports:
            print(f"{r.name} (range {r.value_range[0]}..{r.value_range[1]}, "
                  f"{r.boxes_explored} analysis runs):")
            for v in r.verdicts:
                print(f"  {v}")
    status = 0
    if args.baseline:
        regressions, improvements = compare_to_baseline(
            reports, load_baseline(args.baseline))
        for line in improvements:
            print(f"improved: {line}")
        for line in regressions:
            print(f"REGRESSION: {line}", file=sys.stderr)
        if regressions:
            status = 1
        else:
            print(f"baseline ok: no PROVED verdict regressed "
                  f"({args.baseline})")
    if args.write_baseline:
        save_baseline(reports, args.write_baseline)
        print(f"wrote {args.write_baseline}")
    return status


def unknowns_main(argv: List[str]) -> int:
    from ..lang.transform import compose, desugar_program
    from ..pins.algorithm import build_template
    from ..suite import all_benchmarks, get_benchmark
    from .fwdbwd import analyze_unknowns

    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis unknowns",
        description="Forward-backward unknowns analysis: per-hole feasible "
                    "candidate sets and static refutations, before any "
                    "SAT/SMT work.")
    ap.add_argument("names", nargs="*",
                    help="benchmark names (default: the whole suite)")
    ap.add_argument("--max-rounds", type=int, default=4,
                    help="forward/backward fixpoint iteration cap")
    ap.add_argument("--json", action="store_true",
                    help="emit the reports as JSON on stdout")
    args = ap.parse_args(argv)

    names = args.names or sorted(all_benchmarks())
    status = 0
    blobs = []
    for name in names:
        task = get_benchmark(name).task
        desugared = desugar_program(compose(task.program, task.inverse))
        template = build_template(task)
        spec = task.derived_spec(desugared.decls)
        report = analyze_unknowns(task.program, task.inverse, template.space,
                                  spec, desugared.decls,
                                  max_rounds=args.max_rounds)
        if args.json:
            blobs.append({
                "name": name,
                "iterations": report.iterations,
                "units_refuted": report.units_refuted,
                "pairs_refuted": len(report.pairs),
                "empty_holes": report.empty_holes(),
                "feasible": {
                    h: {"kind": fs.kind, "total": fs.total,
                        "feasible": list(fs.feasible),
                        "refuted": [str(r) for r in fs.refuted]}
                    for h, fs in sorted(report.feasible.items())
                },
            })
        else:
            print(report.describe())
        if report.empty_holes():
            print(f"{name}: EMPTY candidate family for "
                  f"{', '.join(report.empty_holes())}", file=sys.stderr)
            status = 1
    if args.json:
        print(json.dumps(blobs, indent=2, sort_keys=True))
    return status


def regions_main(argv: List[str]) -> int:
    from ..suite import all_benchmarks, bench_profile, get_benchmark
    from .regions import analyze_task, inferred_path_budget, lint_profile_budget

    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis regions",
        description="Loop-bound analysis: per-loop ranking bounds, "
                    "value ranges, syntactic path counts, and the "
                    "hand-vs-inferred path-budget lint.")
    ap.add_argument("names", nargs="*",
                    help="benchmark names (default: the whole suite)")
    ap.add_argument("--json", action="store_true",
                    help="emit the reports as JSON on stdout")
    args = ap.parse_args(argv)

    names = args.names or sorted(all_benchmarks())
    status = 0
    blobs = []
    for name in names:
        task = get_benchmark(name).task
        report = analyze_task(task, name=name)
        profile = bench_profile(name)
        diags = lint_profile_budget(name, profile.budget)
        if args.json:
            blob = report.to_json()
            blob["profile_budget"] = profile.budget
            blob["inferred_paths"] = inferred_path_budget(name)
            blob["lint"] = [str(d) for d in diags]
            blobs.append(blob)
        else:
            print(report.describe())
            if profile.budget:
                print(f"  profile budget: {profile.budget}")
        for d in diags:
            print(f"{name}: {d}", file=sys.stderr)
            status = 1
    if args.json:
        print(json.dumps(blobs, indent=2, sort_keys=True))
    return status


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "certify":
        return certify_main(argv[1:])
    if argv and argv[0] == "unknowns":
        return unknowns_main(argv[1:])
    if argv and argv[0] == "regions":
        return regions_main(argv[1:])
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Lint PINS programs / the benchmark suite "
                    "(or: certify ... / unknowns ... / regions ...).")
    ap.add_argument("files", nargs="*",
                    help="program source files to lint")
    ap.add_argument("--suite", action="store_true",
                    help="lint every suite benchmark (program, template, "
                         "ground truth)")
    ap.add_argument("--strict", action="store_true",
                    help="treat warnings as failures")
    ap.add_argument("--verbose", action="store_true",
                    help="also print non-failing diagnostics")
    args = ap.parse_args(argv)

    if not args.files and not args.suite:
        ap.error("nothing to lint: give file paths or --suite")

    status = 0
    if args.suite:
        status = max(status, run_suite_lint(strict=args.strict,
                                            verbose=args.verbose))
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                program = parse_program(fh.read())
        except OSError as exc:
            print(f"{path}: cannot read: {exc}", file=sys.stderr)
            return 2
        except ParseError as exc:
            print(f"{path}: parse error: {exc}", file=sys.stderr)
            return 2
        diags = lint_program(program)
        failures = failing(diags, strict=args.strict)
        shown = diags if args.verbose else failures
        for d in shown:
            print(f"{path}: {d}")
        if failures:
            status = max(status, 1)
        print(f"{path}: {'FAIL' if failures else 'ok'} "
              f"({len(diags)} finding(s))")
    return status


if __name__ == "__main__":
    sys.exit(main())
