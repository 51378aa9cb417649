"""Repeat benchmark runs over seeds and print each metric's spread.

    python3 perfbench/spread.py --workload oneshot-small --runs 10

Runs ``run.py --trace 0`` once per seed (``--first-seed`` onwards), one
at a time, for ``run_seconds`` from BENCHMARK.json, and prints for every
end-to-end metric the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the quartile spread as a
share of the median.  Exits non-zero if a run fails or
reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    values = {}
    units = {}
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:28s} median {med:12.6g} {units[name]:6s} "
              f"q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:7.2%} "
              f"n={len(vals)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
