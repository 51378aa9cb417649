"""PINS benchmark: one workload, one run, every metric by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload oneshot-small --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures once untraced, as a reference, and once with the
layer functions wrapped (see ``tracer.py``), each for half the time; it
reports the per-layer metrics plus the tracing overhead.

Every run checks every output (see ``workloads.Checker``).  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads are listed in ``workloads.WORKLOADS``; ``oneshot-runlength``
and ``parallel-2w`` run but are kept out of BENCHMARK.json (see
NOTES.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

UNITS = {
    "setup_s": "s", "wall_s": "s", "wall_geomean_s": "s",
    "jobs_per_s": "1/s", "job_latency_p50_s": "s",
    "job_latency_tail_s": "s", "decided_ratio": "ratio",
    "inverses_correct_ratio": "ratio", "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# failed_ratio is printed but carried in the result line as
# ``failed``/``attempted``: it is 0 on a healthy run, and a metric of 0
# has no relative bound.
END_TO_END = [name for name in UNITS if name != "failed_ratio"]
SERVE_LAYER = ["serve.queue_wait_p50_s", "serve.run_p50_s",
               "serve.requeues"]
POOL_LAYER = ["pool.map_calls", "pool.tasks", "pool.map_s", "pool.sync_s"]
SETUP_REPS = 9
# Imported during set-up, including the modules run_pins and the serve
# worker import lazily, so forked workers start with them loaded.
SETUP_IMPORTS = ["repro.pins", "repro.suite", "repro.perf", "repro.analysis",
                 "repro.smt.incremental", "repro.serve", "repro.validate",
                 "repro.lang.parser"]


def per_layer_names(workload: wl.Workload) -> List[str]:
    names = [n for n in tracing.layer_metrics({}) if n not in POOL_LAYER]
    names += SERVE_LAYER + ["validate.s", "trace.overhead_ratio"]
    if workload.jobs > 1:
        names += POOL_LAYER
    return names


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name in ("pickone.s", "validate.s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With ten or fewer samples no percentile qualifies, and the maximum
    is reported (the sample count is printed with it).
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def purge_repro() -> None:
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def setup(workload: wl.Workload, work_dir: str):
    """Import repro and load the tasks (and, for serve, start the server
    until /healthz reports the fleet ready) ``SETUP_REPS`` times; the
    median is ``setup_s`` and the last server is kept."""
    times = []
    session = None
    for rep in range(SETUP_REPS):
        if session is not None:
            session.stop()
            session = None
        purge_repro()
        t0 = time.perf_counter()
        for module in SETUP_IMPORTS:
            importlib.import_module(module)
        wl.load_tasks(workload.programs)
        if workload.kind == "serve":
            session = wl.ServeSession(
                workload, wl.fresh_dir(os.path.join(work_dir, f"setup{rep}")))
            session.start()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times, session


def by_program(ops: List[wl.Op]) -> List[List[wl.Op]]:
    """The ops grouped by program, in program-name order."""
    groups: Dict[str, List[wl.Op]] = {}
    for op in ops:
        groups.setdefault(op.program, []).append(op)
    return [groups[name] for name in sorted(groups)]


def program_means(ops: List[wl.Op]) -> List[float]:
    """Each program's mean run wall, in program-name order."""
    return [statistics.mean(op.wall_s for op in group)
            for group in by_program(ops)]


def measure(workload: wl.Workload, seed: int, seconds: float,
            session=None, whole_passes: bool = False) -> Dict[str, Any]:
    """Run the workload for ``seconds``; returns its ops and timings.

    One-shot ``wall`` is the sum of the programs' mean run wall: one
    pass, averaged over the whole run, and ``rate`` is runs per second
    at one run of each program.  A serve session is stopped before
    this returns."""
    if workload.kind == "serve":
        try:
            ops, stats = wl.run_serve_loop(session, workload, seed, seconds)
        finally:
            session.stop()  # reaps the fleet, so its peak RSS is counted
        first = min(op.submitted_at for op in ops)
        last = max(op.finished_at for op in ops)
        return dict(ops=ops, wall=last - first, passes=1,
                    rate=len(ops) / (last - first), stats=stats)
    ops, passes = wl.run_oneshot(workload, seed, seconds, whole_passes)
    means = program_means(ops)
    return dict(ops=ops, wall=sum(means), passes=passes,
                rate=len(means) / sum(means), stats={})


def end_to_end(workload: wl.Workload, run: Dict[str, Any],
               setup_s: float) -> Dict[str, float]:
    ops = run["ops"]
    # One-shot latencies are the programs' mean run wall, so a program
    # weighs the same however many of its runs fitted in the time;
    # served latencies are per job.
    if workload.kind == "serve":
        latencies = [op.wall_s for op in ops]
    else:
        latencies = program_means(ops)
    # Outcome ratios weigh each program equally for the same reason.
    groups = by_program(ops)
    decided = statistics.mean(
        sum(op.status in wl.DECIDED for op in g) / len(g) for g in groups)
    reported = sum(statistics.mean(len(op.inverses) for op in g)
                   for g in groups)
    correct = sum(statistics.mean(op.inverses_ok for op in g)
                  for g in groups)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "wall_s": run["wall"],
        "wall_geomean_s": geomean(latencies),
        "jobs_per_s": run["rate"],
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_tail_s": tail(latencies),
        "decided_ratio": decided,
        "inverses_correct_ratio": correct / reported if reported else 1.0,
        "failed_ratio": sum(op.failure is not None for op in ops) / len(ops),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def serve_layer(run: Dict[str, Any]) -> Dict[str, float]:
    ops = [op for op in run["ops"] if op.run_s is not None]
    return {
        "serve.queue_wait_p50_s": statistics.median(
            op.queue_wait_s for op in ops) if ops else 0.0,
        "serve.run_p50_s": statistics.median(
            op.run_s for op in ops) if ops else 0.0,
        "serve.requeues": run["stats"].get("requeues", 0),
    }


def report_ops(ops: List[wl.Op]) -> None:
    wrong = {}
    for op in ops:
        if op.failure is not None:
            print(f"  FAILED {op.program}: {op.failure}", flush=True)
        if op.inverses_ok < len(op.inverses):
            wrong[op.program] = (f"{op.program} ({op.status}): "
                                 f"{len(op.inverses) - op.inverses_ok} of "
                                 f"{len(op.inverses)} reported inverses "
                                 f"fail validation")
    for line in sorted(wrong.values()):
        print("  " + line, flush=True)


def measure_traced(workload: wl.Workload, seed: int, seconds: float,
                   work_dir: str):
    """``measure`` with the layers wrapped; returns (run, span totals).

    A one-shot workload runs whole passes only.  For serve a new server
    is started after wrapping, so its forked workers record spans too
    and fold them into per-worker files."""
    tracer = tracing.Tracer()
    tracer.install()
    session = None
    if workload.kind == "serve":
        tracer.dump_dir = wl.fresh_dir(os.path.join(work_dir, "spans"))
        session = wl.ServeSession(
            workload, wl.fresh_dir(os.path.join(work_dir, "traced")))
        session.start()
    try:
        run = measure(workload, seed, seconds, session, whole_passes=True)
    finally:
        tracer.uninstall()
    parts = [tracer.summary()]
    if tracer.dump_dir is not None:
        parts += tracing.read_worker_dumps(tracer.dump_dir)
    return run, tracing.merge(parts)


def _send_result(sender, fn, args) -> None:
    sender.send(fn(*args))
    sender.close()


def isolated(fn, *args):
    """Run ``fn(*args)`` in a forked child and return its result.

    A traced one-shot run measures twice; forking both measurements from
    the same post-setup parent keeps the second from running on the
    process-level caches the first warmed, so ``trace.overhead_ratio``
    compares two runs that start alike."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_send_result, args=(sender, fn, args))
    proc.start()
    sender.close()
    try:
        return receiver.recv()
    finally:
        proc.join()


def layers_of(workload: wl.Workload, plain: Dict[str, Any],
              traced: Dict[str, Any], totals, checker: wl.Checker
              ) -> Dict[str, float]:
    layers = tracing.layer_metrics(totals)
    if workload.kind == "serve":
        layers.update(serve_layer(traced))
        layers["trace.overhead_ratio"] = plain["rate"] / traced["rate"]
    else:
        # Per pass: every pass does the same work at the fixed PINS
        # seed, so one-shot counts repeat exactly from run to run.
        for name in layers:
            if not name.endswith("_ratio"):
                layers[name] /= traced["passes"]
        layers.update(dict.fromkeys(SERVE_LAYER, 0.0))
        layers["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    layers["validate.s"] = checker.validate_s
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = wl.WORKLOADS[args.workload]
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}
    print("host " + json.dumps(host), flush=True)
    # A traced run measures twice, so each half gets half the time.
    seconds = args.seconds / 2 if args.trace else args.seconds

    work_dir = wl.fresh_dir(os.path.join(ROOT, ".perfbench_work",
                                         str(os.getpid())))
    session = None
    try:
        checker = wl.Checker(ROOT, args.seed)
        setup_s, setup_times, session = setup(workload, work_dir)
        print(f"setup {', '.join(f'{t:.3f}' for t in setup_times)} s",
              flush=True)
        fork = args.trace and workload.kind == "oneshot"
        if fork:
            plain = isolated(measure, workload, args.seed, seconds, None,
                             True)
        else:
            plain = measure(workload, args.seed, seconds, session)
        checker.check(plain["ops"])
        report_ops(plain["ops"])
        e2e = end_to_end(workload, plain, setup_s)
        passes = ("" if workload.kind == "serve"
                  else f", {plain['passes']} whole passes")
        print(f"{args.workload}: {len(plain['ops'])} ops{passes}",
              flush=True)
        samples = (len(plain["ops"]) if workload.kind == "serve"
                   else len(workload.programs))
        for name, value in e2e.items():
            note = (f" (n={samples})"
                    if name == "job_latency_tail_s" else "")
            print(f"  {name} = {value:.6g} {UNITS[name]}{note}", flush=True)
        ops = list(plain["ops"])
        if args.trace:
            traced_args = (workload, args.seed, seconds, work_dir)
            if fork:
                traced, totals = isolated(measure_traced, *traced_args)
            else:
                traced, totals = measure_traced(*traced_args)
            checker.check(traced["ops"])
            report_ops(traced["ops"])
            ops += traced["ops"]
            layers = layers_of(workload, plain, traced, totals, checker)
            if workload.jobs > 1:
                print("  layer numbers are parent-side only: spans in "
                      "forked pool workers are not collected", flush=True)
            metrics = {name: {"value": layers[name], "unit": layer_unit(name)}
                       for name in per_layer_names(workload)}
            for name, entry in metrics.items():
                print(f"  {name} = {entry['value']:.6g} {entry['unit']}",
                      flush=True)
        else:
            metrics = {name: {"value": e2e[name], "unit": UNITS[name]}
                       for name in END_TO_END}
    finally:
        if session is not None:
            session.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it

    failed = sum(op.failure is not None for op in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
