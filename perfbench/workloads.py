"""The benchmark's workloads, driven through the public API.

Every operation (one ``run_pins`` call, or one served job) becomes an
``Op``.  ``Checker`` then judges each one independently of the program:
every reported inverse is round-tripped by the concrete interpreter
(``repro.validate.validate_inverse``) on the task's initial inputs plus
a seeded random pool, and the inverse digest must equal the
``full-suite`` record in ``BENCH_pins.json``.  Failures are counted,
never raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

# The PINS configuration of every workload.  Budgets are each program's
# profile budget (``repro.suite.resolved_budget``), unchanged.
PINS_CONFIG = dict(m=10, max_iterations=30)
# PinsConfig.seed of every run: the seed the full-suite digests were
# recorded at.  It is held fixed because it sets how much search a
# program needs (runlength takes 13 s to 29 s over seeds 1-4), which
# would swamp every timing; the workload seed varies the order of work
# and the validation pool instead.
PINS_SEED = 1
REFERENCE_LABEL = "full-suite"
VALIDATION_POOL = 30
DECIDED = ("stabilized", "paths_exhausted")

SMALL = ["delta_encode", "lu_decomp", "pkt_wrapper", "serialize", "sumi",
         "uuencode", "vector_reverse", "vector_rotate", "vector_scale",
         "vector_shift"]
SERVE_MIX = ["sumi", "vector_shift", "vector_scale", "serialize",
             "vector_rotate", "delta_encode"]
PARALLEL = ["lu_decomp", "pkt_wrapper", "vector_shift", "vector_reverse",
            "delta_encode"]


@dataclass
class Workload:
    name: str
    kind: str  # "oneshot" | "serve"
    programs: List[str]
    jobs: int = 1
    workers: Optional[str] = None
    serve_workers: int = 2
    outstanding: int = 4


WORKLOADS = {
    "oneshot-small": Workload("oneshot-small", "oneshot", SMALL),
    "oneshot-runlength": Workload("oneshot-runlength", "oneshot",
                                  ["runlength"]),
    "serve-mixed": Workload("serve-mixed", "serve", SERVE_MIX),
    "parallel-2w": Workload("parallel-2w", "oneshot", PARALLEL, jobs=2,
                            workers="persistent"),
}


@dataclass
class Op:
    """One synthesis run or served job and what it reported."""

    program: str
    wall_s: float = 0.0
    status: str = "raised"
    digest: Optional[str] = None
    inverses: List[str] = field(default_factory=list)
    error: Optional[str] = None
    submitted_at: Optional[float] = None
    finished_at: Optional[float] = None
    queue_wait_s: Optional[float] = None
    run_s: Optional[float] = None
    # Filled in by Checker.check.
    inverses_ok: int = 0
    failure: Optional[str] = None


def reference_digests(root: str) -> Dict[str, str]:
    path = os.path.join(root, "BENCH_pins.json")
    with open(path, encoding="utf-8") as fh:
        label = json.load(fh)["labels"][REFERENCE_LABEL]
    if label.get("seed") != PINS_SEED:
        raise ValueError(f"{REFERENCE_LABEL} was recorded at seed "
                         f"{label.get('seed')}, not {PINS_SEED}")
    return {name: rec["inverse_digest"]
            for name, rec in label["benchmarks"].items()}


def load_tasks(programs: List[str]) -> None:
    from repro.suite import get_benchmark

    for name in programs:
        get_benchmark(name)


def ordered(programs: List[str], seed: int) -> List[str]:
    """The workload's programs in a seed-chosen order."""
    out = list(programs)
    random.Random(seed).shuffle(out)
    return out


# -- one-shot ---------------------------------------------------------------

def run_oneshot(workload: Workload, seed: int, seconds: float,
                whole_passes: bool = False) -> Tuple[List[Op], int]:
    """Serial ``run_pins`` passes over the workload's programs.

    Returns the ops and the number of whole passes.  The first pass
    always completes.  After it, by default another run starts only
    while ``seconds`` have not yet elapsed, so the last pass may be
    partial; with ``whole_passes`` another pass starts only if it would
    end within ``seconds`` at the last pass's pace.
    """
    ops: List[Op] = []
    order = ordered(workload.programs, seed)
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for name in order:
            if passes and not whole_passes and time.perf_counter() >= deadline:
                return ops, passes
            ops.append(run_oneshot_op(workload, name))
        passes += 1
        now = time.perf_counter()
        pace = now - pass_start if whole_passes else 0.0
        if now + pace >= deadline:
            return ops, passes


def run_oneshot_op(workload: Workload, name: str) -> Op:
    """One ``run_pins`` call on ``name``, timed."""
    from repro.lang.pretty import pretty_program
    from repro.pins import PinsConfig, run_pins
    from repro.suite import get_benchmark, resolved_budget

    task = get_benchmark(name).task
    config = PinsConfig(seed=PINS_SEED, budget=resolved_budget(name),
                        jobs=workload.jobs, workers=workload.workers,
                        **PINS_CONFIG)
    op = Op(name)
    t0 = time.perf_counter()
    try:
        result = run_pins(task, config)
    except Exception:  # noqa: BLE001 - a raising run is a failed op
        op.wall_s = time.perf_counter() - t0
        op.error = traceback.format_exc(limit=3)
    else:
        op.wall_s = time.perf_counter() - t0
        op.status = result.status
        op.digest = result.inverse_digest()
        op.inverses = [pretty_program(p)
                       for p in result.inverse_programs()]
    return op


# -- served -----------------------------------------------------------------

class ServeSession:
    """A ``repro.serve`` instance in a thread, with a fresh cache dir."""

    def __init__(self, workload: Workload, work_dir: str):
        from repro.serve import ServeConfig, ServerThread

        cache_dir = os.path.join(work_dir, "cache")
        os.makedirs(cache_dir)
        self.thread = ServerThread(ServeConfig(
            workers=workload.serve_workers, cache_dir=cache_dir))
        self.workers = workload.serve_workers
        self.client = None

    def start(self, timeout: float = 60.0) -> None:
        """Start the server and wait until /healthz reports the fleet ready."""
        self.client = self.thread.start()
        deadline = time.monotonic() + timeout
        while self.client.health()["workers"] < self.workers:
            if time.monotonic() > deadline:
                raise TimeoutError("serve fleet not ready")
            time.sleep(0.005)

    def stop(self) -> None:
        self.thread.stop()


def run_serve_loop(session: ServeSession, workload: Workload, seed: int,
                   seconds: float, poll_s: float = 0.025
                   ) -> Tuple[List[Op], Dict[str, Any]]:
    """Closed loop: keep ``outstanding`` jobs in flight for ``seconds``.

    Submission cycles over the workload's programs in a seed-chosen
    order; once the time is up no job is submitted and the loop waits
    for the jobs in flight.  Latency, queue wait and run time come from
    the server's own timestamps.
    """
    client = session.client
    cycle = ordered(workload.programs, seed)
    job_config = dict(seed=PINS_SEED, **PINS_CONFIG)
    in_flight = set()
    finished: List[Dict[str, Any]] = []
    submitted = 0
    deadline = time.monotonic() + seconds

    def submit() -> None:
        nonlocal submitted
        program = cycle[submitted % len(cycle)]
        in_flight.add(client.submit(program, config=job_config)["id"])
        submitted += 1

    for _ in range(workload.outstanding):
        submit()
    while in_flight:
        time.sleep(poll_s)
        done = [s for s in client.jobs()["jobs"]
                if s["id"] in in_flight and s["state"] in ("done", "failed")]
        for summary in done:
            in_flight.remove(summary["id"])
            finished.append(client.result(summary["id"]))
            if time.monotonic() < deadline:
                submit()
    stats = client.stats()

    ops = []
    for final in finished:
        op = Op(final["program"])
        op.submitted_at = final["submitted_at"]
        op.finished_at = final["finished_at"]
        op.wall_s = op.finished_at - op.submitted_at
        started = final.get("started_at")
        if started is not None:  # None when the job failed undispatched
            op.queue_wait_s = started - op.submitted_at
            op.run_s = op.finished_at - started
        record = final.get("result")
        if final["state"] != "done" or record is None:
            op.error = str(final.get("error"))
        else:
            op.status = record["status"]
            op.digest = record["inverse_digest"]
            op.inverses = list(record["inverses"])
        ops.append(op)
    return ops, stats


# -- checking ---------------------------------------------------------------

def _digest_of(texts: List[str]) -> str:
    """``PinsResult.inverse_digest`` recomputed from the printed inverses."""
    return hashlib.sha256("\n===\n".join(sorted(texts)).encode()).hexdigest()


class Checker:
    """Independent judge of every op; remembers verdicts per inverse.

    An op fails when it raised, ended ``no_solution``, drifted from the
    reference digest, or ended decided (stabilized, paths exhausted)
    with no reported inverse that validates.  PINS reports a candidate
    *set*: at the recorded seed sumi, serialize and lu_decomp report a
    correct inverse next to wrong ones, and budget-exhausted runs report
    best-so-far candidates that make no claim.  Every candidate is still
    validated; the share that pass is ``inverses_correct_ratio``.
    """

    def __init__(self, root: str, seed: int):
        self.references = reference_digests(root)
        self.seed = seed
        self._verdicts: Dict[Any, bool] = {}
        self.validate_s = 0.0

    def _valid(self, program: str, text: str) -> bool:
        key = (program, text)
        if key not in self._verdicts:
            t0 = time.perf_counter()
            self._verdicts[key] = self._round_trips(program, text)
            self.validate_s += time.perf_counter() - t0
        return self._verdicts[key]

    def _round_trips(self, program: str, text: str) -> bool:
        """True when the printed inverse round-trips every pool input the
        program accepts, and at least one.  Stops at the first failing
        input, so a wrong candidate that loops costs one fuel budget."""
        from repro.lang.parser import parse_program
        from repro.suite import get_benchmark
        from repro.validate import random_pool, validate_inverse

        task = get_benchmark(program).task
        spec = task.derived_spec({**task.program.decls, **task.inverse.decls})
        pool = list(task.initial_inputs)
        if task.input_gen is not None:
            pool += random_pool(task.input_gen, VALIDATION_POOL,
                                seed=self.seed)
        checked = 0
        try:
            inverse = parse_program(text)
            for inputs in pool:
                report = validate_inverse(task.program, inverse, spec,
                                          [inputs], task.externs,
                                          precondition=task.precondition)
                if report.failures:
                    return False
                checked += report.passed
        except Exception:  # noqa: BLE001 - an inverse that cannot run is wrong
            return False
        return checked > 0

    def check(self, ops: List[Op]) -> None:
        for op in ops:
            if op.error is not None:
                op.failure = "raised: " + op.error.strip().splitlines()[-1]
                continue
            op.inverses_ok = sum(self._valid(op.program, text)
                                 for text in op.inverses)
            reasons = []
            if op.status == "no_solution":
                reasons.append("no_solution")
            if op.status in DECIDED and not op.inverses_ok:
                reasons.append(f"{op.status} but none of its "
                               f"{len(op.inverses)} inverses validates")
            if _digest_of(op.inverses) != op.digest:
                reasons.append("digest does not match the reported inverses")
            reference = self.references.get(op.program)
            if op.digest != reference:
                reasons.append(f"digest {op.digest[:12]} drifted from "
                               f"{REFERENCE_LABEL} {str(reference)[:12]}")
            op.failure = "; ".join(reasons) or None


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
