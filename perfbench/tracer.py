"""Layer spans recorded from outside the program.

``Tracer.install()`` wraps the public functions listed in ``LAYERS`` in
place: the defining module or class, plus every loaded ``repro`` module
that imported the same function object by name.  Each call records a
span (parent, layer, start, end, outcome) in flat arrays; a span's id is
its index, unique within the benchmark run.  Spans stay in memory until
``summary()`` folds them into additive per-layer totals.
Nothing under ``src/`` is edited, and an uninstalled tracer costs
nothing.

Self time is a span's duration minus the durations of its direct
children; the per-layer metrics are derived from the totals in
``layer_metrics()``.

In a forked serve worker the spans of each job are folded and appended
to ``<dump_dir>/worker-<pid>.jsonl`` when the job's ``run_pins`` returns,
so the parent can merge worker-side layer time after the fleet stops.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional


def _blocked(result: Any, args: tuple) -> int:
    return 1 if result is False else 0


def _decided(result: Any, args: tuple) -> int:
    return 0 if result is None else 1


def _solutions(result: Any, args: tuple) -> int:
    return len(result)


# (layer, module, qualified name, outcome).  The outcome maps a call's
# result to the integer stored with its span: 1 for the useful outcome
# of a screen/probe, a count for solve().
LAYERS = [
    ("pins.run", "repro.pins.algorithm", "run_pins", None),
    ("setup.template", "repro.pins.algorithm", "build_template", None),
    ("setup.fwdbwd", "repro.analysis.fwdbwd", "analyze_unknowns", None),
    ("setup.regions", "repro.analysis.regions", "analyze_task", None),
    ("solve", "repro.pins.solve", "solve", _solutions),
    ("sat", "repro.smt.sat", "SatSolver.solve", None),
    ("checker.replay", "repro.pins.checker", "ConstraintChecker.screen",
     _blocked),
    ("checker.absint", "repro.pins.checker",
     "ConstraintChecker.absint_screen", _decided),
    ("checker.linear", "repro.pins.checker",
     "ConstraintChecker.fwdbwd_screen", _decided),
    ("checker.check", "repro.pins.checker", "ConstraintChecker.check", None),
    ("absint.saturate", "repro.analysis.absint", "saturate", None),
    ("linear.unsat", "repro.analysis.linear", "linear_unsat", None),
    ("smt.check", "repro.smt.solver", "Solver.check", None),
    ("smt.warm", "repro.smt.incremental", "ContextPool.try_status", _decided),
    ("lia.check", "repro.smt.lia", "LiaSolver.check", None),
    ("pickone", "repro.pins.pickone", "pick_one", None),
    ("pickone.path_infeasible", "repro.pins.checker",
     "ConstraintChecker.path_infeasible", None),
    ("symexec.find_path", "repro.symexec.executor",
     "SymbolicExecutor.find_path", None),
    ("symexec.feasible", "repro.symexec.executor",
     "FeasibilityOracle.feasible_env", None),
    ("cache.lookup", "repro.perf.cache", "QueryCache.lookup", _decided),
    ("pool.map", "repro.perf.pool", "WorkerPool.map_ordered", None),
    ("pool.map", "repro.perf.pool", "PersistentWorkerPool.map_ordered", None),
    ("pool.sync", "repro.perf.pool", "PersistentWorkerPool.sync", None),
]

ROOT = "pins.run"
LAYER_NAMES = sorted({layer for layer, *_ in LAYERS})


class Tracer:
    """In-memory span recorder wrapping the functions in ``LAYERS``."""

    def __init__(self) -> None:
        self.names = list(LAYER_NAMES)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []
        self.dump_dir: Optional[str] = None
        self._clear()

    def _clear(self) -> None:
        self.parent = array("q")
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("q")
        self.aux = array("q")
        # Hashes of absint.saturate arguments seen in the current PINS run.
        self._saturate_seen: set = set()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable,
              outcome: Optional[Callable[[Any, tuple], int]]) -> Callable:
        idx = self._index[layer]
        aux_of = self._aux_function(layer)
        root = layer == ROOT
        solve_layer = layer == "solve"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.layer.append(idx)
            self.start.append(0.0)
            self.end.append(0.0)
            self.outcome.append(0)
            self.aux.append(aux_of(args, kwargs) if aux_of else 0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self.start[sid] = t0
                stack.pop()
            if outcome is not None:
                self.outcome[sid] = outcome(result, args)
            if solve_layer:
                self.aux[sid] = args[5].candidates_tried - self.aux[sid]
            if root and not stack and self.dump_dir is not None:
                self._dump_worker_job()
            return result

        return traced

    def _aux_function(self, layer: str):
        if layer == "solve":
            # SolveStats is solve()'s sixth argument; aux holds the
            # candidates tried during the call (start value until return).
            return lambda args, kwargs: args[5].candidates_tried
        if layer == "absint.saturate":
            return self._saturate_repeat
        if layer == "pool.map":
            return lambda args, kwargs: len(args[1])
        if layer == ROOT:
            return self._new_run
        return None

    def _new_run(self, args: tuple, kwargs: dict) -> int:
        if not self._stack():
            self._saturate_seen = set()
        return 0

    def _saturate_repeat(self, args: tuple, kwargs: dict) -> int:
        env = args[2] if len(args) > 2 else kwargs.get("env")
        if env is not None:
            return 0  # a caller-supplied start state: never a repeat
        rounds = args[3] if len(args) > 3 else kwargs.get("rounds", 3)
        key = hash((tuple(args[0]), rounds))
        if key in self._saturate_seen:
            return 1
        self._saturate_seen.add(key)
        return 0

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` (idempotent per tracer)."""
        if self._restore:
            return
        for layer, module_name, qualname, outcome in LAYERS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(layer, original, outcome))
                self._restore.append(
                    lambda o=owner, a=attr, f=original: setattr(o, a, f))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(layer, original, outcome)
            # Rebind the function wherever a repro module imported it
            # by name, so ``from .x import f`` call sites see the span.
            for name, mod in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append(
                            lambda m=mod, a=attr, f=original: setattr(m, a, f))
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        for restore in reversed(self._restore):
            restore()
        self._restore = []

    # -- forked workers -----------------------------------------------------

    def _after_fork(self) -> None:
        self._clear()
        self._local = threading.local()

    def _dump_worker_job(self) -> None:
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.summary()) + "\n")
        self._clear()

    # -- folding ------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Additive per-layer totals over every finished span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        warm_answered = [False] * n
        names = self.names
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if names[self.layer[i]] == "smt.warm" and self.outcome[i]:
                    warm_answered[p] = True
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            name = names[self.layer[i]]
            entry = out.setdefault(name, dict(calls=0, total_s=0.0,
                                              self_s=0.0, outcome=0, aux=0))
            entry["calls"] += 1
            entry["total_s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
            entry["outcome"] += self.outcome[i]
            entry["aux"] += self.aux[i]
            p = self.parent[i]
            if name == "sat" and p >= 0 and names[self.layer[p]] == "solve":
                extra = out.setdefault("sat.indicator",
                                       dict(calls=0, total_s=0.0))
                extra["calls"] += 1
                extra["total_s"] += dur[i]
            if name == "smt.check" and not warm_answered[i]:
                extra = out.setdefault("smt.fresh", dict(calls=0, total_s=0.0))
                extra["calls"] += 1
                extra["total_s"] += dur[i]
        return out


def merge(summaries: List[Dict[str, Dict[str, float]]]
          ) -> Dict[str, Dict[str, float]]:
    """Sum per-layer totals from several processes or jobs."""
    out: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            slot = out.setdefault(name, {k: 0 for k in entry})
            for key, value in entry.items():
                slot[key] = slot.get(key, 0) + value
    return out


def read_worker_dumps(dump_dir: str) -> List[Dict[str, Dict[str, float]]]:
    out = []
    for fname in sorted(os.listdir(dump_dir)):
        if fname.startswith("worker-") and fname.endswith(".jsonl"):
            with open(os.path.join(dump_dir, fname), encoding="utf-8") as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
    return out


def layer_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer metrics (name -> value) from merged span totals."""
    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    m["setup.template_s"] = get("setup.template", "total_s")
    m["setup.fwdbwd_s"] = get("setup.fwdbwd", "total_s")
    m["setup.regions_s"] = get("setup.regions", "total_s")
    m["solve.calls"] = get("solve", "calls")
    m["solve.self_s"] = get("solve", "self_s")
    m["solve.candidates"] = get("solve", "aux")
    m["solve.accept_ratio"] = ratio(get("solve", "outcome"),
                                    get("solve", "aux"))
    m["sat.indicator_calls"] = get("sat.indicator", "calls")
    m["sat.indicator_s"] = get("sat.indicator", "total_s")
    for tier, layer, ratio_name in (
            ("replay", "checker.replay", "block_ratio"),
            ("absint", "checker.absint", "decided_ratio"),
            ("linear", "checker.linear", "decided_ratio")):
        m[f"checker.{tier}_calls"] = get(layer, "calls")
        m[f"checker.{tier}_s"] = get(layer, "total_s")
        m[f"checker.{tier}_{ratio_name}"] = ratio(get(layer, "outcome"),
                                                  get(layer, "calls"))
    m["checker.check_calls"] = get("checker.check", "calls")
    m["checker.check_s"] = get("checker.check", "total_s")
    m["checker.smt_tier_s"] = get("checker.check", "self_s")
    m["absint.saturate_calls"] = get("absint.saturate", "calls")
    m["absint.saturate_s"] = get("absint.saturate", "total_s")
    m["absint.saturate_repeat_ratio"] = ratio(get("absint.saturate", "aux"),
                                              get("absint.saturate", "calls"))
    m["linear.unsat_calls"] = get("linear.unsat", "calls")
    m["linear.unsat_s"] = get("linear.unsat", "total_s")
    m["smt.queries"] = get("smt.check", "calls")
    m["smt.check_s"] = get("smt.check", "total_s")
    m["smt.warm_calls"] = get("smt.warm", "calls")
    m["smt.warm_s"] = get("smt.warm", "total_s")
    m["smt.warm_answered_ratio"] = ratio(get("smt.warm", "outcome"),
                                         get("smt.warm", "calls"))
    m["smt.fresh_s"] = get("smt.fresh", "total_s")
    m["lia.check_calls"] = get("lia.check", "calls")
    m["lia.check_s"] = get("lia.check", "total_s")
    m["pickone.s"] = get("pickone", "total_s")
    m["pickone.path_infeasible_calls"] = get("pickone.path_infeasible",
                                             "calls")
    m["symexec.find_path_calls"] = get("symexec.find_path", "calls")
    m["symexec.find_path_s"] = get("symexec.find_path", "total_s")
    m["symexec.feasible_calls"] = get("symexec.feasible", "calls")
    m["symexec.feasible_s"] = get("symexec.feasible", "total_s")
    m["cache.lookup_calls"] = get("cache.lookup", "calls")
    m["cache.hit_ratio"] = ratio(get("cache.lookup", "outcome"),
                                 get("cache.lookup", "calls"))
    m["pool.map_calls"] = get("pool.map", "calls")
    m["pool.tasks"] = get("pool.map", "aux")
    m["pool.map_s"] = get("pool.map", "total_s")
    m["pool.sync_s"] = get("pool.sync", "total_s")
    root_total = get(ROOT, "total_s")
    m["layers.coverage_ratio"] = ratio(root_total - get(ROOT, "self_s"),
                                       root_total)
    return m
