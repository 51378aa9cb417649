"""Algorithm 1: the PINS main loop.

::

    F := {};  C := terminate(P)
    while true:
        sols := solve(C, Phi_p, Phi_e, m)
        if sols = {}:            return NoSolution
        if stabilized(sols, m):  return sols
        S := pickOne(sols)
        (f, V') := symbolically execute P guided by S, avoiding F
        F := F + {f};  C := C + safepath(f, V', spec)

Instrumentation mirrors the paper's Tables 2 and 4: iteration counts,
search-space size, wall-clock split across symbolic execution / SMT
reduction / SAT solving / pickOne, and the size of the SAT formulas.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .. import obs
from ..concrete.testgen import freeze_input
from ..lang import ast
from ..lang.transform import compose, desugar_program
from ..resil import BudgetExhausted, resolve_budget
from ..resil.faults import install_plan, resolve_fault_plan
from ..symexec.executor import ExecConfig, SymbolicExecutor
from ..symexec.paths import Path
from .checker import ConstraintChecker
from .constraints import Constraint, safepath
from .pickone import pick_one, pick_random
from .solve import RANK_PREFIX, SolveSession, SolveStats, solve
from .spec import InversionSpec
from .task import SynthesisTask
from .template import HoleSpace, Solution, SynthesisTemplate
from .termination import (
    derive_ranking_candidates,
    init_constraints,
    invariant_hole_name,
    rank_hole_name,
    template_loops,
    terminate,
)

NO_SOLUTION = "no_solution"
STABILIZED = "stabilized"
PATHS_EXHAUSTED = "paths_exhausted"
MAX_ITERATIONS = "max_iterations"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class PinsConfig:
    """Tunables for a PINS run; defaults follow the paper (m = 10)."""

    m: int = 10
    max_iterations: int = 30
    seed: int = 0
    initial_tests: int = 6
    use_infeasible_heuristic: bool = True
    max_unroll: Optional[int] = None  # None: take the task's setting
    max_backtracks: int = 20000
    solver_conflict_budget: int = 100_000
    max_candidates_per_solve: int = 50_000
    static_pruning: Optional[bool] = None
    """Use the dataflow analyses to shrink hole candidate sets and skip
    statically-infeasible symexec branches.  ``None`` defers to the
    ``REPRO_STATIC_PRUNING`` env var (default: enabled)."""
    absint: Optional[bool] = None
    """Use the abstract-interpretation layer: ⊥-guard pruning in the
    symbolic executor, the abstract constraint screen in the checker, and
    abstract path-infeasibility in pickOne.  ``None`` defers to the
    ``REPRO_ABSINT`` env var, which itself defaults to the static-pruning
    setting (so fully-unpruned baselines stay unpruned).  The cascade
    gates speed layers only: counterexample replay and its downgrade
    stay on whatever this resolves to."""
    fwdbwd: Optional[bool] = None
    """Use the forward-backward linear screen: decide constraint checks
    with the linear fold / Fourier–Motzkin engine before SMT (HOLDS-only,
    so the synthesis trajectory is bit-identical).  ``None`` defers to
    the ``REPRO_FWDBWD`` env var, which itself follows the absint switch
    (so fully-unpruned baselines stay unpruned)."""
    trace: Optional[str] = None
    """Write a JSONL observability trace of this run to the given path
    (appending).  ``None`` defers to the ``REPRO_TRACE`` env var; when
    neither is set the no-op recorder is used and tracing costs nothing.
    See :mod:`repro.obs`."""
    jobs: Optional[int] = None
    """Worker processes for independent SMT probes (constraint checks,
    pickOne scoring, avoid-set feasibility).  ``None`` defers to the
    ``REPRO_JOBS`` env var; 1 (the default) runs fully serial.  Parallel
    runs are bit-identical to serial ones — results are folded in
    submission order (DESIGN.md §10)."""
    workers: Optional[str] = None
    """Worker strategy when ``jobs > 1``: ``"persistent"`` forks one
    long-lived fleet per run (workers keep their interned term graph,
    warm incremental SMT contexts, and query-cache memory tier across
    iterations), ``"fork"`` forks a fresh pool per iteration (the
    historical behaviour), ``"serial"`` disables the pool regardless of
    ``jobs``.  ``None`` defers to the ``REPRO_WORKERS`` env var
    (default: ``"fork"``).  All strategies produce bit-identical
    results; only wall time differs."""
    incremental: Optional[bool] = None
    """Use assumption-based incremental SMT contexts: the checker keeps
    a warm solver per query family (shared hole-free base) and answers
    each candidate query by asserting only the delta under a fresh
    assumption literal, retaining learned clauses and theory lemmas
    across queries.  Status-only: any query needing a model still runs
    the one-shot path, so counterexamples — and hence the synthesis
    trajectory and inverse digests — are bit-identical with the feature
    on or off.  ``None`` defers to the ``REPRO_INCREMENTAL`` env var
    (default: enabled)."""
    query_cache: Optional[str] = None
    """SMT query-result cache spec: ``"mem"`` for the in-memory tier
    only, a file/directory path to add the on-disk JSONL tier for
    cross-run reuse, ``"0"`` to disable.  ``None`` defers to the
    ``REPRO_QUERY_CACHE`` env var (default: disabled).  Cached ``sat``
    answers re-verify their model against the live query before being
    served; ``unknown`` is never cached.  See :mod:`repro.perf.cache`."""
    budget: Optional[object] = None
    """Resource budget for the whole run: a :class:`repro.resil.Budget`,
    a spec string like ``"wall=2.5;smt=500;sat=100000;paths=50"``, or
    ``None`` to defer to the ``REPRO_BUDGET`` env var (default:
    unbudgeted).  On exhaustion the run degrades to the best solution
    set seen so far with status ``budget_exhausted`` — it never raises
    out of :func:`run_pins`.  See :mod:`repro.resil.budget`."""
    faults: Optional[object] = None
    """Deterministic fault-injection plan: a
    :class:`repro.resil.faults.FaultPlan`, a spec string like
    ``"smt.timeout@3;pool.worker_crash@1"``, or ``None`` to defer to the
    ``REPRO_FAULTS`` env var (default: no injection).  Installed for the
    run's duration with per-site hit counters starting at zero, then
    the previously active plan (if any) is restored."""
    pool_task_timeout: Optional[float] = None
    """Seconds a parallel probe may run before the worker pool declares
    its worker wedged and degrades the whole batch to serial
    re-execution.  ``None`` defers to the ``REPRO_POOL_TIMEOUT`` env
    var (default: no timeout — matching pre-resilience behaviour)."""
    demote_unknowns: Optional[int] = 3
    """Demote (non-persistently block) a candidate after this many
    UNKNOWN constraint checks, so repeated SMT timeouts on a single
    candidate cannot wedge ``solve()`` forever.  ``None`` disables
    demotion."""
    inc_context_pool: Optional[object] = None
    """An externally-owned :class:`repro.smt.incremental.ContextPool`
    for the run's checker to draw warm incremental contexts from.  A
    long-lived host (a ``repro.serve`` worker) passes the same pool to
    every run so contexts — and the lemmas they retain — survive across
    jobs; ``None`` (the default) gives each run a fresh pool.  Ignored
    when ``incremental`` resolves to off."""


@dataclass
class PinsStats:
    iterations: int = 0
    paths_explored: int = 0
    search_space_log2: float = 0.0
    num_solutions: int = 0
    tests_generated: int = 0
    time_symexec: float = 0.0
    time_smt_reduction: float = 0.0
    time_sat: float = 0.0
    time_pickone: float = 0.0
    time_total: float = 0.0
    sat_vars: int = 0
    sat_clauses: int = 0
    candidates_tried: int = 0
    blocked_by_screen: int = 0
    blocked_by_check: int = 0
    indicators_pruned: int = 0
    symexec_smt_calls: int = 0
    symexec_const_prunes: int = 0
    symexec_absint_prunes: int = 0
    absint_screen_holds: int = 0
    absint_screen_refutes: int = 0
    fwdbwd_screen_holds: int = 0
    checker_smt_checks: int = 0
    smt_cache_hits: int = 0
    smt_cache_misses: int = 0
    candidates_demoted: int = 0
    budget_exhausted: str = ""
    """Reason the run's budget tripped (e.g. ``"wall"``, ``"smt"``);
    empty when the run completed within budget (or had none)."""

    def breakdown(self) -> Dict[str, float]:
        """Fractions of total time per phase (Table 4)."""
        total = max(self.time_total, 1e-9)
        return {
            "symexec": self.time_symexec / total,
            "smt_reduction": self.time_smt_reduction / total,
            "sat": self.time_sat / total,
            "pickone": self.time_pickone / total,
        }


class StatsInconsistency(AssertionError):
    """A :class:`PinsStats` field disagrees with the obs counter it is
    supposed to mirror (the two are updated at distinct call sites)."""


STATS_COUNTER_MAP = (
    ("iterations", "pins.iteration"),
    ("paths_explored", "pins.path"),
    ("candidates_tried", "solve.candidate"),
    ("blocked_by_screen", "solve.blocked_screen"),
    ("blocked_by_check", "solve.blocked_check"),
    ("symexec_smt_calls", "symexec.smt_query"),
    ("symexec_const_prunes", "symexec.const_prune"),
    ("symexec_absint_prunes", "symexec.absint_prune"),
    ("absint_screen_holds", "solve.absint_hold"),
    ("absint_screen_refutes", "solve.absint_refute"),
    ("fwdbwd_screen_holds", "solve.fwdbwd_hold"),
    ("candidates_demoted", "solve.demoted"),
)
"""(PinsStats attribute, obs counter name) pairs that must agree at the
end of a run: the left side is accumulated by the legacy stats plumbing,
the right side by the obs instrumentation."""


def check_stats_invariants(stats: PinsStats, metrics: obs.Metrics) -> None:
    """Assert that ``stats`` is consistent with the run's obs counters.

    Runs automatically at the end of :func:`run_pins` whenever tracing is
    enabled (``REPRO_TRACE`` / ``PinsConfig.trace``), so any counter drift
    between the two accounting paths fails loudly instead of silently
    skewing the experiment tables.  Raises :class:`StatsInconsistency`.
    """
    for attr, counter in STATS_COUNTER_MAP:
        expected = metrics.counter(counter)
        actual = getattr(stats, attr)
        if actual != expected:
            raise StatsInconsistency(
                f"PinsStats.{attr} = {actual} but obs counter "
                f"{counter!r} = {expected}")
    blocked = stats.blocked_by_screen + stats.blocked_by_check
    if stats.candidates_tried < blocked:
        raise StatsInconsistency(
            f"candidates_tried = {stats.candidates_tried} < blocked "
            f"candidates {blocked}")
    phase_sum = (stats.time_symexec + stats.time_smt_reduction
                 + stats.time_sat + stats.time_pickone)
    if phase_sum > stats.time_total * 1.01 + 1e-6:
        raise StatsInconsistency(
            f"phase times sum to {phase_sum:.6f}s, exceeding total "
            f"{stats.time_total:.6f}s")


@dataclass
class PinsResult:
    status: str
    task: SynthesisTask
    template: SynthesisTemplate
    solutions: List[Solution]
    explored: List[Path]
    tests: List[Dict[str, Any]]
    stats: PinsStats
    metrics: Optional[obs.Metrics] = None
    """The run's raw observability aggregate (always present for runs
    made through :func:`run_pins`); ``stats`` is derived from it."""

    def inverse_programs(self) -> List[ast.Program]:
        return [self.template.instantiate(s) for s in self.solutions]

    def inverse_digest(self) -> str:
        """sha256 over the pretty-printed inverse programs (sorted).

        Sorted so the digest identifies the *set* of synthesized
        inverses; two runs agree iff they stabilized to identical
        programs.  This is the digest the bench harness records and the
        golden-baseline tests pin.
        """
        import hashlib

        from ..lang.pretty import pretty_program

        texts = sorted(pretty_program(p) for p in self.inverse_programs())
        return hashlib.sha256("\n===\n".join(texts).encode()).hexdigest()

    @property
    def succeeded(self) -> bool:
        return bool(self.solutions)


def build_template(task: SynthesisTask,
                   static_pruning: Optional[bool] = None) -> SynthesisTemplate:
    """Assemble the hole space (including ranking holes) for a task.

    With static pruning enabled (the default; see
    :func:`repro.analysis.prune.static_pruning_enabled`), the dataflow
    analyses drop per-hole candidates that read undefined scalars or
    cannot be well-sorted at any of the hole's sites, shrinking the SAT
    indicator space before ``solve()`` ever runs.
    """
    from ..analysis.prune import prune_hole_space, static_pruning_enabled

    composed = compose(task.program, task.inverse)
    desugared = desugar_program(composed)
    extern_sorts = {name: task.externs.get(name).result_sort
                    for name in task.externs.names()}
    space = HoleSpace.build(
        task.inverse.body, task.phi_e, task.phi_p,
        expr_overrides=task.expr_overrides,
        pred_overrides=task.pred_overrides,
        max_pred_conj=task.max_pred_conj,
        decls=desugared.decls,
        extern_sorts=extern_sorts,
    )
    prune_report = None
    if static_pruning_enabled(static_pruning):
        entry_defined = (frozenset(task.program.inputs)
                         | ast.assigned_vars(task.program.body))
        space, prune_report = prune_hole_space(
            space, task.inverse.body, desugared.decls,
            extern_sorts=task.externs, entry_defined=entry_defined)
    ranks = derive_ranking_candidates(task.phi_p)
    rank_holes = {}
    inv_holes = {}
    for loop_id, _guard, _body in template_loops(desugared.body):
        rname = rank_hole_name(loop_id)
        cands = tuple(task.rank_overrides.get(rname, ranks))
        if not cands:
            cands = (ast.n(0),)
        rank_holes[rname] = cands
        iname = invariant_hole_name(loop_id)
        inv_holes[iname] = tuple(task.pred_overrides.get(iname, task.phi_p))
    return SynthesisTemplate(task.program, task.inverse,
                             space.with_rank_holes(rank_holes, inv_holes),
                             prune_report=prune_report)


def run_pins(task: SynthesisTask, config: Optional[PinsConfig] = None) -> PinsResult:
    """Run PINS on a synthesis task.

    Each run is wrapped in a ``pins.run`` observability span; a JSONL
    trace recorder is installed for the run's duration when
    ``config.trace`` is set (or ``REPRO_TRACE``, unless a recorder is
    already active — e.g. one installed by the benchmark harness).
    """
    config = config or PinsConfig()
    restore: Optional[obs.Recorder] = None
    run_recorder: Optional[obs.JsonlRecorder] = None
    if config.trace:
        run_recorder = obs.JsonlRecorder(config.trace)
        restore = obs.set_recorder(run_recorder)
    elif not obs.tracing_enabled():
        run_recorder = obs.recorder_from_env()
        if run_recorder is not None:
            restore = obs.set_recorder(run_recorder)
    # Each run gets a fresh fault plan (hit counters at zero) so the
    # same spec injects at the same sites on every run; a plan someone
    # installed directly (e.g. a test) is left alone when no spec is
    # configured, and restored afterwards when one is.
    fault_plan = resolve_fault_plan(config.faults)
    prev_plan = install_plan(fault_plan) if fault_plan is not None else None
    metrics = obs.Metrics()
    try:
        with obs.use_metrics(metrics), obs.span("pins.run"):
            return _run_pins(task, config, metrics)
    finally:
        if fault_plan is not None:
            install_plan(prev_plan)
        if restore is not None:
            obs.set_recorder(restore)
            assert run_recorder is not None
            run_recorder.close()


def _run_pins(task: SynthesisTask, config: PinsConfig,
              metrics: obs.Metrics) -> PinsResult:
    from ..perf import (PerfContext, PersistentWorkerPool, WorkerPool,
                        query_cache_for, resolve_jobs, resolve_workers)

    rng = random.Random(config.seed)
    started = time.perf_counter()
    budget = resolve_budget(config.budget)
    if budget is not None:
        budget.start()

    with obs.span("pins.setup"):
        composed = compose(task.program, task.inverse)
        desugared = desugar_program(composed)
        template = build_template(task, static_pruning=config.static_pruning)
        spec = task.derived_spec(desugared.decls)

        query_cache = query_cache_for(config.query_cache, task.cache_slug())
        absint_on = config.absint
        if absint_on is None and config.static_pruning is not None:
            # An explicit static-pruning override cascades to absint so
            # `static_pruning=False` yields a fully-unpruned baseline.
            absint_on = config.static_pruning
        checker = ConstraintChecker(
            desugared.decls, task.externs, task.axioms + task.input_axioms,
            conflict_budget=config.solver_conflict_budget,
            query_cache=query_cache,
            absint=absint_on,
            fwdbwd=config.fwdbwd,
            budget=budget,
            incremental=config.incremental,
            inc_pool=config.inc_context_pool,
            # Acceptance-time concrete round trip for candidates riding
            # on replay downgrades (inert unless a downgrade happens).
            roundtrip=(task.program, template, spec, task.precondition),
        )
        constraints: List[Constraint] = terminate(desugared.body, desugared.decls)
        session = SolveSession(template.space, prune_report=template.prune_report)
        stats = PinsStats(search_space_log2=template.space.log2_size())
        solve_stats = SolveStats()
        if template.prune_report is not None:
            solve_stats.indicators_pruned = template.prune_report.indicators_removed

        tests: List[Dict[str, Any]] = []
        seen = set()
        for candidate in task.initial_inputs:
            key = freeze_input(candidate)
            if key not in seen:
                seen.add(key)
                tests.append(dict(candidate))
        if task.input_gen is not None:
            for _ in range(config.initial_tests * 3):
                if len(tests) >= config.initial_tests + len(task.initial_inputs):
                    break
                candidate = task.input_gen(rng)
                key = freeze_input(candidate)
                if key not in seen:
                    seen.add(key)
                    tests.append(candidate)

        exec_config = ExecConfig(
            max_unroll=config.max_unroll if config.max_unroll is not None else task.max_unroll,
            max_backtracks=config.max_backtracks,
            solver_conflict_budget=config.solver_conflict_budget,
            const_pruning=config.static_pruning,
            absint=absint_on,
            budget=budget,
        )
        # The executor co-simulates the (growing) test pool for fast
        # feasibility checks; `tests` is shared by reference on purpose.
        executor = SymbolicExecutor(desugared, task.externs,
                                    task.axioms + task.input_axioms, exec_config,
                                    seed_inputs=tests,
                                    query_cache=query_cache)

    explored: List[Path] = []
    chooser = pick_one if config.use_infeasible_heuristic else pick_random
    last_size: Optional[int] = None
    status = MAX_ITERATIONS
    solutions: List[Solution] = []
    best_solutions: List[Solution] = []
    jobs = resolve_jobs(config.jobs)
    workers = resolve_workers(config.workers)
    if workers == "serial":
        jobs = 1
    pool = None
    persistent: Optional[PersistentWorkerPool] = None
    if workers == "persistent" and jobs > 1:
        # One warm fleet for the whole run: forked here (inheriting the
        # caches built during setup), fed snapshot deltas via sync()
        # before each iteration's batches.  If warm-up degrades the
        # fleet, the run stays serial — no mid-run refork.
        persistent = PersistentWorkerPool(jobs, PerfContext(
            checker=checker, oracle=executor.oracle,
            constraints=constraints, explored=explored),
            task_timeout=config.pool_task_timeout)

    try:
        for _ in range(config.max_iterations):
            if budget is not None:
                budget.check()  # wall deadline; handled as best-so-far below
            if persistent is not None:
                if query_cache is not None:
                    query_cache.refresh()
                persistent.sync(constraints, explored)
                pool = persistent if persistent.parallel else None
                executor.attach_pool(pool)
            elif jobs > 1:
                # A fresh pool per iteration: workers inherit the current
                # constraints/explored lists and every cache the parent
                # has accumulated (checker sat cache, oracle cache, query
                # cache — refreshed first so earlier workers' disk-tier
                # stores are visible) by copy-on-write.  Tasks then ship
                # only indices and candidate solutions.
                if query_cache is not None:
                    query_cache.refresh()
                pool = WorkerPool(jobs, PerfContext(
                    checker=checker, oracle=executor.oracle,
                    constraints=constraints, explored=explored),
                    task_timeout=config.pool_task_timeout)
                executor.attach_pool(pool)
            with obs.span("pins.iteration"):
                stats.iterations += 1
                obs.count("pins.iteration")
                with obs.span("pins.solve"):
                    solutions = solve(session, constraints, checker, tests,
                                      config.m, solve_stats,
                                      max_candidates=config.max_candidates_per_solve,
                                      precondition=task.precondition,
                                      pool=pool, budget=budget,
                                      demote_unknowns=config.demote_unknowns)
                obs.observe("pins.solutions", len(solutions))
                if solutions:
                    best_solutions = list(solutions)
                if budget is not None and budget.exhausted:
                    # solve() returned a partial (possibly empty) set
                    # because the budget tripped mid-loop: degrade to the
                    # best set seen, not NO_SOLUTION.
                    status = BUDGET_EXHAUSTED
                    solutions = list(best_solutions)
                    break
                if not solutions:
                    status = NO_SOLUTION
                    break
                if last_size is not None and len(solutions) == last_size \
                        and len(solutions) < config.m:
                    status = STABILIZED
                    break
                last_size = len(solutions)

                with obs.span("pins.pickone"):
                    chosen = chooser(solutions, explored, checker, rng,
                                     pool=pool)

                with obs.span("pins.symexec"):
                    path = executor.find_path(chosen.expr_map, chosen.pred_map,
                                              set(explored), rng)
                    if path is None:
                        # The chosen solution admits no fresh path within
                        # budget; try the other candidates (and fresh
                        # randomization) before giving up — any fresh feasible
                        # path still refines the space.
                        for other in solutions:
                            if other is chosen:
                                continue
                            path = executor.find_path(other.expr_map, other.pred_map,
                                                      set(explored), rng)
                            if path is not None:
                                break
                if path is None:
                    status = PATHS_EXHAUSTED
                    break
                explored.append(path)
                obs.count("pins.path")
                obs.observe("pins.frontier", len(explored))
                constraints.append(safepath(path, spec, label=f"path{len(explored)}"))
                constraints.extend(init_constraints(path, desugared.body,
                                                    label_prefix=f"path{len(explored)}"))
            if pool is not None and pool is not persistent:
                pool.close()
                pool = None
                executor.attach_pool(None)
    except BudgetExhausted:
        # Raised by a layer with nothing useful to return partially
        # (symbolic execution, or the wall check at the loop head).
        # Degrade to the best stabilizing-candidate set seen so far.
        status = BUDGET_EXHAUSTED
        solutions = list(best_solutions)
    finally:
        if pool is not None and pool is not persistent:
            pool.close()
        if persistent is not None:
            persistent.close()
        if query_cache is not None:
            query_cache.close()

    # PinsStats is *derived* from the run's obs metrics (timers) and the
    # solve/executor accumulators (counters); check_stats_invariants
    # asserts the two bookkeeping paths agree whenever tracing is on.
    stats.paths_explored = len(explored)
    stats.num_solutions = len(solutions)
    stats.tests_generated = len(tests)
    stats.time_pickone = metrics.timer("pins.pickone")
    stats.time_symexec = metrics.timer("pins.symexec")
    stats.time_sat = metrics.timer("solve.sat")
    stats.time_smt_reduction = (metrics.timer("solve.screen")
                                + metrics.timer("solve.check")
                                + metrics.timer("solve.eager"))
    stats.sat_vars = solve_stats.sat_vars
    stats.sat_clauses = solve_stats.sat_clauses
    stats.candidates_tried = solve_stats.candidates_tried
    stats.blocked_by_screen = solve_stats.blocked_by_screen
    stats.blocked_by_check = solve_stats.blocked_by_check
    stats.indicators_pruned = solve_stats.indicators_pruned
    stats.symexec_smt_calls = executor.oracle.queries
    stats.symexec_const_prunes = executor.const_prunes
    stats.symexec_absint_prunes = executor.absint_prunes
    stats.absint_screen_holds = solve_stats.absint_holds
    stats.absint_screen_refutes = solve_stats.absint_refutes
    stats.fwdbwd_screen_holds = solve_stats.fwdbwd_holds
    stats.checker_smt_checks = checker.stats.smt_checks
    stats.smt_cache_hits = metrics.counter("smt.cache.hit")
    stats.smt_cache_misses = metrics.counter("smt.cache.miss")
    stats.candidates_demoted = solve_stats.demoted
    if budget is not None and budget.exhausted:
        stats.budget_exhausted = budget.reason or "exhausted"
    stats.time_total = time.perf_counter() - started
    if obs.tracing_enabled():
        check_stats_invariants(stats, metrics)
    return PinsResult(status, task, template, solutions, explored, tests,
                      stats, metrics=metrics)
