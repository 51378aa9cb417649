"""Checking constraints against candidate solutions.

The verification question per constraint is ``forall X. sigma(condition)
=> sigma(goal)``, decided by refutation: the constraint is *violated* iff
``sigma(condition) /\\ not-goal-disjunct`` is satisfiable for some
disjunct.  A satisfying model doubles as a concrete counterexample input
(Section 2.5), which ``solve`` adds to its test pool.

Three tiers:

* :meth:`ConstraintChecker.screen` — microsecond-scale concrete replay of
  a path on a test input (sound refutation, no solver);
* :meth:`ConstraintChecker.absint_screen` — abstract interpretation of
  the ground path condition through the reduced-product numeric domains;
  a ⊥ saturation proves the constraint holds, and a concretely-replayed
  witness sampled from a refined state proves it violated — both without
  the solver;
* :meth:`ConstraintChecker.check` — the full SMT check, answering
  ``holds`` / ``violated`` / ``unknown`` (unknown is treated optimistically
  by ``solve``; PINS output is validated post-hoc regardless).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs, smt
from ..axioms.registry import EMPTY_REGISTRY, ExternRegistry
from ..concrete.interp import InterpError, run_path
from ..lang import ast
from ..lang.ast import Pred, Sort
from ..symexec.paths import Path, substitute_items
from ..symexec.translate import TranslationError, Translator
from .constraints import Constraint
from .spec import SPEC_INDEX_VAR
from .template import Solution

HOLDS = "holds"
VIOLATED = "violated"
UNKNOWN = "unknown"

REPLAY_CONFIRMED = "confirmed"
REPLAY_SPURIOUS = "spurious"
REPLAY_FAILED = "failed"


@dataclass
class CheckOutcome:
    status: str
    counterexample: Optional[Dict[str, Any]] = None
    vacuous: bool = False
    via: str = "smt"
    """Which tier decided the outcome: "smt", "absint", or "fwdbwd"."""
    spurious_cex: bool = False
    """UNKNOWN downgraded from a VIOLATED whose counterexample the
    candidate *passes* concretely (axiom-incomplete model).  Positive
    replay evidence: solve() must not count it toward unknown-demotion."""
    downgraded: bool = False
    """UNKNOWN downgraded from a VIOLATED whose counterexample failed
    replay outright (extern model tables diverge from the concrete
    semantics).  Neither positive nor negative evidence about the
    candidate: solve() exempts it from unknown-demotion but routes the
    candidate through the concrete round-trip refuter before accepting
    it (:meth:`ConstraintChecker.concrete_roundtrip`)."""


@dataclass
class CheckerStats:
    smt_checks: int = 0
    smt_time: float = 0.0
    screens: int = 0
    sat_clauses_peak: int = 0
    absint_screens: int = 0
    absint_holds: int = 0
    absint_refutes: int = 0
    absint_infeasible: int = 0
    fwdbwd_screens: int = 0
    fwdbwd_holds: int = 0
    spurious_cex: int = 0
    replay_failed: int = 0
    """VIOLATED answers returned with a counterexample that could not be
    replayed concretely on an extern-free query (the model may be
    axiom-incomplete).  Unreplayable extern-bearing counterexamples are
    downgraded instead of returned."""
    replay_downgraded: int = 0
    """VIOLATED answers downgraded to UNKNOWN because their model's
    extern function tables diverge from the concrete semantics (replay
    fails) — solver incompleteness, not a refutation."""
    roundtrip_refuted: int = 0
    """Candidates refuted by the whole-program concrete round trip at
    acceptance time (a downgrade-riding candidate failed ``P ; P⁻¹``
    on a real test input)."""


class ConstraintChecker:
    """Checks constraints under candidate solutions for one benchmark."""

    def __init__(self, sorts: Mapping[str, Sort],
                 externs: ExternRegistry = EMPTY_REGISTRY,
                 axioms: Sequence[smt.Axiom] = (),
                 conflict_budget: int = 100_000,
                 lia_branch_limit: int = 120,
                 query_cache: Optional[object] = None,
                 absint: Optional[bool] = None,
                 budget: Optional[object] = None,
                 fwdbwd: Optional[bool] = None,
                 incremental: Optional[bool] = None,
                 inc_pool: Optional[object] = None,
                 roundtrip: Optional[Tuple] = None):
        from ..analysis.absint import absint_enabled
        from ..analysis.fwdbwd import fwdbwd_enabled
        from ..analysis.regions import value_ranges_from_axioms
        from ..smt.incremental import ContextPool, incremental_enabled

        self.sorts = dict(sorts)
        self.sorts.setdefault(SPEC_INDEX_VAR, Sort.INT)
        self.externs = externs
        self.axioms = tuple(axioms)
        self.conflict_budget = conflict_budget
        self.lia_branch_limit = lia_branch_limit
        self.query_cache = query_cache
        self.budget = budget
        """Optional :class:`repro.resil.Budget` handed to every solver
        this checker creates; exhausted queries answer ``unknown``."""
        self.absint = absint_enabled(absint)
        self.fwdbwd = fwdbwd_enabled(fwdbwd, self.absint)
        self.incremental = incremental_enabled(incremental)
        # An externally-owned ContextPool (a repro.serve worker sharing
        # warm contexts across jobs) wins over a fresh per-run pool; the
        # incremental switch still gates it so --no-incremental runs
        # stay one-shot even under a warm host.
        if not self.incremental:
            self._inc_pool = None
        elif inc_pool is not None:
            self._inc_pool = inc_pool
        else:
            self._inc_pool = ContextPool()
        self._inc_bases: Dict[int, Tuple[object, Tuple]] = {}
        """``id(constraint_or_path) -> (pinned source, base terms)``.  The
        source object is pinned so its id can never be recycled."""
        ranges = value_ranges_from_axioms(self.axioms)
        self._default_cells = {name: 0 if lo <= 0 < hi else lo
                               for name, (lo, hi) in ranges.items()}
        """Per-array cell value completing abstract witnesses: the low
        end of the array's axiom-derived value range, or 0 when the
        range admits it (or the array has none)."""
        self.stats = CheckerStats()
        self._sat_cache: Dict[tuple, Tuple[str, Optional[smt.Model]]] = {}

        self._roundtrip = roundtrip
        """``(program, template, spec, precondition)`` arming the
        acceptance-time concrete round-trip refuter, or None."""

    def concrete_roundtrip(self, solution: Solution,
                           tests: Sequence[Mapping[str, Any]]
                           ) -> Optional[Dict[str, Any]]:
        """First test input on which the candidate fails ``P ; P⁻¹``.

        Whole-program concrete execution with the *real* extern
        semantics — the path-based screen is vacuous on inputs that miss
        the explored paths, so a candidate riding on replay-downgrades
        (see :class:`CheckOutcome`) gets this path-independent check
        before acceptance.  A spec violation or an interpreter error on
        a precondition-satisfying input definitively refutes the
        candidate; inputs rejected by ``P``'s own assumes owe nothing.
        Returns the refuting input, or None when every test passes (or
        no refuter is armed).
        """
        if self._roundtrip is None:
            return None
        from ..concrete.interp import AssumeFailed, OutOfFuel
        from ..validate.roundtrip import round_trip_once

        program, template, spec, precondition = self._roundtrip
        try:
            inverse = template.instantiate(solution)
        except ValueError:
            return None
        for inputs in tests:
            if precondition is not None and not precondition(dict(inputs)):
                continue
            try:
                ok = round_trip_once(program, inverse, spec, inputs,
                                     self.externs)
            except AssumeFailed:
                continue
            except (OutOfFuel, InterpError):
                ok = False
            if not ok:
                self.stats.roundtrip_refuted += 1
                obs.count("analysis.regions.roundtrip_refuted")
                return dict(inputs)
        return None

    # -- SMT plumbing -------------------------------------------------------

    def _check_sat(self, preds: Sequence[Pred], want_model: bool,
                   inc_src: Optional[object] = None
                   ) -> Tuple[str, Optional[smt.Model]]:
        key = tuple(preds)
        cached = self._sat_cache.get(key)
        if cached is not None and (not want_model or cached[1] is not None
                                   or cached[0] != smt.SAT):
            return cached
        self.stats.smt_checks += 1
        start = time.perf_counter()
        translator = Translator(self.sorts, self.externs)
        solver = smt.Solver(axioms=self.axioms,
                            sat_conflict_budget=self.conflict_budget,
                            lia_branch_limit=self.lia_branch_limit,
                            query_cache=self.query_cache,
                            budget=self.budget)
        incremental = False
        if self._inc_pool is not None and inc_src is not None:
            base = self._inc_base_terms(inc_src)
            if base:
                solver.attach_incremental(self._inc_pool, base)
            incremental = True
        try:
            for pred in preds:
                solver.add(translator.pred(pred))
            # With incremental contexts off, call check() exactly as the
            # historical code did; status-only answers exist only behind
            # the REPRO_INCREMENTAL gate.
            status = (solver.check(want_model=want_model) if incremental
                      else solver.check())
        except TranslationError:
            raise
        except Exception:
            status = smt.UNKNOWN
        model = solver.model_if_available() if status == smt.SAT else None
        self.stats.smt_time += time.perf_counter() - start
        self.stats.sat_clauses_peak = max(self.stats.sat_clauses_peak,
                                          solver.stats.sat_clauses)
        result = (status, model)
        self._sat_cache[key] = result
        return result

    def _inc_base_terms(self, src: object) -> Tuple:
        """SMT terms of ``src.items``'s hole-free conjuncts (memoized).

        These conjuncts are identical across every candidate solution
        checked against ``src`` (substitution only rewrites hole items),
        and terms are hash-consed, so the tuple keys a warm incremental
        context shared by the whole query family.
        """
        entry = self._inc_bases.get(id(src))
        if entry is not None and entry[0] is src:
            return entry[1]
        from ..lang.ast import expr_unknowns
        from ..symexec.paths import Def, Guard

        def has_holes(item: object) -> bool:
            target = item.expr if isinstance(item, Def) else item.pred
            return bool(expr_unknowns(target))

        terms: Tuple = ()
        try:
            fixed = [it for it in src.items
                     if isinstance(it, (Def, Guard)) and not has_holes(it)]
            if fixed:
                ground = substitute_items(fixed, {}, {})
                translator = Translator(self.sorts, self.externs)
                terms = tuple(translator.pred(p) for p in ground)
        except Exception:
            terms = ()
        self._inc_bases[id(src)] = (src, terms)
        return terms

    def has_cached(self, preds: Sequence[Pred]) -> bool:
        """True when ``_check_sat`` on these preds would be a cache hit."""
        return tuple(preds) in self._sat_cache

    def prime(self, preds: Sequence[Pred],
              result: Tuple[str, Optional[smt.Model]]) -> None:
        """Seed the sat cache with a result computed elsewhere (a worker).

        ``setdefault`` keeps any entry the parent computed in the
        meantime — worker results never *replace* local ones, so priming
        cannot change what a serial run would have seen.
        """
        self._sat_cache.setdefault(tuple(preds), result)

    def _ground(self, constraint: Constraint, solution: Solution) -> List[Pred]:
        return substitute_items(constraint.items, solution.expr_map,
                                solution.pred_map)

    # -- full checks ------------------------------------------------------------

    def check(self, constraint: Constraint, solution: Solution) -> CheckOutcome:
        ground = self._ground(constraint, solution)
        if self.absint:
            screened = self.absint_screen(constraint, solution, ground)
            if screened is not None:
                return screened
        if self.fwdbwd:
            screened = self.fwdbwd_screen(constraint, solution, ground)
            if screened is not None:
                return screened
        if constraint.kind == "safepath":
            return self._check_safepath(constraint, solution, ground)
        return self._check_goal(constraint, solution, ground)

    # -- abstract screening (between concrete replay and full SMT) -------------

    def absint_screen(self, constraint: Constraint, solution: Solution,
                      ground: Optional[List[Pred]] = None
                      ) -> Optional[CheckOutcome]:
        """Decide a (constraint, solution) pair abstractly when possible.

        Saturates the ground path condition through the reduced-product
        domains (iterated forward–backward refinement).  Three sound
        answers, or None when the domains cannot decide and the full SMT
        check must run:

        * path condition refines to ⊥ — the constraint holds vacuously;
        * every negated goal disjunct refines the saturated state to ⊥ —
          the constraint holds;
        * a concrete witness sampled from a refined state *replays* to a
          spec violation — the constraint is violated, and the witness is
          a genuine counterexample input.
        """
        from ..analysis.absint import saturate
        from ..lang.transform import substitute_pred

        self.stats.absint_screens += 1
        if ground is None:
            ground = self._ground(constraint, solution)
        env = saturate(ground, self.sorts)
        if env is None:
            self.stats.absint_holds += 1
            return CheckOutcome(HOLDS, vacuous=True, via="absint")
        if constraint.kind == "safepath":
            assert constraint.spec is not None
            disjuncts = list(constraint.spec.negated_disjuncts(
                constraint.final_vmap))
        else:
            assert constraint.neg_goal is not None
            disjuncts = [substitute_pred(constraint.neg_goal,
                                         solution.expr_map,
                                         solution.pred_map)]
        open_envs = []
        for disjunct in disjuncts:
            # Seed from the already-saturated path state: env over-approximates
            # the models of ``ground``, so meeting the disjunct into it (then
            # re-sweeping the path facts) stays sound and skips re-deriving
            # the whole SSA chain from TOP for every disjunct.
            denv = saturate(list(ground) + [disjunct], self.sorts,
                            env=env, rounds=2)
            if denv is not None:
                open_envs.append(denv)
        if not open_envs:
            self.stats.absint_holds += 1
            return CheckOutcome(HOLDS, via="absint")
        if constraint.kind == "safepath":
            for denv in open_envs[:3]:
                witness = self._abstract_witness(constraint, solution, denv)
                if witness is not None:
                    self.stats.absint_refutes += 1
                    return CheckOutcome(VIOLATED, counterexample=witness,
                                        via="absint")
        return None

    def _abstract_witness(self, constraint: Constraint, solution: Solution,
                          denv) -> Optional[Dict[str, Any]]:
        """Try to turn a refined abstract state into a concrete refutation.

        Samples one representative version-0 value per integer variable
        from ``denv``, replays the path concretely, and checks the spec.
        Deterministic, solver-free; None when the sample does not witness
        a violation.
        """
        from ..concrete.values import ConcreteArray

        inputs: Dict[str, Any] = {}
        for name, sort in sorted(self.sorts.items()):
            if name == SPEC_INDEX_VAR:
                continue
            if sort is not Sort.INT:
                # Non-relational domains say nothing about array contents,
                # but the witness must be a *complete* input (preconditions
                # and test replay expect every variable).  The default
                # cell satisfies the array's range axiom instead of
                # assuming zero is always in range.
                inputs[name] = ConcreteArray(
                    default=self._default_cells.get(name, 0))
                continue
            val = denv.get(f"{name}#0")
            pick = val.as_const()
            if pick is None:
                iv = val.interval
                if iv.contains(0):
                    pick = 0
                elif iv.lo is not None:
                    pick = iv.lo
                elif iv.hi is not None:
                    pick = iv.hi
                else:
                    pick = 0
                # Snap onto the congruence class if one is known.
                if not val.contains(pick):
                    cong = val.congruence
                    if cong.modulus > 0:
                        pick += (cong.rem - pick) % cong.modulus
                    if not val.contains(pick):
                        return None
            inputs[name] = pick
        assert constraint.spec is not None
        try:
            env = run_path(constraint.items, inputs, self.sorts, self.externs,
                           solution.expr_map, solution.pred_map)
        except InterpError:
            return None
        if env is None:
            return None  # sample does not follow the path
        if constraint.spec.check_env(env, constraint.final_vmap):
            return None  # spec satisfied on this sample
        return inputs

    # -- linear screening (backward goal folding + Fourier–Motzkin) ------------

    def _is_int_var(self, name: str) -> bool:
        return self.sorts.get(name.rsplit("#", 1)[0]) is Sort.INT

    def fwdbwd_screen(self, constraint: Constraint, solution: Solution,
                      ground: Optional[List[Pred]] = None
                      ) -> Optional[CheckOutcome]:
        """Decide a (constraint, solution) pair by linear reasoning.

        Two sound HOLDS-only deciders, or None for the full SMT check:

        * *backward goal folding* — the path's SSA definitions compose
          into affine forms and the negated goal folds to ``False`` for
          every input (ranking deltas like ``rank^V - rank^0 = -1``);
        * *linear refutation* — bounded Fourier–Motzkin over the ground
          path condition (plus the negated goal, for termination and
          invariant constraints) proves it has no model; for a safepath
          constraint that is exactly the vacuous-HOLDS answer SMT would
          give.

        Only HOLDS is ever answered, never VIOLATED or UNKNOWN: a HOLDS
        carries no counterexample and learns no clause, so screening here
        is *trajectory-safe* — the synthesis run visits the same
        candidates in the same order and stabilises on bit-identical
        inverses with the screen on or off.  (A cheaper-than-SMT witness
        refutation would change which counterexample generalises into
        learned clauses and shift the whole trajectory.)  Proven-UNSAT
        queries are primed into the SAT-result cache with exactly the
        entry the solver would have stored, so later feasibility probes
        on the same ground still hit.
        """
        from ..analysis.fwdbwd import fold_goal
        from ..analysis.linear import linear_unsat
        from ..lang.transform import substitute_pred

        self.stats.fwdbwd_screens += 1
        if ground is None:
            ground = self._ground(constraint, solution)
        if constraint.kind == "safepath":
            if linear_unsat(ground, self._is_int_var):
                self.stats.fwdbwd_holds += 1
                self.prime(ground, (smt.UNSAT, None))
                return CheckOutcome(HOLDS, vacuous=True, via="fwdbwd")
            return None
        if constraint.neg_goal is None:
            return None
        neg_goal = substitute_pred(constraint.neg_goal, solution.expr_map,
                                   solution.pred_map)
        if fold_goal(constraint.items, neg_goal, solution.expr_map) is False:
            self.stats.fwdbwd_holds += 1
            return CheckOutcome(HOLDS, via="fwdbwd")
        query = list(ground) + [neg_goal]
        if linear_unsat(query, self._is_int_var):
            self.stats.fwdbwd_holds += 1
            self.prime(query, (smt.UNSAT, None))
            return CheckOutcome(HOLDS, via="fwdbwd")
        return None

    def _check_safepath(self, constraint: Constraint, solution: Solution,
                        ground: List[Pred]) -> CheckOutcome:
        assert constraint.spec is not None
        status, _ = self._check_sat(ground, want_model=False,
                                    inc_src=constraint)
        if status == smt.UNSAT:
            return CheckOutcome(HOLDS, vacuous=True)
        saw_unknown = status == smt.UNKNOWN
        saw_spurious = False
        saw_downgraded = False
        for disjunct in constraint.spec.negated_disjuncts(constraint.final_vmap):
            d_status, model = self._check_sat(ground + [disjunct],
                                              want_model=True,
                                              inc_src=constraint)
            if d_status == smt.SAT:
                counterexample = None
                if model is not None:
                    # Full version-0 environment: includes the junk values
                    # of uninitialized template variables the violation may
                    # depend on (the spec quantifies over all of X).
                    from ..concrete.testgen import env_inputs_from_model

                    counterexample = env_inputs_from_model(model)
                replay = (self._replay_counterexample(constraint, solution,
                                                      counterexample)
                          if counterexample is not None else REPLAY_CONFIRMED)
                if replay == REPLAY_SPURIOUS:
                    # The model satisfies the query only because a needed
                    # axiom instance was never generated (e.g. the
                    # Pythagorean identity on a term shape outside the
                    # instantiation rounds): under the *real* extern
                    # semantics the same input follows the path and meets
                    # the spec.  That is solver incompleteness, not a
                    # refutation — fall through to the optimistic UNKNOWN.
                    self.stats.spurious_cex += 1
                    obs.count("checker.spurious_cex")
                    saw_spurious = True
                    continue
                if replay == REPLAY_FAILED:
                    if self._has_extern_app(ground):
                        # The model's uninterpreted extern tables diverge
                        # from the concrete semantics badly enough that
                        # the witness does not even follow its own path.
                        # Nothing about the candidate has been refuted;
                        # keeping the VIOLATED would block it on garbage
                        # and poison the test pool (this is exactly how
                        # lzw used to end in no_solution).
                        self.stats.replay_downgraded += 1
                        obs.count("analysis.regions.downgraded")
                        saw_downgraded = True
                        continue
                    # No externs to blame: the model may still witness a
                    # genuine bug the partial input extraction cannot
                    # reproduce.
                    self.stats.replay_failed += 1
                    obs.count("analysis.regions.replay_failed")
                return CheckOutcome(VIOLATED, counterexample=counterexample)
            if d_status == smt.UNKNOWN:
                saw_unknown = True
        if saw_unknown or saw_spurious or saw_downgraded:
            return CheckOutcome(UNKNOWN, spurious_cex=saw_spurious
                                and not saw_unknown and not saw_downgraded,
                                downgraded=saw_downgraded)
        return CheckOutcome(HOLDS)

    def _has_extern_app(self, preds: Sequence[Pred]) -> bool:
        """True when any pred applies a registered extern function."""
        names = set(self.externs.names())
        if not names:
            return False
        for pred in preds:
            for sub in ast.walk_exprs(pred):
                if isinstance(sub, ast.FunApp) and sub.name in names:
                    return True
        return False

    def _replay_counterexample(self, constraint: Constraint,
                               solution: Solution,
                               inputs: Mapping[str, Any]) -> str:
        """Classify an SMT counterexample by concrete replay.

        Replays the path on the model's inputs with the concrete extern
        implementations:

        * :data:`REPLAY_SPURIOUS` — the input follows the path *and*
          satisfies the spec: the model is provably axiom-incomplete;
        * :data:`REPLAY_FAILED` — the input cannot be replayed
          (abstract values) or diverges from the path: the model's
          function tables disagree with the concrete semantics;
        * :data:`REPLAY_CONFIRMED` — the replay reproduces the spec
          violation: a genuine counterexample.
        """
        assert constraint.spec is not None
        try:
            env = run_path(constraint.items, inputs, self.sorts, self.externs,
                           solution.expr_map, solution.pred_map)
        except InterpError:
            return REPLAY_FAILED
        if env is None:
            return REPLAY_FAILED
        if constraint.spec.check_env(env, constraint.final_vmap):
            return REPLAY_SPURIOUS
        return REPLAY_CONFIRMED

    def _check_goal(self, constraint: Constraint, solution: Solution,
                    ground: List[Pred]) -> CheckOutcome:
        assert constraint.neg_goal is not None
        from ..concrete.testgen import env_inputs_from_model
        from ..lang.transform import substitute_pred

        neg_goal = substitute_pred(constraint.neg_goal, solution.expr_map,
                                   solution.pred_map)
        status, model = self._check_sat(ground + [neg_goal], want_model=True,
                                        inc_src=constraint)
        if status == smt.SAT:
            env = env_inputs_from_model(model) if model is not None else None
            return CheckOutcome(VIOLATED, counterexample=env)
        if status == smt.UNKNOWN:
            return CheckOutcome(UNKNOWN)
        return CheckOutcome(HOLDS)

    # -- fast concrete screening ---------------------------------------------------

    def screen(self, constraint: Constraint, solution: Solution,
               inputs: Mapping[str, Any]) -> bool:
        """True if the solution survives this test input (or is vacuous)."""
        if constraint.kind != "safepath":
            return True
        assert constraint.spec is not None
        self.stats.screens += 1
        try:
            env = run_path(constraint.items, inputs, self.sorts, self.externs,
                           solution.expr_map, solution.pred_map)
        except InterpError:
            return True  # cannot replay (e.g. abstract values); not a refutation
        if env is None:
            return True  # input does not follow this path: vacuous
        return constraint.spec.check_env(env, constraint.final_vmap)

    # -- path feasibility (pickOne's infeasible(S)) ------------------------------

    def path_infeasible(self, path: Path, solution: Solution) -> bool:
        ground = substitute_items(path.items, solution.expr_map, solution.pred_map)
        if self.absint:
            from ..analysis.absint import preds_unsat

            if preds_unsat(ground, self.sorts):
                self.stats.absint_infeasible += 1
                obs.count("checker.absint_infeasible")
                return True
        status, _ = self._check_sat(ground, want_model=False, inc_src=path)
        return status == smt.UNSAT
