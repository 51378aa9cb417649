"""The DPLL(T) core: CDCL SAT + EUF + LIA + arrays + axiom instantiation.

One :class:`Solver` instance answers one query (PINS creates thousands of
short-lived queries; construction is cheap).  The solving loop is:

1. Preprocess assertions: inline SSA array definitions, add
   read-over-write lemmas, instantiate library axioms, linearize
   ``div``/``mod`` by constants, and add trichotomy lemmas for integer
   equalities that occur negatively.
2. CDCL enumerates boolean models of the clause skeleton.
3. Each boolean model's theory literals are checked by congruence closure
   (EUF) and simplex + branch-and-bound (LIA); conflicts become learned
   clauses.
4. A theory-consistent assignment is turned into a candidate
   :class:`~repro.smt.models.Model` and *verified* by concrete
   re-evaluation; congruence violations found by verification are repaired
   with lemmas (lemma-on-demand combination) and the loop continues.

``check()`` answers ``sat`` (with a verified model), ``unsat``, or
``unknown`` (budget exhausted / nonlinear fragment) — callers treat
``unknown`` conservatively.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .. import obs
from ..resil import BudgetExhausted
from ..resil.faults import should_fail as _fault_should_fail
from . import arrays as arrays_mod
from . import lia as lia_mod
from .cnf import CnfBuilder
from .euf import CongruenceClosure, EufConflict
from .models import Model, ModelInconsistency, build_model, verify_literals
from .quant import Axiom, instantiate
from .sat import SatSolver
from .terms import (
    FALSE,
    Op,
    TRUE,
    Term,
    mk_add,
    mk_and,
    mk_eq,
    mk_int,
    mk_le,
    mk_lt,
    mk_mul_const,
    mk_not,
    mk_or,
    subterms,
)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


# Theory participation bits, OR-combined up the term DAG.
_TH_LIA = 1
_TH_EUF = 2
_TH_ARRAYS = 4

_LIA_OPS = frozenset((Op.ADD, Op.MUL_CONST, Op.MUL, Op.DIV, Op.MOD, Op.LE))
_ARRAY_OPS = frozenset((Op.SELECT, Op.STORE))
_COMMUTATIVE_OPS = frozenset((Op.EQ, Op.ADD, Op.MUL))

_SIG_MEMO: Dict[int, Tuple[bytes, int]] = {}
"""``term.id -> (structural sha1 digest, theory bitmask)``.

Terms are hash-consed and immortal (the cons table holds strong
references), so a process-global memo keyed by ``id`` is safe; it interns
the per-subterm work so fingerprinting a query costs one walk over the
*new* nodes only — tracing and the query cache no longer pay a full tree
walk per query.
"""


def _term_signature(t: Term) -> Tuple[bytes, int]:
    """Fused digest + theory classification in a single subterm traversal."""
    hit = _SIG_MEMO.get(t.id)
    if hit is not None:
        return hit
    stack = [t]
    while stack:
        cur = stack[-1]
        if cur.id in _SIG_MEMO:
            stack.pop()
            continue
        pending = [a for a in cur.args if a.id not in _SIG_MEMO]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if cur.op in _LIA_OPS:
            flags = _TH_LIA
        elif cur.op == Op.APP:
            flags = _TH_EUF
        elif cur.op in _ARRAY_OPS:
            flags = _TH_ARRAYS
        else:
            flags = 0
        h = hashlib.sha1()
        h.update(str(cur.op).encode())
        if cur.payload is not None:
            h.update(b"|" + repr(cur.payload).encode())
        child = [_SIG_MEMO[arg.id] for arg in cur.args]
        digests = [d for d, _ in child]
        if cur.op in _COMMUTATIVE_OPS:
            # mk_eq/mk_add/mk_mul orient their arguments by term id —
            # i.e. by construction history, which differs between runs
            # that take different paths (a warm cache run skips solves
            # the cold run performed).  Sorting the child digests makes
            # the fingerprint history-independent, so `a = b` and
            # `b = a` key the same cache entry.
            digests.sort()
        for d in digests:
            h.update(d)
        for _, f in child:
            flags |= f
        _SIG_MEMO[cur.id] = (h.digest(), flags)
    return _SIG_MEMO[t.id]


def query_signature(formulas: Iterable[Term]) -> Tuple[str, str]:
    """``(theories label, full structural fingerprint)`` in one traversal.

    Fuses the former ``query_theories`` + ``query_fingerprint`` double
    walk: each subterm is visited once (and, thanks to the process-global
    memo, only on first sight ever).  The fingerprint is the full sha1
    hexdigest — the query cache keys on all 160 bits; the 16-char trace
    fingerprint is a prefix of it.
    """
    h = hashlib.sha1()
    flags = 0
    for f in formulas:
        d, fl = _term_signature(f)
        h.update(d)
        flags |= fl
    parts = [name for name, bit in
             (("arrays", _TH_ARRAYS), ("euf", _TH_EUF), ("lia", _TH_LIA))
             if flags & bit]
    return ("+".join(parts) if parts else "prop", h.hexdigest())


def query_theories(formulas: Iterable[Term]) -> str:
    """Classify a query by the theories its terms exercise.

    Returns a stable ``+``-joined label (``"euf+lia"``, ``"arrays+lia"``,
    ``"prop"`` for pure boolean structure) used to bucket trace counters.
    """
    return query_signature(formulas)[0]


def query_fingerprint(formulas: Iterable[Term]) -> str:
    """A structural hash of a query, stable across processes.

    Two queries with identical assertion structure (same ops, payloads,
    and argument shapes, in the same order) share a fingerprint, which is
    what makes trace fingerprints usable as a query-cache key
    (:mod:`repro.perf.cache` uses the untruncated digest).
    """
    return query_signature(formulas)[1][:16]


_AXIOM_MEMO: Dict[int, Tuple[object, str]] = {}
"""``id(axiom) -> (axiom, digest)``; the axiom is pinned so the id can
never be recycled by a different object."""


def axioms_digest(axioms: Iterable[Axiom]) -> str:
    """A structural digest of an axiom set (part of the cache key).

    Queries with identical assertions but different axiom environments
    can differ in satisfiability (axioms add constraints), so the cache
    key must separate them.
    """
    axioms = tuple(axioms)
    if not axioms:
        return "0"
    h = hashlib.sha1()
    for ax in axioms:
        entry = _AXIOM_MEMO.get(id(ax))
        if entry is None or entry[0] is not ax:
            hh = hashlib.sha1()
            hh.update(ax.name.encode())
            for var in ax.variables:
                hh.update(_term_signature(var)[0])
            hh.update(_term_signature(ax.body)[0])
            for pattern in ax.normalized_patterns():
                for part in pattern:
                    hh.update(_term_signature(part)[0])
            entry = (ax, hh.hexdigest())
            _AXIOM_MEMO[id(ax)] = entry
        h.update(entry[1].encode())
    return h.hexdigest()[:16]


class SolverStats:
    """Per-query statistics surfaced in the experiment tables."""

    def __init__(self) -> None:
        self.theory_rounds = 0
        self.lemmas = 0
        self.sat_vars = 0
        self.sat_clauses = 0


class Solver:
    """A one-shot SMT solver for ground QF_AUFLIA + instantiated axioms."""

    def __init__(self, axioms: Iterable[Axiom] = (),
                 instantiation_rounds: int = 2,
                 max_theory_rounds: int = 400,
                 sat_conflict_budget: int = 200_000,
                 lia_branch_limit: int = 200,
                 query_cache: Optional[object] = None,
                 budget: Optional[object] = None):
        self.axioms = list(axioms)
        self.instantiation_rounds = instantiation_rounds
        self.max_theory_rounds = max_theory_rounds
        self.sat_conflict_budget = sat_conflict_budget
        self.lia_branch_limit = lia_branch_limit
        self.query_cache = query_cache
        """Optional :class:`repro.perf.cache.QueryCache`.  Duck-typed so
        the smt layer stays import-independent of ``repro.perf``."""
        self.budget = budget
        """Optional :class:`repro.resil.Budget`.  ``check()`` charges one
        SMT query per cache miss, attaches the budget to the inner SAT
        solver, and degrades to ``unknown`` (never an exception) once the
        budget is exhausted."""
        self.unknown_reason = ""
        self.assertions: List[Term] = []
        self.stats = SolverStats()
        self._model: Optional[Model] = None
        self._inc: Optional[Tuple[object, Tuple[Term, ...]]] = None

    def add(self, *formulas: Term) -> None:
        for f in formulas:
            if f is not TRUE:
                self.assertions.append(f)

    def attach_incremental(self, pool: object, base: Iterable[Term]) -> None:
        """Route this query through a warm incremental context first.

        ``pool`` is a :class:`repro.smt.incremental.ContextPool` (duck-
        typed: anything with ``try_status(solver, base, want_model)``);
        ``base`` is the query-family prefix shared across many queries.
        The warm context answers status-only — see
        :mod:`repro.smt.incremental` for when it falls back here.
        """
        self._inc = (pool, tuple(base))

    def model_if_available(self) -> Optional[Model]:
        """The sat model, or None (unsat/unknown/status-only answers)."""
        return self._model

    # -- preprocessing ---------------------------------------------------------

    def _preprocess(self) -> List[Term]:
        formulas = arrays_mod.preprocess_arrays(self.assertions)
        if self.axioms:
            instances = instantiate(
                self.axioms, formulas, rounds=self.instantiation_rounds
            )
            formulas = formulas + instances
            # Axiom instances can introduce new selects-over-stores.
            formulas = formulas + arrays_mod.read_over_write_lemmas(formulas)
        formulas = formulas + self._divmod_lemmas(formulas)
        return formulas

    @staticmethod
    def _divmod_lemmas(formulas: List[Term]) -> List[Term]:
        """Linearize div/mod by positive constants: a = c*q + r, 0<=r<c."""
        lemmas: List[Term] = []
        seen: Set[int] = set()
        for f in formulas:
            for t in subterms(f):
                if t.id in seen:
                    continue
                seen.add(t.id)
                if t.op in (Op.DIV, Op.MOD) and t.args[1].op == Op.INT_CONST:
                    c = t.args[1].payload
                    if c <= 0:
                        continue
                    a = t.args[0]
                    from .terms import mk_div, mk_mod

                    q = mk_div(a, t.args[1])
                    r = mk_mod(a, t.args[1])
                    lemmas.append(mk_eq(a, mk_add(mk_mul_const(c, q), r)))
                    lemmas.append(mk_le(mk_int(0), r))
                    lemmas.append(mk_lt(r, mk_int(c)))
        return lemmas

    @staticmethod
    def _negative_int_eq_atoms(formula: Term, polarity: bool, out: Set[Term]) -> None:
        if formula.op == Op.NOT:
            Solver._negative_int_eq_atoms(formula.args[0], not polarity, out)
        elif formula.op in (Op.AND, Op.OR):
            for part in formula.args:
                Solver._negative_int_eq_atoms(part, polarity, out)
        elif formula.op == Op.EQ and not polarity and formula.args[0].sort.is_int:
            out.add(formula)

    @staticmethod
    def _trichotomy(atom: Term) -> Term:
        a, b = atom.args
        return mk_or(atom, mk_lt(a, b), mk_lt(b, a))

    # -- main loop ----------------------------------------------------------------

    def check(self, want_model: bool = True) -> str:
        """Decide the query; ``want_model=False`` allows status-only answers.

        With the default ``want_model=True`` a ``sat`` answer always
        carries a model — exactly the historical behaviour.  Callers that
        only consume the status (vacuity and feasibility probes) may pass
        ``want_model=False``, which lets a warm incremental context
        answer directly and lets the query cache serve/store status-only
        entries without model re-verification.
        """
        if _fault_should_fail("smt.timeout"):
            # Injected solver timeout (repro.resil.faults): behave exactly
            # as a real budget-exhausted query — unknown, never cached.
            self.unknown_reason = "injected timeout (repro.resil.faults)"
            obs.count("smt.queries")
            obs.count("smt.queries.unknown")
            return UNKNOWN
        cache = self.query_cache
        if cache is None and not obs.active():
            return self._budgeted_check(want_model)
        if cache is not None or obs.tracing_enabled():
            # One fused, memoized traversal serves both the trace labels
            # and the cache key (the old code walked the query twice).
            theories, fingerprint = query_signature(self.assertions)
            if obs.tracing_enabled():
                obs.count(f"smt.queries.theory.{theories}")
                obs.mark("smt.fingerprint", fingerprint[:16])
        key = None
        if cache is not None:
            key = (f"{fingerprint}|{axioms_digest(self.axioms)}"
                   f"|{self.instantiation_rounds}")
            hit = cache.lookup(key, self.assertions, need_model=want_model)
            if hit is not None:
                # Correctness guard lives in the cache: ``unknown`` is
                # never stored, and a sat hit was re-verified against
                # *these* assertions before being served.
                status, model = hit
                if status == SAT and model is None and want_model:
                    # Status-only entry (stored when a warm context or a
                    # model-free probe answered first).  A run without
                    # incremental contexts would hold a full model here,
                    # so recompute it with the one-shot path — uncharged,
                    # like the hit it replaces — and upgrade the entry.
                    try:
                        with obs.span("smt.check"):
                            status = self._check_fresh()
                    except BudgetExhausted as exc:
                        self.unknown_reason = f"budget exhausted: {exc.reason}"
                        status = UNKNOWN
                    model = self._model if status == SAT else None
                    if status in (SAT, UNSAT):
                        cache.store(key, status, model, self.assertions)
                self._model = model
                obs.count("smt.cache.hit")
                obs.count("smt.queries")
                obs.count(f"smt.queries.{status}")
                return status
            obs.count("smt.cache.miss")
        lemmas0 = self.stats.lemmas
        with obs.span("smt.check"):
            result = self._budgeted_check(want_model)
        obs.count("smt.queries")
        obs.count(f"smt.queries.{result}")
        obs.count("smt.conflict_lemmas", self.stats.lemmas - lemmas0)
        obs.count("smt.theory_rounds", self.stats.theory_rounds)
        if key is not None and result in (SAT, UNSAT):
            cache.store(key, result,
                        self._model if result == SAT else None,
                        self.assertions)
            obs.count("smt.cache.store")
        return result

    def _budgeted_check(self, want_model: bool = True) -> str:
        """Charge the resil budget around :meth:`_check`.

        Cache hits never reach this point (they cost no solving), so one
        query is charged per actual solve; exhaustion — whether tripped by
        the charge here or by per-conflict charging inside the SAT core —
        degrades to ``unknown`` with the reason recorded, never raises.
        """
        budget = self.budget
        if budget is None:
            try:
                return self._check(want_model)
            except BudgetExhausted as exc:
                # A budget-carrying warm context can charge conflicts even
                # when this solver itself is unbudgeted.
                self.unknown_reason = f"budget exhausted: {exc.reason}"
                return UNKNOWN
        try:
            budget.charge_smt_query()
        except BudgetExhausted as exc:
            self.unknown_reason = f"budget exhausted: {exc.reason}"
            obs.count("resil.budget.refused_query")
            return UNKNOWN
        try:
            return self._check(want_model)
        except BudgetExhausted as exc:
            self.unknown_reason = f"budget exhausted: {exc.reason}"
            return UNKNOWN

    def _check(self, want_model: bool = True) -> str:
        if self._inc is not None:
            pool, base = self._inc
            status = pool.try_status(self, base, want_model)
            if status is not None:
                return status
        return self._check_fresh()

    def _check_fresh(self) -> str:
        formulas = self._preprocess()
        sat = SatSolver()
        sat.budget = self.budget
        builder = CnfBuilder(sat)
        for f in formulas:
            builder.assert_formula(f)
        # Trichotomy for integer equalities used negatively.  Assert in
        # structural order: iterating the raw set would follow Python's
        # address-based object hashes, making clause order — and hence
        # the SAT search and the returned model — depend on the
        # process's allocation history.
        negative_eqs: Set[Term] = set()
        for f in formulas:
            self._negative_int_eq_atoms(f, True, negative_eqs)
        has_trichotomy: Set[Term] = set()
        for atom in sorted(negative_eqs, key=lambda t: t.skey):
            builder.assert_formula(self._trichotomy(atom))
            has_trichotomy.add(atom)

        for _ in range(self.max_theory_rounds):
            self.stats.theory_rounds += 1
            sat_result = sat.solve(max_conflicts=self.sat_conflict_budget)
            self.stats.sat_vars = sat.num_vars
            self.stats.sat_clauses = sat.num_clauses()
            if sat_result is False:
                return UNSAT
            if sat_result is None:
                self.unknown_reason = "sat budget exhausted"
                return UNKNOWN
            bool_model = sat.model()
            literals = list(builder.asserted_atoms(bool_model))
            outcome = self._theory_check(literals, builder, sat, has_trichotomy)
            if outcome == SAT:
                return SAT
            if outcome == UNKNOWN:
                return UNKNOWN
            # CONTINUE: lemmas/conflict clauses were added; iterate.
        self.unknown_reason = "theory round limit"
        return UNKNOWN

    def model(self) -> Model:
        if self._model is None:
            raise RuntimeError("no model available; call check() first (and get sat)")
        return self._model

    # -- theory checking ---------------------------------------------------------

    def _theory_check(self, literals: List[Tuple[Term, bool]],
                      builder: CnfBuilder, sat: SatSolver,
                      has_trichotomy: Set[Term]) -> str:
        outcome, model, reason = theory_check_literals(
            literals, builder, sat, has_trichotomy,
            self.lia_branch_limit, self.stats)
        if reason:
            self.unknown_reason = reason
        if outcome == SAT:
            self._model = model
        return outcome


def trichotomy_lemma(atom: Term) -> Term:
    return Solver._trichotomy(atom)


def _euf_conflict_clause(exc: EufConflict, closure: CongruenceClosure,
                         builder: CnfBuilder) -> Optional[List[int]]:
    """Minimal *valid* conflict clause for a structured EUF conflict.

    Cites exactly the asserted equality atoms (via the proof forest) and
    the violated disequality atom the inconsistency rests on — a theory
    tautology safe to retain across queries, and short enough to actually
    prune the SAT search (the coarse negate-every-eq-literal clause is
    satisfied by flipping any one of dozens of irrelevant literals).
    Returns ``None`` when the conflict carries no structure or mentions
    an atom the builder has no variable for; the caller falls back to
    the coarse clause.
    """
    info = exc.conflict
    if info is None:
        return None
    lits: Set[int] = set()
    try:
        if info[0] == "diseq":
            _, aid, bid, reason = info
            var = builder.atom_var.get(reason)
            if var is None:
                return None
            lits.add(var)
            pairs = [(closure.terms[aid], closure.terms[bid])]
        elif info[0] == "consts":
            _, xid, yid, why = info
            u, v = closure.terms[xid], closure.terms[yid]
            pairs = [(u, closure.terms[closure.find(xid)]),
                     (v, closure.terms[closure.find(yid)])]
            if why[0] == "eq":
                var = builder.atom_var.get(why[1])
                if var is None:
                    return None
                lits.add(-var)
            else:  # congruence: the argument equalities triggered the merge
                pairs.extend(zip(u.args, v.args))
        else:
            return None
        for atom in closure.explain(pairs):
            var = builder.atom_var.get(atom)
            if var is None:
                return None
            lits.add(-var)
    except EufConflict:
        return None
    return sorted(lits) if lits else None


def theory_check_literals(literals: List[Tuple[Term, bool]],
                          builder: CnfBuilder, sat: SatSolver,
                          has_trichotomy: Set[Term],
                          lia_branch_limit: int,
                          stats: SolverStats,
                          on_lemma=None,
                          retain_valid: bool = False
                          ) -> Tuple[str, Optional[Model], str]:
    """One DPLL(T) theory round over a boolean model's literals.

    Shared by the one-shot :class:`Solver` and the incremental contexts
    (:mod:`repro.smt.incremental`).  Returns ``(outcome, model, reason)``
    with outcome one of ``"sat"`` (model attached), ``"continue"``
    (a conflict clause or lemma was added to ``sat``/``builder``; run
    another round) or ``"unknown"`` (reason attached).

    ``retain_valid`` selects the LIA conflict-clause flavour.  The
    default (one-shot solving) reproduces the historical clause exactly:
    linearization maps each term to its congruence representative's
    simplex variable, silently using the equalities that merged the
    class, and the learned clause does *not* cite them.  Such a clause
    is only meaningful inside the query that asserted those equalities —
    which is fine when the clause database dies with the query, and the
    extra strength (it prunes models where the merge doesn't hold) is
    what makes one-shot convergence fast on EUF-heavy queries.  An
    incremental context retains clauses *forever*, where a contextually
    valid clause becomes an unsound lemma poisoning later deltas — so it
    passes ``retain_valid=True`` and gets clauses expanded via the proof
    forest (:meth:`CongruenceClosure.explain`) into theory tautologies
    citing exactly the asserted equalities the core relied on.

    Trichotomy and congruence lemmas are tautologies either way.
    ``on_lemma`` (when given) is invoked with each *term-level* lemma
    asserted through the builder, so incremental callers can track the
    lemma's atoms and re-assert it after a context rebuild.
    """
    eq_literals: List[Tuple[Term, bool]] = []
    closure = CongruenceClosure()
    # Register every term so congruence sees the whole universe.
    for atom, _pol in literals:
        closure.add(atom)
    try:
        for atom, pol in literals:
            if atom.op == Op.EQ:
                eq_literals.append((atom, pol))
                if pol:
                    closure.merge(atom.args[0], atom.args[1], reason=atom)
                else:
                    closure.assert_diseq(atom.args[0], atom.args[1],
                                         reason=atom)
    except EufConflict as exc:
        clause = None
        if retain_valid:
            clause = _euf_conflict_clause(exc, closure, builder)
        if clause is None:
            # Historical coarse clause: negate every eq literal of the
            # current model.  Sound (their conjunction is EUF-unsat) but
            # long, hence weak — the one-shot trajectory is built on it.
            clause = [
                -builder.atom_var[a] if p else builder.atom_var[a]
                for a, p in eq_literals
            ]
        sat.add_clause(clause)
        stats.lemmas += 1
        return "continue", None, ""

    # Lazily add trichotomy for negated int equalities we skipped.
    added_trichotomy = False
    for atom, pol in literals:
        if (atom.op == Op.EQ and not pol and atom.args[0].sort.is_int
                and atom not in has_trichotomy):
            lemma = Solver._trichotomy(atom)
            builder.assert_formula(lemma)
            if on_lemma is not None:
                on_lemma(lemma)
            has_trichotomy.add(atom)
            added_trichotomy = True
    if added_trichotomy:
        stats.lemmas += 1
        return "continue", None, ""

    # -- LIA --------------------------------------------------------------
    lia = lia_mod.LiaSolver(branch_limit=lia_branch_limit)
    rep_var: Dict[int, int] = {}
    # Per-tag record of the rep substitutions linearization performed —
    # consumed only under ``retain_valid`` (see docstring).
    tag_subs: Dict[object, List[Tuple[Term, Term]]] = {}
    cur_subs: List[Tuple[Term, Term]] = []

    def lia_var(term: Term) -> int:
        rep = closure.find(term.id) if term.id in closure.parent else term.id
        if rep != term.id:
            cur_subs.append((term, closure.terms[rep]))
        if rep not in rep_var:
            rep_var[rep] = lia.new_var()
        return rep_var[rep]

    def linearize(term: Term) -> Tuple[Dict[int, int], int]:
        if term.op == Op.INT_CONST:
            return {}, term.payload
        if term.op == Op.ADD:
            coeffs: Dict[int, int] = {}
            const = 0
            for part in term.args:
                c2, k2 = linearize(part)
                const += k2
                for v, c in c2.items():
                    coeffs[v] = coeffs.get(v, 0) + c
            return coeffs, const
        if term.op == Op.MUL_CONST:
            c2, k2 = linearize(term.args[0])
            return {v: term.payload * c for v, c in c2.items()}, term.payload * k2
        return {lia_var(term): 1}, 0

    def add_ineq(a: Term, b: Term, op: str, tag) -> None:
        del cur_subs[:]
        ca, ka = linearize(a)
        cb, kb = linearize(b)
        if cur_subs:
            tag_subs.setdefault(tag, []).extend(cur_subs)
        coeffs = dict(ca)
        for v, c in cb.items():
            coeffs[v] = coeffs.get(v, 0) - c
        lia.add(coeffs, op, kb - ka, tag)

    for atom, pol in literals:
        tag = builder.atom_var[atom] * (1 if pol else -1)
        if atom.op == Op.LE:
            if pol:
                add_ineq(atom.args[0], atom.args[1], "<=", tag)
            else:
                add_ineq(atom.args[0], mk_add(atom.args[1], mk_int(1)), ">=", tag)
        elif atom.op == Op.EQ and atom.args[0].sort.is_int and pol:
            add_ineq(atom.args[0], atom.args[1], "=", tag)
    # Equalities derived by congruence, over integer terms.  Each gets
    # its own tag so a conflict core identifies exactly which derived
    # equalities it used; the pair is kept for proof-forest explanation.
    euf_pairs: Dict[object, Tuple[Term, Term]] = {}
    for k, (a, b) in enumerate(closure.int_equalities()):
        tag = ("euf", k)
        euf_pairs[tag] = (a, b)
        add_ineq(a, b, "=", tag)

    status, core, lia_model = lia.check()
    if status == lia_mod.UNSAT:
        if not retain_valid:
            # Historical one-shot clause: int tags negated directly, a
            # core touching derived equalities negates every eq literal
            # wholesale, rep substitutions uncited (see docstring).
            clause: List[int] = []
            coarse = False
            for tag in core or []:
                if isinstance(tag, int):
                    clause.append(-tag)
                else:
                    coarse = True
            if coarse:
                for a, p in eq_literals:
                    clause.append(
                        -builder.atom_var[a] if p else builder.atom_var[a])
            if not clause:
                return UNKNOWN, None, "lia conflict without core"
            sat.add_clause(sorted(set(clause)))
            stats.lemmas += 1
            return "continue", None, ""
        clause_lits: Set[int] = set()
        support: List[Tuple[Term, Term]] = []
        for tag in core or []:
            if isinstance(tag, int):
                clause_lits.add(-tag)
            else:
                support.append(euf_pairs[tag])
            support.extend(tag_subs.get(tag, ()))
        # Negate the asserted equalities whose merges the core relied on
        # (via rep substitution or derived equalities) — this makes the
        # clause a theory tautology rather than something conditional on
        # this round's eq literals.
        for atom in closure.explain(support):
            clause_lits.add(-builder.atom_var[atom])
        if not clause_lits:
            return UNKNOWN, None, "lia conflict without core"
        sat.add_clause(sorted(clause_lits))
        stats.lemmas += 1
        return "continue", None, ""
    if status == lia_mod.UNKNOWN:
        return UNKNOWN, None, "lia branch-and-bound limit"

    # -- candidate model ---------------------------------------------------
    universe: List[Term] = []
    seen: Set[int] = set()
    for atom, _pol in literals:
        for t in subterms(atom):
            if t.id not in seen:
                seen.add(t.id)
                universe.append(t)
    assigned: Dict[Term, int] = {}
    class_of: Dict[Term, int] = {}
    # Class values must be *query-local* dense numbers, not raw
    # representative term ids: cons ids depend on process history, and
    # these values leak into counterexample inputs (and hence the
    # whole synthesis trajectory) through build_model.
    dense: Dict[int, int] = {}
    assert lia_model is not None
    for t in universe:
        raw = closure.find(t.id) if t.id in closure.parent else None
        if raw is not None:
            if raw not in dense:
                dense[raw] = len(dense) + 1
            class_of[t] = dense[raw]
        if t.sort.is_int and t.op in (Op.VAR, Op.APP, Op.SELECT, Op.MUL, Op.DIV, Op.MOD):
            rep = raw if raw is not None else t.id
            if rep in rep_var:
                assigned[t] = lia_model[rep_var[rep]]
            else:
                const = closure.constant_of(t)
                assigned[t] = const if const is not None else 0
    try:
        model = build_model(universe, assigned, class_of)
    except ModelInconsistency as exc:
        _add_congruence_lemma(exc.left, exc.right, builder, stats, on_lemma)
        return "continue", None, ""
    violation = verify_literals(model, literals)
    if violation is not None:
        return UNKNOWN, None, f"model verification failed on {violation[0]!r}"
    return SAT, model, ""


def _add_congruence_lemma(left: Term, right: Term, builder: CnfBuilder,
                          stats: SolverStats, on_lemma=None) -> None:
    """Add the (valid) instance of congruence violated by the model."""
    stats.lemmas += 1
    if left.op != right.op or left.payload != right.payload:
        # Different heads can only clash through array reconstruction;
        # fall back to equating the terms outright is NOT valid, so use
        # select-index disambiguation below only for selects.
        raise RuntimeError(f"unexpected congruence clash {left!r} / {right!r}")
    parts = [mk_not(mk_eq(a, b)) for a, b in zip(left.args, right.args) if a is not b]
    parts.append(mk_eq(left, right))
    lemma = mk_or(*parts)
    builder.assert_formula(lemma)
    if on_lemma is not None:
        on_lemma(lemma)


def check_formulas(formulas: Iterable[Term], axioms: Iterable[Axiom] = (),
                   **kwargs) -> Tuple[str, Optional[Model]]:
    """Convenience one-shot check; returns (status, model or None)."""
    solver = Solver(axioms=axioms, **kwargs)
    solver.add(*formulas)
    status = solver.check()
    return status, (solver.model() if status == SAT else None)
