"""Pattern-driven axiom instantiation (a small E-matching).

External library functions (``strlen``, ``append``, ``cos`` ...) are
uninterpreted symbols constrained by universally quantified axioms, as in
Section 2.3 of the paper.  Before ground solving, each axiom is
instantiated against the ground terms occurring in the query: a *trigger*
pattern is matched syntactically against every ground subterm, the
resulting substitution is applied to the axiom body, and the ground
instance is added as an ordinary assertion.  Instantiation runs for a
bounded number of rounds because instances introduce new ground terms.

This is sound (every instance is implied by the axiom) and incomplete
(like every trigger-based instantiation, including Z3's) — acceptable
here because PINS is inductive and validates its output post-hoc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .terms import Term, substitute, subterms


@dataclass(frozen=True)
class Axiom:
    """A universally quantified axiom.

    ``variables`` are the quantified variables (as ``mk_var`` terms whose
    names conventionally start with ``?``); ``body`` is the matrix;
    ``patterns`` are triggers over those variables.  A trigger is either a
    single term or a *multi-pattern* (tuple of terms matched jointly
    against the ground pool); each trigger must cover every variable.
    """

    name: str
    variables: Tuple[Term, ...]
    body: Term
    patterns: Tuple[object, ...]  # Term or Tuple[Term, ...]

    def normalized_patterns(self) -> Tuple[Tuple[Term, ...], ...]:
        return tuple(
            pat if isinstance(pat, tuple) else (pat,) for pat in self.patterns
        )

    def __post_init__(self) -> None:
        bound = set(self.variables)
        for pat in self.normalized_patterns():
            covered: Set[Term] = set()
            for component in pat:
                covered |= {t for t in subterms(component) if t in bound}
            if covered != bound:
                missing = {v.payload for v in bound - covered}
                raise ValueError(
                    f"axiom {self.name!r}: pattern {pat!r} does not cover {missing}"
                )


def match(pattern: Term, ground: Term, bound: Set[Term],
          subst: Optional[Dict[Term, Term]] = None) -> Optional[Dict[Term, Term]]:
    """Syntactic one-way matching of ``pattern`` against ``ground``."""
    if subst is None:
        subst = {}
    if pattern in bound:
        seen = subst.get(pattern)
        if seen is None:
            if pattern.sort is not ground.sort:
                return None
            subst[pattern] = ground
            return subst
        return subst if seen is ground else None
    if pattern.op != ground.op or pattern.payload != ground.payload:
        return None
    if len(pattern.args) != len(ground.args):
        return None
    for p_arg, g_arg in zip(pattern.args, ground.args):
        if match(p_arg, g_arg, bound, subst) is None:
            return None
    return subst


def instantiate(axioms: Sequence[Axiom], assertions: Sequence[Term],
                rounds: int = 2, max_instances: int = 2000) -> List[Term]:
    """Ground instances of ``axioms`` relevant to ``assertions``."""
    instances: List[Term] = []
    produced: Set[Tuple[str, Tuple[int, ...]]] = set()
    ground_pool: List[Term] = []
    pool_ids: Set[int] = set()

    def feed(term: Term) -> None:
        for sub in subterms(term):
            if sub.id not in pool_ids:
                pool_ids.add(sub.id)
                ground_pool.append(sub)

    for formula in assertions:
        feed(formula)

    def joint_matches(components: Tuple[Term, ...], bound: Set[Term],
                      pool: List[Term]):
        """All substitutions matching every component against the pool."""
        partials: List[Dict[Term, Term]] = [{}]
        for component in components:
            extended: List[Dict[Term, Term]] = []
            for partial in partials:
                for ground in pool:
                    subst = match(component, ground, bound, dict(partial))
                    if subst is not None:
                        extended.append(subst)
                if len(extended) > 50_000:
                    break
            partials = extended
            if not partials:
                return
        yield from partials

    for _ in range(rounds):
        new_instances: List[Term] = []
        pool_snapshot = list(ground_pool)
        for axiom in axioms:
            bound = set(axiom.variables)
            for pattern in axiom.normalized_patterns():
                for subst in joint_matches(pattern, bound, pool_snapshot):
                    if len(subst) != len(bound):
                        continue
                    key = (axiom.name,
                           tuple(subst[v].id for v in axiom.variables))
                    if key in produced:
                        continue
                    produced.add(key)
                    new_instances.append(substitute(axiom.body, dict(subst)))
                    if len(produced) >= max_instances:
                        break
                if len(produced) >= max_instances:
                    break
        if not new_instances:
            break
        for inst in new_instances:
            feed(inst)
        instances.extend(new_instances)
    return instances
