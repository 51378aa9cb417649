"""The ``pickOne`` heuristic (Section 2.3, "Picking one solution").

PINS prefers to symbolically execute under the solution most likely to be
*incorrect*, because exploring a path feasible in a bad solution generates
constraints that eliminate it (and its neighbours).  The heuristic scores
each solution by ``infeasible(S) = |{f in F : S(f) = false}|`` — solutions
that survived only because the explored paths are infeasible under them
are prime suspects — and picks a maximum, breaking ties randomly.

``pick_random`` is the ablation baseline the paper reports as ~20% slower.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .. import obs
from ..symexec.paths import Path, substitute_items
from .checker import ConstraintChecker
from .template import Solution


def infeasible_score(solution: Solution, explored: Sequence[Path],
                     checker: ConstraintChecker) -> int:
    """``infeasible(S)``: explored paths that are infeasible under S."""
    return sum(1 for path in explored if checker.path_infeasible(path, solution))


def _prefetch_scores(solutions: Sequence[Solution], explored: Sequence[Path],
                     checker: ConstraintChecker, pool) -> None:
    """Warm the checker's sat cache for every (solution, path) probe.

    Pure cache warming: each probe's answer is a deterministic function
    of its ground predicates, so the subsequent serial scoring loop reads
    the same values it would have computed itself — only faster.
    """
    tasks = []
    keys = []
    seen = set()
    for solution in solutions:
        for pidx, path in enumerate(explored):
            ground = tuple(substitute_items(path.items, solution.expr_map,
                                            solution.pred_map))
            if ground in seen or checker.has_cached(ground):
                continue
            seen.add(ground)
            keys.append(ground)
            tasks.append(("path_sat", pidx, solution))
    if len(tasks) < 2:
        return
    obs.count("pickone.prefetch", len(tasks))
    results = pool.map_ordered(tasks)
    for key, result in zip(keys, results):
        checker.prime(key, result)


def pick_one(solutions: Sequence[Solution], explored: Sequence[Path],
             checker: ConstraintChecker, rng: random.Random,
             pool=None) -> Solution:
    """The paper's heuristic: maximize infeasible(S), ties random."""
    if not solutions:
        raise ValueError("pick_one needs at least one solution")
    if not explored or len(solutions) == 1:
        return rng.choice(list(solutions))
    if pool is not None and pool.parallel:
        _prefetch_scores(solutions, explored, checker, pool)
    scored: List[tuple] = []
    best = -1
    for solution in solutions:
        score = infeasible_score(solution, explored, checker)
        scored.append((score, solution))
        best = max(best, score)
    top = [s for score, s in scored if score == best]
    return rng.choice(top)


def pick_random(solutions: Sequence[Solution], explored: Sequence[Path],
                checker: ConstraintChecker, rng: random.Random,
                pool=None) -> Solution:
    """Ablation baseline: uniform random selection."""
    if not solutions:
        raise ValueError("pick_random needs at least one solution")
    return rng.choice(list(solutions))
