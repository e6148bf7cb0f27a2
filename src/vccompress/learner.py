"""Weak learners built from subset-bounded empirical risk minimization.

The reconstruction side of the compression scheme can only rerun learners on
data it receives, so every hypothesis here is pinned to a provenance: the
labeled subset whose ERM produced it.  ERM is deterministic (lowest concept
index wins), which makes hypotheses exactly reproducible from their subsets.

``build_hypothesis_set`` finds a small pool of such hypotheses together with
a mixture that agrees with the sample's labels on every point with mass at
least 2/3, certified in exact arithmetic.  That margin survives a later
1/8-sparsification with a strict integer majority to spare.

One search builds every pool.  Concept c is the ERM of a labeled subset
exactly when c labels the subset correctly and the subset kills every
concept below c, so finding c's shortest such subset is a teaching-set
search (Goldman & Kearns 1995) over the points c labels correctly.

The subset budget is the learner's own: max(1, d), d the class's VC
dimension, capped at the sample's distinct points.  The learner never asks
for d outright.  In the consistent-hypothesis case (Littlestone & Warmuth
1986) no game is solved: the search for c0, the lowest concept consistent
with the whole sample, runs first, one size at a time, and enters a size
s >= 2 only once the VC search capped at s says d >= s.  A hit makes the
mixture a point mass on c0, certified at value exactly 1, and d is never
computed.  The first size the capped search refuses gives d exactly (and
the search keeps it on the class), and only then is the pool the ERM image
of all subsets within budget, one search per concept that errs on some
sampled point.  Its agreement game is solved exactly at any size, through
the game module's one exact path: it has one row per hypothesis and one
column per distinct agreement pattern, and tall games are cheap for the
exact simplex.  Every taught point mass shares one certificate, the
solution of the 1x1 game [[1]].  No step draws random numbers.  If the
budget is too small for a certificate, the builder doubles it and carries
c0's search on to the larger sizes; at budget = #distinct points the whole
sample teaches c0, so termination never depends on luck.  The empty sample
needs no case of its own: c0 is concept 0, the ERM of the empty subset,
taught at budget 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .concepts import ConceptClass, LabeledSample, vc_dimension
from .errors import UnrealizableError, WeakLearningError
from .game import GameSolution, _exact_solution

__all__ = [
    "WEAK_AGREEMENT",
    "HypothesisSet",
    "lowest_consistent_concept",
    "escalate_budget",
    "build_hypothesis_set",
]

logger = logging.getLogger(__name__)

WEAK_AGREEMENT = Fraction(2, 3)

# Prefixes one size of a teaching-set search may visit before it settles
# for all of its points (or gives up when they exceed the budget).
_PREFIX_CAP = 20_000


@dataclass(frozen=True)
class HypothesisSet:
    """Hypotheses (concept indices, ascending) with the labeled-subset
    provenance that regenerates each one via ERM, plus the budget that was
    finally sufficient: for a point mass taught within max(1, d), the
    teaching set's size min(max(1, t), k) at which it was certified, which
    is at most the subset budget min(max(1, d), k); otherwise the subset
    budget itself, escalations included."""

    hypotheses: tuple[int, ...]
    provenance: tuple[tuple[int, ...], ...]
    budget: int

    def __post_init__(self):
        if len(self.hypotheses) != len(self.provenance):
            raise ValueError("each hypothesis needs exactly one provenance subset")
        if not self.hypotheses:
            raise ValueError("hypothesis set cannot be empty")
        if list(self.hypotheses) != sorted(set(self.hypotheses)):
            raise ValueError("hypotheses must be strictly increasing")

    def __len__(self):
        return len(self.hypotheses)


def lowest_consistent_concept(
    concept_class: ConceptClass, labeled_points: Iterable[tuple[int, int]]
) -> int:
    """Index of the lowest concept consistent with every (point, label) pair.

    This is the tie-breaking rule that makes ERM a pure function of its
    input subset.  Raises ValueError for a point outside the domain and
    UnrealizableError when nothing is consistent.
    """
    masks = concept_class.point_masks
    n = concept_class.domain_size
    full = (1 << len(concept_class.rows)) - 1
    alive = full
    for point, label in labeled_points:
        if not 0 <= point < n:
            raise ValueError(f"point {point!r} outside domain of size {n}")
        alive &= masks[point] if label else ~masks[point] & full
        if not alive:
            raise UnrealizableError("the labeled points are not realizable by the class")
    return (alive & -alive).bit_length() - 1


def escalate_budget(subset_budget: int, distinct_point_count: int) -> int:
    """Double the subset budget, capped at the number of distinct points in
    play (beyond which larger subsets add nothing).  Never shrinks."""
    if distinct_point_count < 1:
        raise ValueError("distinct point count must be at least 1")
    return max(subset_budget, min(2 * subset_budget, distinct_point_count))


# -- certified mixtures --------------------------------------------------------


def _certify_mixture(agreement: np.ndarray) -> GameSolution | None:
    """Solve the hypotheses-vs-points agreement game exactly; None when its
    value falls short of WEAK_AGREEMENT.

    Duplicate point columns are collapsed before solving (they cannot change
    the game), so the solution is that of the game over the distinct
    agreement patterns.
    """
    # an unused return_index keeps np.unique from calling np.ma.is_masked,
    # whose first call imports numpy.ma (tens of ms and about 1 MB per process)
    patterns, _ = np.unique(agreement, axis=1, return_index=True)
    solution = _exact_solution(patterns)
    return solution if solution.exact_value >= WEAK_AGREEMENT else None


# The certificate of every taught point mass: c0 agrees with every label, so
# its agreement game has one pattern, all ones, i.e. the 1x1 game [[1]].
_POINT_MASS = _exact_solution(np.ones((1, 1), dtype=np.uint8))


# -- pool construction -----------------------------------------------------------


def build_hypothesis_set(
    concept_class: ConceptClass,
    sample: LabeledSample,
) -> tuple[HypothesisSet, GameSolution]:
    """Hypothesis pool plus a certified weak mixture for a realizable sample.

    Returns the pool and a GameSolution whose row strategy weights the
    hypotheses (in pool order), whose column strategy is the adversarial
    distribution over the distinct agreement patterns of the sample's
    points (points on which every hypothesis agrees or errs alike share one
    column), whose exact_value is the exact game value (at least 2/3), and
    whose value_estimate is float(exact_value).  The exact simplex certifies
    optimality in integers against every column, so no float recheck
    follows.  The empty sample is accepted: its c0 is concept 0, taught by
    the empty subset, with the shared point-mass certificate.

    c0, the lowest concept consistent with the whole sample, comes from
    ``lowest_consistent_concept``, which also checks the sample for compress
    (ValueError outside the domain, UnrealizableError if unrealizable).

    The subset budget is the learner's: max(1, d) capped at the k distinct
    points, d being the class's VC dimension, which it asks for only as far
    as it needs.  A pruned search looks for the shortest subset (first in
    combinations order) whose ERM is c0, one size at a time.  Sizes 0 and 1
    are always within budget; a size s >= 2 is entered only after
    ``vc_dimension(concept_class, s)`` returns s, i.e. d >= s.  c0 agrees
    with every label, so a hit gives a one-hypothesis set with that subset
    as its provenance, certified at budget min(max(1, t), k) for a teaching
    set of t points, and the point mass's certificate: its game has one
    pattern, so the solution is that of the 1x1 game [[1]] (exact_value 1,
    value_estimate 1.0, exploitability 0, both strategies [1.0]).  It is
    one module-level constant, frozen with read-only weight arrays, shared
    by every call, so a taught sample solves no game.

    The first s whose capped search returns less than s gives d exactly, and
    every size up to max(1, d) has been searched.  Only then does a game
    run, over the ERM image at budget min(max(1, d), k): every concept that
    is the ERM of some subset within budget, each with its shortest such
    subset (``_erm_image``).  The exact simplex solves it at any size;
    EXACT_ENTRY_CAP is a policy of solve_exact and sparse_epsilon_nash only,
    never of the learner.  The pool and its certificate are deterministic;
    no seed enters.  The budget doubles whenever the certified game falls
    short, and c0's search goes on, without a ceiling, through the sizes the
    larger budget admits, before the larger ERM image is tried; at budget
    = k, c0 teaches itself, so the escalation always terminates.
    """
    points = sample.distinct_points
    labels_by_point = dict(sample.label_items)
    k = len(points)
    consistent = lowest_consistent_concept(concept_class, sample.label_items)
    teaching_sizes = _teaching_search(concept_class, points, labels_by_point, consistent)
    ceilings = []
    for size in range(k + 1):
        if size >= 2:
            ceilings.append(size)
            dimension = vc_dimension(concept_class, size)
            if dimension < size:
                break
        teaching = next(teaching_sizes)
        if teaching is not None:
            logger.debug(
                "taught point mass: c0 = %d by %d points (ceilings queried: %s)",
                consistent, size, ceilings,
            )
            return HypothesisSet((consistent,), (teaching,), min(max(1, size), k)), _POINT_MASS
    # d < size <= k, and no size up to max(1, d) teaches c0
    budget = min(max(1, dimension), k)
    while True:
        hypotheses, provenance, agreement = _erm_image(
            concept_class, points, labels_by_point, budget
        )
        solution = _certify_mixture(agreement)
        if solution is not None:
            logger.debug(
                "certified %d hypotheses by the ERM image at budget %d "
                "(agreement %.4f; d = %d from the search capped at %d)",
                len(hypotheses), budget, solution.value_estimate, dimension, ceilings[-1],
            )
            return HypothesisSet(tuple(hypotheses), tuple(provenance), budget), solution
        if budget >= k:
            # all k points teach c0, so c0's search cannot miss at this
            # budget; reaching this line means the search itself is broken
            raise WeakLearningError(
                f"no certified mixture at the full budget {budget} for {k} points"
            )
        searched, budget = budget, escalate_budget(budget, k)
        for size in range(searched + 1, budget + 1):
            teaching = next(teaching_sizes)
            if teaching is not None:
                logger.debug(
                    "taught point mass: c0 = %d by %d points after escalating to "
                    "budget %d (d = %d)",
                    consistent, size, budget, dimension,
                )
                return HypothesisSet((consistent,), (teaching,), budget), _POINT_MASS


def _erm_image(cls, points, labels_by_point, budget):
    """Every concept that is the ERM of some subset of at most `budget` of
    `points`, ascending, with the shortest such subset of each (first in
    combinations order), and the image's uint8 agreement rows over `points`.

    A subset's ERM is c exactly when c labels all of it correctly and it
    kills every concept below c, so each concept's entry is a teaching-set
    search over the points c labels correctly.  Restricting the points keeps
    their combinations order, so the subset found is the first shortest one
    over all of `points`.  Concepts that agree with every point are skipped:
    above c0, the lowest of them, none is an ERM, since c0 survives every
    subset, and ``build_hypothesis_set`` asks only for budgets within which
    c0's own search has failed.  So concept 0, the ERM of the empty subset,
    is in the image unless it is c0.
    """
    labels = np.array([labels_by_point[x] for x in points], dtype=np.uint8)
    agrees = cls.matrix[:, np.asarray(points, dtype=np.intp)] == labels
    hypotheses, provenance = [], []
    for c in np.flatnonzero(~agrees.all(axis=1)).tolist():
        kept = [x for x, agree in zip(points, agrees[c]) if agree]
        subset = _teaching_subset(cls, kept, labels_by_point, budget, c)
        if subset is not None:
            hypotheses.append(c)
            provenance.append(subset)
    return hypotheses, provenance, agrees[hypotheses].astype(np.uint8)


def _teaching_subset(cls, points, labels_by_point, budget, c0):
    """The shortest subset of `points` (first in combinations order) whose
    ERM is c0, or None when no subset of at most `budget` points has it;
    ``_teaching_search`` up to size `budget`."""
    search = _teaching_search(cls, points, labels_by_point, c0)
    for _, subset in zip(range(budget + 1), search):
        if subset is not None:
            return subset
    return None


def _teaching_search(cls, points, labels_by_point, c0):
    """For size 0, 1, ... in turn, the first subset of that many of `points`
    (in combinations order) whose ERM is c0, or None when there is none;
    it ends after the first hit, or at once when nothing teaches c0.  Each
    size is searched only when asked for.

    c0 must label every point of `points` correctly.  A subset's ERM is then
    c0 exactly when the subset kills every concept below c0: a hitting set
    over the point_masks bitsets (a teaching set, Goldman & Kearns 1995).
    When some concept below c0 survives all of `points`, no subset teaches
    c0 and the search ends at once.  Otherwise each size is a depth-first
    search in combinations order; a branch is pruned when some live concept
    survives every point still available to it.  A size that visits more
    than _PREFIX_CAP prefixes ends the search of shorter subsets: the sizes
    left below len(points) yield None and that size yields all of `points`,
    which teach c0.  So when c0 is the lowest concept consistent with all of
    `points`, the search yields a subset by size len(points).  The search
    keeps an explicit stack, so its depth is not bounded by the recursion
    limit.
    """
    below = (1 << c0) - 1
    if not below:
        yield ()
        return
    masks = cls.point_masks
    cons = [masks[x] & below if labels_by_point[x] else ~masks[x] & below for x in points]
    k = len(cons)
    suffix_and = [below] * (k + 1)  # concepts below c0 that points[j:] all keep
    for j in range(k - 1, -1, -1):
        suffix_and[j] = suffix_and[j + 1] & cons[j]
    if suffix_and[0]:
        return
    yield None  # the empty subset keeps every concept below c0
    for size in range(1, k + 1):
        nodes = 0
        chosen: list[int] = []
        alive = [below]  # alive[t]: concepts below c0 that chosen[:t] keeps
        j = 0
        while True:
            remaining = size - len(chosen)
            if j <= k - remaining and not alive[-1] & suffix_and[j]:
                nodes += 1
                if nodes > _PREFIX_CAP:
                    for _ in range(size, k):
                        yield None
                    yield tuple(points)
                    return
                left = alive[-1] & cons[j]
                if remaining > 1:
                    chosen.append(j)
                    alive.append(left)
                elif not left:
                    yield tuple(points[i] for i in chosen) + (points[j],)
                    return
                j += 1
            elif chosen:
                j = chosen.pop() + 1
                alive.pop()
            else:
                break
        yield None
