"""Weak learners built from subset-bounded empirical risk minimization.

The reconstruction side of the compression scheme can only rerun learners on
data it receives, so every hypothesis here is pinned to a provenance: the
labeled subset whose ERM produced it.  ERM is deterministic (lowest concept
index wins), which makes hypotheses exactly reproducible from their subsets.

``build_hypothesis_set`` finds a small pool of such hypotheses together with
a mixture that agrees with the sample's labels on every point with mass at
least 2/3, certified in exact arithmetic.  That margin survives a later
1/8-sparsification with a strict integer majority to spare.

Concept c is the ERM of a labeled subset exactly when c labels the subset
correctly and the subset kills every concept below c, so finding c's
shortest such subset is a teaching-set search (Goldman & Kearns 1995) over
the points c labels correctly.  One walk over the sample's subsets,
``_first_subsets``, runs that search for a whole set of sought concepts at
once: sizes 0, 1, ..., each in combinations order, keeping the first subset
that reaches each sought concept.  Its one prune: a prefix's scan of
candidates stops at the first one from which some concept below the lowest
sought concept the prefix keeps survives every remaining point, since every
completion from there on has an unsought ERM.  c0, the lowest concept
consistent with the whole sample, is sought alone; the ERM image seeks
every concept below c0.

The subset budget is the learner's own: max(1, d), d the class's VC
dimension, capped at the sample's k distinct points, and one loop decides
it while it searches.  The loop walks the subset sizes 0, 1, ..., k, and at
each size:

1. from size 2 on, until d is known, it asks the VC search capped at the
   size whether d >= size.  The first size refused gives d exactly (the
   search keeps it on the class), and the budget becomes min(max(1, d), k).
2. Once the budget is known, a size above it first tries the ERM image at
   the budget: every concept other than c0 that is the ERM of some subset
   within budget, found by the walk that seeks every concept below c0, up
   to the budget.  The game is played on the image's undominated hypotheses:
   a hypothesis whose agreed points are a strict subset of another's never
   helps the row player (elimination of strictly dominated strategies; von
   Neumann & Morgenstern 1944), so dropping it keeps the game value, and
   an optimal strategy of the smaller game, padded with zeros, is optimal
   in the full one.  That game has one row per undominated hypothesis and
   one column per distinct agreement pattern, and the game module's one
   exact path solves it at any size.  A value of at least 2/3 returns that
   mixture over the undominated hypotheses; otherwise the budget doubles
   and the image is tried again, until the size fits the budget.
3. c0's walk goes through that size, looking for a subset of it whose ERM
   is c0.  A hit returns the point mass on c0:
   the consistent-hypothesis case (Littlestone & Warmuth 1986), certified
   at value exactly 1 by the shared solution of the 1x1 game [[1]].  Its
   budget is its teaching set's size, min(max(1, t), k) for t points,
   whether or not the budget escalated first.

So a sample taught within max(1, d) solves no game and never computes d.
A certified mixture holds at least two hypotheses: one row reaches 2/3
only by agreeing with every label, and c0, the only such concept an ERM
can be, is never in the image.  No step draws random numbers.  At size k
the learner takes the whole sample, which teaches c0, so termination never
depends on luck, nor on a walk that a cap ended early.  The
empty sample needs no case of its own: c0 is concept 0, the ERM of the
empty subset, taught at size 0.
"""

from __future__ import annotations

import itertools
import logging
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .concepts import ConceptClass, LabeledSample, _column_ints, _consistent_mask, vc_dimension
from .errors import UnrealizableError
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

# Prefixes one size of the subset walk may visit per concept it still seeks;
# a size that visits more ends the walk with what it has found.
_PREFIX_CAP = 20_000


@dataclass(frozen=True)
class HypothesisSet:
    """Hypotheses (concept indices, ascending) with the labeled-subset
    provenance that regenerates each one via ERM, plus the budget they were
    certified at: a point mass reports its teaching set's size,
    min(max(1, t), k) for t teaching points of the sample's k, and a mixture
    reports the image budget its game certified at.  No provenance subset
    has more points, and ``compress`` reports this budget as the report's
    ``subset_budget``."""

    hypotheses: tuple[int, ...]
    provenance: tuple[tuple[int, ...], ...]
    budget: int

    def __post_init__(self):
        if len(self.hypotheses) != len(self.provenance):
            raise ValueError("each hypothesis needs exactly one provenance subset")
        if not self.hypotheses:
            raise ValueError("hypothesis set cannot be empty")
        if not all(map(operator.lt, self.hypotheses, self.hypotheses[1:])):
            raise ValueError("hypotheses must be strictly increasing")

    def __len__(self):
        return len(self.hypotheses)


def lowest_consistent_concept(
    concept_class: ConceptClass, labeled_points: Iterable[tuple[int, int]]
) -> int:
    """Index of the lowest concept consistent with every (point, label) pair.

    This is the tie-breaking rule that makes ERM a pure function of its
    input subset.  The concepts left are ``concepts._consistent_mask``'s
    fold, which checks every point: ValueError for any point outside the
    domain, and otherwise UnrealizableError when nothing is consistent.
    """
    alive = _consistent_mask(concept_class, labeled_points)
    if not alive:
        raise UnrealizableError("the labeled points are not realizable by the class")
    return (alive & -alive).bit_length() - 1


def escalate_budget(subset_budget: int, point_count: int) -> int:
    """Double the subset budget, capped at the number of distinct points in
    play (beyond which larger subsets add nothing).  Never shrinks."""
    if point_count < 1:
        raise ValueError("distinct point count must be at least 1")
    return max(subset_budget, min(2 * subset_budget, point_count))


# -- certified mixtures --------------------------------------------------------


def _certify_mixture(agreement: np.ndarray) -> GameSolution | None:
    """Solve the hypotheses-vs-points agreement game exactly; None when its
    value falls short of WEAK_AGREEMENT.

    Duplicate point columns are collapsed before solving (they cannot change
    the game), so the solution is that of the game over the distinct
    agreement patterns, in the lexicographic column order of
    ``np.unique(agreement, axis=1)``: for 0/1 bytes, the order of the
    columns' bytes.
    """
    m = len(agreement)
    data = agreement.T.tobytes()  # column after column, m bytes each
    keys = sorted({data[i : i + m] for i in range(0, len(data), m)})
    patterns = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), m).T
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
    distribution over the pool's distinct agreement patterns on the
    sample's points (points on which every hypothesis agrees or errs alike
    share one column), whose exact_value is the exact game value (at least
    2/3), and whose value_estimate is float(exact_value).  The exact simplex certifies
    optimality in integers against every column, so no float recheck
    follows.  The empty sample is accepted: its c0 is concept 0, taught by
    the empty subset, with the shared point-mass certificate.

    c0, the lowest concept consistent with the whole sample, comes from
    ``lowest_consistent_concept``, which also checks the sample for compress
    (ValueError outside the domain, UnrealizableError if unrealizable).

    The one loop over subset sizes is the module docstring's.  A teaching
    set is the shortest subset (first in combinations order) whose ERM is
    c0.  A size s >= 2 is searched only once the capped search
    ``vc_dimension(concept_class, s)`` has returned s, or once the budget
    has escalated to at least s.  A point mass keeps its teaching set as
    its one provenance and reports its size, min(max(1, t), k) for t
    teaching points, as its budget; a mixture reports the image budget its
    game certified at.  A point mass's certificate is one
    module-level constant, frozen with read-only weight arrays (exact_value
    1, value_estimate 1.0, exploitability 0, both strategies [1.0]).  A
    mixture's pool is the undominated part (``_undominated``) of the ERM
    image at its budget (``_erm_image``), each hypothesis with its shortest
    subset.  EXACT_ENTRY_CAP is a policy of solve_exact and
    sparse_epsilon_nash only, never of the learner.
    """
    labels_by_point = dict(sample.label_items)
    points = tuple(labels_by_point)  # the distinct points, ascending as label_items is
    k = len(points)
    consistent = lowest_consistent_concept(concept_class, sample.label_items)
    walk = _first_subsets(concept_class, points, labels_by_point, consistent, 1 << consistent)
    dimension = budget = None  # unknown until a capped search refuses its ceiling
    for size in range(k + 1):
        if size >= 2 and budget is None:
            dimension = vc_dimension(concept_class, size)
            if dimension < size:
                budget = min(max(1, dimension), k)
        while budget is not None and budget < size:
            hypotheses, provenance, agreement = _erm_image(
                concept_class, points, labels_by_point, budget, consistent
            )
            pool = _undominated(agreement)
            solution = _certify_mixture(agreement[pool])
            if solution is not None:
                logger.debug(
                    "certified %d undominated of %d hypotheses in the ERM image at "
                    "budget %d (agreement %.4f; d = %d from the search capped at %d)",
                    len(pool), len(hypotheses), budget, solution.value_estimate, dimension,
                    max(2, dimension + 1),
                )
                return HypothesisSet(
                    tuple(hypotheses[i] for i in pool), tuple(provenance[i] for i in pool), budget
                ), solution
            budget = escalate_budget(budget, k)
        first = next(walk, {})  # {} once a cap has ended the walk
        if consistent in first or size == k:  # all k points teach c0
            teaching = first.get(consistent, tuple(points))
            logger.debug(
                "taught point mass: c0 = %d by %d points (search budget %s)",
                consistent, size, budget,
            )
            return HypothesisSet((consistent,), (teaching,), min(max(1, size), k)), _POINT_MASS


def _erm_image(cls, points, labels_by_point, budget, c0):
    """Every concept other than c0 that is the ERM of some subset of at most
    `budget` of `points`, ascending, with its first shortest subset, and the
    image's uint8 agreement rows over `points`; c0 is the lowest concept
    consistent with all of `points`.

    The walk seeks every concept below c0: no subset's ERM lies above c0,
    which survives every subset, and c0 is left out, since
    ``build_hypothesis_set`` asks only for budgets within which c0's own
    walk has failed.  So concept 0, the ERM of the empty subset, is in the
    image unless it is c0.  A walk that a size's cap ends before the budget
    keeps what it has found: the image is the walk's last yield either way.
    """
    walk = _first_subsets(cls, points, labels_by_point, c0, (1 << c0) - 1)
    *_, first = itertools.islice(walk, budget + 1)
    hypotheses = sorted(first)
    labels = np.array([labels_by_point[x] for x in points], dtype=np.uint8)
    rows = cls.matrix[np.ix_(hypotheses, np.asarray(points, dtype=np.intp))]
    return hypotheses, [first[c] for c in hypotheses], (rows == labels).astype(np.uint8)


def _undominated(agreement: np.ndarray) -> list[int]:
    """The rows, ascending, that no other row strictly dominates: no row
    agrees on a strict superset of their points.  A dominated row is
    dominated by an undominated one, which has more ones, so each row is
    checked, in order of falling ones, against the rows kept so far."""
    agreed = _column_ints(agreement.T)
    kept: list[int] = []
    for i in sorted(range(len(agreed)), key=lambda i: -agreed[i].bit_count()):
        a = agreed[i]
        if not any(a & agreed[h] == a != agreed[h] for h in kept):
            kept.append(i)
    return sorted(kept)


def _first_subsets(cls, points, labels_by_point, c0, sought):
    """Walk the subsets of `points` by size 0, 1, ..., each size in
    combinations order, and after each size yield one dict, the same each
    time: every concept of the bitset `sought` found so far, with the first
    subset of least size whose ERM it is.  c0 is the lowest concept
    consistent with all of `points`, and `sought` holds only concepts up to
    c0, since no subset's ERM lies above it.  The walk ends once nothing is
    sought, after size len(points), or after a size that visits more than
    _PREFIX_CAP prefixes per concept still sought; that size logs one debug
    line and still yields what it found.  The learner's two searches are
    this walk: c0's teaching set seeks c0 alone, the ERM image every concept
    below c0.

    Each size is a depth-first search that keeps, per prefix, `keep` (the
    concepts up to c0 that the prefix keeps), t (the lowest sought concept
    in `keep` when the prefix was entered) and bar = keep & (t - 1).  A
    completion's ERM is the lowest concept it keeps, so a prefix's scan of
    candidates stops at the first j from which some concept of `bar`
    survives every point (suffix_and[j]): every completion from j on then
    has an ERM below t, which is not sought, and suffix_and only grows with
    j.  Once t is found below the prefix, the prefix's t is only a lower
    bound on its lowest sought concept, which keeps the prune sound; each
    new prefix takes a fresh t.  The last point of a subset is scanned in a
    tight loop, one prefix per candidate.  The search keeps an explicit
    stack, so its depth is not bounded by the recursion limit.
    """
    first = {0: ()} if sought & 1 else {}  # concept 0 is the ERM of the empty subset
    sought &= ~1
    yield first
    if not sought:
        return
    universe = (2 << c0) - 1  # c0 and every concept below it
    masks = cls.point_masks
    cons = [masks[x] & universe if labels_by_point[x] else ~masks[x] & universe for x in points]
    k = len(cons)
    suffix_and = [universe] * (k + 1)  # concepts that points[j:] all keep
    for j in range(k - 1, -1, -1):
        suffix_and[j] = suffix_and[j + 1] & cons[j]
    rooted = 0  # the `sought` that `cap` and `root` were set up for
    for size in range(1, k + 1):
        if sought != rooted:  # a size's constants move only with `sought`
            rooted = sought
            cap = _PREFIX_CAP * sought.bit_count()
            t = sought & -sought
            root = (universe, t, universe & (t - 1))
        nodes = 0
        chosen: list[int] = []
        stack = [root]  # (keep, t, bar) per prefix
        last = size - 1
        j = 0
        while True:
            keep, t, bar = stack[-1]
            if len(chosen) == last:
                # the last point, one node per candidate in a tight loop
                while j < k and not bar & suffix_and[j]:
                    nodes += 1
                    if nodes > cap:
                        break
                    if not bar & cons[j]:  # the subset's ERM is t or above
                        left = keep & cons[j]
                        low = left & -left
                        if low & sought:
                            sought ^= low
                            subset = tuple(points[i] for i in chosen) + (points[j],)
                            first[low.bit_length() - 1] = subset
                            if not sought:
                                yield first
                                return
                    j += 1
            elif j <= k - size + len(chosen) and not bar & suffix_and[j]:
                nodes += 1
                if nodes <= cap:
                    chosen.append(j)
                    left = keep & cons[j]
                    if left & t & sought:
                        stack.append((left, t, bar & cons[j]))
                    else:  # t was found, or the child lost it
                        live = left & sought
                        low = live & -live
                        stack.append((left, low, left & (low - 1)))
                    j += 1
                    continue
            if nodes > cap or not chosen:
                break
            j = chosen.pop() + 1
            stack.pop()
        if nodes > cap:
            logger.debug(
                "subset walk cut at size %d after %d prefixes, %d concepts still sought",
                size, nodes, sought.bit_count(),
            )
            yield first
            return
        yield first
