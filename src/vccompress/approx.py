"""Small empirical approximations of measures over concept classes.

One fact behind two operations: an epsilon-approximation of a measure over
the points of a class, tested on every concept, whose size is set by the
class's VC dimension.  Both are certified by exhaustive re-checking rather
than trusted from theory, by the one check ``approximation_deviation`` runs.

* ``epsilon_approximation`` — a multiset of domain points whose empirical
  measure is within epsilon of a target distribution on every concept.
* ``sparsify_mixture`` — a multiset of concepts whose uniform average is
  within epsilon of a mixture of concepts on every domain point: the same
  operation on the dual class, whose points are the concepts and whose
  concepts are the distinct points (``sparsification_deviation`` is
  ``approximation_deviation`` there, and d* supplies the size bound).

Both draw i.i.d. from the target and return the certificate of the first
multiset that holds, trying sizes 1, 2, 4, ... below the ceiling
T = ceil(C_APX_DEFAULT (d+1) / epsilon^2) once each, then T up to
RETRY_DEFAULT + 1 times.  The ceiling is the theory's sufficient size,
reported as ``size_bound``; any multiset that passes the exhaustive check is
as good as a larger one, so the multiset is usually far smaller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .concepts import ConceptClass, dual_class, vc_dimension
from .errors import ApproximationBudgetError
from .seeding import make_rng

__all__ = [
    "C_APX_DEFAULT",
    "RETRY_DEFAULT",
    "ProbabilityVector",
    "ApproximationCertificate",
    "approximation_size_bound",
    "epsilon_approximation",
    "sparsify_mixture",
    "approximation_deviation",
    "sparsification_deviation",
]

C_APX_DEFAULT = 16
RETRY_DEFAULT = 64

_SUM_TOL = 1e-9


class ProbabilityVector:
    """A finite probability distribution: nonnegative weights summing to 1
    within 1e-9.  The weight array is read-only float64."""

    __slots__ = ("_weights",)

    def __init__(self, weights):
        arr = np.array(weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"weights sum to {float(arr.sum())!r}, not 1")
        arr.flags.writeable = False
        self._weights = arr

    @classmethod
    def uniform(cls, size: int) -> "ProbabilityVector":
        if size < 1:
            raise ValueError("size must be positive")
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, size: int, index: int) -> "ProbabilityVector":
        if not (0 <= index < size):
            raise ValueError("index out of range")
        w = np.zeros(size)
        w[index] = 1.0
        return cls(w)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def __len__(self) -> int:
        return self._weights.size

    def __repr__(self) -> str:
        return f"ProbabilityVector({self._weights.tolist()!r})"


@dataclass(frozen=True)
class ApproximationCertificate:
    """Proof object for one accepted multiset: the multiset itself, the
    exhaustively measured worst deviation, the epsilon it was tested
    against (max_deviation <= epsilon always) and the size ceiling T the
    multiset never exceeds."""

    multiset: tuple[int, ...]
    max_deviation: float
    epsilon: float
    size_bound: int

    def __post_init__(self):
        if not self.multiset:
            raise ValueError("certificate multiset cannot be empty")
        if not (0 < self.epsilon):
            raise ValueError("epsilon must be positive")
        if self.max_deviation > self.epsilon:
            raise ValueError(
                f"deviation {self.max_deviation} exceeds epsilon {self.epsilon}; not a certificate"
            )
        if len(self.multiset) > self.size_bound:
            raise ValueError(
                f"multiset of {len(self.multiset)} exceeds its size bound {self.size_bound}"
            )


def approximation_size_bound(dim: int, epsilon: float) -> int:
    """Documented multiset-size ceiling ceil(C_APX_DEFAULT * (dim+1) / epsilon^2)."""
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must be in (0, 1]")
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    return math.ceil(C_APX_DEFAULT * (dim + 1) / (epsilon * epsilon))


def _as_distribution(weights, size: int, what: str) -> np.ndarray:
    pv = weights if isinstance(weights, ProbabilityVector) else ProbabilityVector(weights)
    if len(pv) != size:
        raise ValueError(f"{what} has length {len(pv)}, expected {size}")
    w = pv.weights
    return w / w.sum()  # exact-sum normalization for the sampler


def _deviation(concept_class: ConceptClass, true_mass: np.ndarray, multiset) -> float:
    """Worst |true mass - empirical frequency| over all concepts of the
    class.  The hit counts are integer counts times 0/1 entries, exact in
    float64 in any order, so only the drawn points' columns are read."""
    n = concept_class.domain_size
    idx = np.asarray(multiset)
    if idx.size == 0 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("multiset must be a nonempty sequence of integer points")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError("multiset points out of range")
    counts = np.bincount(idx.astype(np.int64), minlength=n)
    drawn = np.flatnonzero(counts)
    hits = concept_class.matrix[:, drawn].astype(np.float64) @ counts[drawn].astype(np.float64)
    return float(np.abs(true_mass - hits / idx.size).max())


def approximation_deviation(concept_class: ConceptClass, mu, multiset: Sequence[int]) -> float:
    """Worst |mu(c=1) - empirical frequency of c=1 on the multiset| over all
    concepts; an exhaustive scan, not an estimate, by the check the sampler
    runs on each draw, so a re-check of a certificate is bit-identical."""
    w = _as_distribution(mu, concept_class.domain_size, "mu")
    return _deviation(concept_class, concept_class.matrix.astype(np.float64) @ w, multiset)


def sparsification_deviation(concept_class: ConceptClass, p, multiset: Sequence[int]) -> float:
    """Worst |p(c(x)=1) - fraction of the multiset with value 1 at x| over
    all domain points: ``approximation_deviation`` on the dual class, whose
    points are the concepts and whose concepts are the distinct points."""
    return approximation_deviation(dual_class(concept_class), p, multiset)


def epsilon_approximation(
    concept_class: ConceptClass,
    mu,
    epsilon: float,
    seed: int,
) -> ApproximationCertificate:
    """Multiset of domain points approximating mu within epsilon on every
    concept, by rejection sampling with an exhaustive certificate check.

    The size ceiling is T = ceil(C_APX_DEFAULT*(d+1)/epsilon^2) with d the
    VC dimension.  One i.i.d. draw from mu is tried at each power of two
    below T, then RETRY_DEFAULT+1 at T before erroring; the first draw that
    certifies is returned, so its length is a power of two below T, or T.
    Any multiset that passes the check is a certificate, so the smallest
    one found wins; T, the certificate's ``size_bound``, only bounds it.
    """
    w = _as_distribution(mu, concept_class.domain_size, "mu")
    ceiling = approximation_size_bound(vc_dimension(concept_class), epsilon)
    true_mass = concept_class.matrix.astype(np.float64) @ w
    sizes = [1 << i for i in range((ceiling - 1).bit_length())]
    sizes += [ceiling] * (RETRY_DEFAULT + 1)
    rng = make_rng(seed)
    best = math.inf
    for size in sizes:
        draw = rng.choice(w.size, size=size, p=w)
        dev = _deviation(concept_class, true_mass, draw)
        best = min(best, dev)
        if dev <= epsilon:
            return ApproximationCertificate(tuple(draw.tolist()), dev, float(epsilon), ceiling)
    raise ApproximationBudgetError(
        f"no multiset certified at epsilon={epsilon} within the retry budget "
        f"(best deviation {best:.6g})",
        best_deviation=best,
    )


def sparsify_mixture(
    concept_class: ConceptClass,
    p,
    epsilon: float,
    seed: int,
) -> ApproximationCertificate:
    """Certificate for a multiset of concept indices whose uniform average
    tracks the mixture p within epsilon at every domain point.

    This is `epsilon_approximation` on the dual class, so the size ceiling
    T uses the dual VC dimension, and the multiset is the first certified
    draw of the same size schedule: a power of two below T, or T.  Draws
    are i.i.d. from p, hence the multiset is contained in p's support.
    """
    return epsilon_approximation(dual_class(concept_class), p, epsilon, seed)
