"""Concept-class families for experiments and the verification suite.

Every generator is deterministic given its arguments (randomized ones take a
seed), returns a canonical ConceptClass, and guards the enumerations that
grow exponentially.  Rows are int bitsets or numpy 0/1 arrays packed by
``concepts``' row packer, never built entry by entry in Python.
"""

from __future__ import annotations

import numpy as np

from .concepts import ConceptClass, _integer, _row_ints, vc_dimension
from .errors import ConfigError
from .seeding import make_rng

__all__ = [
    "intervals",
    "k_interval_unions",
    "full_cube",
    "halfspaces_grid",
    "random_vc_capped",
    "make_concept_class",
]

# random_vc_capped draws at most this many candidate rows per requested concept
_TRIES_PER_CONCEPT = 50

# random_vc_capped's throwaway classes bypass the vc_dimension cache; bound at
# import, before anything can rebind the name vc_dimension
_uncached_vc_dimension = vc_dimension.__wrapped__


def intervals(n: int) -> ConceptClass:
    """All contiguous blocks of 1s on n ordered points, plus the empty
    concept: n(n+1)/2 + 1 concepts of VC dimension 2 (for n >= 2).  n is
    capped at 361, the largest n with at most 2^16 concepts, the most rows
    k_interval_unions enumerates."""
    n = _integer(n, "domain size")
    if n < 1:
        raise ValueError("domain size must be positive")
    if n > 361:
        raise ValueError("intervals has n(n+1)/2 + 1 concepts; n must be <= 361")
    rows = {0}
    for first in range(n):
        for last in range(first, n):
            rows.add(((1 << (last - first + 1)) - 1) << (n - 1 - last))
    return ConceptClass.from_row_ints(n, rows)


def k_interval_unions(n: int, k: int) -> ConceptClass:
    """Unions of at most k intervals: every 0/1 row with at most k maximal
    runs of 1s.  Enumerates all 2^n rows, so n is capped at 16."""
    n, k = _integer(n, "domain size"), _integer(k, "union count")
    if n < 1 or k < 1:
        raise ValueError("domain size and union count must be positive")
    if n > 16:
        raise ValueError("k_interval_unions enumerates 2^n rows; n must be <= 16")
    # v & ~(v >> 1) keeps the top bit of each maximal run of 1s
    rows = [v for v in range(1 << n) if (v & ~(v >> 1)).bit_count() <= k]
    return ConceptClass.from_row_ints(n, rows)


def full_cube(n: int) -> ConceptClass:
    """Every labeling of n points (VC dimension n); n capped at 12."""
    n = _integer(n, "domain size")
    if n < 1:
        raise ValueError("domain size must be positive")
    if n > 12:
        raise ValueError("full_cube has 2^n concepts; n must be <= 12")
    return ConceptClass.from_row_ints(n, range(1 << n))


def halfspaces_grid(side: int, dim: int, count: int = 64, seed: int = 0) -> ConceptClass:
    """Halfspace labelings of the side^dim integer grid.

    Points are centered (coordinates 2i - side + 1) and augmented with a
    constant feature; each of `count` seeded Gaussian weight vectors labels a
    point 1 iff its inner product, summed in float64 from 0 term by term in
    axis order with the constant term last, is strictly positive.  Duplicate
    labelings collapse, so the class is usually much smaller than `count`.
    The count * side**dim float64 margins are admitted up to 2**24 of them.
    """
    side, dim, count = _integer(side, "side"), _integer(dim, "dim"), _integer(count, "count")
    if side < 2 or dim < 1:
        raise ValueError("grid needs side >= 2 and dim >= 1")
    n = side**dim
    if n > 4096:
        raise ValueError("grid too large; side**dim must be <= 4096")
    if count < 1:
        raise ValueError("count must be positive")
    if count * n > 1 << 24:
        raise ValueError("too many margins; count * side**dim must be <= 2**24")
    coords = 2 * np.indices((side,) * dim).reshape(dim, n)[::-1] - side + 1  # axis 0 fastest
    weights = make_rng(seed).normal(size=(count, dim + 1))
    # not a matrix product, which leaves summation order and FMA use to BLAS
    margin = sum(w[:, None] * c for w, c in zip(weights.T, coords)) + weights[:, dim:]
    return ConceptClass.from_row_ints(n, set(_row_ints(margin > 0)))


def random_vc_capped(n: int, vc_cap: int, max_concepts: int, seed: int = 0) -> ConceptClass:
    """Greedily grown random class whose VC dimension never exceeds vc_cap.

    Candidate rows are drawn uniformly; one is kept only if adding it leaves
    the dimension within the cap, which the uncached search, capped one
    above it, answers without computing d.  Stops at
    max_concepts rows or after _TRIES_PER_CONCEPT candidates per requested
    concept.
    """
    n, vc_cap = _integer(n, "domain size"), _integer(vc_cap, "vc_cap")
    max_concepts = _integer(max_concepts, "max_concepts")
    if n < 1 or vc_cap < 0 or max_concepts < 1:
        raise ValueError("need n >= 1, vc_cap >= 0, max_concepts >= 1")
    rng = make_rng(seed)
    rows: set[int] = set()
    for _ in range(_TRIES_PER_CONCEPT * max_concepts):
        if len(rows) >= max_concepts:
            break
        candidate = _row_ints(rng.integers(0, 2, size=(1, n)))[0]
        if candidate in rows:
            continue
        tentative = ConceptClass.from_row_ints(n, rows | {candidate})
        if _uncached_vc_dimension(tentative, vc_cap + 1) <= vc_cap:
            rows.add(candidate)
    return ConceptClass.from_row_ints(n, rows)


_GENERATORS = {
    "intervals": intervals,
    "k_interval_unions": k_interval_unions,
    "full_cube": full_cube,
    "halfspaces_grid": halfspaces_grid,
    "random_vc_capped": random_vc_capped,
}


def make_concept_class(spec: dict) -> ConceptClass:
    """Build a class from a {"kind": ..., **params} mapping (the form used in
    suite configs and on the command line)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("a class spec must be a mapping with a 'kind' key")
    params = dict(spec)
    kind = params.pop("kind")
    generator = _GENERATORS.get(kind)
    if generator is None:
        raise ConfigError(
            f"unknown class kind {kind!r}; expected one of {sorted(_GENERATORS)}"
        )
    try:
        return generator(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for {kind!r}: {exc}") from exc
