"""Concept-class families for experiments and the verification suite.

Every generator is deterministic given its arguments (randomized ones take a
seed), returns a canonical ConceptClass, and guards the enumerations that
grow exponentially.  Rows are int bitsets or numpy 0/1 arrays packed by
``concepts``' row packer, never built entry by entry in Python.
"""

from __future__ import annotations

import logging

import numpy as np

from .concepts import ConceptClass, _integer, _row_ints, _vc_search
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

logger = logging.getLogger(__name__)


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
    no shattered k-set, k = vc_cap + 1.  Stops at max_concepts rows or after
    _TRIES_PER_CONCEPT candidates per requested concept.

    A candidate is first checked against the remembered sets: the witnesses
    of earlier rejections, each with the one pattern the kept rows lacked on
    it.  A candidate showing that pattern on its set is rejected with no
    search.  Any other candidate gets one search, capped at k, over the
    tentative class (``_vc_search``, uncached: the class is thrown away).
    A result below k keeps it; a result of k remembers the witness.  This
    decides exactly what the search alone would: the kept rows C0 never
    shatter a k-set, so when C0 plus a rejected r0 shattered S, C0 showed
    every pattern on S but r0's; every later class C contains C0 and still
    shatters no k-set, so it still lacks that one pattern, and a candidate
    showing it would make C shatter S.

    Candidates are drawn in blocks of at most 2^16 entries, one
    ``rng.integers`` call each.  Every entry takes the same draw from the
    Philox stream as it would one row at a time, so the rows do not depend
    on the block size.
    """
    n, vc_cap = _integer(n, "domain size"), _integer(vc_cap, "vc_cap")
    max_concepts = _integer(max_concepts, "max_concepts")
    if n < 1 or vc_cap < 0 or max_concepts < 1:
        raise ValueError("need n >= 1, vc_cap >= 0, max_concepts >= 1")
    k = vc_cap + 1
    # one remembered k-set per row, and the pattern the kept rows lack on it;
    # no k-set exists when k > n, and the arrays stay empty
    sets = np.empty((0, min(k, n)), dtype=np.intp)
    missing = np.empty((0, min(k, n)), dtype=np.int64)
    rows: set[int] = set()
    duplicates = remembered = kept = rejected = 0
    for bits, candidate in _draws(make_rng(seed), n, _TRIES_PER_CONCEPT * max_concepts):
        if len(rows) >= max_concepts:
            break
        if candidate in rows:
            duplicates += 1
        elif (bits[sets] == missing).all(axis=1).any():
            remembered += 1
        else:
            dimension, witness = _vc_search(ConceptClass.from_row_ints(n, rows | {candidate}), k)
            if dimension < k:
                rows.add(candidate)
                kept += 1
            else:
                sets = np.vstack([sets, witness])
                missing = np.vstack([missing, bits[list(witness)]])
                rejected += 1
    logger.debug(
        "random_vc_capped(%d, %d, %d): %d distinct candidates, %d duplicates; "
        "%d rejected by a remembered set, %d searches kept a row, %d rejected one",
        n, vc_cap, max_concepts, remembered + kept + rejected, duplicates,
        remembered, kept, rejected,
    )
    return ConceptClass.from_row_ints(n, rows)


def _draws(rng: np.random.Generator, n: int, count: int):
    """`count` uniform 0/1 rows of length n, each with its row int, drawn in
    blocks of at most max(n, 2^16) entries."""
    block = max(1, 2**16 // n)
    for start in range(0, count, block):
        bits = rng.integers(0, 2, size=(min(block, count - start), n))
        yield from zip(bits, _row_ints(bits))


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
