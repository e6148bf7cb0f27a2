"""Concept-class families for experiments and the verification suite.

Every generator is deterministic given its arguments (randomized ones take a
seed), returns a canonical ConceptClass, and guards the enumerations that
grow exponentially.  Rows are int bitsets or numpy 0/1 arrays packed by
``concepts``' row packer, never built entry by entry in Python.
``random_vc_capped`` judges its candidates with a search of its own, for a
set a candidate would complete, not with the general VC search.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .concepts import ConceptClass, _integer, _row_ints
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
    no shattered k-set, k = vc_cap + 1.  Stops at max_concepts rows, at the
    Sauer-Shelah bound sum_{i <= vc_cap} C(n, i) (no class of VC dimension
    at most vc_cap has more rows, so no later candidate could be kept), or
    after _TRIES_PER_CONCEPT candidates per requested concept.  A greedy
    class can get stuck below the bound, with every row outside it
    completing some k-set; it then runs all its draws.

    The kept rows C0 never shatter a k-set, so C0 plus a candidate r
    shatters S exactly when C0 shows every pattern on S but r's (Sauer 1972,
    Shelah 1972).  A candidate is first checked against the remembered sets:
    the sets earlier rejections completed, each with the one pattern the
    kept rows lacked on it.  Every later class contains C0 and still
    shatters no k-set, so it still lacks that pattern, and a candidate
    showing it is rejected with no search.  Any other candidate gets one
    ``_completed_set`` search over int bitsets of the kept rows: none found
    keeps it, a set found is remembered.  No tentative class is built, and
    the rows are those of the growth that runs ``vc_dimension`` over every
    candidate's tentative class.

    Candidates are drawn in blocks, one ``rng.integers`` call each, that
    start at 2^10 entries and double up to 2^16, so a class that stops
    early converts few rows it never reads.  Every entry takes the same draw
    from the Philox stream as it would one row at a time, so the rows do not
    depend on the block sizes.
    """
    n, vc_cap = _integer(n, "domain size"), _integer(vc_cap, "vc_cap")
    max_concepts = _integer(max_concepts, "max_concepts")
    if n < 1 or vc_cap < 0 or max_concepts < 1:
        raise ValueError("need n >= 1, vc_cap >= 0, max_concepts >= 1")
    k = min(vc_cap, n) + 1  # no set past n points exists to shatter
    bound = sum(math.comb(n, i) for i in range(k))
    rows: list[int] = []  # the kept rows; row i is bit i of each column
    columns = [0] * n  # per row-int bit, the kept rows holding a 1 there
    kept: set[int] = set()
    remembered: list[tuple[int, int]] = []  # (set mask, the pattern the kept rows lack)
    duplicates = by_memory = nodes = 0
    for candidate in _draws(make_rng(seed), n, _TRIES_PER_CONCEPT * max_concepts):
        if candidate in kept:
            duplicates += 1
        elif any(candidate & mask == missing for mask, missing in remembered):
            by_memory += 1
        else:
            found, visited = _completed_set(candidate, rows, columns, k)
            nodes += visited
            if found:
                remembered.append((found, candidate & found))
                continue
            for b, digit in enumerate(bin(candidate)[:1:-1]):
                if digit == "1":
                    columns[b] |= 1 << len(rows)
            rows.append(candidate)
            kept.add(candidate)
            if len(rows) in (max_concepts, bound):
                break
    stop = (
        "at max_concepts" if len(rows) == max_concepts
        else "at the Sauer-Shelah bound" if len(rows) == bound
        else "with its draws exhausted"
    )
    logger.debug(
        "random_vc_capped(%d, %d, %d): %d distinct candidates, %d duplicates; "
        "%d rejected by a remembered set, %d searches kept a row, %d rejected one "
        "(%d nodes); stopped %s",
        n, vc_cap, max_concepts, by_memory + len(rows) + len(remembered), duplicates,
        by_memory, len(rows), len(remembered), nodes, stop,
    )
    return ConceptClass.from_row_ints(n, rows)


def _completed_set(candidate: int, rows: list[int], columns: list[int], k: int) -> tuple[int, int]:
    """A k-set the candidate would complete, as a mask over row-int bits, or 0
    if there is none; and the number of search nodes visited.

    `rows` are the kept rows, which shatter no k-set, and columns[b] is the
    bitset of the rows with bit b set (row i as bit i).  The candidate
    completes S exactly when the kept rows show every pattern on S but its
    own.  The search grows S point by point and holds the kept rows' cells,
    one per pattern on S; the own cell holds the rows that agree with the
    candidate on S.  Every kept row must differ from the candidate somewhere
    on S, so a node branches on the free points where the row of its own
    cell with the fewest of them differs, and each branch also leaves out
    the points its earlier siblings took.  A node holds the own cell's
    differences from the candidate, masked to its free points, as a list in
    row order, so the first row with the fewest is the one taken; a child
    keeps those of the rows that agree with the candidate on its new point.
    At j points every other cell must still hold 2^(k-j) rows and the own
    cell 2^(k-j) - 1, enough for each to show its patterns on the k-set, all
    but the candidate's; so the own cell never empties before S has k
    points.
    """
    nodes = 0

    def extend(
        chosen: int, size: int, own: int, differences: list[int], cells: list[int], free: int
    ) -> int:
        nonlocal nodes
        nodes += 1
        if size == k:
            return chosen
        need = 1 << (k - size - 1)
        branch = min(differences, key=int.bit_count)
        while branch:
            point = branch & -branch
            branch ^= point
            free ^= point
            column = columns[point.bit_length() - 1]
            same = own & column if candidate & point else own & ~column
            other = own ^ same
            if same.bit_count() < need - 1 or other.bit_count() < need:
                continue
            halves = [other]
            for cell in cells:
                half = cell & column
                if half.bit_count() < need or (cell ^ half).bit_count() < need:
                    break
                halves += (half, cell ^ half)
            else:
                agreeing = [d & free for d in differences if not d & point]
                found = extend(chosen | point, size + 1, same, agreeing, halves, free)
                if found:
                    return found
        return 0

    if len(rows) < (1 << k) - 1:
        return 0, 0
    differences = [row ^ candidate for row in rows]
    return extend(0, 0, (1 << len(rows)) - 1, differences, [], (1 << len(columns)) - 1), nodes


def _draws(rng: np.random.Generator, n: int, count: int):
    """`count` uniform 0/1 rows of length n as row ints, drawn in blocks of
    at least one row that start at 2^10 entries and double up to 2^16, so a
    class that stops early converts few rows it never reads."""
    start, entries = 0, 2**10
    while start < count:
        block = min(max(1, entries // n), count - start)
        yield from _row_ints(rng.integers(0, 2, size=(block, n)))
        start, entries = start + block, min(2 * entries, 2**16)


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
