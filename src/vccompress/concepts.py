"""Finite binary concept classes and their combinatorial primitives.

A concept class is a nonempty set of distinct 0/1 functions (concepts) on the
domain {0, ..., n-1}.  Rows are bit-packed integers kept in canonical
lexicographic order, so every concept index is stable across runs — the
compression scheme's determinism rests on that.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError

__all__ = [
    "ConceptClass",
    "LabeledSample",
    "ShatterWitness",
    "shatters",
    "vc_dimension",
    "dual_class",
    "consistent_concepts",
    "parse_concept_class",
    "serialize_concept_class",
]

# Entries kept by the vc_dimension and dual_class caches.  A vc_dimension key
# is a (class, ceiling) pair, a dual_class key a class; each class holds its
# cached matrix and point masks, so an unbounded cache grows without limit in
# a long-lived process.
CLASS_CACHE_SIZE = 64

logger = logging.getLogger(__name__)


def _bit_matrix(entries, what: str) -> np.ndarray:
    """`entries`, a nonempty 2-d 0/1 array, as a read-only uint8 matrix; the
    entries are checked before the cast, which would truncate 0.5 or wrap 256."""
    try:
        arr = np.array(entries)
    except ValueError:  # numpy's words for ragged rows
        raise ValueError(f"{what} rows must have equal length") from None
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty 2-d array")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{what} entries must be 0 or 1")
    arr = arr.astype(np.uint8, copy=False)
    arr.flags.writeable = False
    return arr


def _integer(value, what: str) -> int:
    """`value` as an int, else ValueError (int() would truncate 2.7)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} must be an integer") from None


def _column_ints(bits: np.ndarray) -> list[int]:
    """Each column of a 0/1 matrix as an int whose bit i is the entry in row i."""
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]  # one bytes object, cut per column
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(packed))]


def _row_ints(bits: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as an int with its first entry (point 0) the
    most significant bit, so integer order is lexicographic order of rows."""
    return _column_ints(bits.T[::-1])


@dataclass(frozen=True)
class ConceptClass:
    """Concept rows over {0, ..., domain_size-1}, canonically ordered.

    ``rows[i]`` packs concept i with bit ``domain_size-1-x`` holding its value
    at point x; rows are strictly increasing, which is exactly lexicographic
    order of the rows as 0/1 strings.
    """

    domain_size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n, rows = self.domain_size, self.rows
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"domain_size must be a positive integer, got {n!r}")
        # a list would fail to hash in the dimension caches
        if not (isinstance(rows, tuple) and all(map(int.__instancecheck__, rows))):
            raise ValueError("rows must be a tuple of integers")
        if not rows:
            raise ValueError("a concept class must contain at least one concept")
        if not all(map(operator.lt, rows, rows[1:])):
            raise ValueError("rows must be strictly increasing (distinct, canonical order)")
        limit = 1 << n
        if rows[0] < 0 or rows[-1] >= limit:
            r = next(r for r in rows if not 0 <= r < limit)
            raise ValueError(f"row {r!r} does not fit domain size {n}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_row_ints(cls, domain_size: int, values: Iterable[int]) -> "ConceptClass":
        # sorted, a repeated row fails the constructor's strictly-increasing check
        return cls(domain_size, tuple(sorted(values)))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "ConceptClass":
        bits = _bit_matrix(list(rows), "concept matrix")
        return cls.from_row_ints(bits.shape[1], _row_ints(bits))

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # the dimension caches hash their class on every lookup
        return hash((self.domain_size, self.rows))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """(num_concepts, domain_size) uint8 matrix; read-only."""
        n = self.domain_size
        nbytes = (n + 7) // 8
        shift = 8 * nbytes - n  # left-align each row so point 0 is a byte's top bit
        packed = b"".join((r << shift).to_bytes(nbytes, "big") for r in self.rows)
        arr = np.frombuffer(packed, dtype=np.uint8).reshape(len(self.rows), nbytes)
        arr = np.unpackbits(arr, axis=1, count=n)
        arr.flags.writeable = False
        return arr

    @functools.cached_property
    def point_masks(self) -> tuple[int, ...]:
        """For each point x, the bitmask of concepts taking value 1 at x
        (bit c corresponds to concept index c, so the lowest set bit is the
        lowest consistent concept index)."""
        return tuple(_column_ints(self.matrix))

    def value(self, concept: int, point: int) -> int:
        self._check_concept(concept)
        self._check_point(point)
        return (self.rows[concept] >> (self.domain_size - 1 - point)) & 1

    def _check_concept(self, concept: int) -> None:
        if not isinstance(concept, (int, np.integer)) or not (0 <= concept < len(self.rows)):
            raise ValueError(f"concept {concept!r} outside a class of {len(self.rows)} concepts")

    def _check_point(self, point: int) -> None:
        if not isinstance(point, (int, np.integer)) or not (0 <= point < self.domain_size):
            raise ValueError(f"point {point!r} outside domain of size {self.domain_size}")


@dataclass(frozen=True)
class LabeledSample:
    """A multiset of domain points plus one 0/1 label per distinct point.

    ``points`` preserves multiplicity and order as given; ``label_items`` is
    the sorted (point, label) map over the distinct points.
    """

    points: tuple[int, ...]
    label_items: tuple[tuple[int, int], ...]

    def __post_init__(self):
        keys = [p for p, _ in self.label_items]
        if keys != sorted(set(keys)):
            raise ValueError("label_items must be sorted with distinct points")
        for p, lbl in self.label_items:
            if not isinstance(p, int) or p < 0:
                raise ValueError(f"point {p!r} must be a nonnegative integer")
            if not isinstance(lbl, int) or lbl not in (0, 1):
                raise ValueError(f"label for point {p} must be the integer 0 or 1, got {lbl!r}")
        labeled = set(keys)
        if set(self.points) != labeled:
            raise ValueError("points and label_items must cover the same distinct points")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "LabeledSample":
        """Build from (point, label) pairs; conflicting labels are rejected."""
        pts: list[int] = []
        labels: dict[int, int] = {}
        for p, lbl in pairs:
            p = _integer(p, "point")
            lbl = _integer(lbl, "label")
            if p in labels and labels[p] != lbl:
                raise ValueError(f"conflicting labels for point {p}")
            labels[p] = lbl
            pts.append(p)
        return cls(tuple(pts), tuple(sorted(labels.items())))

    @classmethod
    def from_concept(
        cls, concept_class: ConceptClass, concept: int, points: Iterable[int]
    ) -> "LabeledSample":
        """Sample labeled by a concept of the class (realizable by construction).
        The concept and each distinct point are checked once, in order, and
        each label is read straight from the concept's row."""
        concept_class._check_concept(concept)
        pts = tuple(_integer(p, "point") for p in points)
        distinct = dict.fromkeys(pts)
        for p in distinct:
            concept_class._check_point(p)
        row, top = concept_class.rows[concept], concept_class.domain_size - 1
        labels = {p: (row >> (top - p)) & 1 for p in distinct}
        return cls(pts, tuple(sorted(labels.items())))

    @property
    def distinct_points(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.label_items)

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ShatterWitness:
    """A shattered point set plus, for each of the 2^k label patterns, a
    concept index realizing it.  Pattern p assigns bit j of p to set[j]."""

    set: tuple[int, ...]
    witness_concepts: tuple[int, ...]

    def __post_init__(self):
        if len(self.witness_concepts) != 1 << len(self.set):
            raise ValueError("need exactly one witness per label pattern")

    def verify(self, concept_class: ConceptClass) -> bool:
        for pattern, concept in enumerate(self.witness_concepts):
            for j, x in enumerate(self.set):
                if concept_class.value(concept, x) != (pattern >> j) & 1:
                    return False
        return True


# -- shattering and VC dimension ------------------------------------------


def shatters(concept_class: ConceptClass, points: Sequence[int]) -> ShatterWitness | None:
    """Witness that the class shatters `points`, or None if it does not."""
    pts = [_integer(p, "point") for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    witnesses = []
    for pattern in range(1 << len(pts)):  # pattern 0 checks every point
        cell = _consistent_mask(concept_class, [(x, pattern >> j & 1) for j, x in enumerate(pts)])
        if not cell:
            return None
        witnesses.append((cell & -cell).bit_length() - 1)  # lowest concept index
    return ShatterWitness(tuple(pts), tuple(witnesses))


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE, typed=True)
def vc_dimension(concept_class: ConceptClass, ceiling: int | None = None) -> int:
    """Exact VC dimension d, or min(d, ceiling) when a ceiling is given, by
    one depth-first search over point columns.  A capped call answers "is
    d >= ceiling?" and stops at the first shattered set of that size.  A
    search that proves d (uncapped, or below its ceiling) keeps it on the
    class, and every later call on that class reads it there.  The cache
    keys on the arguments as passed, types included, so a result at its
    ceiling never answers an uncapped call, and a call at 2 never answers
    one at 2.0, which must fail the ceiling's integer check.

    The candidates are the nontrivial columns (point masks), one per class of
    equal or complementary columns.  This loses nothing: a shattered set
    holds no two equal columns (no concept labels them 0, 1) and no two
    complementary ones (none labels them 0, 0), and swapping a column for
    its complement maps shattered sets to shattered sets.

    A node is a shattered set plus its cells: for each label pattern, the
    bitset of the concepts realizing it.  Its children extend it by one later
    column that splits every cell, which loses nothing: every subset of a
    shattered set is shattered.  Only the current path and its pending
    siblings are held.  The search returns at its cap, the least of
    `ceiling`, n and floor(log2 m), and prunes what cannot beat the best
    size found: a child whose size plus its remaining candidates is no
    larger, and a set of size k whose cells cannot all hold 2^(best + 1 - k)
    concepts.  So the candidates of a k-set child are filtered one cell at a
    time, smallest cell first: a column stays while it splits each cell into
    two halves of at least 2^(best - k) concepts.

    Counting comes first.  A class of dimension below s on n points has at
    most the sum of C(n, i) over i < s concepts (Sauer 1972; Shelah 1972),
    and that sum grows with s, so a class with more concepts than the sum
    at s = cap has d >= cap: the answer is the cap, with no column built
    and no node extended.
    """
    if ceiling is not None and _integer(ceiling, "ceiling") < 0:
        raise ValueError(f"ceiling must be nonnegative, got {ceiling}")
    known = vars(concept_class).get("_vc_dimension")
    if known is not None:
        return known if ceiling is None else min(known, ceiling)
    m, n = len(concept_class), concept_class.domain_size
    cap = min(n, m.bit_length() - 1)  # d is at most this
    if ceiling is not None:
        cap = min(cap, ceiling)
    most = sum(math.comb(n, i) for i in range(cap))  # concepts of any class with d < cap
    if m > most:
        logger.debug(
            "vc dimension %d (ceiling %d): %d concepts on %d points, more than the %d "
            "of any class below it (Sauer-Shelah), 0 nodes extended",
            cap, cap, m, n, most,
        )
        best = cap
    else:
        best = _vc_search(concept_class, cap)
    if ceiling is None or best < ceiling:  # below the ceiling asked for, best is d
        object.__setattr__(concept_class, "_vc_dimension", best)
    return best


def _vc_search(concept_class: ConceptClass, cap: int) -> int:
    """min(d, cap) by ``vc_dimension``'s depth-first search, for a cap of
    at least 1."""
    full = (1 << len(concept_class)) - 1
    columns = [c for c in concept_class.point_masks if 0 < c < full]
    reduced = list(dict.fromkeys(min(c, full ^ c) for c in columns))
    best = nodes = 0

    def extend(size: int, cells: list[int], candidates: list[int]) -> bool:
        """Search above a shattered `size`-set; True once the cap is met."""
        nonlocal best, nodes
        nodes += 1
        for i, one in enumerate(candidates):
            if size + len(candidates) - i <= best:
                return False
            halves = []
            for cell in cells:
                half = cell & one
                halves += (half, cell ^ half)
            child = sorted(halves, key=int.bit_count)
            best = max(best, size + 1)
            if best == cap:
                return True
            if child[0].bit_count() < 1 << (best - size):
                continue
            need = 1 << (best - size - 1)
            later = candidates[i + 1 :]
            for cell in child:
                if size + 1 + len(later) <= best:
                    break
                if need == 1:  # nonempty halves: cheaper than counting
                    later = [y for y in later if 0 < cell & y < cell]
                else:
                    top = cell.bit_count() - need
                    later = [y for y in later if need <= (cell & y).bit_count() <= top]
            if size + 1 + len(later) > best and extend(size + 1, child, later):
                return True
        return False

    extend(0, [full], reduced)
    logger.debug(
        "vc dimension %d (ceiling %d): %d nontrivial columns, %d after pairing "
        "equal and complementary ones, %d nodes extended",
        best, cap, len(columns), len(reduced), nodes,
    )
    return best


# -- dual class ------------------------------------------------------------


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def dual_class(concept_class: ConceptClass) -> ConceptClass:
    """Transpose of the class: distinct columns become concepts over the
    domain of original concept indices (concept 0 is the dual's point 0)."""
    columns = _row_ints(concept_class.matrix.T)
    return ConceptClass(len(concept_class), tuple(sorted(set(columns))))


# -- consistency -----------------------------------------------------------


def _consistent_mask(
    concept_class: ConceptClass, labeled_points: Iterable[tuple[int, int]]
) -> int:
    """Bitset of the concepts agreeing with every (point, label) pair, bit c
    for concept c: the AND of each point's agreeing concepts from
    ``point_masks``.  The ERM, ``consistent_concepts`` and ``shatters`` all
    fold it.  Every point is checked, even once the bitset is 0: ValueError
    for a point outside the domain."""
    masks = concept_class.point_masks
    n = concept_class.domain_size
    full = alive = (1 << len(concept_class.rows)) - 1
    for point, label in labeled_points:
        if not 0 <= point < n:
            raise ValueError(f"point {point!r} outside domain of size {n}")
        alive &= masks[point] if label else full ^ masks[point]
    return alive


def consistent_concepts(concept_class: ConceptClass, sample: LabeledSample) -> list[int]:
    """Indices of all concepts agreeing with the sample, ascending (not used by compress)."""
    bits = format(_consistent_mask(concept_class, sample.label_items), "b")
    return [c for c, bit in enumerate(reversed(bits)) if bit == "1"]


# -- text format -----------------------------------------------------------


def parse_concept_class(text: str) -> ConceptClass:
    """Parse the class text format: a header line ``n m`` followed by m rows
    of n characters from {0,1}.  Whitespace-only lines are ignored; duplicate
    rows are rejected with the offending line number.
    """
    first_seen: dict[str, int] = {}
    for lineno, row in _bit_rows(
        text, "domain_size num_concepts", "domain size and concept count", "concept"
    ):
        if row in first_seen:
            raise ParseError(f"duplicate row (first seen at line {first_seen[row]})", lineno)
        first_seen[row] = lineno
    return ConceptClass.from_row_ints(len(row), [int(r, 2) for r in first_seen])


def _bit_rows(
    text: str, header_names: str, size_names: str, row_noun: str
) -> Iterator[tuple[int, str]]:
    """The header-and-rows text format shared by concept classes and payoff
    matrices: a header ``n m``, then m rows of n characters from {0,1}, with
    whitespace-only lines ignored.  Yields (line number, row) as it reads, so
    a caller's own row check fails at the same line as a format error would;
    errors carry the offending line number."""
    header: tuple[int, int] | None = None
    count = 0
    n = m = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"header must be '{header_names}'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("header must contain two integers", lineno) from None
            if n < 1 or m < 1:
                raise ParseError(f"{size_names} must be positive", lineno)
            header = (n, m)
            continue
        if count == m:
            raise ParseError(f"more than {m} {row_noun} rows", lineno)
        if len(line) != n or any(ch not in "01" for ch in line):
            raise ParseError(f"row must be exactly {n} characters of 0/1", lineno)
        count += 1
        yield lineno, line
    if header is None:
        raise ParseError("empty input: missing header")
    if count != m:
        raise ParseError(f"expected {m} {row_noun} rows, found {count}")


def serialize_concept_class(concept_class: ConceptClass) -> str:
    lines = [f"{concept_class.domain_size} {len(concept_class)}"]
    n = concept_class.domain_size
    for r in concept_class.rows:
        lines.append(format(r, f"0{n}b"))
    return "\n".join(lines) + "\n"
