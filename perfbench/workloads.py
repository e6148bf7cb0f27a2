"""Workload inputs: the warm roster, the op streams and the cold classes.

Ops come in rounds.  A round of a round-trip workload holds one sample for
each (roster class, design concept) pair; a cold round holds one new class
per ``COLD_ROUND`` spec.  Classes, target concepts and sample points are a
fixed population, the same for every run; the run seed orders each round and
draws every op's compress seed (which drives the sparsifier and the double
oracle, hence the compressed bytes).  An op's cost and size span three orders
of magnitude within one class and depend mostly on its sample, so with
samples drawn per seed the mix of rare expensive ops, and every aggregate,
moved with the seed (mean size by +-30%).  Everything is drawn from
``random.Random`` with string seeds, so it is the same on every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from vccompress import generators
from vccompress.concepts import ConceptClass, LabeledSample

# Roster shared by both round-trip workloads: built and warmed in set-up.
ROSTER = (
    ("intervals(10)", generators.intervals, (10,)),
    ("intervals(30)", generators.intervals, (30,)),
    ("halfspaces_grid(5,2)", generators.halfspaces_grid, (5, 2)),
    ("halfspaces_grid(8,2)", generators.halfspaces_grid, (8, 2)),
    ("random_vc_capped(12,3,60)", generators.random_vc_capped, (12, 3, 60)),
    ("k_interval_unions(8,2)", generators.k_interval_unions, (8, 2)),
)

# Sample lengths (inclusive bounds) and target concepts per roster class.
SHORT_LENGTHS = (1, 8)
LONG_LENGTHS = (100, 1000)
CONCEPTS_PER_CLASS = {"roundtrip_short": 64, "roundtrip_long": 24}

# One cold round: one op per entry.  Relabelled intervals/unions keep their
# structure (and cost) but are new classes; halfspace classes get a fresh
# generator seed.  halfspaces_grid(6,2), whose ops cost about the median op,
# comes twice: with one copy the median fell at a gap between two specs'
# costs and moved by 18% between runs.  Classes with at most 63
# concepts take the uint64 dimension search, larger ones the Python-int one.
COLD_ROUND = (
    ("intervals", (8,)),
    ("intervals", (10,)),
    ("intervals", (12,)),
    ("intervals", (14,)),
    ("intervals", (16,)),
    ("intervals", (20,)),
    ("intervals", (24,)),
    ("k_interval_unions", (6, 2)),
    ("k_interval_unions", (7, 2)),
    ("k_interval_unions", (8, 2)),
    ("k_interval_unions", (9, 2)),
    ("halfspaces_grid", (4, 2)),
    ("halfspaces_grid", (5, 2)),
    ("halfspaces_grid", (6, 2)),
    ("halfspaces_grid", (6, 2)),
    ("halfspaces_grid", (8, 2)),
    ("halfspaces_grid", (3, 3)),
    ("halfspaces_grid", (4, 3)),
)
COLD_SAMPLE_LENGTH = (1, 8)

# A class just past the dimension search's memory ceiling under the worker's
# address-space cap; it is probed once after each cold_class measurement.
CEILING_SPEC = ("intervals", (38,))


@dataclass(frozen=True)
class Op:
    """One round trip: compress `sample` over a class with `seed`.

    Round-trip ops carry the warm roster class in `concept_class`; cold ops
    carry only `rows`, from which the op itself builds a never-seen class.
    """

    label: str
    sample: LabeledSample
    seed: int
    concept_class: ConceptClass | None = None
    domain_size: int = 0
    rows: tuple[int, ...] = ()

    def fingerprint(self) -> bytes:
        return repr((self.label, self.domain_size, self.rows, self.sample, self.seed)).encode()


def _label(kind: str, args: tuple) -> str:
    return f"{kind}({','.join(map(str, args))})"


def _rng(workload: str, stream: str) -> random.Random:
    return random.Random(f"{workload}/{stream}")


def build_roster() -> list[tuple[str, ConceptClass]]:
    return [(name, make(*args)) for name, make, args in ROSTER]


def _sample(rng: random.Random, cls: ConceptClass, length: int, concept: int) -> LabeledSample:
    points = [rng.randrange(cls.domain_size) for _ in range(length)]
    return LabeledSample.from_concept(cls, concept, points)


def design(workload: str, roster) -> list[tuple[int, int]]:
    """The (roster index, target concept) pairs of one round."""
    rng = _rng(workload, "design")
    per_class = CONCEPTS_PER_CLASS[workload]
    return [
        (index, concept)
        for index, (_, cls) in enumerate(roster)
        for concept in sorted(rng.sample(range(len(cls)), min(per_class, len(cls))))
    ]


def roundtrip_ops(workload: str, seed: int, roster):
    """Endless op stream over the warm roster, one design round after another:
    fixed samples, with the order of each round and every compress seed
    drawn from the run seed."""
    low, high = SHORT_LENGTHS if workload == "roundtrip_short" else LONG_LENGTHS
    inputs = _rng(workload, "samples")
    order = _rng(workload, f"seed {seed}")
    cells = design(workload, roster)
    while True:
        ops = []
        for class_index, concept in cells:
            name, cls = roster[class_index]
            ops.append((name, cls, _sample(inputs, cls, inputs.randint(low, high), concept)))
        order.shuffle(ops)
        for name, cls, sample in ops:
            yield Op(name, sample, order.randrange(1 << 32), concept_class=cls)


def _relabel(cls: ConceptClass, rng: random.Random) -> ConceptClass:
    """The same class with its points permuted."""
    n = cls.domain_size
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for row in cls.rows:
        value = 0
        for x in range(n):
            if (row >> (n - 1 - x)) & 1:
                value |= 1 << (n - 1 - perm[x])
        rows.append(value)
    return ConceptClass.from_row_ints(n, rows)


def make_cold_class(kind: str, args: tuple, rng: random.Random) -> ConceptClass:
    if kind == "halfspaces_grid":
        side, dim = args
        return generators.halfspaces_grid(side, dim, seed=rng.randrange(1 << 32))
    return _relabel(getattr(generators, kind)(*args), rng)


def cold_ops(seed: int, count: int) -> list[Op]:
    """`count` ops over pairwise distinct, never-warmed classes: fixed
    classes and samples, with the order of each round and every compress
    seed drawn from the run seed."""
    inputs = _rng("cold_class", "samples")
    order = _rng("cold_class", f"seed {seed}")
    seen = set()
    ops: list[Op] = []
    while len(ops) < count:
        batch = []
        for kind, args in COLD_ROUND:
            while True:
                cls = make_cold_class(kind, args, inputs)
                if (cls.domain_size, cls.rows) not in seen:
                    break
            seen.add((cls.domain_size, cls.rows))
            length = inputs.randint(*COLD_SAMPLE_LENGTH)
            sample = _sample(inputs, cls, length, inputs.randrange(len(cls)))
            batch.append((_label(kind, args), cls, sample))
        order.shuffle(batch)
        for label, cls, sample in batch[: count - len(ops)]:
            ops.append(
                Op(label, sample, order.randrange(1 << 32), domain_size=cls.domain_size, rows=cls.rows)
            )
    return ops


def ceiling_op() -> Op:
    inputs = _rng("cold_class", "ceiling")
    kind, args = CEILING_SPEC
    cls = make_cold_class(kind, args, inputs)
    sample = _sample(inputs, cls, inputs.randint(*COLD_SAMPLE_LENGTH), inputs.randrange(len(cls)))
    return Op(_label(kind, args), sample, 0, domain_size=cls.domain_size, rows=cls.rows)
