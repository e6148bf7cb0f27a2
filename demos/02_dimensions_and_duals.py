"""VC dimensions, shattering witnesses, and the dual-class bound.

Every concept class here is finite, so both the primal dimension and the
dimension of the dual class (points acting as classifiers of concepts) are
computed exhaustively.  The dual dimension always stays below 2^(d+1).
"""

from vccompress import (
    ConceptClass,
    dual_class,
    full_cube,
    halfspaces_grid,
    intervals,
    k_interval_unions,
    random_vc_capped,
    shatters,
    vc_dimension,
)
from vccompress.concepts import ShatterWitness

# a class of your own is a list of 0/1 rows, one per concept: here the five
# thresholds on four ordered points
thresholds = ConceptClass.from_rows(
    [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]]
)

roster = [
    ("thresholds on 4 points", thresholds),
    ("intervals(12)", intervals(12)),
    ("k_interval_unions(8, 2)", k_interval_unions(8, 2)),
    ("full_cube(4)", full_cube(4)),
    ("halfspaces_grid(4, 2)", halfspaces_grid(4, 2, count=64, seed=1)),
    ("random_vc_capped(10, 2, 40)", random_vc_capped(10, 2, 40, seed=3)),
]

print(f"{'class':<28} {'concepts':>8} {'d':>3} {'d*':>4} {'2^(d+1)':>8}")
for name, cls in roster:
    d = vc_dimension(cls)
    d_star = vc_dimension(dual_class(cls))
    assert d_star < 2 ** (d + 1)
    print(f"{name:<28} {len(cls.rows):>8} {d:>3} {d_star:>4} {2 ** (d + 1):>8}")

# shatters() hands back a witness: one concept per labeling of the subset.
cls = intervals(12)
witness = shatters(cls, (3, 9))
assert isinstance(witness, ShatterWitness) and witness.verify(cls)
print()
print("intervals(12) shatters {3, 9}; witness concepts per labeling:")
for pattern, concept in enumerate(witness.witness_concepts):
    labels = format(pattern, f"0{len(witness.set)}b")[::-1]
    bits = format(cls.rows[concept], "012b")
    print(f"  labels {labels} -> concept {concept:>3} ({bits})")

assert shatters(cls, (3, 6, 9)) is None
print("no three points are shattered: the dimension of intervals is 2")
