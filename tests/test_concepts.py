"""Concept-class primitives, checked against independent brute-force oracles."""

import itertools
import logging
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vccompress import (
    ConceptClass,
    LabeledSample,
    ShatterWitness,
    dual_class,
    parse_concept_class,
    serialize_concept_class,
    shatters,
    vc_dimension,
)
from vccompress import concepts
from vccompress.concepts import consistent_concepts
from vccompress.errors import ParseError, UnrealizableError
from vccompress.generators import (
    full_cube,
    halfspaces_grid,
    intervals,
    k_interval_unions,
    random_vc_capped,
)
from vccompress.learner import lowest_consistent_concept


# --- oracles ---------------------------------------------------------------
# Deliberately naive: enumerate all subsets of every size with no early
# termination, and test shattering via explicit pattern sets.


def oracle_shatters(cls, points):
    pts = list(points)
    patterns = {tuple(row[pts]) for row in cls.matrix}
    return len(patterns) == 1 << len(pts)


def oracle_vc(cls, size_cap=None):
    n = cls.domain_size
    cap = n if size_cap is None else min(n, size_cap)
    best = 0
    for k in range(1, cap + 1):
        for s in itertools.combinations(range(n), k):
            if oracle_shatters(cls, s):
                best = max(best, k)
    return best


def intervals_fixture(n):
    rows = [0]
    for a in range(n):
        for b in range(a, n):
            rows.append(((1 << (b - a + 1)) - 1) << (n - 1 - b))
    return ConceptClass.from_row_ints(n, rows)


def random_class(n, m, seed):
    rng = np.random.default_rng(seed)
    rows = set()
    while len(rows) < m:
        rows.add(int(rng.integers(0, 1 << n)))
    return ConceptClass.from_row_ints(n, rows)


# --- construction and canonical order ---------------------------------------


def test_rows_are_canonically_sorted():
    c = ConceptClass.from_rows([[1, 1, 0], [0, 0, 0], [0, 1, 1]])
    assert c.rows == (0b000, 0b011, 0b110)
    assert c.matrix.tolist() == [[0, 0, 0], [0, 1, 1], [1, 1, 0]]


def test_duplicate_rows_rejected():
    with pytest.raises(ValueError):
        ConceptClass.from_rows([[0, 1], [0, 1]])
    # sorted, a repeated row fails the constructor's own check
    with pytest.raises(ValueError, match=r"strictly increasing \(distinct"):
        ConceptClass.from_row_ints(2, [1, 0, 1])
    with pytest.raises(ValueError, match="nonempty"):
        ConceptClass.from_rows([])
    with pytest.raises(ValueError, match="equal length"):
        ConceptClass.from_rows([[0, 1], [1]])


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(
            lambda: ConceptClass(0, (0,)), "domain_size must be a positive integer", id="domain-0"
        ),
        pytest.param(
            lambda: ConceptClass(2.0, (0,)),
            "domain_size must be a positive integer",
            id="domain-2.0",
        ),
        pytest.param(
            lambda: LabeledSample((1, 2), ((2, 0), (1, 1))),
            "label_items must be sorted with distinct points",
            id="unsorted-labels",
        ),
        pytest.param(
            lambda: LabeledSample((1,), ((1, 0), (1, 1))),
            "label_items must be sorted with distinct points",
            id="repeated-labels",
        ),
        pytest.param(
            lambda: LabeledSample((-1,), ((-1, 0),)),
            "point -1 must be a nonnegative integer",
            id="negative-point",
        ),
        pytest.param(
            lambda: LabeledSample((1,), ((1, 0), (2, 1))),
            "points and label_items must cover the same distinct points",
            id="unsampled-label",
        ),
    ],
)
def test_constructors_refuse_malformed_fields(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_empty_class_rejected():
    with pytest.raises(ValueError):
        ConceptClass(3, ())


def test_row_out_of_range_rejected():
    with pytest.raises(ValueError):
        ConceptClass(2, (4,))
    # the message names the first row that does not fit
    with pytest.raises(ValueError, match="row 4 does not fit domain size 2"):
        ConceptClass(2, (1, 4, 5))
    with pytest.raises(ValueError, match="row -1 does not fit domain size 2"):
        ConceptClass(2, (-1, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        ConceptClass(2, (2, 1))


def test_rows_must_be_a_tuple_of_integers():
    # list rows once constructed, then failed to hash in the dimension caches
    for rows in ([0, 1, 2], (0, 1.0), (0, np.int64(1))):
        with pytest.raises(ValueError, match="rows must be a tuple of integers"):
            ConceptClass(3, rows)
    assert ConceptClass(3, (0, True, 2)).rows == (0, 1, 2)


def test_from_rows_rejects_entries_other_than_zero_and_one():
    # a cast first would read 0.7 as 0: rows (1, 3) from the first matrix,
    # and a false "duplicate concept rows" from the second
    for matrix in ([[0.7, 1], [1, 1]], [[0.7, 1], [0, 1]], [[2, 0], [0, 1]]):
        with pytest.raises(ValueError, match="0 or 1"):
            ConceptClass.from_rows(np.array(matrix).tolist())
    assert ConceptClass.from_rows(np.array([[1.0, 0.0], [0.0, 1.0]]).tolist()).rows == (1, 2)


def test_matrix_is_readonly():
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 1


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 130])
def test_views_match_bitwise_definitions(n):
    # sizes on both sides of every byte boundary, for points and for concepts
    rng = random.Random(n)
    for m in (1, 8, 9, 64, 65):
        if m > 1 << n:
            continue
        rows = {0, (1 << n) - 1} if m > 1 else set()
        while len(rows) < m:
            rows.add(rng.getrandbits(n))
        c = ConceptClass.from_row_ints(n, rows)
        bit = [[(r >> (n - 1 - x)) & 1 for x in range(n)] for r in c.rows]
        assert c.matrix.dtype == np.uint8
        assert c.matrix.tolist() == bit, (n, m)
        columns = [[bit[i][x] for i in range(m)] for x in range(n)]
        masks = tuple(sum(b << i for i, b in enumerate(col)) for col in columns)
        assert c.point_masks == masks, (n, m)
        dual_rows = [sum(b << (m - 1 - i) for i, b in enumerate(col)) for col in columns]
        d = dual_class(c)
        assert d.domain_size == m
        assert d.rows == tuple(sorted(set(dual_rows))), (n, m)


# --- labeled samples ---------------------------------------------------------


def test_sample_conflicting_labels_rejected():
    with pytest.raises(ValueError):
        LabeledSample.from_pairs([(3, 1), (3, 0)])


def test_sample_repeated_consistent_labels_ok():
    s = LabeledSample.from_pairs([(3, 1), (3, 1), (5, 0)])
    assert s.size == 3
    assert s.distinct_points == (3, 5)
    assert s.label_items == ((3, 1), (5, 0))


@pytest.mark.parametrize("label", [np.int64(1), 1.0, "1"])
def test_sample_rejects_a_label_that_is_not_an_int(label):
    # a label equal to 1 that is not an int would otherwise fail only in the container
    with pytest.raises(ValueError, match="label for point 1"):
        LabeledSample((1, 2), ((1, label), (2, 1)))


def test_sample_accepts_bool_labels():
    assert LabeledSample((1, 2), ((1, True), (2, 0))).label_items == ((1, 1), (2, 0))


def test_empty_sample():
    s = LabeledSample.from_pairs([])
    assert s.size == 0
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    assert consistent_concepts(c, s) == [0, 1]


def test_sample_from_concept_is_realizable():
    c = intervals_fixture(6)
    s = LabeledSample.from_concept(c, 5, [0, 2, 2, 4])
    assert 5 in consistent_concepts(c, s)


def test_sample_from_negative_concept_is_rejected():
    # a negative index used to label the sample by the last concept
    with pytest.raises(ValueError, match="concept -1"):
        LabeledSample.from_concept(intervals(4), -1, range(4))


def test_sample_from_concept_past_the_class_is_a_value_error():
    # an index one past the class used to escape as a raw IndexError
    c = intervals(4)
    with pytest.raises(ValueError, match=f"concept {len(c)}"):
        LabeledSample.from_concept(c, len(c), range(4))


@pytest.mark.parametrize(
    "points, message",
    [
        ([2, 6, 4], "point 6 outside domain of size 6"),
        ([2, -1, 4], "point -1 outside domain of size 6"),
        ([2, 7, 6], "point 7 outside domain of size 6"),  # the first one given
        ([2, 2.5], "point 2.5 must be an integer"),
    ],
)
def test_sample_from_concept_rejects_points_outside_the_domain(points, message):
    with pytest.raises(ValueError, match=message):
        LabeledSample.from_concept(intervals(6), 3, points)


def test_sample_from_concept_reads_the_concept_row():
    c = intervals(6)
    points = [5, 0, 3, 3, 1, 5]
    for concept in range(len(c)):
        sample = LabeledSample.from_concept(c, concept, points)
        assert sample.points == tuple(points)
        assert sample.label_items == tuple((p, c.value(concept, p)) for p in sorted(set(points)))


_TAKES_INTEGERS = {
    "from_pairs point": lambda x: LabeledSample.from_pairs([(x, 1), (5, 0)]),
    "from_pairs label": lambda x: LabeledSample.from_pairs([(2, 1), (5, x)]),
    "from_concept point": lambda x: LabeledSample.from_concept(intervals(6), 3, [x, 4]),
    "shatters point": lambda x: shatters(intervals(6), [x, 4]),
}


def _outcome(call, value):
    try:
        return call(value)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("entry", sorted(_TAKES_INTEGERS))
@pytest.mark.parametrize(
    "value, accepted",
    [
        (2.7, False),
        (0.9, False),
        ("1", False),
        (np.float64(2.0), False),
        (np.int64(3), True),
        (True, True),
    ],
)
def test_points_and_labels_must_be_integers(entry, value, accepted):
    # int() truncated the rejected ones: point 2.7 became 2 and label 0.9
    # became 0; an integer of another type passes as the int it equals
    call = _TAKES_INTEGERS[entry]
    if accepted:
        assert _outcome(call, value) == _outcome(call, int(value))
    else:
        with pytest.raises(ValueError, match=re.escape(f"{value!r} must be an integer")):
            call(value)


# --- shattering ---------------------------------------------------------------


def test_shatters_matches_oracle_on_random_classes():
    for seed in range(8):
        c = random_class(6, 10, seed)
        for k in range(1, 4):
            for s in itertools.combinations(range(6), k):
                got = shatters(c, s)
                assert (got is not None) == oracle_shatters(c, s)
                if got is not None:
                    assert got.verify(c)


def test_shatter_witness_lists_lowest_concepts():
    c = ConceptClass.from_row_ints(2, [0b00, 0b01, 0b10, 0b11])
    w = shatters(c, [0, 1])
    assert w is not None
    # pattern p: bit j of p is the label of set[j]
    assert w.set == (0, 1)
    assert w.witness_concepts == (0, 2, 1, 3)
    assert w.verify(c)


def test_subset_of_shattered_set_is_shattered():
    c = random_class(7, 30, 99)
    for s in itertools.combinations(range(7), 3):
        if shatters(c, s) is not None:
            for sub in itertools.combinations(s, 2):
                assert shatters(c, sub) is not None


def test_shatters_rejects_bad_points():
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        shatters(c, [0, 0])
    with pytest.raises(ValueError):
        shatters(c, [2])


def test_witness_shape_validated():
    with pytest.raises(ValueError):
        ShatterWitness((0, 1), (0,))


def test_witness_with_a_wrong_pattern_fails_verification():
    # concept 1 of intervals(2), row 01, labels point 0 with 0, not pattern
    # 1's 1; concept 2, row 10, labels it 1
    c = intervals(2)
    assert ShatterWitness((0,), (0, 2)).verify(c)
    assert not ShatterWitness((0,), (0, 1)).verify(c)


def test_witness_with_negative_concept_is_rejected():
    # concept -1 of full_cube(1) is its last row, which used to pass as a witness
    with pytest.raises(ValueError, match="concept -1"):
        ShatterWitness((0,), (0, -1)).verify(full_cube(1))


# --- VC dimension ---------------------------------------------------------------


def test_vc_dimension_known_values():
    iv = intervals_fixture(10)
    assert len(iv) == 56  # n(n+1)/2 + 1
    assert vc_dimension(iv) == 2
    cube3 = ConceptClass.from_row_ints(3, range(8))
    assert vc_dimension(cube3) == 3
    singleton = ConceptClass.from_row_ints(4, [0])
    assert vc_dimension(singleton) == 0


def test_vc_agrees_with_naive_oracle():
    cases = [intervals_fixture(5), intervals_fixture(8), ConceptClass.from_row_ints(4, range(16))]
    for seed in range(10):
        cases.append(random_class(7, 12, seed))
    for seed in range(4):
        cases.append(random_class(10, 25, 100 + seed))
    for c in cases:
        assert vc_dimension(c) == oracle_vc(c)


def test_vc_both_code_paths_agree():
    # one search serves every class size; >63 concepts once took a separate
    # big-integer path, so this size stays checked against the oracle
    c = random_class(9, 80, 7)
    assert len(c) == 80
    assert vc_dimension(c) == oracle_vc(c)


def widened_class(seed):
    """A small random class widened to 8-11 points with repeated,
    complementary and constant columns."""
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    base = random_class(n, rng.randint(2, 1 << n), seed).matrix
    extra = rng.randint(max(8, n + 4), 11) - n - 2
    copies = rng.randint(1, extra - 1)
    columns = [
        *base.T,
        *(base[:, rng.randrange(n)] for _ in range(copies)),
        *(1 - base[:, rng.randrange(n)] for _ in range(extra - copies)),
        np.zeros(len(base), np.uint8),
        np.ones(len(base), np.uint8),
    ]
    rng.shuffle(columns)
    return ConceptClass.from_rows(np.column_stack(columns))


@pytest.mark.parametrize("seed", range(12))
def test_vc_agrees_with_oracle_on_repeated_and_complementary_columns(seed):
    # the search keeps one column per equal-or-complementary pair and drops
    # constant columns; widen a small class with all four kinds
    c = widened_class(seed)
    assert 8 <= c.domain_size <= 11
    assert vc_dimension(c) == oracle_vc(c)


PINNED_DIMENSIONS = [
    # (generator, arguments, d, d*), recorded from the earlier level-wise
    # searches, except the full cube's d*: they ran out of memory on it, and
    # 10 dual concepts shatter at most floor(log2 10) = 3 points
    (intervals, (24,), 2, 2),
    (intervals, (30,), 2, 2),
    (k_interval_unions, (9, 2), 4, 3),
    (halfspaces_grid, (8, 2), 3, 2),
    (halfspaces_grid, (4, 3), 4, 3),
    (halfspaces_grid, (6, 2), 3, 2),
    (random_vc_capped, (12, 3, 60), 3, 3),
    (full_cube, (10,), 10, 3),
]


@pytest.mark.parametrize(
    "make, args, d, d_star",
    PINNED_DIMENSIONS,
    ids=["-".join([make.__name__, *map(str, args)]) for make, args, _, _ in PINNED_DIMENSIONS],
)
def test_vc_pinned_beyond_oracle_reach(make, args, d, d_star):
    cls = make(*args)
    assert vc_dimension(cls) == d
    assert vc_dimension(dual_class(cls)) == d_star


@pytest.mark.parametrize(
    "make, d",
    [
        pytest.param(lambda: halfspaces_grid(6, 2), 3, id="halfspaces_grid-6-2"),
        pytest.param(lambda: halfspaces_grid(4, 3), 4, id="halfspaces_grid-4-3"),
        pytest.param(lambda: k_interval_unions(8, 2), 4, id="k_interval_unions-8-2"),
        pytest.param(lambda: dual_class(intervals(12)), 2, id="dual-intervals-12"),
    ],
)
def test_vc_invariant_under_point_permutation_and_complements(make, d):
    cls = make()
    rng = np.random.default_rng(5)
    flips = rng.integers(0, 2, cls.domain_size, dtype=np.uint8)
    moved = ConceptClass.from_rows(cls.matrix[:, rng.permutation(cls.domain_size)] ^ flips)
    assert flips.any() and not flips.all()
    assert vc_dimension(moved) == vc_dimension(cls) == d


def test_vc_search_logs_one_line_per_uncached_search(caplog):
    cls = halfspaces_grid(6, 2)
    vc_dimension.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="vccompress.concepts"):
        assert vc_dimension(cls) == vc_dimension(cls) == 3
    [line] = [r.getMessage() for r in caplog.records if r.name == "vccompress.concepts"]
    assert line == (
        "vc dimension 3 (ceiling 5): 36 nontrivial columns, 34 after pairing "
        "equal and complementary ones, 133 nodes extended"
    )


def _capped_matches_the_oracle(cls):
    d = oracle_vc(cls)
    for ceiling in range(cls.domain_size + 2):
        assert vc_dimension(cls, ceiling) == min(d, ceiling), ceiling


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=40),
        )
    )
)
def test_capped_search_is_min_of_d_and_the_ceiling(spec):
    n, rows = spec
    _capped_matches_the_oracle(ConceptClass.from_row_ints(n, rows))


def test_capped_search_on_the_known_value_classes():
    for cls in (
        intervals_fixture(10),
        ConceptClass.from_row_ints(3, range(8)),
        ConceptClass.from_row_ints(4, [0]),
        intervals_fixture(8),
        random_class(9, 80, 7),
    ):
        _capped_matches_the_oracle(cls)
    with pytest.raises(ValueError, match="ceiling must be nonnegative"):
        vc_dimension(intervals_fixture(4), -1)


def test_capped_search_refuses_a_non_integer_ceiling():
    # a ceiling of 1.5 once capped the search above it, at 2; and a cache
    # keyed by value alone would answer 2.0 from the call at 2, unchecked
    vc_dimension.cache_clear()
    cls = intervals(6)
    assert vc_dimension(cls, 2) == 2
    for ceiling in (1.5, 2.0):
        with pytest.raises(ValueError, match=f"ceiling {ceiling} must be an integer"):
            vc_dimension(cls, ceiling)
    assert vc_dimension(cls, np.int64(1)) == vc_dimension(cls, True) == 1


def test_capped_search_logs_its_ceiling_and_never_answers_an_uncapped_call(caplog):
    # a fresh class: no search has kept its d yet
    cls = halfspaces_grid(6, 2)
    vc_dimension.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="vccompress.concepts"):
        assert vc_dimension(cls, 2) == vc_dimension(cls, 2) == 2
        assert vc_dimension(cls) == 3  # a result at its ceiling is not d
    lines = [r.getMessage() for r in caplog.records if r.name == "vccompress.concepts"]
    assert [line.partition(":")[0] for line in lines] == [
        "vc dimension 2 (ceiling 2)",
        "vc dimension 3 (ceiling 5)",
    ]
    info = vc_dimension.cache_info()
    assert (info.hits, info.misses) == (1, 2)
    # the uncapped search kept d on the class: a new ceiling needs no search
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vccompress.concepts"):
        assert [vc_dimension(cls, ceiling) for ceiling in (1, 3, 4)] == [1, 3, 3]
    assert [r for r in caplog.records if r.name == "vccompress.concepts"] == []
    assert vc_dimension.cache_info().misses == 5


def test_capped_search_below_its_ceiling_keeps_d(caplog):
    # a result below the ceiling asked for is d itself, whether the search
    # ran out of candidates (ceiling 4, d = 3) or the ceiling exceeded the
    # search's own (ceiling 9, which it lowers to 5)
    for ceiling in (4, 9):
        cls = halfspaces_grid(6, 2)
        vc_dimension.cache_clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="vccompress.concepts"):
            assert vc_dimension(cls, ceiling) == 3
            assert vc_dimension(cls) == vc_dimension(cls, 7) == 3
        lines = [r.getMessage() for r in caplog.records if r.name == "vccompress.concepts"]
        assert [line.partition(":")[0] for line in lines] == [
            f"vc dimension 3 (ceiling {min(ceiling, 5)})"
        ]


def _counted_queries(cls):
    """The ceilings (None for the uncapped query) whose answer counting
    decides: more concepts than any class of dimension below the cap has on
    n points, the sum of C(n, i) over i < cap (Sauer-Shelah)."""
    m, n = len(cls), cls.domain_size
    for ceiling in [*range(n + 2), None]:
        cap = min(n, m.bit_length() - 1, n if ceiling is None else ceiling)
        if m > sum(math.comb(n, i) for i in range(cap)):
            yield ceiling


def _counted_answers(cls, d, caplog):
    """Each counted query on a fresh copy of `cls` reads min(d, ceiling) and
    logs that it extended no node; returns how many there were."""
    counted = list(_counted_queries(cls))
    for ceiling in counted:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="vccompress.concepts"):
            answer = vc_dimension.__wrapped__(ConceptClass(cls.domain_size, cls.rows), ceiling)
        assert answer == (d if ceiling is None else min(d, ceiling)), ceiling
        [line] = [r.getMessage() for r in caplog.records if r.name == "vccompress.concepts"]
        assert line.startswith(f"vc dimension {answer} (ceiling ") and "Sauer-Shelah" in line
        assert line.endswith(", 0 nodes extended")
    return len(counted)


def test_counted_dimension_agrees_with_the_oracle_and_the_pinned_values(caplog):
    # every query that counting decides, on the classes checked above against
    # the oracle (by the oracle) and beyond its reach (by the pinned d)
    oracle_cases = [
        intervals_fixture(5),
        intervals_fixture(8),
        intervals_fixture(10),
        ConceptClass.from_row_ints(3, range(8)),
        ConceptClass.from_row_ints(4, range(16)),
        ConceptClass.from_row_ints(4, [0]),
        random_class(9, 80, 7),
        *(random_class(7, 12, seed) for seed in range(10)),
        *(random_class(10, 25, 100 + seed) for seed in range(4)),
        *(widened_class(seed) for seed in range(12)),
    ]
    counted = sum(_counted_answers(cls, oracle_vc(cls), caplog) for cls in oracle_cases)
    for make, args, d, d_star in PINNED_DIMENSIONS:
        cls = make(*args)
        counted += _counted_answers(cls, d, caplog)
        counted += _counted_answers(dual_class(cls), d_star, caplog)
    assert counted == 166


def test_counted_query_extends_no_node(caplog):
    # 39,203 concepts on 16 points, more than the 26,333 of any class of
    # dimension below 8, so "d >= 8?" is answered by counting alone; the
    # search would extend nodes even to find its witness
    cls = k_interval_unions(16, 4)
    with caplog.at_level(logging.DEBUG, logger="vccompress.concepts"):
        assert vc_dimension.__wrapped__(cls, 8) == 8
    [line] = [r.getMessage() for r in caplog.records if r.name == "vccompress.concepts"]
    assert line == (
        "vc dimension 8 (ceiling 8): 39203 concepts on 16 points, more than the 26333 "
        "of any class below it (Sauer-Shelah), 0 nodes extended"
    )
    # at the ceiling the answer is no proof of d, so none is kept
    assert "_vc_dimension" not in vars(cls)


@pytest.mark.parametrize(
    "make",
    [
        *(pytest.param(lambda s=s: widened_class(s), id=f"widened-{s}") for s in range(12)),
        *(pytest.param(lambda s=s: random_class(7, 30, s), id=f"random-{s}") for s in range(6)),
        pytest.param(lambda: intervals(9), id="intervals-9"),
        pytest.param(lambda: k_interval_unions(8, 2), id="k_interval_unions-8-2"),
        pytest.param(lambda: full_cube(4), id="full_cube-4"),
        pytest.param(lambda: ConceptClass.from_row_ints(4, [5]), id="singleton"),
    ],
)
def test_search_at_its_ceiling_returns_a_shattered_witness(make):
    # every ceiling on a fresh class, past the cache, so no stored d answers
    # it: the capped search reads min(d, ceiling)
    d = oracle_vc(make())
    for ceiling in [*range(make().domain_size + 2), None]:
        expected = d if ceiling is None else min(d, ceiling)
        assert vc_dimension.__wrapped__(make(), ceiling) == expected, ceiling


# --- dual class ---------------------------------------------------------------


def test_dual_class_example():
    c = ConceptClass.from_rows([[0, 0, 0], [1, 1, 0], [0, 1, 1]])
    d = dual_class(c)
    assert d.domain_size == 3
    assert set(d.rows) == {0b010, 0b011, 0b001}
    # the column of each point is a dual concept row
    for x in range(3):
        assert int("".join(map(str, c.matrix[:, x])), 2) in d.rows


def test_dual_of_constant_class():
    c = ConceptClass.from_row_ints(5, [0])
    d = dual_class(c)
    assert d.domain_size == 1
    assert d.rows == (0,)


def test_dual_vc_of_intervals_10():
    iv = intervals_fixture(10)
    d = dual_class(iv)
    assert d.domain_size == 56
    assert len(d) == 10
    assert vc_dimension(d) == 2  # frozen from the naive oracle
    assert vc_dimension(d) < 2 ** (vc_dimension(iv) + 1)


def test_dual_vc_bound_holds_on_random_classes():
    for seed in range(6):
        c = random_class(8, 20, 50 + seed)
        assert vc_dimension(dual_class(c)) < 2 ** (vc_dimension(c) + 1)


def test_double_dual_recovers_class_when_columns_distinct():
    # all columns distinct -> the double dual is the class itself
    iv = intervals_fixture(6)
    dd = dual_class(dual_class(iv))
    assert dd == iv
    assert vc_dimension(dd) == vc_dimension(iv)


# --- consistency ---------------------------------------------------------------


def test_consistent_concepts_cube_example():
    cube3 = ConceptClass.from_row_ints(3, range(8))
    s = LabeledSample.from_pairs([(0, 1), (1, 0)])
    assert consistent_concepts(cube3, s) == [0b100, 0b101]


def test_unrealizable_interval_pattern():
    iv = intervals_fixture(10)
    s = LabeledSample.from_pairs([(2, 1), (5, 0), (8, 1)])
    assert consistent_concepts(iv, s) == []


def test_consistent_concepts_point_out_of_range():
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        consistent_concepts(c, LabeledSample.from_pairs([(5, 1)]))


def _numpy_consistent(cls, sample):
    """The numpy scan consistent_concepts once ran, kept as the fold's oracle."""
    pts = np.array(sample.distinct_points, dtype=np.intp)
    labels = np.array([label for _, label in sample.label_items], dtype=np.uint8)
    return np.flatnonzero((cls.matrix[:, pts] == labels).all(axis=1)).tolist()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_consistency_matches_the_numpy_scan(n, data):
    rows = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    cls = ConceptClass.from_row_ints(n, rows)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)), max_size=6))
    sample = LabeledSample.from_pairs(dict(pairs).items())
    expected = _numpy_consistent(cls, sample)
    assert consistent_concepts(cls, sample) == expected
    if expected:
        assert lowest_consistent_concept(cls, sample.label_items) == expected[0]
    else:
        with pytest.raises(UnrealizableError):
            lowest_consistent_concept(cls, sample.label_items)


def test_consistency_checks_every_point():
    c = intervals(5)
    empty = LabeledSample.from_pairs([])
    assert consistent_concepts(c, empty) == _numpy_consistent(c, empty) == list(range(len(c)))
    assert lowest_consistent_concept(c, empty.label_items) == 0
    # unrealizable by point 3 (no interval labels 0, 2, 3 as 1, 0, 1), then
    # a point outside the domain: the domain error wins in both
    pairs = [(0, 1), (2, 0), (3, 1), (7, 1)]
    assert _numpy_consistent(c, LabeledSample.from_pairs(pairs[:3])) == []
    for check in (
        lambda: lowest_consistent_concept(c, pairs),
        lambda: consistent_concepts(c, LabeledSample.from_pairs(pairs)),
    ):
        with pytest.raises(ValueError, match="point 7 outside") as exc:
            check()
        assert not isinstance(exc.value, UnrealizableError)


# --- text format ---------------------------------------------------------------


def test_parse_serialize_round_trip():
    iv = intervals_fixture(7)
    text = serialize_concept_class(iv)
    assert parse_concept_class(text) == iv


def test_parse_ignores_blank_lines():
    c = parse_concept_class("\n2 2\n\n01\n\n10\n\n")
    assert c.rows == (0b01, 0b10)


def test_parse_duplicate_row_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_concept_class("2 3\n01\n10\n01\n")
    assert exc.value.line == 4
    assert "duplicate" in str(exc.value)


def test_parse_non_integer_header_reports_line():
    with pytest.raises(ParseError, match="line 2: header must contain two integers") as exc:
        parse_concept_class("\n2 x\n01\n")
    assert exc.value.line == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_concept_class("")
    with pytest.raises(ParseError):
        parse_concept_class("2\n01\n")
    with pytest.raises(ParseError):
        parse_concept_class("2 2\n01\n")  # missing a row
    with pytest.raises(ParseError):
        parse_concept_class("2 1\n01\n10\n")  # extra row
    with pytest.raises(ParseError):
        parse_concept_class("2 1\n0x\n")  # bad character
    with pytest.raises(ParseError):
        parse_concept_class("2 1\n011\n")  # wrong width


# --- caches ---------------------------------------------------------------------


def test_dimension_caches_are_bounded():
    bound = concepts.CLASS_CACHE_SIZE
    vc_dimension.cache_clear()
    dual_class.cache_clear()
    for value in range(1, bound + 2):  # bound + 1 distinct classes
        c = ConceptClass.from_row_ints(8, [0, value])
        assert vc_dimension(c) == 1
        dual_class(c)
    for cached in (vc_dimension, dual_class):
        assert cached.cache_info().maxsize == bound
        assert cached.cache_info().currsize <= bound
