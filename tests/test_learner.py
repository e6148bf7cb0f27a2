"""Weak-learner tests.

The certified mixtures are re-verified here from scratch: given the returned
weights, the per-point agreement mass is recomputed directly from the concept
matrix and compared against the 2/3 threshold, which the exact game value of
every certified mixture reaches.
"""

import hashlib
import itertools
import logging
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vccompress import (
    ConceptClass,
    HypothesisSet,
    LabeledSample,
    UnrealizableError,
    build_hypothesis_set,
    compress,
    deserialize_compressed,
    escalate_budget,
    lowest_consistent_concept,
    reconstruct,
    serialize_compressed,
    vc_dimension,
)
from vccompress import game, generators, learner, scheme
from vccompress.game import EXACT_ENTRY_CAP
from vccompress.learner import (
    WEAK_AGREEMENT,
    _erm_image,
    _first_subsets,
    _undominated,
)


def teaching_search(cls, points, labels_by_point, c0):
    """c0's walk as the learner reads it, one yield per size: None below the
    first subset whose ERM is c0, then that subset; a walk that a cap ended
    leaves c0 to all of `points` at size len(points)."""
    walk = _first_subsets(cls, points, labels_by_point, c0, 1 << c0)
    for size in range(len(points) + 1):
        first = next(walk, {})
        if c0 in first or size == len(points):
            yield first.get(c0, tuple(points))
            return
        yield None


def cube(n):
    return ConceptClass.from_row_ints(n, range(2**n))


def intervals_class(n):
    rows = {0}
    for a in range(n):
        for b in range(a, n):
            rows.add(((1 << (b - a + 1)) - 1) << (n - 1 - b))
    return ConceptClass.from_row_ints(n, sorted(rows))


def recheck_certificate(cls, sample, hs, solution, tolerance):
    recheck_mixture(
        cls, sample, hs.hypotheses, hs.provenance, solution.row_strategy.weights, tolerance
    )


def recheck_mixture(cls, sample, hypotheses, provenance, weights, tolerance):
    assert len(weights) == len(hypotheses)
    for point, label in sample.label_items:
        mass = sum(
            w
            for w, h in zip(weights, hypotheses)
            if cls.value(h, point) == label
        )
        assert mass >= float(WEAK_AGREEMENT) - tolerance - 1e-9
    for concept, subset in zip(hypotheses, provenance):
        pairs = [(x, dict(sample.label_items)[x]) for x in subset]
        assert lowest_consistent_concept(cls, pairs) == concept


# -- ERM --


def test_lowest_consistent_concept_prefers_lowest_index():
    c = cube(3)
    # bit order: point 0 is the most significant row bit
    assert lowest_consistent_concept(c, [(0, 1)]) == 4
    assert lowest_consistent_concept(c, [(2, 1)]) == 1
    assert lowest_consistent_concept(c, []) == 0


def test_lowest_consistent_concept_raises_when_nothing_fits():
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    with pytest.raises(UnrealizableError, match="not realizable"):
        lowest_consistent_concept(c, [(0, 1), (1, 1)])


@pytest.mark.parametrize("point", [-1, 5])
def test_lowest_consistent_concept_rejects_points_outside_the_domain(point):
    # a negative point must not index point_masks from the end
    with pytest.raises(ValueError, match=f"point {point} outside domain of size 5") as exc:
        lowest_consistent_concept(generators.intervals(5), [(point, 1)])
    assert not isinstance(exc.value, UnrealizableError)


def test_build_hypothesis_set_rejects_a_point_outside_the_domain():
    c = generators.intervals(5)
    sample = LabeledSample.from_pairs([(2, 1), (5, 1)])
    with pytest.raises(ValueError, match="point 5 outside domain of size 5") as exc:
        build_hypothesis_set(c, sample)
    assert not isinstance(exc.value, UnrealizableError)


def test_erm_uses_lowest_consistent_index():
    c = ConceptClass.from_rows([[0, 0], [0, 1], [1, 1]])
    sample = LabeledSample.from_pairs([(1, 1)])
    assert lowest_consistent_concept(c, sample.label_items) == 1


def test_erm_enforces_the_subset_budget():
    c = cube(3)
    sample = LabeledSample.from_pairs([(0, 1), (1, 0), (2, 1)])
    assert lowest_consistent_concept(c, sample.label_items) == 5
    # the learner runs ERM only on subsets within its budget: two of the
    # three points already teach concept 5, certified at budget 2
    hs, _ = build_hypothesis_set(c, sample)
    assert (hs.hypotheses, hs.provenance, hs.budget) == ((5,), ((0, 2),), 2)
    labels = dict(sample.label_items)
    search = teaching_search(c, sample.distinct_points, labels, 5)
    assert list(itertools.islice(search, 2)) == [None, None]  # sizes 0 and 1
    _, provenance, _ = _erm_image(c, sample.distinct_points, labels, 1, 5)
    assert max(map(len, provenance)) == 1


def test_escalate_budget_doubles_and_caps():
    assert escalate_budget(2, 10) == 4
    assert escalate_budget(4, 5) == 5
    assert escalate_budget(5, 5) == 5
    assert escalate_budget(8, 5) == 8
    with pytest.raises(ValueError):
        escalate_budget(2, 0)


# -- hypothesis sets --


def test_certify_mixture_collapses_columns_as_np_unique_does(monkeypatch):
    # the game solved is over the distinct columns in np.unique's order,
    # which for 0/1 bytes is the order of the columns' bytes
    games, solved = [], SimpleNamespace(exact_value=Fraction(1))
    monkeypatch.setattr(learner, "_exact_solution", lambda patterns: games.append(patterns) or solved)
    rng = np.random.default_rng(35)
    shapes = [(1, 1), (1, 9), (9, 1), (81, 48)]
    shapes += [tuple(rng.integers(1, 12, size=2)) for _ in range(300)]
    for m, k in shapes:
        cases = [
            rng.integers(0, 2, size=(m, k), dtype=np.uint8),
            np.repeat(rng.integers(0, 2, size=(m, 1), dtype=np.uint8), k, axis=1),
            rng.integers(0, 2, size=(m, 3), dtype=np.uint8)[:, rng.integers(0, 3, size=k)],
        ]
        for agreement in cases:
            assert learner._certify_mixture(agreement) is solved
            patterns = games.pop()
            assert patterns.dtype == np.uint8
            np.testing.assert_array_equal(patterns, np.unique(agreement, axis=1))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
            min_size=1,
            max_size=14,
        )
    )
)
def test_undominated_rows_keep_the_game_value(rows):
    # dropping strictly dominated rows keeps the exact value, and the pruned
    # game's optimal strategy, padded with zeros, secures that value against
    # every column of the full game
    agreement = np.array(rows, dtype=np.uint8)
    kept = _undominated(agreement)
    ones = [set(np.flatnonzero(row).tolist()) for row in agreement]
    assert kept == [i for i, a in enumerate(ones) if not any(a < b for b in ones)]
    full_value, _, _ = game._exact_minimax(agreement)
    value, p, _ = game._exact_minimax(agreement[kept])
    assert value == full_value
    padded = [Fraction(0)] * len(agreement)
    for i, x in zip(kept, p):
        padded[i] = x
    assert sum(padded) == 1
    for column in agreement.T.tolist():
        assert sum(x * a for x, a in zip(padded, column)) >= value


def test_top_of_the_cube_needs_pairs_for_a_weak_majority():
    # the four concepts of the 3-cube with at least two ones: d = 1, and
    # the all-ones sample's c0 needs all three points to teach it
    c = ConceptClass.from_row_ints(3, [0b011, 0b101, 0b110, 0b111])
    sample = LabeledSample.from_pairs([(0, 1), (1, 1), (2, 1)])
    labels = dict(sample.label_items)
    _, _, agreement = _erm_image(c, sample.distinct_points, labels, 1, 3)
    assert learner._certify_mixture(agreement) is None
    hs, solution = build_hypothesis_set(c, sample)
    # the budget max(1, d) = 1 falls short of 2/3, so the builder must have
    # escalated once, landing exactly on the 2/3 game value
    assert (hs.hypotheses, hs.provenance, hs.budget) == ((0, 1, 2), ((), (0,), (0, 1)), 2)
    assert solution.exact_value == Fraction(2, 3)
    assert solution.value_estimate == pytest.approx(2 / 3)
    recheck_certificate(c, sample, hs, solution, tolerance=0.0)


def test_intervals_mixture_is_certified_per_point():
    c = intervals_class(10)
    target = c.rows.index(0b0011110000)
    sample = LabeledSample.from_concept(c, target, range(10))
    hs, solution = build_hypothesis_set(c, sample)
    assert hs.budget == 2  # d, which no teaching set of c0 fits
    assert solution.exact_value >= WEAK_AGREEMENT
    assert solution.value_estimate >= float(WEAK_AGREEMENT) - 1e-12
    recheck_certificate(c, sample, hs, solution, tolerance=0.0)
    assert list(hs.hypotheses) == sorted(set(hs.hypotheses))
    assert all(len(subset) <= hs.budget for subset in hs.provenance)


def test_random_class_certificates_hold():
    rng = np.random.default_rng(17)
    matrix = rng.integers(0, 2, size=(40, 12))
    c = ConceptClass.from_rows(np.unique(matrix, axis=0).tolist())
    target = 7 % len(c.rows)
    sample = LabeledSample.from_concept(c, target, range(12))
    hs, solution = build_hypothesis_set(c, sample)
    assert solution.exact_value >= WEAK_AGREEMENT
    recheck_certificate(c, sample, hs, solution, tolerance=0.0)


def test_unrealizable_sample_surfaces_while_escalating():
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    sample = LabeledSample.from_pairs([(0, 1), (1, 1)])
    with pytest.raises(UnrealizableError):
        build_hypothesis_set(c, sample)


def test_empty_sample_is_a_taught_point_mass():
    # concept 0 is the ERM of the empty subset, so the empty sample teaches
    # it at budget 0, its distinct-point count, with the shared certificate
    c = cube(2)
    hypothesis_set, solution = build_hypothesis_set(c, LabeledSample.from_pairs([]))
    assert hypothesis_set == HypothesisSet((0,), ((),), 0)
    assert solution is learner._POINT_MASS


# a class (n points, concept rows) with a list of sample points
small_class_and_points = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=2**n - 1), min_size=1, max_size=24),
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=10),
    )
)


@settings(max_examples=200, deadline=None)
@given(
    small_class_and_points,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=3),
)
def test_teaching_search_matches_a_brute_force_scan(spec, target, budget):
    n, rows, points = spec
    c = ConceptClass.from_row_ints(n, sorted(rows))
    sample = LabeledSample.from_concept(c, target % len(c.rows), points)
    labels = dict(sample.label_items)
    consistent = lowest_consistent_concept(c, sample.label_items)
    distinct = sample.distinct_points
    subsets = itertools.chain.from_iterable(
        itertools.combinations(distinct, size) for size in range(min(budget, len(distinct)) + 1)
    )
    first = next(
        (
            subset
            for subset in subsets
            if lowest_consistent_concept(c, [(x, labels[x]) for x in subset]) == consistent
        ),
        None,
    )
    # one yield per size: None below the first hit, then the hit, which ends
    # the search
    search = teaching_search(c, distinct, labels, consistent)
    yields = list(itertools.islice(search, budget + 1))
    if first is None:
        assert yields == [None] * (budget + 1)
    else:
        assert yields == [None] * len(first) + [first]


@settings(max_examples=80, deadline=None)
@given(small_class_and_points, st.integers(min_value=0, max_value=10**6))
def test_point_mass_matches_the_full_pool(spec, target):
    n, rows, points = spec
    c = ConceptClass.from_row_ints(n, sorted(rows))
    sample = LabeledSample.from_concept(c, target % len(c.rows), points)
    labels = dict(sample.label_items)
    consistent = lowest_consistent_concept(c, sample.label_items)
    distinct = sample.distinct_points
    budget = max(1, vc_dimension(c))  # the learner's
    # the first ERM of every subset within budget, smallest subsets first
    first_subset = {}
    for size in range(min(budget, len(distinct)) + 1):
        for subset in itertools.combinations(distinct, size):
            concept = lowest_consistent_concept(c, [(x, labels[x]) for x in subset])
            first_subset.setdefault(concept, subset)
    concepts = sorted(first_subset)
    # the ERM image leaves out c0, the one ERM that agrees with every point
    image = [concept for concept in concepts if concept != consistent]
    provenance = [first_subset[concept] for concept in image]
    hypotheses, provenance_found, agreement = _erm_image(
        c, distinct, labels, min(budget, len(distinct)), consistent
    )
    assert (hypotheses, provenance_found) == (image, provenance)
    label_vector = np.array([labels[x] for x in distinct], dtype=np.uint8)
    assert agreement.dtype == np.uint8
    assert np.array_equal(agreement, c.matrix[image][:, distinct] == label_vector)
    hs, solution = build_hypothesis_set(c, sample)
    if consistent in concepts:
        taught = first_subset[consistent]
        assert hs.hypotheses == (consistent,)
        assert hs.provenance == (taught,)
        assert hs.budget == min(max(1, len(taught)), len(distinct))
        assert solution.exact_value == Fraction(1)
        assert solution.value_estimate == 1.0
        assert solution.exploitability == 0.0
    else:
        assert hs.budget >= min(budget, len(distinct))
    assert solution.exact_value >= WEAK_AGREEMENT
    recheck_certificate(c, sample, hs, solution, tolerance=0.0)


def _counting(monkeypatch, name):
    """Replace game.<name> by a wrapper that records its results."""
    results = []
    original = getattr(game, name)

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(game, name, counted)
    return results


def test_taught_samples_solve_no_game(monkeypatch):
    games = _counting(monkeypatch, "_exact_minimax")
    # 60 distinct points at the budget d = 3 make 36,051 subsets, but the
    # search teaches c0 without walking them
    c = generators.halfspaces_grid(8, 2)
    sample = LabeledSample.from_concept(c, 7, [(7 * i) % 64 for i in range(60)])
    hs, solution = build_hypothesis_set(c, sample)
    assert (hs.hypotheses, hs.provenance) == ((7,), ((24,),))
    assert solution.exact_value == Fraction(1)
    assert games == []
    # target 30 of k_interval_unions(8, 2) has no teaching set of fewer than
    # 5 of the 8 points; its pool and exact value at budget 3 are those the
    # walk over all 93 subsets gave before the ERM-image search existed
    c = generators.k_interval_unions(8, 2)
    sample = LabeledSample.from_concept(c, 30, range(8))
    labels = dict(sample.label_items)
    hypotheses, _, agreement = _erm_image(c, sample.distinct_points, labels, 3, 30)
    assert hypotheses == list(range(15)) + list(range(16, 26)) + [27]
    assert learner._certify_mixture(agreement).exact_value == Fraction(2, 3)
    assert len(games) == 1
    # the learner's own budget is d = 4, which no teaching set fits either
    hs, solution = build_hypothesis_set(c, sample)
    assert hs.budget == 4 < len(hs)
    assert solution.exact_value >= WEAK_AGREEMENT
    assert len(games) == 2


def test_prefix_cap_still_ends_the_escalation(monkeypatch):
    # with every size's search cut after one prefix, no subset of fewer than
    # all 8 points certifies target 52: the budget d = 4 escalates to 8, at
    # which the 8 points teach c0
    monkeypatch.setattr(learner, "_PREFIX_CAP", 1)
    c = generators.k_interval_unions(8, 2)
    sample = LabeledSample.from_concept(c, 52, range(8))
    hs, solution = build_hypothesis_set(c, sample)
    assert (hs.hypotheses, hs.provenance) == ((52,), ((0, 1, 2, 3, 4, 5, 6, 7),))
    assert hs.budget == 8
    assert solution.exact_value == Fraction(1)


@pytest.mark.parametrize(
    "cap, expected",
    [
        (50, "2192f644519df7c230a6b311063137fc071d1276ab1a808c5648ea85075aab30"),
        (3, "8e49545b5961ded44785a735bba038907ce6a96f1a8924b27c72daf0fc21f933"),
    ],
)
def test_prefix_cap_cuts_each_search_at_the_same_prefix(monkeypatch, cap, expected):
    # the sha256 of every search's yields, for every target of three classes
    # on all points, recorded before the last point was scanned in a tight
    # loop: a search counts its prefixes as it did, so a small cap cuts it
    # at the same size
    monkeypatch.setattr(learner, "_PREFIX_CAP", cap)
    digest = hashlib.sha256()
    for c in (
        generators.k_interval_unions(8, 2),
        generators.intervals(10),
        generators.random_vc_capped(12, 3, 60),
    ):
        for target in range(len(c)):
            sample = LabeledSample.from_concept(c, target, range(c.domain_size))
            labels = dict(sample.label_items)
            search = teaching_search(c, sample.distinct_points, labels, target)
            digest.update(repr(list(search)).encode())
    assert digest.hexdigest() == expected


def test_capped_walk_keeps_what_it_found(monkeypatch):
    # a walk cut by the prefix cap returns part of the image, each concept
    # with the subset the full walk gives it
    c = generators.k_interval_unions(8, 2)
    sample = LabeledSample.from_concept(c, 52, range(8))
    labels = dict(sample.label_items)
    hypotheses, provenance, agreement = _erm_image(c, sample.distinct_points, labels, 4, 52)
    full = dict(zip(hypotheses, provenance))
    monkeypatch.setattr(learner, "_PREFIX_CAP", 1)
    hypotheses, provenance, agreement = _erm_image(c, sample.distinct_points, labels, 4, 52)
    assert 0 < len(hypotheses) < len(full)
    assert all(full[h] == subset for h, subset in zip(hypotheses, provenance))
    assert agreement.shape == (len(hypotheses), 8)


def test_a_size_cut_by_the_cap_logs_one_line(monkeypatch, caplog):
    # the cut names its size, the prefixes it visited and what is still
    # sought; c0's walk for target 52 is cut at size 1, and the image's
    # walk, seeking every concept below 52, at size 3, where 36 are left
    monkeypatch.setattr(learner, "_PREFIX_CAP", 1)
    c = generators.k_interval_unions(8, 2)
    sample = LabeledSample.from_concept(c, 52, range(8))
    labels = dict(sample.label_items)
    with caplog.at_level(logging.DEBUG, logger="vccompress.learner"):
        assert len(list(_first_subsets(c, sample.distinct_points, labels, 52, 1 << 52))) == 2
        _erm_image(c, sample.distinct_points, labels, 4, 52)
    lines = [r.getMessage() for r in caplog.records if r.name == "vccompress.learner"]
    assert lines == [
        "subset walk cut at size 1 after 2 prefixes, 1 concepts still sought",
        "subset walk cut at size 3 after 37 prefixes, 33 concepts still sought",
    ]


@settings(max_examples=200, deadline=None)
@given(
    small_class_and_points,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=2**24 - 1),
)
def test_walk_matches_a_brute_force_scan_for_any_sought_set(spec, target, bits):
    # after each size, every sought concept found so far with its first
    # subset of least size; the walk ends once nothing is left to seek
    n, rows, points = spec
    c = ConceptClass.from_row_ints(n, sorted(rows))
    sample = LabeledSample.from_concept(c, target % len(c.rows), points)
    labels = dict(sample.label_items)
    consistent = lowest_consistent_concept(c, sample.label_items)
    distinct = sample.distinct_points
    sought = bits & ((2 << consistent) - 1)  # no subset's ERM lies above c0
    expected, found, left = [], {}, sought
    for size in range(len(distinct) + 1):
        if size and not left:
            break
        for subset in itertools.combinations(distinct, size):
            concept = lowest_consistent_concept(c, [(x, labels[x]) for x in subset])
            if left >> concept & 1:
                found[concept] = subset
                left ^= 1 << concept
        expected.append(dict(found))
    walk = _first_subsets(c, distinct, labels, consistent, sought)
    assert [dict(first) for first in walk] == expected


def _recording_searches(monkeypatch):
    """Wrap the learner's subset walk and its VC queries: returns the list
    of (concept sought, sizes walked) of every walk that seeks one concept,
    a teaching-set search, and the list of the ceilings of every
    vc_dimension call the learner makes."""
    searches, ceilings = [], []
    walk, dimension = learner._first_subsets, learner.vc_dimension

    def recorded_search(cls, points, labels_by_point, c0, sought):
        sizes = []
        if not sought & (sought - 1):
            searches.append((sought.bit_length() - 1, sizes))
        for size, first in enumerate(walk(cls, points, labels_by_point, c0, sought)):
            sizes.append(size)
            yield first

    def recorded_dimension(*args):
        ceilings.append(args[1:])
        return dimension(*args)

    monkeypatch.setattr(learner, "_first_subsets", recorded_search)
    monkeypatch.setattr(learner, "vc_dimension", recorded_dimension)
    return searches, ceilings


def test_teaching_search_stays_within_the_budget_and_runs_once(monkeypatch):
    # every sample of every concept on all points: c0's search enters each
    # size at most once and none above max(1, d) unless the budget escalated;
    # it is the only teaching-set search, since a mixture's ERM image is one
    # walk over the subsets
    searches, ceilings = _recording_searches(monkeypatch)
    escalations = []
    escalate = learner.escalate_budget
    monkeypatch.setattr(
        learner, "escalate_budget", lambda *args: escalations.append(args) or escalate(*args)
    )
    ops = mixtures = 0
    for c in (generators.intervals(10), generators.k_interval_unions(8, 2), cube(4)):
        d = vc_dimension(c)
        for target in range(len(c)):
            sample = LabeledSample.from_concept(c, target, range(c.domain_size))
            del searches[:], ceilings[:], escalations[:]
            hs, _ = build_hypothesis_set(c, sample)
            c0, sizes = searches[0]
            assert c0 == target
            assert sizes == list(range(len(sizes)))
            # every query is capped, one per size entered from 2 on
            assert ceilings == [(s,) for s in range(2, len(ceilings) + 2)]
            if escalations:
                continue
            ops += 1
            assert max(sizes) <= max(1, d)
            assert len(searches) == 1
            if len(hs) == 1:
                assert sizes[-1] == len(hs.provenance[0])
            else:
                mixtures += 1
                assert sizes == list(range(max(1, d) + 1))
                assert ceilings[-1] == (d + 1,)
    assert (ops, mixtures) == (235, 25)  # every op, none escalated


def test_learner_logs_the_path_that_certified(caplog):
    iv = generators.intervals(12)
    # d = 1, and c0 = concept 2 needs two points: taught after an escalation
    escalated = ConceptClass.from_row_ints(3, [0b001, 0b010, 0b011])
    unions = generators.k_interval_unions(8, 2)
    # d = 1: the ERM image at budget 1 falls short, and at budget 2 certifies
    mixed = ConceptClass.from_row_ints(4, [6, 10, 12, 14, 15])
    cases = [
        (
            iv,
            LabeledSample.from_concept(iv, 30, range(12)),
            "taught point mass: c0 = 30 by 2 points (search budget None)",
        ),
        (
            iv,
            LabeledSample.from_pairs([(3, 1), (5, 0)]),
            "taught point mass: c0 = 37 by 1 points (search budget None)",
        ),
        (
            escalated,
            LabeledSample.from_concept(escalated, 2, range(3)),
            "taught point mass: c0 = 2 by 2 points (search budget 2)",
        ),
        (
            unions,
            LabeledSample.from_concept(unions, 30, range(8)),
            "certified 5 undominated of 30 hypotheses in the ERM image at budget 4 "
            "(agreement 0.8000; d = 4 from the search capped at 5)",
        ),
        (
            mixed,
            LabeledSample.from_concept(mixed, 3, range(4)),
            "certified 3 undominated of 3 hypotheses in the ERM image at budget 2 "
            "(agreement 0.6667; d = 1 from the search capped at 2)",
        ),
    ]
    for c, sample, expected in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="vccompress.learner"):
            hs, _ = build_hypothesis_set(c, sample)
        lines = [r.getMessage() for r in caplog.records if r.name == "vccompress.learner"]
        assert lines == [expected]
    assert hs.budget == 2  # the last case's, escalated once from max(1, d)


def test_point_mass_reports_its_teaching_set_size_after_an_escalation():
    # d = 2, and c0 = concept 6 has no teaching set of two points: the image
    # at budget 2 falls short, the budget escalates to 4, and c0 is taught
    # by three points, which is the budget the point mass reports
    c = ConceptClass.from_row_ints(4, [2, 5, 7, 11, 12, 13, 14])
    assert vc_dimension(c) == 2
    sample = LabeledSample.from_concept(c, 6, range(4))
    hs, solution = build_hypothesis_set(c, sample)
    assert hs == HypothesisSet((6,), ((0, 1, 2),), 3)
    assert solution is learner._POINT_MASS
    _, report = compress(c, sample)
    assert report.subset_budget == 3


def _compress_recording_the_game(monkeypatch, c, sample):
    """compress(c, sample) at seed 0, plus every (hypothesis set, solution)
    the learner built and every game shape its exact solver ran on."""
    shapes = []
    solve = game._exact_minimax

    def shaped(entries):
        shapes.append(entries.shape)
        return solve(entries)

    monkeypatch.setattr(game, "_exact_minimax", shaped)
    builds = []
    original_build = scheme.build_hypothesis_set

    def recorded(*args, **kwargs):
        builds.append(original_build(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(scheme, "build_hypothesis_set", recorded)
    compressed, report = compress(c, sample)
    return compressed, report, builds, shapes


def _full_pattern_game(c, sample, budget):
    """The ERM image's game at `budget` before its dominated rows go: one
    row per hypothesis, one column per distinct agreement pattern."""
    labels = dict(sample.label_items)
    c0 = lowest_consistent_concept(c, sample.label_items)
    _, _, agreement = _erm_image(c, sample.distinct_points, labels, budget, c0)
    return np.unique(agreement, axis=1)


def test_above_cap_learner_game_is_solved_exactly(monkeypatch):
    # the ERM image's full pattern game here has more than EXACT_ENTRY_CAP
    # entries; the learner plays its 13 undominated rows, a game of the
    # same exact value as the full game's exact solve
    c = generators.k_interval_unions(12, 2)
    sample = LabeledSample.from_concept(c, 785, range(12))
    full = _full_pattern_game(c, sample, 4)
    assert full.shape == (396, 12) and full.size > EXACT_ENTRY_CAP
    full_value, _, _ = game._exact_minimax(full)
    compressed, report, builds, shapes = _compress_recording_the_game(monkeypatch, c, sample)
    assert shapes == [(13, 12)]
    [(hs, solution)] = builds
    assert hs.budget == 4
    assert solution.exact_value == full_value == Fraction(8, 11)
    assert solution.value_estimate == pytest.approx(8 / 11)
    assert report.details["certified_agreement"] == solution.value_estimate
    recheck_certificate(c, sample, hs, solution, tolerance=0.0)
    assert report.details["vote_concepts"] == ((438, 1), (617, 1), (663, 1), (780, 1), (781, 1))
    assert report.details["min_majority_margin"] == 1
    assert report.details["draw_count"] == 5
    blob = serialize_compressed(compressed)
    assert hashlib.sha256(blob).hexdigest() == (
        "39d87bb3e091ac9eed4ad337ce6a60a73b40506eb45f4272d95cf3cf56616be0"
    )
    decoded = reconstruct(c, deserialize_compressed(blob))
    assert decoded.tolist() == c.matrix[785].tolist()


def test_learner_game_of_over_a_thousand_rows_is_solved_exactly(monkeypatch):
    # an ERM image of 1,069 hypotheses against 13 point patterns, one of the
    # few past a thousand rows in k_interval_unions(12..14, 2..3) with every
    # point sampled; 13 rows are undominated, and their game has the value
    # of the full game's exact solve
    c = generators.k_interval_unions(13, 3)
    sample = LabeledSample.from_concept(c, 3442, range(13))
    full = _full_pattern_game(c, sample, 6)
    assert full.shape == (1069, 13)
    full_value, _, _ = game._exact_minimax(full)
    compressed, report, builds, shapes = _compress_recording_the_game(monkeypatch, c, sample)
    assert shapes == [(13, 13)]
    [(hs, solution)] = builds
    assert hs.budget == 6
    assert solution.exact_value == full_value == Fraction(14, 17)
    recheck_certificate(c, sample, hs, solution, tolerance=0.0)
    assert report.details["vote_concepts"] == ((1856, 1), (2880, 1), (3274, 1))
    assert report.details["min_majority_margin"] == 1
    blob = serialize_compressed(compressed)
    assert hashlib.sha256(blob).hexdigest() == (
        "a9c16a527b6976d3bc73bd51cc6856ec93a2f9e768b5a64eba4d4697049ba688"
    )
    decoded = reconstruct(c, deserialize_compressed(blob))
    assert decoded.tolist() == c.matrix[3442].tolist()


def test_hypothesis_set_validates_shape():
    with pytest.raises(ValueError):
        HypothesisSet((1, 2), ((0,),), budget=1)
    with pytest.raises(ValueError):
        HypothesisSet((), (), budget=1)
    with pytest.raises(ValueError):
        HypothesisSet((2, 1), ((0,), (1,)), budget=1)
