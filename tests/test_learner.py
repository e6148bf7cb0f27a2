"""Weak-learner tests.

The certified mixtures are re-verified here from scratch: given the returned
weights, the per-point agreement mass is recomputed directly from the concept
matrix and compared against the 2/3 threshold (minus the certificate
tolerance when the solver ran approximately).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vccompress import (
    ConceptClass,
    HypothesisSet,
    LabeledSample,
    LearningMap,
    UnrealizableError,
    build_hypothesis_set,
    compress,
    deserialize_compressed,
    escalate_budget,
    lowest_consistent_concept,
    reconstruct,
    serialize_compressed,
)
from vccompress import generators, learner, scheme
from vccompress.learner import CERTIFICATE_TOLERANCE, WEAK_AGREEMENT, _Pool, _teaching_subset
from vccompress.seeding import child_seeds


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


def oracle(cls, sample, budget, seed):
    """learner._double_oracle at one budget, seeded as build_hypothesis_set
    seeds its first budget: (hypotheses, provenance, certificate), or None
    to request an escalation."""
    pool = _Pool(cls, dict(sample.label_items))
    return learner._double_oracle(
        cls,
        pool,
        sample.distinct_points,
        sample.label_vector(),
        budget,
        int(child_seeds(seed, 64)[0]),
    )


# -- ERM --


def test_lowest_consistent_concept_prefers_lowest_index():
    c = cube(3)
    # bit order: point 0 is the most significant row bit
    assert lowest_consistent_concept(c, [(0, 1)]) == 4
    assert lowest_consistent_concept(c, [(2, 1)]) == 1
    assert lowest_consistent_concept(c, []) == 0


def test_lowest_consistent_concept_raises_when_nothing_fits():
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    with pytest.raises(UnrealizableError):
        lowest_consistent_concept(c, [(0, 1), (1, 1)])


def test_erm_uses_lowest_consistent_index():
    c = ConceptClass.from_rows([[0, 0], [0, 1], [1, 1]])
    sample = LabeledSample.from_pairs([(1, 1)])
    assert lowest_consistent_concept(c, sample.label_items) == 1


def test_erm_enforces_the_subset_budget():
    c = cube(3)
    sample = LabeledSample.from_pairs([(0, 1), (1, 0), (2, 1)])
    assert lowest_consistent_concept(c, sample.label_items) == 5
    # the learner runs ERM only on subsets within its budget: two of the
    # three points already teach concept 5
    hs, _ = build_hypothesis_set(LearningMap(c, 2), sample, seed=0)
    assert (hs.hypotheses, hs.provenance, hs.budget) == ((5,), ((0, 2),), 2)
    hs, _ = build_hypothesis_set(LearningMap(c, 1), sample, seed=0)
    assert all(len(subset) <= hs.budget for subset in hs.provenance)


def test_learning_map_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        LearningMap(cube(2), 0)


def test_escalate_budget_doubles_and_caps():
    m = LearningMap(cube(3), 2)
    m2 = escalate_budget(m, 10)
    assert m2.subset_budget == 4
    assert escalate_budget(m2, 5).subset_budget == 5
    capped = LearningMap(cube(3), 5)
    assert escalate_budget(capped, 5) is capped
    assert escalate_budget(LearningMap(cube(3), 8), 5).subset_budget == 8
    with pytest.raises(ValueError):
        escalate_budget(m, 0)


# -- hypothesis sets --


def test_full_cube_needs_pairs_for_a_weak_majority():
    c = cube(3)
    sample = LabeledSample.from_pairs([(0, 1), (1, 1), (2, 1)])
    hs, solution = build_hypothesis_set(LearningMap(c, 1), sample, seed=0)
    # singleton budgets top out at 1/3 agreement here, so the builder must
    # have escalated once, landing exactly on the 2/3 game value
    assert hs.budget == 2
    assert solution.exact_value == Fraction(2, 3)
    assert solution.value_estimate == pytest.approx(2 / 3)
    recheck_certificate(c, sample, hs, solution, tolerance=0.0)


def test_intervals_mixture_is_certified_per_point():
    c = intervals_class(10)
    target = c.rows.index(0b0011110000)
    sample = LabeledSample.from_concept(c, target, range(10))
    hs, solution = build_hypothesis_set(LearningMap(c, 2), sample, seed=3)
    assert solution.value_estimate >= float(WEAK_AGREEMENT - CERTIFICATE_TOLERANCE) - 1e-12
    tol = 0.0 if solution.exact_value is not None else float(CERTIFICATE_TOLERANCE)
    recheck_certificate(c, sample, hs, solution, tolerance=tol)
    assert list(hs.hypotheses) == sorted(set(hs.hypotheses))
    assert all(len(subset) <= hs.budget for subset in hs.provenance)


# Targets of k_interval_unions(8, 2) that no subset of at most 4 of the 8
# points teaches (their shortest teaching sets have 5 points), so the double
# oracle, not the teaching search, certifies them below the full budget.
UNTAUGHT_UNIONS = (30, 52)


def test_double_oracle_reaches_a_certificate():
    c = generators.k_interval_unions(8, 2)
    sample = LabeledSample.from_concept(c, UNTAUGHT_UNIONS[1], range(8))
    # pairs cannot certify this target, so the oracle asks for a larger budget
    assert oracle(c, sample, 2, seed=11) is None
    hypotheses, provenance, cert = oracle(c, sample, 3, seed=11)
    assert len(hypotheses) > 1
    assert all(len(subset) <= 3 for subset in provenance)
    tol = 0.0 if cert.exact_value is not None else float(CERTIFICATE_TOLERANCE)
    recheck_mixture(c, sample, hypotheses, provenance, cert.weights, tolerance=tol)


def test_double_oracle_is_deterministic_per_seed():
    c = generators.k_interval_unions(8, 2)
    sample = LabeledSample.from_concept(c, UNTAUGHT_UNIONS[0], range(8))
    first = oracle(c, sample, 3, seed=9)
    second = oracle(c, sample, 3, seed=9)
    assert first[:2] == second[:2]
    assert first[2].certified_agreement == second[2].certified_agreement


def test_random_class_certificates_hold():
    rng = np.random.default_rng(17)
    matrix = rng.integers(0, 2, size=(40, 12))
    c = ConceptClass.from_matrix(np.unique(matrix, axis=0))
    target = 7 % len(c.rows)
    sample = LabeledSample.from_concept(c, target, range(12))
    hs, solution = build_hypothesis_set(LearningMap(c, 2), sample, seed=5)
    tol = 0.0 if solution.exact_value is not None else float(CERTIFICATE_TOLERANCE)
    recheck_certificate(c, sample, hs, solution, tolerance=tol)


def test_unrealizable_sample_surfaces_while_escalating():
    c = ConceptClass.from_rows([[0, 1], [1, 0]])
    sample = LabeledSample.from_pairs([(0, 1), (1, 1)])
    with pytest.raises(UnrealizableError):
        build_hypothesis_set(LearningMap(c, 1), sample, seed=0)


def test_build_rejects_empty_samples():
    c = cube(2)
    with pytest.raises(ValueError):
        build_hypothesis_set(LearningMap(c, 1), LabeledSample.from_pairs([]), seed=0)


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
def test_teaching_subset_matches_a_brute_force_scan(spec, target, budget):
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
    assert _teaching_subset(c, distinct, labels, budget, consistent) == first


@settings(max_examples=80, deadline=None)
@given(
    small_class_and_points,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=3),
)
def test_point_mass_matches_the_full_pool(spec, target, budget):
    n, rows, points = spec
    c = ConceptClass.from_row_ints(n, sorted(rows))
    sample = LabeledSample.from_concept(c, target % len(c.rows), points)
    consistent = lowest_consistent_concept(c, sample.label_items)
    pool = _Pool(c, dict(sample.label_items))
    distinct = sample.distinct_points
    for size in range(min(budget, len(distinct)) + 1):
        for subset in itertools.combinations(distinct, size):
            pool.add_subset(subset)
    concepts, provenance = pool.sorted_items()
    hs, solution = build_hypothesis_set(LearningMap(c, budget), sample, seed=0)
    if consistent in concepts:
        assert hs.hypotheses == (consistent,)
        assert hs.provenance == (provenance[concepts.index(consistent)],)
        assert hs.budget == min(budget, len(distinct))
        assert solution.exact_value == Fraction(1)
        assert solution.value_estimate == 1.0
        assert solution.exploitability == 0.0
    tol = 0.0 if solution.exact_value is not None else float(CERTIFICATE_TOLERANCE)
    recheck_certificate(c, sample, hs, solution, tolerance=tol)


def _counting(monkeypatch, name):
    """Replace learner.<name> by a wrapper that records its results."""
    results = []
    original = getattr(learner, name)

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(learner, name, counted)
    return results


def test_taught_samples_solve_no_game(monkeypatch):
    calls = {
        name: _counting(monkeypatch, name)
        for name in ("_exact_minimax", "solve_mw", "_double_oracle")
    }
    # 60 distinct points at budget 3 are past the exhaustive cap, which
    # sends such a sample to the double oracle unless the search teaches it
    c = generators.halfspaces_grid(8, 2)
    sample = LabeledSample.from_concept(c, 7, [(7 * i) % 64 for i in range(60)])
    hs, solution = build_hypothesis_set(LearningMap(c, 3), sample, seed=0)
    assert (hs.hypotheses, hs.provenance) == ((7,), ((24,),))
    assert solution.exact_value == Fraction(1)
    assert {name: len(made) for name, made in calls.items()} == {
        "_exact_minimax": 0,
        "solve_mw": 0,
        "_double_oracle": 0,
    }
    # on an untaught sample the oracle's pool and exact value are those
    # recorded before the teaching search existed
    c = generators.k_interval_unions(8, 2)
    sample = LabeledSample.from_concept(c, UNTAUGHT_UNIONS[0], range(8))
    oracle(c, sample, 3, seed=0)
    hypotheses = (0, 3, 4, 7, 9, 12, 13, 16, 19, 20, 21, 22, 25)
    provenance = (
        (), (6, 7), (5,), (5, 6, 7), (4, 7), (4, 5), (4, 5, 7),
        (3,), (3, 6, 7), (3, 5), (3, 5, 6), (3, 5, 7), (3, 4, 6),
    )
    [(pool, subsets, cert)] = calls["_double_oracle"]
    assert (tuple(pool), tuple(subsets), cert.exact_value) == (
        hypotheses,
        provenance,
        Fraction(2, 3),
    )
    assert len(calls["_exact_minimax"]) > 0


def test_above_cap_learner_game_is_certified_by_mw(monkeypatch):
    mw_calls = _counting(monkeypatch, "solve_mw")
    builds = []
    original_build = scheme.build_hypothesis_set

    def recorded(*args, **kwargs):
        builds.append(original_build(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(scheme, "build_hypothesis_set", recorded)
    # the learner's game here collapses to more than EXACT_ENTRY_CAP entries
    c = generators.k_interval_unions(12, 2)
    sample = LabeledSample.from_concept(c, 785, range(12))
    compressed, report = compress(c, sample, seed=0)
    assert len(mw_calls) == 1
    [(hs, solution)] = builds
    assert solution.exact_value is None
    floor = float(WEAK_AGREEMENT - CERTIFICATE_TOLERANCE)
    assert solution.value_estimate >= floor
    assert report.details["certified_agreement"] >= floor
    recheck_certificate(c, sample, hs, solution, tolerance=float(CERTIFICATE_TOLERANCE))
    decoded = reconstruct(c, deserialize_compressed(serialize_compressed(compressed)))
    assert decoded.tolist() == c.matrix[785].tolist()
    assert report.details["min_majority_margin"] >= 1


def test_hypothesis_set_validates_shape():
    with pytest.raises(ValueError):
        HypothesisSet((1, 2), ((0,),), budget=1)
    with pytest.raises(ValueError):
        HypothesisSet((), (), budget=1)
    with pytest.raises(ValueError):
        HypothesisSet((2, 1), ((0,), (1,)), budget=1)
