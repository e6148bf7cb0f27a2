import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vccompress import (
    ConceptClass,
    approx,
    dual_class,
    generators,
    sparse_epsilon_nash,
    vc_dimension,
)
from vccompress.approx import (
    ApproximationCertificate,
    ProbabilityVector,
    approximation_deviation,
    approximation_size_bound,
    epsilon_approximation,
    sparsification_deviation,
    sparsify_mixture,
)
from vccompress.errors import ApproximationBudgetError


def intervals_fixture(n):
    rows = [0]
    for a in range(n):
        for b in range(a, n):
            rows.append(((1 << (b - a + 1)) - 1) << (n - 1 - b))
    return ConceptClass.from_row_ints(n, rows)


# --- ProbabilityVector -------------------------------------------------------


def test_probability_vector_validation():
    ProbabilityVector([0.5, 0.5])
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbabilityVector([-0.1, 1.1])
    with pytest.raises(ValueError):
        ProbabilityVector([])
    with pytest.raises(ValueError):
        ProbabilityVector([np.nan, 1.0])


def test_probability_vector_tolerates_tiny_sum_error():
    ProbabilityVector([1 / 3, 1 / 3, 1 / 3 + 5e-10])


def test_probability_vector_helpers():
    u = ProbabilityVector.uniform(4)
    assert len(u) == 4 and u.weights[0] == 0.25
    p = ProbabilityVector.point_mass(5, 2)
    assert p.weights.sum() == 1.0


def test_weights_are_readonly():
    u = ProbabilityVector.uniform(3)
    with pytest.raises(ValueError):
        u.weights[0] = 1.0


# --- certificates ------------------------------------------------------------


def test_certificate_rejects_deviation_above_epsilon():
    with pytest.raises(ValueError):
        ApproximationCertificate((0, 1), max_deviation=0.5, epsilon=0.25, size_bound=10)


def test_certificate_valid_at_larger_epsilon():
    # monotonicity: a certificate at epsilon is a certificate at epsilon' > epsilon
    cert = ApproximationCertificate((0, 1), max_deviation=0.2, epsilon=0.25, size_bound=10)
    ApproximationCertificate(cert.multiset, cert.max_deviation, 0.5, cert.size_bound)


def test_certificate_rejects_a_multiset_above_its_size_bound():
    ApproximationCertificate((0, 1, 2), max_deviation=0.2, epsilon=0.25, size_bound=3)
    with pytest.raises(ValueError, match="size bound"):
        ApproximationCertificate((0, 1, 2, 3), max_deviation=0.2, epsilon=0.25, size_bound=3)


def test_size_bound_formula():
    assert approximation_size_bound(2, 0.25) == math.ceil(16 * 3 / 0.0625)
    assert approximation_size_bound(0, 1.0) == 16


# --- epsilon approximation ----------------------------------------------------


def test_point_mass_gives_zero_deviation():
    c = intervals_fixture(8)
    mu = ProbabilityVector.point_mass(8, 3)
    cert = epsilon_approximation(c, mu, 0.25, seed=7)
    assert set(cert.multiset) == {3}
    assert cert.max_deviation == 0.0


def test_epsilon_one_always_certifies():
    c = intervals_fixture(6)
    cert = epsilon_approximation(c, ProbabilityVector.uniform(6), 1.0, seed=1)
    assert cert.max_deviation <= 1.0


def test_intervals_uniform_quarter():
    c = intervals_fixture(10)
    cert = epsilon_approximation(c, ProbabilityVector.uniform(10), 0.25, seed=42)
    assert len(cert.multiset) <= approximation_size_bound(vc_dimension(c), 0.25)
    # re-verify the certificate independently
    dev = approximation_deviation(c, ProbabilityVector.uniform(10), cert.multiset)
    assert dev == cert.max_deviation
    assert dev <= 0.25


def test_determinism():
    c = intervals_fixture(10)
    mu = ProbabilityVector.uniform(10)
    a = epsilon_approximation(c, mu, 0.25, seed=5)
    b = epsilon_approximation(c, mu, 0.25, seed=5)
    assert a == b
    c2 = epsilon_approximation(c, mu, 0.25, seed=6)
    assert c2 != a  # overwhelmingly likely for a different seed


def test_budget_error_when_unattainable(monkeypatch):
    # mass 2/3 on a point can never be matched to within 0.03 by empirical
    # frequencies with denominator 1 or 2 (below the ceiling T = 4) or 4 (the
    # ceiling), so every draw (one of 1, one of 2, three of 4) fails and the
    # error is deterministic
    monkeypatch.setattr(approx, "C_APX_DEFAULT", 0.0018)
    monkeypatch.setattr(approx, "RETRY_DEFAULT", 2)
    c = ConceptClass.from_rows([[0, 1], [1, 0], [1, 1]])
    mu = ProbabilityVector([1 / 3, 2 / 3])
    with pytest.raises(ApproximationBudgetError) as exc:
        epsilon_approximation(c, mu, 0.03, seed=0)
    assert exc.value.best_deviation is not None
    assert exc.value.best_deviation > 0.03


def test_deviation_rejects_non_integer_multisets():
    # a float or string entry was truncated or parsed: [1.9] and ['1'] read
    # as [1], and [1.9, 0.2] as [1, 0]
    c = intervals_fixture(4)
    mu = ProbabilityVector.uniform(4)
    assert approximation_deviation(c, mu, [1]) == 0.75
    assert approximation_deviation(c, mu, np.array([1, 0], dtype=np.int32)) == 0.5
    for multiset in ([1.9], ["1"], [1.9, 0.2], np.array([1.0]), [], ()):
        with pytest.raises(ValueError):
            approximation_deviation(c, mu, multiset)
    with pytest.raises(ValueError):
        sparsification_deviation(c, ProbabilityVector.uniform(len(c)), [0.5])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: ProbabilityVector.uniform(0), "size must be positive", id="uniform-0"),
        pytest.param(
            lambda: ProbabilityVector.point_mass(3, 3), "index out of range", id="point-mass-3-of-3"
        ),
        pytest.param(
            lambda: ProbabilityVector.point_mass(3, -1), "index out of range", id="point-mass--1"
        ),
        pytest.param(
            lambda: ApproximationCertificate((), max_deviation=0.0, epsilon=0.25, size_bound=4),
            "multiset cannot be empty",
            id="empty-certificate",
        ),
        pytest.param(
            lambda: ApproximationCertificate((0,), max_deviation=0.0, epsilon=0.0, size_bound=4),
            "epsilon must be positive",
            id="certificate-at-epsilon-0",
        ),
        pytest.param(
            lambda: approximation_size_bound(1, 0.0),
            r"epsilon must be in \(0, 1\]",
            id="bound-at-epsilon-0",
        ),
        pytest.param(
            lambda: approximation_size_bound(1, 1.5),
            r"epsilon must be in \(0, 1\]",
            id="bound-at-epsilon-1.5",
        ),
        pytest.param(
            lambda: approximation_size_bound(-1, 0.5),
            "dimension must be nonnegative",
            id="bound-at-dimension--1",
        ),
        pytest.param(
            lambda: approximation_deviation(
                intervals_fixture(4), ProbabilityVector.uniform(4), [0, 4]
            ),
            "multiset points out of range",
            id="deviation-past-the-domain",
        ),
        pytest.param(
            lambda: approximation_deviation(
                intervals_fixture(4), ProbabilityVector.uniform(4), [-1, 2]
            ),
            "multiset points out of range",
            id="deviation-below-the-domain",
        ),
    ],
)
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_mu_length_checked():
    c = intervals_fixture(4)
    with pytest.raises(ValueError):
        epsilon_approximation(c, ProbabilityVector.uniform(5), 0.5, seed=0)


# --- sparsification ------------------------------------------------------------


def test_sparsify_point_mass_mixture():
    c = intervals_fixture(8)
    p = ProbabilityVector.point_mass(len(c), 11)
    cert = sparsify_mixture(c, p, 0.125, seed=3)
    assert set(cert.multiset) == {11}
    assert cert.max_deviation == 0.0


def test_sparsify_uniform_mixture_eighth():
    c = intervals_fixture(10)
    p = ProbabilityVector.uniform(len(c))
    cert = sparsify_mixture(c, p, 0.125, seed=11)
    d_star = vc_dimension(dual_class(c))
    assert len(cert.multiset) <= approximation_size_bound(d_star, 0.125)
    assert cert.size_bound == approximation_size_bound(d_star, 0.125)
    dev = sparsification_deviation(c, p, cert.multiset)
    assert dev == cert.max_deviation <= 0.125


def test_sparsify_draws_only_from_support():
    c = intervals_fixture(10)
    w = np.zeros(len(c))
    w[[4, 9, 17]] = [0.5, 0.25, 0.25]
    cert = sparsify_mixture(c, ProbabilityVector(w), 0.125, seed=2)
    assert set(cert.multiset) <= {4, 9, 17}


def test_sparsify_determinism():
    c = intervals_fixture(10)
    p = ProbabilityVector.uniform(len(c))
    assert sparsify_mixture(c, p, 0.25, seed=9) == sparsify_mixture(c, p, 0.25, seed=9)


def test_sparsification_is_approximation_on_the_dual_class():
    # one deviation formula: the mixture's mass at each distinct point is the
    # dual class's true mass, and the drawn concepts are its drawn points
    c = generators.intervals(6)
    w = np.zeros(len(c))
    w[[15, 3, 1, 19, 14]] = np.array([6, 2, 5, 3, 7]) / 23
    p = ProbabilityVector(w)
    multiset = [1, 15, 14, 3]
    assert sparsification_deviation(c, p, multiset) == approximation_deviation(
        dual_class(c), p, multiset
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparsify_returns_the_first_certified_size(data):
    n = data.draw(st.integers(min_value=1, max_value=6), label="domain size")
    rows = data.draw(
        st.lists(st.integers(0, 2**n - 1), min_size=2, max_size=12, unique=True), label="rows"
    )
    c = ConceptClass.from_row_ints(n, rows)
    raw = data.draw(
        st.lists(st.integers(0, 8), min_size=len(c), max_size=len(c)).filter(any), label="weights"
    )
    p = ProbabilityVector(np.array(raw) / sum(raw))
    epsilon = data.draw(st.sampled_from([0.5, 0.25, 0.125]), label="epsilon")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    cert = sparsify_mixture(c, p, epsilon, seed=seed)
    multiset = cert.multiset
    ceiling = approximation_size_bound(vc_dimension(dual_class(c)), epsilon)
    assert cert.size_bound == ceiling
    size = len(multiset)
    # a power of two below the ceiling, or the ceiling
    assert size == ceiling or (size < ceiling and size & (size - 1) == 0)
    assert sparsification_deviation(c, p, multiset) == cert.max_deviation <= epsilon
    assert sparsify_mixture(c, p, epsilon, seed=seed) == cert


@st.composite
def mixture_cases(draw):
    """A small class, a mixture over its concepts, an epsilon and a seed."""
    n = draw(st.integers(min_value=1, max_value=6), label="domain size")
    rows = draw(
        st.lists(st.integers(0, 2**n - 1), min_size=2, max_size=12, unique=True), label="rows"
    )
    c = ConceptClass.from_row_ints(n, rows)
    raw = draw(
        st.lists(st.integers(0, 8), min_size=len(c), max_size=len(c)).filter(any), label="weights"
    )
    p = ProbabilityVector(np.array(raw) / sum(raw))
    epsilon = draw(st.sampled_from([0.5, 0.25, 0.125]), label="epsilon")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return c, p, epsilon, seed


@settings(max_examples=50, deadline=None)
@given(mixture_cases())
def test_sparsify_is_epsilon_approximation_on_the_dual_class(case):
    c, p, epsilon, seed = case
    assert sparsify_mixture(c, p, epsilon, seed) == epsilon_approximation(
        dual_class(c), p, epsilon, seed
    )


def _golden_weights(size, shift):
    """Fixed uneven weights with some zeros: (3i + shift) mod 7, normalised."""
    raw = (3 * np.arange(size) + shift) % 7
    return ProbabilityVector(raw / raw.sum())


def test_golden_sampler_bytes():
    # one digest over fixed ε-approximations, sparsifications and sparse
    # equilibria: the draws, their exhaustive deviations to the bit and the
    # ceilings; any change to the sampler that moves one of them fails here
    classes = [
        generators.intervals(6),
        generators.k_interval_unions(6, 2),
        generators.full_cube(4),
        generators.halfspaces_grid(3, 2),
        generators.random_vc_capped(8, 2, 24, seed=1),
    ]
    digest = hashlib.sha256()

    def add(cert):
        digest.update(repr((cert.multiset, cert.max_deviation.hex(), cert.size_bound)).encode())

    for index, c in enumerate(classes):
        for epsilon in (0.25, 0.125):
            for seed in (0, 1):
                add(epsilon_approximation(c, _golden_weights(c.domain_size, index), epsilon, seed))
                add(sparsify_mixture(c, _golden_weights(len(c), index + 1), epsilon, seed))
    rng = np.random.default_rng(24)
    games = [rng.integers(0, 2, size=rng.integers(1, 8, size=2)) for _ in range(20)]
    for index, entries in enumerate(games + [np.tile(g, (2, 3)) for g in games]):
        eq = sparse_epsilon_nash(entries, epsilon=(0.3, 0.25)[index % 2], seed=index)
        fields = (
            eq.row_multiset,
            eq.col_multiset,
            eq.epsilon.hex(),
            eq.certified_exploitability.hex(),
            eq.value_estimate.hex(),
            eq.row_support_bound,
            eq.col_support_bound,
            eq.row_test_dimension,
            eq.col_test_dimension,
        )
        digest.update(repr(fields).encode())
    assert digest.hexdigest() == (
        "15a3ddff92c540b28733ea66c86d4578917691226e59993e220d20bd31d80d7e"
    )
