import math

import pytest

from vccompress import experiment
from vccompress.experiment import generalization_experiment, required_sample_size
from vccompress.generators import intervals


def test_required_sample_size_frozen_value():
    # 8 * (5 lg 6 + lg 3) * 3 = 348.23..., so 349
    assert required_sample_size(5, 1 / 3, 1 / 3) == 349


def test_required_sample_size_matches_direct_formula():
    for k in (0, 1, 7, 40):
        for eps, delta in ((0.5, 0.1), (0.25, 0.25), (1 / 3, 1 / 3)):
            expected = math.ceil(
                8 * (k * math.log2(2 / eps) + math.log2(1 / delta)) / eps
            )
            assert required_sample_size(k, eps, delta) == expected


def test_required_sample_size_monotone():
    assert required_sample_size(6, 1 / 3, 1 / 3) > required_sample_size(5, 1 / 3, 1 / 3)
    assert required_sample_size(5, 1 / 4, 1 / 3) > required_sample_size(5, 1 / 3, 1 / 3)
    assert required_sample_size(5, 1 / 3, 1 / 4) > required_sample_size(5, 1 / 3, 1 / 3)


def test_required_sample_size_validation():
    with pytest.raises(ValueError):
        required_sample_size(-1, 1 / 3, 1 / 3)
    with pytest.raises(ValueError):
        required_sample_size(5, 0.0, 1 / 3)
    with pytest.raises(ValueError):
        required_sample_size(5, 1 / 3, 1.0)


def test_generalization_experiment_reports_consistently():
    c = intervals(8)
    report = generalization_experiment(
        c, epsilon=1 / 3, delta=1 / 3, trials=24, seed=7, pilot_runs=8
    )
    assert report.trials == 24
    assert 0 <= report.failures <= report.trials
    assert report.failure_fraction == report.failures / report.trials
    assert report.required_size == required_sample_size(
        report.measured_compression_size, 1 / 3, 1 / 3
    )
    assert report.kernel_only_size <= report.measured_compression_size
    assert 0.0 <= report.mean_error <= report.max_error <= 1.0


def test_generalization_experiment_is_deterministic():
    c = intervals(6)
    a = generalization_experiment(c, trials=10, seed=3, pilot_runs=4)
    b = generalization_experiment(c, trials=10, seed=3, pilot_runs=4)
    assert a == b


def test_generalization_experiment_validates_counts():
    c = intervals(5)
    with pytest.raises(ValueError):
        generalization_experiment(c, trials=0, seed=0)
    with pytest.raises(ValueError):
        generalization_experiment(c, trials=5, seed=0, pilot_runs=0)


@pytest.mark.parametrize(
    "epsilon, delta", [(0.0, 1 / 3), (1.0, 1 / 3), (1 / 3, 0.0), (1 / 3, 1.5), (math.nan, 1 / 3)]
)
def test_generalization_experiment_validates_accuracy_before_compressing(
    monkeypatch, epsilon, delta
):
    def must_not_compress(*args, **kwargs):
        raise AssertionError("compress ran before epsilon and delta were checked")

    monkeypatch.setattr(experiment, "compress", must_not_compress)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        generalization_experiment(intervals(5), epsilon=epsilon, delta=delta)
