"""Generalization experiment: does compression size predict sample size?

A scheme of size k applied to samples of the size given by
``required_sample_size(k, epsilon, delta)`` should produce a reconstruction
whose true error exceeds epsilon in at most a delta fraction of trials.  The
experiment measures k conservatively from pilot compressions (kernel points
plus every encoded side-information bit), then runs fresh trials and scores
each reconstruction's error exactly against the target concept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concepts import ConceptClass, LabeledSample
from .scheme import compress, reconstruct
from .seeding import child_seeds, make_rng

__all__ = [
    "required_sample_size",
    "ExperimentReport",
    "generalization_experiment",
]


def _check_accuracy(epsilon: float, delta: float) -> None:
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")


def required_sample_size(compression_size: int, epsilon: float, delta: float) -> int:
    """Sample size at which a size-k compression generalizes: with this many
    i.i.d. draws, the reconstruction errs more than epsilon with probability
    at most delta.  ceil(8 (k lg(2/eps) + lg(1/delta)) / eps), logs base 2."""
    if compression_size < 0:
        raise ValueError("compression size cannot be negative")
    _check_accuracy(epsilon, delta)
    needed = 8 * (compression_size * math.log2(2 / epsilon) + math.log2(1 / delta)) / epsilon
    return math.ceil(needed)


@dataclass(frozen=True)
class ExperimentReport:
    epsilon: float
    delta: float
    trials: int
    required_size: int
    measured_compression_size: int  # pilot max of kernel + side-info bits
    kernel_only_size: int  # pilot max of kernel points alone
    max_trial_scheme_size: int
    failures: int
    failure_fraction: float
    mean_error: float
    max_error: float
    seed: int

    @property
    def within_tolerance(self) -> bool:
        return self.failure_fraction <= self.delta


def generalization_experiment(
    concept_class: ConceptClass,
    *,
    epsilon: float = 1 / 3,
    delta: float = 1 / 3,
    trials: int = 200,
    seed: int = 0,
    pilot_runs: int = 32,
) -> ExperimentReport:
    """Compress samples of the derived size and measure true reconstruction
    error exactly.

    Pilot phase: compress `pilot_runs` full-support samples and take
    the largest realized scheme size as k.  Trial phase: for each trial,
    draw required_sample_size(k) points i.i.d. and uniformly from the domain,
    label them with a target concept (rotating through
    the class), compress the distinct labeled points — duplicates cannot
    change the output — reconstruct, and integrate the error over the whole
    domain.  A trial fails when its error exceeds epsilon.  Epsilon or
    delta outside (0, 1) raises ValueError before any compression runs.
    """
    if trials < 1 or pilot_runs < 1:
        raise ValueError("trials and pilot_runs must be positive")
    _check_accuracy(epsilon, delta)
    n = concept_class.domain_size
    m = len(concept_class.rows)
    weights = np.full(n, 1.0 / n)

    scheme_sizes, kernel_sizes = [], []
    for run in range(pilot_runs):
        concept = run % m
        sample = LabeledSample.from_concept(concept_class, concept, range(n))
        _, report = compress(concept_class, sample)
        scheme_sizes.append(report.scheme_size)
        kernel_sizes.append(report.kernel_size)
    measured = max(scheme_sizes)
    required = required_sample_size(measured, epsilon, delta)

    trial_seed = child_seeds(seed, 2)[1]
    rng = make_rng(trial_seed)
    failures = 0
    errors = []
    max_trial_size = 0
    for trial in range(trials):
        concept = trial % m
        target_row = concept_class.matrix[concept]
        points = np.unique(rng.choice(n, size=required, p=weights))
        sample = LabeledSample.from_concept(concept_class, concept, points.tolist())
        compressed, report = compress(concept_class, sample)
        max_trial_size = max(max_trial_size, report.scheme_size)
        decoded = reconstruct(concept_class, compressed)
        error = float(weights[decoded != target_row].sum())
        errors.append(error)
        if error > epsilon:
            failures += 1

    return ExperimentReport(
        epsilon=float(epsilon),
        delta=float(delta),
        trials=trials,
        required_size=required,
        measured_compression_size=measured,
        kernel_only_size=max(kernel_sizes),
        max_trial_scheme_size=max_trial_size,
        failures=failures,
        failure_fraction=failures / trials,
        mean_error=float(np.mean(errors)),
        max_error=float(np.max(errors)),
        seed=seed,
    )
