"""The verification suite: nine acceptance criteria run end to end.

Each criterion is a deterministic function of the suite seed and returns a
pass/fail verdict plus the measurements that justify it.  Nothing here trusts
a theoretical bound on its own: sizes, deviations, majorities, and values are
all re-measured on concrete runs.

Criteria:
 1. exact round trips — exhaustive over small classes, randomized over larger
 2. compression size independent of sample length
 3. dual VC dimension below 2^(d+1)
 4. epsilon-approximation sizes within ceil(16 (d+1) / eps^2)
 5. exact and iterative game solvers agree (cyclic value exactly 2/3)
 6. sparse equilibrium supports unaffected by duplicate padding
 7. every compressed point wins a strict integer majority
 8. generalization: failure fraction within delta (+0.1 sampling slack)
 9. codec round trips and corruption detection
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .approx import (
    ProbabilityVector,
    approximation_deviation,
    approximation_size_bound,
    epsilon_approximation,
)
from .concepts import ConceptClass, LabeledSample, dual_class, vc_dimension
from .errors import ConfigError, DecodeError, IntegrityError
from .experiment import generalization_experiment
from .game import solve_exact, solve_mw, sparse_epsilon_nash
from .generators import (
    full_cube,
    halfspaces_grid,
    intervals,
    k_interval_unions,
    random_vc_capped,
)
from .scheme import (
    CompressedSample,
    compress,
    decode_side_info,
    deserialize_compressed,
    encode_side_info,
    reconstruct,
    scheme_size_bound,
    serialize_compressed,
)
from .seeding import child_seeds, make_rng

__all__ = ["CRITERIA", "CriterionResult", "run_suite"]


@dataclass
class _SuiteLog:
    """State shared across criteria within one suite run."""

    majority_margins: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_seconds: float
    details: dict


def _round_trip(concept_class, sample, seed, log) -> int:
    compressed, report = compress(concept_class, sample, seed)
    decoded = reconstruct(concept_class, compressed)
    mismatches = sum(
        1 for point, label in sample.label_items if int(decoded[point]) != label
    )
    log.majority_margins.append(report.details["min_majority_margin"])
    return mismatches


def _criterion_round_trips(seed: int, log: _SuiteLog):
    """Every realizable sample must reconstruct exactly: exhaustively over
    all (concept, point-subset) pairs for small classes, and over seeded
    random samples for two larger ones.  Runtime capped at five minutes."""
    start = time.perf_counter()
    seeds = child_seeds(seed, 4)
    exhaustive_roster = [
        ("intervals-5", intervals(5)),
        ("interval-pairs-5", k_interval_unions(5, 2)),
        ("full-cube-3", full_cube(3)),
        ("halfspaces-2x2", halfspaces_grid(2, 2, count=32, seed=int(seeds[0]))),
        ("random-vc2-7", random_vc_capped(7, 2, 24, seed=int(seeds[1]))),
        ("singleton-6", random_vc_capped(6, 0, 1, seed=int(seeds[2]))),
        ("intervals-8", intervals(8)),
    ]
    total = 0
    mismatched = 0
    per_class = {}
    for name, cls in exhaustive_roster:
        n = cls.domain_size
        runs = 0
        for concept in range(len(cls.rows)):
            for pattern in range(1 << n):
                points = [x for x in range(n) if (pattern >> x) & 1]
                sample = LabeledSample.from_concept(cls, concept, points)
                mismatched += _round_trip(cls, sample, seed=concept * 31 + pattern, log=log)
                runs += 1
        per_class[name] = runs
        total += runs

    random_roster = [
        ("intervals-10", intervals(10)),
        ("halfspaces-5x5", halfspaces_grid(5, 2, count=64, seed=int(seeds[3]))),
    ]
    rng = make_rng(seed)
    for name, cls in random_roster:
        n = cls.domain_size
        runs = 0
        for trial in range(1000):
            concept = int(rng.integers(0, len(cls.rows)))
            size = int(rng.integers(1, 31))
            points = rng.integers(0, n, size=size).tolist()
            sample = LabeledSample.from_concept(cls, concept, points)
            mismatched += _round_trip(cls, sample, seed=trial, log=log)
            runs += 1
        per_class[name] = runs
        total += runs

    runtime = time.perf_counter() - start
    passed = mismatched == 0 and runtime <= 300.0
    return passed, {
        "compressions": total,
        "mismatched_points": mismatched,
        "per_class": per_class,
        "runtime_cap_seconds": 300.0,
    }


def _criterion_size_independence(seed: int, log: _SuiteLog):
    """Compression size must be governed by the class, not the sample: the
    documented ceiling is identical across sample-length tiers and every
    measured size stays inside it."""
    cls = intervals(10)
    tiers = (10, 100, 1000)
    rng = make_rng(seed)
    measured = {}
    bounds = set()
    budgets = set()
    within = True
    for tier in tiers:
        max_scheme = 0
        max_kernel = 0
        for trial in range(100):
            concept = int(rng.integers(0, len(cls.rows)))
            points = rng.integers(0, cls.domain_size, size=tier).tolist()
            sample = LabeledSample.from_concept(cls, concept, points)
            _, report = compress(cls, sample, seed=trial)
            log.majority_margins.append(report.details["min_majority_margin"])
            bound = scheme_size_bound(
                report.details["vc_dimension"],
                report.details["dual_vc_dimension"],
                report.subset_budget,
            )
            bounds.add(bound)
            budgets.add(report.subset_budget)
            within = within and report.scheme_size <= bound
            max_scheme = max(max_scheme, report.scheme_size)
            max_kernel = max(max_kernel, report.kernel_size)
        measured[str(tier)] = {"max_scheme_size": max_scheme, "max_kernel_size": max_kernel}
    passed = len(bounds) == 1 and len(budgets) == 1 and within
    return passed, {
        "tiers": measured,
        "shared_bound": sorted(bounds),
        "subset_budgets": sorted(budgets),
        "all_within_bound": within,
    }


def _criterion_dual_bound(seed: int, log: _SuiteLog):
    """The dual dimension stays below 2^(d+1) on every roster class, with
    both dimensions computed by exhaustive search."""
    seeds = child_seeds(seed, 3)
    roster = [
        ("intervals-6", intervals(6)),
        ("intervals-10", intervals(10)),
        ("intervals-12", intervals(12)),
        ("interval-pairs-8", k_interval_unions(8, 2)),
        ("full-cube-3", full_cube(3)),
        ("full-cube-4", full_cube(4)),
        ("halfspaces-3x3", halfspaces_grid(3, 2, count=64, seed=int(seeds[0]))),
        ("random-vc2-10", random_vc_capped(10, 2, 40, seed=int(seeds[1]))),
        ("random-vc3-12", random_vc_capped(12, 3, 60, seed=int(seeds[2]))),
    ]
    rows = {}
    passed = True
    for name, cls in roster:
        d = vc_dimension(cls)
        d_star = vc_dimension(dual_class(cls))
        ok = d_star < 2 ** (d + 1)
        passed = passed and ok
        rows[name] = {"vc": d, "dual_vc": d_star, "bound": 2 ** (d + 1), "ok": ok}
    return passed, {"classes": rows}


def _criterion_approximation_sizes(seed: int, log: _SuiteLog):
    """Certified approximations at eps 1/4 and 1/8 stay within the
    ceil(16 (d+1)/eps^2) size ceiling and their deviations re-verify."""
    seeds = child_seeds(seed, 8)
    classes = [
        ("intervals-10", intervals(10)),
        ("full-cube-3", full_cube(3)),
        ("halfspaces-4x4", halfspaces_grid(4, 2, count=64, seed=int(seeds[0]))),
    ]
    checks = 0
    passed = True
    worst = 0.0
    for index, (name, cls) in enumerate(classes):
        d = vc_dimension(cls)
        n = cls.domain_size
        rng = make_rng(int(seeds[1]) + index)
        mixtures = [
            ProbabilityVector.uniform(n),
            ProbabilityVector.point_mass(n, int(rng.integers(0, n))),
        ]
        raw = rng.random(n)
        mixtures.append(ProbabilityVector(raw / raw.sum()))
        for epsilon in (0.25, 0.125):
            ceiling = approximation_size_bound(d, epsilon)
            for which, mu in enumerate(mixtures):
                cert = epsilon_approximation(
                    cls, mu, epsilon, seed=int(seeds[2]) + 17 * which + index
                )
                redone = approximation_deviation(cls, mu, cert.multiset)
                ok = (
                    len(cert.multiset) <= ceiling
                    and cert.max_deviation <= epsilon
                    and redone == cert.max_deviation
                )
                worst = max(worst, cert.max_deviation)
                passed = passed and ok
                checks += 1
    return passed, {"checks": checks, "worst_deviation": worst}


def _criterion_game_solvers(seed: int, log: _SuiteLog):
    """Exact simplex and multiplicative weights agree within 0.01 on fifty
    random matrices; the cyclic 3x3 game solves to exactly 2/3; the exact
    solutions have (float) exploitability below 1e-9.  Runtime cap: one
    minute."""
    start = time.perf_counter()
    cyclic = solve_exact([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    cyclic_ok = cyclic.exact_value == Fraction(2, 3)
    rng = make_rng(seed)
    worst_gap = 0.0
    worst_exploit = 0.0
    agreements = 0
    for _ in range(50):
        rows = int(rng.integers(2, 51))
        cols = int(rng.integers(2, 51))
        entries = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        exact = solve_exact(entries)
        approx = solve_mw(entries, target_exploitability=0.0075)
        gap = abs(exact.value_estimate - approx.value_estimate)
        worst_gap = max(worst_gap, gap)
        worst_exploit = max(worst_exploit, exact.exploitability)
        if gap <= 0.01:
            agreements += 1
    runtime = time.perf_counter() - start
    passed = cyclic_ok and agreements == 50 and worst_exploit <= 1e-9 and runtime <= 60.0
    return passed, {
        "cyclic_value": str(cyclic.exact_value),
        "matrices": 50,
        "agreements_within_0.01": agreements,
        "worst_value_gap": worst_gap,
        "worst_exact_exploitability": worst_exploit,
        "runtime_cap_seconds": 60.0,
    }


def _criterion_sparse_supports(seed: int, log: _SuiteLog):
    """Sparse equilibrium supports are a function of the strategy structure:
    padding a matrix with duplicated rows and columns changes neither the
    support ceilings nor the drawn multisets."""
    seeds = child_seeds(seed, 4)
    rng = make_rng(int(seeds[0]))
    matrices = [
        ("intervals-8-rows", intervals(8).matrix),
        ("interval-pairs-5-rows", k_interval_unions(5, 2).matrix),
        ("random-20x12", rng.integers(0, 2, size=(20, 12)).astype(np.uint8)),
    ]
    epsilon = 0.125
    rows = {}
    passed = True
    for index, (name, matrix) in enumerate(matrices):
        base = sparse_epsilon_nash(matrix, epsilon, seed=int(seeds[1]) + index)
        padded_matrix = np.tile(matrix, (10, 2))
        padded = sparse_epsilon_nash(padded_matrix, epsilon, seed=int(seeds[1]) + index)
        ok = (
            base.row_support_bound == padded.row_support_bound
            and base.col_support_bound == padded.col_support_bound
            and len(base.row_multiset) == len(padded.row_multiset)
            and len(base.col_multiset) == len(padded.col_multiset)
            and base.certified_exploitability <= epsilon
            and padded.certified_exploitability <= epsilon
        )
        passed = passed and ok
        rows[name] = {
            "row_support_bound": base.row_support_bound,
            "col_support_bound": base.col_support_bound,
            "row_multiset_size": len(base.row_multiset),
            "col_multiset_size": len(base.col_multiset),
            "certified": base.certified_exploitability,
            "padded_certified": padded.certified_exploitability,
            "ok": ok,
        }
    return passed, {"epsilon": epsilon, "matrices": rows}


def _criterion_majority_margins(seed: int, log: _SuiteLog):
    """Every point of every compressed sample in this suite run must have won
    its vote by a strict integer margin (an odd 2*agree - total >= 1)."""
    if not log.majority_margins:
        cls = intervals(9)
        for concept in range(len(cls.rows)):
            sample = LabeledSample.from_concept(cls, concept, range(9))
            _round_trip(cls, sample, seed=concept, log=log)
    margins = log.majority_margins
    integral = all(isinstance(m, int) for m in margins)
    passed = integral and min(margins) >= 1
    return passed, {
        "compressions_observed": len(margins),
        "min_margin": min(margins),
        "all_integer": integral,
    }


def _criterion_generalization(seed: int, log: _SuiteLog):
    """Samples of the derived size generalize: at eps = delta = 1/3 over 200
    trials, the failure fraction stays within delta plus 0.1 of sampling
    slack.  Runtime cap: two minutes."""
    start = time.perf_counter()
    report = generalization_experiment(
        intervals(10),
        epsilon=1 / 3,
        delta=1 / 3,
        trials=200,
        seed=seed,
        pilot_runs=16,
    )
    runtime = time.perf_counter() - start
    passed = report.failure_fraction <= 1 / 3 + 0.1 and runtime <= 120.0
    return passed, {
        "trials": report.trials,
        "required_sample_size": report.required_size,
        "measured_compression_size": report.measured_compression_size,
        "kernel_only_size": report.kernel_only_size,
        "failures": report.failures,
        "failure_fraction": report.failure_fraction,
        "mean_error": report.mean_error,
        "max_error": report.max_error,
        "tolerance": 1 / 3 + 0.1,
        "runtime_cap_seconds": 120.0,
    }


def _random_compressed_sample(rng) -> CompressedSample:
    domain = int(rng.integers(8, 41))
    kernel_size = int(rng.integers(0, min(11, domain + 1)))
    points = tuple(sorted(rng.choice(domain, size=kernel_size, replace=False).tolist()))
    labels = tuple(int(b) for b in rng.integers(0, 2, size=kernel_size))
    subset_count = int(rng.integers(1, 6))
    subsets = []
    for _ in range(subset_count):
        if kernel_size:
            take = int(rng.integers(0, kernel_size + 1))
            subsets.append(set(rng.choice(kernel_size, size=take, replace=False).tolist()))
        else:
            subsets.append(set())
    covered = set().union(*subsets)
    subsets[-1] |= set(range(kernel_size)) - covered
    side = encode_side_info([tuple(sorted(s)) for s in subsets])
    return CompressedSample(domain, points, labels, side)


def _criterion_codec(seed: int, log: _SuiteLog):
    """Codec round trips never lose information and corruption never passes
    silently: random encodings decode back equal; corrupted encodings either
    raise or decode to something observably different; single-byte damage in
    the checksummed side-info region always raises."""
    rng = make_rng(seed)
    failures = {
        "side_info_round_trip": 0,
        "container_round_trip": 0,
        "silent_alias": 0,
        "undetected_side_info_damage": 0,
    }

    for _ in range(10_000):
        count = int(rng.integers(1, 7))
        subsets = []
        for _ in range(count):
            size = int(rng.integers(0, 7))
            subsets.append(tuple(sorted(rng.choice(64, size=size, replace=False).tolist())))
        if decode_side_info(encode_side_info(subsets)) != tuple(subsets):
            failures["side_info_round_trip"] += 1

    originals = []
    for _ in range(500):
        sample = _random_compressed_sample(rng)
        blob = serialize_compressed(sample)
        originals.append((sample, blob))
        if deserialize_compressed(blob) != sample:
            failures["container_round_trip"] += 1

    def check_mutant(original, mutant_bytes, in_side_region):
        try:
            decoded = deserialize_compressed(bytes(mutant_bytes))
        except (DecodeError, IntegrityError, ValueError):
            return
        if in_side_region:
            failures["undetected_side_info_damage"] += 1
        if decoded == original:
            failures["silent_alias"] += 1

    exhaustive = 0
    for sample, blob in originals[:16]:
        side_start = len(blob) - len(sample.side_info)
        for index in range(len(blob)):
            keep = blob[index]
            for value in range(256):
                if value == keep:
                    continue
                mutant = bytearray(blob)
                mutant[index] = value
                check_mutant(sample, mutant, index >= side_start)
                exhaustive += 1

    spot = 0
    for sample, blob in originals[16:216]:
        side_start = len(blob) - len(sample.side_info)
        for _ in range(3):
            index = int(rng.integers(0, len(blob)))
            flip = int(rng.integers(1, 256))
            mutant = bytearray(blob)
            mutant[index] ^= flip
            check_mutant(sample, mutant, index >= side_start)
            spot += 1
        for _ in range(3):
            index = int(rng.integers(0, len(blob)))
            mutant = bytearray(blob)
            del mutant[index]
            check_mutant(sample, mutant, False)
            spot += 1
        for cut in range(len(blob)):
            check_mutant(sample, blob[:cut], False)
            spot += 1
        check_mutant(sample, blob + b"\x00", False)
        spot += 1

    passed = not any(failures.values())
    return passed, {
        "round_trips": 10_500,
        "exhaustive_mutations": exhaustive,
        "spot_mutations": spot,
        **failures,
    }


CRITERIA = (
    (1, "round-trip-exactness", _criterion_round_trips),
    (2, "size-independent-of-sample-length", _criterion_size_independence),
    (3, "dual-dimension-bound", _criterion_dual_bound),
    (4, "approximation-sizes", _criterion_approximation_sizes),
    (5, "game-solvers", _criterion_game_solvers),
    (6, "sparse-equilibrium-supports", _criterion_sparse_supports),
    (7, "integer-majority-margins", _criterion_majority_margins),
    (8, "generalization", _criterion_generalization),
    (9, "codec-robustness", _criterion_codec),
)


def run_suite(seed: int = 0, criteria=None, echo: bool = False) -> dict:
    """Run the acceptance criteria and return a JSON-ready report.

    `criteria` selects a subset by number (all nine by default).  The report
    is reproducible for a fixed seed except for the runtime fields.
    """
    wanted = set(range(1, 10)) if criteria is None else set(criteria)
    if not wanted:
        raise ConfigError("no criteria selected")
    unknown = wanted - {number for number, _, _ in CRITERIA}
    if unknown:
        raise ConfigError(f"unknown criteria: {sorted(unknown)}")
    log = _SuiteLog()
    results = []
    for number, name, fn in CRITERIA:
        if number not in wanted:
            continue
        start = time.perf_counter()
        passed, details = fn(seed, log)
        runtime = time.perf_counter() - start
        results.append(CriterionResult(number, name, passed, runtime, details))
        if echo:
            verdict = "PASS" if passed else "FAIL"
            print(f"{verdict} criterion {number}: {name} ({runtime:.2f}s)")
    return {
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "results": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "runtime_seconds": round(r.runtime_seconds, 3),
                "details": r.details,
            }
            for r in results
        ],
    }
