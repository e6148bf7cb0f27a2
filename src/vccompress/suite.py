"""The verification suite: nine acceptance criteria run end to end.

Each criterion is a deterministic function of the suite seed and returns a
pass/fail verdict plus the measurements that justify it.  Nothing here trusts
a theoretical bound on its own: sizes, deviations, majorities, and values are
all re-measured on concrete runs.

Criteria:
 1. verified round trips (labels, hypotheses, size bound) — exhaustive over
    small classes, randomized over larger
 2. compression size independent of sample length
 3. dual VC dimension below 2^(d+1)
 4. epsilon-approximation sizes within ceil(16 (d+1) / eps^2)
 5. exact and iterative game solvers agree (cyclic value exactly 2/3)
 6. sparse equilibrium supports unaffected by duplicate padding
 7. every point of intervals(9)'s full samples wins a strict integer
    majority (criteria 1 and 2 report the least margin of their own runs)
 8. generalization: failure fraction within delta (+0.1 sampling slack)
 9. codec round trips, detection of every single-byte corruption, and a
    valid but hostile container

`run_suite` times every criterion and applies the runtime caps of criteria 1,
5 and 8.
"""

from __future__ import annotations

import functools
import math
import operator
import time
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
    _encode_side_info,
    decode_side_info,
    deserialize_compressed,
    reconstruct,
    scheme_size_bound,
    serialize_compressed,
    verify_round_trip,
)
from .seeding import child_seeds, make_rng

__all__ = ["CRITERIA", "run_suite"]

# Wall-clock caps in seconds, applied by run_suite to the criteria named here.
_RUNTIME_CAPS = {1: 300.0, 5: 60.0, 8: 120.0}


def _criterion_round_trips(seed: int):
    """Every realizable sample must verify: its labels reconstruct exactly,
    the decompressor relearns the voted hypotheses, and the size keeps its
    bound.  Exhaustive over all (concept, point-subset) pairs for small
    classes, and over seeded random samples for two larger ones."""
    seeds = child_seeds(seed, 4)
    rng = make_rng(seed)

    def every_sample(cls):
        n = cls.domain_size
        for concept in range(len(cls.rows)):
            for pattern in range(1 << n):
                points = [x for x in range(n) if (pattern >> x) & 1]
                yield LabeledSample.from_concept(cls, concept, points)

    def random_samples(cls):
        for _ in range(1000):
            concept = int(rng.integers(0, len(cls.rows)))
            size = int(rng.integers(1, 31))
            points = rng.integers(0, cls.domain_size, size=size).tolist()
            yield LabeledSample.from_concept(cls, concept, points)

    roster = [
        ("intervals-5", intervals(5), every_sample),
        ("interval-pairs-5", k_interval_unions(5, 2), every_sample),
        ("full-cube-3", full_cube(3), every_sample),
        ("halfspaces-2x2", halfspaces_grid(2, 2, count=32, seed=int(seeds[0])), every_sample),
        ("random-vc2-7", random_vc_capped(7, 2, 24, seed=int(seeds[1])), every_sample),
        ("singleton-6", random_vc_capped(6, 0, 1, seed=int(seeds[2])), every_sample),
        ("intervals-8", intervals(8), every_sample),
        ("intervals-10", intervals(10), random_samples),
        ("halfspaces-5x5", halfspaces_grid(5, 2, count=64, seed=int(seeds[3])), random_samples),
    ]
    total = 0
    mismatched = 0
    least_margin = math.inf
    all_verified = True
    per_class = {}
    for name, cls, samples in roster:
        runs = 0
        for sample in samples(cls):
            result = verify_round_trip(cls, sample)
            mismatched += len(result.mismatches)
            least_margin = min(least_margin, result.report.known_details["min_majority_margin"])
            all_verified = all_verified and result.passed
            runs += 1
        per_class[name] = runs
        total += runs

    return all_verified, {
        "compressions": total,
        "mismatched_points": mismatched,
        "min_margin": least_margin,
        "per_class": per_class,
    }


def _criterion_size_independence(seed: int):
    """Compression size must be governed by the class, not the sample: one
    ceiling, the bound at the class's own d and d* and the budget max(1, d),
    serves every sample-length tier.  Every run verifies (labels,
    hypotheses, size within the bound at its own budget), certifies at a
    budget of at most max(1, d), and keeps its size within that ceiling."""
    cls = intervals(10)
    d = vc_dimension(cls)
    ceiling = scheme_size_bound(d, vc_dimension(dual_class(cls)), max(1, d))
    tiers = (10, 100, 1000)
    rng = make_rng(seed)
    measured = {}
    budgets = set()
    least_margin = math.inf
    within = True
    all_verified = True
    for tier in tiers:
        max_scheme = 0
        max_kernel = 0
        for _ in range(100):
            concept = int(rng.integers(0, len(cls.rows)))
            points = rng.integers(0, cls.domain_size, size=tier).tolist()
            sample = LabeledSample.from_concept(cls, concept, points)
            result = verify_round_trip(cls, sample)
            report = result.report
            budgets.add(report.subset_budget)
            least_margin = min(least_margin, report.known_details["min_majority_margin"])
            within = within and report.scheme_size <= ceiling
            all_verified = all_verified and result.passed
            max_scheme = max(max_scheme, report.scheme_size)
            max_kernel = max(max_kernel, report.kernel_size)
        measured[str(tier)] = {"max_scheme_size": max_scheme, "max_kernel_size": max_kernel}
    return all_verified and within and max(budgets) <= max(1, d), {
        "tiers": measured,
        "shared_bound": [ceiling],
        "subset_budgets": sorted(budgets),
        "min_margin": least_margin,
        "all_within_bound": within,
    }


def _criterion_dual_bound(seed: int):
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


def _criterion_approximation_sizes(seed: int):
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


def _criterion_game_solvers(seed: int):
    """Exact simplex and multiplicative weights agree within 0.01 on fifty
    random matrices; the cyclic 3x3 game solves to exactly 2/3; the exact
    solutions have (float) exploitability below 1e-9."""
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
    return cyclic_ok and agreements == 50 and worst_exploit <= 1e-9, {
        "cyclic_value": str(cyclic.exact_value),
        "matrices": 50,
        "agreements_within_0.01": agreements,
        "worst_value_gap": worst_gap,
        "worst_exact_exploitability": worst_exploit,
    }


def _criterion_sparse_supports(seed: int):
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


def _criterion_majority_margins(seed: int):
    """Every point of every concept of intervals(9), sampled on all nine
    points, must win its vote by a strict majority: votes for its label
    minus votes against, counted in ints, at least 1."""
    cls = intervals(9)
    margins = []
    for concept in range(len(cls.rows)):
        result = verify_round_trip(cls, LabeledSample.from_concept(cls, concept, range(9)))
        margins.append(result.report.known_details["min_majority_margin"])
    return min(margins) >= 1, {"compressions_observed": len(margins), "min_margin": min(margins)}


def _criterion_generalization(seed: int):
    """Samples of the derived size generalize: at eps = delta = 1/3 over 200
    trials, the failure fraction stays within delta plus 0.1 of sampling
    slack."""
    report = generalization_experiment(
        intervals(10),
        epsilon=1 / 3,
        delta=1 / 3,
        trials=200,
        seed=seed,
        pilot_runs=16,
    )
    return report.failure_fraction <= 1 / 3 + 0.1, {
        "trials": report.trials,
        "required_sample_size": report.required_size,
        "measured_compression_size": report.measured_compression_size,
        "kernel_only_size": report.kernel_only_size,
        "failures": report.failures,
        "failure_fraction": report.failure_fraction,
        "mean_error": report.mean_error,
        "max_error": report.max_error,
        "tolerance": 1 / 3 + 0.1,
    }


def _random_runs(rng, kernel_size: int) -> tuple:
    """Canonical runs over ``kernel_size`` kernel positions: one to five
    distinct subsets that cover the kernel, with counts of up to 20 bits
    divided by their gcd (so a lone run is the whole kernel, voting once)."""
    full = (1 << kernel_size) - 1
    run_count = min(int(rng.integers(1, 6)), full + 1)
    masks = []
    while len(masks) < run_count:
        mask = int.from_bytes(rng.bytes(8), "little") & full
        if mask not in masks:
            masks.append(mask)
    # the uncovered positions are in no subset, so adding them to one keeps
    # the subsets distinct
    masks[-1] |= full & ~functools.reduce(operator.or_, masks)
    counts = [int(rng.integers(1, 1 << int(rng.integers(1, 21)))) for _ in masks]
    g = math.gcd(*counts)
    return tuple((mask, count // g) for mask, count in zip(masks, counts))


def _random_compressed_sample(rng) -> CompressedSample:
    domain = int(rng.integers(8, 41))
    kernel_size = int(rng.integers(0, min(11, domain + 1)))
    points = tuple(sorted(rng.choice(domain, size=kernel_size, replace=False).tolist()))
    labels = sum(int(b) << i for i, b in enumerate(rng.integers(0, 2, size=kernel_size)))
    return CompressedSample(domain, points, labels, _random_runs(rng, kernel_size))


def _criterion_codec(seed: int):
    """Codec round trips never lose information and corruption never passes
    silently: random side info and containers decode back equal; every
    single-byte corruption raises (the container's CRC covers every byte
    after the magic); deletions, truncations and appended bytes either
    raise or decode to something observably different.  A valid container
    that casts 2^32 - 1 votes in two runs round-trips and reconstructs the
    voted row."""
    rng = make_rng(seed)
    failures = {
        "side_info_round_trip": 0,
        "container_round_trip": 0,
        "silent_alias": 0,
        "undetected_damage": 0,
        "hostile_container": 0,
    }

    for _ in range(10_000):
        kernel_size = int(rng.integers(0, 65))
        runs = _random_runs(rng, kernel_size)
        if decode_side_info(_encode_side_info(runs, kernel_size), kernel_size) != runs:
            failures["side_info_round_trip"] += 1

    originals = []
    for _ in range(500):
        sample = _random_compressed_sample(rng)
        blob = serialize_compressed(sample)
        originals.append((sample, blob))
        if deserialize_compressed(blob) != sample:
            failures["container_round_trip"] += 1

    def check_mutant(original, mutant_bytes, single_byte):
        try:
            decoded = deserialize_compressed(bytes(mutant_bytes))
        except (DecodeError, IntegrityError):
            return
        if single_byte:
            failures["undetected_damage"] += 1
        if decoded == original:
            failures["silent_alias"] += 1

    exhaustive = 0
    for sample, blob in originals[:16]:
        for index in range(len(blob)):
            keep = blob[index]
            for value in range(256):
                if value == keep:
                    continue
                mutant = bytearray(blob)
                mutant[index] = value
                check_mutant(sample, mutant, True)
                exhaustive += 1

    spot = 0
    for sample, blob in originals[16:216]:
        for _ in range(3):
            index = int(rng.integers(0, len(blob)))
            flip = int(rng.integers(1, 256))
            mutant = bytearray(blob)
            mutant[index] ^= flip
            check_mutant(sample, mutant, True)
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

    # valid but hostile: concept 1's subset, mask 1, casts 2^31 votes and the
    # empty subset, concept 0's, 2^31 - 1; it must survive its round trip
    # and vote concept 1's row
    pair = ConceptClass.from_row_ints(2, [0, 0b10])
    hostile = CompressedSample(2, (0,), 1, ((1, 1 << 31), (0, (1 << 31) - 1)))
    if deserialize_compressed(serialize_compressed(hostile)) != hostile:
        failures["hostile_container"] += 1
    if not np.array_equal(reconstruct(pair, hostile), pair.matrix[1]):
        failures["hostile_container"] += 1

    passed = not any(failures.values())
    return passed, {
        "round_trips": 10_500,
        "hostile_subsets": hostile.subset_count,
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
    numbers = {number for number, _, _ in CRITERIA}
    wanted = numbers if criteria is None else set(criteria)
    if not wanted:
        raise ConfigError("no criteria selected")
    unknown = wanted - numbers
    if unknown:
        raise ConfigError(f"unknown criteria: {sorted(unknown)}")
    results = []
    for number, name, fn in CRITERIA:
        if number not in wanted:
            continue
        start = time.perf_counter()
        passed, details = fn(seed)
        runtime = time.perf_counter() - start
        cap = _RUNTIME_CAPS.get(number)
        if cap is not None:
            passed = passed and runtime <= cap
            details["runtime_cap_seconds"] = cap
        results.append(
            {
                "number": number,
                "name": name,
                "passed": passed,
                "runtime_seconds": round(runtime, 3),
                "details": details,
            }
        )
        if echo:
            verdict = "PASS" if passed else "FAIL"
            print(f"{verdict} criterion {number}: {name} ({runtime:.2f}s)")
    return {
        "seed": seed,
        "all_passed": all(r["passed"] for r in results),
        "results": results,
    }
