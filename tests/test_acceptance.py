"""Acceptance checks, one test per criterion.

The whole battery runs off a single seeded suite execution (2.7 to 3.1 s on
a shared 2-core machine); each test prints its own PASS/FAIL line, so run with
``-s`` to see them as they land:

    pytest tests/test_acceptance.py -v -s
"""

import pytest

from vccompress.suite import run_suite

pytestmark = pytest.mark.slow

RUNTIME_CAPS = {1: 300.0, 5: 60.0, 8: 120.0}


@pytest.fixture(scope="module")
def suite_report():
    return run_suite(seed=0)


def _check(suite_report, number):
    entry = next(e for e in suite_report["results"] if e["number"] == number)
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"{status} criterion {number}: {entry['name']} ({entry['runtime_seconds']}s)")
    cap = RUNTIME_CAPS.get(number)
    if cap is not None:
        assert entry["runtime_seconds"] <= cap, (
            f"criterion {number} took {entry['runtime_seconds']}s, cap {cap}s"
        )
    assert entry["passed"], entry["details"]
    return entry


def test_criterion_1_round_trip_exactness(suite_report):
    entry = _check(suite_report, 1)
    assert entry["details"]["mismatched_points"] == 0
    assert entry["details"]["compressions"] >= 10_000


def test_criterion_2_size_independent_of_sample_length(suite_report):
    entry = _check(suite_report, 2)
    assert len(entry["details"]["shared_bound"]) == 1
    assert entry["details"]["all_within_bound"] is True


def test_criterion_3_dual_dimension_bound(suite_report):
    entry = _check(suite_report, 3)
    for record in entry["details"]["classes"].values():
        assert record["dual_vc"] < 2 ** (record["vc"] + 1)


def test_criterion_4_approximation_sizes(suite_report):
    entry = _check(suite_report, 4)
    assert entry["details"]["checks"] == 18
    assert entry["details"]["worst_deviation"] <= 0.25


def test_criterion_5_game_solvers(suite_report):
    entry = _check(suite_report, 5)
    assert entry["details"]["cyclic_value"] == "2/3"
    assert entry["details"]["agreements_within_0.01"] == entry["details"]["matrices"]


def test_criterion_6_sparse_equilibrium_supports(suite_report):
    entry = _check(suite_report, 6)
    assert all(record["ok"] for record in entry["details"]["matrices"].values())


def test_criterion_7_integer_majority_margins(suite_report):
    entry = _check(suite_report, 7)
    assert entry["details"]["min_margin"] >= 1


def test_criterion_8_generalization(suite_report):
    entry = _check(suite_report, 8)
    assert entry["details"]["failure_fraction"] <= 1 / 3 + 0.1


def test_criterion_9_codec_robustness(suite_report):
    entry = _check(suite_report, 9)
    for bucket in (
        "side_info_round_trip",
        "container_round_trip",
        "silent_alias",
        "undetected_damage",
        "hostile_container",
    ):
        assert entry["details"][bucket] == 0
    # two runs casting 2^31 and 2^31 - 1 votes
    assert entry["details"]["hostile_subsets"] == 2**32 - 1
    # every single-byte change of 16 containers, all 255 per byte
    assert entry["details"]["exhaustive_mutations"] > 0


def test_all_criteria_passed(suite_report):
    failed = [
        f"{e['number']} {e['name']} ({e['runtime_seconds']}s)"
        for e in suite_report["results"]
        if not e["passed"]
    ]
    assert suite_report["all_passed"] is True, f"failed criteria: {'; '.join(failed)}"
    assert len(suite_report["results"]) == 9
