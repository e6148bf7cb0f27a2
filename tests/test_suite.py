import dataclasses

import pytest

from vccompress import suite
from vccompress.errors import ConfigError
from vccompress.suite import CRITERIA, run_suite


def test_registry_is_numbered_one_through_nine():
    numbers = [number for number, _, _ in CRITERIA]
    assert numbers == list(range(1, 10))
    names = [name for _, name, _ in CRITERIA]
    assert len(set(names)) == len(names)


def test_subset_run_report_shape():
    report = run_suite(seed=0, criteria=[3, 4])
    assert report["seed"] == 0
    assert report["all_passed"] is True
    assert [r["number"] for r in report["results"]] == [3, 4]
    for entry in report["results"]:
        assert entry["passed"] is True
        assert entry["runtime_seconds"] >= 0
        assert entry["details"]


def test_subset_is_deterministic_apart_from_timing():
    def strip(report):
        return [
            {k: v for k, v in entry.items() if k != "runtime_seconds"}
            for entry in report["results"]
        ]

    assert strip(run_suite(seed=0, criteria=[4])) == strip(run_suite(seed=0, criteria=[4]))


def test_unknown_criterion_rejected():
    with pytest.raises(ConfigError):
        run_suite(criteria=[12])


def test_empty_selection_rejected():
    # nothing would run, and all([]) would report a pass
    with pytest.raises(ConfigError):
        run_suite(criteria=[])


def test_echo_prints_status_lines(capsys):
    run_suite(seed=0, criteria=[4], echo=True)
    out = capsys.readouterr().out
    assert "criterion 4" in out
    assert out.startswith("PASS") or out.startswith("FAIL")


def test_run_suite_applies_the_runtime_cap(monkeypatch):
    monkeypatch.setattr(suite, "_RUNTIME_CAPS", {4: 0.0})
    report = run_suite(seed=0, criteria=[3, 4])
    three, four = report["results"]
    assert three["passed"] is True
    assert "runtime_cap_seconds" not in three["details"]
    assert four["passed"] is False
    assert four["details"]["runtime_cap_seconds"] == 0.0
    assert report["all_passed"] is False


def test_round_trip_criterion_fails_on_a_failed_verification(monkeypatch):
    # labels and size stay correct; only the relearned hypotheses disagree
    verify = suite.verify_round_trip
    calls = []

    def first_fails(*args, **kwargs):
        result = verify(*args, **kwargs)
        calls.append(result)
        if len(calls) == 1:
            result = dataclasses.replace(result, hypotheses_match=False, passed=False)
        return result

    monkeypatch.setattr(suite, "verify_round_trip", first_fails)
    entry = run_suite(seed=0, criteria=[2])["results"][0]
    assert len(calls) == 300
    assert not calls[0].mismatches
    assert entry["details"]["all_within_bound"] is True
    assert entry["passed"] is False


def test_seedless_round_trips_keep_the_reported_sizes_and_margins():
    report = run_suite(seed=0, criteria=[2, 7])
    sizes, margins = (entry["details"] for entry in report["results"])
    assert sizes["shared_bound"] == [18929712]
    # point masses taught by fewer than two points certify at budget 1
    assert sizes["subset_budgets"] == [1, 2]
    assert sizes["min_margin"] == 1
    assert sizes["all_within_bound"] is True
    for tier in ("10", "100", "1000"):
        assert sizes["tiers"][tier] == {"max_scheme_size": 42, "max_kernel_size": 2}
    # criterion 7 judges its own battery, whichever criteria run before it
    assert margins == {"compressions_observed": 46, "min_margin": 1}


def test_margin_criterion_alone_runs_its_own_round_trips(monkeypatch):
    # criterion 7 verifies every concept of intervals(9) on all nine points
    verify = suite.verify_round_trip
    classes = []

    def recorded(cls, sample):
        classes.append((cls, sample.distinct_points))
        return verify(cls, sample)

    monkeypatch.setattr(suite, "verify_round_trip", recorded)
    [entry] = run_suite(0, criteria=[7])["results"]
    assert entry["passed"] is True
    assert entry["details"] == {"compressions_observed": 46, "min_margin": 1}
    assert len(classes) == 46
    assert all(cls == suite.intervals(9) and points == tuple(range(9)) for cls, points in classes)


@pytest.mark.parametrize("fault", ["budget above max(1, d)", "size above the ceiling"])
def test_size_criterion_fails_on_one_run_past_the_ceiling(monkeypatch, fault):
    # intervals(10) has d = 2 and a ceiling of 18,929,712; one run that verifies
    # but certifies at budget 3, or is one bit past the ceiling, fails it
    verify = suite.verify_round_trip
    calls = []

    def one_run_past(*args):
        result = verify(*args)
        calls.append(result)
        if len(calls) == 1:
            if fault == "budget above max(1, d)":
                report = dataclasses.replace(result.report, subset_budget=3)
            else:
                report = dataclasses.replace(result.report, scheme_size=18929713)
            result = dataclasses.replace(result, report=report)
        return result

    monkeypatch.setattr(suite, "verify_round_trip", one_run_past)
    entry = run_suite(seed=0, criteria=[2])["results"][0]
    assert len(calls) == 300 and all(result.passed for result in calls)
    details = entry["details"]
    assert details["shared_bound"] == [18929712]
    assert (3 in details["subset_budgets"]) == (fault == "budget above max(1, d)")
    assert details["all_within_bound"] is (fault == "budget above max(1, d)")
    assert entry["passed"] is False
