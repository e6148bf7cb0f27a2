import pytest

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
