import dataclasses
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from vccompress import cli
from vccompress.cli import main
from vccompress.concepts import parse_concept_class, serialize_concept_class
from vccompress.errors import ConvergenceError
from vccompress.experiment import generalization_experiment
from vccompress.generators import intervals


@pytest.fixture()
def class_file(tmp_path):
    path = tmp_path / "intervals10.txt"
    path.write_text(serialize_concept_class(intervals(10)))
    return str(path)


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("# an interval sample\n2 0\n3 1\n4 1\n\n7 0\n3 1\n")
    return str(path)


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "cyclic.txt"
    path.write_text("3 3\n110\n011\n101\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_vc_reports_dimensions(capsys, class_file):
    payload = run_json(capsys, "vc", "--class-file", class_file)
    assert payload == {"domain_size": 10, "concepts": 56, "vc_dimension": 2}


def test_vc_with_dual(capsys):
    payload = run_json(
        capsys, "vc", "--class-spec", '{"kind": "intervals", "n": 10}', "--with-dual"
    )
    assert payload["dual_concepts"] == 10
    assert payload["dual_vc_dimension"] == 2


def test_vc_out_flag_writes_file(capsys, class_file, tmp_path):
    out = tmp_path / "stats.json"
    code, stdout, _ = run_cli(capsys, "vc", "--class-file", class_file, "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["concepts"] == 56


def test_dual_emits_parseable_class(capsys, class_file):
    code, out, _ = run_cli(capsys, "dual", "--class-file", class_file)
    assert code == 0
    dual = parse_concept_class(out)
    assert dual.domain_size == 56
    assert len(dual.rows) == 10


def test_dual_out_flag_writes_the_class(capsys, class_file, tmp_path):
    out = tmp_path / "dual.txt"
    code, stdout, _ = run_cli(capsys, "dual", "--class-file", class_file, "--out", str(out))
    assert code == 0
    assert stdout == ""
    dual = parse_concept_class(out.read_text())
    assert (dual.domain_size, len(dual.rows)) == (56, 10)


def test_approx_certificate_fields(capsys, class_file):
    payload = run_json(
        capsys, "approx", "--class-file", class_file, "--epsilon", "0.25", "--seed", "5"
    )
    assert payload["size"] <= payload["size_bound"]
    assert payload["max_deviation"] <= 0.25
    assert len(payload["multiset"]) == payload["size"]


def test_approx_point_mass_distribution(capsys, class_file):
    payload = run_json(
        capsys,
        "approx",
        "--class-file",
        class_file,
        "--epsilon",
        "0.5",
        "--distribution",
        "point:3",
    )
    assert set(payload["multiset"]) == {3}


def test_approx_comma_separated_distribution(capsys, class_file):
    # all the mass on points 3 and 4: every draw is one of them
    weights = ",".join(["0"] * 3 + ["0.5", "0.5"] + ["0"] * 5)
    payload = run_json(
        capsys,
        "approx",
        "--class-file",
        class_file,
        "--epsilon",
        "0.5",
        "--distribution",
        weights,
    )
    assert set(payload["multiset"]) <= {3, 4}
    assert payload["max_deviation"] <= 0.5


@pytest.mark.parametrize("spec", ["0.5,x,0.5,0", "point:x"])
def test_approx_malformed_distribution_exits_two_naming_the_option(capsys, class_file, spec):
    code, out, err = run_cli(
        capsys, "approx", "--class-file", class_file, "--epsilon", "0.5", "--distribution", spec
    )
    assert code == 2
    assert out == ""
    assert err.strip() == (
        "error: --distribution needs 'uniform', 'point:IDX' or comma-separated weights, "
        f"got {spec!r}"
    )


def test_game_exact_cyclic(capsys, matrix_file):
    payload = run_json(capsys, "game", "--matrix-file", matrix_file)
    assert payload["method"] == "exact"
    assert payload["exact_value"] == "2/3"
    assert payload["exploitability"] <= 1e-9


def test_game_mw_method(capsys, matrix_file):
    payload = run_json(
        capsys, "game", "--matrix-file", matrix_file, "--method", "mw", "--target", "0.05"
    )
    assert payload["method"] == "mw"
    assert payload["iterations"] is not None
    assert abs(payload["value"] - 2 / 3) <= 0.05


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_game_mw_refuses_a_target_that_is_not_finite(capsys, matrix_file, target):
    code, out, err = run_cli(
        capsys, "game", "--matrix-file", matrix_file, "--method", "mw", "--target", target
    )
    assert (code, out) == (2, "")
    assert err.strip() == (
        f"error: target exploitability must be a finite positive number, got {target}"
    )


def test_nash_certified(capsys, matrix_file):
    payload = run_json(
        capsys, "nash", "--matrix-file", matrix_file, "--epsilon", "0.3", "--seed", "2"
    )
    assert payload["certified_exploitability"] <= 0.3
    rows, cols = payload["row_multiset"], payload["col_multiset"]
    assert len(rows) <= payload["row_support_bound"]
    assert len(cols) <= payload["col_support_bound"]
    # exact re-check against the cyclic game's unique optimum, uniform play
    # of value 2/3: every pure response sees a share within epsilon of it
    cyclic = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    row_play = [Fraction(sum(cyclic[i][j] for i in rows), len(rows)) for j in range(3)]
    col_play = [Fraction(sum(cyclic[i][j] for j in cols), len(cols)) for i in range(3)]
    assert max(abs(share - Fraction(2, 3)) for share in row_play + col_play) <= Fraction(3, 10)


def test_compress_reconstruct_verify_files(capsys, class_file, sample_file, tmp_path):
    blob = tmp_path / "blob.bin"
    payload = run_json(
        capsys,
        "compress",
        "--class-file",
        class_file,
        "--sample-file",
        sample_file,
        "--out",
        str(blob),
    )
    assert blob.stat().st_size == payload["bytes"]
    assert payload["kernel_size"] <= 2

    decoded = run_json(capsys, "reconstruct", "--class-file", class_file, "--in", str(blob))
    labels = decoded["labels"]
    assert len(labels) == 10
    for point, label in [(2, "0"), (3, "1"), (4, "1"), (7, "0")]:
        assert labels[point] == label

    code, out, _ = run_cli(
        capsys, "verify", "--class-file", class_file, "--sample-file", sample_file
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_compress_report_file(capsys, class_file, sample_file, tmp_path):
    blob = tmp_path / "blob.bin"
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "compress",
        "--class-file",
        class_file,
        "--sample-file",
        sample_file,
        "--out",
        str(blob),
        "--report",
        str(report),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(report.read_text())
    assert payload["subset_count"] >= 1
    # what compress knew, and no dimension search run only to print it
    assert payload["details"] == {
        "epsilon": 0.125,
        "seed": 0,
        "vote_concepts": [[23, 1]],
        "min_majority_margin": 1,
        "certified_agreement": 1.0,
        "draw_count": 0,
    }


@pytest.mark.parametrize("command", ["compress", "verify"])
def test_report_runs_no_dimension_search(command, tmp_path):
    # d* of intervals(120) takes minutes to search, but a 3-point sample is
    # taught by a point mass at once, and the CLI prints what compress knew
    sample = tmp_path / "sample.txt"
    sample.write_text("3 1\n50 1\n90 0\n")
    argv = ["--class-spec", '{"kind": "intervals", "n": 120}', "--sample-file", str(sample)]
    if command == "compress":
        argv += ["--out", str(tmp_path / "blob.bin")]
    proc = subprocess.run(
        [sys.executable, "-m", "vccompress.cli", command, *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    details = json.loads(proc.stdout)["details"]
    assert details["draw_count"] == 0
    assert "vc_dimension" not in details and "dual_vc_dimension" not in details


def test_reconstruct_rejects_corrupt_blob(capsys, class_file, sample_file, tmp_path):
    blob = tmp_path / "blob.bin"
    run_json(
        capsys,
        "compress",
        "--class-file",
        class_file,
        "--sample-file",
        sample_file,
        "--out",
        str(blob),
    )
    raw = bytearray(blob.read_bytes())
    raw[-3] ^= 0x40
    blob.write_bytes(bytes(raw))
    code, _, err = run_cli(capsys, "reconstruct", "--class-file", class_file, "--in", str(blob))
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "vc", "--class-file", "/nonexistent/class.txt")
    assert code == 2
    assert "error:" in err


def test_memory_error_exits_two(capsys, monkeypatch, class_file):
    def exhausted(args):
        raise MemoryError("dual class too large")

    monkeypatch.setattr(cli, "_cmd_vc", exhausted)
    code, _, err = run_cli(capsys, "vc", "--class-file", class_file)
    assert code == 2
    assert err.strip() == "error: out of memory: dual class too large"
    assert "Traceback" not in err


def test_solver_budget_error_exits_one(capsys, monkeypatch, matrix_file):
    def stalled(args):
        raise ConvergenceError("iteration cap reached")

    monkeypatch.setattr(cli, "_cmd_game", stalled)
    code, _, err = run_cli(capsys, "game", "--matrix-file", matrix_file)
    assert code == 1
    assert err.strip() == "error: iteration cap reached"
    assert "Traceback" not in err


def test_unknown_generator_kind_exits_two(capsys):
    code, _, err = run_cli(capsys, "vc", "--class-spec", '{"kind": "nope"}')
    assert code == 2
    assert "unknown class kind" in err


def test_non_integer_generator_size_exits_two(capsys):
    # k = 1.5 once built the k = 1 class unnoticed
    spec = '{"kind": "k_interval_unions", "n": 6, "k": 1.5}'
    code, _, err = run_cli(capsys, "vc", "--class-spec", spec)
    assert code == 2
    assert "union count 1.5 must be an integer" in err


def test_oversized_generator_exits_two_before_enumerating(capsys):
    # intervals(3000) would enumerate 4.5 million concepts
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "vc", "--class-spec", '{"kind": "intervals", "n": 3000}')
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "n must be <= 361" in err


def test_bad_sample_label_exits_two(capsys, class_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 5\n")
    code, _, err = run_cli(
        capsys, "verify", "--class-file", class_file, "--sample-file", str(bad)
    )
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 0\n3 1 0\n", "line 2: expected 'point label'"),
        ("2 0\n# a comment\n3\n", "line 3: expected 'point label'"),
        ("2 0\nthree 1\n", "line 2: point and label must be integers"),
        ("2 0.5\n", "line 1: point and label must be integers"),
    ],
)
def test_malformed_sample_line_exits_two_naming_the_line(
    capsys, class_file, tmp_path, text, message
):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code, out, err = run_cli(
        capsys, "verify", "--class-file", class_file, "--sample-file", str(bad)
    )
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {message}"


def test_missing_class_exits_two(capsys, sample_file, tmp_path):
    blob = tmp_path / "x.bin"
    code, out, err = run_cli(capsys, "compress", "--sample-file", sample_file, "--out", str(blob))
    assert code == 2
    assert out == ""
    assert err.strip() == "error: provide --class-file or --class-spec"
    assert not blob.exists()


def test_experiment_reports_the_library_run(capsys):
    spec = '{"kind": "intervals", "n": 6}'
    argv = ["--class-spec", spec, "--trials", "5", "--pilot-runs", "4", "--seed", "3"]
    payload = run_json(capsys, "experiment", *argv)
    report = generalization_experiment(intervals(6), trials=5, seed=3, pilot_runs=4)
    # the report's fields, and its within_tolerance property beside them
    assert payload.pop("within_tolerance") is report.within_tolerance
    assert payload == json.loads(json.dumps(dataclasses.asdict(report)))
    assert (payload["trials"], payload["seed"]) == (5, 3)
    assert payload["required_size"] > 0
    assert 0 <= payload["failures"] <= 5
    assert payload["failure_fraction"] == payload["failures"] / 5
    assert report.within_tolerance is (payload["failure_fraction"] <= payload["delta"])


def test_unrealizable_sample_exits_two(capsys, class_file, tmp_path):
    bad = tmp_path / "unreal.txt"
    bad.write_text("0 1\n3 0\n5 1\n")
    blob = tmp_path / "x.bin"
    code, _, err = run_cli(
        capsys,
        "compress",
        "--class-file",
        class_file,
        "--sample-file",
        str(bad),
        "--out",
        str(blob),
    )
    assert code == 2
    assert "realizable" in err


def test_out_of_domain_sample_exits_two(capsys, class_file, tmp_path):
    bad = tmp_path / "outside.txt"
    bad.write_text("3 1\n10 0\n")
    blob = tmp_path / "x.bin"
    code, out, err = run_cli(
        capsys,
        "compress",
        "--class-file",
        class_file,
        "--sample-file",
        str(bad),
        "--out",
        str(blob),
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "error: point 10 outside domain of size 10"
    assert not blob.exists()


def test_suite_subset(capsys, tmp_path):
    out = tmp_path / "suite.json"
    code, stdout, _ = run_cli(capsys, "suite", "--criteria", "4", "--out", str(out))
    assert code == 0
    assert "PASS criterion 4" in stdout
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert [r["number"] for r in report["results"]] == [4]


def test_suite_unknown_criterion_exits_two(capsys):
    code, _, err = run_cli(capsys, "suite", "--criteria", "42")
    assert code == 2
    assert "unknown criteria" in err


@pytest.mark.parametrize("criteria", ["", "3,", "3,x"])
def test_suite_malformed_criteria_exit_two_before_running(capsys, criteria):
    code, out, err = run_cli(capsys, "suite", "--criteria", criteria)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: --criteria needs comma-separated integers, got {criteria!r}"


def _cap_address_space(limit=1 << 30):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["vc", "--class-spec", '{"kind": "full_cube", "n": 3}'], {"vc_dimension": 3}),
        # the dual has 10 concepts over 1024 points; it must fit in 1 GiB
        (
            ["vc", "--with-dual", "--class-spec", '{"kind": "full_cube", "n": 10}'],
            {"vc_dimension": 10, "dual_vc_dimension": 3},
        ),
    ],
    ids=["full_cube-3", "full_cube-10-with-dual"],
)
def test_module_entry_point_subprocess(argv, expected):
    proc = subprocess.run(
        [sys.executable, "-m", "vccompress.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert {key: payload[key] for key in expected} == expected


def test_oversized_halfspace_count_exits_two_before_drawing():
    # a billion weight vectors would ask numpy for 14.9 GiB of margins
    spec = '{"kind": "halfspaces_grid", "side": 2, "dim": 1, "count": 1000000000}'
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "vccompress.cli", "vc", "--class-spec", spec],
        capture_output=True,
        text=True,
        preexec_fn=lambda: _cap_address_space(512 << 20),
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2, proc.stderr
    assert "count * side**dim must be <= 2**24" in proc.stderr
    assert "Traceback" not in proc.stderr
