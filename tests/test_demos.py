"""Smoke tests for the scripts in demos/ and the README's quick start: each
runs as a fresh process against the package sources and must exit 0 with
the output it promises.  The README's container format must name the
magic the codec writes."""

import subprocess
import sys
from pathlib import Path

import pytest

from vccompress.scheme import MAGIC

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [demo.name for demo in DEMOS] == [
        "01_compress_roundtrip.py",
        "02_dimensions_and_duals.py",
        "03_games_and_sparsification.py",
        "04_generalization.py",
    ]


def _run_python(*args: str) -> str:
    """Stdout of a fresh interpreter run from the repository root; conftest
    puts the package sources on its path."""
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    assert _run_python(str(demo)).strip()


def test_readme_quick_start_prints_what_its_comments_promise():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "# (8, 19)" in block and "# 34:" in block
    assert _run_python("-c", block).splitlines() == ["(8, 19)", "34"]


def test_readme_container_format_names_the_current_magic():
    # a format bump that leaves the README's table behind fails here
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Container format", 1)[1].split("\n## ", 1)[0]
    assert f"magic `{MAGIC.decode()}`" in section
