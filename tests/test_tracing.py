"""The benchmark's tracer wraps vccompress functions by name.

A cleanup that deletes or renames one of those names breaks
``perfbench/run.py --trace 1`` and ``--self-test``; this test makes it fail
the test suite too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    script = "import sys; sys.path[:0] = sys.argv[1:]; import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
