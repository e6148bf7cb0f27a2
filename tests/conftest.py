"""The tests import the package from ``src`` (``pythonpath`` in
pyproject.toml); the interpreters they start, for the CLI and for
fresh-process checks, find it there too, through PYTHONPATH."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
