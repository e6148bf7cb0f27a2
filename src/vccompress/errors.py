"""Exception types shared across the toolkit.

Domain errors (bad inputs, malformed bytes) derive from ValueError so that
callers who just want "this input is junk" can catch one thing.  Budget and
convergence failures derive from RuntimeError: the input was fine, the
configured computational budget was not.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed concept-class / matrix text.  Carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DecodeError(ValueError):
    """Malformed binary encoding.  Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"offset {offset}: {message}")
        self.offset = offset


class IntegrityError(ValueError):
    """Decoded data is structurally valid but inconsistent with the class."""


class UnrealizableError(ValueError):
    """No concept in the class is consistent with the labeled sample."""


class BudgetExceededError(ValueError):
    """An input exceeds a declared size budget."""


class ExactSolverCapError(ValueError):
    """Matrix too large for the exact solver; use the iterative solver."""


class ApproximationBudgetError(RuntimeError):
    """Rejection sampling exhausted its retry budget without certifying."""

    def __init__(self, message: str, best_deviation: float | None = None):
        super().__init__(message)
        self.best_deviation = best_deviation


class ConvergenceError(RuntimeError):
    """Iterative solver hit its iteration cap before certifying the target."""

    def __init__(self, message: str, last_exploitability: float | None = None):
        super().__init__(message)
        self.last_exploitability = last_exploitability


class ConfigError(ValueError):
    """Invalid harness configuration."""
