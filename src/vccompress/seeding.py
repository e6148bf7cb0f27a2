"""Deterministic randomness helpers.

Every randomized operation in the package takes an explicit integer seed and
builds its generator here.  Philox is counter-based, so streams are stable
across platforms and runs, and child seeds can be split off a parent without
correlation.
"""

from __future__ import annotations

import numpy as np


def _integer_seed(seed) -> int:
    """`seed` as an int, else ValueError (int() would truncate 1.5 and parse "3")."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for the given seed."""
    return np.random.Generator(np.random.Philox(_integer_seed(seed)))


def child_seeds(seed: int, count: int) -> list[int]:
    """Split `count` independent child seeds off a parent seed."""
    state = np.random.SeedSequence(_integer_seed(seed)).generate_state(count, np.uint64)
    return [int(x) for x in state]
