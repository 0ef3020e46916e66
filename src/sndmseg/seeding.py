"""The one random generator of the package: numpy's Philox keyed by a seed.

Every seeded draw (synthetic pairs, parameter init, shuffling, gradient
checks) goes through :func:`seeded_rng`, so a negative seed is a domain
error in each of them instead of a numpy ``OverflowError`` or
``ValueError``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfigError


def seeded_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a nonnegative integer seed."""
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))
