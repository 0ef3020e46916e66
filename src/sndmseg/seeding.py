"""The one random generator of the package: numpy's Philox keyed by a seed.

Every seeded draw (synthetic pairs, parameter init, shuffling, gradient
checks) goes through :func:`seeded_rng`, so a seed that is no integer
(a bool or a float included) or is negative is a domain error in each of
them instead of a numpy ``TypeError``, ``OverflowError`` or
``ValueError``. A caller that derives seeds from a seed (``seed + i``)
or acts before its first draw applies the same rule first through
:func:`check_seed`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfigError, _integer


def check_seed(seed: int) -> None:
    """Raise ``InvalidConfig`` unless ``seed`` is a nonnegative integer and no bool."""
    if not _integer(seed):
        raise InvalidConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")


def seeded_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a seed that passes :func:`check_seed`."""
    check_seed(seed)
    return np.random.Generator(np.random.Philox(seed))
