"""Seeded, splittable random streams.

All Monte Carlo drivers derive one stream per (master seed, trial index)
so results do not depend on how trials are chunked across workers.
Philox is counter-based, so streams are cheap to create and independent.
"""

from __future__ import annotations

from operator import index

import numpy as np


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the RNG stream identified by ``seed`` and an integer key path."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _checked_int(value, what: str, least: int) -> int:
    """``value`` as an int >= ``least``; ValueError for anything else."""
    try:  # index() takes numpy ints, refuses what int() would truncate or parse
        value = index(value)
    except TypeError as exc:
        raise ValueError(f"{what} must be an integer: {exc}") from None
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value
