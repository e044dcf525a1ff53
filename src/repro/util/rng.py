"""Deterministic random-number helpers.

Every stochastic decision in the library flows from a seeded
:class:`random.Random` so that database generation, query sequences and
therefore measured I/O counts are reproducible bit-for-bit.  Independent
streams (database shape vs. query sequence) come from one seed through
:func:`derive_rng`'s ``stream`` argument instead of sharing one generator,
so that changing the length of one stream does not perturb the other.
"""

from __future__ import annotations

import random
from typing import Union

# A fixed, arbitrary odd multiplier used to decorrelate derived streams.
_STREAM_SALT = 0x9E3779B97F4A7C15

RngLike = Union[int, random.Random, None]


def derive_rng(seed: RngLike, stream: int = 0) -> random.Random:
    """Return a ``random.Random`` for ``(seed, stream)``.

    ``seed`` may be an ``int``, an existing ``Random`` (used to draw a base
    seed, advancing it once), or ``None`` for nondeterministic seeding.
    Distinct ``stream`` values yield independent generators for the same
    seed.
    """
    if isinstance(seed, random.Random):
        base = seed.getrandbits(64)
    elif seed is None:
        base = random.SystemRandom().getrandbits(64)
    else:
        base = int(seed)
    mixed = (base * 2654435761 + stream * _STREAM_SALT) & ((1 << 64) - 1)
    return random.Random(mixed)
