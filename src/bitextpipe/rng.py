"""Deterministic derivation of independent random streams.

Every stochastic operation in the pipeline draws from a ``random.Random``
instance derived from (base seed, purpose, key...). Streams derived from
distinct keys are independent, so records can be processed in any order or
on any number of workers and still produce identical output. Python's
built-in ``hash()`` is salted per process and must not be used here;
blake2b is stable everywhere.
"""

from __future__ import annotations

import hashlib
import random

_SEP = "\x1f"


def derive_seed(base_seed: int, *parts: int | str) -> int:
    """Mix a base seed with any number of parts into a stable 64-bit seed."""
    key = _SEP.join((str(base_seed), *(str(p) for p in parts)))
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


def derive_rng(base_seed: int, *parts: int | str) -> random.Random:
    """A ``random.Random`` seeded from ``derive_seed(base_seed, *parts)``.

    Hot loops that need one stream per record should reuse one instance and
    call ``rng.seed(derive_seed(...))`` per record instead; reseeding yields
    exactly the same stream as constructing ``random.Random(seed)`` fresh.
    """
    return random.Random(derive_seed(base_seed, *parts))


def pick(n: int, want: int, rng: random.Random) -> list[int]:
    """Indices of a seeded draw of ``want`` items from a pool of ``n``.

    ``want // n`` whole copies of the pool in order, then a uniform sample
    without replacement of the remainder, also in pool order. Reduce,
    temperature sampling and seed selection all draw through this.
    """
    if want == 0:
        return []
    full, remainder = divmod(want, n)
    return [*range(n)] * full + sorted(rng.sample(range(n), remainder))
