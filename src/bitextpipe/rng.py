"""Deterministic derivation of independent random streams.

Every stochastic operation in the pipeline draws from a ``random.Random``
instance derived from (base seed, purpose, key...). Streams derived from
distinct keys are independent, so records can be processed in any order or
on any number of workers and still produce identical output. Python's
built-in ``hash()`` is salted per process and must not be used here;
blake2b is stable everywhere.

Reduce, temperature sampling and seed selection all draw their subsets by
:func:`selection_sample` (Knuth's Algorithm S), one pass over a key's
items in their order, in constant memory, through one draw
(``selection.Selection``) that walks the whole input in order. Releases
before 0.2.0 replicated ``Random.sample`` instead, so their draws kept
other rows; 0.2.0 drew the same rows as 0.3.0, but wrote them grouped by
key.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterator

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


def selection_sample(n: int, k: int, rng: random.Random) -> Iterator[bool]:
    """For each of ``n`` items in turn, whether it is among ``k`` drawn without replacement.

    Knuth's selection sampling (TAOCP vol. 2, §3.4.2, Algorithm S): with
    ``n`` items left, this one included, and ``k`` still needed, the item
    is taken when ``rng.random() * n < k``, so every k-subset is equally
    likely and taken items keep their order. Nothing is drawn once the
    ``k`` are taken: the stream ends there, before the items left over.
    Raises ``ValueError`` unless ``0 <= k <= n``, as ``Random.sample`` does.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} of {n} items")
    return _algorithm_s(n, k, rng.random)


def _algorithm_s(n: int, k: int, random: Callable[[], float]) -> Iterator[bool]:
    while k:
        if random() * n < k:
            k -= 1
            yield True
        else:
            yield False
        n -= 1
