"""Deterministic derivation of independent random streams.

Every stochastic operation in the pipeline draws from a ``random.Random``
instance derived from (base seed, purpose, key...). Streams derived from
distinct keys are independent, so records can be processed in any order or
on any number of workers and still produce identical output. Python's
built-in ``hash()`` is salted per process and must not be used here;
blake2b is stable everywhere.

Reduce, temperature sampling and seed selection all draw through
:func:`pick`. Its sampler, :func:`sample_mask`, replicates CPython's
``Random.sample(range(n), k)`` call for call but returns a bitmap of the
drawn indices instead of a list, so a draw keeps n/8 bytes per pool item
and selects the rows the list-based draw of earlier releases selected.
The replica is pinned to CPython's ``Random.sample`` algorithm and its
private ``Random._randbelow``; ``tests/test_rng.py`` compares the two on
the running interpreter, so a CPython release that changes either fails
loudly instead of changing output bytes.
"""

from __future__ import annotations

import hashlib
import math
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


def pick(n: int, want: int, rng: random.Random) -> tuple[int, bytearray]:
    """A seeded draw of ``want`` items from a pool of ``n``: (whole copies, mask).

    ``want // n`` whole copies of the pool, then the remainder drawn by
    :func:`sample_mask`. Returns the number of copies and the remainder's
    bitmap.
    """
    if want == 0:
        return 0, bytearray((n + 7) >> 3)
    full, k = divmod(want, n)
    return full, sample_mask(n, k, rng)


def sample_mask(n: int, k: int, rng: random.Random) -> bytearray:
    """``set(rng.sample(range(n), k))`` as a bitmap of ``ceil(n / 8)`` bytes.

    Pool index ``i`` is drawn when ``mask[i >> 3] >> (i & 7) & 1``. This
    replicates ``Random.sample`` for a range: the same ``_randbelow`` calls
    and the same pool/set branch rule, so ``rng`` ends in the same state.
    The pool branch holds its pool in a transient ``array`` (at most 8 B
    per item); the set branch rejects repeats on the bitmap instead of a
    set.
    """
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    mask = bytearray((n + 7) >> 3)
    randbelow = rng._randbelow
    setsize = 21  # a list pool is used when it is smaller than a k-set
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        from array import array

        pool = array("I" if n <= 1 << 32 else "Q", range(n))
        for m in range(n, n - k, -1):
            j = randbelow(m)
            index = pool[j]
            mask[index >> 3] |= 1 << (index & 7)
            pool[j] = pool[m - 1]
    else:
        for _ in range(k):
            j = randbelow(n)
            while mask[j >> 3] >> (j & 7) & 1:
                j = randbelow(n)
            mask[j >> 3] |= 1 << (j & 7)
    return mask
