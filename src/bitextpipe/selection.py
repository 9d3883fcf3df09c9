"""The one draw behind ``reduce``, temperature sampling and seed selection.

:class:`Selection` streams :class:`Keyed` items once, in input order, and
yields each item ``want // n`` times, copies adjacent, plus once more if
its key's remainder draw (:func:`rng.selection_sample`) takes it. It keeps
a few numbers per key and nothing per item. :func:`draw` runs it for the
library's three draws, on a corpus's pairs or on keyed items such as the
CLI's second read of ``--in``, so ``reduce``, ``sample`` and
``seed-select`` hold no part of the corpus and write rows in file order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from pathlib import Path
from typing import Callable, Generic, Hashable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .corpus import ParallelCorpus
from .errors import CorpusError
from .rng import derive_rng, selection_sample

K = TypeVar("K", bound=Hashable)
T = TypeVar("T")


class Keyed(NamedTuple):
    """Items in input order, the key of an item, and the items per key a first read counted.

    ``source`` names the items in the error raised when they hold other
    counts than ``counts``.
    """

    items: Iterable
    key: Callable
    counts: Mapping
    source: str | Path = "corpus"


class Selection(Generic[K, T]):
    """A sized, lazy draw from keyed items: iterating yields the drawn items in input order.

    A key of ``n`` counted items draws ``wants[key]`` of them (none if it
    is absent there): each item comes out ``want // n`` times, plus once
    more if ``selection_sample(n, want % n, derive_rng(seed, purpose,
    str(key)))`` takes it. The items are read, and the remainders drawn,
    each time the selection is iterated. Items holding more or fewer of a
    key than counted raise :class:`CorpusError` "<source>: changed while
    read". ``wants`` holds the items each counted key draws.
    """

    def __init__(self, keyed: Keyed, wants: Mapping[K, int], seed: int, purpose: str):
        self._keyed = keyed
        self.wants: dict[K, int] = {key: wants.get(key, 0) for key in keyed.counts}
        self._seed, self._purpose = seed, purpose

    def __len__(self) -> int:
        return sum(self.wants.values())

    def __iter__(self) -> Iterator[T]:
        items, key_of, counts, source = self._keyed
        draws: dict[K, tuple[int, Iterator[bool]]] = {}
        for key, n in counts.items():
            full, k = divmod(self.wants[key], n)
            if k:
                draws[key] = full, selection_sample(
                    n, k, derive_rng(self._seed, self._purpose, str(key))
                )
            else:  # nothing drawn, and no stream derived
                draws[key] = full, itertools.repeat(False)
        left = dict(counts)
        for item in items:
            key = key_of(item)
            if not left.get(key):
                raise CorpusError(
                    f"{source}: changed while read: more {key} rows than first counted"
                )
            left[key] -= 1
            full, draw = draws[key]
            copies = full + next(draw, False)
            if copies == 1:  # the common case, without an iterator
                yield item
            else:
                yield from itertools.repeat(item, copies)
        short = [str(key) for key, n in left.items() if n]
        if short:
            raise CorpusError(
                f"{source}: changed while read: fewer {', '.join(short)} rows than first counted"
            )


def draw(
    corpus: ParallelCorpus | Keyed,
    key: Callable,
    plan: Callable[[Mapping[K, int]], Mapping[K, int]],
    seed: int,
    purpose: str,
) -> ParallelCorpus | Selection:
    """Draw ``plan(counts)[key]`` items of each key from ``corpus``; ``plan`` checks the counts.

    Keyed items give the lazy selection. A :class:`ParallelCorpus` is keyed
    by ``key`` and counted here, and gives a ``ParallelCorpus`` of the drawn
    pairs.
    """
    keyed = corpus if isinstance(corpus, Keyed) else Keyed(
        corpus, key, Counter(map(key, corpus))
    )
    selection = Selection(keyed, plan(keyed.counts), seed, purpose)
    return selection if keyed is corpus else ParallelCorpus(tuple(selection))
