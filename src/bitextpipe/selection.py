"""The selection engine behind temperature sampling and seed selection.

:class:`Selection` is a sized, lazy draw that reads the items from their
pools only when it is iterated, drawing each key's remainder by
:func:`rng.selection_sample` as its pool streams by, so it keeps no
per-item state. A pool is any sized iterable that can be iterated more
than once. The library passes in-memory groups of pairs; the CLI passes
:class:`SpilledPools`, validated rows grouped by key into one bucket file
each, so ``sample`` and ``seed-select`` hold no part of the corpus and
copy the chosen rows' bytes straight to their output.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from pathlib import Path
from typing import Collection, Generic, Hashable, Iterable, Iterator, TypeVar

from .rng import derive_rng, selection_sample

K = TypeVar("K", bound=Hashable)
T = TypeVar("T")

_SPILL_BUFFER = 1 << 18  # characters of rows buffered before they go to their buckets


class Selection(Generic[K, T]):
    """A sized, lazy draw from keyed pools: iterating yields the drawn items.

    Each key in ``order`` with a positive ``wants[key]`` draws that many
    items from the ``n`` of ``pools[key]``: ``want // n`` whole copies of
    the pool, then the ``want % n`` items that :func:`rng.selection_sample`
    takes, in pool order, from the stream ``derive_rng(seed, purpose,
    str(key))``. Items are read from the pools, and the remainders drawn,
    each time the selection is iterated, key by key in ``order``.
    ``counts`` holds the items drawn per key, in output order.
    """

    def __init__(
        self,
        pools: Mapping[K, Collection[T]],
        wants: Mapping[K, int],
        order: Iterable[K],
        seed: int,
        purpose: str,
    ):
        self.counts: dict[K, int] = {}
        self._draws: list[tuple[K, Collection[T], int, int]] = []
        self._seed, self._purpose = seed, purpose
        for key in order:
            want = wants.get(key, 0)
            if want:
                pool = pools[key]
                self.counts[key] = want
                self._draws.append((key, pool, *divmod(want, len(pool))))

    def __len__(self) -> int:
        return sum(self.counts.values())

    def __iter__(self) -> Iterator[T]:
        return itertools.chain.from_iterable(items for _, items in self.by_key())

    def by_key(self) -> Iterator[tuple[K, Iterator[T]]]:
        """(key, that key's drawn items) in output order."""
        for key, pool, full, k in self._draws:
            items = itertools.chain.from_iterable(itertools.repeat(pool, full))
            if k:
                stream = derive_rng(self._seed, self._purpose, str(key))
                taken = selection_sample(len(pool), k, stream)
                items = itertools.chain(items, itertools.compress(pool, taken))
            yield key, items


class Bucket:
    """One key's spilled rows: sized, and iterable any number of times.

    Iterating yields the raw encoded lines, newline included, in the
    order they were spilled.
    """

    __slots__ = ("path", "rows")

    def __init__(self, path: Path, rows: int):
        self.path = path
        self.rows = rows

    def __len__(self) -> int:
        return self.rows

    def __iter__(self) -> Iterator[bytes]:
        with open(self.path, "rb", buffering=_SPILL_BUFFER) as handle:
            yield from handle


class SpilledPools(Mapping):
    """(key, row) pairs spilled into one bucket file per key under ``directory``.

    A mapping of key to :class:`Bucket`, keys in first-seen order;
    ``counts`` holds the rows per key. Rows are buffered and appended to
    their buckets about 256k characters at a time, so memory does not grow
    with the number of rows, and no file stays open however many keys
    there are.
    """

    def __init__(self, rows: Iterable[tuple[K, str]], directory: str | Path):
        directory = Path(directory)
        self.counts: dict[K, int] = {}
        self._paths: dict[K, Path] = {}
        pending: dict[K, list[str]] = {}
        buffered = 0

        def flush() -> None:
            for key, lines in pending.items():
                if lines:
                    self.counts[key] += len(lines)
                    lines.append("")  # the last row's newline
                    with open(self._paths[key], "ab") as handle:
                        handle.write("\n".join(lines).encode("utf-8"))
                    lines.clear()

        for key, row in rows:
            lines = pending.get(key)
            if lines is None:
                lines = pending[key] = []
                self.counts[key] = 0
                self._paths[key] = directory / f"{len(self._paths)}.tsv"
            lines.append(row)
            buffered += len(row)
            if buffered >= _SPILL_BUFFER:
                flush()
                buffered = 0
        flush()

    def __getitem__(self, key: K) -> Bucket:
        return Bucket(self._paths[key], self.counts[key])

    def __iter__(self) -> Iterator[K]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)
