"""The selection engine behind temperature sampling and seed selection.

A draw keeps one bitmap per key (:func:`rng.pick`), never the drawn
items: :class:`Selection` is a sized, lazy draw that reads the items from
their pools only when it is iterated. A pool is any sized iterable that
can be iterated more than once. The library passes in-memory groups of
pairs; the CLI passes :class:`SpilledPools`, validated rows grouped by key
into one bucket file each, so ``sample`` and ``seed-select`` hold n/8
bytes per pair instead of the corpus and copy the chosen rows' bytes
straight to their output.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from pathlib import Path
from typing import Collection, Generic, Hashable, Iterable, Iterator, TypeVar

from .rng import derive_rng, pick

K = TypeVar("K", bound=Hashable)
T = TypeVar("T")

# The eight bits of each byte value, lowest first: a mask as a 0/1 stream.
_BITS = tuple(tuple(value >> bit & 1 for bit in range(8)) for value in range(256))

_SPILL_BUFFER = 1 << 18  # characters of rows buffered before they go to their buckets


class Selection(Generic[K, T]):
    """A sized, lazy draw from keyed pools: iterating yields the drawn items.

    Each key in ``order`` with a positive ``wants[key]`` draws that many
    items from ``pools[key]`` through :func:`rng.pick`, from the stream
    ``derive_rng(seed, purpose, str(key))``. Only the bitmaps are kept;
    items are read from the pools when the selection is iterated, key by
    key in ``order``, each pool in its own order (whole copies first).
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
        self._draws: list[tuple[K, Collection[T], int, bytearray]] = []
        for key in order:
            want = wants.get(key, 0)
            if want:
                pool = pools[key]
                full, mask = pick(len(pool), want, derive_rng(seed, purpose, str(key)))
                self.counts[key] = want
                self._draws.append((key, pool, full, mask))

    def __len__(self) -> int:
        return sum(self.counts.values())

    def __iter__(self) -> Iterator[T]:
        return itertools.chain.from_iterable(items for _, items in self.by_key())

    def by_key(self) -> Iterator[tuple[K, Iterator[T]]]:
        """(key, that key's drawn items) in output order."""
        for key, pool, full, mask in self._draws:
            items = itertools.chain.from_iterable(itertools.repeat(pool, full))
            if any(mask):
                bits = itertools.chain.from_iterable(map(_BITS.__getitem__, mask))
                items = itertools.chain(items, itertools.compress(pool, bits))
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
