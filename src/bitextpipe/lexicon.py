"""English-centric bilingual lexicon loading and top-K truncation.

Two file formats are supported:

* ``muse``   — one ``source target`` pair per line, whitespace separated.
* ``gatitos`` — one ``source<TAB>target`` pair per line; sources may be
  multi-word phrases, which are kept but flagged so substitution can skip
  them.

Files are assumed to be ordered most-frequent-first, so "top K" means the
first K distinct source words in file order. Source words are case-folded
for merging and lookup; translations are kept verbatim. Files are read one
line at a time and a lexicon keeps one string per source word, so
:func:`load` with ``top_k`` holds one line and K such strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable

from .corpus import write_tsv_rows
from .errors import LexiconError, iter_lines
from .lang import ENGLISH, LanguageTag

MUSE = "muse"
GATITOS = "gatitos"
FORMATS = (MUSE, GATITOS)

DEFAULT_TOP_K = 4000


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    source: str  # case-folded
    translations: tuple[str, ...]
    is_phrase: bool = False


class BilingualLexicon:
    """Ordered source-to-target word mapping for one target language.

    Held as one string per source word: :attr:`table` maps each case-folded
    source, in entry order, to its translations joined by tabs, which no
    translation may contain; :attr:`phrases` holds the multi-word sources.
    :attr:`entries` builds the :class:`LexiconEntry` view of both on each
    access. Treat a lexicon as immutable.
    """

    __slots__ = ("tgt_lang", "table", "phrases", "src_lang", "top_k", "skipped_lines",
                 "__weakref__")

    def __init__(
        self,
        tgt_lang: LanguageTag,
        entries: Iterable[LexiconEntry],
        src_lang: LanguageTag = ENGLISH,
        top_k: int | None = None,
        skipped_lines: tuple[int, ...] = (),
    ) -> None:
        table: dict[str, str] = {}
        phrases: set[str] = set()
        for entry in entries:
            if not entry.translations:
                raise LexiconError(f"entry {entry.source!r} has no translations")
            if "\t" in "".join(entry.translations):
                raise LexiconError(f"entry {entry.source!r} has a translation with a tab")
            if entry.source in table:
                raise LexiconError(f"two entries for {entry.source!r}")
            table[entry.source] = "\t".join(entry.translations)
            if entry.is_phrase:
                phrases.add(entry.source)
        self.tgt_lang, self.src_lang, self.top_k = tgt_lang, src_lang, top_k
        self.table, self.phrases = table, frozenset(phrases)
        self.skipped_lines = tuple(skipped_lines)

    @classmethod
    def _from_table(
        cls,
        tgt_lang: LanguageTag,
        src_lang: LanguageTag,
        table: dict[str, str],
        phrases: frozenset[str],
        top_k: int | None,
        skipped_lines: Iterable[int],
    ) -> BilingualLexicon:
        """A lexicon held as ``table`` and ``phrases``, built without entries."""
        lexicon = cls(tgt_lang, (), src_lang, top_k, tuple(skipped_lines))
        lexicon.table, lexicon.phrases = table, phrases
        return lexicon

    @property
    def entries(self) -> tuple[LexiconEntry, ...]:
        return tuple(
            LexiconEntry(source, tuple(joined.split("\t")), source in self.phrases)
            for source, joined in self.table.items()
        )

    def _key(self) -> tuple:
        # entry order counts, so the table compares as a list of items
        return (self.tgt_lang, self.src_lang, self.top_k, self.skipped_lines,
                self.phrases, list(self.table.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BilingualLexicon):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (f"BilingualLexicon({self.tgt_lang}, {len(self)} entries, "
                f"top_k={self.top_k}, {self.skipped_count} skipped lines)")

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, word: str) -> bool:
        return word.casefold() in self.table

    def lookup(self, word: str) -> tuple[str, ...] | None:
        """Translations for a case-folded match of ``word``, or None."""
        joined = self.table.get(word.casefold())
        return None if joined is None else tuple(joined.split("\t"))

    @property
    def skipped_count(self) -> int:
        return len(self.skipped_lines)


def load(
    path: str | Path, format: str, tgt_lang: LanguageTag, top_k: int | None = None
) -> BilingualLexicon:
    """Parse a lexicon file line by line, merging duplicate source words in file order.

    Malformed lines are skipped and recorded by line number. With ``top_k``
    only the first ``top_k`` distinct sources are kept, with every
    translation the file gives them, so the result equals
    ``truncate_topk(load(path, format, tgt_lang), top_k)`` while memory
    holds one line and ``top_k`` entries, whatever the size of the file.
    A file that yields no entries raises :class:`LexiconError`.
    """
    if format not in FORMATS:
        raise LexiconError(f"unknown lexicon format {format!r}; expected one of {FORMATS}")
    if top_k is not None:
        _check_top_k(top_k)
    table: dict[str, str] = {}
    skipped: list[int] = []
    for lineno, line in enumerate(iter_lines(path, LexiconError), start=1):
        if not line.strip():
            skipped.append(lineno)
            continue
        if format == MUSE:
            parts = line.split()
        else:
            parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            skipped.append(lineno)
            continue
        source, target = parts[0].casefold(), parts[1]
        known = table.get(source)
        if known is None:
            if len(table) != top_k:  # else a source past the top K
                table[source] = target
        elif target not in known.split("\t"):
            table[source] = known + "\t" + target

    if not table:
        raise LexiconError(f"{path}: empty lexicon (no parseable entries)")
    phrases = frozenset(source for source in table if " " in source)
    return BilingualLexicon._from_table(tgt_lang, ENGLISH, table, phrases, top_k, skipped)


def truncate_topk(lexicon: BilingualLexicon, k: int = DEFAULT_TOP_K) -> BilingualLexicon:
    """Keep the first ``k`` entries in entry order; identity if already <= k."""
    _check_top_k(k)
    if len(lexicon) <= k and lexicon.top_k == k:
        return lexicon
    table = dict(islice(lexicon.table.items(), k))
    return BilingualLexicon._from_table(
        lexicon.tgt_lang, lexicon.src_lang, table, lexicon.phrases.intersection(table), k,
        lexicon.skipped_lines,
    )


def _check_top_k(k: int) -> None:
    if k <= 0:
        raise LexiconError(f"top-k bound must be positive, got {k}")


def write_tsv(lexicon: BilingualLexicon, path: str | Path) -> int:
    """Emit one ``source<TAB>translation`` row per translation, entry order.

    The write is atomic, like :func:`corpus.write_tsv_rows`; returns the rows written.
    """
    return write_tsv_rows(
        (
            f"{source}\t{translation}"
            for source, joined in lexicon.table.items()
            for translation in joined.split("\t")
        ),
        path,
    )
