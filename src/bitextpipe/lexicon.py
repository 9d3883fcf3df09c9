"""English-centric bilingual lexicon loading and top-K truncation.

Two file formats are supported:

* ``muse``   — one ``source target`` pair per line, whitespace separated.
* ``gatitos`` — one ``source<TAB>target`` pair per line; sources may be
  multi-word phrases, which are kept but flagged so substitution can skip
  them.

Files are assumed to be ordered most-frequent-first, so "top K" means the
first K distinct source words in file order. Source words are case-folded
for merging and lookup; translations are kept verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from .errors import LexiconError, read_lines
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


@dataclass(frozen=True)
class BilingualLexicon:
    """Ordered source-to-target word mapping for one target language."""

    tgt_lang: LanguageTag
    entries: tuple[LexiconEntry, ...]
    src_lang: LanguageTag = ENGLISH
    top_k: int | None = None
    skipped_lines: tuple[int, ...] = ()
    _index: Mapping[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        for entry in self.entries:
            if not entry.translations:
                raise LexiconError(f"entry {entry.source!r} has no translations")
        index = {entry.source: entry.translations for entry in self.entries}
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word.casefold() in self._index

    def lookup(self, word: str) -> tuple[str, ...] | None:
        """Translations for a case-folded match of ``word``, or None."""
        return self._index.get(word.casefold())

    @property
    def skipped_count(self) -> int:
        return len(self.skipped_lines)


def load(path: str | Path, format: str, tgt_lang: LanguageTag) -> BilingualLexicon:
    """Parse a lexicon file, merging duplicate source words in file order.

    Malformed lines are skipped and recorded by line number. A file that
    yields no entries raises :class:`LexiconError`.
    """
    if format not in FORMATS:
        raise LexiconError(f"unknown lexicon format {format!r}; expected one of {FORMATS}")
    lines = read_lines(path, LexiconError)

    order: list[str] = []
    translations: dict[str, list[str]] = {}
    phrases: set[str] = set()
    skipped: list[int] = []
    for lineno, line in enumerate(lines, start=1):
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
        source = parts[0].casefold()
        target = parts[1]
        if source not in translations:
            order.append(source)
            translations[source] = []
        if target not in translations[source]:
            translations[source].append(target)
        if " " in source:
            phrases.add(source)

    if not order:
        raise LexiconError(f"{path}: empty lexicon (no parseable entries)")
    entries = tuple(
        LexiconEntry(source, tuple(translations[source]), is_phrase=source in phrases)
        for source in order
    )
    return BilingualLexicon(tgt_lang, entries, skipped_lines=tuple(skipped))


def truncate_topk(lexicon: BilingualLexicon, k: int = DEFAULT_TOP_K) -> BilingualLexicon:
    """Keep the first ``k`` entries in entry order; identity if already <= k."""
    if k <= 0:
        raise LexiconError(f"top-k bound must be positive, got {k}")
    if len(lexicon.entries) <= k and lexicon.top_k == k:
        return lexicon
    return replace(lexicon, entries=lexicon.entries[:k], top_k=k)


def write_tsv(lexicon: BilingualLexicon, path: str | Path) -> int:
    """Emit one ``source<TAB>translation`` row per translation, entry order."""
    rows = 0
    lines: list[str] = []
    for entry in lexicon.entries:
        for translation in entry.translations:
            lines.append(f"{entry.source}\t{translation}")
            rows += 1
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return rows
