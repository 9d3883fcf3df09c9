"""Parallel corpus ingestion, statistics, reduction, and reversal.

Two representations are used. Library operations work on in-memory
:class:`ParallelCorpus` values. The CLI streams every command in constant
memory regardless of corpus size: raw TSV fields go through
:func:`iter_fields` / :func:`write_tsv_rows`, and the selection commands
(``sample``, ``seed-select``) validate rows with :func:`iter_tsv_rows`,
spill them to disk and copy the chosen rows' bytes out with
:func:`write_tsv_bytes` (see :mod:`selection`). Both representations call
the same cores: :func:`split_row` (the field check), :func:`check_tags`
(the tag check, with :func:`lang.parse_tag`'s messages), :func:`clean_rows`
(the cleaning loop around :func:`clean_pair`, the empty-side rule),
:func:`accounting_language` (the accounting rule), :func:`reduce_keep`
(the reduction plan) and ``selection.Selection`` (the draw).

Wire format (one sentence pair per line)::

    src_lang<TAB>tgt_lang<TAB>source<TAB>target<TAB>subset[<TAB>origin]

The optional sixth column tags mixture provenance (``orig``, ``rev``,
``aug``, ``seed:<subset>``) and is ignored when a plain corpus is read.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Callable, Collection, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import CorpusError, TagError
from .lang import ENGLISH, LANGUAGE_NAMES, LanguageTag, parse_tag
from .rng import derive_rng, pick

K = TypeVar("K")
L = TypeVar("L")
T = TypeVar("T")

DEFAULT_SUBSET = "general"

# Languages with more parallel sentences than this are thinned at reduce
# time; the bound is strict ("over", not "at or over").
HIGH_RESOURCE_THRESHOLD = 10_000_000
HIGH_RESOURCE_FACTOR = 0.5


def clean_text(text: str) -> str:
    """Normalize whitespace: strip the ends, collapse inner runs to one space.

    Keeps every sentence TSV-safe (no tabs or newlines survive).
    """
    return " ".join(text.split())


@dataclass(frozen=True, slots=True)
class SentencePair:
    """One aligned bitext record with direction and provenance metadata."""

    source: str
    target: str
    src_lang: LanguageTag
    tgt_lang: LanguageTag
    subset: str = DEFAULT_SUBSET

    def __post_init__(self) -> None:
        if self.src_lang == self.tgt_lang:
            raise CorpusError(f"source and target language are both {self.src_lang}")
        for name, value in (("source", self.source), ("target", self.target)):
            if not value.strip():
                raise CorpusError(f"{name} text is empty")
            if "\t" in value or "\n" in value:
                raise CorpusError(f"{name} text contains a tab or newline")
        if "\t" in self.subset or "\n" in self.subset:
            raise CorpusError("subset label contains a tab or newline")


@dataclass(frozen=True, slots=True)
class ParallelCorpus:
    """An ordered, immutable sequence of sentence pairs."""

    pairs: tuple[SentencePair, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)

    def __getitem__(self, index: int) -> SentencePair:
        return self.pairs[index]


@dataclass(frozen=True)
class CorpusStats:
    """Exact per-language pair counts keyed by accounting language."""

    counts: Mapping[LanguageTag, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def rows(self) -> list[tuple[LanguageTag, int]]:
        """(tag, count) rows ordered by rendered tag."""
        return sorted(self.counts.items(), key=lambda item: str(item[0]))


@dataclass(frozen=True)
class IngestReport:
    """Pairs kept and (line number, reason) records for dropped lines."""

    kept: int
    skipped: tuple[tuple[int, str], ...] = ()

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


# English as a tag and rendered, so the rule serves pairs and raw fields alike.
_ENGLISH_FORMS = frozenset((ENGLISH, str(ENGLISH)))


def accounting_language(src_lang: L, tgt_lang: L) -> L:
    """The language a pair is counted and grouped under.

    For English-centric pairs this is the non-English side; for pairs
    without an English side the target side is used. Takes the pair's two
    tags, both :class:`LanguageTag` values or both rendered.
    """
    return src_lang if tgt_lang in _ENGLISH_FORMS else tgt_lang


def iter_lines(path: str | Path) -> Iterator[str]:
    """Yield lines without trailing newlines, reporting bad UTF-8 by line.

    Lines are split in binary so a decoding error is attributed to the
    exact line it occurs on.
    """
    try:
        with open(path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorpusError(
                        f"{path}: invalid UTF-8 at line {lineno}: {exc}"
                    ) from exc
                yield line.rstrip("\r\n")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc


def ingest(
    source_path: str | Path,
    target_path: str | Path,
    src_lang: LanguageTag,
    tgt_lang: LanguageTag,
    subset: str = DEFAULT_SUBSET,
) -> tuple[ParallelCorpus, IngestReport]:
    """Build a corpus from two line-aligned text files.

    Lines that are empty after trimming on either side drop the pair; the
    drops are recorded in the returned report. Unequal line counts raise.
    """
    skipped: list[tuple[int, str]] = []
    rows = iter_paired_rows(source_path, target_path, src_lang, tgt_lang, subset)
    pairs = tuple(
        SentencePair(src, tgt, src_tag, tgt_tag, label)
        for src_tag, tgt_tag, src, tgt, label in clean_rows(rows, skipped)
    )
    return ParallelCorpus(pairs), IngestReport(len(pairs), tuple(skipped))


def clean_rows(
    rows: Iterable[tuple[int, Sequence]],
    skipped: list[tuple[int, str]],
    excluded: Collection[str] = (),
) -> Iterator[tuple]:
    """The first five fields of each kept (line number, fields) row, texts cleaned.

    A row dropped by :func:`clean_pair`, or whose subset is in ``excluded``,
    appends (line number, reason) to ``skipped`` instead.
    """
    for lineno, fields in rows:
        source, target, reason = clean_pair(fields[2], fields[3])
        subset = fields[4]
        if subset in excluded:
            reason = f"excluded subset:{subset}"
        if reason:
            skipped.append((lineno, reason))
        else:
            yield fields[0], fields[1], source, target, subset


def clean_pair(source: str, target: str) -> tuple[str, str, str | None]:
    """Whitespace-normalize both sides; the reason to skip the pair, if any.

    A pair is skipped when either side is empty after normalization.
    """
    source = clean_text(source)
    target = clean_text(target)
    if source and target:
        return source, target, None
    if not source and not target:
        return source, target, "both sides empty"
    return source, target, "empty source" if not source else "empty target"


def iter_paired_rows(
    source_path: str | Path, target_path: str | Path, src_lang: L, tgt_lang: L, subset: str
) -> Iterator[tuple[int, tuple]]:
    """Yield (line number, fields) of two line-aligned files; raise on misalignment.

    The fields are ``src_lang, tgt_lang, source line, target line, subset``.
    """
    if src_lang == tgt_lang:
        raise CorpusError("source and target language are equal")
    lines = itertools.zip_longest(iter_lines(source_path), iter_lines(target_path))
    for lineno, (src, tgt) in enumerate(lines, start=1):
        if src is None or tgt is None:
            longer = target_path if src is None else source_path
            raise CorpusError(
                f"line-count mismatch: {longer} has more than {lineno - 1} lines "
                f"but the other file ended"
            )
        yield lineno, (src_lang, tgt_lang, src, tgt, subset)


def stats(corpus: ParallelCorpus) -> CorpusStats:
    """Count pairs per accounting language."""
    return CorpusStats(dict(Counter(accounting_language(p.src_lang, p.tgt_lang) for p in corpus)))


def stats_from_counts(counts: Mapping[LanguageTag, int]) -> CorpusStats:
    """Wrap externally counted totals (e.g. a manifest of shard counts)."""
    for tag, count in counts.items():
        if count < 0:
            raise CorpusError(f"negative count for {tag}")
    return CorpusStats(dict(counts))


def reduce_highresource(
    corpus: ParallelCorpus,
    threshold: int = HIGH_RESOURCE_THRESHOLD,
    factor: float = HIGH_RESOURCE_FACTOR,
    seed: int = 0,
) -> ParallelCorpus:
    """Thin every language whose pair count strictly exceeds ``threshold``.

    Over-threshold languages keep ``ceil(factor * n)`` pairs chosen by
    seeded uniform sampling without replacement; survivors stay in their
    original order. Languages at or below the threshold pass through
    untouched. Deterministic given (corpus, seed).
    """
    keep = reduce_keep(stats(corpus).counts, threshold, factor, seed)
    if not keep:
        return corpus
    kept = keep_ordinals(corpus, lambda p: accounting_language(p.src_lang, p.tgt_lang), keep)
    return ParallelCorpus(tuple(kept))


def reduce_keep(
    counts: Mapping[K, int], threshold: int, factor: float, seed: int
) -> dict[K, bytearray]:
    """The reduction plan: a bitmap of the surviving ordinals of each over-threshold key.

    Keys are accounting languages (tags or rendered tags), counted in
    corpus order; ordinal ``i`` is the key's ``i``-th pair and survives
    when ``mask[i >> 3] >> (i & 7) & 1`` (see :func:`rng.sample_mask`).
    Keys at or below the threshold are absent from the plan and keep every
    pair. The plan holds n/8 bytes per pair of an over-threshold key.
    """
    if not 0.0 < factor <= 1.0:
        raise CorpusError(f"factor must be in (0, 1], got {factor}")
    if threshold <= 0:
        raise CorpusError(f"threshold must be positive, got {threshold}")
    plan = {}
    for key, n in counts.items():
        if n > threshold:
            full, mask = pick(n, math.ceil(factor * n), derive_rng(seed, "reduce", str(key)))
            plan[key] = bytearray(b"\xff" * len(mask)) if full else mask
    return plan


def keep_ordinals(
    items: Iterable[T], key: Callable[[T], K], keep: Mapping[K, bytearray]
) -> Iterator[T]:
    """Stream the items a :func:`reduce_keep` plan retains, in order."""
    seen: dict[K, int] = {}
    for item in items:
        k = key(item)
        ordinal = seen.get(k, 0)
        seen[k] = ordinal + 1
        chosen = keep.get(k)
        if chosen is None or chosen[ordinal >> 3] >> (ordinal & 7) & 1:
            yield item


def reverse(corpus: ParallelCorpus) -> ParallelCorpus:
    """Swap source/target text and tags for every pair, preserving order."""
    return ParallelCorpus(tuple(reverse_pair(pair) for pair in corpus))


def reverse_pair(pair: SentencePair) -> SentencePair:
    return replace(
        pair,
        source=pair.target,
        target=pair.source,
        src_lang=pair.tgt_lang,
        tgt_lang=pair.src_lang,
    )


# ---------------------------------------------------------------------------
# TSV wire format


def format_tsv_row(pair: SentencePair, origin: str | None = None) -> str:
    fields = [str(pair.src_lang), str(pair.tgt_lang), pair.source, pair.target, pair.subset]
    if origin is not None:
        fields.append(origin)
    return "\t".join(fields)


def split_row(line: str, path: str | Path, lineno: int) -> list[str]:
    """The tab-separated fields of one corpus line; 5 or 6 are required."""
    fields = line.split("\t")
    if len(fields) not in (5, 6):
        raise CorpusError(
            f"{path}:{lineno}: expected 5 or 6 tab-separated fields, got {len(fields)}"
        )
    return fields


def check_tags(
    fields: Sequence[str], valid_tags: Collection[str], path: str | Path, lineno: int
) -> None:
    """Reject the row if a tag is outside ``valid_tags`` (a superset of the registry).

    The error is :func:`lang.parse_tag`'s, located at ``<path>:<line>``.
    """
    if fields[0] in valid_tags and fields[1] in valid_tags:
        return
    for tag in fields[0], fields[1]:
        if tag not in valid_tags:
            try:
                parse_tag(tag)
            except TagError as exc:
                raise TagError(f"{path}:{lineno}: {exc}") from None


def iter_fields(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Stream (line number, raw fields) from a corpus TSV."""
    for lineno, line in enumerate(iter_lines(path), start=1):
        yield lineno, split_row(line, path, lineno)


def iter_tsv_rows(
    path: str | Path, extra_tags: Collection[LanguageTag] = ()
) -> Iterator[tuple[int, SentencePair]]:
    """Stream (line number, pair) from a corpus TSV, validating tags.

    Every tag, field and text error names ``<path>:<line>``.
    """
    for lineno, fields in iter_fields(path):
        try:
            src_lang = parse_tag(fields[0], extra_tags)
            tgt_lang = parse_tag(fields[1], extra_tags)
            pair = SentencePair(fields[2], fields[3], src_lang, tgt_lang, fields[4])
        except (CorpusError, TagError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
        yield lineno, pair


def read_tsv(path: str | Path, extra_tags: Collection[LanguageTag] = ()) -> ParallelCorpus:
    return ParallelCorpus(tuple(pair for _, pair in iter_tsv_rows(path, extra_tags)))


def write_tsv(
    corpus: Iterable[SentencePair],
    path: str | Path,
    origins: Iterable[str] | None = None,
) -> int:
    """Write pairs to TSV, optionally with a sixth origin column.

    Returns the number of rows written. The write is atomic: output lands
    in a temp file renamed into place on success.
    """
    if origins is None:
        rows = (format_tsv_row(pair) for pair in corpus)
    else:
        rows = (
            format_tsv_row(pair, origin)
            for pair, origin in zip(corpus, origins, strict=True)
        )
    return write_tsv_rows(rows, path)


def write_tsv_rows(rows: Iterable[str], path: str | Path) -> int:
    """Write one line per row atomically; returns the number of rows."""
    count = 0
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write(row)
            handle.write("\n")
            count += 1
    return count


def write_tsv_bytes(lines: Iterable[bytes], path: str | Path) -> None:
    """Write already encoded lines (newline included) atomically, as bytes."""
    with _atomic_open(path, "wb") as handle:
        handle.writelines(lines)


@contextlib.contextmanager
def _atomic_open(path: str | Path, mode: str, **kwargs) -> Iterator[IO]:
    """Open ``<path>.tmp``; rename it to ``path`` if the block succeeds, else delete it."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as handle:
            yield handle
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


def write_skip_report(report: IngestReport, path: str | Path) -> None:
    """Plain-text sidecar: one ``<line>\\t<reason>`` row per dropped pair."""
    lines = [f"{lineno}\t{reason}" for lineno, reason in report.skipped]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def format_stats_table(stats_value: CorpusStats) -> str:
    """Aligned Language / Script / pairs table with a total row."""
    rows = []
    for tag, count in stats_value.rows():
        name = LANGUAGE_NAMES.get(tag.code, tag.code)
        rows.append((name, tag.script, count))
    name_w = max([len(r[0]) for r in rows] + [len("Language")])
    script_w = max([len(r[1]) for r in rows] + [len("Script")])
    count_w = max([len(f"{r[2]:,}") for r in rows] + [len("pairs"), len(f"{stats_value.total:,}")])
    out = [f"{'Language':<{name_w}}  {'Script':<{script_w}}  {'pairs':>{count_w}}"]
    for name, script, count in rows:
        out.append(f"{name:<{name_w}}  {script:<{script_w}}  {count:>{count_w},}")
    out.append(f"{'Total':<{name_w}}  {'':<{script_w}}  {stats_value.total:>{count_w},}")
    return "\n".join(out)
