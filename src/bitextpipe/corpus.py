"""Parallel corpus ingestion, statistics, reduction, and reversal.

Two representations are used. Library operations work on in-memory
:class:`ParallelCorpus` values. The CLI streams every command in
constant memory, on raw TSV fields: corpus commands read checked ``(line
number, fields)`` rows from :func:`iter_tsv_rows` and write lines by
:func:`encode_rows`, through :func:`write_tsv_rows` or :func:`ordered_map`.
Files are read by the blocks of
:func:`errors.iter_blocks` and written by :func:`_atomic_open`.
:func:`read_tsv` builds pairs from the same rows. Both representations
call the same cores: :func:`check_rows` (:func:`split_row`, the field
check; :func:`check_tags`, with :func:`lang.parse_tag`'s messages;
:func:`check_pair`, the rules every :class:`SentencePair` obeys),
:func:`clean_pair` (the empty-side rule), :func:`accounting_language`
(the accounting rule) and ``selection.draw`` (the draw of ``reduce``,
``sample`` and ``seed-select``, in input order, by
:func:`rng.selection_sample`).

``ingest``, ``stats``, the counting reads of ``reduce``, ``sample`` and
``seed-select``, ``augment``, ``mixture`` and ``score`` each have one work
function (:data:`Work`), run by :func:`ordered_map`, the one worker map,
on the tasks of :func:`file_tasks`: a whole input file read in this
process, or at ``--threads`` 2 or more the newline-aligned ranges of
:func:`file_ranges`, which forked workers read themselves
(:func:`iter_lines` given a span), writing their output to the shared
output files in range order. No output crosses a pipe, and the bytes are
those of one process at any thread count. :func:`usable_cpus` is the
default thread count.

Wire format (one sentence pair per line)::

    src_lang<TAB>tgt_lang<TAB>source<TAB>target<TAB>subset[<TAB>origin]

The optional sixth column tags mixture provenance (``orig``, ``rev``,
``aug``, ``seed:<subset>``) and is ignored when a plain corpus is read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import stat
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (TYPE_CHECKING, BinaryIO, Callable, Collection, Generator, Iterable,
                    Iterator, Mapping, Sequence, TypeVar)

from . import errors
from .errors import CorpusError, TagError
from .lang import ENGLISH, LANGUAGE_NAMES, LanguageTag, parse_tag, rendered_tags

if TYPE_CHECKING:
    from .selection import Keyed, Selection

K = TypeVar("K")
L = TypeVar("L")
P = TypeVar("P")
S = TypeVar("S")
T = TypeVar("T")

DEFAULT_SUBSET = "general"

# Languages with more parallel sentences than this are thinned at reduce
# time; the bound is strict ("over", not "at or over").
HIGH_RESOURCE_THRESHOLD = 10_000_000
HIGH_RESOURCE_FACTOR = 0.5

# The rendered registry tags: what a corpus row may carry by default.
_REGISTRY_TAGS = frozenset(rendered_tags())

# Characters of rows that :func:`encode_rows` encodes into one piece.
_WRITE_BATCH = 1 << 16

# A work function's generator for one task: it yields ``(output index,
# bytes)`` pieces and returns its part (see :func:`ordered_map`).
Work = Generator[tuple[int, bytes], None, P]


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
        check_pair(self.src_lang, self.tgt_lang, self.source, self.target)
        for name, value in (("source", self.source), ("target", self.target)):
            if "\t" in value or "\n" in value:
                raise CorpusError(f"{name} text contains a tab or newline")
        if "\t" in self.subset or "\n" in self.subset:
            raise CorpusError("subset label contains a tab or newline")


def check_pair(src_lang: L, tgt_lang: L, source: str, target: str) -> None:
    """The pair rules on tags and texts: the languages differ, neither text is blank.

    Tags are both :class:`LanguageTag` values or both rendered. A blank
    text is tested with ``isspace``, which copies nothing.
    """
    if src_lang == tgt_lang:
        raise CorpusError(f"source and target language are both {src_lang}")
    if not source or source.isspace():
        raise CorpusError("source text is empty")
    if not target or target.isspace():
        raise CorpusError("target text is empty")


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


def iter_lines(path: str | Path, span: tuple[int, int, int] | None = None) -> Iterator[str]:
    """:func:`errors.iter_lines` with :class:`CorpusError` errors."""
    return errors.iter_lines(path, CorpusError, span)


# The cgroup file system: cgroup v2 keeps the CPU quota in ``cpu.max``
# ("<quota> <period>", or "max <period>"), cgroup v1 in
# ``cpu/cpu.cfs_quota_us`` (-1: none) and ``cpu/cpu.cfs_period_us``.
CGROUP_ROOT = Path("/sys/fs/cgroup")


def usable_cpus() -> int:
    """The CPUs this process may use: the default worker count.

    The smaller of the CPUs in the affinity mask and the cgroup CPU quota,
    rounded up to whole CPUs; ``max``, ``-1`` or an unreadable file means
    no quota.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    quota = _first_line(CGROUP_ROOT / "cpu.max").split()
    if len(quota) != 2:
        quota = [_first_line(CGROUP_ROOT / "cpu" / f"cpu.cfs_{name}_us")
                 for name in ("quota", "period")]
    try:
        limit, period = map(int, quota)
    except ValueError:
        return cpus
    return min(cpus, -(-limit // period)) if limit > 0 and period > 0 else cpus


def _first_line(path: Path) -> str:
    """The first line of a small file; empty if it cannot be read."""
    try:
        return next(errors.iter_lines(path, CorpusError), "")
    except CorpusError:
        return ""


# Bytes of whole lines in one range: a command that spreads its input over
# worker processes cuts it into ranges of this size at line ends, and each
# worker reads, works on and holds the output of one range at a time. On
# the pretrain-zipf benchmark input (2 vCPUs), 64 KiB units ran 25-40%
# slower at two workers and 1 MiB units peaked 8 MiB higher.
RANGE_BYTES = 1 << 18


# Inputs smaller than this, together, stay in one process: forking and
# reaping the workers costs more than they save. On 2 vCPUs, `ingest` at
# two workers ran 29 ms slower than one process on a 0.9 MB input, 15 ms
# slower on 2 MB and as fast on 4 MB.
SPREAD_BYTES = 1 << 22


def use_workers(threads: int, *paths: str | Path) -> bool:
    """Whether a command spreads ``paths`` over worker processes.

    It does at two threads or more where the platform can fork, when every
    path is a regular file and together they hold :data:`SPREAD_BYTES` or
    more. Otherwise the command reads each input whole in this process.
    """
    if threads < 2 or not hasattr(os, "fork"):
        return False
    try:
        found = [os.stat(path) for path in paths]
    except OSError:  # the one-process read reports it
        return False
    regular = all(stat.S_ISREG(st.st_mode) for st in found)
    return regular and sum(st.st_size for st in found) >= SPREAD_BYTES


def file_ranges(path: str | Path) -> Iterator[tuple[int, int, int]]:
    """The ``(lo, hi, first line index)`` span of each range of the file, in order.

    A range holds the whole lines of up to :data:`RANGE_BYTES` bytes (a
    longer line makes one of its own); :func:`iter_lines` given its span
    reads it back, numbering its lines as a read of the whole file would.
    """
    lo = 0
    for start, block in errors.iter_blocks(path, RANGE_BYTES, CorpusError):
        yield lo, lo + len(block), start
        lo += len(block)


def file_tasks(
    threads: int, paths: Sequence[str | Path], keys: Sequence | None = None
) -> tuple[Iterator[tuple], int]:
    """The ``(key, span)`` tasks of an :func:`ordered_map` over files, and its threads.

    The key is the file's entry in ``keys``, by default its path. With
    workers (:func:`use_workers`), each file's spans are its
    :func:`file_ranges`; otherwise a file is one task, span None, read
    whole in this process.
    """
    keyed = list(zip(paths if keys is None else keys, paths))
    if not use_workers(threads, *dict.fromkeys(paths)):
        return ((key, None) for key, _ in keyed), 1
    return ((key, span) for key, path in keyed for span in file_ranges(path)), threads


def ordered_map(
    tasks: Iterable[T],
    threads: int,
    compute: Callable[[T], Work[P]],
    add: Callable[[S, P], S],
    token: S,
    paths: Sequence[str | Path] = (),
) -> S:
    """Run ``compute`` on every task, on up to ``threads`` workers; apply the results in order.

    The one worker map of the package. ``compute(task)`` (:data:`Work`)
    yields pieces ``(i, data)``, bytes for output ``paths[i]``, and returns
    a part. Applying the result writes the pieces to the outputs, opened
    with :func:`_atomic_open`, and makes the token ``add(token, part)``;
    the last token is returned. The token crosses a pipe at every task, so
    keep it small. Results are applied in task order, so outputs and token
    equal those of one process at any thread count.

    Up to ``threads`` tasks are read ahead. With fewer than two, or where
    the platform cannot fork, everything runs in this process and each
    piece is written as it comes. Otherwise ``n`` workers are forked, and
    worker ``i`` computes tasks ``i``, ``i + n``, ...: this process sends
    each task on the worker's task pipe, and a worker that has computed one
    holds its pieces until the token comes from the worker before it,
    writes them through its inherited output descriptors, and passes the
    token on. No result crosses a pipe, only the token.

    The first error in task order is raised here: an error of ``compute``
    or of applying is raised once the results before it are applied, and an
    error from iterating ``tasks`` once the tasks before it are. When the
    map ends, on success or on any error or interrupt, every worker has
    been reaped; a worker that dies raises :class:`errors.PipelineError`.
    """
    with contextlib.ExitStack() as stack:
        outputs = [stack.enter_context(_atomic_open(path)) for path in paths]
        tasks, ahead = iter(tasks), []
        try:
            for task in itertools.islice(tasks, threads):
                ahead.append(task)
        except Exception as exc:  # raised after the tasks read before it
            tasks = _raising(exc)
        if len(ahead) >= 2 and hasattr(os, "fork"):
            from .ring import Ring

            for handle in outputs:  # written by the workers: digest unknown here
                handle.raw.sha = None
            return Ring(len(ahead), compute, add, outputs).run(ahead, tasks, token)
        writes = [handle.write for handle in outputs]
        for task in itertools.chain(ahead, tasks):
            token = add(token, drain(compute(task), writes))
        return token


def drain(work: Work[P], writes: Sequence[Callable[[bytes], object]]) -> P:
    """Pass each ``(i, data)`` piece of ``work`` to ``writes[i]``; return its part."""
    while True:
        try:
            index, data = next(work)
        except StopIteration as stop:
            return stop.value
        writes[index](data)


def _raising(exc: Exception) -> Iterator:
    """An iterator that raises ``exc`` when it is reached."""
    raise exc
    yield  # a generator: nothing is raised before it is iterated


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
    pairs: list[SentencePair] = []
    skipped: list[tuple[int, str]] = []
    for lineno, (src_tag, tgt_tag, src, tgt, label) in iter_paired_rows(
        source_path, target_path, src_lang, tgt_lang, subset
    ):
        src, tgt, reason = clean_pair(src, tgt)
        if reason:
            skipped.append((lineno, reason))
        else:
            pairs.append(SentencePair(src, tgt, src_tag, tgt_tag, label))
    return ParallelCorpus(tuple(pairs)), IngestReport(len(pairs), tuple(skipped))


def clean_rows(rows: Iterable[tuple[int, Sequence]], excluded: Collection[str] = ()
               ) -> Work[tuple[int, int]]:
    """``ingest``'s work: (line number, fields) rows cleaned, as pieces of two outputs.

    A row that :func:`clean_pair` drops, or whose subset is in
    ``excluded``, is one piece of output 1, the skip report:
    ``<line>\\t<reason>``. Each kept row goes to output 0, its first five
    fields tab-joined, texts cleaned, in pieces of about
    :data:`_WRITE_BATCH` characters. Returns the rows kept and dropped.
    """
    kept = dropped = size = 0
    batch: list[str] = []
    for lineno, fields in rows:
        source, target, reason = clean_pair(fields[2], fields[3])
        if fields[4] in excluded:
            reason = f"excluded subset:{fields[4]}"
        if reason:
            dropped += 1
            yield 1, f"{lineno}\t{reason}\n".encode("utf-8")
            continue
        line = f"{fields[0]}\t{fields[1]}\t{source}\t{target}\t{fields[4]}"
        batch += line, "\n"
        size += len(line)
        if size >= _WRITE_BATCH:
            yield 0, "".join(batch).encode("utf-8")
            kept += len(batch) // 2
            size, batch = 0, []
    if batch:
        yield 0, "".join(batch).encode("utf-8")
    return kept + (len(batch) // 2), dropped


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


def pair_language(pair: SentencePair) -> LanguageTag:
    """The accounting language of a pair."""
    return accounting_language(pair.src_lang, pair.tgt_lang)


def stats(corpus: ParallelCorpus) -> CorpusStats:
    """Count pairs per accounting language."""
    return CorpusStats(dict(Counter(map(pair_language, corpus))))


def stats_from_counts(counts: Mapping[LanguageTag, int]) -> CorpusStats:
    """Wrap externally counted totals (e.g. a manifest of shard counts)."""
    for tag, count in counts.items():
        if count < 0:
            raise CorpusError(f"negative count for {tag}")
    return CorpusStats(dict(counts))


def reduce_highresource(
    corpus: ParallelCorpus | Keyed,
    threshold: int = HIGH_RESOURCE_THRESHOLD,
    factor: float = HIGH_RESOURCE_FACTOR,
    seed: int = 0,
) -> ParallelCorpus | Selection:
    """Thin every language whose pair count strictly exceeds ``threshold``.

    Over-threshold languages keep ``ceil(factor * n)`` pairs chosen by
    seeded uniform sampling without replacement; survivors stay in their
    original order. Languages at or below the threshold pass through
    untouched. Deterministic given (corpus, seed). Pairs, or items keyed
    by accounting language, as ``selection.draw`` takes them.
    """
    from .selection import draw

    if not 0.0 < factor <= 1.0:
        raise CorpusError(f"factor must be in (0, 1], got {factor}")
    if threshold <= 0:
        raise CorpusError(f"threshold must be positive, got {threshold}")

    def keep(counts: Mapping[K, int]) -> dict[K, int]:
        return {key: math.ceil(factor * n) if n > threshold else n for key, n in counts.items()}

    return draw(corpus, pair_language, keep, seed, "reduce")


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


def check_rows(
    lines: Iterable[str], valid_tags: Collection[str], path: str | Path, start: int = 0
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each corpus line, checked as :func:`read_tsv` checks it.

    ``start`` is the index of the first line. A row needs 5 or 6 fields
    (:func:`split_row`), tags in ``valid_tags`` (:func:`check_tags`) and
    :func:`check_pair`'s rules; every error names ``<path>:<line>``.
    """
    for lineno, line in enumerate(lines, start + 1):
        fields = split_row(line, path, lineno)
        check_tags(fields, valid_tags, path, lineno)
        try:
            check_pair(fields[0], fields[1], fields[2], fields[3])
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        yield lineno, fields


def iter_fields(
    path: str | Path, span: tuple[int, int, int] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Stream (line number, raw fields) from a corpus TSV; only the field count is checked.

    Given a :func:`file_ranges` span, only that range is read.
    """
    for lineno, line in enumerate(iter_lines(path, span), start=span[2] + 1 if span else 1):
        yield lineno, split_row(line, path, lineno)


def iter_tsv_rows(
    path: str | Path,
    valid_tags: Collection[str] = _REGISTRY_TAGS,
    span: tuple[int, int, int] | None = None,
) -> Iterator[tuple[int, list[str]]]:
    """Stream checked (line number, fields) rows from a corpus TSV (see :func:`check_rows`).

    ``valid_tags`` holds the rendered tags a row may carry, as
    :func:`lang.rendered_tags` gives them; by default the registry's. Given
    a :func:`file_ranges` span, only that range is read.
    """
    return check_rows(iter_lines(path, span), valid_tags, path, span[2] if span else 0)


def read_tsv(path: str | Path, extra_tags: Collection[LanguageTag] = ()) -> ParallelCorpus:
    """The pairs of a corpus TSV, from the rows :func:`iter_tsv_rows` checks."""
    tags = rendered_tags(extra_tags)
    return ParallelCorpus(tuple(
        SentencePair(f[2], f[3], tags[f[0]], tags[f[1]], f[4])
        for _, f in iter_tsv_rows(path, tags)
    ))


def write_tsv(
    corpus: Iterable[SentencePair],
    path: str | Path,
    origins: Iterable[str] | None = None,
) -> int:
    """Write pairs to TSV, optionally with a sixth origin column.

    Returns the number of rows written. The write is atomic: output lands
    in a temp file renamed into place on success.
    """
    rows = (f"{p.src_lang}\t{p.tgt_lang}\t{p.source}\t{p.target}\t{p.subset}" for p in corpus)
    if origins is not None:
        rows = (f"{row}\t{origin}" for row, origin in zip(rows, origins, strict=True))
    return write_tsv_rows(rows, path)


def write_tsv_rows(rows: Iterable[str], path: str | Path) -> int:
    """Write one line per row atomically; returns the number of rows."""
    with _atomic_open(path) as handle:
        return drain(encode_rows(rows), [handle.write])


def encode_rows(rows: Iterable[str]) -> Work[int]:
    """Each row and a newline, UTF-8, as pieces of output 0; returns the row count.

    A piece holds about :data:`_WRITE_BATCH` characters: pieces this size
    are reused from the heap rather than mapped fresh.
    """
    count = size = 0
    batch: list[str] = []
    for row in rows:
        batch += row, "\n"
        size += len(row)
        if size >= _WRITE_BATCH:
            yield 0, "".join(batch).encode("utf-8")
            count += len(batch) // 2
            size, batch = 0, []
    if batch:
        yield 0, "".join(batch).encode("utf-8")
    return count + (len(batch) // 2)


@contextlib.contextmanager
def _atomic_open(path: str | Path) -> Iterator[BinaryIO]:
    """Open a new binary temp file beside ``path``; rename it over ``path``
    if the block succeeds, else delete it.

    The one writer of every output file. Each call gets its own
    ``<path>.<random>.tmp``, so concurrent writers to one path never share a
    temp file: the last to finish wins, whole. The file is created with mode
    0666 less the umask, as ``open`` would. As with ``open``, a symlink is
    written through (the rename lands on its target) and an existing path
    that is not a regular file (``/dev/null``, a pipe) is written in place,
    since a rename would replace it. In a run, what this process writes is
    hashed, and the digest recorded in :data:`errors.digests`.
    """
    given = Path(path)
    if given.exists() and not given.is_file():
        with open(given, "wb") as handle:
            yield handle
        return
    path = Path(os.path.realpath(given))
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # name the output, not the temp file
            raise OSError(exc.errno, exc.strerror, str(given)) from None
    try:
        raw = _HashingFile(fd, "w")
        raw.sha = hashlib.sha256() if errors.digests is not None else None
        with io.BufferedWriter(raw) as handle:
            yield handle
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    if errors.digests is not None:
        errors.digests["out", str(path)] = raw.sha and raw.sha.hexdigest()


class _HashingFile(io.FileIO):
    """An output file that hashes the bytes written to it while ``sha`` is set."""

    def write(self, data) -> int:
        n = super().write(data)
        if self.sha:
            self.sha.update(memoryview(data)[:n])
        return n


def write_skip_report(report: IngestReport, path: str | Path) -> None:
    """Plain-text sidecar: one ``<line>\\t<reason>`` row per dropped pair."""
    write_tsv_rows((f"{lineno}\t{reason}" for lineno, reason in report.skipped), path)


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
