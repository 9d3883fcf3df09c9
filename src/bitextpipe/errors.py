"""Exception hierarchy shared by all pipeline modules, the one line reader
that turns an unreadable input file into one of these errors, and the
digests of the files a run reads and writes."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterator


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class TagError(PipelineError):
    """Malformed or unknown language tag."""


class CorpusError(PipelineError):
    """Invalid corpus input: misaligned files, bad encoding, broken rows."""


class LexiconError(PipelineError):
    """Invalid or empty bilingual lexicon."""


class PlanError(PipelineError):
    """Sampling plan does not match the corpus it is applied to."""


class AugmentError(PipelineError):
    """Augmentation contract violation (e.g. non-English source side)."""


class MetricError(PipelineError):
    """Invalid metric input or configuration."""


class ConfigError(PipelineError):
    """Invalid run configuration (CLI flags, config file, train phase)."""


# Bytes of whole lines per read of the line reader. On the score-mixed
# benchmark (2 vCPUs), 256 KiB blocks peaked 0.8 MiB higher and ran no faster.
_READ_BLOCK = 1 << 16

# SHA-256 of each file this run read whole ("in", every byte to end of
# file) or renamed into place ("out"; None if forked workers wrote it), by
# (kind, real path). ``cli._execute`` sets a fresh dict per run and None
# after it, and a failed run unlinks the "out" files; while it is None
# (library calls), nothing is hashed.
digests: dict[tuple[str, str], str | None] | None = None


def iter_lines(
    path: str | Path, error: type[PipelineError], span: tuple[int, int, int] | None = None
) -> Iterator[str]:
    """The file's lines as UTF-8, one at a time, without line endings.

    The reader of every input file. Lines are split on ``\\n`` only and
    trailing ``\\r`` characters are dropped; no other character breaks a
    line, so every reader numbers lines alike. A missing or unreadable file
    raises ``error`` naming the path; invalid UTF-8 raises ``error`` naming
    the path and the line. Given a ``span``, only that range of the file is
    read (see :func:`iter_blocks`).
    """
    for start, block in iter_blocks(path, _READ_BLOCK, error, span):
        yield from decode_block(block, path, start, error)


def iter_blocks(
    path: str | Path,
    size: int,
    error: type[PipelineError],
    span: tuple[int, int, int] | None = None,
) -> Iterator[tuple[int, bytes]]:
    """Yield (index of the first line, raw bytes) blocks of whole lines.

    Each block ends at a newline, except a last line that has none, and
    holds at most ``size`` bytes unless one line is longer: that line
    makes a block of its own. The index counts lines from 0, so blocks
    can be processed apart and still know their line numbers.

    ``span`` is ``(lo, hi, first)``: the bytes ``[lo, hi)`` that a scan of
    the file found to hold whole lines, the first of them line index
    ``first``. Only those bytes are read, and their blocks are indexed from
    ``first``. If the file now holds fewer bytes there, or the range ends
    inside a line that the file goes on with, the file changed after the
    scan: ``error`` "<path>: changed while read" is raised. Without a
    span, a run hashes the bytes and records the digest at end of file
    (:data:`digests`), raising the same error if an earlier read differed.
    """
    lo, hi, start = span or (0, float("inf"), 0)
    sha = hashlib.sha256() if span is None and digests is not None else None
    try:
        with open(path, "rb") as handle:
            if lo:
                handle.seek(lo)
            left, pending = hi - lo, b""  # bytes of the span still to read
            # ``pending`` holds at most a partial line between reads; a read
            # fills a unit or, past half a unit, doubles the partial line, so
            # a very long line costs linear time.
            while left and (data := handle.read(min(max(size - len(pending), len(pending)),
                                                    left))):
                left -= len(data)
                if sha:
                    sha.update(data)
                pending += data
                # Whole lines within ``size`` bytes, or else the one longer line.
                while cut := pending.rfind(b"\n", 0, size) + 1 or pending.find(b"\n") + 1:
                    block, pending = pending[:cut], pending[cut:]
                    yield start, block
                    start += block.count(b"\n")
            if span and (left or pending and handle.read(1)):
                raise error(f"{path}: changed while read")
            if sha:  # a second whole read must hash alike
                key, digest = ("in", os.path.realpath(path)), sha.hexdigest()
                if digests.setdefault(key, digest) != digest:
                    raise error(f"{path}: changed while read")
            if pending:
                yield start, pending
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def decode_block(
    block: bytes, path: str | Path, start: int, error: type[PipelineError]
) -> Iterator[str]:
    """The lines of an :func:`iter_blocks` block, without line endings.

    ``start`` is the index of the block's first line. Invalid UTF-8 raises
    ``error`` naming the path and the line that holds the first bad byte,
    once the lines before it are yielded, as a line-by-line read would.
    """
    try:
        lines = block.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        # Decoding is reset at every newline: the lines before the bad one
        # decode, and the bad line fails alone.
        first = block.rfind(b"\n", 0, exc.start) + 1
        yield from decode_block(block[:first], path, start, error)
        end = block.find(b"\n", exc.start) + 1 or len(block)
        decode_line(block[first:end], path, start + block.count(b"\n", 0, first) + 1, error)
        raise
    if lines[-1] == "":
        lines.pop()
    for line in lines:
        yield line.rstrip("\r")


def decode_line(
    raw: bytes, path: str | Path, lineno: int, error: type[PipelineError]
) -> str:
    """One raw line as text; invalid UTF-8 raises ``error`` naming the path and line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at line {lineno}: {exc}") from exc
