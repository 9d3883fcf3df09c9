"""Exception hierarchy shared by all pipeline modules, and the one line
reader that turns an unreadable input file into one of these errors."""

from __future__ import annotations

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


def iter_lines(path: str | Path, error: type[PipelineError]) -> Iterator[str]:
    """The file's lines as UTF-8, one at a time, without line endings.

    Lines are split on ``\\n`` only and trailing ``\\r`` characters are
    dropped; no other character breaks a line, so every reader numbers
    lines alike. A missing or unreadable file raises ``error`` naming the
    path; invalid UTF-8 raises ``error`` naming the path and the line.
    """
    try:
        with open(path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                yield decode_line(raw, path, lineno, error).rstrip("\r\n")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def decode_line(
    raw: bytes, path: str | Path, lineno: int, error: type[PipelineError]
) -> str:
    """One raw line as text; invalid UTF-8 raises ``error`` naming the path and line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at line {lineno}: {exc}") from exc
