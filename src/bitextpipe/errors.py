"""Exception hierarchy shared by all pipeline modules, and the one line
reader that turns an unreadable input file into one of these errors."""

from __future__ import annotations

from pathlib import Path


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


def read_lines(path: str | Path, error: type[PipelineError]) -> list[str]:
    """The file's lines as UTF-8, split on ``\\n`` only, without line endings.

    Trailing ``\\r`` characters are dropped from each line; no other
    character breaks a line, so line numbers agree with
    :func:`corpus.iter_lines`. A missing or unreadable file raises
    ``error`` naming the path; invalid UTF-8 raises ``error`` naming the
    path and the line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: invalid UTF-8 at line {lineno}: {exc}") from exc
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines]
