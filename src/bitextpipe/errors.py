"""Exception hierarchy shared by all pipeline modules, and the one reader
that turns an unreadable input file into one of these errors."""

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


def read_text(path: str | Path, error: type[PipelineError]) -> str:
    """The whole file decoded as UTF-8, with no newline translation.

    A missing or unreadable file raises ``error`` naming the path; invalid
    UTF-8 raises ``error`` naming the path and the line, counted in ``\\n``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: invalid UTF-8 at line {lineno}: {exc}") from exc
