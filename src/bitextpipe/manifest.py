"""Run manifests: the config a run read, its seed and input/output digests.

A run writes its manifest last, beside its first output, as
``<output>.run.json``. Its digests are of the bytes the run read and
wrote. Two runs with the same config, seed and input digests must
produce the same output digests; wall time is recorded for
bookkeeping and is the only field allowed to differ.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import errors
from .corpus import write_tsv_rows

VERSION = "0.4.0"


def sha256_file(path: str | Path, kind: str = "in") -> str:
    """SHA-256 of ``path`` as this run read it whole (``kind`` "in") or wrote it ("out").

    The digest in :data:`errors.digests`; if none was recorded (workers
    wrote the file, or it was not read to its end), it is read now, 64 KiB at a time.
    """
    recorded = errors.digests and errors.digests.get((kind, os.path.realpath(path)))
    if recorded:
        return recorded
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None
    # SHA-256 per path; None for a path that is not a regular file (a pipe)
    inputs: dict[str, str | None] = field(default_factory=dict)
    outputs: dict[str, str | None] = field(default_factory=dict)
    wall_time_s: float = 0.0
    version: str = VERSION

    def write(self, path: str | Path) -> None:
        doc = dict(vars(self), wall_time_s=round(self.wall_time_s, 3))  # in field order
        write_tsv_rows([json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=False)], path)


def manifest_path_for(output: str | Path) -> Path:
    return Path(str(output) + ".run.json")
