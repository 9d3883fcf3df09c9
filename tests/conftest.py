"""Shared test fixtures and builders."""

from __future__ import annotations

import contextlib
import os
import threading
import time
from pathlib import Path
from typing import Iterator

import pytest

from bitextpipe.corpus import ParallelCorpus, SentencePair
from bitextpipe.lang import parse_tag

FIXTURES = Path(__file__).parent / "fixtures"

# Reference per-language pair counts for the 24 language/script
# combinations: a realistic, heavily skewed distribution (10k to 19.24M
# sentences) shared by the sampling and reduction tests.
REFERENCE_COUNTS = {
    "asm_Beng": 1_420_000,
    "ben_Beng": 16_390_000,
    "brx_Deva": 120_000,
    "doi_Deva": 20_000,
    "gom_Deva": 100_000,
    "guj_Gujr": 10_120_000,
    "hin_Deva": 19_240_000,
    "kan_Knda": 11_600_000,
    "kas_Arab": 150_000,
    "kas_Deva": 200_000,
    "mai_Deva": 90_000,
    "mal_Mlym": 11_690_000,
    "mar_Deva": 9_370_000,
    "mni_Beng": 370_000,
    "mni_Mtei": 40_000,
    "npi_Deva": 1_680_000,
    "ory_Orya": 5_800_000,
    "pan_Guru": 9_750_000,
    "san_Deva": 280_000,
    "sat_Olck": 20_000,
    "snd_Deva": 10_000,
    "tam_Taml": 10_180_000,
    "tel_Telu": 11_540_000,
    "urd_Arab": 2_990_000,
}

ENG = parse_tag("eng_Latn")
HIN = parse_tag("hin_Deva")
BRX = parse_tag("brx_Deva")
ASM = parse_tag("asm_Beng")


def mk_pair(
    source: str = "hello world",
    target: str = "नमस्ते दुनिया",
    src: str = "eng_Latn",
    tgt: str = "hin_Deva",
    subset: str = "general",
) -> SentencePair:
    return SentencePair(source, target, parse_tag(src), parse_tag(tgt), subset)


def mk_corpus(n: int, tgt: str = "hin_Deva", subset: str = "general") -> ParallelCorpus:
    """n distinct English-source pairs toward one target language."""
    pairs = tuple(
        SentencePair(f"sentence number {i}", f"वाक्य {i}", ENG, parse_tag(tgt), subset)
        for i in range(n)
    )
    return ParallelCorpus(pairs)


@pytest.fixture
def parity_fixture() -> tuple[list[str], list[str]]:
    hyps = (FIXTURES / "parity_hyp.txt").read_text(encoding="utf-8").splitlines()
    refs = (FIXTURES / "parity_ref.txt").read_text(encoding="utf-8").splitlines()
    assert len(hyps) == len(refs) == 50
    return hyps, refs


def fifo_bytes() -> bytes:
    """Corpus rows with multi-byte characters and \\r\\n endings, for :func:`feed_fifo`."""
    rows = [f"eng_Latn\thin_Deva\tthe dog {i}\tकुत्ता {i}\tgeneral" for i in range(30)]
    return ("\r\n".join(rows) + "\r\n").encode("utf-8")


@contextlib.contextmanager
def feed_fifo(path: Path, data: bytes) -> Iterator[None]:
    """Make ``path`` a FIFO that a thread feeds ``data`` in small writes.

    The writes split ``data`` inside every multi-byte character and between
    every ``\\r`` and ``\\n``, with a pause after each, so a read waits on
    the pipe for bytes that have not arrived.
    """
    cuts = sorted({0, len(data)} | {i + 1 for i, b in enumerate(data) if b in b"\r\xe0"})
    os.mkfifo(path)

    def feed() -> None:
        with open(path, "wb", buffering=0) as handle:
            for start, end in zip(cuts, cuts[1:]):
                handle.write(data[start:end])
                time.sleep(0.0005)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    yield
    writer.join(timeout=10)
    assert not writer.is_alive()
