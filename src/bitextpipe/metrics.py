"""Corpus-level BLEU and chrF/chrF++ compatible with the sacreBLEU library.

BLEU is the geometric mean of modified n-gram precisions (orders 1..4)
times a brevity penalty, computed on 13a-tokenized text with NIST-style
exponential smoothing of zero-match orders. chrF is the F-beta score of
averaged character n-gram (1..6) precisions and recalls; chrF++ adds word
n-grams up to order 2, with punctuation split off word edges. Both are
corpus-level: per-segment sufficient statistics are summed (:func:`sum_stats`),
then one score is computed, so segment statistics can be accumulated in any
order (or in parallel) without changing the result. chrF++ statistics list
the character orders first, so their character-order prefix is exactly the
chrF statistics: a scorer that wants both extracts n-grams once per segment.

Every score carries a signature string recording the exact configuration:

    bleu|o:<max order>|tok:<tokenizer>|smooth:<mode>|case:mixed
    chrf|nc:<char order>|nw:<word order>|b:<beta>|space:<yes/no>|eff:<yes/no>|case:mixed
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, TypeVar

from .errors import MetricError

C = TypeVar("C")
S = TypeVar("S")

# --- 13a tokenization -------------------------------------------------------
# Minimal mteval-style tokenization: unscape a few XML entities, then split
# punctuation from words. Period/comma stay attached inside numbers and a
# dash splits only after a digit.

_13A_RULES = (
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(\-)"), r"\1 \2 "),
)


def tokenize_13a(line: str) -> list[str]:
    """Tokenize one segment with the 13a scheme."""
    line = line.replace("<skipped>", "")
    line = line.replace("-\n", "")
    line = line.replace("\n", " ")
    if "&" in line:
        line = line.replace("&quot;", '"')
        line = line.replace("&amp;", "&")
        line = line.replace("&lt;", "<")
        line = line.replace("&gt;", ">")
    line = f" {line} "
    for pattern, repl in _13A_RULES:
        line = pattern.sub(repl, line)
    return line.split()


def _tokenize(line: str, tokenizer: str) -> list[str]:
    if tokenizer == "13a":
        return tokenize_13a(line.rstrip())
    if tokenizer == "none":
        return line.split()
    raise MetricError(f"unknown tokenizer {tokenizer!r}; expected '13a' or 'none'")


# --- BLEU -------------------------------------------------------------------

_SMOOTH_DEFAULTS = {"exp": None, "floor": 0.1, "add-k": 1.0, "none": None}


@dataclass(frozen=True)
class BleuConfig:
    max_order: int = 4
    tokenizer: str = "13a"
    smoothing: str = "exp"
    smooth_value: float | None = None

    def __post_init__(self) -> None:
        if self.max_order < 1:
            raise MetricError(f"max_order must be >= 1, got {self.max_order}")
        if self.smoothing not in _SMOOTH_DEFAULTS:
            raise MetricError(
                f"unknown smoothing {self.smoothing!r}; expected one of {sorted(_SMOOTH_DEFAULTS)}"
            )

    @property
    def signature(self) -> str:
        return f"bleu|o:{self.max_order}|tok:{self.tokenizer}|smooth:{self.smoothing}|case:mixed"


@dataclass(frozen=True)
class Score:
    """A score in [0, 100] plus the configuration fingerprint behind it."""

    value: float
    signature: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 100.0:
            # exp/log round-trips can overshoot the bounds by a few ulps
            if -1e-6 < self.value < 100.0 + 1e-6:
                object.__setattr__(self, "value", min(100.0, max(0.0, self.value)))
            else:
                raise MetricError(f"score {self.value} outside [0, 100]")


@dataclass
class BleuStats:
    """Additive sufficient statistics for corpus BLEU."""

    sys_len: int = 0
    ref_len: int = 0
    correct: list[int] = field(default_factory=list)
    total: list[int] = field(default_factory=list)

    def __add__(self, other: "BleuStats") -> "BleuStats":
        if not self.correct:
            return BleuStats(other.sys_len, other.ref_len, list(other.correct), list(other.total))
        if not other.correct:
            return BleuStats(self.sys_len, self.ref_len, list(self.correct), list(self.total))
        return BleuStats(
            self.sys_len + other.sys_len,
            self.ref_len + other.ref_len,
            [a + b for a, b in zip(self.correct, other.correct)],
            [a + b for a, b in zip(self.total, other.total)],
        )


def bleu_segment_stats(hypothesis: str, reference: str, cfg: BleuConfig) -> BleuStats:
    """Clipped n-gram match statistics for one (hypothesis, reference) pair."""
    hyp_tokens = _tokenize(hypothesis, cfg.tokenizer)
    ref_tokens = _tokenize(reference, cfg.tokenizer)
    orders = range(1, cfg.max_order + 1)
    correct = [
        _clipped_matches(_word_ngrams(hyp_tokens, n), _word_ngrams(ref_tokens, n)) for n in orders
    ]
    total = [max(len(hyp_tokens) - n + 1, 0) for n in orders]
    return BleuStats(len(hyp_tokens), len(ref_tokens), correct, total)


def _word_ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*[tokens[k:] for k in range(n)]))


def _clipped_matches(hyp_grams: Counter, ref_grams: Counter) -> int:
    """Sum over shared n-grams of the smaller of the two counts."""
    match = 0
    for gram in hyp_grams.keys() & ref_grams.keys():
        a = hyp_grams[gram]
        b = ref_grams[gram]
        match += a if a < b else b
    return match


def bleu_from_stats(stats: BleuStats, cfg: BleuConfig = BleuConfig()) -> Score:
    """Finalize corpus BLEU from summed statistics."""
    if not stats.total:
        raise MetricError("no segments scored")
    correct = list(stats.correct)
    total = list(stats.total)

    if stats.sys_len == 0:
        bp = 0.0
    elif stats.sys_len < stats.ref_len:
        bp = math.exp(1 - stats.ref_len / stats.sys_len)
    else:
        bp = 1.0

    if not any(correct):
        return Score(0.0, cfg.signature)

    smooth = cfg.smooth_value
    if smooth is None:
        smooth = _SMOOTH_DEFAULTS[cfg.smoothing]
    precisions = [0.0] * cfg.max_order
    doubling = 1.0
    for n in range(1, cfg.max_order + 1):
        if cfg.smoothing == "add-k" and n > 1:
            correct[n - 1] += smooth
            total[n - 1] += smooth
        if total[n - 1] == 0:
            break
        if correct[n - 1] == 0:
            if cfg.smoothing == "exp":
                doubling *= 2.0
                precisions[n - 1] = 100.0 / (doubling * total[n - 1])
            elif cfg.smoothing == "floor":
                precisions[n - 1] = 100.0 * smooth / total[n - 1]
        else:
            precisions[n - 1] = 100.0 * correct[n - 1] / total[n - 1]

    log_sum = sum(math.log(p) for p in precisions if p > 0.0)
    return Score(bp * math.exp(log_sum / cfg.max_order), cfg.signature)


def bleu(
    hypotheses: Sequence[str], references: Sequence[str], cfg: BleuConfig = BleuConfig()
) -> Score:
    """Corpus BLEU over aligned hypothesis and reference segments."""
    return bleu_from_stats(sum_stats(bleu_segment_stats, hypotheses, references, cfg), cfg)


# --- chrF / chrF++ ----------------------------------------------------------

_PUNCTS = set(string.punctuation)


@dataclass(frozen=True)
class ChrfConfig:
    char_order: int = 6
    word_order: int = 0  # 2 selects chrF++
    beta: float = 2.0
    whitespace: bool = False  # keep whitespace inside char n-grams
    eps_smoothing: bool = False

    def __post_init__(self) -> None:
        if self.char_order < 1:
            raise MetricError(f"char_order must be >= 1, got {self.char_order}")
        if self.word_order < 0:
            raise MetricError(f"word_order must be >= 0, got {self.word_order}")
        if self.beta <= 0:
            raise MetricError(f"beta must be positive, got {self.beta}")

    @property
    def order(self) -> int:
        return self.char_order + self.word_order

    @property
    def signature(self) -> str:
        space = "yes" if self.whitespace else "no"
        eff = "no" if self.eps_smoothing else "yes"
        return (
            f"chrf|nc:{self.char_order}|nw:{self.word_order}|b:{self.beta:g}"
            f"|space:{space}|eff:{eff}|case:mixed"
        )


CHRF = ChrfConfig()
# chrF++ differs from chrF only in its word orders, so the first
# 3 * CHRF.order counts of a chrF++ ChrfStats are exactly chrF's.
CHRF_PP = replace(CHRF, word_order=2)


@dataclass
class ChrfStats:
    """Per-order [hyp, ref, match] counts, summed across segments.

    Character orders 1..char_order come first, then word orders
    1..word_order, so a prefix of the counts is the statistics of the
    same configuration with fewer word orders.
    """

    counts: list[int] = field(default_factory=list)

    def __add__(self, other: "ChrfStats") -> "ChrfStats":
        if not self.counts:
            return ChrfStats(list(other.counts))
        if not other.counts:
            return ChrfStats(list(self.counts))
        return ChrfStats([a + b for a, b in zip(self.counts, other.counts)])


def _split_word_punctuation(sent: str) -> list[str]:
    """Whitespace tokens with one leading or trailing ASCII punct split off."""
    words: list[str] = []
    for token in sent.split():
        if len(token) == 1:
            words.append(token)
        elif token[-1] in _PUNCTS:
            words.append(token[:-1])
            words.append(token[-1])
        elif token[0] in _PUNCTS:
            words.append(token[0])
            words.append(token[1:])
        else:
            words.append(token)
    return words


def _segment_ngrams(segment: str, cfg: ChrfConfig) -> list[Counter]:
    """Character n-gram counts for orders 1..char_order, then word n-gram counts."""
    text = segment if cfg.whitespace else "".join(segment.split())
    per_order = [
        Counter([text[i : i + n] for i in range(len(text) - n + 1)])
        for n in range(1, cfg.char_order + 1)
    ]
    if cfg.word_order > 0:
        words = _split_word_punctuation(segment)
        per_order += [
            Counter([" ".join(words[i : i + n]) for i in range(len(words) - n + 1)])
            for n in range(1, cfg.word_order + 1)
        ]
    return per_order


def chrf_segment_stats(hypothesis: str, reference: str, cfg: ChrfConfig) -> ChrfStats:
    """[hyp count, ref count, match count] per n-gram order for one segment."""
    counts: list[int] = []
    for hyp_grams, ref_grams in zip(
        _segment_ngrams(hypothesis, cfg), _segment_ngrams(reference, cfg)
    ):
        counts += (
            sum(hyp_grams.values()),
            sum(ref_grams.values()),
            _clipped_matches(hyp_grams, ref_grams),
        )
    return ChrfStats(counts)


def chrf_from_stats(stats: ChrfStats, cfg: ChrfConfig = CHRF) -> Score:
    """Finalize chrF from summed statistics."""
    if not stats.counts:
        raise MetricError("no segments scored")
    eps = 1e-16
    factor = cfg.beta**2
    avg_prec = 0.0
    avg_rec = 0.0
    effective = 0
    for i in range(cfg.order):
        n_hyp, n_ref, n_match = stats.counts[3 * i : 3 * i + 3]
        if cfg.eps_smoothing:
            avg_prec += eps if n_hyp == 0 else n_match / n_hyp
            avg_rec += eps if n_ref == 0 else n_match / n_ref
            effective += 1
        elif n_hyp > 0 and n_ref > 0:
            avg_prec += n_match / n_hyp
            avg_rec += n_match / n_ref
            effective += 1
    if effective == 0:
        return Score(0.0, cfg.signature)
    avg_prec /= effective
    avg_rec /= effective
    if avg_prec + avg_rec == 0.0:
        return Score(0.0, cfg.signature)
    f_score = (1 + factor) * avg_prec * avg_rec / (factor * avg_prec + avg_rec)
    return Score(100.0 * f_score, cfg.signature)


def chrf(
    hypotheses: Sequence[str], references: Sequence[str], cfg: ChrfConfig = CHRF
) -> Score:
    """Corpus chrF (word_order=0) or chrF++ (word_order=2)."""
    return chrf_from_stats(sum_stats(chrf_segment_stats, hypotheses, references, cfg), cfg)


def sum_stats(segment_stats: Callable[[str, str, C], S], hypotheses: Sequence[str],
              references: Sequence[str], cfg: C) -> S:
    """Sum ``segment_stats(hyp, ref, cfg)`` over aligned segments.

    ``segment_stats`` is :func:`bleu_segment_stats` or
    :func:`chrf_segment_stats`; finalize the sum with the matching
    ``*_from_stats``.
    """
    if len(hypotheses) != len(references):
        raise MetricError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise MetricError("nothing to score: empty input")
    pairs = zip(hypotheses, references)
    stats = segment_stats(*next(pairs), cfg)
    for hyp, ref in pairs:
        stats = stats + segment_stats(hyp, ref, cfg)
    return stats
