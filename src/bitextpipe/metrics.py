"""Corpus-level BLEU and chrF/chrF++ exactly as the sacreBLEU library scores them.

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

Each metric has one fixed configuration, sacreBLEU's default, and every
score carries the signature string that records it:

    bleu|o:4|tok:13a|smooth:exp|case:mixed
    chrf|nc:6|nw:<word order>|b:2|space:no|eff:yes|case:mixed
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from .errors import MetricError

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


# --- BLEU -------------------------------------------------------------------
# sacreBLEU's corpus BLEU defaults, the only configuration scored here.

MAX_ORDER = 4
BLEU_SIGNATURE = f"bleu|o:{MAX_ORDER}|tok:13a|smooth:exp|case:mixed"


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


def bleu_segment_stats(hypothesis: str, reference: str) -> BleuStats:
    """Clipped n-gram match statistics for one (hypothesis, reference) pair."""
    hyp_tokens = tokenize_13a(hypothesis.rstrip())
    ref_tokens = tokenize_13a(reference.rstrip())
    orders = range(1, MAX_ORDER + 1)
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


def bleu_from_stats(stats: BleuStats) -> Score:
    """Finalize corpus BLEU from summed statistics.

    As in sacreBLEU, an order without hypothesis n-grams keeps precision 0,
    whose log (-9999999999) sends the score to 0.0; a zero-match order is
    smoothed to ``100 / (2**k * total)`` for the k-th such order.
    """
    if not stats.total:
        raise MetricError("no segments scored")
    if not any(stats.correct) or 0 in stats.total:
        return Score(0.0, BLEU_SIGNATURE)
    bp = math.exp(1 - stats.ref_len / stats.sys_len) if stats.sys_len < stats.ref_len else 1.0
    log_sum = 0.0
    doubling = 1.0
    for correct, total in zip(stats.correct, stats.total):
        if correct == 0:
            doubling *= 2.0
            log_sum += math.log(100.0 / (doubling * total))
        else:
            log_sum += math.log(100.0 * correct / total)
    return Score(bp * math.exp(log_sum / MAX_ORDER), BLEU_SIGNATURE)


def bleu(hypotheses: Sequence[str], references: Sequence[str]) -> Score:
    """Corpus BLEU over aligned hypothesis and reference segments."""
    return bleu_from_stats(sum_stats(bleu_segment_stats, hypotheses, references))


# --- chrF / chrF++ ----------------------------------------------------------

_PUNCTS = set(string.punctuation)


CHAR_ORDER = 6
BETA = 2.0


@dataclass(frozen=True)
class ChrfConfig:
    """chrF (``word_order=0``) or chrF++ (``word_order=2``).

    Everything else is sacreBLEU's default: character orders 1..6 over the
    segment with whitespace removed, beta 2, effective-order averaging.
    """

    word_order: int = 0

    def __post_init__(self) -> None:
        if self.word_order < 0:
            raise MetricError(f"word_order must be >= 0, got {self.word_order}")

    @property
    def order(self) -> int:
        return CHAR_ORDER + self.word_order

    @property
    def signature(self) -> str:
        return f"chrf|nc:{CHAR_ORDER}|nw:{self.word_order}|b:{BETA:g}|space:no|eff:yes|case:mixed"


CHRF = ChrfConfig()
# chrF++ differs from chrF only in its word orders, so the first
# 3 * CHRF.order counts of a chrF++ ChrfStats are exactly chrF's.
CHRF_PP = ChrfConfig(word_order=2)


@dataclass
class ChrfStats:
    """Per-order [hyp, ref, match] counts, summed across segments.

    Character orders 1..CHAR_ORDER come first, then word orders
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
    """Character n-gram counts for orders 1..CHAR_ORDER, then word n-gram counts."""
    text = "".join(segment.split())
    per_order = [
        Counter([text[i : i + n] for i in range(len(text) - n + 1)])
        for n in range(1, CHAR_ORDER + 1)
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
    """Finalize chrF from summed statistics.

    Precision and recall are averaged over the orders with n-grams on both
    sides (effective-order averaging), then combined with F-beta.
    """
    if not stats.counts:
        raise MetricError("no segments scored")
    factor = BETA**2
    avg_prec = 0.0
    avg_rec = 0.0
    effective = 0
    for i in range(cfg.order):
        n_hyp, n_ref, n_match = stats.counts[3 * i : 3 * i + 3]
        if n_hyp > 0 and n_ref > 0:
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


def sum_stats(segment_stats: Callable[..., S], hypotheses: Sequence[str],
              references: Sequence[str], *cfg: object) -> S:
    """Sum ``segment_stats(hyp, ref, *cfg)`` over aligned segments.

    ``segment_stats`` is :func:`bleu_segment_stats` (no ``cfg``) or
    :func:`chrf_segment_stats` (one :class:`ChrfConfig`); finalize the sum
    with the matching ``*_from_stats``.
    """
    if len(hypotheses) != len(references):
        raise MetricError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise MetricError("nothing to score: empty input")
    pairs = zip(hypotheses, references)
    stats = segment_stats(*next(pairs), *cfg)
    for hyp, ref in pairs:
        stats = stats + segment_stats(hyp, ref, *cfg)
    return stats
