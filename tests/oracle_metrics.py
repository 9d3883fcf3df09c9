"""Independent reference scorer used only by the tests.

This is a deliberate second implementation of corpus BLEU and chrF/chrF++,
written directly from the published definitions of the metrics and the
mteval/13a tokenization rules, with a different structure from the
production module: the tokenizer's split class is an enumerated character
set (not ranges), n-grams are materialized as lists, clipping uses Counter
intersection, and BLEU uses the explicit product form of the geometric
mean. Expected values in the test-suite were recorded from this module;
the production implementation must agree with it independently.
"""

from __future__ import annotations

import math
import re
from collections import Counter

# Characters around which 13a inserts spaces unconditionally. This is the
# full set: ASCII punctuation except ' . , - and the digits/letters.
_SPLIT_CHARS = frozenset(' !"#$%&()*+/:;<=>?@[\\]^_`{|}~')

_DOT_COMMA_AFTER = re.compile(r"([^0-9])([\.,])")
_DOT_COMMA_BEFORE = re.compile(r"([\.,])([^0-9])")
_DIGIT_DASH = re.compile(r"([0-9])(\-)")


def tok13a(segment: str) -> list[str]:
    text = segment.rstrip()
    text = text.replace("<skipped>", "").replace("-\n", "").replace("\n", " ")
    for entity, char in (("&quot;", '"'), ("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">")):
        text = text.replace(entity, char)
    padded = " " + text + " "
    spread = []
    for ch in padded:
        if ch in _SPLIT_CHARS:
            spread.append(" " + ch + " ")
        else:
            spread.append(ch)
    text = "".join(spread)
    text = _DOT_COMMA_AFTER.sub(r"\1 \2 ", text)
    text = _DOT_COMMA_BEFORE.sub(r" \1 \2", text)
    text = _DIGIT_DASH.sub(r"\1 \2 ", text)
    return text.split()


def _ngram_list(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def bleu(hypotheses: list[str], references: list[str], max_order: int = 4) -> float:
    """Corpus BLEU on 13a tokens with NIST exponential smoothing, in [0, 100]."""
    assert len(hypotheses) == len(references) and hypotheses
    correct = [0] * max_order
    total = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = tok13a(hyp)
        ref_tokens = tok13a(ref)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, max_order + 1):
            hyp_counts = Counter(_ngram_list(hyp_tokens, n))
            ref_counts = Counter(_ngram_list(ref_tokens, n))
            clipped = hyp_counts & ref_counts
            correct[n - 1] += sum(clipped.values())
            total[n - 1] += sum(hyp_counts.values())

    if hyp_len == 0:
        return 0.0
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if sum(correct) == 0:
        return 0.0

    precisions = []
    halvings = 1.0
    for n in range(1, max_order + 1):
        if total[n - 1] == 0:
            # sacreBLEU leaves this order's precision at 0 and averages
            # log(0) = -9999999999 over all orders: the score is 0
            return 0.0
        if correct[n - 1] == 0:
            halvings *= 2.0
            precisions.append(100.0 / (halvings * total[n - 1]))
        else:
            precisions.append(100.0 * correct[n - 1] / total[n - 1])

    product = 1.0
    for p in precisions:
        product *= p
    return penalty * product ** (1.0 / max_order)


def _chrf_words(segment: str) -> list[str]:
    """Whitespace tokens with a single edge ASCII punctuation mark split off."""
    puncts = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
    words = []
    for token in segment.split():
        if len(token) > 1 and token[-1] in puncts:
            words.append(token[:-1])
            words.append(token[-1])
        elif len(token) > 1 and token[0] in puncts:
            words.append(token[0])
            words.append(token[1:])
        else:
            words.append(token)
    return words


def chrf(
    hypotheses: list[str],
    references: list[str],
    char_order: int = 6,
    word_order: int = 0,
    beta: float = 2.0,
) -> float:
    """Corpus chrF (word_order=0) / chrF++ (word_order=2), in [0, 100].

    Character n-grams are taken over the segment with all whitespace
    removed; word n-grams over punctuation-split tokens. Statistics are
    summed over segments per order, then precision and recall are averaged
    over the orders observed on both sides and combined with F-beta.
    """
    assert len(hypotheses) == len(references) and hypotheses
    orders = char_order + word_order
    hyp_totals = [0] * orders
    ref_totals = [0] * orders
    match_totals = [0] * orders

    for hyp, ref in zip(hypotheses, references):
        hyp_char = "".join(hyp.split())
        ref_char = "".join(ref.split())
        grams: list[tuple[Counter, Counter]] = []
        for n in range(1, char_order + 1):
            grams.append(
                (
                    Counter(hyp_char[i : i + n] for i in range(len(hyp_char) - n + 1)),
                    Counter(ref_char[i : i + n] for i in range(len(ref_char) - n + 1)),
                )
            )
        if word_order:
            hyp_words = _chrf_words(hyp)
            ref_words = _chrf_words(ref)
            for n in range(1, word_order + 1):
                grams.append(
                    (
                        Counter(
                            " ".join(hyp_words[i : i + n])
                            for i in range(len(hyp_words) - n + 1)
                        ),
                        Counter(
                            " ".join(ref_words[i : i + n])
                            for i in range(len(ref_words) - n + 1)
                        ),
                    )
                )
        for order, (hyp_counts, ref_counts) in enumerate(grams):
            hyp_totals[order] += sum(hyp_counts.values())
            ref_totals[order] += sum(ref_counts.values())
            match_totals[order] += sum((hyp_counts & ref_counts).values())

    precision_sum = 0.0
    recall_sum = 0.0
    seen = 0
    for order in range(orders):
        if hyp_totals[order] > 0 and ref_totals[order] > 0:
            precision_sum += match_totals[order] / hyp_totals[order]
            recall_sum += match_totals[order] / ref_totals[order]
            seen += 1
    if seen == 0:
        return 0.0
    precision = precision_sum / seen
    recall = recall_sum / seen
    if precision + recall == 0.0:
        return 0.0
    b2 = beta * beta
    return 100.0 * (1 + b2) * precision * recall / (b2 * precision + recall)
