import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_metrics as oracle
from bitextpipe.errors import MetricError
from bitextpipe.metrics import (
    BLEU_SIGNATURE,
    CHRF,
    CHRF_PP,
    BleuStats,
    ChrfStats,
    Score,
    bleu,
    bleu_from_stats,
    bleu_segment_stats,
    chrf,
    chrf_from_stats,
    chrf_segment_stats,
    tokenize_13a,
)

from conftest import FIXTURES

# Expected values recorded from tests/oracle_metrics.py on the frozen
# fixture files before the production implementation existed.
FIRST20 = {"bleu": 38.13799624750291, "chrf": 62.369405318622896, "chrfpp": 62.35538322970571}
DEVA20 = {"bleu": 45.073738389114176, "chrf": 64.38039230569935, "chrfpp": 63.6434828661152}


def _fixture_lines(name):
    return (FIXTURES / name).read_text(encoding="utf-8").splitlines()


class TestTokenizer13a:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Hello, world!", ["Hello", ",", "world", "!"]),
            ("It's 3.14 here.", ["It's", "3.14", "here", "."]),
            ("pages 1-2 and 3", ["pages", "1", "-", "2", "and", "3"]),
            ("well-known fact", ["well-known", "fact"]),
            ("a &amp; b &lt;c&gt;", ["a", "&", "b", "<", "c", ">"]),
            ("(parens) [brackets]", ["(", "parens", ")", "[", "brackets", "]"]),
            ("100,000 people", ["100,000", "people"]),
            ("end,", ["end", ","]),
            ("वह घर गया।", ["वह", "घर", "गया।"]),  # the danda stays attached
        ],
    )
    def test_hand_cases(self, text, expected):
        assert tokenize_13a(text) == expected

    def test_agrees_with_oracle_on_ascii_soup(self):
        rng = random.Random(99)
        import string

        alphabet = string.printable.replace("\x0b", "").replace("\x0c", "")
        for _ in range(500):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            assert tokenize_13a(s.rstrip()) == oracle.tok13a(s)


class TestBleu:
    def test_perfect_match_scores_100(self):
        refs = ["the cat sat on the mat", "लड़का स्कूल गया।"]
        score = bleu(refs, refs)
        assert score.value == pytest.approx(100.0, abs=1e-9)

    def test_zero_unigram_overlap_scores_0(self):
        score = bleu(["aaa bbb ccc"], ["xxx yyy zzz"])
        assert score.value == 0.0

    def test_short_corpus_keeps_full_order_denominator(self):
        # a perfect match with no 4-grams (or no 3- and 4-grams) anywhere:
        # sacreBLEU keeps precision 0 for an order with no hypothesis
        # n-grams and averages log(0) = -9999999999 over all 4 orders
        for segment in ("a b c", "ab cd"):
            assert bleu([segment], [segment]).value == 0.0
            assert oracle.bleu([segment], [segment]) == 0.0

    def test_hand_computed_case(self):
        # hyp unigrams 5/6 correct, bigrams 3/5, trigrams 1/4, 4-grams 0/3
        # (exponential smoothing halves the zero order: 100 / (2*3)).
        score = bleu(["the cat sat on the mat"], ["the cat is on the mat"])
        expected = ((500 / 6) * 60.0 * 25.0 * (100 / 6)) ** 0.25
        assert score.value == pytest.approx(expected, abs=1e-9)

    def test_brevity_penalty_applies(self):
        full = bleu(["the cat sat on the mat"], ["the cat sat on the mat"])
        short = bleu(["the cat sat on"], ["the cat sat on the mat"])
        assert short.value < full.value
        # 4 perfect orders, then the brevity penalty exp(1 - 6/4) applies
        expected = 100.0 * math.exp(1 - 6 / 4)
        assert short.value == pytest.approx(expected, abs=1e-9)
        assert short.value == pytest.approx(60.6531, abs=1e-4)

    def test_frozen_mixed_fixture(self):
        hyps = _fixture_lines("parity_hyp.txt")[:20]
        refs = _fixture_lines("parity_ref.txt")[:20]
        assert bleu(hyps, refs).value == pytest.approx(FIRST20["bleu"], abs=1e-9)

    def test_frozen_devanagari_fixture(self):
        hyps = _fixture_lines("deva_hyp.txt")
        refs = _fixture_lines("deva_ref.txt")
        assert bleu(hyps, refs).value == pytest.approx(DEVA20["bleu"], abs=1e-9)

    def test_corrupting_a_token_never_increases_bleu(self):
        ref = "alpha bravo charlie delta echo foxtrot golf hotel"
        base = bleu([ref], [ref]).value
        tokens = ref.split()
        for i in range(len(tokens)):
            corrupted = tokens.copy()
            corrupted[i] = "zulu"
            score = bleu([" ".join(corrupted)], [ref]).value
            assert score < base

    def test_errors(self):
        with pytest.raises(MetricError):
            bleu(["a"], ["a", "b"])
        with pytest.raises(MetricError):
            bleu([], [])

    def test_stats_reduce_associatively(self):
        hyps = _fixture_lines("parity_hyp.txt")[:12]
        refs = _fixture_lines("parity_ref.txt")[:12]
        parts = [bleu_segment_stats(h, r) for h, r in zip(hyps, refs)]
        left = BleuStats()
        for p in parts:
            left = left + p
        mid = (parts[0] + parts[1]) + (parts[2] + parts[3])
        for p in parts[4:]:
            mid = mid + p
        assert bleu_from_stats(left).value == bleu_from_stats(mid).value
        assert bleu_from_stats(left).value == bleu(hyps, refs).value

    def test_exp_smoothing_halves_each_zero_match_order(self):
        # unigrams 4/5, bigrams 2/4, trigrams 0/3, 4-grams 0/2: the first
        # zero-match order gets 100 / (2*3), the second 100 / (4*2)
        hyp, ref = ["a b c d e"], ["a b x d e"]
        expected = (80.0 * 50.0 * (100 / 6) * (100 / 8)) ** 0.25
        assert bleu(hyp, ref).value == pytest.approx(expected, abs=1e-9)
        assert oracle.bleu(hyp, ref) == pytest.approx(expected, abs=1e-9)

    def test_signature(self):
        assert bleu(["a"], ["a"]).signature == "bleu|o:4|tok:13a|smooth:exp|case:mixed"
        assert bleu(["a b c d"], ["a b c e"]).signature == BLEU_SIGNATURE


class TestChrf:
    def test_identical_corpora_score_100(self):
        refs = ["abcdef ghij", "नमस्ते दुनिया।"]
        assert chrf(refs, refs, CHRF).value == pytest.approx(100.0, abs=1e-9)
        assert chrf(refs, refs, CHRF_PP).value == pytest.approx(100.0, abs=1e-9)

    def test_word_order_changes_score(self):
        # word overlap differs from character overlap: swapped word order
        # keeps all char statistics within each word but breaks bigrams
        hyps = ["bbb aaa"]
        refs = ["aaa bbb"]
        chrf0 = chrf(hyps, refs, CHRF).value
        chrf2 = chrf(hyps, refs, CHRF_PP).value
        assert chrf0 != chrf2

    def test_frozen_mixed_fixture(self):
        hyps = _fixture_lines("parity_hyp.txt")[:20]
        refs = _fixture_lines("parity_ref.txt")[:20]
        assert chrf(hyps, refs, CHRF).value == pytest.approx(FIRST20["chrf"], abs=1e-9)
        assert chrf(hyps, refs, CHRF_PP).value == pytest.approx(FIRST20["chrfpp"], abs=1e-9)

    def test_frozen_devanagari_fixture(self):
        hyps = _fixture_lines("deva_hyp.txt")
        refs = _fixture_lines("deva_ref.txt")
        assert chrf(hyps, refs, CHRF).value == pytest.approx(DEVA20["chrf"], abs=1e-9)
        assert chrf(hyps, refs, CHRF_PP).value == pytest.approx(DEVA20["chrfpp"], abs=1e-9)

    def test_beta2_weighs_recall_over_precision(self):
        subset = ["the cat sat"]
        full = ["the cat sat on the mat tonight"]
        recall_deficient = chrf(subset, full, CHRF).value  # misses most of ref
        precision_deficient = chrf(full, subset, CHRF).value
        assert recall_deficient < precision_deficient

    def test_whitespace_removed_for_char_ngrams(self):
        # identical once whitespace is removed
        assert chrf(["ab cd"], ["abcd"], CHRF).value == pytest.approx(100.0, abs=1e-9)

    def test_stats_reduce_associatively(self):
        cfg = CHRF_PP
        hyps = _fixture_lines("parity_hyp.txt")[:10]
        refs = _fixture_lines("parity_ref.txt")[:10]
        parts = [chrf_segment_stats(h, r, cfg) for h, r in zip(hyps, refs)]
        total = ChrfStats()
        for p in reversed(parts):
            total = total + p
        assert chrf_from_stats(total, cfg).value == chrf(hyps, refs, cfg).value

    def test_signature(self):
        assert CHRF.signature == "chrf|nc:6|nw:0|b:2|space:no|eff:yes|case:mixed"
        assert CHRF_PP.signature == "chrf|nc:6|nw:2|b:2|space:no|eff:yes|case:mixed"

    def test_errors(self):
        with pytest.raises(MetricError):
            chrf(["a"], [])
        with pytest.raises(MetricError):
            chrf([], [])


WORD_POOL = ["the", "cat", "नमस्ते", "घर", "a1", "b,", "x.", "(y)", "1-2", "it's"]


@st.composite
def corpora(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    def seg():
        return " ".join(
            draw(st.lists(st.sampled_from(WORD_POOL), min_size=0, max_size=8))
        )
    return [seg() for _ in range(n)], [seg() for _ in range(n)]


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=corpora(), seed=st.integers(min_value=0, max_value=10**6))
    def test_permutation_invariance(self, data, seed):
        hyps, refs = data
        paired = list(zip(hyps, refs))
        rng = random.Random(seed)
        rng.shuffle(paired)
        sh, sr = [p[0] for p in paired], [p[1] for p in paired]
        assert bleu(hyps, refs).value == pytest.approx(bleu(sh, sr).value, abs=1e-12)
        assert chrf(hyps, refs, CHRF_PP).value == pytest.approx(
            chrf(sh, sr, CHRF_PP).value, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(data=corpora())
    def test_scores_stay_in_range_and_match_oracle(self, data):
        hyps, refs = data
        b = bleu(hyps, refs).value
        c0 = chrf(hyps, refs, CHRF).value
        c2 = chrf(hyps, refs, CHRF_PP).value
        for value in (b, c0, c2):
            assert 0.0 <= value <= 100.0
        assert b == pytest.approx(oracle.bleu(hyps, refs), abs=1e-9)
        assert c0 == pytest.approx(oracle.chrf(hyps, refs, word_order=0), abs=1e-9)
        assert c2 == pytest.approx(oracle.chrf(hyps, refs, word_order=2), abs=1e-9)


def test_score_range_validation():
    with pytest.raises(MetricError):
        Score(101.0, "sig")
    with pytest.raises(MetricError):
        Score(-0.5, "sig")


def test_readme_signature_block_matches_code():
    readme = (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Metrics\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    assert block.strip().splitlines() == [BLEU_SIGNATURE, CHRF_PP.signature]
    differing = [
        (a, b)
        for a, b in zip(CHRF.signature.split("|"), CHRF_PP.signature.split("|"))
        if a != b
    ]
    assert differing == [("nw:0", "nw:2")]
