import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextpipe.corpus import ParallelCorpus, SentencePair, stats, stats_from_counts
from bitextpipe.errors import PlanError
from bitextpipe.lang import parse_tag
from bitextpipe.sampling import (
    allocate,
    distribution,
    largest_remainder,
    materialize,
    write_plan_tsv,
    write_plot_tsv,
)

from conftest import BRX, ENG, HIN, REFERENCE_COUNTS, mk_corpus


def _stats(counts):
    return stats_from_counts({parse_tag(t): n for t, n in counts.items()})


class TestDistribution:
    def test_t1_is_proportional(self):
        plan = distribution(_stats({"hin_Deva": 9, "brx_Deva": 1}), temperature=1.0)
        assert plan.probabilities[HIN] == pytest.approx(0.9, abs=1e-12)
        assert plan.probabilities[BRX] == pytest.approx(0.1, abs=1e-12)

    def test_fourth_root_case(self):
        # counts [16, 1] at T=4: shares 16/17 and 1/17, fourth roots are in
        # ratio 2:1, so the normalized probabilities are 2/3 and 1/3.
        plan = distribution(_stats({"hin_Deva": 16, "brx_Deva": 1}), temperature=4.0)
        direct = (16 / 17) ** 0.25 / ((16 / 17) ** 0.25 + (1 / 17) ** 0.25)
        assert direct == pytest.approx(2 / 3, abs=1e-12)
        assert plan.probabilities[HIN] == pytest.approx(2 / 3, abs=1e-12)
        assert plan.probabilities[BRX] == pytest.approx(1 / 3, abs=1e-12)

    def test_table_counts_at_t5(self):
        plan = distribution(_stats(REFERENCE_COUNTS), temperature=5.0)
        probs = {str(t): p for t, p in plan.probabilities.items()}
        assert max(probs, key=probs.get) == "hin_Deva"
        assert min(probs, key=probs.get) == "snd_Deva"
        ratio = probs["hin_Deva"] / probs["snd_Deva"]
        assert ratio == pytest.approx((19.24 / 0.01) ** (1 / 5), rel=1e-9)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_errors(self):
        with pytest.raises(PlanError):
            distribution(_stats({}), temperature=5.0)
        with pytest.raises(PlanError):
            distribution(_stats({"hin_Deva": 3}), temperature=0.0)
        with pytest.raises(PlanError):
            distribution(_stats({"hin_Deva": 3}), temperature=-1.0)

    def test_underflowing_temperature_is_a_plan_error(self):
        # (2/3)**10000 and (1/3)**10000 are both 0.0 in floating point
        with pytest.raises(PlanError, match="temperature 0.0001"):
            distribution(_stats({"hin_Deva": 2, "brx_Deva": 1}), temperature=0.0001)

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=10**7), min_size=2, max_size=8),
        t_low=st.floats(min_value=0.5, max_value=4.0),
        t_delta=st.floats(min_value=0.25, max_value=4.0),
    )
    def test_raising_temperature_flattens(self, counts, t_low, t_delta):
        if len(set(counts)) == 1:
            counts[0] += 1
        tags = [str(t) for t in list(_stats(REFERENCE_COUNTS).counts)[: len(counts)]]
        named = dict(zip(tags, counts))
        low = distribution(_stats(named), temperature=t_low).probabilities
        high = distribution(_stats(named), temperature=t_low + t_delta).probabilities
        assert max(high.values()) < max(low.values())
        assert min(high.values()) > min(low.values())

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=8),
        scale=st.integers(min_value=2, max_value=1000),
    )
    def test_scale_invariance(self, counts, scale):
        tags = [str(t) for t in list(_stats(REFERENCE_COUNTS).counts)[: len(counts)]]
        base = distribution(_stats(dict(zip(tags, counts))), temperature=5.0)
        scaled = distribution(
            _stats({t: scale * n for t, n in zip(tags, counts)}), temperature=5.0
        )
        for tag in base.probabilities:
            assert scaled.probabilities[tag] == pytest.approx(
                base.probabilities[tag], abs=1e-12
            )


class TestAllocate:
    def test_sixty_forty(self):
        plan = distribution(_stats({"hin_Deva": 60, "brx_Deva": 40}), temperature=1.0)
        plan = allocate(plan, 50)
        assert plan.counts == {HIN: 30, BRX: 20}
        assert plan.budget == 50

    def test_counts_sum_to_budget_exactly(self):
        plan = distribution(_stats(REFERENCE_COUNTS), temperature=5.0)
        for budget in (1, 97, 10_000, 1_000_000):
            assert sum(allocate(plan, budget).counts.values()) == budget

    def test_largest_remainder_order_independent(self):
        shares_a = {HIN: 0.61, BRX: 0.39}
        shares_b = {BRX: 0.39, HIN: 0.61}
        assert largest_remainder(shares_a, 7) == largest_remainder(shares_b, 7)


class TestMaterialize:
    def test_identity_at_t1_full_budget(self):
        pairs = []
        for tag, n in (("hin_Deva", 30), ("brx_Deva", 20), ("asm_Beng", 10)):
            t = parse_tag(tag)
            pairs += [
                SentencePair(f"s{tag}{i}", f"t{i}", ENG, t, "general") for i in range(n)
            ]
        corpus = ParallelCorpus(tuple(pairs))
        plan = distribution(stats(corpus), temperature=1.0)
        out = materialize(plan, corpus, budget=len(corpus), seed=0)
        assert len(out) == len(corpus)
        assert Counter(p.tgt_lang for p in out) == Counter(p.tgt_lang for p in corpus)
        assert sorted(p.source for p in out) == sorted(p.source for p in corpus)

    def test_upsampling_repetition_structure(self):
        corpus = mk_corpus(10)
        plan = distribution(stats(corpus), temperature=1.0)
        out = materialize(plan, corpus, budget=25, seed=1)
        assert len(out) == 25
        # corpus order, each pair's copies adjacent: two each, and a third for 5 of them
        positions = [corpus.pairs.index(p) for p in out]
        assert positions == sorted(positions)
        assert sorted(Counter(positions).values()) == [2] * 5 + [3] * 5

    def test_downsampling_keeps_order(self):
        corpus = mk_corpus(40)
        plan = distribution(stats(corpus), temperature=1.0)
        out = materialize(plan, corpus, budget=15, seed=2)
        assert len(out) == 15
        positions = [corpus.pairs.index(p) for p in out]
        assert positions == sorted(positions)

    def test_deterministic(self):
        corpus = mk_corpus(30)
        plan = distribution(stats(corpus), temperature=2.0)
        a = materialize(plan, corpus, budget=50, seed=9)
        b = materialize(plan, corpus, budget=50, seed=9)
        c = materialize(plan, corpus, budget=50, seed=10)
        assert a.pairs == b.pairs
        assert a.pairs != c.pairs

    def test_language_mismatch_errors(self):
        corpus = mk_corpus(5)
        other = distribution(_stats({"brx_Deva": 5}), temperature=1.0)
        with pytest.raises(PlanError, match="missing from plan"):
            materialize(other, corpus, budget=5, seed=0)
        plan = distribution(_stats({"hin_Deva": 5, "brx_Deva": 5}), temperature=1.0)
        with pytest.raises(PlanError, match="absent from corpus"):
            materialize(plan, corpus, budget=10, seed=0)

    def test_draw_frequencies_track_probabilities(self):
        pairs = []
        for tag, n in (("hin_Deva", 500), ("brx_Deva", 100), ("asm_Beng", 50)):
            t = parse_tag(tag)
            pairs += [
                SentencePair(f"s{tag}{i}", f"t{i}", ENG, t, "general") for i in range(n)
            ]
        corpus = ParallelCorpus(tuple(pairs))
        plan = distribution(stats(corpus), temperature=5.0)
        budget = 10_000
        out = materialize(plan, corpus, budget=budget, seed=3)
        freq = Counter(p.tgt_lang for p in out)
        l1 = sum(
            abs(freq[tag] / budget - p) for tag, p in plan.probabilities.items()
        )
        assert l1 < 0.01


class TestSerialization:
    def test_plan_and_plot_files(self, tmp_path):
        plan = allocate(
            distribution(_stats({"hin_Deva": 60, "brx_Deva": 40}), temperature=1.0), 50
        )
        plan_path = tmp_path / "plan.tsv"
        plot_path = tmp_path / "plot.tsv"
        write_plan_tsv(plan, plan_path)
        write_plot_tsv(plan, plot_path)
        plan_lines = plan_path.read_text(encoding="utf-8").splitlines()
        assert plan_lines[0] == "lang\tn\tp\tc"
        row = dict(zip(("lang", "n", "p", "c"), plan_lines[1].split("\t")))
        assert row["lang"] == "brx_Deva"
        assert row["n"] == "40"
        assert row["c"] == "20"
        assert float(row["p"]) == pytest.approx(0.4, abs=1e-9)
        plot_lines = plot_path.read_text(encoding="utf-8").splitlines()
        assert plot_lines[0] == "lang\traw_count\traw_share\tsampled_count\tsampled_share"
        assert len(plot_lines) == 3
