"""The subset draw is Knuth's Algorithm S and pins the rows it keeps.

``rng.selection_sample`` is checked against a reference Algorithm S
written out below, at edge sizes, for the sizes it rejects, for
uniformity (chi-squared over fixed seeds) and for its memory, which must
not grow with the number of items. The second half
checks that reduce, materialize and select_seed keep exactly the rows the
reference draw keeps, in corpus order: each of a key's ``n`` pairs ``want
// n`` times, plus once more if Algorithm S takes it for the remainder,
drawing from ``derive_rng(seed, purpose, key)``. These are the rows, and
the copies, that 0.2.0 drew; 0.2.0 grouped them by key.
"""

import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextpipe.augment import SEED_SUBSETS, select_seed
from bitextpipe.corpus import (
    ParallelCorpus,
    SentencePair,
    accounting_language,
    reduce_highresource,
    stats,
)
from bitextpipe.errors import CorpusError
from bitextpipe.lang import parse_tag
from bitextpipe.rng import derive_rng, selection_sample
from bitextpipe.sampling import allocate, distribution, largest_remainder, materialize
from bitextpipe.selection import Keyed, Selection

from conftest import ENG, REFERENCE_COUNTS


def _algorithm_s(n: int, k: int, rng: random.Random) -> list[int]:
    """The ``k`` of ``range(n)`` that Algorithm S takes (TAOCP vol. 2, §3.4.2)."""
    taken: list[int] = []
    for i in range(n):
        if len(taken) == k:
            break
        if rng.random() * (n - i) < k - len(taken):
            taken.append(i)
    return taken


def _reference_pick(n: int, want: int, rng: random.Random) -> list[int]:
    if want == 0:
        return []
    full, remainder = divmod(want, n)
    return [*range(n)] * full + _algorithm_s(n, remainder, rng)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=0, max_value=300), data=st.data(),
       seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_selection_sample_is_algorithm_s(n, data, seed):
    k = data.draw(st.integers(min_value=0, max_value=n))
    flags = list(selection_sample(n, k, random.Random(seed)))
    taken = [i for i, flag in enumerate(flags) if flag]
    assert taken == _algorithm_s(n, k, random.Random(seed))
    assert len(taken) == k and len(flags) <= n
    assert not flags or flags[-1]  # nothing is drawn once the k are taken


@pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (0, 0), (2, 2), (5000, 5000), (37, 0)])
def test_selection_sample_edge_sizes(n, k):
    rng, untouched = random.Random(7), random.Random(7)
    flags = list(selection_sample(n, k, rng))
    assert flags == [True] * k  # all or none: no item is ever passed over
    if k == 0:
        assert rng.getstate() == untouched.getstate()  # nothing drawn for nothing


@pytest.mark.parametrize("k", [0, 1, 2, 5, 6, 7, 40, 300])
def test_selection_sample_takes_exactly_k_in_order(k):
    for n in (max(k, 1), k + 1, 2 * k + 1, 4 * k + 21):
        for seed in range(40):
            taken = list(itertools.compress(range(n), selection_sample(n, k, random.Random(seed))))
            assert taken == _algorithm_s(n, k, random.Random(seed))
            assert len(taken) == k and taken == sorted(set(taken))


@pytest.mark.parametrize("n, k", [(3, 4), (0, 1), (5, -1)])
def test_selection_sample_rejects_what_random_sample_rejects(n, k):
    with pytest.raises(ValueError):
        random.Random(0).sample(range(n), k)
    with pytest.raises(ValueError):
        selection_sample(n, k, random.Random(0))


def test_selection_sample_includes_each_item_uniformly():
    # 20,000 draws of 3 of 10: each ordinal is taken 6,000 times in
    # expectation; 27.877 is the chi-squared critical value, df 9, p = 0.001.
    n, k, draws = 10, 3, 20_000
    hits = Counter()
    for seed in range(draws):
        hits.update(itertools.compress(range(n), selection_sample(n, k, random.Random(seed))))
    expected = draws * k / n
    chi2 = sum((hits[i] - expected) ** 2 / expected for i in range(n))
    assert chi2 < 27.877


def test_selection_sample_draws_every_subset_uniformly():
    # 60,000 draws over the 120 3-subsets of 10, 500 each in expectation;
    # 172.418 is the chi-squared critical value, df 119, p = 0.001.
    n, k, draws = 10, 3, 60_000
    seen = Counter(
        tuple(itertools.compress(range(n), selection_sample(n, k, random.Random(seed))))
        for seed in range(draws)
    )
    subsets = list(itertools.combinations(range(n), k))
    assert set(seen) == set(subsets)
    expected = draws / len(subsets)
    chi2 = sum((seen[s] - expected) ** 2 / expected for s in subsets)
    assert chi2 < 172.418


def test_reduce_draw_memory_does_not_grow_with_the_key():
    n = 2_000_000
    tracemalloc.start()
    try:
        keyed = Keyed(("k" for _ in range(n)), str, {"k": n}, "gen")
        kept = Counter(reduce_highresource(keyed, threshold=1, factor=0.5, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept == {"k": n // 2}
    assert peak < 1 << 20


def test_selection_is_sized_lazy_and_reiterable():
    items = ["a0", "b0", "a1", "b1", "a2"]
    keyed = Keyed(items, lambda item: item[0], {"a": 3, "b": 2})
    selection = Selection(keyed, {"a": 7, "b": 0}, seed=3, purpose="test")
    assert len(selection) == 7 and selection.wants == {"a": 7, "b": 0}
    drawn = list(selection)
    assert Counter(drawn) in ({"a0": 3, "a1": 2, "a2": 2}, {"a0": 2, "a1": 3, "a2": 2},
                              {"a0": 2, "a1": 2, "a2": 3})
    assert drawn == sorted(drawn)  # input order, copies adjacent
    assert list(selection) == drawn


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=300), want=st.integers(min_value=0, max_value=1200),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_selection_is_whole_copies_plus_a_remainder_sample(n, want, seed):
    pool = [f"p{i}" for i in range(n)]
    selection = Selection(Keyed(pool, lambda _: "k", {"k": n}), {"k": want}, seed, "test")
    picked = Counter(_reference_pick(n, want, derive_rng(seed, "test", "k")))
    expected = [item for i, item in enumerate(pool) for _ in range(picked[i])]
    assert len(selection) == want and list(selection) == expected


def test_selection_of_nothing_from_nothing():
    selection = Selection(Keyed([], str, {}), {"k": 0}, seed=0, purpose="test")
    assert len(selection) == 0 and selection.wants == {} and list(selection) == []


@pytest.mark.parametrize("items, message", [
    ("ababa", "more a rows than first counted"),
    ("aba", "fewer b rows than first counted"),
    ("abac", "more c rows than first counted"),
])
def test_selection_of_other_counts_than_counted_fails(items, message):
    selection = Selection(Keyed(items, str, {"a": 2, "b": 2}, "in.tsv"), {"a": 1, "b": 3}, 0, "t")
    with pytest.raises(CorpusError, match=f"^in.tsv: changed while read: {message}$"):
        list(selection)


# ---------------------------------------------------------------------------
# Same rows as the reference draw


# REFERENCE_COUNTS scaled down 10,000 times (10 to 1,924 pairs per language).
SMALL_COUNTS = {tag: n // 10_000 for tag, n in REFERENCE_COUNTS.items()}


def _reference_corpus() -> ParallelCorpus:
    pairs = []
    for i in range(max(SMALL_COUNTS.values())):
        for tag, n in SMALL_COUNTS.items():
            if i < n:
                pairs.append(SentencePair(f"s {tag} {i}", f"t {i}", ENG, parse_tag(tag),
                                          SEED_SUBSETS[i % len(SEED_SUBSETS)]))
    return ParallelCorpus(tuple(pairs))


@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_reduce_keeps_the_old_rows(seed):
    corpus = _reference_corpus()
    threshold, factor = 1_000, 0.5
    counts = stats(corpus).counts
    chosen = {
        tag: set(_reference_pick(n, math.ceil(factor * n), derive_rng(seed, "reduce", str(tag))))
        for tag, n in counts.items() if n > threshold
    }
    seen: dict = {}
    expected = []
    for pair in corpus:
        tag = accounting_language(pair.src_lang, pair.tgt_lang)
        ordinal = seen[tag] = seen.get(tag, -1) + 1
        if tag not in chosen or ordinal in chosen[tag]:
            expected.append(pair)
    assert len(chosen) == 7
    assert reduce_highresource(corpus, threshold, factor, seed).pairs == tuple(expected)


def _expected(corpus: ParallelCorpus, key, wants: dict, seed: int, purpose: str) -> tuple:
    """The corpus walked in order, each pair ``want // n`` times plus once if the pick took it."""
    counts = Counter(map(key, corpus))
    picks = {k: Counter(_reference_pick(n, wants.get(k, 0), derive_rng(seed, purpose, str(k))))
             for k, n in counts.items()}
    seen: Counter = Counter()
    expected = []
    for pair in corpus:
        k = key(pair)
        expected += [pair] * picks[k][seen[k]]
        seen[k] += 1
    return tuple(expected)


@pytest.mark.parametrize("temperature, budget", [(5.0, 12_000), (1.0, 3_000), (5.0, 40_000)])
def test_materialize_keeps_the_old_rows(temperature, budget):
    corpus = _reference_corpus()
    plan = allocate(distribution(stats(corpus), temperature), budget)
    expected = _expected(corpus, lambda pair: accounting_language(pair.src_lang, pair.tgt_lang),
                         plan.counts, 5, "materialize")
    assert len(expected) == budget
    assert materialize(plan, corpus, budget, seed=5).pairs == expected


@pytest.mark.parametrize("budget", [1, 500, 4_000, 12_000])
def test_select_seed_keeps_the_old_rows(budget):
    corpus = _reference_corpus()
    sizes = Counter(pair.subset for pair in corpus)
    allocation = largest_remainder(sizes, budget)
    expected = _expected(corpus, lambda pair: pair.subset, allocation, 11, "seed-select")
    assert len(expected) == budget
    assert select_seed(corpus, budget, seed=11).pairs == expected
