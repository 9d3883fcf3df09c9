"""The bitmap draw is CPython's ``Random.sample`` and keeps the old rows.

``rng.sample_mask`` replicates ``Random.sample(range(n), k)`` call for call;
these tests compare the two directly, so a change to CPython's algorithm
fails here instead of silently changing output bytes. The second half
checks that reduce, materialize and select_seed keep exactly the rows the
list-based draw of earlier releases (``sorted(rng.sample(range(n), k))``)
kept.
"""

import math
import random

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
from bitextpipe.lang import parse_tag
from bitextpipe.rng import derive_rng, pick, sample_mask
from bitextpipe.sampling import allocate, distribution, largest_remainder, materialize
from bitextpipe.selection import Selection

from conftest import ENG, REFERENCE_COUNTS


def _setsize(k: int) -> int:
    """Random.sample uses a list pool when n <= this, a set otherwise."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _members(mask: bytearray, n: int) -> set[int]:
    assert len(mask) == (n + 7) // 8
    return {i for i in range(len(mask) * 8) if mask[i >> 3] >> (i & 7) & 1}


def _assert_replica(n: int, k: int, seed: int) -> None:
    reference, replica = random.Random(seed), random.Random(seed)
    expected = set(reference.sample(range(n), k))
    assert _members(sample_mask(n, k, replica), n) == expected
    assert replica.getstate() == reference.getstate()


@st.composite
def draws(draw):
    """(n, k) on both sides of the pool/set boundary, and anywhere else."""
    k = draw(st.integers(min_value=0, max_value=400))
    near = _setsize(k) + draw(st.integers(min_value=-3, max_value=3))
    anywhere = draw(st.integers(min_value=k, max_value=4 * k + 50))
    return max(k, draw(st.sampled_from([near, anywhere]))), k


@settings(max_examples=300, deadline=None)
@given(nk=draws(), seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_sample_mask_is_random_sample(nk, seed):
    _assert_replica(*nk, seed)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 6, 7, 40, 300])
def test_sample_mask_at_the_branch_boundary(k):
    # the two branches often agree on small draws, so try many seeds
    size = _setsize(k)
    for n in (max(k, 1), size - 1, size, size + 1, 4 * size):
        for seed in range(40):
            _assert_replica(n, k, seed)


@pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (0, 0), (2, 2), (5000, 5000), (37, 0)])
def test_sample_mask_edge_sizes(n, k):
    _assert_replica(n, k, seed=7)


def test_sample_mask_rejects_what_random_sample_rejects():
    with pytest.raises(ValueError):
        sample_mask(3, 4, random.Random(0))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=300), want=st.integers(min_value=0, max_value=1200),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pick_is_whole_copies_plus_a_remainder_sample(n, want, seed):
    full, mask = pick(n, want, random.Random(seed))
    assert full == want // n
    assert _members(mask, n) == set(random.Random(seed).sample(range(n), want % n))


def test_pick_of_nothing_from_nothing():
    assert pick(0, 0, random.Random(0)) == (0, bytearray())


def test_selection_is_sized_lazy_and_reiterable():
    pools = {"a": ["a0", "a1", "a2"], "b": ["b0", "b1"]}
    selection = Selection(pools, {"a": 7, "b": 0}, ["b", "a"], seed=3, purpose="test")
    assert len(selection) == 7 and selection.counts == {"a": 7}
    items = list(selection)
    assert items[:6] == ["a0", "a1", "a2"] * 2 and items[6] in pools["a"]
    assert list(selection) == items


# ---------------------------------------------------------------------------
# Same rows as the list-based draw


def _old_pick(n: int, want: int, rng: random.Random) -> list[int]:
    if want == 0:
        return []
    full, remainder = divmod(want, n)
    return [*range(n)] * full + sorted(rng.sample(range(n), remainder))


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
        tag: set(_old_pick(n, math.ceil(factor * n), derive_rng(seed, "reduce", str(tag))))
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


@pytest.mark.parametrize("temperature, budget", [(5.0, 12_000), (1.0, 3_000), (5.0, 40_000)])
def test_materialize_keeps_the_old_rows(temperature, budget):
    corpus = _reference_corpus()
    plan = allocate(distribution(stats(corpus), temperature), budget)
    groups: dict = {}
    for pair in corpus:
        groups.setdefault(accounting_language(pair.src_lang, pair.tgt_lang), []).append(pair)
    expected = []
    for tag in plan.languages():
        pool = groups[tag]
        rng = derive_rng(5, "materialize", str(tag))
        expected += [pool[i] for i in _old_pick(len(pool), plan.counts[tag], rng)]
    assert materialize(plan, corpus, budget, seed=5).pairs == tuple(expected)


@pytest.mark.parametrize("budget", [1, 500, 4_000, 12_000])
def test_select_seed_keeps_the_old_rows(budget):
    corpus = _reference_corpus()
    subsets: dict = {}
    for pair in corpus:
        subsets.setdefault(pair.subset, []).append(pair)
    subsets = {label: ParallelCorpus(tuple(pairs)) for label, pairs in subsets.items()}
    allocation = largest_remainder({label: len(c) for label, c in subsets.items()}, budget)
    expected = []
    for label in SEED_SUBSETS:
        pool = subsets[label].pairs
        rng = derive_rng(11, "seed-select", label)
        expected += [pool[i] for i in _old_pick(len(pool), allocation[label], rng)]
    assert select_seed(subsets, budget, seed=11).pairs == tuple(expected)
