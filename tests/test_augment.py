import hashlib
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextpipe.augment import (
    MODE_PAIR_TARGET,
    MODE_RANDOM_LANGUAGE,
    SEED_SUBSETS,
    AugmentationPolicy,
    MixtureManifest,
    SubstitutionSet,
    augment_corpus,
    augment_sentence,
    build_pretraining_mixture,
    select_seed,
    split_token_affixes,
    substitute_tokens,
)
from bitextpipe.corpus import ParallelCorpus, SentencePair, reverse_pair
from bitextpipe.errors import AugmentError, CorpusError
from bitextpipe.lang import parse_tag
from bitextpipe.lexicon import BilingualLexicon, LexiconEntry
from bitextpipe.rng import derive_rng

from conftest import ASM, BRX, ENG, HIN, mk_pair


def _lexicon(tgt, words):
    entries = tuple(
        LexiconEntry(src, tuple(translations)) for src, translations in words.items()
    )
    return BilingualLexicon(tgt, entries)


HIN_LEX = _lexicon(HIN, {"dog": ["कुत्ता"], "cat": ["बिल्ली"], "house": ["घर", "मकान"]})
ASM_LEX = _lexicon(ASM, {"dog": ["কুকুৰ"], "water": ["পানী"]})


class TestSplitAffixes:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("dog", ("", "dog", "")),
            ("dog,", ("", "dog", ",")),
            ('"dog")', ('"', "dog", '")')),
            ("(dog", ("(", "dog", "")),
            ("...", ("...", "", "")),
            ("d.o.g", ("", "d.o.g", "")),
        ],
    )
    def test_cases(self, token, expected):
        assert split_token_affixes(token) == expected


class TestSubstituteTokens:
    def test_no_replacement_returns_none(self):
        rng = random.Random(1)
        text, matched, replaced = substitute_tokens(
            "nothing matches here", {"dog": "कुत्ता"}, 1.0, rng
        )
        assert text is None and matched == 0 and replaced == 0

    def test_punctuation_preserved_around_replacement(self):
        rng = random.Random(1)
        text, matched, replaced = substitute_tokens(
            'the "dog!" barked', {"dog": "कुत्ता"}, 1.0, rng
        )
        assert text == 'the "कुत्ता!" barked'
        assert matched == 1 and replaced == 1

    def test_case_folded_match_keeps_original_elsewhere(self):
        rng = random.Random(1)
        text, _, _ = substitute_tokens("Dog days", {"dog": "कुत्ता"}, 1.0, rng)
        assert text == "कुत्ता days"


def _substitute_with_tuples(text, table, probability, rng):
    """:func:`substitute_tokens` over tuple-valued tables, as tables used to be
    stored: the reference the tab-joined tables must match draw for draw."""
    tokens = text.split()
    out = list(tokens)
    matched = replaced = 0
    for idx, token in enumerate(tokens):
        prefix, core, suffix = split_token_affixes(token)
        options = table.get(core.casefold()) if core else None
        if options is None:
            continue
        matched += 1
        if rng.random() < probability:
            out[idx] = prefix + options[rng.randrange(len(options))] + suffix
            replaced += 1
    return (" ".join(out) if replaced else None), matched, replaced


class TestTabJoinedTables:
    WORDS = ("dog", "Dog,", "(cat)", "house", "the", "water.", "...", "tree")

    @settings(max_examples=200, deadline=None)
    @given(
        words=st.lists(st.sampled_from(WORDS), max_size=12),
        counts=st.fixed_dictionaries(
            {w: st.integers(1, 3) for w in ("dog", "cat", "house", "water")}
        ),
        probability=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        seed=st.integers(0, 2**32),
    )
    def test_same_draws_as_tuple_tables(self, words, counts, probability, seed):
        tuples = {w: tuple(f"{w}{i}" for i in range(n)) for w, n in counts.items()}
        joined = {w: "\t".join(options) for w, options in tuples.items()}
        got, want = random.Random(seed), random.Random(seed)
        text = " ".join(words)
        assert substitute_tokens(text, joined, probability, got) == _substitute_with_tuples(
            text, tuples, probability, want
        )
        assert got.getstate() == want.getstate()

    def test_one_translation_still_draws(self):
        # randrange(1) consumes random bits: skipping it would shift every
        # later draw of the pair
        rng, want = random.Random(5), random.Random(5)
        assert substitute_tokens("dog dog", {"dog": "x"}, 1.0, rng)[0] == "x x"
        for _ in range(2):
            want.random()
            want.randrange(1)
        assert rng.getstate() == want.getstate()

    def test_augment_bytes_are_pinned(self):
        # one- and three-translation words; the digest is the output of
        # tuple-valued tables
        lex = _lexicon(HIN, {"dog": ["कुत्ता"], "cat": ["बिल्ली"], "house": ["घर", "मकान", "गृह"]})
        words = ["the", "dog", "Cat,", "house", "near", "(dog)"]
        corpus = ParallelCorpus(tuple(
            SentencePair(" ".join(words[(i * j) % 6] for j in range(1, 2 + i % 7)),
                         f"t {i}", ENG, HIN)
            for i in range(300)
        ))
        policy = AugmentationPolicy(probability=0.5, seed=3)
        out, stats = augment_corpus(corpus, SubstitutionSet.prepare([lex], policy.top_k), policy)
        assert (len(out), stats.tokens_matched, stats.tokens_replaced) == (174, 564, 277)
        digest = hashlib.sha256("\n".join(p.source for p in out).encode()).hexdigest()
        assert digest == "9a5ee1d1ebdf9f0049b880fd102a7dd5da7813e12e33ef52126b1cff15c0d918"


class TestAugmentSentence:
    def test_zero_probability_yields_none(self):
        pair = mk_pair("the dog barked", "कुत्ता भौंका")
        policy = AugmentationPolicy(probability=0.0, seed=1)
        subs = SubstitutionSet.prepare([HIN_LEX], policy.top_k)
        out = augment_sentence(pair, subs, policy, derive_rng(1, "x"))
        assert out is None

    def test_forced_replacement(self):
        pair = mk_pair("the dog", "कुत्ता")
        policy = AugmentationPolicy(probability=1.0, mode=MODE_PAIR_TARGET, seed=1)
        subs = SubstitutionSet.prepare([HIN_LEX], policy.top_k)
        out = augment_sentence(pair, subs, policy, derive_rng(1, "x"))
        assert out is not None
        assert out.source == "the कुत्ता"
        assert out.target == pair.target
        assert out.src_lang == ENG and out.tgt_lang == HIN

    def test_non_english_source_rejected(self):
        pair = mk_pair("नमस्ते", "hello", src="hin_Deva", tgt="eng_Latn")
        policy = AugmentationPolicy(seed=1)
        subs = SubstitutionSet.prepare([HIN_LEX], policy.top_k)
        with pytest.raises(AugmentError, match="source language"):
            augment_sentence(pair, subs, policy, derive_rng(1, "x"))

    def test_pair_target_mode_without_lexicon_yields_none(self):
        pair = mk_pair("the dog", "কুকুৰ", tgt="brx_Deva")
        policy = AugmentationPolicy(probability=1.0, mode=MODE_PAIR_TARGET, seed=1)
        subs = SubstitutionSet.prepare([HIN_LEX], policy.top_k)
        assert augment_sentence(pair, subs, policy, derive_rng(1, "x")) is None

    def test_multiword_entries_are_skipped(self):
        lex = BilingualLexicon(
            HIN,
            (
                LexiconEntry("good morning", ("शुभ प्रभात",), is_phrase=True),
                LexiconEntry("dog", ("कुत्ता",)),
            ),
        )
        pair = mk_pair("good morning dog", "x")
        policy = AugmentationPolicy(probability=1.0, mode=MODE_PAIR_TARGET, seed=1)
        subs = SubstitutionSet.prepare([lex], policy.top_k)
        out = augment_sentence(pair, subs, policy, derive_rng(1, "x"))
        assert out.source == "good morning कुत्ता"

    def test_duplicate_lexicons_for_language_rejected(self):
        policy = AugmentationPolicy(seed=1)
        with pytest.raises(AugmentError, match="merge"):
            SubstitutionSet.prepare([HIN_LEX, HIN_LEX], policy.top_k)

    def test_lexicons_are_consumed_one_at_a_time(self):
        consumed: list[weakref.ref] = []

        def loaded(tgt, words):
            assert [ref() for ref in consumed] == [None] * len(consumed)
            lexicon = _lexicon(tgt, words)
            consumed.append(weakref.ref(lexicon))
            return lexicon

        def lexicons():
            yield loaded(HIN, {"dog": ["कुत्ता"], "cat": ["बिल्ली"]})
            yield loaded(ASM, {"dog": ["কুকুৰ"]})
            yield loaded(BRX, {"cat": ["मेंजी"]})

        subs = SubstitutionSet.prepare(lexicons(), top_k=1)
        assert [ref() for ref in consumed] == [None] * 3
        assert subs.tables == {
            "hin_Deva": {"dog": "कुत्ता"},
            "asm_Beng": {"dog": "কুকুৰ"},
            "brx_Deva": {"cat": "मेंजी"},
        }

    def test_top_k_limits_matchable_entries(self):
        lex = _lexicon(HIN, {"alpha": ["अ"], "beta": ["ब"]})
        pair = mk_pair("alpha beta", "x")
        policy = AugmentationPolicy(probability=1.0, top_k=1, mode=MODE_PAIR_TARGET, seed=1)
        subs = SubstitutionSet.prepare([lex], policy.top_k)
        out = augment_sentence(pair, subs, policy, derive_rng(1, "x"))
        assert out.source == "अ beta"


class TestAugmentCorpus:
    def _corpus(self, n=100):
        pairs = tuple(
            SentencePair(f"the dog saw a cat {i}", f"कुत्ते ने बिल्ली देखी {i}", ENG, HIN)
            for i in range(n)
        )
        return ParallelCorpus(pairs)

    def test_no_lexicons_yields_nothing(self):
        corpus = self._corpus(10)
        policy = AugmentationPolicy(probability=1.0, seed=4)
        out, stats = augment_corpus(corpus, SubstitutionSet.prepare([], policy.top_k), policy)
        assert len(out) == 0
        assert stats.pairs_seen == 10
        assert stats.pairs_without_lexicon == 10

    def test_every_pair_augmented_at_p1(self):
        corpus = self._corpus(1000)
        policy = AugmentationPolicy(probability=1.0, mode=MODE_PAIR_TARGET, seed=4)
        subs = SubstitutionSet.prepare([HIN_LEX], policy.top_k)
        out, stats = augment_corpus(corpus, subs, policy)
        assert len(out) == 1000
        assert stats.pairs_augmented == 1000
        assert stats.tokens_matched == 2000
        assert stats.tokens_replaced == 2000

    def test_deterministic_given_seed(self):
        corpus = self._corpus(200)
        policy = AugmentationPolicy(probability=0.5, seed=7)
        a, _ = augment_corpus(corpus, SubstitutionSet.prepare([HIN_LEX], policy.top_k), policy)
        b, _ = augment_corpus(corpus, SubstitutionSet.prepare([HIN_LEX], policy.top_k), policy)
        other = AugmentationPolicy(probability=0.5, seed=8)
        c, _ = augment_corpus(corpus, SubstitutionSet.prepare([HIN_LEX], other.top_k), other)
        assert a.pairs == b.pairs
        assert a.pairs != c.pairs

    def test_matches_augment_sentence_per_pair(self):
        corpus = self._corpus(50)
        policy = AugmentationPolicy(probability=0.5, seed=11)
        subs = SubstitutionSet.prepare([HIN_LEX], policy.top_k)
        out, stats = augment_corpus(corpus, subs, policy)
        expected = []
        for index, pair in enumerate(corpus):
            one = augment_sentence(pair, subs, policy, derive_rng(policy.seed, "augment", index))
            if one is not None:
                expected.append(one)
        assert list(out.pairs) == expected

    def test_targets_byte_identical_and_sourced_replacements(self):
        corpus = self._corpus(300)
        policy = AugmentationPolicy(probability=0.4, mode=MODE_PAIR_TARGET, seed=13)
        subs = SubstitutionSet.prepare([HIN_LEX], policy.top_k)
        out, stats = augment_corpus(corpus, subs, policy)
        assert len(stats.origin_indices) == len(out)
        translations = {t for e in HIN_LEX.entries for t in e.translations}
        for augmented, origin in zip(out, stats.origin_indices):
            original = corpus[origin]
            assert augmented.target == original.target
            new_tokens = augmented.source.split()
            old_tokens = original.source.split()
            assert len(new_tokens) == len(old_tokens)
            changed = [
                (o, n) for o, n in zip(old_tokens, new_tokens) if o != n
            ]
            assert changed
            for old, new in changed:
                assert new in translations
                assert HIN_LEX.lookup(old) is not None and new in HIN_LEX.lookup(old)

    def test_replacement_rate_converges(self):
        corpus = self._corpus(5000)  # 2 matched tokens per pair -> 10k draws
        policy = AugmentationPolicy(probability=0.3, mode=MODE_PAIR_TARGET, seed=17)
        _, stats = augment_corpus(corpus, SubstitutionSet.prepare([HIN_LEX], policy.top_k), policy)
        assert stats.tokens_matched == 10_000
        assert stats.replacement_rate == pytest.approx(0.3, abs=0.02)

    def test_random_language_mode_uses_all_lexicons(self):
        corpus = ParallelCorpus(
            tuple(
                SentencePair(f"the dog drank water {i}", f"t {i}", ENG, HIN)
                for i in range(400)
            )
        )
        policy = AugmentationPolicy(probability=1.0, mode=MODE_RANDOM_LANGUAGE, seed=23)
        subs = SubstitutionSet.prepare([HIN_LEX, ASM_LEX], policy.top_k)
        out, _ = augment_corpus(corpus, subs, policy)
        scripts = Counter()
        for pair in out:
            if "कुत्ता" in pair.source:
                scripts["hin"] += 1
            if "কুকুৰ" in pair.source or "পানী" in pair.source:
                scripts["asm"] += 1
        assert scripts["hin"] > 100
        assert scripts["asm"] > 100

    def test_non_english_corpus_rejected(self):
        bad = ParallelCorpus((mk_pair("नमस्ते", "hi", src="hin_Deva", tgt="eng_Latn"),))
        policy = AugmentationPolicy(seed=1)
        subs = SubstitutionSet.prepare([HIN_LEX], policy.top_k)
        with pytest.raises(AugmentError, match="source language"):
            augment_corpus(bad, subs, policy)

    def test_policy_validation(self):
        with pytest.raises(AugmentError):
            AugmentationPolicy(probability=1.5)
        with pytest.raises(AugmentError):
            AugmentationPolicy(mode="nonsense")
        with pytest.raises(AugmentError):
            AugmentationPolicy(top_k=0)


class TestMixture:
    def test_small_identity(self):
        corpus = ParallelCorpus(tuple(mk_pair(f"s{i}", f"t{i}") for i in range(10)))
        mixture, manifest = build_pretraining_mixture(corpus, ParallelCorpus(()))
        assert manifest.n_total == 20
        assert len(mixture) == 20
        assert manifest.n_total == 2 * manifest.n_original + manifest.n_augmented

    def test_fixture_recount(self):
        corpus = ParallelCorpus(tuple(mk_pair(f"s{i}", f"t{i}") for i in range(1000)))
        policy = AugmentationPolicy(probability=1.0, mode=MODE_PAIR_TARGET, seed=3)
        augmented = ParallelCorpus(
            tuple(mk_pair(f"s{i} कुत्ता", f"t{i}") for i in range(300))
        )
        mixture, manifest = build_pretraining_mixture(corpus, augmented, policy=policy)
        assert manifest.n_total == 2300
        assert len(mixture.pairs) == 2300
        assert (manifest.n_original, manifest.n_reversed, manifest.n_augmented) == (
            1000, 1000, 300
        )
        reversed_block = tuple(map(reverse_pair, corpus))
        assert mixture.pairs == corpus.pairs + reversed_block + augmented.pairs
        # reversed block really is the reversal of the original block
        assert mixture[1000].source == mixture[0].target
        assert mixture[1000].src_lang == mixture[0].tgt_lang
        assert manifest.to_dict()["policy"]["probability"] == 1.0

    def test_direction_validation(self):
        good = ParallelCorpus((mk_pair("a", "b"),))
        flipped = ParallelCorpus((mk_pair("b", "a", src="hin_Deva", tgt="eng_Latn"),))
        with pytest.raises(AugmentError):
            build_pretraining_mixture(flipped, ParallelCorpus(()))
        with pytest.raises(AugmentError):
            build_pretraining_mixture(good, flipped)

    def test_stray_augmented_language_rejected(self):
        good = ParallelCorpus((mk_pair("a", "b", tgt="hin_Deva"),))
        stray = ParallelCorpus((mk_pair("a", "b", tgt="asm_Beng"),))
        with pytest.raises(AugmentError, match="absent"):
            build_pretraining_mixture(good, stray)

    def test_manifest_identity_enforced(self):
        with pytest.raises(AugmentError):
            MixtureManifest(n_original=10, n_reversed=10, n_augmented=5, n_total=24)
        with pytest.raises(AugmentError):
            MixtureManifest(n_original=10, n_reversed=9, n_augmented=0, n_total=20)


class TestSelectSeed:
    def _subsets(self, sizes):
        out = {}
        for label, n in sizes.items():
            out[label] = ParallelCorpus(
                tuple(
                    SentencePair(f"{label} src {i}", f"tgt {i}", ENG, HIN, label)
                    for i in range(n)
                )
            )
        return out

    def test_proportional_sixty_forty(self):
        subsets = self._subsets({"ILCI": 60, "Wiki": 40})
        out = select_seed(subsets, budget=50, seed=1)
        counts = Counter(p.subset for p in out)
        assert counts == {"ILCI": 30, "Wiki": 20}

    def test_exact_remainder_tie_breaks_on_label(self):
        # quotas 35 + 2301/6063 for ILCI and 1437 + 2301/6063 for Massive:
        # the one leftover unit goes to ILCI, which sorts first
        subsets = self._subsets({"ILCI": 51, "Massive": 2072, "Daily": 3940})
        out = select_seed(subsets, budget=4206, seed=1)
        assert Counter(p.subset for p in out) == {"ILCI": 36, "Massive": 1437, "Daily": 2733}

    def test_full_budget_is_identity(self):
        subsets = self._subsets({"ILCI": 25, "Massive": 10, "Daily": 5})
        out = select_seed(subsets, budget=40, seed=1)
        assert len(out) == 40
        assert Counter(p.subset for p in out) == {"ILCI": 25, "Massive": 10, "Daily": 5}

    def test_deterministic(self):
        subsets = self._subsets({"ILCI": 100, "Wiki": 50})
        a = select_seed(subsets, budget=70, seed=5)
        b = select_seed(subsets, budget=70, seed=5)
        c = select_seed(subsets, budget=70, seed=6)
        assert a.pairs == b.pairs
        assert a.pairs != c.pairs

    def test_output_in_canonical_subset_order(self):
        subsets = self._subsets({"Wiki": 10, "ILCI": 10, "NLLB Seed": 10})
        out = select_seed(subsets, budget=30, seed=1)
        labels = [p.subset for p in out]
        assert labels == sorted(labels, key=SEED_SUBSETS.index)

    def test_budget_exceeds_availability(self):
        subsets = self._subsets({"ILCI": 5})
        with pytest.raises(CorpusError, match="exceeds"):
            select_seed(subsets, budget=6, seed=1)

    def test_unknown_subset_label(self):
        subsets = self._subsets({"ILCI": 5})
        subsets["Backtranslated"] = subsets.pop("ILCI")
        with pytest.raises(CorpusError, match="unknown"):
            select_seed(subsets, budget=3, seed=1)

    def test_invalid_budget(self):
        with pytest.raises(CorpusError):
            select_seed(self._subsets({"ILCI": 5}), budget=0, seed=1)
