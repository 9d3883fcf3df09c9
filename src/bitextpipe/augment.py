"""Code-switching augmentation, pre-training mixture assembly, seed selection.

Augmentation replaces English source words with dictionary translations to
produce code-switched sentences whose target side is untouched. Tokens are
whitespace-delimited; ASCII punctuation at token edges is ignored for
dictionary matching but preserved around the substituted word. Only pairs
with at least one replacement yield an augmented copy.

Randomness is drawn from per-pair streams keyed by (seed, pair index), so
the output is byte-identical regardless of worker count or chunking.
Per pair the draw order is fixed: one language draw (random-language mode
only), then for each dictionary-matched token left to right one acceptance
draw and, if accepted, one translation draw.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace as dc_replace
from typing import Iterable, Iterator, Mapping, Union

from .corpus import ParallelCorpus, SentencePair, reverse_pair
from .errors import AugmentError, CorpusError
from .lang import ENGLISH
from .lexicon import BilingualLexicon, truncate_topk
from .rng import derive_seed
from .sampling import largest_remainder
from .selection import Selection, SpilledPools

MODE_RANDOM_LANGUAGE = "random-language"
MODE_PAIR_TARGET = "pair-target"
MODES = (MODE_RANDOM_LANGUAGE, MODE_PAIR_TARGET)

DEFAULT_PROBABILITY = 0.3

# The high-quality subsets eligible for seed-data selection.
SEED_SUBSETS = ("ILCI", "NLLB Seed", "Massive", "Daily", "Wiki")
DEFAULT_SEED_BUDGET = 2_260_000

_PUNCTS = set(string.punctuation)


@dataclass(frozen=True)
class AugmentationPolicy:
    """Replacement probability, lexicon depth, and language-choice mode."""

    probability: float = DEFAULT_PROBABILITY
    top_k: int = 4000
    mode: str = MODE_RANDOM_LANGUAGE
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise AugmentError(f"probability must be in [0, 1], got {self.probability}")
        if self.mode not in MODES:
            raise AugmentError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.top_k <= 0:
            raise AugmentError(f"top_k must be positive, got {self.top_k}")


class SubstitutionSet:
    """Per-language substitution tables derived from lexicons and a policy.

    Tables are keyed by rendered target tag (``hin_Deva``). Applies the
    policy's top-K truncation and drops multi-word entries, which
    whitespace tokenization cannot match.
    """

    def __init__(self, tables: Mapping[str, Mapping[str, tuple[str, ...]]]):
        self.tables = dict(tables)
        self.languages = sorted(self.tables)

    @classmethod
    def prepare(
        cls, lexicons: Iterable[BilingualLexicon], top_k: int
    ) -> "SubstitutionSet":
        tables: dict[str, dict[str, tuple[str, ...]]] = {}
        for lexicon in lexicons:
            tag = str(lexicon.tgt_lang)
            if tag in tables:
                raise AugmentError(
                    f"two lexicons for {tag}; merge them first"
                )
            truncated = truncate_topk(lexicon, top_k)
            tables[tag] = {
                entry.source: entry.translations
                for entry in truncated.entries
                if not entry.is_phrase
            }
        return cls(tables)


Lexicons = Union[SubstitutionSet, Iterable[BilingualLexicon]]


def _as_substitution_set(lexicons: Lexicons, policy: AugmentationPolicy) -> SubstitutionSet:
    if isinstance(lexicons, SubstitutionSet):
        return lexicons
    return SubstitutionSet.prepare(lexicons, policy.top_k)


def split_token_affixes(token: str) -> tuple[str, str, str]:
    """(leading punctuation, core, trailing punctuation) of one token."""
    if token[0] not in _PUNCTS and token[-1] not in _PUNCTS:
        return "", token, ""
    i, j = 0, len(token)
    while i < j and token[i] in _PUNCTS:
        i += 1
    while j > i and token[j - 1] in _PUNCTS:
        j -= 1
    return token[:i], token[i:j], token[j:]


def substitute_tokens(
    text: str,
    table: Mapping[str, tuple[str, ...]],
    probability: float,
    rng: random.Random,
) -> tuple[str | None, int, int]:
    """Replace dictionary-matched tokens with probability ``probability``.

    Returns (augmented text or None when nothing was replaced, number of
    dictionary-matched tokens, number of replacements).
    """
    tokens = text.split()
    out: list[str] | None = None
    matched = 0
    replaced = 0
    for idx, token in enumerate(tokens):
        prefix, core, suffix = split_token_affixes(token)
        if not core:
            continue
        options = table.get(core.casefold())
        if options is None:
            continue
        matched += 1
        if rng.random() < probability:
            choice = options[rng.randrange(len(options))]
            if out is None:
                out = list(tokens)
            out[idx] = prefix + choice + suffix
            replaced += 1
    if replaced:
        assert out is not None
        return " ".join(out), matched, replaced
    return None, matched, 0


def augment_sentence(
    pair: SentencePair,
    lexicons: Lexicons,
    policy: AugmentationPolicy,
    rng: random.Random,
) -> SentencePair | None:
    """Code-switch one English-source pair, or None if nothing changed.

    The target side of the returned pair is byte-identical to the input.
    """
    if pair.src_lang != ENGLISH:
        raise AugmentError(f"source language must be {ENGLISH}, got {pair.src_lang}")
    subs = _as_substitution_set(lexicons, policy)
    result = augment_record(pair.source, str(pair.tgt_lang), subs, policy, rng)
    if result is None or result[0] is None:  # no table, or nothing replaced
        return None
    return dc_replace(pair, source=result[0])


def augment_record(
    source: str,
    tgt_lang: str,
    subs: SubstitutionSet,
    policy: AugmentationPolicy,
    rng: random.Random,
) -> tuple[str | None, int, int] | None:
    """Code-switch one English source toward the rendered tag ``tgt_lang``.

    Chooses the substitution table (the pair's target in pair-target mode,
    one uniform draw over ``subs.languages`` otherwise) and returns
    :func:`substitute_tokens`' result, or None when no table applies.
    """
    if policy.mode == MODE_PAIR_TARGET:
        table = subs.tables.get(tgt_lang)
    elif subs.languages:
        table = subs.tables[subs.languages[rng.randrange(len(subs.languages))]]
    else:
        table = None
    if table is None:
        return None
    return substitute_tokens(source, table, policy.probability, rng)


@dataclass(frozen=True)
class AugmentStats:
    pairs_seen: int
    pairs_augmented: int
    pairs_without_lexicon: int
    tokens_matched: int
    tokens_replaced: int
    origin_indices: tuple[int, ...] | None = None

    @property
    def replacement_rate(self) -> float:
        """Fraction of dictionary-matched tokens that were replaced."""
        return self.tokens_replaced / self.tokens_matched if self.tokens_matched else 0.0


def augment_corpus(
    corpus: ParallelCorpus,
    lexicons: Lexicons,
    policy: AugmentationPolicy,
) -> tuple[ParallelCorpus, AugmentStats]:
    """Augment every pair of an English-to-Indic corpus.

    Pairs whose substitution language has no lexicon, and pairs where no
    token was replaced, produce no output. ``origin_indices`` in the stats
    maps each augmented pair back to its source pair's corpus index.
    """
    subs = _as_substitution_set(lexicons, policy)
    augmented: list[SentencePair] = []
    origins: list[int] = []
    without_lexicon = 0
    matched_total = 0
    replaced_total = 0
    rng = random.Random()
    for index, pair in enumerate(corpus):
        if pair.src_lang != ENGLISH:
            raise AugmentError(
                f"pair {index}: source language must be {ENGLISH}, got {pair.src_lang}"
            )
        rng.seed(derive_seed(policy.seed, "augment", index))
        result = augment_record(pair.source, str(pair.tgt_lang), subs, policy, rng)
        if result is None:
            without_lexicon += 1
            continue
        new_source, matched, replaced = result
        matched_total += matched
        replaced_total += replaced
        if new_source is not None:
            augmented.append(dc_replace(pair, source=new_source))
            origins.append(index)
    stats = AugmentStats(
        pairs_seen=len(corpus),
        pairs_augmented=len(augmented),
        pairs_without_lexicon=without_lexicon,
        tokens_matched=matched_total,
        tokens_replaced=replaced_total,
        origin_indices=tuple(origins),
    )
    return ParallelCorpus(tuple(augmented)), stats


# ---------------------------------------------------------------------------
# Pre-training mixture


@dataclass(frozen=True)
class MixtureManifest:
    """Counts backing the mixture identity total = 2*original + augmented."""

    n_original: int
    n_reversed: int
    n_augmented: int
    n_total: int
    seed: int | None = None
    policy: AugmentationPolicy | None = None

    def __post_init__(self) -> None:
        if self.n_total != 2 * self.n_original + self.n_augmented:
            raise AugmentError(
                f"mixture identity violated: {self.n_total} != "
                f"2*{self.n_original} + {self.n_augmented}"
            )
        if self.n_reversed != self.n_original:
            raise AugmentError("reversed pair count must equal original pair count")

    def to_dict(self) -> dict:
        out: dict = {
            "original_pairs": self.n_original,
            "reversed_pairs": self.n_reversed,
            "augmented_pairs": self.n_augmented,
            "total_pairs": self.n_total,
            "seed": self.seed,
        }
        if self.policy is not None:
            out["policy"] = {
                "probability": self.policy.probability,
                "top_k": self.policy.top_k,
                "mode": self.policy.mode,
                "seed": self.policy.seed,
            }
        else:
            out["policy"] = None
        return out


def build_pretraining_mixture(
    en_indic: ParallelCorpus,
    augmented: ParallelCorpus,
    seed: int | None = None,
    policy: AugmentationPolicy | None = None,
) -> tuple[ParallelCorpus, MixtureManifest]:
    """Original pairs, their reversals, and augmented pairs, in that order."""
    for name, part in (("original", en_indic), ("augmented", augmented)):
        for index, pair in enumerate(part):
            if pair.src_lang != ENGLISH:
                raise AugmentError(
                    f"{name} corpus pair {index}: source must be {ENGLISH}, "
                    f"got {pair.src_lang}"
                )
    original_targets = {pair.tgt_lang for pair in en_indic}
    stray = {pair.tgt_lang for pair in augmented} - original_targets
    if stray:
        raise AugmentError(
            "augmented corpus covers languages absent from the original: "
            + ", ".join(sorted(str(t) for t in stray))
        )
    pairs = list(en_indic)
    pairs.extend(reverse_pair(pair) for pair in en_indic)
    pairs.extend(augmented)
    manifest = MixtureManifest(
        n_original=len(en_indic),
        n_reversed=len(en_indic),
        n_augmented=len(augmented),
        n_total=len(pairs),
        seed=seed,
        policy=policy,
    )
    return ParallelCorpus(tuple(pairs)), manifest


def mixture_origins(manifest: MixtureManifest) -> Iterator[str]:
    """Origin labels aligned with a mixture corpus built by this module."""
    for _ in range(manifest.n_original):
        yield "orig"
    for _ in range(manifest.n_reversed):
        yield "rev"
    for _ in range(manifest.n_augmented):
        yield "aug"


# ---------------------------------------------------------------------------
# Seed-data selection


def select_seed(
    subset_corpora: Mapping[str, ParallelCorpus] | SpilledPools,
    budget: int = DEFAULT_SEED_BUDGET,
    seed: int = 0,
) -> ParallelCorpus | Selection:
    """Sample seed data proportionally to subset sizes, exactly ``budget``.

    Subset labels must come from :data:`SEED_SUBSETS`. Selection within a
    subset is uniform without replacement and keeps the original order;
    subsets appear in canonical order in the output, with every pair's
    subset field set to its subset label. Corpora give a
    :class:`ParallelCorpus`; spilled pools keyed by subset label (rows
    already labelled) give a lazy :class:`selection.Selection` of their rows.
    """
    unknown = sorted(set(subset_corpora) - set(SEED_SUBSETS))
    if unknown:
        raise CorpusError(
            f"unknown seed subsets: {', '.join(unknown)}; expected {SEED_SUBSETS}"
        )
    if budget <= 0:
        raise CorpusError(f"budget must be positive, got {budget}")
    sizes = {label: len(c) for label, c in subset_corpora.items()}
    available = sum(sizes.values())
    if budget > available:
        raise CorpusError(f"budget {budget} exceeds available pairs {available}")

    allocation = largest_remainder(sizes, budget)
    selection = Selection(subset_corpora, allocation, SEED_SUBSETS, seed, "seed-select")
    if isinstance(subset_corpora, SpilledPools):
        return selection
    return ParallelCorpus(tuple(
        pair if pair.subset == label else dc_replace(pair, subset=label)
        for label, pairs in selection.by_key()
        for pair in pairs
    ))
