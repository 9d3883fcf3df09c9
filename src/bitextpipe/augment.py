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
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .corpus import (ParallelCorpus, SentencePair, Work, encode_rows, file_tasks, iter_tsv_rows,
                     ordered_map, reverse_pair)
from .errors import AugmentError, CorpusError, PipelineError
from .lang import ENGLISH
from .lexicon import BilingualLexicon, truncate_topk
from .rng import derive_seed
from .sampling import largest_remainder
from .selection import Keyed, Selection, draw

MODE_RANDOM_LANGUAGE = "random-language"
MODE_PAIR_TARGET = "pair-target"
MODES = (MODE_RANDOM_LANGUAGE, MODE_PAIR_TARGET)

DEFAULT_PROBABILITY = 0.3

# The high-quality subsets eligible for seed-data selection.
SEED_SUBSETS = ("ILCI", "NLLB Seed", "Massive", "Daily", "Wiki")
DEFAULT_SEED_BUDGET = 2_260_000

_PUNCTS = set(string.punctuation)
_ENG_TEXT = str(ENGLISH)


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

    Tables are keyed by rendered target tag (``hin_Deva``) and map each
    case-folded source word to its translations joined by tabs, one string
    per word (no translation contains a tab). Applies the policy's top-K
    truncation and drops multi-word entries, which whitespace tokenization
    cannot match.
    """

    def __init__(self, tables: Mapping[str, Mapping[str, str]]):
        self.tables = dict(tables)
        self.languages = sorted(self.tables)

    @classmethod
    def prepare(
        cls, lexicons: Iterable[BilingualLexicon], top_k: int
    ) -> "SubstitutionSet":
        """Tables from ``lexicons``, consumed one at a time.

        Only the top-K table of each lexicon is kept, and no reference to
        the lexicon outlives its turn: given a generator that loads them,
        one lexicon is in memory at a time.
        """
        tables: dict[str, dict[str, str]] = {}
        for lexicon in lexicons:
            tag = str(lexicon.tgt_lang)
            if tag in tables:
                raise AugmentError(
                    f"two lexicons for {tag}; merge them first"
                )
            lexicon = truncate_topk(lexicon, top_k)
            tables[tag] = {
                source: joined
                for source, joined in lexicon.table.items()
                if source not in lexicon.phrases
            }
            del lexicon  # before the loop asks the generator for the next one
        return cls(tables)


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
    table: Mapping[str, str],
    probability: float,
    rng: random.Random,
) -> tuple[str | None, int, int]:
    """Replace dictionary-matched tokens with probability ``probability``.

    ``table`` maps a case-folded word to its tab-joined translations (see
    :class:`SubstitutionSet`); each replacement draws ``randrange(n)`` over
    the word's ``n`` translations, ``n = 1`` included. Returns (augmented
    text or None when nothing was replaced, number of dictionary-matched
    tokens, number of replacements).
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
            choices = options.split("\t")
            choice = choices[rng.randrange(len(choices))]
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
    subs: SubstitutionSet,
    policy: AugmentationPolicy,
    rng: random.Random,
) -> SentencePair | None:
    """Code-switch one English-source pair, or None if nothing changed.

    The target side of the returned pair is byte-identical to the input.
    """
    if pair.src_lang != ENGLISH:
        raise AugmentError(f"source language must be {ENGLISH}, got {pair.src_lang}")
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


def augment_rows(
    rows: Iterable[Sequence[str]],
    start: int,
    subs: SubstitutionSet,
    policy: AugmentationPolicy,
    label: str,
    totals: list[int],
) -> Iterator[tuple[int, Sequence[str], str]]:
    """(index, row, new source) for each row :func:`augment_record` changed.

    Rows start ``src_lang, tgt_lang, source`` (rendered, English source);
    the first has corpus index ``start``, and row ``index`` draws from the
    stream seeded by ``(policy.seed, "augment", index)``, so chunking never
    changes bytes; in pair-target mode a row whose target has no table
    draws nothing and derives no stream. Errors name
    ``<label>:<index + 1>``. When the rows run out, adds rows seen,
    without lexicon, tokens matched and replaced to ``totals``.
    """
    eng = _ENG_TEXT
    rng = random.Random()
    pair_target = policy.mode == MODE_PAIR_TARGET
    index = start - 1
    without_lexicon = matched_total = replaced_total = 0
    for index, row in enumerate(rows, start):
        if row[0] != eng:
            raise AugmentError(
                f"{label}:{index + 1}: source language must be {eng}, got {row[0]!r}"
            )
        if pair_target and row[1] not in subs.tables:
            without_lexicon += 1
            continue
        rng.seed(derive_seed(policy.seed, "augment", index))
        result = augment_record(row[2], row[1], subs, policy, rng)
        if result is None:
            without_lexicon += 1
            continue
        new_source, matched, replaced = result
        matched_total += matched
        replaced_total += replaced
        if new_source is not None:
            yield index, row, new_source
    for i, n in enumerate((index + 1 - start, without_lexicon, matched_total, replaced_total)):
        totals[i] += n


def augment_corpus(
    corpus: ParallelCorpus,
    subs: SubstitutionSet,
    policy: AugmentationPolicy,
) -> tuple[ParallelCorpus, AugmentStats]:
    """Augment every pair of an English-to-Indic corpus.

    Pairs whose substitution language has no lexicon, and pairs where no
    token was replaced, produce no output. ``origin_indices`` in the stats
    maps each augmented pair back to its source pair's corpus index.
    """
    totals = [0, 0, 0, 0]
    rows = ((str(pair.src_lang), str(pair.tgt_lang), pair.source) for pair in corpus)
    augmented: list[SentencePair] = []
    origins: list[int] = []
    for index, _, new_source in augment_rows(rows, 0, subs, policy, "corpus", totals):
        augmented.append(dc_replace(corpus[index], source=new_source))
        origins.append(index)
    seen, without_lexicon, matched, replaced = totals
    stats = AugmentStats(
        seen, len(augmented), without_lexicon, matched, replaced, tuple(origins)
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

    def __post_init__(self) -> None:
        if self.n_total != 2 * self.n_original + self.n_augmented:
            raise AugmentError(
                f"mixture identity violated: {self.n_total} != "
                f"2*{self.n_original} + {self.n_augmented}"
            )
        if self.n_reversed != self.n_original:
            raise AugmentError("reversed pair count must equal original pair count")

    def to_dict(self) -> dict:
        """The four counts, as the ``stats`` of a ``mixture`` run's ``run.json``."""
        return {
            "original_pairs": self.n_original,
            "reversed_pairs": self.n_reversed,
            "augmented_pairs": self.n_augmented,
            "total_pairs": self.n_total,
        }


def mixture_line(origin: str, row: Sequence[str]) -> str:
    """One mixture TSV line: the row's five fields, swapped for ``rev``, and its origin."""
    if origin == "rev":
        return "\t".join((row[1], row[0], row[3], row[2], row[4], origin))
    return "\t".join(row[:5]) + "\t" + origin


def write_mixture(
    paths: tuple[str, str], valid_tags: Collection[str], out: str | Path, threads: int = 1
) -> list[int]:
    """Write the mixture of two corpus TSVs to ``out``; return its three row counts.

    ``paths`` are the original and the augmented corpus, each read once,
    whole or by range (:func:`corpus.file_tasks`): the mixture is each
    ``orig`` row of the original followed by its ``rev`` row, then the
    ``aug`` rows. Sources must be English and augmented targets original
    targets; errors name ``<path>:<line>``. The token carries the counts
    and the original targets. An ``aug`` task notes the line where each of
    its targets first occurs and checks them at its turn, so the first
    error in file order is raised: a target absent before the task's own
    first error, else that error.
    """
    eng = _ENG_TEXT
    names = dict(zip(("orig", "aug"), paths))

    def section(task: tuple[str, tuple[int, int, int] | None]) -> Work[tuple]:
        origin, span = task
        first_lines: dict[str, int] = {}

        def lines() -> Iterator[str]:
            for lineno, row in iter_tsv_rows(names[origin], valid_tags, span):
                if row[0] != eng:
                    raise not_english_source(names[origin], lineno, origin)
                first_lines.setdefault(row[1], lineno)
                yield mixture_line(origin, row)
                if origin == "orig":
                    yield mixture_line("rev", row)

        try:
            n = yield from encode_rows(lines())
        except PipelineError as exc:
            if origin != "aug":
                raise
            return origin, 0, first_lines, exc
        return origin, n, first_lines, None

    def add(token: tuple[dict, set], part: tuple) -> tuple[dict, set]:
        counts, targets = token
        origin, n, first_lines, error = part
        if origin == "orig":
            targets.update(first_lines)
        else:
            check_targets(first_lines, targets, paths[1])
        if error is not None:
            raise error
        counts[origin] += n
        return token

    tasks = file_tasks(threads, paths, list(names))
    counts, _ = ordered_map(*tasks, section, add, ({"orig": 0, "aug": 0}, set()), [out])
    original = counts["orig"] // 2  # two lines per row: its orig and its rev
    return [original, original, counts["aug"]]


def not_english_source(name: str, lineno: int, origin: str) -> AugmentError:
    """The error for a mixture input row without an English source (``orig`` or ``aug``)."""
    corpus = "original" if origin == "orig" else "augmented"
    return AugmentError(f"{name}:{lineno}: {corpus} corpus must be {_ENG_TEXT} source")


def check_targets(first_lines: Mapping[str, int], targets: Collection[str], name: str) -> None:
    """Each augmented target language (mapped to its first line) must be an original target.

    The first one, in the mapping's order, that is not raises.
    """
    for lang, lineno in first_lines.items():
        if lang not in targets:
            raise AugmentError(f"{name}:{lineno}: language {lang} absent from original corpus")


def build_pretraining_mixture(
    en_indic: ParallelCorpus,
    augmented: ParallelCorpus,
) -> tuple[ParallelCorpus, MixtureManifest]:
    """Each original pair followed by its reversal, then the augmented pairs.

    Checked as :func:`write_mixture` checks its files, in the same order;
    errors name ``original:<n>`` or ``augmented:<n>``, the pair's position.
    """
    targets: set[str] = set()
    for lineno, pair in enumerate(en_indic, 1):
        if pair.src_lang != ENGLISH:
            raise not_english_source("original", lineno, "orig")
        targets.add(str(pair.tgt_lang))
    for lineno, pair in enumerate(augmented, 1):
        if pair.src_lang != ENGLISH:
            raise not_english_source("augmented", lineno, "aug")
        check_targets({str(pair.tgt_lang): lineno}, targets, "augmented")
    pairs = (*(p for pair in en_indic for p in (pair, reverse_pair(pair))), *augmented)
    manifest = MixtureManifest(len(en_indic), len(en_indic), len(augmented), len(pairs))
    return ParallelCorpus(pairs), manifest


# ---------------------------------------------------------------------------
# Seed-data selection


def select_seed(
    corpus: ParallelCorpus | Keyed,
    budget: int = DEFAULT_SEED_BUDGET,
    seed: int = 0,
) -> ParallelCorpus | Selection:
    """Sample seed data proportionally to subset sizes, exactly ``budget``.

    Pairs are keyed by their subset label, which must come from
    :data:`SEED_SUBSETS`. Selection within a subset is uniform without
    replacement, and the selected pairs keep corpus order. Pairs, or
    items keyed by subset label, as :func:`selection.draw` takes them.
    """

    def allocated(sizes: Mapping[str, int]) -> dict[str, int]:
        unknown = sorted(set(sizes) - set(SEED_SUBSETS))
        if unknown:
            raise CorpusError(
                f"unknown seed subsets: {', '.join(unknown)}; expected {SEED_SUBSETS}"
            )
        if budget <= 0:
            raise CorpusError(f"budget must be positive, got {budget}")
        available = sum(sizes.values())
        if budget > available:
            raise CorpusError(f"budget {budget} exceeds available pairs {available}")
        return largest_remainder(sizes, budget)

    return draw(corpus, _subset, allocated, seed, "seed-select")


def _subset(pair: SentencePair) -> str:
    return pair.subset
