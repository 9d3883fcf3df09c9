"""Temperature sampling over the per-language corpus distribution.

Raising the temperature flattens a skewed language distribution: each
language's share is exponentiated to 1/T and renormalized,

    p_l = (n_l / N)^(1/T) / sum_k (n_k / N)^(1/T)

so T=1 reproduces the raw proportions and large T approaches uniform.
Target counts for a fixed budget are allocated by largest-remainder
rounding over exact rational quotas, which preserves the budget exactly
and is independent of input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction
from pathlib import Path
from typing import Mapping, TypeVar

from .corpus import CorpusStats, ParallelCorpus, SentencePair, accounting_language
from .errors import PlanError
from .lang import LanguageTag
from .rng import derive_rng, pick

K = TypeVar("K")


@dataclass(frozen=True)
class SamplingPlan:
    """Per-language probabilities and (once allocated) target counts."""

    temperature: float
    raw_counts: Mapping[LanguageTag, int]
    probabilities: Mapping[LanguageTag, float]
    counts: Mapping[LanguageTag, int] | None = None
    budget: int | None = None
    seed: int | None = None

    def languages(self) -> list[LanguageTag]:
        return sorted(self.probabilities, key=str)


def distribution(stats: CorpusStats, temperature: float, seed: int | None = None) -> SamplingPlan:
    """Build the temperature-flattened distribution from exact counts."""
    if temperature <= 0:
        raise PlanError(f"temperature must be positive, got {temperature}")
    counts = dict(stats.counts)
    if not counts:
        raise PlanError("empty stats: no languages to sample")
    for tag, count in counts.items():
        if count <= 0:
            raise PlanError(f"count for {tag} must be positive, got {count}")
    total = sum(counts.values())
    inv_t = 1.0 / temperature
    weights = {tag: (count / total) ** inv_t for tag, count in counts.items()}
    norm = sum(weights.values())
    if norm == 0.0:
        raise PlanError(
            f"temperature {temperature} is too small: every language weight "
            f"(n/N)**(1/T) underflows to 0"
        )
    probabilities = {tag: weight / norm for tag, weight in weights.items()}
    return SamplingPlan(temperature, counts, probabilities, seed=seed)


def largest_remainder(weights: Mapping[K, float], budget: int) -> dict[K, int]:
    """Integer allocation of ``budget`` proportional to ``weights``.

    Quotas ``budget * w / sum(w)`` are exact rationals. Every quota is
    floored, then the leftover units go to the largest remainders; ties
    break on ``str(key)`` so the result does not depend on mapping order.
    Sampling passes language probabilities, seed selection subset sizes.
    """
    if budget < 0:
        raise PlanError(f"budget must be non-negative, got {budget}")
    exact = {key: Fraction(weight) for key, weight in weights.items()}
    total = sum(exact.values())
    quotas = {key: budget * weight / total for key, weight in exact.items()}
    alloc = {key: math.floor(quota) for key, quota in quotas.items()}
    leftover = budget - sum(alloc.values())
    order = sorted(quotas, key=lambda key: (-(quotas[key] - alloc[key]), str(key)))
    for key in order[:leftover]:
        alloc[key] += 1
    return alloc


def allocate(plan: SamplingPlan, budget: int) -> SamplingPlan:
    """Fix target counts for ``budget`` via largest-remainder rounding."""
    if budget <= 0:
        raise PlanError(f"budget must be positive, got {budget}")
    counts = largest_remainder(plan.probabilities, budget)
    return dc_replace(plan, counts=counts, budget=budget)


def materialize(
    plan: SamplingPlan,
    corpus: ParallelCorpus,
    budget: int | None = None,
    seed: int | None = None,
) -> ParallelCorpus:
    """Draw the planned number of pairs per language from ``corpus``.

    Languages whose target count is at most their supply are downsampled
    without replacement (survivors keep corpus order); languages needing
    more are repeated whole plus a seeded remainder sample (see
    :func:`rng.pick`). Output is grouped by rendered tag, so it depends
    only on (plan, corpus, seed).
    """
    if budget is None:
        budget = plan.budget if plan.budget is not None else len(corpus)
    if seed is None:
        seed = plan.seed if plan.seed is not None else 0
    if plan.counts is None or plan.budget != budget:
        plan = allocate(plan, budget)
    assert plan.counts is not None

    groups: dict[LanguageTag, list[SentencePair]] = {}
    for pair in corpus:
        groups.setdefault(accounting_language(pair), []).append(pair)

    missing_in_plan = sorted(str(t) for t in groups if t not in plan.probabilities)
    if missing_in_plan:
        raise PlanError(f"corpus languages missing from plan: {', '.join(missing_in_plan)}")
    unsupplied = sorted(
        str(t) for t, c in plan.counts.items() if c > 0 and t not in groups
    )
    if unsupplied:
        raise PlanError(f"plan wants pairs for languages absent from corpus: {', '.join(unsupplied)}")

    out: list[SentencePair] = []
    for tag in plan.languages():
        want = plan.counts.get(tag, 0)
        if want == 0:
            continue
        pool = groups[tag]
        rng = derive_rng(seed, "materialize", str(tag))
        out.extend(pool[i] for i in pick(len(pool), want, rng))
    return ParallelCorpus(tuple(out))


def write_plan_tsv(plan: SamplingPlan, path: str | Path) -> None:
    """Serialize the plan as ``lang<TAB>n<TAB>p<TAB>c`` rows."""
    lines = ["lang\tn\tp\tc"]
    for tag in plan.languages():
        n = plan.raw_counts.get(tag, 0)
        p = plan.probabilities[tag]
        c = plan.counts.get(tag, 0) if plan.counts is not None else 0
        lines.append(f"{tag}\t{n}\t{p:.10f}\t{c}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plot_tsv(plan: SamplingPlan, path: str | Path) -> None:
    """Raw vs sampled series (counts and shares) for external plotting."""
    total_raw = sum(plan.raw_counts.values())
    counts = plan.counts or {}
    total_sampled = sum(counts.values())
    lines = ["lang\traw_count\traw_share\tsampled_count\tsampled_share"]
    for tag in plan.languages():
        n = plan.raw_counts.get(tag, 0)
        raw_share = n / total_raw if total_raw else 0.0
        c = counts.get(tag, 0)
        sampled_share = c / total_sampled if total_sampled else plan.probabilities[tag]
        lines.append(f"{tag}\t{n}\t{raw_share:.10f}\t{c}\t{sampled_share:.10f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
