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

from .corpus import CorpusStats, ParallelCorpus, pair_language, write_tsv_rows
from .errors import PlanError
from .lang import LanguageTag
from .selection import Keyed, Selection, draw

K = TypeVar("K")


@dataclass(frozen=True)
class SamplingPlan:
    """Per-language probabilities and (once allocated) target counts."""

    temperature: float
    raw_counts: Mapping[LanguageTag, int]
    probabilities: Mapping[LanguageTag, float]
    counts: Mapping[LanguageTag, int] | None = None
    budget: int | None = None

    def languages(self) -> list[LanguageTag]:
        return sorted(self.probabilities, key=str)


def distribution(stats: CorpusStats, temperature: float) -> SamplingPlan:
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
    return SamplingPlan(temperature, counts, probabilities)


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
    corpus: ParallelCorpus | Keyed,
    budget: int,
    seed: int = 0,
) -> ParallelCorpus | Selection:
    """Draw ``budget`` pairs from ``corpus``, per language as :func:`allocate` plans them.

    Languages whose target count is at most their supply are downsampled
    without replacement; languages needing more repeat every pair, then
    draw the rest by a seeded remainder sample (see
    :class:`selection.Selection`). Output keeps corpus order, with a
    repeated pair's copies adjacent, and depends only on (plan, corpus,
    budget, seed). Pairs, or items keyed by accounting language, as
    :func:`selection.draw` takes them.
    """
    wants = allocate(plan, budget).counts
    assert wants is not None

    def checked(counts: Mapping[LanguageTag, int]) -> Mapping[LanguageTag, int]:
        missing_in_plan = sorted(str(t) for t in counts if t not in plan.probabilities)
        if missing_in_plan:
            raise PlanError(f"corpus languages missing from plan: {', '.join(missing_in_plan)}")
        unsupplied = sorted(str(t) for t, c in wants.items() if c > 0 and t not in counts)
        if unsupplied:
            raise PlanError(
                f"plan wants pairs for languages absent from corpus: {', '.join(unsupplied)}"
            )
        return wants

    return draw(corpus, pair_language, checked, seed, "materialize")


def write_plan_tsv(plan: SamplingPlan, path: str | Path) -> None:
    """Serialize the plan as ``lang<TAB>n<TAB>p<TAB>c`` rows."""
    lines = ["lang\tn\tp\tc"]
    for tag in plan.languages():
        n = plan.raw_counts.get(tag, 0)
        p = plan.probabilities[tag]
        c = plan.counts.get(tag, 0) if plan.counts is not None else 0
        lines.append(f"{tag}\t{n}\t{p:.10f}\t{c}")
    write_tsv_rows(lines, path)


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
    write_tsv_rows(lines, path)
