"""The command chain of each workload, as a user would type it.

Each step is one ``python -m bitextpipe`` invocation. ``kind`` says how the
command uses memory: ``stream`` commands should run in a fixed working set,
``inmem`` commands hold their whole input (sample, seed-select, score).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Step:
    name: str  # unique within a pass, e.g. augment_1w or score_eng_Latn-hin_Deva
    command: str  # the bitextpipe subcommand
    argv: tuple[str, ...]
    kind: str  # "stream" or "inmem"
    out: str  # primary output, relative to the pass directory


def reduced_size(info: dict) -> int:
    return sum(
        math.ceil(0.5 * n) if tag in info["over_threshold"] else n
        for tag, n in info["kept_counts"].items()
    )


def _lex_args(info: dict, inputs: Path) -> list[str]:
    args = []
    for tag, name in sorted(info["lexicons"].items()):
        args += ["--lex", f"{tag}={inputs / name}"]
    return args + ["--format", info["lexicon_format"], "--mode", info["mode"],
                   "--prob", "0.3", "--topk", "4000"]


def _step(name: str, command: str, kind: str, out: Path, *args: str) -> Step:
    return Step(name, command, (command, *args, "--out", str(out)), kind, out.name)


def pretrain_zipf(info: dict, inputs: Path, work: Path, seed: int) -> list[Step]:
    s = str(seed)
    lex = _lex_args(info, inputs)
    return [
        _step("ingest", "ingest", "stream", work / "ingested.tsv",
              "--in", str(inputs / info["corpus"]), "--seed", s),
        _step("stats", "stats", "stream", work / "stats.tsv",
              "--in", str(work / "ingested.tsv"), "--seed", s),
        _step("reduce", "reduce", "stream", work / "reduced.tsv",
              "--in", str(work / "ingested.tsv"), "--threshold", str(info["threshold"]),
              "--seed", s),
        _step("sample", "sample", "inmem", work / "sampled.tsv",
              "--in", str(work / "reduced.tsv"), "--temperature", "5",
              "--budget", str(reduced_size(info)), "--seed", s),
        _step("augment_1w", "augment", "stream", work / "augmented_1w.tsv",
              "--in", str(work / "sampled.tsv"), *lex, "--seed", s, "--threads", "1"),
        _step("augment_2w", "augment", "stream", work / "augmented_2w.tsv",
              "--in", str(work / "sampled.tsv"), *lex, "--seed", s, "--threads", "2"),
        _step("mixture", "mixture", "stream", work / "mixture.tsv",
              "--in", str(work / "sampled.tsv"), "--aug", str(work / "augmented_1w.tsv"),
              "--seed", s),
    ]


def seed_longtail(info: dict, inputs: Path, work: Path, seed: int) -> list[Step]:
    s = str(seed)
    return [
        _step("ingest", "ingest", "stream", work / "ingested.tsv",
              "--in", str(inputs / info["corpus"]), "--seed", s),
        _step("seed_select", "seed-select", "inmem", work / "seed.tsv",
              "--in", str(work / "ingested.tsv"), "--budget", str(info["budget"]), "--seed", s),
        _step("augment_1w", "augment", "stream", work / "augmented_1w.tsv",
              "--in", str(work / "seed.tsv"), *_lex_args(info, inputs), "--seed", s,
              "--threads", "1"),
        _step("mixture", "mixture", "stream", work / "mixture.tsv",
              "--in", str(work / "seed.tsv"), "--aug", str(work / "augmented_1w.tsv"),
              "--seed", s),
    ]


def score_mixed(info: dict, inputs: Path, work: Path, seed: int) -> list[Step]:
    steps = []
    rows = []
    for entry in info["score_pairs"]:
        out = work / f"row_{entry['pair']}.tsv"
        rows += ["--in", str(out)]
        steps.append(_step(f"score_{entry['pair']}", "score", "inmem", out,
                           "--hyp", str(inputs / entry["hyp"]),
                           "--ref", str(inputs / entry["ref"]),
                           "--pair", entry["pair"]))
    steps.append(_step("report", "report", "stream", work / "report.tsv", *rows))
    return steps


PLANS = {
    "pretrain-zipf": pretrain_zipf,
    "seed-longtail": seed_longtail,
    "score-mixed": score_mixed,
}


def plan(workload: str, info: dict, inputs: Path, work: Path, seed: int) -> list[Step]:
    return PLANS[workload](info, inputs, work, seed)
