"""Command-line interface: the pipeline as deterministic subcommands.

Every subcommand writes its outputs to explicitly named paths, never
mutates inputs, and records a run manifest (``<output>.run.json``) with
the config snapshot and SHA-256 digests of inputs and outputs. ``--seed``
is the single entropy source; omitting it picks a random seed that is
recorded in the manifest. ``--threads`` only changes scheduling, never
bytes: all randomness is drawn from per-record streams.

A defaults file with ``key = value`` lines can be pointed to by the
``PIPELINE_CONFIG`` environment variable; explicit flags win over it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import random
import secrets
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import augment as augment_mod
from . import corpus as corpus_mod
from . import evalharness
from . import lexicon as lexicon_mod
from . import sampling
from . import trainconfig
from .errors import AugmentError, ConfigError, CorpusError, PipelineError, read_text
from .lang import ENGLISH, LanguageTag, load_extra_tags, parse_pair, parse_tag, registry
from .manifest import RunManifest, manifest_path_for, sha256_file
from .rng import derive_seed

_CONFIG_ENV = "PIPELINE_CONFIG"

_INT_KEYS = {"seed", "threads", "topk", "budget", "threshold"}
_FLOAT_KEYS = {"temperature", "prob", "factor"}
_STR_KEYS = {"format", "mode"}
_CONFIG_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_AUGMENT_CHUNK = 4096
_ENG_TEXT = str(ENGLISH)


# ---------------------------------------------------------------------------
# Config file and flag resolution


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    text = read_text(path, ConfigError)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _convert(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key}={raw!r}: {exc}") from exc


class Run:
    """Resolved settings for one invocation."""

    def __init__(self, args: argparse.Namespace, file_cfg: dict[str, str]):
        self.args = args
        self.file_cfg = file_cfg
        self.seed_given = self.opt("seed", None) is not None
        self.seed: int = self.opt("seed", secrets.randbits(32))
        self.threads: int = self.opt("threads", 1)
        if self.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {self.threads}")
        tags_file = getattr(args, "tags_file", None)
        self.extra_tags: tuple[LanguageTag, ...] = (
            load_extra_tags(tags_file) if tags_file else ()
        )
        self.valid_tags = {str(t) for t in registry()} | {str(t) for t in self.extra_tags}
        self.write_manifest = not getattr(args, "no_manifest", False)

    def opt(self, key: str, default):
        value = getattr(self.args, key, None)
        if value is None and key in self.file_cfg:
            value = _convert(key, self.file_cfg[key])
        return default if value is None else value

    def parse_tag(self, text: str) -> LanguageTag:
        return parse_tag(text, self.extra_tags)

    def check_tag(self, rendered: str, path: str | Path, lineno: int) -> None:
        if rendered not in self.valid_tags:
            raise CorpusError(f"{path}:{lineno}: unknown language tag {rendered!r}")

    def finish(
        self,
        command: str,
        config: dict,
        inputs: Iterable[str | Path],
        outputs: Iterable[str | Path],
        started: float,
    ) -> None:
        if not self.write_manifest:
            return
        outputs = [Path(p) for p in outputs]
        if not outputs:
            return
        run = RunManifest(command=command, config=config, seed=self.seed)
        for path in inputs:
            run.add_input(path)
        for path in outputs:
            run.add_output(path)
        run.wall_time_s = time.monotonic() - started
        run.write(manifest_path_for(outputs[0]))


# ---------------------------------------------------------------------------
# Row streaming helpers (raw TSV fields, no object construction)


def _accounting_tag(fields: list[str]) -> str:
    src, tgt = fields[0], fields[1]
    if src == _ENG_TEXT:
        return tgt
    if tgt == _ENG_TEXT:
        return src
    return tgt


def _count_accounting_tags(run: Run, path: str) -> dict[str, int]:
    """Rows per rendered accounting language; validates both tags of each row."""
    counts: dict[str, int] = {}
    for lineno, fields in corpus_mod.iter_fields(path):
        run.check_tag(fields[0], path, lineno)
        run.check_tag(fields[1], path, lineno)
        tag = _accounting_tag(fields)
        counts[tag] = counts.get(tag, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ingest(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    out = Path(args.out)
    excluded = set(args.exclude_subset or ())
    skipped: list[tuple[int, str]] = []

    if args.in_path:
        inputs = [args.in_path]

        def rows() -> Iterator[str]:
            for lineno, fields in corpus_mod.iter_fields(args.in_path):
                run.check_tag(fields[0], args.in_path, lineno)
                run.check_tag(fields[1], args.in_path, lineno)
                if fields[0] == fields[1]:
                    raise CorpusError(
                        f"{args.in_path}:{lineno}: source and target language are equal"
                    )
                source, target, reason = corpus_mod.clean_pair(fields[2], fields[3])
                subset = fields[4]
                if subset in excluded:
                    reason = f"excluded subset:{subset}"
                if reason:
                    skipped.append((lineno, reason))
                else:
                    yield "\t".join((fields[0], fields[1], source, target, subset))

    else:
        if not (args.src and args.tgt and args.src_lang and args.tgt_lang):
            raise ConfigError(
                "ingest needs either --in (TSV) or all of --src/--tgt/--src-lang/--tgt-lang"
            )
        src_tag = run.parse_tag(args.src_lang)
        tgt_tag = run.parse_tag(args.tgt_lang)
        if src_tag == tgt_tag:
            raise CorpusError("source and target language are equal")
        subset = args.subset
        if subset in excluded:
            raise ConfigError(f"subset {subset!r} is excluded by --exclude-subset")
        inputs = [args.src, args.tgt]
        row_prefix = f"{src_tag}\t{tgt_tag}\t"

        def rows() -> Iterator[str]:
            for lineno, src_line, tgt_line in corpus_mod.iter_paired_lines(args.src, args.tgt):
                source, target, reason = corpus_mod.clean_pair(src_line, tgt_line)
                if reason:
                    skipped.append((lineno, reason))
                else:
                    yield f"{row_prefix}{source}\t{target}\t{subset}"

    kept = corpus_mod.write_tsv_rows(rows(), out)
    skip_path = Path(str(out) + ".skipped.txt")
    corpus_mod.write_skip_report(
        corpus_mod.IngestReport(kept, tuple(skipped)), skip_path
    )
    print(f"ingest: kept {kept} pairs, skipped {len(skipped)} -> {out}")
    config = {
        "in": args.in_path,
        "src": args.src,
        "tgt": args.tgt,
        "src_lang": args.src_lang,
        "tgt_lang": args.tgt_lang,
        "subset": args.subset,
        "exclude_subset": sorted(excluded),
        "threads": run.threads,
    }
    run.finish("ingest", config, inputs, [out, skip_path], started)
    return 0


def _cmd_stats(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    counts = _count_accounting_tags(run, args.in_path)
    stats_value = corpus_mod.stats_from_counts(
        {run.parse_tag(tag): n for tag, n in counts.items()}
    )
    print(corpus_mod.format_stats_table(stats_value))
    outputs: list[Path] = []
    if args.out:
        lines = [f"{tag}\t{n}" for tag, n in sorted(counts.items())]
        Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        outputs.append(Path(args.out))
    run.finish("stats", {"in": args.in_path}, [args.in_path], outputs, started)
    return 0


def _cmd_reduce(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    threshold = run.opt("threshold", corpus_mod.HIGH_RESOURCE_THRESHOLD)
    factor = run.opt("factor", corpus_mod.HIGH_RESOURCE_FACTOR)
    counts = _count_accounting_tags(run, args.in_path)
    keep = corpus_mod.reduce_keep(counts, threshold, factor, run.seed)
    rows = (fields for _, fields in corpus_mod.iter_fields(args.in_path))
    kept_rows = corpus_mod.keep_ordinals(rows, _accounting_tag, keep)
    kept = corpus_mod.write_tsv_rows(("\t".join(f[:5]) for f in kept_rows), args.out)
    print(
        f"reduce: kept {kept} of {sum(counts.values())} pairs "
        f"({len(keep)} languages over threshold {threshold}) -> {args.out}"
    )
    config = {
        "in": args.in_path,
        "threshold": threshold,
        "factor": factor,
        "seed": run.seed,
        "threads": run.threads,
    }
    run.finish("reduce", config, [args.in_path], [args.out], started)
    return 0


def _cmd_sample(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    temperature = run.opt("temperature", 5.0)
    corpus = corpus_mod.read_tsv(args.in_path, run.extra_tags)
    stats_value = corpus_mod.stats(corpus)
    plan = sampling.distribution(stats_value, temperature, seed=run.seed)
    budget = run.opt("budget", len(corpus))
    plan = sampling.allocate(plan, budget)
    sampled = sampling.materialize(plan, corpus, budget, seed=run.seed)
    corpus_mod.write_tsv(sampled, args.out)
    plan_path = Path(args.plan_out or f"{args.out}.plan.tsv")
    plot_path = Path(args.plot_out or f"{args.out}.plot.tsv")
    sampling.write_plan_tsv(plan, plan_path)
    sampling.write_plot_tsv(plan, plot_path)
    print(
        f"sample: T={temperature:g} budget={budget} languages={len(plan.probabilities)} "
        f"-> {args.out}"
    )
    config = {
        "in": args.in_path,
        "temperature": temperature,
        "budget": budget,
        "seed": run.seed,
        "threads": run.threads,
    }
    run.finish("sample", config, [args.in_path], [args.out, plan_path, plot_path], started)
    return 0


def _cmd_lexicon(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    fmt = run.opt("format", lexicon_mod.MUSE)
    topk = run.opt("topk", lexicon_mod.DEFAULT_TOP_K)
    tgt = run.parse_tag(args.tgt_lang)
    lex = lexicon_mod.load(args.in_path, fmt, tgt)
    lex = lexicon_mod.truncate_topk(lex, topk)
    rows = lexicon_mod.write_tsv(lex, args.out)
    print(
        f"lexicon: {len(lex)} entries ({rows} translations), "
        f"skipped {lex.skipped_count} lines -> {args.out}"
    )
    config = {"in": args.in_path, "format": fmt, "topk": topk, "tgt_lang": str(tgt)}
    run.finish("lexicon", config, [args.in_path], [args.out], started)
    return 0


def _parse_lex_specs(specs: Sequence[str]) -> list[tuple[str, str]]:
    out = []
    for spec in specs:
        tag, sep, path = spec.partition("=")
        if not sep or not tag or not path:
            raise ConfigError(f"--lex expects TAG=PATH, got {spec!r}")
        out.append((tag, path))
    return out


_WORKER: dict = {}


def _augment_worker_init(
    subs: augment_mod.SubstitutionSet, policy: augment_mod.AugmentationPolicy
) -> None:
    _WORKER[0] = (subs, policy)


def _augment_chunk(task: tuple[int, list[str], str]) -> tuple[list[str], int, int, int, int]:
    """Augment one chunk of raw TSV lines; pure given the worker state.

    ``start`` is the corpus index of the chunk's first line, so every record
    draws from the same stream as in :func:`augment.augment_corpus`.
    """
    subs, policy = _WORKER[0]
    start, lines, label = task
    out: list[str] = []
    without_lexicon = 0
    matched_total = 0
    replaced_total = 0
    rng = random.Random()
    for index, line in enumerate(lines, start=start):
        fields = corpus_mod.split_row(line, label, index + 1)
        if fields[0] != _ENG_TEXT:
            raise AugmentError(
                f"{label}:{index + 1}: source language must be {_ENG_TEXT}, got {fields[0]!r}"
            )
        rng.seed(derive_seed(policy.seed, "augment", index))
        result = augment_mod.augment_record(fields[2], fields[1], subs, policy, rng)
        if result is None:
            without_lexicon += 1
            continue
        new_source, matched, replaced = result
        matched_total += matched
        replaced_total += replaced
        if new_source is not None:
            out.append("\t".join((fields[0], fields[1], new_source, fields[3], fields[4])))
    return out, len(lines), without_lexicon, matched_total, replaced_total


def _read_chunks(path: str | Path, size: int) -> Iterator[tuple[int, list[str], str]]:
    lines = corpus_mod.iter_lines(path)
    start = 0
    while chunk := list(itertools.islice(lines, size)):
        yield start, chunk, str(path)
        start += len(chunk)


def _cmd_augment(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    fmt = run.opt("format", lexicon_mod.MUSE)
    policy = augment_mod.AugmentationPolicy(
        probability=run.opt("prob", augment_mod.DEFAULT_PROBABILITY),
        top_k=run.opt("topk", lexicon_mod.DEFAULT_TOP_K),
        mode=run.opt("mode", augment_mod.MODE_RANDOM_LANGUAGE),
        seed=run.seed,
    )
    specs = _parse_lex_specs(args.lex)
    lexicons = []
    for tag_text, path in specs:
        tgt = run.parse_tag(tag_text)
        if tgt == ENGLISH:
            raise ConfigError("lexicon target language cannot be eng_Latn")
        lexicons.append(lexicon_mod.load(path, fmt, tgt))
    subs = augment_mod.SubstitutionSet.prepare(lexicons, policy.top_k)
    totals = [0, 0, 0, 0]  # seen, without lexicon, matched, replaced

    def consume(results: Iterable[tuple[list[str], int, int, int, int]]) -> Iterator[str]:
        for out_lines, *counts in results:
            for i, n in enumerate(counts):
                totals[i] += n
            yield from out_lines

    chunks = _read_chunks(args.in_path, _AUGMENT_CHUNK)
    if run.threads > 1:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        with ctx.Pool(
            run.threads, initializer=_augment_worker_init, initargs=(subs, policy)
        ) as pool:
            augmented = corpus_mod.write_tsv_rows(
                consume(pool.imap(_augment_chunk, chunks)), args.out
            )
    else:
        _augment_worker_init(subs, policy)
        augmented = corpus_mod.write_tsv_rows(
            consume(_augment_chunk(chunk) for chunk in chunks), args.out
        )

    seen, without_lexicon, matched, replaced = totals
    rate = replaced / matched if matched else 0.0
    print(
        f"augment: {augmented} of {seen} pairs augmented "
        f"({without_lexicon} without lexicon), {replaced}/{matched} matched tokens "
        f"replaced (rate {rate:.4f}) -> {args.out}"
    )
    config = {
        "in": args.in_path,
        "lex": [f"{t}={p}" for t, p in specs],
        "format": fmt,
        "prob": policy.probability,
        "topk": policy.top_k,
        "mode": policy.mode,
        "seed": run.seed,
        "threads": run.threads,
        "stats": {
            "pairs_seen": seen,
            "pairs_augmented": augmented,
            "pairs_without_lexicon": without_lexicon,
            "tokens_matched": matched,
            "tokens_replaced": replaced,
        },
    }
    run.finish(
        "augment", config, [args.in_path] + [p for _, p in specs], [args.out], started
    )
    return 0


def _augment_policy_snapshot(aug_path: str) -> dict | None:
    """Recover the augmentation policy from the augmented file's run manifest."""
    manifest = manifest_path_for(aug_path)
    if not manifest.exists():
        return None
    try:
        config = json.loads(manifest.read_text(encoding="utf-8")).get("config", {})
    except (OSError, ValueError):
        return None
    keys = ("prob", "topk", "mode", "seed")
    if not all(k in config for k in keys):
        return None
    return {
        "probability": config["prob"],
        "top_k": config["topk"],
        "mode": config["mode"],
        "seed": config["seed"],
    }


def _cmd_mixture(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    eng = _ENG_TEXT
    n_original = 0
    n_augmented = 0
    original_targets: set[str] = set()

    def rows() -> Iterator[str]:
        nonlocal n_original, n_augmented
        for lineno, fields in corpus_mod.iter_fields(args.in_path):
            if fields[0] != eng:
                raise AugmentError(
                    f"{args.in_path}:{lineno}: original corpus must be {eng} source"
                )
            run.check_tag(fields[1], args.in_path, lineno)
            original_targets.add(fields[1])
            n_original += 1
            yield "\t".join(fields[:5]) + "\torig"
        for _, fields in corpus_mod.iter_fields(args.in_path):
            yield "\t".join((fields[1], fields[0], fields[3], fields[2], fields[4], "rev"))
        for lineno, fields in corpus_mod.iter_fields(args.aug):
            if fields[0] != eng:
                raise AugmentError(
                    f"{args.aug}:{lineno}: augmented corpus must be {eng} source"
                )
            if fields[1] not in original_targets:
                raise AugmentError(
                    f"{args.aug}:{lineno}: language {fields[1]} absent from original corpus"
                )
            n_augmented += 1
            yield "\t".join(fields[:5]) + "\taug"

    corpus_mod.write_tsv_rows(rows(), args.out)
    manifest = augment_mod.MixtureManifest(
        n_original=n_original,
        n_reversed=n_original,
        n_augmented=n_augmented,
        n_total=2 * n_original + n_augmented,
        seed=run.seed if run.seed_given else None,
    )
    mix_path = Path(args.mixture_manifest or f"{args.out}.mixture.json")
    doc = manifest.to_dict()
    doc["policy"] = _augment_policy_snapshot(args.aug)
    doc["inputs"] = {
        str(args.in_path): sha256_file(args.in_path),
        str(args.aug): sha256_file(args.aug),
    }
    mix_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(
        f"mixture: {manifest.n_total} pairs "
        f"(2*{n_original} + {n_augmented}) -> {args.out}"
    )
    config = {"in": args.in_path, "aug": args.aug, "threads": run.threads}
    run.finish(
        "mixture", config, [args.in_path, args.aug], [args.out, mix_path], started
    )
    return 0


def _cmd_seed_select(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    budget = run.opt("budget", augment_mod.DEFAULT_SEED_BUDGET)
    by_subset: dict[str, list[corpus_mod.SentencePair]] = {}
    for _, pair in corpus_mod.iter_tsv_rows(args.in_path, run.extra_tags):
        by_subset.setdefault(pair.subset, []).append(pair)
    corpora = {
        label: corpus_mod.ParallelCorpus(tuple(pairs))
        for label, pairs in by_subset.items()
    }
    selected = augment_mod.select_seed(corpora, budget=budget, seed=run.seed)
    corpus_mod.write_tsv(
        selected, args.out, origins=(f"seed:{p.subset}" for p in selected)
    )
    per_subset = {
        label: sum(1 for p in selected if p.subset == label) for label in sorted(corpora)
    }
    print(f"seed-select: {len(selected)} pairs {per_subset} -> {args.out}")
    config = {"in": args.in_path, "budget": budget, "seed": run.seed, "threads": run.threads}
    run.finish("seed-select", config, [args.in_path], [args.out], started)
    return 0


def _cmd_score(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    pair = parse_pair(args.pair, run.extra_tags)
    row = evalharness.score_run(args.hyp, args.ref, pair)
    print(f"{row.pair}\t{row.bleu:.4f}\t{row.chrf:.4f}\t{row.chrf_pp:.4f}")
    outputs: list[Path] = []
    if args.out:
        evalharness.write_rows_tsv([row], args.out)
        outputs.append(Path(args.out))
    config = {"hyp": args.hyp, "ref": args.ref, "pair": args.pair}
    run.finish("score", config, [args.hyp, args.ref], outputs, started)
    return 0


def _cmd_report(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    rows: list[evalharness.ScoreRow] = []
    metadata: dict[str, str] = {}
    for path in args.in_paths:
        rows.extend(evalharness.read_rows_tsv(path, run.extra_tags))
        metadata[f"digest:{path}"] = sha256_file(path)
    rep = evalharness.report(rows, metadata)
    print(evalharness.render_text(rep))
    outputs: list[Path] = []
    if args.out:
        evalharness.write_report_tsv(rep, args.out)
        outputs.append(Path(args.out))
    run.finish("report", {"in": list(args.in_paths)}, list(args.in_paths), outputs, started)
    return 0


def _cmd_train_config(run: Run) -> int:
    args = run.args
    started = time.monotonic()
    config = trainconfig.emit(args.phase)
    if args.out:
        trainconfig.write_json(config, args.out)
        print(f"train-config: {args.phase} -> {args.out}")
        run.finish("train-config", {"phase": args.phase}, [], [args.out], started)
    else:
        print(json.dumps(config.to_dict(), indent=2))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="global random seed")
    parser.add_argument(
        "--threads", type=int, default=None, help="worker count (never changes output bytes)"
    )
    parser.add_argument(
        "--tags-file", default=None, help="file of extra language tags, one per line"
    )
    parser.add_argument(
        "--no-manifest", action="store_true", help="skip writing the run manifest"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitextpipe",
        description="Deterministic multilingual MT data pipeline and scorer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a corpus into TSV")
    p.add_argument("--in", dest="in_path", default=None, help="input corpus TSV")
    p.add_argument("--src", default=None, help="source-side line file")
    p.add_argument("--tgt", default=None, help="target-side line file")
    p.add_argument("--src-lang", default=None)
    p.add_argument("--tgt-lang", default=None)
    p.add_argument("--subset", default=corpus_mod.DEFAULT_SUBSET)
    p.add_argument("--exclude-subset", action="append", default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="per-language pair counts")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", default=None, help="optional lang/count TSV")
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("reduce", help="halve languages over the high-resource threshold")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--factor", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("sample", help="temperature-sample the corpus to a budget")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--plan-out", default=None)
    p.add_argument("--plot-out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("lexicon", help="normalize and truncate a bilingual lexicon")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--format", default=None, choices=list(lexicon_mod.FORMATS))
    p.add_argument("--tgt-lang", required=True)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_lexicon)

    p = sub.add_parser("augment", help="dictionary code-switching augmentation")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument(
        "--lex", action="append", required=True, help="TAG=PATH lexicon file, repeatable"
    )
    p.add_argument("--format", default=None, choices=list(lexicon_mod.FORMATS))
    p.add_argument("--prob", type=float, default=None)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument(
        "--mode", default=None, choices=list(augment_mod.MODES)
    )
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("mixture", help="original + reversed + augmented pre-training TSV")
    p.add_argument("--in", dest="in_path", required=True, help="original En->Indic TSV")
    p.add_argument("--aug", required=True, help="augmented TSV")
    p.add_argument("--out", required=True)
    p.add_argument("--mixture-manifest", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_mixture)

    p = sub.add_parser("seed-select", help="proportional seed-data selection")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_seed_select)

    p = sub.add_parser("score", help="BLEU/chrF/chrF++ for one language pair")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--pair", required=True, help="e.g. asm_Beng-eng_Latn")
    p.add_argument("--out", default=None, help="optional score-row TSV")
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("report", help="aggregate score rows into a table")
    p.add_argument("--in", dest="in_paths", action="append", required=True)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("train-config", help="emit a training hyperparameter manifest")
    p.add_argument("--phase", required=True, choices=list(trainconfig.PHASES))
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_train_config)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config_file(os.environ.get(_CONFIG_ENV))
        run = Run(args, file_cfg)
        return args.func(run)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
