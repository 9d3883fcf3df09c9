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
import contextlib
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

# Only what every subcommand needs is imported here, so a call never pays
# for another command's modules: each handler imports the rest when it runs
# and looks functions up on their module then, so a rebound module
# attribute (a test double, a tracer) takes effect.
from . import corpus as corpus_mod
from .errors import AugmentError, ConfigError, CorpusError, PipelineError, read_lines
from .lang import ENGLISH, LanguageTag, load_extra_tags, parse_pair, parse_tag, registry
from .manifest import RunManifest, manifest_path_for, sha256_file

if TYPE_CHECKING:
    from .augment import AugmentationPolicy, SubstitutionSet
    from .selection import SpilledPools

_CONFIG_ENV = "PIPELINE_CONFIG"

_INT_KEYS = {"seed", "threads", "topk", "budget", "threshold"}
_FLOAT_KEYS = {"temperature", "prob", "factor"}
_STR_KEYS = {"format", "mode"}
_CONFIG_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_AUGMENT_CHUNK = 4096

# Parser choices, equal to lexicon.FORMATS, augment.MODES and
# trainconfig.PHASES (a test ties them) without importing those modules.
_FORMATS = ("muse", "gatitos")
_MODES = ("random-language", "pair-target")
_PHASES = ("pretrain", "finetune")


# ---------------------------------------------------------------------------
# Config file and flag resolution


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path, ConfigError), start=1):
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
        seed = self.opt("seed", None)
        self.seed_given = seed is not None
        if seed is None:
            import secrets

            seed = secrets.randbits(32)
        self.seed: int = seed
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

    def finish(
        self,
        command: str,
        config: dict,
        inputs: Iterable[str | Path],
        outputs: Iterable[str | Path],
        started: float,
        digests: Mapping[str, str] | None = None,
    ) -> None:
        """Write ``run.json``; ``digests`` holds input digests already computed."""
        if not self.write_manifest:
            return
        outputs = [Path(p) for p in outputs]
        if not outputs:
            return
        run = RunManifest(command=command, config=config, seed=self.seed)
        for path in inputs:
            run.add_input(path, (digests or {}).get(str(path)))
        for path in outputs:
            run.add_output(path)
        run.wall_time_s = time.monotonic() - started
        run.write(manifest_path_for(outputs[0]))


# ---------------------------------------------------------------------------
# Row streaming helpers (raw TSV fields, no object construction)


def _count_accounting_tags(run: Run, path: str) -> dict[str, int]:
    """Rows per rendered accounting language; validates both tags of each row."""
    counts: dict[str, int] = {}
    for lineno, fields in corpus_mod.iter_fields(path):
        corpus_mod.check_tags(fields, run.valid_tags, path, lineno)
        tag = corpus_mod.accounting_language(fields[0], fields[1])
        counts[tag] = counts.get(tag, 0) + 1
    return counts


@contextlib.contextmanager
def _spilled_pools(
    run: Run, key_and_row: Callable[[corpus_mod.SentencePair], tuple[Hashable, str]]
) -> Iterator[SpilledPools]:
    """Validated ``--in`` rows spilled by key into a directory beside ``--out``.

    The directory is removed when the block exits, on success and on error.
    """
    import tempfile

    from .selection import SpilledPools

    out = Path(run.args.out)
    with tempfile.TemporaryDirectory(prefix=f"{out.name}.spill.", dir=out.parent) as spill:
        rows = corpus_mod.iter_tsv_rows(run.args.in_path, run.extra_tags)
        yield SpilledPools((key_and_row(pair) for _, pair in rows), spill)


@contextlib.contextmanager
def _remove_on_error(*paths: str | Path) -> Iterator[None]:
    """Delete ``paths`` if the block raises, so a failed run leaves no output."""
    try:
        yield
    except BaseException:
        for path in paths:
            Path(path).unlink(missing_ok=True)
        raise


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

        def tsv_rows() -> Iterator[tuple[int, list[str]]]:
            for lineno, fields in corpus_mod.iter_fields(args.in_path):
                corpus_mod.check_tags(fields, run.valid_tags, args.in_path, lineno)
                if fields[0] == fields[1]:
                    raise CorpusError(
                        f"{args.in_path}:{lineno}: source and target language are equal"
                    )
                yield lineno, fields

        rows: Iterable[tuple[int, Sequence[str]]] = tsv_rows()
    else:
        if not (args.src and args.tgt and args.src_lang and args.tgt_lang):
            raise ConfigError(
                "ingest needs either --in (TSV) or all of --src/--tgt/--src-lang/--tgt-lang"
            )
        tags = (str(run.parse_tag(args.src_lang)), str(run.parse_tag(args.tgt_lang)))
        subset = args.subset
        if subset in excluded:
            raise ConfigError(f"subset {subset!r} is excluded by --exclude-subset")
        inputs = [args.src, args.tgt]
        rows = corpus_mod.iter_paired_rows(args.src, args.tgt, *tags, subset)

    cleaned = corpus_mod.clean_rows(rows, skipped, excluded)
    kept = corpus_mod.write_tsv_rows(map("\t".join, cleaned), out)
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
    kept_rows = corpus_mod.keep_ordinals(
        rows, lambda f: corpus_mod.accounting_language(f[0], f[1]), keep
    )
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
    from . import sampling

    args = run.args
    started = time.monotonic()
    temperature = run.opt("temperature", 5.0)

    def key_and_row(pair: corpus_mod.SentencePair) -> tuple[LanguageTag, str]:
        key = corpus_mod.accounting_language(pair.src_lang, pair.tgt_lang)
        return key, corpus_mod.format_tsv_row(pair)

    with _spilled_pools(run, key_and_row) as pools:
        stats_value = corpus_mod.stats_from_counts(pools.counts)
        plan = sampling.distribution(stats_value, temperature, seed=run.seed)
        budget = run.opt("budget", stats_value.total)
        plan = sampling.allocate(plan, budget)
        sampled = sampling.materialize(plan, pools, budget, seed=run.seed)
        corpus_mod.write_tsv_bytes(sampled, args.out)
    plan_path = Path(args.plan_out or f"{args.out}.plan.tsv")
    plot_path = Path(args.plot_out or f"{args.out}.plot.tsv")
    with _remove_on_error(args.out, plan_path):
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
    from . import lexicon as lexicon_mod

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


def _augment_worker_init(subs: SubstitutionSet, policy: AugmentationPolicy, tags: set) -> None:
    _WORKER[0] = (subs, policy, tags)


def _augment_chunk(task: tuple[int, list[str], str]) -> tuple[list[str], list[int]]:
    """Augment one chunk of raw TSV lines; pure given the worker state.

    ``start`` is the corpus index of the chunk's first line. Returns the
    output rows and the chunk's four :func:`augment.augment_rows` totals.
    """
    from . import augment as augment_mod

    subs, policy, valid_tags = _WORKER[0]
    start, lines, label = task

    def rows() -> Iterator[list[str]]:
        for lineno, line in enumerate(lines, start=start + 1):
            fields = corpus_mod.split_row(line, label, lineno)
            corpus_mod.check_tags(fields, valid_tags, label, lineno)
            yield fields

    totals = [0, 0, 0, 0]
    out = [
        "\t".join((f[0], f[1], new_source, f[3], f[4]))
        for _, f, new_source in augment_mod.augment_rows(
            rows(), start, subs, policy, label, totals
        )
    ]
    return out, totals


def _read_chunks(path: str | Path, size: int) -> Iterator[tuple[int, list[str], str]]:
    lines = corpus_mod.iter_lines(path)
    start = 0
    while chunk := list(itertools.islice(lines, size)):
        yield start, chunk, str(path)
        start += len(chunk)


def _cmd_augment(run: Run) -> int:
    from . import augment as augment_mod
    from . import lexicon as lexicon_mod

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

    def consume(results: Iterable[tuple[list[str], list[int]]]) -> Iterator[str]:
        for out_lines, counts in results:
            for i, n in enumerate(counts):
                totals[i] += n
            yield from out_lines

    chunks = _read_chunks(args.in_path, _AUGMENT_CHUNK)
    state = (subs, policy, run.valid_tags)
    if run.threads > 1:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        with ctx.Pool(run.threads, initializer=_augment_worker_init, initargs=state) as pool:
            augmented = corpus_mod.write_tsv_rows(
                consume(pool.imap(_augment_chunk, chunks)), args.out
            )
    else:
        _augment_worker_init(*state)
        augmented = corpus_mod.write_tsv_rows(consume(map(_augment_chunk, chunks)), args.out)

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


def _augment_policy(aug_path: str) -> AugmentationPolicy | None:
    """The policy in the augmented file's run manifest; None if absent or invalid."""
    from .augment import AugmentationPolicy

    try:
        doc = json.loads(manifest_path_for(aug_path).read_text(encoding="utf-8"))
        config = doc["config"]
        return AugmentationPolicy(config["prob"], config["topk"], config["mode"], config["seed"])
    except (OSError, ValueError, LookupError, TypeError, AugmentError):
        return None


def _cmd_mixture(run: Run) -> int:
    from . import augment as augment_mod

    args = run.args
    started = time.monotonic()
    counts: list[int] = []
    mixed = augment_mod.mixture_rows(
        lambda: corpus_mod.iter_fields(args.in_path),
        corpus_mod.iter_fields(args.aug),
        (args.in_path, args.aug),
        run.valid_tags,
        counts,
    )

    def rows() -> Iterator[str]:
        for origin, f in mixed:
            if origin == "rev":
                yield "\t".join((f[1], f[0], f[3], f[2], f[4], origin))
            else:
                yield "\t".join(f[:5]) + "\t" + origin

    corpus_mod.write_tsv_rows(rows(), args.out)
    mix_path = Path(args.mixture_manifest or f"{args.out}.mixture.json")
    digests = {str(path): sha256_file(path) for path in (args.in_path, args.aug)}
    with _remove_on_error(args.out):
        seed = run.seed if run.seed_given else None
        manifest = augment_mod.MixtureManifest(
            *counts, sum(counts), seed, _augment_policy(args.aug)
        )
        doc = dict(manifest.to_dict(), inputs=digests)
        mix_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(
        f"mixture: {manifest.n_total} pairs "
        f"(2*{manifest.n_original} + {manifest.n_augmented}) -> {args.out}"
    )
    config = {"in": args.in_path, "aug": args.aug, "threads": run.threads}
    run.finish(
        "mixture", config, [args.in_path, args.aug], [args.out, mix_path], started, digests
    )
    return 0


def _cmd_seed_select(run: Run) -> int:
    from . import augment as augment_mod

    args = run.args
    started = time.monotonic()
    budget = run.opt("budget", augment_mod.DEFAULT_SEED_BUDGET)

    def key_and_row(pair: corpus_mod.SentencePair) -> tuple[str, str]:
        return pair.subset, corpus_mod.format_tsv_row(pair, f"seed:{pair.subset}")

    with _spilled_pools(run, key_and_row) as pools:
        selected = augment_mod.select_seed(pools, budget=budget, seed=run.seed)
        corpus_mod.write_tsv_bytes(selected, args.out)
    per_subset = {label: selected.counts.get(label, 0) for label in sorted(pools)}
    print(f"seed-select: {len(selected)} pairs {per_subset} -> {args.out}")
    config = {"in": args.in_path, "budget": budget, "seed": run.seed, "threads": run.threads}
    run.finish("seed-select", config, [args.in_path], [args.out], started)
    return 0


def _cmd_score(run: Run) -> int:
    from . import evalharness

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
    from . import evalharness

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
    from . import trainconfig

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
    p.add_argument("--format", default=None, choices=list(_FORMATS))
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
    p.add_argument("--format", default=None, choices=list(_FORMATS))
    p.add_argument("--prob", type=float, default=None)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--mode", default=None, choices=list(_MODES))
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
    p.add_argument("--phase", required=True, choices=list(_PHASES))
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
