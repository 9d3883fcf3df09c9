"""Command-line interface: the pipeline as deterministic subcommands.

Every subcommand writes its outputs to explicitly named paths and never
mutates inputs. A handler declares its inputs and outputs on its
:class:`Run` and returns its stdout text and config; :func:`_execute`
then writes the run manifest (``<first output>.run.json``: config
snapshot, SHA-256 digests of the bytes read and written) last and prints
the text. A command without an output file writes no manifest. When a run
fails, the outputs it renamed into place are removed. ``--seed`` is the
single entropy source; omitting it picks a random seed that is recorded
in the manifest. ``--threads`` (default: the usable CPUs) only changes
scheduling, never bytes: all randomness is drawn from per-record streams.

A defaults file with ``key = value`` lines can be pointed to by the
``PIPELINE_CONFIG`` environment variable; explicit flags win over it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import stat
import sys
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Mapping, Sequence, TypeVar

# Only what every subcommand needs is imported here, so a call never pays
# for another command's modules: each handler imports the rest when it runs
# and looks functions up on their module then, so a rebound module
# attribute (a test double, a tracer) takes effect.
from . import corpus as corpus_mod
from . import errors
from .errors import AugmentError, ConfigError, CorpusError, PipelineError, iter_lines
from .lang import ENGLISH, load_extra_tags, parse_pair, parse_tag, rendered_tags
from .manifest import RunManifest, manifest_path_for, sha256_file

if TYPE_CHECKING:
    from .augment import AugmentationPolicy, SubstitutionSet
    from .selection import Keyed

_CONFIG_ENV = "PIPELINE_CONFIG"

_P = TypeVar("_P", str, Path)

_INT_KEYS = {"seed", "threads", "topk", "budget", "threshold"}
_FLOAT_KEYS = {"temperature", "prob", "factor"}
_STR_KEYS = {"format", "mode"}
_CONFIG_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

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
    for lineno, raw in enumerate(iter_lines(path, ConfigError), start=1):
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
    """Resolved settings and the declared files of one invocation."""

    def __init__(self, args: argparse.Namespace, file_cfg: dict[str, str]):
        self.started = time.monotonic()
        self.args = args
        self.file_cfg = file_cfg
        seed = self.opt("seed", None)
        self.seed_given = seed is not None
        if seed is None:
            import secrets

            seed = secrets.randbits(32)
        self.seed: int = seed
        self.threads: int = self.opt("threads", corpus_mod.usable_cpus())
        if self.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {self.threads}")
        self.extra_tags = load_extra_tags(args.tags_file) if args.tags_file else ()
        # Rendered tag -> tag: the tags a corpus row may carry.
        self.valid_tags = rendered_tags(self.extra_tags)
        self.inputs: list[str | Path] = []
        # (path as given, the file it resolves to, that file's identity before the write)
        self.outputs: list[tuple[Path, str, tuple[int, int] | None]] = []
        self._digests: dict[tuple[str, str], str | None] = {}

    def opt(self, key: str, default):
        value = getattr(self.args, key, None)
        if value is None and key in self.file_cfg:
            value = _convert(key, self.file_cfg[key])
        return default if value is None else value

    def input(self, *paths: str | Path) -> None:
        """Declare input files; ``run.json`` records their digests."""
        self.inputs.extend(paths)

    def output(self, path: _P) -> _P:
        """Declare an output file before writing it; returns ``path``.

        The first output declared names ``<output>.run.json``. The path is
        resolved as :func:`corpus._atomic_open` resolves it, and the
        ``(st_dev, st_ino)`` found there now tells a failed run which files
        it renamed into place.
        """
        real = os.path.realpath(path)
        before: tuple[int, int] | None = None
        with contextlib.suppress(OSError):
            st = os.stat(real)
            before = (st.st_dev, st.st_ino)
        self.outputs.append((Path(path), real, before))
        return path

    def digest(self, path: str | Path, kind: str) -> str | None:
        """SHA-256 of ``path`` as this run read (``kind`` "in") or wrote ("out") it.

        Looked up once per path and kind; ``None`` for a pipe or device.
        """
        key = kind, str(path)
        if key not in self._digests:
            self._digests[key] = sha256_file(path, kind) if os.path.isfile(path) else None
        return self._digests[key]

    def remove_written(self) -> None:
        """Unlink each declared output that this run renamed into place.

        Only a regular file whose identity changed since it was declared
        goes: never a symlink itself, a device or pipe written in place, or
        an earlier run's file that this run did not replace.
        """
        for _, real, before in self.outputs:
            with contextlib.suppress(OSError):
                st = os.lstat(real)
                if stat.S_ISREG(st.st_mode) and (st.st_dev, st.st_ino) != before:
                    os.unlink(real)


def _execute(run: Run, handler: Callable[[Run], tuple[str, dict]]) -> int:
    """Run ``handler``, write ``run.json`` last, then print the handler's text.

    A handler declares its files on ``run`` and returns its stdout text and
    its ``run.json`` config. On any error the outputs this run wrote are
    removed and nothing is printed.
    """
    errors.digests = {}  # this run's, recorded by the reader and the writer
    try:
        text, config = handler(run)
        if run.outputs and not run.args.no_manifest:
            inputs = {str(path): run.digest(path, "in") for path in run.inputs}
            outputs = {str(path): run.digest(path, "out") for path, _, _ in run.outputs}
            manifest = RunManifest(run.args.command, config, run.seed, inputs, outputs)
            manifest.wall_time_s = time.monotonic() - run.started
            manifest.write(manifest_path_for(run.outputs[0][0]))
    except BaseException:
        run.remove_written()
        raise
    finally:
        errors.digests = None
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Row streaming helpers (checked raw TSV fields, no object construction)


def _count_keys(run: Run, key: Callable[[list[str]], str]) -> Counter[str]:
    """Checked ``--in`` rows per key of their fields, in first-seen order.

    The work of ``stats`` and the first read of ``reduce``, ``sample`` and
    ``seed-select``. Each task's counts are added in file order, so the
    first-seen order is the file's.
    """

    def count(task: tuple[str, tuple[int, int, int] | None]) -> corpus_mod.Work[Counter[str]]:
        rows = corpus_mod.iter_tsv_rows(task[0], run.valid_tags, task[1])
        return Counter(key(fields) for _, fields in rows)
        yield  # a work function with no output

    tasks = corpus_mod.file_tasks(run.threads, [run.args.in_path])
    return corpus_mod.ordered_map(*tasks, count, _update, Counter())


def _reread(run: Run, key: Callable[[str], str], counts: Mapping[str, int]) -> Keyed:
    """``--in``'s rows read a second time, five fields each, keyed by ``key``.

    ``counts`` are the rows per key of the first read, which checked every
    row, so this one checks none: a row is its line, less a sixth field.
    If the file changed in between, the draw finds other counts per key or
    the reader a different digest at end of file, and either fails with
    ``<in>: changed while read``. ``key`` must take any row, a changed
    one too.
    """
    from .selection import Keyed

    path = run.args.in_path
    return Keyed(map(_five_fields, corpus_mod.iter_lines(path)), key, counts, path)


def _five_fields(line: str) -> str:
    return line if line.count("\t") == 4 else line[:line.rfind("\t")]


def _language(fields: Sequence[str]) -> str:
    return corpus_mod.accounting_language(fields[0], fields[1])


def _row_language(row: str) -> str | None:
    try:
        src, tgt, _ = row.split("\t", 2)
    except ValueError:  # fewer fields than the first read checked: no key
        return None
    return corpus_mod.accounting_language(src, tgt)


def _row_subset(row: str) -> str:
    return row[row.rfind("\t") + 1:]


def _require_regular(path: str) -> None:
    """Reject an input that is not a regular file, for a command that reads it twice.

    A pipe cannot be opened for a second read once its writer has gone:
    the open would wait for good. A missing file is left to the first read.
    """
    with contextlib.suppress(OSError):
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise CorpusError(f"{path}: not a regular file, and this command reads it twice")


def _update(token: Counter[str], part: Counter[str]) -> Counter[str]:
    token.update(part)
    return token


def _add_counts(token: tuple[int, ...], part: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(token, part))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ingest(run: Run) -> tuple[str, dict]:
    args = run.args
    out = run.output(Path(args.out))
    skip_path = run.output(Path(f"{out}.skipped.txt"))
    excluded = set(args.exclude_subset or ())

    if args.in_path:
        run.input(args.in_path)
        tasks, threads = corpus_mod.file_tasks(run.threads, [args.in_path])

        def rows(task: tuple[str, tuple[int, int, int] | None]
                 ) -> Iterator[tuple[int, list[str]]]:
            path, span = task
            for lineno, fields in corpus_mod.iter_fields(path, span):
                corpus_mod.check_tags(fields, run.valid_tags, path, lineno)
                if fields[0] == fields[1]:
                    raise CorpusError(f"{path}:{lineno}: source and target language are equal")
                yield lineno, fields
    else:
        if not (args.src and args.tgt and args.src_lang and args.tgt_lang):
            raise ConfigError(
                "ingest needs either --in (TSV) or all of --src/--tgt/--src-lang/--tgt-lang"
            )
        tags = tuple(str(parse_tag(t, run.extra_tags)) for t in (args.src_lang, args.tgt_lang))
        subset = args.subset
        if subset in excluded:
            raise ConfigError(f"subset {subset!r} is excluded by --exclude-subset")
        run.input(args.src, args.tgt)
        # One task: the two files would have to be cut at matching lines.
        tasks, threads = [None], 1

        def rows(_: None) -> Iterator[tuple[int, tuple]]:
            return corpus_mod.iter_paired_rows(args.src, args.tgt, *tags, subset)

    kept, skipped = corpus_mod.ordered_map(
        tasks, threads, lambda task: corpus_mod.clean_rows(rows(task), excluded), _add_counts,
        (0, 0), (out, skip_path))
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
    return f"ingest: kept {kept} pairs, skipped {skipped} -> {out}", config


def _cmd_stats(run: Run) -> tuple[str, dict]:
    args = run.args
    run.input(args.in_path)
    counts = _count_keys(run, _language)
    stats_value = corpus_mod.stats_from_counts(
        {run.valid_tags[tag]: n for tag, n in counts.items()}
    )
    if args.out:
        rows = (f"{tag}\t{n}" for tag, n in sorted(counts.items()))
        corpus_mod.write_tsv_rows(rows, run.output(args.out))
    return corpus_mod.format_stats_table(stats_value), {"in": args.in_path, "threads": run.threads}


def _cmd_reduce(run: Run) -> tuple[str, dict]:
    from .selection import Selection

    args = run.args
    _require_regular(args.in_path)
    run.input(args.in_path)
    threshold = run.opt("threshold", corpus_mod.HIGH_RESOURCE_THRESHOLD)
    factor = run.opt("factor", corpus_mod.HIGH_RESOURCE_FACTOR)
    counts = _count_keys(run, _language)
    keep = corpus_mod.reduce_keep(counts, threshold, factor)
    kept_rows = Selection(_reread(run, _row_language, counts), {**counts, **keep}, run.seed,
                          "reduce")
    kept = corpus_mod.write_tsv_rows(kept_rows, run.output(args.out))
    config = {
        "in": args.in_path,
        "threshold": threshold,
        "factor": factor,
        "seed": run.seed,
        "threads": run.threads,
    }
    return (
        f"reduce: kept {kept} of {sum(counts.values())} pairs "
        f"({len(keep)} languages over threshold {threshold}) -> {args.out}"
    ), config


def _cmd_sample(run: Run) -> tuple[str, dict]:
    from . import sampling

    args = run.args
    _require_regular(args.in_path)
    run.input(args.in_path)
    temperature = run.opt("temperature", 5.0)
    counts = _count_keys(run, _language)
    stats_value = corpus_mod.stats_from_counts(counts)
    plan = sampling.distribution(stats_value, temperature, seed=run.seed)
    budget = run.opt("budget", stats_value.total)
    plan = sampling.allocate(plan, budget)
    sampled = sampling.materialize(plan, _reread(run, _row_language, counts), budget,
                                   seed=run.seed)
    corpus_mod.write_tsv_rows(sampled, run.output(args.out))
    sampling.write_plan_tsv(plan, run.output(Path(args.plan_out or f"{args.out}.plan.tsv")))
    sampling.write_plot_tsv(plan, run.output(Path(args.plot_out or f"{args.out}.plot.tsv")))
    config = {
        "in": args.in_path,
        "temperature": temperature,
        "budget": budget,
        "seed": run.seed,
        "threads": run.threads,
    }
    return (
        f"sample: T={temperature:g} budget={budget} languages={len(plan.probabilities)} "
        f"-> {args.out}"
    ), config


def _cmd_lexicon(run: Run) -> tuple[str, dict]:
    from . import lexicon as lexicon_mod

    args = run.args
    run.input(args.in_path)
    fmt = run.opt("format", lexicon_mod.MUSE)
    topk = run.opt("topk", lexicon_mod.DEFAULT_TOP_K)
    tgt = parse_tag(args.tgt_lang, run.extra_tags)
    lex = lexicon_mod.load(args.in_path, fmt, tgt, top_k=topk)
    rows = lexicon_mod.write_tsv(lex, run.output(args.out))
    config = {"in": args.in_path, "format": fmt, "topk": topk, "tgt_lang": str(tgt)}
    return (
        f"lexicon: {len(lex)} entries ({rows} translations), "
        f"skipped {lex.skipped_count} lines -> {args.out}"
    ), config


def _parse_lex_specs(specs: Sequence[str]) -> list[tuple[str, str]]:
    out = []
    for spec in specs:
        tag, sep, path = spec.partition("=")
        if not sep or not tag or not path:
            raise ConfigError(f"--lex expects TAG=PATH, got {spec!r}")
        out.append((tag, path))
    return out


def _augment_chunk(
    path: str,
    span: tuple[int, int, int] | None,
    subs: SubstitutionSet,
    policy: AugmentationPolicy,
    valid_tags: Collection[str],
) -> corpus_mod.Work[tuple[int, ...]]:
    """The work of ``augment``: the augmented rows of ``path``, whole or one span.

    Returns the rows written and the four :func:`augment.augment_rows`
    totals.
    """
    from . import augment as augment_mod

    totals = [0] * 4
    rows = (fields for _, fields in corpus_mod.iter_tsv_rows(path, valid_tags, span))
    augmented = augment_mod.augment_rows(rows, span[2] if span else 0, subs, policy, path, totals)
    written = yield from corpus_mod.encode_rows(
        f"{f[0]}\t{f[1]}\t{new_source}\t{f[3]}\t{f[4]}" for _, f, new_source in augmented
    )
    return written, *totals


def _cmd_augment(run: Run) -> tuple[str, dict]:
    from . import augment as augment_mod
    from . import lexicon as lexicon_mod

    args = run.args
    fmt = run.opt("format", lexicon_mod.MUSE)
    policy = augment_mod.AugmentationPolicy(
        probability=run.opt("prob", augment_mod.DEFAULT_PROBABILITY),
        top_k=run.opt("topk", lexicon_mod.DEFAULT_TOP_K),
        mode=run.opt("mode", augment_mod.MODE_RANDOM_LANGUAGE),
        seed=run.seed,
    )
    specs = _parse_lex_specs(args.lex)
    run.input(args.in_path, *(p for _, p in specs))

    def lexicons() -> Iterator[lexicon_mod.BilingualLexicon]:
        for tag_text, path in specs:
            tgt = parse_tag(tag_text, run.extra_tags)
            if tgt == ENGLISH:
                raise ConfigError("lexicon target language cannot be eng_Latn")
            yield lexicon_mod.load(path, fmt, tgt, top_k=policy.top_k)

    # A generator: each lexicon is read into its top-K entries only, and
    # dropped once its table is built, before the next one is read.
    subs = augment_mod.SubstitutionSet.prepare(lexicons(), policy.top_k)
    out = run.output(args.out)
    augmented, seen, without_lexicon, matched, replaced = corpus_mod.ordered_map(
        *corpus_mod.file_tasks(run.threads, [args.in_path]),
        lambda task: _augment_chunk(*task, subs, policy, run.valid_tags),
        _add_counts, (0,) * 5, [out])
    rate = replaced / matched if matched else 0.0
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
    return (
        f"augment: {augmented} of {seen} pairs augmented "
        f"({without_lexicon} without lexicon), {replaced}/{matched} matched tokens "
        f"replaced (rate {rate:.4f}) -> {args.out}"
    ), config


def _augment_policy(aug_path: str) -> AugmentationPolicy | None:
    """The policy in the augmented file's run manifest; None if absent or invalid."""
    from .augment import AugmentationPolicy

    try:
        doc = json.loads(manifest_path_for(aug_path).read_text(encoding="utf-8"))
        config = doc["config"]
        return AugmentationPolicy(config["prob"], config["topk"], config["mode"], config["seed"])
    except (OSError, ValueError, LookupError, TypeError, AugmentError):
        return None


def _cmd_mixture(run: Run) -> tuple[str, dict]:
    from . import augment as augment_mod

    args = run.args
    _require_regular(args.in_path)
    inputs = (args.in_path, args.aug)
    run.input(*inputs)
    counts = augment_mod.write_mixture(inputs, run.valid_tags, run.output(args.out), run.threads)
    mix_path = Path(args.mixture_manifest or f"{args.out}.mixture.json")
    seed = run.seed if run.seed_given else None
    manifest = augment_mod.MixtureManifest(*counts, sum(counts), seed, _augment_policy(args.aug))
    doc = dict(manifest.to_dict(), inputs={str(path): run.digest(path, "in") for path in inputs})
    corpus_mod.write_tsv_rows([json.dumps(doc, indent=2)], run.output(mix_path))
    config = {"in": args.in_path, "aug": args.aug, "threads": run.threads}
    return (
        f"mixture: {manifest.n_total} pairs "
        f"(2*{manifest.n_original} + {manifest.n_augmented}) -> {args.out}"
    ), config


def _cmd_seed_select(run: Run) -> tuple[str, dict]:
    from . import augment as augment_mod

    args = run.args
    _require_regular(args.in_path)
    run.input(args.in_path)
    budget = run.opt("budget", augment_mod.DEFAULT_SEED_BUDGET)
    counts = _count_keys(run, lambda fields: fields[4])
    selected = augment_mod.select_seed(_reread(run, _row_subset, counts), budget, run.seed)
    rows = (f"{row}\tseed:{_row_subset(row)}" for row in selected)
    corpus_mod.write_tsv_rows(rows, run.output(args.out))
    per_subset = dict(sorted(selected.wants.items()))
    config = {"in": args.in_path, "budget": budget, "seed": run.seed, "threads": run.threads}
    return f"seed-select: {len(selected)} pairs {per_subset} -> {args.out}", config


def _cmd_score(run: Run) -> tuple[str, dict]:
    from . import evalharness

    args = run.args
    run.input(args.hyp, args.ref)
    pair = parse_pair(args.pair, run.extra_tags)
    row = evalharness.score_run(args.hyp, args.ref, pair, run.threads)
    if args.out:
        evalharness.write_rows_tsv([row], run.output(args.out))
    config = {"hyp": args.hyp, "ref": args.ref, "pair": args.pair, "threads": run.threads,
              "signatures": evalharness.SIGNATURES}
    return f"{row.pair}\t{row.bleu:.4f}\t{row.chrf:.4f}\t{row.chrf_pp:.4f}", config


def _cmd_report(run: Run) -> tuple[str, dict]:
    from . import evalharness

    args = run.args
    run.input(*args.in_paths)
    rows: list[evalharness.ScoreRow] = []
    for path in args.in_paths:
        rows.extend(evalharness.read_rows_tsv(path, run.extra_tags))
    rep = evalharness.report(rows)
    if args.out:
        evalharness.write_report_tsv(rep, run.output(args.out))
    config = {"in": list(args.in_paths), "signatures": evalharness.SIGNATURES}
    return evalharness.render_text(rep), config


def _cmd_train_config(run: Run) -> tuple[str, dict]:
    from . import trainconfig

    args = run.args
    config = trainconfig.emit(args.phase)
    if not args.out:
        return json.dumps(config.to_dict(), indent=2), {}
    trainconfig.write_json(config, run.output(args.out))
    return f"train-config: {args.phase} -> {args.out}", {"phase": args.phase}


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="global random seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for ingest --in, stats, reduce, sample, "
                        "seed-select, augment, mixture and score, default: the usable CPUs "
                        "(never changes output bytes)")
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

    p = sub.add_parser("stats", help="per-language pair counts")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", default=None, help="optional lang/count TSV")
    _add_common(p)

    p = sub.add_parser("reduce", help="halve languages over the high-resource threshold")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--factor", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("sample", help="temperature-sample the corpus to a budget")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--plan-out", default=None)
    p.add_argument("--plot-out", default=None)
    _add_common(p)

    p = sub.add_parser("lexicon", help="normalize and truncate a bilingual lexicon")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--format", default=None, choices=list(_FORMATS))
    p.add_argument("--tgt-lang", required=True)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

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

    p = sub.add_parser("mixture", help="original + reversed + augmented pre-training TSV")
    p.add_argument("--in", dest="in_path", required=True, help="original En->Indic TSV")
    p.add_argument("--aug", required=True, help="augmented TSV")
    p.add_argument("--out", required=True)
    p.add_argument("--mixture-manifest", default=None)
    _add_common(p)

    p = sub.add_parser("seed-select", help="proportional seed-data selection")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("score", help="BLEU/chrF/chrF++ for one language pair")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--pair", required=True, help="e.g. asm_Beng-eng_Latn")
    p.add_argument("--out", default=None, help="optional score-row TSV")
    _add_common(p)

    p = sub.add_parser("report", help="aggregate score rows into a table")
    p.add_argument("--in", dest="in_paths", action="append", required=True)
    p.add_argument("--out", default=None)
    _add_common(p)

    p = sub.add_parser("train-config", help="emit a training hyperparameter manifest")
    p.add_argument("--phase", required=True, choices=list(_PHASES))
    p.add_argument("--out", default=None)
    _add_common(p)

    return parser


def _terminated(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM raises, so the run removes its temp files and outputs as on
    # any error, and exits 143; the caller's handler is back on return.
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        run = Run(args, _load_config_file(os.environ.get(_CONFIG_ENV)))
        # Looked up per call, so a rebound handler (a tracer) takes effect.
        return _execute(run, globals()["_cmd_" + args.command.replace("-", "_")])
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
