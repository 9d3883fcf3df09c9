"""Command-line interface: the pipeline as deterministic subcommands.

Every subcommand writes its outputs to explicitly named paths and never
mutates inputs. A handler reads its options and arguments through its
:class:`Run`, which records each as used, declares its inputs and outputs
there and returns its stdout text; :func:`_execute` then writes the run
manifest (``<first output>.run.json``: the recorded config, the seed,
SHA-256 digests of the bytes read and written) last and prints the text.
A command without an output file writes no manifest. When a run fails,
the outputs it renamed into place are removed. ``--seed`` is the
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
    """One invocation: the options and arguments its handler read, and its declared files."""

    def __init__(self, args: argparse.Namespace, file_cfg: dict[str, str]):
        self.started = time.monotonic()
        self.args = args
        self.file_cfg = file_cfg
        # Each option and argument the handler read, as used: run.json's config.
        self.config: dict[str, object] = {}
        self.inputs: list[str | Path] = []
        self.outputs: list[str | Path] = []
        seed = self._resolve("seed", None)
        if seed is None:
            import secrets

            seed = secrets.randbits(32)
        self.seed: int = seed  # run.json's top-level seed
        self._threads: int = self._resolve("threads", corpus_mod.usable_cpus())
        if self._threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {self._threads}")
        self.extra_tags = ()
        if args.tags_file:
            self.input(args.tags_file)
            self.extra_tags = load_extra_tags(args.tags_file)
        # Rendered tag -> tag: the tags a corpus row may carry.
        self.valid_tags = rendered_tags(self.extra_tags)

    def _resolve(self, key: str, default):
        value = getattr(self.args, key, None)
        if value is None and key in self.file_cfg:
            value = _convert(key, self.file_cfg[key])
        return default if value is None else value

    def opt(self, key: str, default):
        """The flag, else the defaults file's value, else ``default``; recorded in config."""
        self.config[key] = value = self._resolve(key, default)
        return value

    def arg(self, key: str):
        """An argument as given (a path, a tag, a list of repeated flags); recorded in config."""
        self.config[key] = value = getattr(self.args, key)
        return value

    @property
    def threads(self) -> int:
        """Worker processes, checked when the run starts; recorded in config once read."""
        self.config["threads"] = self._threads
        return self._threads

    def input(self, *paths: str | Path) -> None:
        """Declare input files; ``run.json`` records their digests."""
        self.inputs.extend(paths)

    def output(self, path: _P) -> _P:
        """Declare an output file before writing it; returns ``path``.

        The first output declared names ``<output>.run.json``.
        """
        self.outputs.append(path)
        return path


def _remove_written() -> None:
    """Unlink each file that this run's atomic writer renamed into place.

    The writer records those (:data:`errors.digests`), at their resolved
    paths: never a symlink itself, a device or pipe written in place, or an
    earlier run's file that this run did not replace.
    """
    for kind, path in errors.digests or ():
        if kind == "out":
            with contextlib.suppress(OSError):
                os.unlink(path)


def _execute(args: argparse.Namespace) -> int:
    """Run the command's handler, write ``run.json`` last, then print the handler's text.

    A handler reads its options and arguments through :class:`Run`,
    declares its files on it and returns its stdout text. On any error the
    outputs this run wrote are removed and nothing is printed.
    """
    errors.digests = {}  # this run's, recorded by the reader and the writer
    try:
        run = Run(args, _load_config_file(os.environ.get(_CONFIG_ENV)))
        # Looked up per call, so a rebound handler (a tracer) takes effect.
        text = globals()["_cmd_" + args.command.replace("-", "_")](run)
        if run.outputs and not args.no_manifest:
            # SHA-256 as this run read or wrote the file; None for a pipe or device.
            inputs = {str(p): sha256_file(p, "in") if os.path.isfile(p) else None
                      for p in run.inputs}
            outputs = {str(p): sha256_file(p, "out") if os.path.isfile(p) else None
                       for p in run.outputs}
            manifest = RunManifest(args.command, run.config, run.seed, inputs, outputs)
            manifest.wall_time_s = time.monotonic() - run.started
            manifest.write(manifest_path_for(run.outputs[0]))
    except BaseException:
        _remove_written()
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

    tasks = corpus_mod.file_tasks(run.threads, [run.arg("in")])
    return corpus_mod.ordered_map(*tasks, count, _update, Counter())


def _keyed_input(run: Run, path: str, key: Callable[[Sequence[str]], str],
                 row_key: Callable[[str], str | None]) -> Keyed:
    """``--in`` (``path``) counted per ``key`` of its fields, then read again keyed by ``row_key``.

    The input of ``reduce``, ``sample`` and ``seed-select``. The first read
    (:func:`_count_keys`) checks every row, so the second checks none: a
    row is its line, less a sixth field. If the file changed in between,
    the draw finds other counts per key or the reader a different digest at
    end of file, and either fails with ``<in>: changed while read``.
    ``row_key`` must take any row, a changed one too.
    """
    from .selection import Keyed

    _require_regular(path)
    run.input(path)
    counts = _count_keys(run, key)
    return Keyed(map(_five_fields, corpus_mod.iter_lines(path)), row_key, counts, path)


def _five_fields(line: str) -> str:
    return line if line.count("\t") == 4 else line[:line.rfind("\t")]


def _language(fields: Sequence[str]) -> str:
    return corpus_mod.accounting_language(fields[0], fields[1])


def _row_language(row: str) -> str | None:
    fields = row.split("\t", 2)
    return _language(fields) if len(fields) == 3 else None  # a changed row may have no key


def _row_subset(row: str) -> str:
    return row[row.rfind("\t") + 1:]


def _require_regular(path: str) -> None:
    """Reject an input that is not a regular file, for a command that reads it twice.

    ``reduce``, ``sample`` and ``seed-select`` read ``--in`` twice, and
    ``mixture`` reads a file twice when ``--in`` and ``--aug`` name it. A
    pipe cannot be opened for a second read once its writer has gone: the
    open would wait for good. A missing file is left to the first read.
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


def _cmd_ingest(run: Run) -> str:
    out = run.output(Path(run.args.out))
    skip_path = run.output(Path(f"{out}.skipped.txt"))
    in_path = run.arg("in")
    excluded = set(run.arg("exclude_subset") or ())

    if in_path:
        run.input(in_path)
        tasks, threads = corpus_mod.file_tasks(run.threads, [in_path])

        def rows(task: tuple[str, tuple[int, int, int] | None]
                 ) -> Iterator[tuple[int, list[str]]]:
            path, span = task
            for lineno, fields in corpus_mod.iter_fields(path, span):
                corpus_mod.check_tags(fields, run.valid_tags, path, lineno)
                if fields[0] == fields[1]:
                    raise CorpusError(f"{path}:{lineno}: source and target language are equal")
                yield lineno, fields
    else:
        src, tgt, src_lang, tgt_lang = map(run.arg, ("src", "tgt", "src_lang", "tgt_lang"))
        if not (src and tgt and src_lang and tgt_lang):
            raise ConfigError(
                "ingest needs either --in (TSV) or all of --src/--tgt/--src-lang/--tgt-lang"
            )
        tags = tuple(str(parse_tag(t, run.extra_tags)) for t in (src_lang, tgt_lang))
        subset = run.arg("subset")
        if subset in excluded:
            raise ConfigError(f"subset {subset!r} is excluded by --exclude-subset")
        run.input(src, tgt)
        # One task: the two files would have to be cut at matching lines.
        tasks, threads = [None], 1

        def rows(_: None) -> Iterator[tuple[int, tuple]]:
            return corpus_mod.iter_paired_rows(src, tgt, *tags, subset)

    kept, skipped = corpus_mod.ordered_map(
        tasks, threads, lambda task: corpus_mod.clean_rows(rows(task), excluded), _add_counts,
        (0, 0), (out, skip_path))
    return f"ingest: kept {kept} pairs, skipped {skipped} -> {out}"


def _cmd_stats(run: Run) -> str:
    run.input(run.arg("in"))
    counts = _count_keys(run, _language)
    stats_value = corpus_mod.stats_from_counts(
        {run.valid_tags[tag]: n for tag, n in counts.items()}
    )
    if run.args.out:
        rows = (f"{tag}\t{n}" for tag, n in sorted(counts.items()))
        corpus_mod.write_tsv_rows(rows, run.output(run.args.out))
    return corpus_mod.format_stats_table(stats_value)


def _cmd_reduce(run: Run) -> str:
    path = run.arg("in")
    threshold = run.opt("threshold", corpus_mod.HIGH_RESOURCE_THRESHOLD)
    factor = run.opt("factor", corpus_mod.HIGH_RESOURCE_FACTOR)
    rows = _keyed_input(run, path, _language, _row_language)
    kept_rows = corpus_mod.reduce_highresource(rows, threshold, factor, run.seed)
    kept = corpus_mod.write_tsv_rows(kept_rows, run.output(run.args.out))
    over = sum(n > threshold for n in rows.counts.values())
    return (
        f"reduce: kept {kept} of {sum(rows.counts.values())} pairs "
        f"({over} languages over threshold {threshold}) -> {run.args.out}"
    )


def _cmd_sample(run: Run) -> str:
    from . import sampling

    args = run.args
    path = run.arg("in")
    temperature = run.opt("temperature", 5.0)
    rows = _keyed_input(run, path, _language, _row_language)
    stats_value = corpus_mod.stats_from_counts(rows.counts)
    plan = sampling.distribution(stats_value, temperature)
    budget = run.opt("budget", stats_value.total)
    plan = sampling.allocate(plan, budget)
    sampled = sampling.materialize(plan, rows, budget, run.seed)
    corpus_mod.write_tsv_rows(sampled, run.output(args.out))
    sampling.write_plan_tsv(plan, run.output(Path(args.plan_out or f"{args.out}.plan.tsv")))
    sampling.write_plot_tsv(plan, run.output(Path(args.plot_out or f"{args.out}.plot.tsv")))
    return (
        f"sample: T={temperature:g} budget={budget} languages={len(plan.probabilities)} "
        f"-> {args.out}"
    )


def _cmd_lexicon(run: Run) -> str:
    from . import lexicon as lexicon_mod

    path = run.arg("in")
    run.input(path)
    fmt = run.opt("format", lexicon_mod.MUSE)
    topk = run.opt("topk", lexicon_mod.DEFAULT_TOP_K)
    tgt = parse_tag(run.arg("tgt_lang"), run.extra_tags)
    lex = lexicon_mod.load(path, fmt, tgt, top_k=topk)
    rows = lexicon_mod.write_tsv(lex, run.output(run.args.out))
    return (
        f"lexicon: {len(lex)} entries ({rows} translations), "
        f"skipped {lex.skipped_count} lines -> {run.args.out}"
    )


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


def _cmd_augment(run: Run) -> str:
    from . import augment as augment_mod
    from . import lexicon as lexicon_mod

    path = run.arg("in")
    specs = _parse_lex_specs(run.arg("lex"))
    run.input(path, *(p for _, p in specs))
    fmt = run.opt("format", lexicon_mod.MUSE)
    policy = augment_mod.AugmentationPolicy(
        probability=run.opt("prob", augment_mod.DEFAULT_PROBABILITY),
        top_k=run.opt("topk", lexicon_mod.DEFAULT_TOP_K),
        mode=run.opt("mode", augment_mod.MODE_RANDOM_LANGUAGE),
        seed=run.seed,
    )

    def lexicons() -> Iterator[lexicon_mod.BilingualLexicon]:
        for tag_text, lex_path in specs:
            tgt = parse_tag(tag_text, run.extra_tags)
            if tgt == ENGLISH:
                raise ConfigError("lexicon target language cannot be eng_Latn")
            yield lexicon_mod.load(lex_path, fmt, tgt, top_k=policy.top_k)

    # A generator: each lexicon is read into its top-K entries only, and
    # dropped once its table is built, before the next one is read.
    subs = augment_mod.SubstitutionSet.prepare(lexicons(), policy.top_k)
    out = run.output(run.args.out)
    augmented, seen, without_lexicon, matched, replaced = corpus_mod.ordered_map(
        *corpus_mod.file_tasks(run.threads, [path]),
        lambda task: _augment_chunk(*task, subs, policy, run.valid_tags),
        _add_counts, (0,) * 5, [out])
    run.config["stats"] = {
        "pairs_seen": seen,
        "pairs_augmented": augmented,
        "pairs_without_lexicon": without_lexicon,
        "tokens_matched": matched,
        "tokens_replaced": replaced,
    }
    rate = replaced / matched if matched else 0.0
    return (
        f"augment: {augmented} of {seen} pairs augmented "
        f"({without_lexicon} without lexicon), {replaced}/{matched} matched tokens "
        f"replaced (rate {rate:.4f}) -> {out}"
    )


def _augment_policy(path: Path) -> dict | None:
    """The policy dict in an augmented file's run manifest ``path``; None if absent or invalid."""
    from dataclasses import asdict

    from .augment import AugmentationPolicy

    try:
        doc = json.loads("\n".join(iter_lines(path, AugmentError)))
        config = doc["config"]
        policy = AugmentationPolicy(config["prob"], config["topk"], config["mode"], doc["seed"])
    except (ValueError, LookupError, TypeError, AugmentError):
        return None
    return asdict(policy)


def _cmd_mixture(run: Run) -> str:
    from . import augment as augment_mod

    args = run.args
    inputs = (run.arg("in"), run.arg("aug"))
    with contextlib.suppress(OSError):  # a missing file is left to its read
        if os.path.samefile(*inputs):
            _require_regular(inputs[0])
    # The augmented file's run manifest, where the policy comes from.
    aug_manifest = manifest_path_for(inputs[1])
    run.input(*inputs, aug_manifest)
    counts = augment_mod.write_mixture(inputs, run.valid_tags, run.output(args.out), run.threads)
    manifest = augment_mod.MixtureManifest(*counts, sum(counts))
    run.config["stats"] = manifest.to_dict()
    run.config["policy"] = _augment_policy(aug_manifest)
    return (
        f"mixture: {manifest.n_total} pairs "
        f"(2*{manifest.n_original} + {manifest.n_augmented}) -> {args.out}"
    )


def _cmd_seed_select(run: Run) -> str:
    from . import augment as augment_mod

    path = run.arg("in")
    budget = run.opt("budget", augment_mod.DEFAULT_SEED_BUDGET)
    pool = _keyed_input(run, path, lambda fields: fields[4], _row_subset)
    selected = augment_mod.select_seed(pool, budget, run.seed)
    rows = (f"{row}\tseed:{_row_subset(row)}" for row in selected)
    corpus_mod.write_tsv_rows(rows, run.output(run.args.out))
    per_subset = dict(sorted(selected.wants.items()))
    return f"seed-select: {len(selected)} pairs {per_subset} -> {run.args.out}"


def _cmd_score(run: Run) -> str:
    from . import evalharness

    hyp, ref = run.arg("hyp"), run.arg("ref")
    run.input(hyp, ref)
    pair = parse_pair(run.arg("pair"), run.extra_tags)
    row = evalharness.score_run(hyp, ref, pair, run.threads)
    if run.args.out:
        evalharness.write_rows_tsv([row], run.output(run.args.out))
    run.config["signatures"] = evalharness.SIGNATURES
    return f"{row.pair}\t{row.bleu:.4f}\t{row.chrf:.4f}\t{row.chrf_pp:.4f}"


def _cmd_report(run: Run) -> str:
    from . import evalharness

    paths = run.arg("in")
    run.input(*paths)
    rows: list[evalharness.ScoreRow] = []
    for path in paths:
        rows.extend(evalharness.read_rows_tsv(path, run.extra_tags))
    rep = evalharness.report(rows)
    if run.args.out:
        evalharness.write_report_tsv(rep, run.output(run.args.out))
    run.config["signatures"] = evalharness.SIGNATURES
    return evalharness.render_text(rep)


def _cmd_train_config(run: Run) -> str:
    from . import trainconfig

    phase = run.arg("phase")
    hyperparameters = trainconfig.emit(phase)
    if not run.args.out:
        return json.dumps(hyperparameters.to_dict(), indent=2)
    trainconfig.write_json(hyperparameters, run.output(run.args.out))
    return f"train-config: {phase} -> {run.args.out}"


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
    p.add_argument("--in", default=None, help="input corpus TSV")
    p.add_argument("--src", default=None, help="source-side line file")
    p.add_argument("--tgt", default=None, help="target-side line file")
    p.add_argument("--src-lang", default=None)
    p.add_argument("--tgt-lang", default=None)
    p.add_argument("--subset", default=corpus_mod.DEFAULT_SUBSET)
    p.add_argument("--exclude-subset", action="append", default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("stats", help="per-language pair counts")
    p.add_argument("--in", required=True)
    p.add_argument("--out", default=None, help="optional lang/count TSV")
    _add_common(p)

    p = sub.add_parser("reduce", help="halve languages over the high-resource threshold")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--factor", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("sample", help="temperature-sample the corpus to a budget")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--plan-out", default=None)
    p.add_argument("--plot-out", default=None)
    _add_common(p)

    p = sub.add_parser("lexicon", help="normalize and truncate a bilingual lexicon")
    p.add_argument("--in", required=True)
    p.add_argument("--format", default=None, choices=list(_FORMATS))
    p.add_argument("--tgt-lang", required=True)
    p.add_argument("--topk", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("augment", help="dictionary code-switching augmentation")
    p.add_argument("--in", required=True)
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
    p.add_argument("--in", required=True, help="original En->Indic TSV")
    p.add_argument("--aug", required=True, help="augmented TSV")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("seed-select", help="proportional seed-data selection")
    p.add_argument("--in", required=True)
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
    p.add_argument("--in", action="append", required=True)
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
        return _execute(args)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
