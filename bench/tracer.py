"""Outside-in tracing of the pipeline's public functions.

The tracer wraps functions from outside the package and aggregates, per
name, a call count, self time and a few work counters. It keeps no span
per call, because hot functions run millions of times. Self time is a
wrapper's time minus the time of the wrappers nested inside it; the time
a consumer spends pulling items from a lazy argument (the row generator a
command hands to ``write_tsv_rows``) is charged to the command, not the
writer. Counters computed by the tracer itself are excluded from every
self time.

Run as a script, this is the traced run's child process: it runs the
workload's steps in process through ``cli.main`` at one worker, first
untraced and then traced, and writes the timings and counters as JSON
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # One child-time accumulator per active wrapper; the root collects
        # time spent outside any of them.
        self.stack: list[list[float]] = [[0.0]]
        self.counts: dict[str, float] = defaultdict(float)

    # -- wrappers --------------------------------------------------------

    def function(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Time ``fn``; ``after(counts, args, result)`` adds work counters."""
        stack, counts = self.stack, self.counts
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                counts[calls_key] += 1
                counts[self_key] += t1 - t0 - frame[0]
                stack[-1][0] += t1 - t0
            if after is not None:
                t2 = perf_counter()
                after(counts, args, result)
                stack[-1][0] += perf_counter() - t2
            return result

        return traced

    def generator(
        self, name: str, fn: Callable, items: str, done: Callable | None = None,
        calls: str = "calls",
    ) -> Callable:
        """Time each ``next`` of the generator ``fn`` returns; count calls and items."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[f"{name}.{calls}"] += 1
            return tracer._iterate(name, items, fn(*args, **kwargs), done, args)

        return traced

    def _iterate(self, name, items, gen, done, args) -> Iterator:
        stack, counts = self.stack, self.counts
        self_key, items_key = f"{name}.self_s", f"{name}.{items}"
        try:
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    item = frame  # sentinel: the generator is exhausted
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    counts[self_key] += t1 - t0 - frame[0]
                    stack[-1][0] += t1 - t0
                if item is frame:
                    if done is not None:
                        done(counts, args)
                    return
                counts[items_key] += 1
                yield item
        finally:
            gen.close()

    def consumer(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Like :meth:`function` for ``fn(rows, ...)`` that drains a lazy ``rows``."""
        timed = self.function(name, fn, after)
        tracer = self

        @functools.wraps(fn)
        def traced(rows, *args, **kwargs):
            return timed(tracer._charge_to(tracer.stack[-1], rows), *args, **kwargs)

        return traced

    def _charge_to(self, caller: list[float], rows: Iterable) -> Iterator:
        stack = self.stack
        source = iter(rows)
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                item = next(source)
            except StopIteration:
                item = frame
            finally:
                t1 = perf_counter()
                stack.pop()
                stack[-1][0] += t1 - t0  # not the consumer's own time ...
                caller[0] -= t1 - t0 - frame[0]  # ... but its caller's
            if item is frame:
                return
            yield item

    def hook(self, fn: Callable, before: Callable) -> Callable:
        """Call ``before()`` ahead of ``fn`` without timing anything."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            before()
            return fn(*args, **kwargs)

        return hooked


def rebind(original: Callable, replacement: Callable) -> int:
    """Point every ``bitextpipe`` module binding of ``original`` at ``replacement``.

    A name imported with ``from x import f`` is a separate binding in each
    importing module; all of them must be patched.
    """
    patched = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bitextpipe" and not mod_name.startswith("bitextpipe."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched += 1
    if not patched:
        raise RuntimeError(f"no binding of {original.__qualname__} found")
    return patched


COMMANDS = ("ingest", "stats", "reduce", "sample", "augment", "mixture",
            "seed-select", "score", "report")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported ``bitextpipe`` package."""
    from bitextpipe import (augment, cli, corpus, evalharness, lang, lexicon,
                            manifest, metrics, rng, sampling)

    size = os.path.getsize

    def lines_done(counts, args):
        counts["corpus.iter_lines.bytes"] += size(args[0])

    def rows_written(counts, args, result):
        counts["corpus.write_tsv_rows.rows"] += result
        counts["corpus.write_tsv_rows.bytes"] += size(args[1])

    def hashed(counts, args, result):
        counts["manifest.sha256_file.bytes"] += size(args[0])

    def read_bytes(counts, args, result):
        counts["evalharness.read_lines.bytes"] += size(args[0])

    def loaded(counts, args, result):
        counts["lexicon.load.entries"] += len(result)

    def materialized(counts, args, result):
        counts["sampling.materialize.pairs_out"] += len(result)

    chunk_seen: set[str] = set()
    split_affixes = augment.split_token_affixes

    def substituted(counts, args, result):
        seen = repeats = 0
        for token in args[0].split():
            core = split_affixes(token)[1]
            if not core:
                continue
            seen += 1
            key = core.casefold()
            if key in chunk_seen:
                repeats += 1
            else:
                chunk_seen.add(key)
        counts["augment.tokens_seen"] += seen
        counts["augment.repeat_tokens"] += repeats
        counts["augment.tokens_matched"] += result[1]
        counts["augment.tokens_replaced"] += result[2]

    def name_of(fn: Callable) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

    timed = [corpus.clean_text, lang.parse_tag, rng.derive_seed, rng.derive_rng,
             augment.select_seed, lexicon.truncate_topk, sampling.distribution,
             sampling.allocate, metrics.tokenize_13a, metrics.bleu_segment_stats,
             metrics.chrf_segment_stats, evalharness.score_run]
    counted = {augment.substitute_tokens: substituted, lexicon.load: loaded,
               sampling.materialize: materialized, evalharness.read_lines: read_bytes,
               manifest.sha256_file: hashed}
    wrap = [(fn, tracer.function(name_of(fn), fn)) for fn in timed]
    wrap += [(fn, tracer.function(name_of(fn), fn, after)) for fn, after in counted.items()]
    wrap += [
        (corpus.iter_lines,
         tracer.generator("corpus.iter_lines", corpus.iter_lines, "lines", lines_done, "passes")),
        (corpus.iter_tsv_rows,
         tracer.generator("corpus.iter_tsv_rows", corpus.iter_tsv_rows, "rows")),
        (corpus.write_tsv_rows,
         tracer.consumer("corpus.write_tsv_rows", corpus.write_tsv_rows, rows_written)),
        (cli._augment_chunk, tracer.hook(cli._augment_chunk, chunk_seen.clear)),
    ]
    for command in COMMANDS:
        handler = getattr(cli, "_cmd_" + command.replace("-", "_"))
        wrap.append((handler, tracer.function(f"cli.{command}", handler)))
    for original, replacement in wrap:
        rebind(original, replacement)

    prepare = augment.SubstitutionSet.__dict__["prepare"].__func__
    augment.SubstitutionSet.prepare = classmethod(tracer.function(name_of(prepare), prepare))


def run_steps(steps: list[dict]) -> dict[str, dict]:
    """Run each step through ``cli.main`` in this process; time and check exit codes."""
    from bitextpipe import cli

    results = {}
    for step in steps:
        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(step["argv"])
        results[step["name"]] = {"wall_s": perf_counter() - t0, "returncode": code}
    return results


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text())
    untraced = run_steps(plan["untraced"])
    tracer = Tracer()
    install(tracer)
    traced = run_steps(plan["traced"])
    doc = {"untraced": untraced, "traced": traced, "counts": dict(tracer.counts)}
    Path(argv[1]).write_text(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
