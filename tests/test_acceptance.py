"""Acceptance suite: one test per release criterion, each printing a
pass line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Scale points that depend on trained models are out of reach at desk scale,
so every criterion here is property- or oracle-based, with tolerances and
runtime budgets pinned in the asserts.
"""

import json
import math
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bitextpipe.augment import (
    DEFAULT_SEED_BUDGET,
    SEED_SUBSETS,
    AugmentationPolicy,
    MODE_PAIR_TARGET,
    build_pretraining_mixture,
    select_seed,
)
from bitextpipe.cli import main as cli_main
from bitextpipe.corpus import (
    HIGH_RESOURCE_FACTOR,
    HIGH_RESOURCE_THRESHOLD,
    ParallelCorpus,
    SentencePair,
    reduce_highresource,
    stats,
    stats_from_counts,
)
from bitextpipe.lang import ENGLISH, parse_tag
from bitextpipe.lexicon import BilingualLexicon, LexiconEntry
from bitextpipe.metrics import CHRF, CHRF_PP, bleu, chrf
from bitextpipe.sampling import allocate, distribution, materialize
from bitextpipe.trainconfig import emit

from conftest import BRX, FIXTURES, HIN, REFERENCE_COUNTS

LIMITED_RUN = Path(__file__).parent / "_limited_run.py"
MEMORY_CEILING = 600 * 1024 * 1024  # bytes of address space per process

# Oracle values recorded from tests/oracle_metrics.py on the frozen 50-pair
# fixture before the production scorer was written.
PARITY = {
    "bleu": 44.059431675093684,
    "chrf": 64.56223442591184,
    "chrfpp": 64.67806332152017,
}


def _passline(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_metric_parity():
    hyps = (FIXTURES / "parity_hyp.txt").read_text(encoding="utf-8").splitlines()
    refs = (FIXTURES / "parity_ref.txt").read_text(encoding="utf-8").splitlines()
    assert len(hyps) == len(refs) == 50

    started = time.perf_counter()
    bleu_value = bleu(hyps, refs).value
    chrf_value = chrf(hyps, refs, CHRF).value
    chrfpp_value = chrf(hyps, refs, CHRF_PP).value
    elapsed = time.perf_counter() - started

    # guard against fixture or oracle drift, then check parity at 0.005
    import oracle_metrics as oracle

    assert oracle.bleu(hyps, refs) == pytest.approx(PARITY["bleu"], abs=1e-9)
    assert oracle.chrf(hyps, refs, word_order=0) == pytest.approx(PARITY["chrf"], abs=1e-9)
    assert oracle.chrf(hyps, refs, word_order=2) == pytest.approx(PARITY["chrfpp"], abs=1e-9)

    assert abs(bleu_value - PARITY["bleu"]) < 0.005
    assert abs(chrf_value - PARITY["chrf"]) < 0.005
    assert abs(chrfpp_value - PARITY["chrfpp"]) < 0.005
    assert elapsed < 1.0
    _passline(
        "metric parity",
        f"bleu {bleu_value:.4f} chrf {chrf_value:.4f} chrf++ {chrfpp_value:.4f} "
        f"in {elapsed:.3f}s",
    )


def test_sampling_correctness():
    started = time.perf_counter()
    counts = {parse_tag(t): n for t, n in REFERENCE_COUNTS.items()}
    assert len(counts) == 24
    plan = distribution(stats_from_counts(counts), temperature=5.0)

    assert sum(plan.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    scaled = distribution(
        stats_from_counts({t: 7 * n for t, n in counts.items()}), temperature=5.0
    )
    for tag in counts:
        assert scaled.probabilities[tag] == pytest.approx(
            plan.probabilities[tag], abs=1e-12
        )

    ladder = [
        distribution(stats_from_counts(counts), temperature=t).probabilities
        for t in (1.0, 2.0, 5.0, 10.0, 100.0)
    ]
    for colder, hotter in zip(ladder, ladder[1:]):
        assert max(hotter.values()) < max(colder.values())
        assert min(hotter.values()) > min(colder.values())

    # materialize a 1M-pair draw from a corpus mirroring the per-language
    # count shape at 1/1000 scale
    pairs = []
    for tag, n in counts.items():
        pairs.extend(
            SentencePair(f"s {i}", f"t {i}", ENGLISH, tag, "general")
            for i in range(n // 1000)
        )
    corpus = ParallelCorpus(tuple(pairs))
    plan_small = distribution(stats(corpus), temperature=5.0)
    budget = 1_000_000
    sampled = materialize(plan_small, corpus, budget=budget, seed=20240817)
    assert len(sampled) == budget
    freq = Counter(p.tgt_lang for p in sampled)
    l1 = sum(
        abs(freq[tag] / budget - p) for tag, p in plan_small.probabilities.items()
    )
    elapsed = time.perf_counter() - started
    assert l1 < 0.01
    assert elapsed < 30.0
    _passline("sampling correctness", f"L1 {l1:.2e} over 1M pairs in {elapsed:.1f}s")


def test_augmentation_statistics():
    started = time.perf_counter()
    hin = parse_tag("hin_Deva")
    lexicon = BilingualLexicon(
        hin,
        (
            LexiconEntry("dog", ("कुत्ता", "श्वान")),
            LexiconEntry("cat", ("बिल्ली",)),
            LexiconEntry("house", ("घर", "मकान")),
            LexiconEntry("water", ("पानी",)),
        ),
    )
    n_pairs = 30_000  # 4 dictionary words per source -> 120k matched tokens
    corpus = ParallelCorpus(
        tuple(
            SentencePair(
                f"the dog and the cat stayed in the house near water {i}",
                f"कुत्ता और बिल्ली घर में पानी के पास {i}",
                ENGLISH,
                hin,
                "general",
            )
            for i in range(n_pairs)
        )
    )
    policy = AugmentationPolicy(probability=0.3, mode=MODE_PAIR_TARGET, seed=77)
    from bitextpipe.augment import SubstitutionSet, augment_corpus

    subs = SubstitutionSet.prepare([lexicon], policy.top_k)
    augmented, astats = augment_corpus(corpus, subs, policy)

    assert astats.tokens_matched == 4 * n_pairs >= 100_000
    rate = astats.replacement_rate
    assert 0.29 <= rate <= 0.31

    allowed = {t for e in lexicon.entries for t in e.translations}
    for out_pair, origin in zip(augmented, astats.origin_indices):
        original = corpus[origin]
        assert out_pair.target == original.target  # byte-identical
        old_tokens = original.source.split()
        new_tokens = out_pair.source.split()
        assert len(new_tokens) == len(old_tokens)
        changed = [(o, n) for o, n in zip(old_tokens, new_tokens) if o != n]
        assert changed
        for old, new in changed:
            translations = lexicon.lookup(old)
            assert translations is not None and new in translations
            assert new in allowed
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passline(
        "augmentation statistics",
        f"rate {rate:.4f} over {astats.tokens_matched} matched tokens in {elapsed:.1f}s",
    )


def test_mixture_identity():
    hin = parse_tag("hin_Deva")

    def corpus_of(n):
        return ParallelCorpus(
            tuple(
                SentencePair(f"source dog {i}", f"t {i}", ENGLISH, hin, "general")
                for i in range(n)
            )
        )

    def augmented_of(base, k):
        return ParallelCorpus(
            tuple(
                SentencePair(p.source.replace("dog", "कुत्ता"), p.target, p.src_lang,
                             p.tgt_lang, p.subset)
                for p in base.pairs[:k]
            )
        )

    for n_c, n_a in ((10, 0), (1000, 300), (100_000, 41_234)):
        base = corpus_of(n_c)
        mixture, manifest = build_pretraining_mixture(base, augmented_of(base, n_a))
        assert manifest.n_total == 2 * n_c + n_a
        assert len(mixture) == 2 * n_c + n_a

    # At production scale, 113.65M originals with 56M augmented pairs give
    # 2*113.65M + 56M = 283.3M, which rounds to roughly 282M. Documented
    # as a scale example, not asserted.
    implied = 2 * 113.65e6 + 56e6
    _passline(
        "mixture identity",
        f"|M|=2|C|+|A| exact on three fixtures; at production scale "
        f"(113.65M, 56M) the identity gives {implied / 1e6:.1f}M",
    )


def test_reduction_rule():
    assert HIGH_RESOURCE_THRESHOLD == 10_000_000
    assert HIGH_RESOURCE_FACTOR == 0.5

    # mirror the per-language count shape at 1/1000 scale with the
    # threshold scaled identically, so the over/under split is preserved
    scale = 1000
    threshold = HIGH_RESOURCE_THRESHOLD // scale
    counts = {tag: n // scale for tag, n in REFERENCE_COUNTS.items()}
    pairs = []
    for tag_text, n in counts.items():
        tag = parse_tag(tag_text)
        pairs.extend(
            SentencePair(f"s {i}", f"t {i}", ENGLISH, tag, "general") for i in range(n)
        )
    corpus = ParallelCorpus(tuple(pairs))
    reduced = reduce_highresource(corpus, threshold=threshold, factor=0.5, seed=5)
    by_lang = Counter(str(p.tgt_lang) for p in reduced)

    over = {t for t, n in counts.items() if n > threshold}
    assert over == {
        "ben_Beng", "guj_Gujr", "hin_Deva", "kan_Knda", "mal_Mlym", "tam_Taml", "tel_Telu",
    }
    for tag_text, n in counts.items():
        if tag_text in over:
            assert by_lang[tag_text] == math.ceil(0.5 * n), tag_text
        else:
            assert by_lang[tag_text] == n, tag_text
    _passline(
        "reduction rule",
        f"{len(over)} languages halved (ceil), {24 - len(over)} untouched",
    )


def _prepare_determinism_inputs(root: Path) -> dict:
    src = root / "en.txt"
    tgt = root / "hi.txt"
    src.write_text(
        "\n".join(f"the dog saw a cat near the house {i}" for i in range(60)) + "\n",
        encoding="utf-8",
    )
    tgt.write_text(
        "\n".join(f"कुत्ते ने घर के पास बिल्ली देखी {i}" for i in range(60)) + "\n",
        encoding="utf-8",
    )
    lex = root / "muse_hin.txt"
    lex.write_text("dog कुत्ता\ncat बिल्ली\nhouse घर\nhouse मकान\n", encoding="utf-8")

    corpus = root / "corpus.tsv"
    assert cli_main(["ingest", "--src", str(src), "--tgt", str(tgt), "--src-lang",
                     "eng_Latn", "--tgt-lang", "hin_Deva", "--out", str(corpus),
                     "--no-manifest"]) == 0
    aug = root / "aug.tsv"
    assert cli_main(["augment", "--in", str(corpus), "--lex", f"hin_Deva={lex}",
                     "--prob", "0.5", "--seed", "3", "--out", str(aug),
                     "--no-manifest"]) == 0
    seedpool = root / "seedpool.tsv"
    rows = []
    for label, n in (("ILCI", 30), ("Wiki", 20), ("Daily", 10)):
        rows += [f"eng_Latn\thin_Deva\tsrc {label} {i}\ttgt {i}\t{label}" for i in range(n)]
    seedpool.write_text("\n".join(rows) + "\n", encoding="utf-8")
    hyp = root / "hyp.txt"
    ref = root / "ref.txt"
    hyp.write_text(
        (FIXTURES / "parity_hyp.txt").read_text(encoding="utf-8"), encoding="utf-8"
    )
    ref.write_text(
        (FIXTURES / "parity_ref.txt").read_text(encoding="utf-8"), encoding="utf-8"
    )
    row = root / "row.tsv"
    assert cli_main(["score", "--hyp", str(hyp), "--ref", str(ref), "--pair",
                     "hin_Deva-eng_Latn", "--out", str(row), "--no-manifest"]) == 0
    return {
        "src": src, "tgt": tgt, "lex": lex, "corpus": corpus, "aug": aug,
        "seedpool": seedpool, "hyp": hyp, "ref": ref, "row": row,
    }


def test_determinism_across_threads(tmp_path):
    inputs = _prepare_determinism_inputs(tmp_path)

    def commands(outdir: Path):
        i = inputs
        return {
            "ingest": ["ingest", "--src", str(i["src"]), "--tgt", str(i["tgt"]),
                       "--src-lang", "eng_Latn", "--tgt-lang", "hin_Deva",
                       "--out", str(outdir / "corpus.tsv")],
            "stats": ["stats", "--in", str(i["corpus"]), "--out", str(outdir / "stats.tsv")],
            "reduce": ["reduce", "--in", str(i["corpus"]), "--threshold", "20",
                       "--out", str(outdir / "reduced.tsv")],
            "sample": ["sample", "--in", str(i["corpus"]), "--temperature", "5",
                       "--budget", "40", "--out", str(outdir / "sampled.tsv")],
            "lexicon": ["lexicon", "--in", str(i["lex"]), "--format", "muse",
                        "--tgt-lang", "hin_Deva", "--out", str(outdir / "lex.tsv")],
            "augment": ["augment", "--in", str(i["corpus"]), "--lex",
                        f"hin_Deva={i['lex']}", "--prob", "0.5",
                        "--out", str(outdir / "aug.tsv")],
            "mixture": ["mixture", "--in", str(i["corpus"]), "--aug", str(i["aug"]),
                        "--out", str(outdir / "mix.tsv")],
            "seed-select": ["seed-select", "--in", str(i["seedpool"]), "--budget", "45",
                            "--out", str(outdir / "seed.tsv")],
            "score": ["score", "--hyp", str(i["hyp"]), "--ref", str(i["ref"]),
                      "--pair", "hin_Deva-eng_Latn", "--out", str(outdir / "row.tsv")],
            "report": ["report", "--in", str(i["row"]), "--out", str(outdir / "report.tsv")],
            "train-config": ["train-config", "--phase", "pretrain",
                             "--out", str(outdir / "config.json")],
        }

    runs = [("t1a", 1), ("t1b", 1), ("t8a", 8), ("t8b", 8)]
    outputs: dict[str, dict[str, dict[str, bytes]]] = {}
    digests: dict[str, dict[str, list[str]]] = {}
    for run_name, threads in runs:
        outdir = tmp_path / run_name
        outdir.mkdir()
        for command, argv in commands(outdir).items():
            assert cli_main(argv + ["--seed", "11", "--threads", str(threads)]) == 0
        outputs[run_name] = {}
        digests[run_name] = {}
        for path in sorted(outdir.iterdir()):
            if path.name.endswith(".run.json"):
                manifest = json.loads(path.read_text(encoding="utf-8"))
                digests[run_name][path.name] = sorted(manifest["outputs"].values())
            else:
                outputs[run_name][path.name] = path.read_bytes()

    reference_out = outputs["t1a"]
    reference_dig = digests["t1a"]
    assert set(reference_out) >= {
        "corpus.tsv", "stats.tsv", "reduced.tsv", "sampled.tsv", "lex.tsv",
        "aug.tsv", "mix.tsv", "seed.tsv", "row.tsv", "report.tsv", "config.json",
    }
    for run_name, _ in runs[1:]:
        assert outputs[run_name] == reference_out, f"{run_name} differs"
        assert digests[run_name] == reference_dig, f"{run_name} manifest digests differ"
    _passline(
        "determinism",
        f"{len(commands(tmp_path))} subcommands byte-identical over "
        f"{len(runs)} runs at 1 and 8 threads",
    )


def test_seed_selection_budget():
    sizes = {
        "ILCI": 700_000,
        "NLLB Seed": 180_000,
        "Massive": 600_000,
        "Daily": 420_000,
        "Wiki": 700_000,
    }
    hin = parse_tag("hin_Deva")
    pool = ParallelCorpus(tuple(
        SentencePair("s", "t", ENGLISH, hin, label) for label, n in sizes.items() for _ in range(n)
    ))
    budget = 2_260_000
    selected = select_seed(pool, budget=budget, seed=99)
    assert len(selected) == budget

    # independent largest-remainder recomputation with exact rationals
    total = sum(sizes.values())
    quotas = {label: Fraction(budget) * n / total for label, n in sizes.items()}
    floors = {label: int(q) for label, q in quotas.items()}
    leftover = budget - sum(floors.values())
    order = sorted(sizes, key=lambda l: (-(quotas[l] - floors[l]), l))
    for label in order[:leftover]:
        floors[label] += 1
    recount = Counter(p.subset for p in selected)
    assert dict(recount) == floors
    _passline("seed selection", f"{budget} pairs, composition {dict(recount)}")


def _unlink(*paths: Path) -> None:
    """Remove a test's large files once it has checked them: they take GBs."""
    for path in paths:
        path.unlink()


@pytest.mark.slow
def test_streaming_ingest_memory_bounded_at_10m_lines(tmp_path):
    # corpus-size-independent working set: 10M lines under the same ceiling
    src = tmp_path / "big_src.txt"
    tgt = tmp_path / "big_tgt.txt"
    n = 10_000_000
    with open(src, "w", encoding="utf-8") as fs, open(tgt, "w", encoding="utf-8") as ft:
        for i in range(n):
            fs.write(f"england source line {i}\n")
            ft.write(f"हिंदी लक्ष्य पंक्ति {i}\n")
    out = tmp_path / "big.tsv"
    proc = subprocess.run(
        [sys.executable, str(LIMITED_RUN), str(MEMORY_CEILING), "ingest",
         "--src", str(src), "--tgt", str(tgt), "--src-lang", "eng_Latn",
         "--tgt-lang", "hin_Deva", "--out", str(out), "--no-manifest"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    count = sum(1 for _ in open(out, encoding="utf-8"))
    assert count == n
    _unlink(src, tgt, out, Path(f"{out}.skipped.txt"))
    _passline("streaming ingest memory", f"10M lines under {MEMORY_CEILING >> 20} MiB")


@pytest.mark.slow
def test_streaming_skip_report_memory_bounded_at_10m_lines(tmp_path):
    # the skip report is written as lines are dropped, never held: 5M of
    # 10M pairs skipped under the same ceiling
    src = tmp_path / "big_src.txt"
    tgt = tmp_path / "big_tgt.txt"
    n = 10_000_000
    with open(src, "w", encoding="utf-8") as fs, open(tgt, "w", encoding="utf-8") as ft:
        for i in range(n):
            fs.write(" \n" if i % 2 else f"england source line {i}\n")
            ft.write(f"हिंदी लक्ष्य पंक्ति {i}\n")
    out = tmp_path / "big.tsv"
    proc = subprocess.run(
        [sys.executable, str(LIMITED_RUN), str(MEMORY_CEILING), "ingest",
         "--src", str(src), "--tgt", str(tgt), "--src-lang", "eng_Latn",
         "--tgt-lang", "hin_Deva", "--out", str(out), "--no-manifest"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"kept {n // 2} pairs, skipped {n // 2}" in proc.stdout
    with open(out, "rb") as handle:
        assert sum(1 for _ in handle) == n // 2
    with open(f"{out}.skipped.txt", encoding="utf-8") as handle:
        for count, line in enumerate(handle, start=1):
            assert line == f"{2 * count}\tempty source\n"
    assert count == n // 2
    _unlink(src, tgt, out, Path(f"{out}.skipped.txt"))
    _passline("streaming skip report", f"5M of 10M lines skipped under "
                                       f"{MEMORY_CEILING >> 20} MiB")


@pytest.mark.slow
def test_selection_memory_bounded_at_10m_lines(tmp_path):
    # reduce, sample (upsampling one language) and seed-select keep a working
    # set that does not grow with the corpus: 10M lines under the same ceiling
    n = 10_000_000
    corpus = tmp_path / "big.tsv"
    subsets = [f"\t{label}\n" for label in SEED_SUBSETS]
    with open(corpus, "w", encoding="utf-8") as handle:
        for i in range(n):
            tag = "brx_Deva" if i % 100 == 0 else "hin_Deva"
            handle.write(f"eng_Latn\t{tag}\tsource {i}\ttarget {i}{subsets[i % 5]}")
    n_brx = n // 100
    n_hin = n - n_brx

    def limited(*argv: str) -> int:
        out = tmp_path / "out.tsv"
        proc = subprocess.run(
            [sys.executable, str(LIMITED_RUN), str(MEMORY_CEILING), *argv,
             "--in", str(corpus), "--out", str(out), "--seed", "3", "--no-manifest"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out, "rb") as handle:
            count = sum(1 for _ in handle)
        out.unlink()
        return count

    assert limited("reduce", "--threshold", str(n_brx)) == math.ceil(n_hin / 2) + n_brx
    # at T=5 brx_Deva's share is about 28%: its 100k pairs are copied 27 times
    plan = allocate(distribution(stats_from_counts({BRX: n_brx, HIN: n_hin}), 5.0), n)
    assert plan.counts[BRX] > 20 * n_brx
    assert limited("sample", "--temperature", "5", "--budget", str(n)) == n
    assert (tmp_path / "out.tsv.plan.tsv").read_text(encoding="utf-8").splitlines()[1:] == [
        f"{tag}\t{plan.raw_counts[tag]}\t{plan.probabilities[tag]:.10f}\t{plan.counts[tag]}"
        for tag in plan.languages()
    ]
    assert limited("seed-select", "--budget", str(DEFAULT_SEED_BUDGET)) == DEFAULT_SEED_BUDGET
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "big.tsv", "out.tsv.plan.tsv", "out.tsv.plot.tsv"
    ]
    _unlink(corpus)
    _passline("selection memory", f"reduce, sample, seed-select on 10M lines under "
                                  f"{MEMORY_CEILING >> 20} MiB")


@pytest.mark.slow
def test_lexicon_memory_bounded_at_1_5m_lines(tmp_path):
    # a lexicon is read one line at a time into its top-K entries, so augment
    # (1 and 2 workers) and lexicon stay under the ceiling on a 1.5M-line file
    n = 1_500_000
    lex = tmp_path / "muse_hin.txt"
    with open(lex, "w", encoding="utf-8") as handle:
        for i in range(n):
            handle.write(f"word{i // 2} शब्द{i}\n")
    corpus = tmp_path / "corpus.tsv"
    with open(corpus, "w", encoding="utf-8") as handle:
        for i in range(2_000):
            handle.write(f"eng_Latn\thin_Deva\tthe word{i} word{i + 3999}\tt {i}\tgeneral\n")

    def limited(*argv: str) -> bytes:
        out = tmp_path / "out.tsv"
        proc = subprocess.run(
            [sys.executable, str(LIMITED_RUN), str(MEMORY_CEILING), *argv, "--topk", "4000",
             "--out", str(out), "--no-manifest"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        data = out.read_bytes()
        out.unlink()
        return data

    augmented = [
        limited("augment", "--in", str(corpus), "--lex", f"hin_Deva={lex}", "--prob", "1",
                "--seed", "1", "--threads", str(threads))
        for threads in (1, 2)
    ]
    assert augmented[0] == augmented[1]
    # word0..word3999 are the top 4000: the first word of every row is in the
    # table, the second only while i + 3999 < 4000
    assert augmented[0].count(b"\n") == 2_000
    assert augmented[0].count("शब्द".encode()) == 2_000 + 1
    table = limited("lexicon", "--in", str(lex), "--tgt-lang", "hin_Deva").decode()
    assert table.splitlines() == [
        f"word{i // 2}\tशब्द{i}" for i in range(8_000)
    ]
    _passline("lexicon memory", f"augment at 1 and 2 workers and lexicon on {n:,} lexicon "
                                f"lines under {MEMORY_CEILING >> 20} MiB")


# Runs the CLI on its arguments, then prints its peak RSS in KiB on the last
# line of stderr: the larger of its own high-water mark and its workers'.
# ru_maxrss of the child itself would not do: it starts from the memory of
# the process that forked it.
_PEAK_RUN = (
    "import resource, sys\n"
    "from bitextpipe.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status', encoding='ascii') as status:\n"
    "    own = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
    "workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "print(max(own, workers), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_score_memory_flat_from_1_2k_to_200k_segments(tmp_path):
    # score reads both files in step and keeps only chunks in flight, so its
    # peak does not grow with the number of segments, at 1 or 2 workers
    def files(n: int) -> tuple[Path, Path]:
        hyp, ref = tmp_path / f"h{n}.txt", tmp_path / f"r{n}.txt"
        with open(hyp, "w", encoding="utf-8") as h, open(ref, "w", encoding="utf-8") as r:
            for i in range(n):
                line = f"seg {i} the dog saw कुत्ता {i * 7919 % 10007}."
                r.write(line + "\n")
                h.write((line.replace("saw", "met") if i % 3 else line) + "\n")
        return hyp, ref

    def peak_kib(hyp: Path, ref: Path, threads: int) -> int:
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RUN, "score", "--hyp", str(hyp), "--ref", str(ref),
             "--pair", "eng_Latn-hin_Deva", "--threads", str(threads), "--no-manifest"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stderr.splitlines()[-1])

    small, large = files(1_200), files(200_000)
    growth = {}
    for threads in (1, 2):
        growth[threads] = peak_kib(*large, threads) - peak_kib(*small, threads)
        assert growth[threads] < 1.5 * 1024, growth
    _passline("score memory", "peak at 200k segments within 1.5 MiB of 1.2k, 1 and 2 workers: "
                              + ", ".join(f"{g / 1024:+.2f} MiB" for g in growth.values()))


def test_throughput_smoke(tmp_path):
    n = 1_000_000
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    templates = [
        "the dog ran to the house %d",
        "a cat sat by the water %d",
        "birds fly over the house and the dog %d",
        "the cat and the dog share water %d",
    ]
    with open(src, "w", encoding="utf-8") as fs, open(tgt, "w", encoding="utf-8") as ft:
        for i in range(n):
            fs.write(templates[i & 3] % i)
            fs.write("\n")
            ft.write(f"लक्ष्य वाक्य {i}\n")
    lex = tmp_path / "muse_hin.txt"
    lex.write_text("dog कुत्ता\ncat बिल्ली\nhouse घर\nwater पानी\n", encoding="utf-8")

    corpus = tmp_path / "corpus.tsv"
    aug = tmp_path / "aug.tsv"
    started = time.perf_counter()
    ingest_proc = subprocess.run(
        [sys.executable, str(LIMITED_RUN), str(MEMORY_CEILING), "ingest",
         "--src", str(src), "--tgt", str(tgt), "--src-lang", "eng_Latn",
         "--tgt-lang", "hin_Deva", "--out", str(corpus), "--no-manifest"],
        capture_output=True, text=True,
    )
    assert ingest_proc.returncode == 0, ingest_proc.stderr
    augment_proc = subprocess.run(
        [sys.executable, str(LIMITED_RUN), str(MEMORY_CEILING), "augment",
         "--in", str(corpus), "--lex", f"hin_Deva={lex}", "--prob", "0.3",
         "--seed", "1", "--threads", "4", "--out", str(aug), "--no-manifest"],
        capture_output=True, text=True,
    )
    assert augment_proc.returncode == 0, augment_proc.stderr
    elapsed = time.perf_counter() - started

    assert sum(1 for _ in open(corpus, encoding="utf-8")) == n
    aug_count = sum(1 for _ in open(aug, encoding="utf-8"))
    assert aug_count > 0.5 * n  # p=0.3 over 2-4 dictionary words per line
    assert elapsed < 120.0
    _passline(
        "throughput smoke",
        f"1M pairs ingest+augment+emit in {elapsed:.1f}s under "
        f"{MEMORY_CEILING >> 20} MiB ceiling, 4 workers",
    )


def test_config_fidelity():
    pretrain = emit("pretrain").to_dict()
    assert pretrain["encoder_layers"] == 6
    assert pretrain["decoder_layers"] == 6
    assert pretrain["embed_dim"] == 1024
    assert pretrain["ffn_dim"] == 4096
    assert pretrain["attention_heads"] == 16
    assert pretrain["share_embeddings"] is True
    assert pretrain["adam_beta1"] == 0.9
    assert pretrain["adam_beta2"] == 0.98
    assert pretrain["warmup_init_lr"] == 1e-07
    assert pretrain["learning_rate"] == 5e-4
    assert pretrain["warmup_steps"] == 4000
    assert pretrain["dropout"] == 0.1
    assert pretrain["label_smoothing"] == 0.1
    assert pretrain["batch_max_tokens"] is None
    assert pretrain["total_updates"] is None

    finetune = emit("finetune").to_dict()
    assert finetune["learning_rate"] == 3e-5
    assert finetune["dropout"] == 0.2
    for key in pretrain:
        if key not in ("phase", "learning_rate", "dropout"):
            assert finetune[key] == pretrain[key], key
    _passline("config fidelity", "pretrain and finetune manifests field-for-field")
