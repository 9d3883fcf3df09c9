"""CLI ≡ library: each subcommand writes the bytes its library function does.

Every example writes a small generated corpus, runs one subcommand
in-process, runs the matching library function on the same input with
the same seed, and compares the CLI output with ``write_tsv`` of the
library result.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bitextpipe import lexicon
from bitextpipe.augment import (
    MODES,
    SEED_SUBSETS,
    AugmentationPolicy,
    SubstitutionSet,
    augment_corpus,
    build_pretraining_mixture,
    select_seed,
)
from bitextpipe.cli import main
from bitextpipe.corpus import (
    ParallelCorpus,
    SentencePair,
    ingest,
    read_tsv,
    reduce_highresource,
    stats,
    write_skip_report,
    write_tsv,
)
from bitextpipe.lang import parse_tag
from bitextpipe.sampling import allocate, distribution, materialize

TAGS = ("eng_Latn", "hin_Deva", "asm_Beng", "brx_Deva")
WORDS = ("the", "dog", "Dog,", "(cat)", "house", "near", "water.", "a", "...", "घर", "কুকুৰ")
SPACES = (" ", "  ", " ", " 　 ")
LEXICONS = {
    "hin_Deva": "dog कुत्ता\ncat बिल्ली\nhouse घर\nhouse मकान\nnear पास\n",
    "asm_Beng": "dog কুকুৰ\nwater পানী\nthe ই\n",
}

SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def noisy_text(draw, spaces=SPACES, min_words=1):
    words = draw(st.lists(st.sampled_from(WORDS), min_size=min_words, max_size=6))
    gaps = draw(st.lists(st.sampled_from(spaces), min_size=len(words) + 1,
                         max_size=len(words) + 1))
    lead = gaps[0] if draw(st.booleans()) else ""
    tail = gaps[-1] if draw(st.booleans()) else ""
    return lead + "".join(w + g for w, g in zip(words, gaps[1:-1] + [""])) + tail


@st.composite
def directions(draw, english_source=False):
    if english_source:
        return "eng_Latn", draw(st.sampled_from(TAGS[1:]))
    src = draw(st.sampled_from(TAGS))
    tgt = draw(st.sampled_from([t for t in TAGS if t != src]))
    return src, tgt


@st.composite
def corpora(draw, english_source=False, subsets=("general", "ILCI")):
    rows = draw(st.lists(
        st.tuples(directions(english_source), noisy_text(), noisy_text(),
                  st.sampled_from(subsets)),
        min_size=1, max_size=40,
    ))
    return ParallelCorpus(tuple(
        SentencePair(source, target, parse_tag(src), parse_tag(tgt), subset)
        for (src, tgt), source, target, subset in rows
    ))


def _cli(*argv) -> None:
    assert main([str(a) for a in argv] + ["--no-manifest"]) == 0


def _same_bytes(cli_out: Path, library_result, root: Path, **kwargs) -> None:
    expected = root / "library.tsv"
    write_tsv(library_result, expected, **kwargs)
    assert cli_out.read_bytes() == expected.read_bytes()


@SETTINGS
@given(
    lines=st.lists(
        st.tuples(
            noisy_text(spaces=SPACES + ("\t", " \r "), min_words=0),
            noisy_text(spaces=SPACES + ("\t",), min_words=0),
        ),
        max_size=30,
    ),
    direction=directions(),
    subset=st.sampled_from(["general", "Wiki"]),
)
def test_ingest_paired_files(lines, direction, subset):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        src, tgt = root / "src.txt", root / "tgt.txt"
        for path, side in ((src, 0), (tgt, 1)):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(line[side] + "\n" for line in lines)
        out = root / "cli.tsv"
        _cli("ingest", "--src", src, "--tgt", tgt, "--src-lang", direction[0],
             "--tgt-lang", direction[1], "--subset", subset, "--out", out)
        corpus, report = ingest(src, tgt, parse_tag(direction[0]),
                                parse_tag(direction[1]), subset)
        _same_bytes(out, corpus, root)
        write_skip_report(report, root / "library.skipped.txt")
        assert (Path(str(out) + ".skipped.txt").read_bytes()
                == (root / "library.skipped.txt").read_bytes())


@SETTINGS
@given(
    lines=st.lists(
        st.tuples(
            noisy_text(min_words=0),
            noisy_text(min_words=0),
            st.sampled_from(["general", "comparable"]),
        ),
        max_size=30,
    ),
    direction=directions(),
)
def test_ingest_tsv_matches_paired_files(lines, direction):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        src, tgt, tsv = root / "src.txt", root / "tgt.txt", root / "in.tsv"
        src.write_text("".join(f"{s}\n" for s, _, _ in lines), encoding="utf-8")
        tgt.write_text("".join(f"{t}\n" for _, t, _ in lines), encoding="utf-8")
        tsv.write_text("".join(f"{direction[0]}\t{direction[1]}\t{s}\t{t}\t{label}\n"
                               for s, t, label in lines), encoding="utf-8")
        paired, out = root / "paired.tsv", root / "cli.tsv"
        _cli("ingest", "--src", src, "--tgt", tgt, "--src-lang", direction[0],
             "--tgt-lang", direction[1], "--out", paired)
        _cli("ingest", "--in", tsv, "--exclude-subset", "comparable", "--out", out)

        def skip_report(path):
            text = Path(f"{path}.skipped.txt").read_text(encoding="utf-8")
            return dict(line.split("\t") for line in text.splitlines())

        paired_skips = skip_report(paired)
        kept = [n for n in range(1, len(lines) + 1) if str(n) not in paired_skips]
        paired_rows = dict(zip(kept, paired.read_text(encoding="utf-8").splitlines()))
        excluded = {n for n, (_, _, label) in enumerate(lines, 1) if label == "comparable"}
        assert out.read_text(encoding="utf-8").splitlines() == [
            row for n, row in paired_rows.items() if n not in excluded
        ]
        assert skip_report(out) == {
            str(n): "excluded subset:comparable" if n in excluded else paired_skips[str(n)]
            for n in excluded | {int(n) for n in paired_skips}
        }


@SETTINGS
@given(
    corpus=corpora(),
    threshold=st.integers(min_value=1, max_value=20),
    factor=st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reduce(corpus, threshold, factor, seed):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tsv(corpus, root / "in.tsv")
        out = root / "cli.tsv"
        _cli("reduce", "--in", root / "in.tsv", "--threshold", threshold,
             "--factor", factor, "--seed", seed, "--out", out)
        reduced = reduce_highresource(read_tsv(root / "in.tsv"), threshold, factor, seed)
        _same_bytes(out, reduced, root)


@SETTINGS
@given(
    corpus=corpora(),
    temperature=st.sampled_from([1.0, 1.5, 2.0, 5.0, 10.0]),
    scale=st.floats(min_value=0.05, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sample_including_upsampling(corpus, temperature, scale, seed):
    budget = max(1, round(scale * len(corpus)))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tsv(corpus, root / "in.tsv")
        out = root / "cli.tsv"
        _cli("sample", "--in", root / "in.tsv", "--temperature", temperature,
             "--budget", budget, "--seed", seed, "--out", out)
        library_corpus = read_tsv(root / "in.tsv")
        plan = allocate(distribution(stats(library_corpus), temperature), budget)
        _same_bytes(out, materialize(plan, library_corpus, budget, seed=seed), root)


@SETTINGS
@given(
    corpus=corpora(english_source=True),
    lex_tags=st.sampled_from([("hin_Deva",), ("asm_Beng",), ("hin_Deva", "asm_Beng")]),
    mode=st.sampled_from(MODES),
    probability=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    top_k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_augment_both_modes(corpus, lex_tags, mode, probability, top_k, seed):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tsv(corpus, root / "in.tsv")
        paths = {}
        for tag in lex_tags:
            paths[tag] = root / f"{tag}.txt"
            paths[tag].write_text(LEXICONS[tag], encoding="utf-8")
        lex_args = [arg for tag, path in paths.items() for arg in ("--lex", f"{tag}={path}")]
        out = root / "cli.tsv"
        _cli("augment", "--in", root / "in.tsv", *lex_args, "--mode", mode,
             "--prob", probability, "--topk", top_k, "--seed", seed, "--out", out)
        lexicons = [lexicon.load(path, lexicon.MUSE, parse_tag(tag))
                    for tag, path in paths.items()]
        policy = AugmentationPolicy(probability, top_k, mode, seed)
        subs = SubstitutionSet.prepare(lexicons, policy.top_k)
        augmented, _ = augment_corpus(read_tsv(root / "in.tsv"), subs, policy)
        _same_bytes(out, augmented, root)


@SETTINGS
@given(
    original=corpora(english_source=True),
    augmented=corpora(english_source=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mixture(original, augmented, seed):
    targets = {pair.tgt_lang for pair in original}
    augmented = ParallelCorpus(tuple(p for p in augmented if p.tgt_lang in targets))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tsv(original, root / "in.tsv")
        write_tsv(augmented, root / "aug.tsv")
        out = root / "cli.tsv"
        assert main([str(a) for a in ("mixture", "--in", root / "in.tsv", "--aug",
                                      root / "aug.tsv", "--seed", seed, "--out", out)]) == 0
        mixture, manifest = build_pretraining_mixture(
            read_tsv(root / "in.tsv"), read_tsv(root / "aug.tsv")
        )
        origins = ["orig", "rev"] * manifest.n_original + ["aug"] * manifest.n_augmented
        _same_bytes(out, mixture, root, origins=origins)
        recorded = json.loads(Path(f"{out}.run.json").read_text(encoding="utf-8"))
        assert recorded["config"]["stats"] == manifest.to_dict()
        assert recorded["seed"] == seed


@SETTINGS
@given(
    original=corpora(english_source=True),
    mode=st.sampled_from(MODES),
    probability=st.sampled_from([0.0, 0.3, 1.0]),
    top_k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mixture_policy_block(original, mode, probability, top_k, seed):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tsv(original, root / "in.tsv")
        lex = root / "hin_Deva.txt"
        lex.write_text(LEXICONS["hin_Deva"], encoding="utf-8")
        aug, out = root / "aug.tsv", root / "cli.tsv"
        assert main([str(a) for a in (
            "augment", "--in", root / "in.tsv", "--lex", f"hin_Deva={lex}", "--mode", mode,
            "--prob", probability, "--topk", top_k, "--seed", seed, "--out", aug,
        )]) == 0
        assert main([str(a) for a in ("mixture", "--in", root / "in.tsv", "--aug", aug,
                                      "--out", out)]) == 0
        policy = AugmentationPolicy(probability, top_k, mode, seed)
        recorded = json.loads(Path(f"{out}.run.json").read_text(encoding="utf-8"))
        assert recorded["config"]["policy"] == asdict(policy)


@SETTINGS
@given(
    corpus=corpora(subsets=SEED_SUBSETS),
    share=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_seed_select(corpus, share, seed):
    budget = max(1, round(share * len(corpus)))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tsv(corpus, root / "in.tsv")
        out = root / "cli.tsv"
        _cli("seed-select", "--in", root / "in.tsv", "--budget", budget,
             "--seed", seed, "--out", out)
        selected = select_seed(read_tsv(root / "in.tsv"), budget, seed)
        _same_bytes(out, selected, root, origins=(f"seed:{p.subset}" for p in selected))
