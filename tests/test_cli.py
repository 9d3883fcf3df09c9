import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bitextpipe import corpus as corpus_mod
from bitextpipe import errors
from bitextpipe.cli import main
from bitextpipe.errors import MetricError, iter_lines
from bitextpipe.evalharness import CHUNK_SEGMENTS, score_run
from bitextpipe.lang import parse_pair

from conftest import FIXTURES, feed_fifo, fifo_bytes


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def en_hi_files(tmp_path):
    src = tmp_path / "en.txt"
    tgt = tmp_path / "hi.txt"
    src.write_text(
        "\n".join(f"the dog saw a cat near house {i}" for i in range(50)) + "\n",
        encoding="utf-8",
    )
    tgt.write_text(
        "\n".join(f"कुत्ते ने घर के पास बिल्ली देखी {i}" for i in range(50)) + "\n",
        encoding="utf-8",
    )
    return src, tgt


@pytest.fixture
def hin_lex(tmp_path):
    path = tmp_path / "muse_hin.txt"
    path.write_text(
        "dog कुत्ता\ncat बिल्ली\nhouse घर\nhouse मकान\nnear पास\n", encoding="utf-8"
    )
    return path


def _ingest(tmp_path, en_hi_files, out_name="corpus.tsv"):
    src, tgt = en_hi_files
    out = tmp_path / out_name
    code = run_cli(
        "ingest", "--src", src, "--tgt", tgt,
        "--src-lang", "eng_Latn", "--tgt-lang", "hin_Deva", "--out", out,
    )
    assert code == 0
    return out


class TestIngest:
    def test_paired_files(self, tmp_path, en_hi_files, capsys):
        out = _ingest(tmp_path, en_hi_files)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 50
        assert lines[0].split("\t")[:2] == ["eng_Latn", "hin_Deva"]
        assert "kept 50" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "corpus.tsv.run.json").read_text())
        assert manifest["command"] == "ingest"
        assert len(manifest["inputs"]) == 2
        assert len(manifest["outputs"]) == 2  # corpus + skip report
        assert "threads" not in manifest["config"]  # one task: --threads is never read

    def test_tsv_revalidation_with_subset_exclusion(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        extra = corpus.read_text(encoding="utf-8")
        extra += "eng_Latn\thin_Deva\thello\tनमस्ते\tcomparable\n"
        mixed = tmp_path / "mixed.tsv"
        mixed.write_text(extra, encoding="utf-8")
        out = tmp_path / "filtered.tsv"
        code = run_cli(
            "ingest", "--in", mixed, "--exclude-subset", "comparable", "--out", out
        )
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 50
        skip = Path(str(out) + ".skipped.txt").read_text(encoding="utf-8")
        assert "excluded subset:comparable" in skip

    def test_error_exit_code(self, tmp_path, capsys):
        code = run_cli("ingest", "--src", tmp_path / "missing.txt", "--tgt",
                       tmp_path / "also.txt", "--src-lang", "eng_Latn",
                       "--tgt-lang", "hin_Deva", "--out", tmp_path / "o.tsv")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_tag_fails(self, tmp_path, en_hi_files):
        src, tgt = en_hi_files
        code = run_cli("ingest", "--src", src, "--tgt", tgt, "--src-lang",
                       "eng_Latn", "--tgt-lang", "zzz_Zzzz", "--out", tmp_path / "o.tsv")
        assert code == 1


class TestStatsReduceSample:
    def test_stats_table(self, tmp_path, en_hi_files, capsys):
        corpus = _ingest(tmp_path, en_hi_files)
        out = tmp_path / "stats.tsv"
        assert run_cli("stats", "--in", corpus, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "Hindi" in printed and "Deva" in printed and "50" in printed
        assert out.read_text(encoding="utf-8") == "hin_Deva\t50\n"

    def test_stats_of_a_pipe(self, tmp_path, capsys):
        data = fifo_bytes()
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(data)
        assert run_cli("stats", "--in", corpus, "--out", tmp_path / "file.tsv") == 0
        table = capsys.readouterr().out
        fifo = tmp_path / "fifo"
        out = tmp_path / "s.tsv"
        with feed_fifo(fifo, data):
            assert run_cli("stats", "--in", fifo, "--out", out) == 0
        assert capsys.readouterr().out == table
        assert out.read_bytes() == (tmp_path / "file.tsv").read_bytes() == b"hin_Deva\t30\n"
        doc = json.loads(Path(f"{out}.run.json").read_text(encoding="utf-8"))
        assert doc["inputs"] == {str(fifo): None}

    def test_stats_of_an_empty_corpus_writes_an_empty_file(self, tmp_path):
        corpus = tmp_path / "empty.tsv"
        corpus.write_bytes(b"")
        out = tmp_path / "stats.tsv"
        assert run_cli("stats", "--in", corpus, "--out", out) == 0
        assert out.read_bytes() == b""

    def test_reduce_halves_over_threshold(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        out = tmp_path / "reduced.tsv"
        assert run_cli("reduce", "--in", corpus, "--out", out,
                       "--threshold", 20, "--seed", 3) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 25

    def test_reduce_under_threshold_is_identity(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        out = tmp_path / "reduced.tsv"
        assert run_cli("reduce", "--in", corpus, "--out", out,
                       "--threshold", 50, "--seed", 3) == 0
        assert out.read_bytes() == corpus.read_bytes()

    @pytest.mark.parametrize("change", ["more rows", "fewer rows", "a row without fields"])
    @pytest.mark.parametrize("command, option", [
        ("reduce", "--threshold"), ("sample", "--budget"), ("seed-select", "--budget"),
    ])
    def test_input_changed_between_reads(self, tmp_path, monkeypatch, capsys, command, option,
                                         change):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(b"".join(_rows(50)))
        first_read, reads = corpus_mod.iter_lines, []

        def changed_read(path, span=None):  # the second read sees another file
            lines = list(first_read(path, span))
            reads.append(path)
            if len(reads) == 2:
                lines = {"more rows": lines + lines[:1] * 5_000, "fewer rows": lines[:-5],
                         "a row without fields": ["x", *lines[1:]]}[change]
            return iter(lines)

        monkeypatch.setattr(corpus_mod, "iter_lines", changed_read)
        assert run_cli(command, "--in", corpus, "--out", tmp_path / "o.tsv",
                       option, 20, "--seed", 3) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: changed while read") and err.count("\n") == 1
        assert len(reads) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.tsv"]

    def test_sample_writes_plan_and_plot(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        out = tmp_path / "sampled.tsv"
        assert run_cli("sample", "--in", corpus, "--out", out,
                       "--temperature", 5, "--budget", 30, "--seed", 1) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 30
        plan = (tmp_path / "sampled.tsv.plan.tsv").read_text(encoding="utf-8")
        assert plan.splitlines()[0] == "lang\tn\tp\tc"
        assert (tmp_path / "sampled.tsv.plot.tsv").exists()

    def test_sample_failed_plan_write_leaves_no_output(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        out = tmp_path / "s.tsv"
        assert run_cli("sample", "--in", corpus, "--out", out, "--budget", 30, "--seed", 1,
                       "--plan-out", tmp_path / "nodir" / "p.tsv") == 1
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("s.tsv")) == []

    def test_sample_underflowing_temperature_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "two_langs.tsv"
        corpus.write_text(
            "eng_Latn\thin_Deva\ta\tक\tdefault\n"
            "eng_Latn\thin_Deva\tb\tख\tdefault\n"
            "eng_Latn\tbrx_Deva\tc\tग\tdefault\n",
            encoding="utf-8",
        )
        code = run_cli("sample", "--in", corpus, "--out", tmp_path / "s.tsv",
                       "--temperature", 0.0001, "--budget", 2, "--seed", 1)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "temperature 0.0001" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, extra", [
        ("sample", ["--budget", 2]),
        ("seed-select", ["--budget", 1]),
        ("reduce", []),
        ("ingest", []),
        ("stats", []),
        ("mixture", ["--aug", None]),  # None: the corpus itself
        ("augment", ["--lex", "LEX", "--threads", 1]),  # LEX: a hin_Deva lexicon
        ("augment", ["--lex", "LEX", "--threads", 2]),
    ])
    def test_unknown_tag_error_names_file_and_line(
        self, tmp_path, capsys, hin_lex, command, extra
    ):
        corpus = tmp_path / "bad.tsv"
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        extra = [{None: corpus, "LEX": f"hin_Deva={hin_lex}"}.get(arg, arg) for arg in extra]
        for tag, message in (
            ("xyz_Deva", "unknown language tag 'xyz_Deva'"),
            ("hin-Deva", "malformed language tag 'hin-Deva': expected <lll>_<Ssss>, e.g. hin_Deva"),
        ):
            corpus.write_text(
                "eng_Latn\thin_Deva\ta\tक\tWiki\n"
                f"eng_Latn\t{tag}\tb\tख\tWiki\n",
                encoding="utf-8",
            )
            assert run_cli(command, "--in", corpus, "--out", out, "--seed", 1, *extra) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {corpus}:2: {message}")
            assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("case", [
        "seed budget over the pool",
        "unknown seed subset",
        "underflowing temperature",
        "plan into a missing directory",
        "plot into a missing directory",
    ])
    def test_failed_selection_leaves_nothing_beside_out(self, tmp_path, capsys, case):
        corpus = tmp_path / "pool.tsv"
        rows = [f"eng_Latn\thin_Deva\ts{i}\tt{i}\tWiki" for i in range(6)]
        rows += [f"eng_Latn\tbrx_Deva\ts{i}\tt{i}\tILCI" for i in range(3)]
        if case == "unknown seed subset":
            rows.append("eng_Latn\thin_Deva\tx\ty\tgeneral")
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        missing = tmp_path / "nodir" / "f.tsv"
        argv = {
            "seed budget over the pool": ["seed-select", "--budget", 10],
            "unknown seed subset": ["seed-select", "--budget", 2],
            "underflowing temperature": ["sample", "--temperature", 0.0001],
            "plan into a missing directory": ["sample", "--plan-out", missing],
            "plot into a missing directory": ["sample", "--plot-out", missing],
        }[case]
        assert run_cli(*argv, "--in", corpus, "--out", out, "--seed", 1) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out.parent.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "pool.tsv"]


class TestLexiconAugmentMixture:
    def test_lexicon_normalize(self, tmp_path, hin_lex, capsys):
        out = tmp_path / "lex.tsv"
        assert run_cli("lexicon", "--in", hin_lex, "--format", "muse",
                       "--tgt-lang", "hin_Deva", "--topk", 3, "--out", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == ["dog\tकुत्ता", "cat\tबिल्ली", "house\tघर", "house\tमकान"]

    def test_augment_pipeline_and_mixture(self, tmp_path, en_hi_files, hin_lex):
        corpus = _ingest(tmp_path, en_hi_files)
        aug = tmp_path / "aug.tsv"
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                       "--prob", 1.0, "--seed", 5, "--out", aug) == 0
        aug_lines = aug.read_text(encoding="utf-8").splitlines()
        assert len(aug_lines) == 50  # p=1 and every line has dictionary words
        assert any("कुत्ता" in line or "बिल्ली" in line for line in aug_lines)
        for line in aug_lines:
            fields = line.split("\t")
            assert fields[0] == "eng_Latn"
            assert fields[3].startswith("कुत्ते ने")  # targets untouched

        mix = tmp_path / "mix.tsv"
        assert run_cli("mixture", "--in", corpus, "--aug", aug, "--out", mix) == 0
        lines = mix.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 150
        origins = [line.split("\t")[5] for line in lines]
        assert origins == ["orig", "rev"] * 50 + ["aug"] * 50  # each row, then its reversal
        corpus_lines = corpus.read_text(encoding="utf-8").splitlines()
        for row, line, reversed_line in zip(corpus_lines, lines[::2], lines[1:100:2]):
            src, tgt, source, target, subset = row.split("\t")
            assert line == f"{row}\torig"
            assert reversed_line == f"{tgt}\t{src}\t{target}\t{source}\t{subset}\trev"
        config = json.loads((tmp_path / "mix.tsv.run.json").read_text())["config"]
        assert config["stats"] == {
            "original_pairs": 50, "reversed_pairs": 50, "augmented_pairs": 50, "total_pairs": 150
        }
        # the augment run manifest sits next to aug.tsv, so the mixture
        # recovers the policy snapshot from it
        assert config["policy"] == {
            "probability": 1.0,
            "top_k": 4000,
            "mode": "random-language",
            "seed": 5,
        }
        assert not list(tmp_path.glob("*.mixture.json"))

    def test_mixture_records_the_augment_manifest_it_reads(self, tmp_path, en_hi_files,
                                                           hin_lex):
        corpus = _ingest(tmp_path, en_hi_files)
        aug = tmp_path / "aug.tsv"
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                       "--seed", 5, "--out", aug) == 0
        aug_manifest = tmp_path / "aug.tsv.run.json"
        docs = []
        for name, prob in (("a.tsv", 0.3), ("b.tsv", 0.4)):
            doc = json.loads(aug_manifest.read_text(encoding="utf-8"))
            doc["config"]["prob"] = prob
            aug_manifest.write_text(json.dumps(doc), encoding="utf-8")
            assert run_cli("mixture", "--in", corpus, "--aug", aug, "--seed", 1,
                           "--out", tmp_path / name) == 0
            docs.append(json.loads((tmp_path / f"{name}.run.json").read_text()))
            assert docs[-1]["inputs"][str(aug_manifest)] == _sha256(aug_manifest)
        a, b = docs
        assert [doc["config"].pop("policy")["probability"] for doc in docs] == [0.3, 0.4]
        assert (a["command"], a["config"], a["seed"]) == (b["command"], b["config"], b["seed"])
        assert a["inputs"] != b["inputs"]  # the policies came from different files

    def test_mixture_hashes_each_input_once(self, tmp_path, en_hi_files, hin_lex,
                                            monkeypatch):
        from bitextpipe import cli, manifest

        corpus = _ingest(tmp_path, en_hi_files)
        aug = tmp_path / "aug.tsv"
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                       "--seed", 5, "--out", aug) == 0
        hashed = []
        sha256_file = manifest.sha256_file

        def counting(path, *kind):
            hashed.append(str(path))
            return sha256_file(path, *kind)

        monkeypatch.setattr(manifest, "sha256_file", counting)
        monkeypatch.setattr(cli, "sha256_file", counting)
        mix = tmp_path / "mix.tsv"
        assert run_cli("mixture", "--in", corpus, "--aug", aug, "--out", mix) == 0
        assert sorted(hashed) == sorted([str(corpus), str(aug), f"{aug}.run.json", str(mix)])
        run_doc = json.loads((tmp_path / "mix.tsv.run.json").read_text())
        assert run_doc["inputs"] == {
            str(path): sha256_file(path) for path in (corpus, aug, f"{aug}.run.json")
        }

    def test_augment_threads_do_not_change_bytes(self, tmp_path, en_hi_files, hin_lex):
        corpus = _ingest(tmp_path, en_hi_files)
        one = tmp_path / "aug1.tsv"
        eight = tmp_path / "aug8.tsv"
        for out, threads in ((one, 1), (eight, 8)):
            assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                           "--prob", 0.4, "--seed", 9, "--threads", threads,
                           "--out", out) == 0
        assert one.read_bytes() == eight.read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_augment_rejects_a_bad_target_tag(self, tmp_path, capsys, hin_lex, threads):
        bad = tmp_path / "bad.tsv"
        bad.write_text(
            "eng_Latn\thin_Deva\tthe dog\tnamaste\tgeneral\n"
            "eng_Latn\thin-Deva\tthe dog\tnamaste\tgeneral\n",
            encoding="utf-8",
        )
        out = tmp_path / "aug.tsv"
        assert run_cli("augment", "--in", bad, "--lex", f"hin_Deva={hin_lex}", "--prob", 1,
                       "--seed", 1, "--threads", threads, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: malformed language tag 'hin-Deva'")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv", "muse_hin.txt"]

    @pytest.mark.parametrize("change", [
        {"prob": 1.5},
        {"topk": 0},
        {"mode": "nonsense"},
        {"prob": "high"},
        {"prob": None},  # None: the key is missing
        None,  # the manifest is not JSON
    ])
    def test_mixture_policy_is_null_for_an_invalid_augment_manifest(
        self, tmp_path, en_hi_files, hin_lex, change
    ):
        corpus = _ingest(tmp_path, en_hi_files)
        aug = tmp_path / "aug.tsv"
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                       "--seed", 5, "--out", aug) == 0
        aug_manifest = tmp_path / "aug.tsv.run.json"
        doc = json.loads(aug_manifest.read_text())
        for key, value in (change or {}).items():
            doc["config"][key] = value
            if value is None:
                del doc["config"][key]
        aug_manifest.write_text(json.dumps(doc) if change else "{not json", encoding="utf-8")
        mix = tmp_path / "mix.tsv"
        assert run_cli("mixture", "--in", corpus, "--aug", aug, "--out", mix) == 0
        assert json.loads((tmp_path / "mix.tsv.run.json").read_text())["config"]["policy"] is None

    def test_augment_rejects_non_english_source(self, tmp_path, hin_lex):
        bad = tmp_path / "bad.tsv"
        bad.write_text("hin_Deva\teng_Latn\tनमस्ते\thello\tgeneral\n", encoding="utf-8")
        code = run_cli("augment", "--in", bad, "--lex", f"hin_Deva={hin_lex}",
                       "--out", tmp_path / "aug.tsv")
        assert code == 1


class TestAugmentBlocks:
    """Augment's work unit is a byte block; its size changes no byte or count."""

    ROWS = [f"eng_Latn\thin_Deva\tthe dog {i}\tक {i}\tgeneral" for i in range(40)]
    ROWS[7] = "eng_Latn\thin_Deva\t" + "near the house a cat " * 12 + "\tघर\tWiki"  # > 1 unit
    ROWS[23] = "eng_Latn\thin_Deva\tcat\tबिल्ली\tgeneral\torig"

    def _augment(self, corpus, lex, out, threads) -> tuple[bytes, dict]:
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={lex}", "--prob", 0.5,
                       "--seed", 3, "--threads", threads, "--out", out) == 0
        doc = json.loads(Path(f"{out}.run.json").read_text(encoding="utf-8"))
        return out.read_bytes(), doc["config"]["stats"]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("ending, last", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")])
    def test_small_units_give_the_same_bytes_and_counts(
        self, tmp_path, hin_lex, monkeypatch, threads, ending, last
    ):
        corpus = tmp_path / "in.tsv"
        corpus.write_text("\n".join(self.ROWS) + "\n", encoding="utf-8")
        expected, expected_stats = self._augment(corpus, hin_lex, tmp_path / "ref.tsv", 1)
        assert expected_stats["pairs_augmented"] > 10

        corpus.write_bytes((ending.join(self.ROWS) + last).encode("utf-8"))
        monkeypatch.setattr(corpus_mod, "RANGE_BYTES", 48)
        monkeypatch.setattr(corpus_mod, "SPREAD_BYTES", 0)
        got, stats = self._augment(corpus, hin_lex, tmp_path / "aug.tsv", threads)
        assert got == expected
        assert stats == expected_stats

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_invalid_utf8_in_a_later_unit_names_its_line(
        self, tmp_path, hin_lex, monkeypatch, capsys, threads
    ):
        from bitextpipe.corpus import iter_lines
        from bitextpipe.errors import CorpusError

        corpus = tmp_path / "in.tsv"
        rows = [row.encode("utf-8") + b"\n" for row in self.ROWS]
        rows[31] = rows[31].replace(b"\tgeneral", b"\xe0\xa4\tgeneral")
        corpus.write_bytes(b"".join(rows))
        with pytest.raises(CorpusError) as expected:
            list(iter_lines(corpus))
        assert "line 32" in str(expected.value)

        monkeypatch.setattr(corpus_mod, "RANGE_BYTES", 48)
        monkeypatch.setattr(corpus_mod, "SPREAD_BYTES", 0)
        out = tmp_path / "out" / "aug.tsv"
        out.parent.mkdir()
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                       "--seed", 3, "--threads", threads, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_missing_input(self, tmp_path, hin_lex, capsys, threads):
        missing = tmp_path / "nope.tsv"
        assert run_cli("augment", "--in", missing, "--lex", f"hin_Deva={hin_lex}",
                       "--threads", threads, "--out", tmp_path / "aug.tsv") == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["muse_hin.txt"]


# Every command that spreads a corpus over range workers: its argv given
# the corpus as CORPUS, a hin_Deva lexicon as LEX and a valid corpus as GOOD.
_RANGE_COMMANDS = {
    "ingest": ["ingest", "--in", "CORPUS"],
    "stats": ["stats", "--in", "CORPUS"],
    "reduce": ["reduce", "--in", "CORPUS", "--threshold", "3"],
    "sample": ["sample", "--in", "CORPUS", "--budget", "40"],
    "seed-select": ["seed-select", "--in", "CORPUS", "--budget", "7"],
    "augment": ["augment", "--in", "CORPUS", "--lex", "LEX", "--prob", "0.5"],
    "mixture": ["mixture", "--in", "CORPUS", "--aug", "GOOD"],
    "mixture-aug": ["mixture", "--in", "GOOD", "--aug", "CORPUS"],
}


def _rows(n: int, tgt: str = "hin_Deva", src: str = "eng_Latn") -> list[bytes]:
    return [f"{src}\t{tgt}\tthe dog saw cat {i:03}\tकुत्ता {i:03}\tWiki\n".encode()
            for i in range(n)]


def _argv(command: str, files: dict, out: Path, threads: int) -> list:
    argv = [files.get(arg, arg) for arg in _RANGE_COMMANDS[command]]
    return argv + ["--seed", 5, "--threads", threads, "--out", out]


class TestRangeWorkers:
    """Commands spread over range workers write and fail as one process does."""

    RANGE = 140  # bytes: two 66-byte rows of :func:`_rows` per range

    @pytest.fixture
    def files(self, tmp_path, hin_lex, monkeypatch):
        monkeypatch.setattr(corpus_mod, "RANGE_BYTES", self.RANGE)
        monkeypatch.setattr(corpus_mod, "SPREAD_BYTES", 0)
        good = tmp_path / "good.tsv"
        good.write_bytes(b"".join(_rows(12)))
        return {"LEX": f"hin_Deva={hin_lex}", "GOOD": good}

    def _fails(self, capsys, tmp_path, command, files, message):
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        for threads in (1, 2, 8):
            capsys.readouterr()
            assert run_cli(*_argv(command, files, out, threads)) == 1, threads
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n"), threads
            assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("command", list(_RANGE_COMMANDS))
    def test_the_bytes_are_those_of_one_process(self, tmp_path, files, command):
        rows = _rows(15)
        long_row = "eng_Latn\thin_Deva\t" + "near the house a cat " * 8 + "\tघर\tWiki\r\n"
        rows[9] = long_row.encode()  # longer than a range, with a CRLF ending
        if command == "ingest":  # rows that ingest skips, in two ranges
            for i in (2, 11):
                rows[i] = rows[i].replace(f"कुत्ता {i:03}".encode(), b" ")
        corpus = files["CORPUS"] = tmp_path / "c.tsv"
        corpus.write_bytes(b"".join(rows)[:-1])  # no newline after the last row
        outputs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}" / "o.tsv"
            out.parent.mkdir()
            assert run_cli(*_argv(command, files, out, threads)) == 0
            outputs.append({p.name: p.read_bytes() for p in out.parent.iterdir()
                            if not p.name.endswith(".json")})
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]["o.tsv"]
        if command == "ingest":
            assert outputs[0]["o.tsv.skipped.txt"] == b"3\tempty target\n12\tempty target\n"

    def test_the_worker_after_a_failed_one_does_not_mask_its_error(
        self, tmp_path, capsys, files, monkeypatch
    ):
        # Worker 0 waits for the token that failed worker 1 never sends. Once
        # both have left, both result pipes are ready, worker 0's first.
        from bitextpipe import ring

        wait = ring.Ring._wait
        monkeypatch.setattr(ring.Ring, "_wait", lambda self: time.sleep(0.5) or wait(self))
        rows = _rows(4)
        rows[3] = rows[3].replace(b"\tWiki", b" Wiki")  # the second range
        corpus = files["CORPUS"] = tmp_path / "c.tsv"
        corpus.write_bytes(b"".join(rows))
        assert run_cli(*_argv("stats", files, tmp_path / "o.tsv", 2)) == 1
        assert capsys.readouterr().err == (
            f"error: {corpus}:4: expected 5 or 6 tab-separated fields, got 4\n"
        )

    @pytest.mark.parametrize("command", list(_RANGE_COMMANDS))
    def test_the_first_error_in_the_file_wins(self, tmp_path, capsys, files, command):
        rows = _rows(12)
        corpus = files["CORPUS"] = tmp_path / "c.tsv"
        corpus.write_bytes(b"".join(rows))
        spans = list(corpus_mod.file_ranges(corpus))
        assert len(spans) == 6 and [start for _, _, start in spans[:3]] == [0, 2, 4]
        rows[3] = rows[3].replace(b"\tWiki", b" Wiki")  # the second range
        rows[4] = rows[4].replace(b"cat", b"c\xfft")  # the third
        corpus.write_bytes(b"".join(rows))
        self._fails(capsys, tmp_path, command, files,
                    f"{corpus}:4: expected 5 or 6 tab-separated fields, got 4")

    # Lines 7 and 8 share the fourth range; lines 4 and 7 are in two.
    @pytest.mark.parametrize("english, absent", [(4, 7), (7, 4), (8, 7), (7, 8)])
    def test_mixture_reports_the_earlier_of_two_augmented_rows(
        self, tmp_path, capsys, files, english, absent
    ):
        rows = _rows(12)
        rows[english - 1] = _rows(english, "eng_Latn", "hin_Deva")[-1]
        rows[absent - 1] = _rows(absent, "tam_Taml")[-1]
        corpus = files["CORPUS"] = tmp_path / "c.tsv"
        corpus.write_bytes(b"".join(rows))
        if english < absent:
            message = f"{corpus}:{english}: augmented corpus must be eng_Latn source"
        else:
            message = f"{corpus}:{absent}: language tam_Taml absent from original corpus"
        self._fails(capsys, tmp_path, "mixture-aug", files, message)

    def test_an_error_in_the_original_comes_before_one_in_the_augmented(
        self, tmp_path, capsys, files
    ):
        rows = _rows(12)
        rows[10] = _rows(11, "eng_Latn", "hin_Deva")[-1]
        original = files["CORPUS"] = tmp_path / "c.tsv"
        original.write_bytes(b"".join(rows))
        aug = files["GOOD"]
        aug.write_bytes(b"".join(_rows(2) + _rows(3, "tam_Taml")[2:]))
        self._fails(capsys, tmp_path, "mixture", files,
                    f"{original}:11: original corpus must be eng_Latn source")

    def test_an_input_changed_after_the_scan_fails(self, tmp_path, capsys, files, monkeypatch):
        corpus = files["CORPUS"] = tmp_path / "c.tsv"
        corpus.write_bytes(b"".join(_rows(12)))
        spans = list(corpus_mod.file_ranges(corpus))
        corpus.write_bytes(b"".join(_rows(7)))  # cut inside the fourth range
        monkeypatch.setattr(corpus_mod, "file_ranges", lambda path: iter(spans))
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        assert run_cli(*_argv("stats", files, out, 2)) == 1
        assert capsys.readouterr().err == f"error: {corpus}: changed while read\n"
        assert list(out.parent.iterdir()) == []

    def test_no_worker_outlives_a_run(self, tmp_path, files):
        corpus = files["CORPUS"] = tmp_path / "c.tsv"
        rows = _rows(12)
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"".join(rows[:5] + [b"eng_Latn\thin_Deva\tx\n"] + rows[5:]))
        corpus.write_bytes(b"".join(rows))
        hyp, bad_ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("the dog saw a cat\n" * (3 * CHUNK_SEGMENTS), encoding="utf-8")
        bad_ref.write_bytes(hyp.read_bytes() + b"\xff\n")  # fails after three chunks
        runs = []
        for command in _RANGE_COMMANDS:
            for path, code in ((corpus, 0), (bad, 1)):
                files["CORPUS"] = path
                runs.append((_argv(command, files, tmp_path / "o.tsv", 2), code))
        runs += [(["score", "--hyp", hyp, "--ref", hyp, "--pair", "eng_Latn-hin_Deva",
                   "--threads", 2], 0),
                 (["score", "--hyp", bad_ref, "--ref", bad_ref, "--pair", "eng_Latn-hin_Deva",
                   "--threads", 2], 1)]
        code = (
            "import json, os, sys\n"
            "from bitextpipe import cli, corpus\n"
            f"corpus.RANGE_BYTES, corpus.SPREAD_BYTES = {self.RANGE}, 0\n"
            "for argv, expected in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == expected, argv\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        continue\n"
            "    sys.exit(f'a process outlived {argv}')\n"
        )
        runs = [([str(arg) for arg in argv], expected) for argv, expected in runs]
        env = dict(os.environ, PYTHONPATH=str(Path(corpus_mod.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr

    def test_many_workers_fit_a_low_open_file_limit(self, tmp_path):
        # Sixteen workers under a 64-descriptor limit: the map holds two pipe
        # ends per worker, not the six of every worker opened before a fork.
        corpus = tmp_path / "c.tsv"
        corpus.write_bytes(b"".join(_rows(40)))
        code = (
            "import resource, sys\n"
            "from bitextpipe import cli, corpus\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))\n"
            f"corpus.RANGE_BYTES, corpus.SPREAD_BYTES = {self.RANGE}, 0\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(corpus_mod.__file__).parents[1]))
        outputs = []
        for threads in (1, 16):
            out = tmp_path / f"t{threads}" / "o.tsv"
            out.parent.mkdir()
            argv = ["ingest", "--in", corpus, "--threads", threads, "--out", out]
            child = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert child.returncode == 0, child.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == b"".join(_rows(40))


class TestRowRules:
    @pytest.mark.parametrize("command", [
        "stats", "reduce", "sample", "seed-select", "augment", "mixture",
    ])
    @pytest.mark.parametrize("row", [
        "hin_Deva\thin_Deva\tक\tख\tWiki",
        "eng_Latn\thin_Deva\t \tख\tWiki",
        "eng_Latn\thin_Deva\ta\t\tWiki",
        "eng_Latn\thin_Deva\ta\t\u3000\u2028\tWiki",
        "eng_Latn\thin_Deva\ta\tख",
        "eng_Latn\thin_Deva\ta\tख\tWiki\torig\tmore",
    ])
    def test_rows_the_library_rejects_fail_with_its_message(
        self, tmp_path, capsys, hin_lex, command, row
    ):
        from bitextpipe.corpus import read_tsv
        from bitextpipe.errors import CorpusError

        corpus = tmp_path / "bad.tsv"
        # Line 3 is invalid UTF-8 in the same read block: the first bad line wins.
        corpus.write_bytes(f"eng_Latn\thin_Deva\ta\tक\tWiki\n{row}\n".encode("utf-8")
                           + b"eng_Latn\thin_Deva\ta\t\xe0\tWiki\n")
        with pytest.raises(CorpusError) as expected:
            read_tsv(corpus)
        assert str(expected.value).startswith(f"{corpus}:2: ")
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        extra = {
            "seed-select": ["--budget", 1],
            "augment": ["--lex", f"hin_Deva={hin_lex}"],
            "mixture": ["--aug", corpus],
        }.get(command, [])
        assert run_cli(command, "--in", corpus, "--out", out, "--seed", 1, *extra) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert list(out.parent.iterdir()) == []


class TestSeedSelect:
    def test_proportional_selection(self, tmp_path):
        rows = []
        for label, n in (("ILCI", 60), ("Wiki", 40)):
            rows += [f"eng_Latn\thin_Deva\tsrc {label} {i}\ttgt {i}\t{label}" for i in range(n)]
        corpus = tmp_path / "seedpool.tsv"
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "seed.tsv"
        assert run_cli("seed-select", "--in", corpus, "--budget", 50, "--seed", 2,
                       "--out", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 50
        origins = [line.split("\t")[5] for line in lines]
        assert origins.count("seed:ILCI") == 30
        assert origins.count("seed:Wiki") == 20


# Rows whose target is the extra tag come first, so a run without the tags
# file fails on line 1.
_EXTRA_ROWS = [
    f"eng_Latn\txyz_Deva\tthe dog saw {i}\tकुत्ता {i}\t{'ILCI' if i % 3 else 'Wiki'}"
    for i in range(12)
] + [f"eng_Latn\thin_Deva\tthe cat near {i}\tबिल्ली {i}\tWiki" for i in range(5)]

_COMMANDS = ("stats", "reduce", "sample", "seed-select", "mixture", "augment")


def _command_args(command, corpus, lexicons):
    """Arguments for one corpus command over ``corpus`` (``mixture`` mixes it with itself)."""
    return {
        "stats": [],
        "reduce": ["--threshold", 5, "--seed", 3],
        "sample": ["--temperature", 5, "--budget", 20, "--seed", 1],
        "seed-select": ["--budget", 7, "--seed", 2],
        "mixture": ["--aug", corpus, "--seed", 4],
        "augment": [*(a for lex in lexicons for a in ("--lex", lex)), "--prob", 1.0,
                    "--seed", 5],
    }[command]


class TestExtraTags:
    @pytest.fixture
    def files(self, tmp_path, hin_lex):
        corpus = tmp_path / "in.tsv"
        corpus.write_text("\n".join(_EXTRA_ROWS) + "\n", encoding="utf-8")
        tags = tmp_path / "tags.txt"
        tags.write_text("# corpora outside the registry\nxyz_Deva\n", encoding="utf-8")
        xyz_lex = tmp_path / "muse_xyz.txt"
        xyz_lex.write_text("dog कुत्ता\nsaw देखा\n", encoding="utf-8")
        return corpus, tags, {"xyz_Deva": xyz_lex, "hin_Deva": hin_lex}

    @staticmethod
    def _library_bytes(command, corpus, tags, lexicons, root):
        """What the library writes for ``command``, given the same arguments."""
        from bitextpipe import augment, corpus as corpus_lib, lexicon, sampling
        from bitextpipe.lang import load_extra_tags, parse_tag

        extra = load_extra_tags(tags)
        pairs = corpus_lib.read_tsv(corpus, extra)
        out = root / "library.tsv"
        if command == "stats":
            rows = [f"{tag}\t{n}" for tag, n in corpus_lib.stats(pairs).rows()]
            corpus_lib.write_tsv_rows(rows, out)
        elif command == "reduce":
            corpus_lib.write_tsv(corpus_lib.reduce_highresource(pairs, 5, 0.5, 3), out)
        elif command == "sample":
            plan = sampling.allocate(sampling.distribution(corpus_lib.stats(pairs), 5.0), 20)
            corpus_lib.write_tsv(sampling.materialize(plan, pairs, 20, seed=1), out)
        elif command == "seed-select":
            selected = augment.select_seed(pairs, 7, 2)
            corpus_lib.write_tsv(selected, out, origins=(f"seed:{p.subset}" for p in selected))
        elif command == "mixture":
            mixed, manifest = augment.build_pretraining_mixture(pairs, pairs)
            origins = ["orig", "rev"] * manifest.n_original + ["aug"] * manifest.n_augmented
            corpus_lib.write_tsv(mixed, out, origins=origins)
        else:
            policy = augment.AugmentationPolicy(1.0, lexicon.DEFAULT_TOP_K,
                                                augment.MODE_RANDOM_LANGUAGE, 5)
            subs = augment.SubstitutionSet.prepare(
                [lexicon.load(path, lexicon.MUSE, parse_tag(tag, extra))
                 for tag, path in lexicons.items()],
                policy.top_k,
            )
            corpus_lib.write_tsv(augment.augment_corpus(pairs, subs, policy)[0], out)
        return out.read_bytes()

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_with_the_tags_file_the_cli_writes_the_library_bytes(
        self, tmp_path, files, command
    ):
        corpus, tags, lexicons = files
        out = tmp_path / "out.tsv"
        lex = [f"{tag}={path}" for tag, path in lexicons.items()]
        assert run_cli(command, "--in", corpus, "--out", out, "--tags-file", tags,
                       *_command_args(command, corpus, lex)) == 0
        expected = self._library_bytes(command, corpus, tags, lexicons, tmp_path)
        assert out.read_bytes() == expected
        assert b"xyz_Deva" in expected

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_without_it_the_extra_tag_is_unknown(self, tmp_path, capsys, files, command):
        corpus, _, lexicons = files
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        lex = [f"hin_Deva={lexicons['hin_Deva']}"]
        assert run_cli(command, "--in", corpus, "--out", out,
                       *_command_args(command, corpus, lex)) == 1
        assert capsys.readouterr().err == (
            f"error: {corpus}:1: unknown language tag 'xyz_Deva': not in the registry\n"
        )
        assert list(out.parent.iterdir()) == []


class TestNoPairPerRow:
    def test_corpus_commands_build_no_sentence_pair(self, tmp_path, hin_lex, monkeypatch):
        """The CLI checks raw fields; a second validator that builds pairs would trip here."""
        from bitextpipe import corpus as corpus_lib

        corpus = tmp_path / "in.tsv"
        rows = [row.replace("xyz_Deva", "brx_Deva") for row in _EXTRA_ROWS]
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        lex = [f"hin_Deva={hin_lex}"]

        def run_all(root):
            root.mkdir()
            for command in _COMMANDS:
                out = root / f"{command}.tsv"
                assert run_cli(command, "--in", corpus, "--out", out, "--no-manifest",
                               *_command_args(command, corpus, lex)) == 0
            return {p.name: p.read_bytes() for p in root.iterdir()}

        expected = run_all(tmp_path / "plain")

        def no_pairs(self):
            raise AssertionError("a SentencePair was built")

        monkeypatch.setattr(corpus_lib.SentencePair, "__post_init__", no_pairs)
        with pytest.raises(AssertionError, match="SentencePair"):
            corpus_lib.read_tsv(corpus)
        assert run_all(tmp_path / "patched") == expected


class TestScoreReport:
    def test_score_and_report(self, tmp_path, capsys):
        hyps = (FIXTURES / "parity_hyp.txt").read_text(encoding="utf-8")
        refs = (FIXTURES / "parity_ref.txt").read_text(encoding="utf-8")
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text(hyps, encoding="utf-8")
        ref.write_text(refs, encoding="utf-8")
        row_path = tmp_path / "row.tsv"
        assert run_cli("score", "--hyp", hyp, "--ref", ref,
                       "--pair", "hin_Deva-eng_Latn", "--out", row_path) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("hin_Deva-eng_Latn\t")

        report_path = tmp_path / "report.tsv"
        assert run_cli("report", "--in", row_path, "--out", report_path) == 0
        printed = capsys.readouterr().out
        assert "Language pair" in printed
        assert "Avg." in printed
        lines = report_path.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("Avg.")

    def test_perfect_score_row(self, tmp_path, capsys):
        text = "a fairly long reference sentence here\n"
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text(text, encoding="utf-8")
        ref.write_text(text, encoding="utf-8")
        assert run_cli("score", "--hyp", hyp, "--ref", ref,
                       "--pair", "asm_Beng-eng_Latn") == 0
        out = capsys.readouterr().out.strip()
        assert out == "asm_Beng-eng_Latn\t100.0000\t100.0000\t100.0000"

    def test_report_hashes_each_input_once(self, tmp_path, monkeypatch):
        from bitextpipe import cli, manifest

        text = "a fairly long reference sentence here\n"
        (tmp_path / "h.txt").write_text(text, encoding="utf-8")
        rows = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        for row in rows:
            assert run_cli("score", "--hyp", tmp_path / "h.txt", "--ref", tmp_path / "h.txt",
                           "--pair", "asm_Beng-eng_Latn", "--out", row) == 0
        hashed = []
        sha256_file = manifest.sha256_file

        def counting(path, *kind):
            hashed.append(str(path))
            return sha256_file(path, *kind)

        monkeypatch.setattr(manifest, "sha256_file", counting)
        monkeypatch.setattr(cli, "sha256_file", counting)
        out = tmp_path / "report.tsv"
        assert run_cli("report", "--in", rows[0], "--in", rows[1], "--out", out) == 0
        assert sorted(hashed) == sorted(map(str, [*rows, out]))
        run_doc = json.loads((tmp_path / "report.tsv.run.json").read_text())
        assert run_doc["inputs"] == {str(row): sha256_file(row) for row in rows}


def _score_files(tmp_path, n: int) -> tuple[Path, Path, list[str], list[str]]:
    """n mixed-script segment pairs; hypotheses are edited references."""
    refs = [f"the dog {i % 7} saw कुत्ता {i % 11} near the house, {i % 5}." for i in range(n)]
    hyps = [ref.replace("saw", "found") if i % 3 else ref[::-1] for i, ref in enumerate(refs)]
    hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
    hyp.write_text("".join(f"{line}\n" for line in hyps), encoding="utf-8")
    ref.write_text("".join(f"{line}\n" for line in refs), encoding="utf-8")
    return hyp, ref, hyps, refs


class TestChunkedScore:
    """score reads both files in step and scores chunks of segments on the worker map."""

    THREE_CHUNKS = 2 * CHUNK_SEGMENTS + 40

    def test_rows_are_identical_at_every_thread_count(self, tmp_path):
        from bitextpipe import metrics

        hyp, ref, hyps, refs = _score_files(tmp_path, self.THREE_CHUNKS)
        rows = []
        for threads in (1, 2, 3):
            out = tmp_path / f"row{threads}.tsv"
            assert run_cli("score", "--hyp", hyp, "--ref", ref, "--pair", "eng_Latn-hin_Deva",
                           "--threads", threads, "--out", out) == 0
            rows.append(out.read_bytes())
        assert rows[0] == rows[1] == rows[2]
        expected = (
            metrics.bleu(hyps, refs).value,
            metrics.chrf(hyps, refs, metrics.CHRF).value,
            metrics.chrf(hyps, refs, metrics.CHRF_PP).value,
        )
        assert rows[0].decode().splitlines()[1] == "eng_Latn-hin_Deva\t" + "\t".join(
            f"{value:.4f}" for value in expected
        )
        for threads in (1, 2):
            row = score_run(hyp, ref, parse_pair("eng_Latn-hin_Deva"), threads)
            assert (row.bleu, row.chrf, row.chrf_pp) == expected

    @staticmethod
    def _break(tmp_path, kind: str) -> str:
        """Make the kind of bad input given; return the error it must give."""
        hyp, ref, hyps, refs = _score_files(tmp_path, TestChunkedScore.THREE_CHUNKS)
        late = 2 * CHUNK_SEGMENTS + 5  # a line in the third chunk
        if kind == "mismatch":
            ref.write_text("".join(f"{line}\n" for line in refs[:late]), encoding="utf-8")
            return f"{hyp} has {len(hyps)} lines but {ref} has {late}"
        if kind == "empty":
            hyp.write_bytes(b"")
            ref.write_bytes(b"")
            return f"{hyp} is empty"
        broken = {
            "bad hyp": [(hyp, late)],
            "bad ref": [(ref, late)],
            "bad ref and a later bad hyp": [(ref, late), (hyp, late + 10)],
        }[kind]
        for path, lineno in broken:
            lines = path.read_bytes().split(b"\n")
            lines[lineno - 1] += b" \xff"
            path.write_bytes(b"\n".join(lines))
        path, lineno = broken[-1]  # an error in the hypotheses comes first
        with pytest.raises(MetricError, match=f"at line {lineno}:") as excinfo:
            list(iter_lines(path, MetricError))
        return str(excinfo.value)

    @pytest.mark.parametrize(
        "kind", ["mismatch", "empty", "bad hyp", "bad ref", "bad ref and a later bad hyp"]
    )
    def test_errors_are_the_same_at_every_thread_count(self, tmp_path, capsys, kind):
        message = self._break(tmp_path, kind)
        out = tmp_path / "out" / "row.tsv"
        out.parent.mkdir()
        for threads in (1, 2):
            capsys.readouterr()
            assert run_cli("score", "--hyp", tmp_path / "h.txt", "--ref", tmp_path / "r.txt",
                           "--pair", "eng_Latn-hin_Deva", "--threads", threads,
                           "--out", out) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")
            assert list(out.parent.iterdir()) == []

    def test_one_unit_of_work_forks_no_worker(self, tmp_path, hin_lex, monkeypatch):
        def no_fork():
            raise RuntimeError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        hyp, ref, _, _ = _score_files(tmp_path, CHUNK_SEGMENTS)
        assert run_cli("score", "--hyp", hyp, "--ref", ref, "--pair", "eng_Latn-hin_Deva",
                       "--threads", 8) == 0
        corpus = tmp_path / "in.tsv"
        corpus.write_text("eng_Latn\thin_Deva\tthe dog\tक\tgeneral\n" * 20, encoding="utf-8")
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}", "--prob", 1,
                       "--seed", 1, "--threads", 8, "--out", tmp_path / "aug.tsv") == 0
        assert (tmp_path / "aug.tsv").read_text(encoding="utf-8").count("कुत्ता") == 20


class TestTrainConfigCommand:
    def test_writes_manifest_json(self, tmp_path):
        out = tmp_path / "pretrain.json"
        assert run_cli("train-config", "--phase", "pretrain", "--out", out) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["ffn_dim"] == 4096
        assert data["warmup_steps"] == 4000

    def test_prints_to_stdout_without_out(self, capsys):
        assert run_cli("train-config", "--phase", "finetune") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["learning_rate"] == 3e-5
        assert data["dropout"] == 0.2


class TestConfigAndManifest:
    def test_identical_runs_have_identical_digests(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        digests = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            assert run_cli("reduce", "--in", corpus, "--out", out,
                           "--threshold", 10, "--seed", 42) == 0
            manifest = json.loads(Path(str(out) + ".run.json").read_text())
            digests.append(list(manifest["outputs"].values()))
        assert digests[0] == digests[1]

    def test_no_manifest_flag(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        out = tmp_path / "r.tsv"
        assert run_cli("reduce", "--in", corpus, "--out", out, "--seed", 1,
                       "--no-manifest") == 0
        assert not Path(str(out) + ".run.json").exists()

    def test_pipeline_config_defaults_and_flag_precedence(
        self, tmp_path, en_hi_files, hin_lex, monkeypatch
    ):
        corpus = _ingest(tmp_path, en_hi_files)
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\nprob = 0.0\nseed = 7\n", encoding="utf-8")
        monkeypatch.setenv("PIPELINE_CONFIG", str(cfg))

        from_cfg = tmp_path / "aug_cfg.tsv"
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                       "--out", from_cfg) == 0
        assert from_cfg.read_text(encoding="utf-8") == ""  # prob 0 from config

        overridden = tmp_path / "aug_flag.tsv"
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                       "--prob", 1.0, "--out", overridden) == 0
        assert len(overridden.read_text(encoding="utf-8").splitlines()) == 50

        manifest = json.loads(Path(str(from_cfg) + ".run.json").read_text())
        assert manifest["seed"] == 7  # seed came from the config file
        assert manifest["config"]["prob"] == 0.0  # and prob, recorded as used
        assert "seed" not in manifest["config"]
        manifest = json.loads(Path(str(overridden) + ".run.json").read_text())
        assert (manifest["seed"], manifest["config"]["prob"]) == (7, 1.0)

    def test_unknown_config_key_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("verbosity = 3\n", encoding="utf-8")
        monkeypatch.setenv("PIPELINE_CONFIG", str(cfg))
        assert run_cli("train-config", "--phase", "pretrain") == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_config_file_only_newline_breaks_a_line(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\u2028 note\nseed = 5\x0b\nverbosity = 3\n", encoding="utf-8")
        monkeypatch.setenv("PIPELINE_CONFIG", str(cfg))
        assert run_cli("train-config", "--phase", "pretrain") == 1
        assert f"{cfg}:3: unknown config key 'verbosity'" in capsys.readouterr().err

    def test_recorded_random_seed_when_omitted(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        out = tmp_path / "r.tsv"
        assert run_cli("reduce", "--in", corpus, "--out", out) == 0
        manifest = json.loads(Path(str(out) + ".run.json").read_text())
        assert isinstance(manifest["seed"], int)

    def test_tags_file_is_an_input(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        tags = tmp_path / "tags.txt"
        tags.write_text("# extra\nsnd_Arab\n", encoding="utf-8")
        out = tmp_path / "s.tsv"
        assert run_cli("stats", "--in", corpus, "--tags-file", tags, "--out", out) == 0
        doc = json.loads(Path(f"{out}.run.json").read_text(encoding="utf-8"))
        assert doc["inputs"] == {str(tags): _sha256(tags), str(corpus): _sha256(corpus)}
        assert list(doc["config"]) == ["in", "threads"]

    @pytest.mark.parametrize("content", [None, b"snd_Arab\n\xff\n"])
    def test_unreadable_tags_file_is_one_error_line(self, tmp_path, en_hi_files, capsys,
                                                     content):
        corpus = _ingest(tmp_path, en_hi_files)
        tags = tmp_path / "tags.txt"
        if content is not None:
            tags.write_bytes(content)
        capsys.readouterr()
        assert run_cli("stats", "--in", corpus, "--tags-file", tags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(tags) in err

    @pytest.mark.parametrize("command", ["reduce", "score", "sample", "seed-select"])
    def test_out_in_missing_directory_is_one_error_line(self, tmp_path, en_hi_files, capsys,
                                                         command):
        corpus = _ingest(tmp_path, en_hi_files)
        if command == "seed-select":  # a seed pool: its subsets are checked before the write
            corpus.write_bytes(corpus.read_bytes().replace(b"\tgeneral\n", b"\tWiki\n"))
        out = tmp_path / "nodir" / "x.tsv"
        argv = {
            "reduce": ["reduce", "--in", corpus],
            "sample": ["sample", "--in", corpus],
            "seed-select": ["seed-select", "--in", corpus, "--budget", 5],
            "score": ["score", "--hyp", en_hi_files[1], "--ref", en_hi_files[1],
                      "--pair", "hin_Deva-eng_Latn"],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        # the output as given, not a temp name
        assert err.endswith(f": '{out}'\n") and ".tmp" not in err
        assert not (tmp_path / "nodir").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("frobnicate")
        assert excinfo.value.code == 2


# Every subcommand that writes a file: its argv given a corpus, a lexicon,
# a score-row file and an output path, its run.json config keys in order,
# and its outputs as file names beside --out.
_WRITERS = {
    "ingest": (
        ["--in", "CORPUS"],
        ["in", "exclude_subset", "threads"],
        ["o.tsv", "o.tsv.skipped.txt"],
    ),
    "stats": (["--in", "CORPUS"], ["in", "threads"], ["o.tsv"]),
    "reduce": (
        ["--in", "CORPUS", "--threshold", 2],
        ["in", "threshold", "factor", "threads"],
        ["o.tsv"],
    ),
    "sample": (
        ["--in", "CORPUS", "--budget", 3],
        ["in", "temperature", "threads", "budget"],
        ["o.tsv", "o.tsv.plan.tsv", "o.tsv.plot.tsv"],
    ),
    "lexicon": (
        ["--in", "LEX", "--tgt-lang", "hin_Deva"], ["in", "format", "topk", "tgt_lang"], ["o.tsv"]
    ),
    "augment": (
        ["--in", "CORPUS", "--lex", "hin_Deva=LEX"],
        ["in", "lex", "format", "prob", "topk", "mode", "threads", "stats"],
        ["o.tsv"],
    ),
    "mixture": (
        ["--in", "CORPUS", "--aug", "CORPUS"],
        ["in", "aug", "threads", "stats", "policy"],
        ["o.tsv"],
    ),
    "seed-select": (
        ["--in", "CORPUS", "--budget", 2], ["in", "budget", "threads"], ["o.tsv"]
    ),
    "score": (
        ["--hyp", "HYP", "--ref", "HYP", "--pair", "hin_Deva-eng_Latn"],
        ["hyp", "ref", "pair", "threads", "signatures"],
        ["o.tsv"],
    ),
    "report": (["--in", "ROWS"], ["in", "signatures"], ["o.tsv"]),
    "train-config": (["--phase", "pretrain"], ["phase"], ["o.tsv"]),
}

# Options beyond _WRITERS' argv that the config must record as given.
_MORE_OPTIONS = {
    "ingest": ["--exclude-subset", "web", "--exclude-subset", "news"],
    "reduce": ["--factor", 0.25],
    "sample": ["--temperature", 2.5],
    "lexicon": ["--format", "muse", "--topk", 3],
    "augment": ["--format", "muse", "--prob", 0.25, "--topk", 3, "--mode", "pair-target"],
}

# The commands that read a corpus TSV given as --in.
_CORPUS_READERS = [c for c, (argv, _, _) in _WRITERS.items() if argv[:2] == ["--in", "CORPUS"]]


@pytest.fixture
def writer_inputs(tmp_path, hin_lex):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "".join(f"eng_Latn\thin_Deva\tthe dog saw a cat {i}\tकुत्ता {i}\tWiki\n"
                for i in range(6)),
        encoding="utf-8",
    )
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a fairly long reference sentence here\n", encoding="utf-8")
    rows = tmp_path / "rows.tsv"
    rows.write_text("hin_Deva-eng_Latn\t10.0000\t20.0000\t30.0000\n", encoding="utf-8")
    names = {"CORPUS": corpus, "LEX": hin_lex, "hin_Deva=LEX": f"hin_Deva={hin_lex}",
             "HYP": hyp, "ROWS": rows}
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def argv(command: str) -> list:
        args = [names.get(a, a) for a in _WRITERS[command][0]]
        return [command, *args, "--out", out_dir / "o.tsv", "--seed", 1]

    return argv, out_dir


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class TestRunner:
    @pytest.mark.parametrize("command", list(_WRITERS))
    def test_run_json_keys_per_command(self, writer_inputs, command):
        argv, out_dir = writer_inputs
        assert run_cli(*argv(command)) == 0
        doc = json.loads((out_dir / "o.tsv.run.json").read_text(encoding="utf-8"))
        assert list(doc) == [
            "command", "config", "seed", "inputs", "outputs", "wall_time_s", "version"
        ]
        assert doc["command"] == command
        assert list(doc["config"]) == _WRITERS[command][1]
        assert [Path(p).name for p in doc["outputs"]] == _WRITERS[command][2]
        if command == "augment":
            assert list(doc["config"]["stats"]) == [
                "pairs_seen", "pairs_augmented", "pairs_without_lexicon",
                "tokens_matched", "tokens_replaced",
            ]
        if command == "mixture":  # the corpus mixed with itself; no <aug>.run.json
            assert doc["config"]["stats"] == {
                "original_pairs": 6, "reversed_pairs": 6, "augmented_pairs": 6, "total_pairs": 18
            }
            assert doc["config"]["policy"] is None
        if command in ("score", "report"):
            from bitextpipe.metrics import BLEU_SIGNATURE, CHRF, CHRF_PP

            assert doc["config"]["signatures"] == {
                "bleu": BLEU_SIGNATURE, "chrf": CHRF.signature, "chrfpp": CHRF_PP.signature
            }
            assert "bleu|o:4" in doc["config"]["signatures"]["bleu"]
            assert "nw:2" in doc["config"]["signatures"]["chrfpp"]

    @pytest.mark.parametrize("command", list(_WRITERS))
    def test_config_records_every_option_given(self, writer_inputs, command):
        argv, out_dir = writer_inputs
        given = [*argv(command), *_MORE_OPTIONS.get(command, ())]
        if "threads" in _WRITERS[command][1]:
            given += ["--threads", 2]
        assert run_cli(*given) == 0
        doc = json.loads((out_dir / "o.tsv.run.json").read_text(encoding="utf-8"))
        config = doc["config"]
        for flag, value in zip(given[1::2], given[2::2]):  # the (flag, value) pairs
            if flag in ("--out", "--seed"):
                continue
            recorded = config[flag[2:].replace("-", "_")]
            if isinstance(recorded, list):  # a repeatable flag
                assert str(value) in recorded, flag
            else:
                assert str(recorded) == str(value), flag
        assert doc["seed"] == 1 and "seed" not in config  # the seed is top level
        assert "out" not in config

    @pytest.mark.parametrize("command", list(_WRITERS))
    def test_failed_run_json_write_leaves_no_output(self, writer_inputs, capsys, command):
        argv, out_dir = writer_inputs
        blocker = out_dir / "o.tsv.run.json"
        blocker.mkdir()
        assert run_cli(*argv(command)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(blocker) in captured.err
        assert [p.name for p in out_dir.iterdir()] == [blocker.name]

    def test_symlinked_out_keeps_its_link(self, writer_inputs, tmp_path):
        argv, out_dir = writer_inputs
        target = tmp_path / "target.tsv"
        (out_dir / "o.tsv").symlink_to(target)
        assert run_cli(*argv("sample"), "--plot-out", tmp_path / "nodir" / "p.tsv") == 1
        assert (out_dir / "o.tsv").is_symlink()
        assert not target.exists()
        assert [p.name for p in out_dir.iterdir()] == ["o.tsv"]

    def test_fifo_out_is_not_unlinked(self, writer_inputs, tmp_path):
        import threading

        argv, out_dir = writer_inputs
        fifo = out_dir / "o.tsv"
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        (out_dir / "o.tsv.run.json").mkdir()  # the run fails after writing the pipe
        try:
            assert run_cli(*argv("mixture")) == 1
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert len(received[0].splitlines()) == 18  # 6 orig + 6 rev + 6 aug
        assert fifo.exists() and not fifo.is_file()

    def test_fifo_out_is_written_and_recorded_without_a_digest(self, writer_inputs):
        import subprocess
        import sys
        import threading

        argv, out_dir = writer_inputs
        fifo = out_dir / "o.tsv"
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            # run.json hashes its outputs: reading a pipe back would block for good
            proc = subprocess.run(
                [sys.executable, "-m", "bitextpipe", *map(str, argv("train-config"))],
                capture_output=True, text=True, timeout=60,
            )
        finally:
            reader.join(timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(received[0])["phase"] == "pretrain"
        doc = json.loads((out_dir / "o.tsv.run.json").read_text(encoding="utf-8"))
        assert doc["outputs"] == {str(fifo): None}

    @pytest.mark.parametrize("command", _CORPUS_READERS)
    def test_bad_input_leaves_an_earlier_output(self, writer_inputs, tmp_path, command):
        argv, out_dir = writer_inputs
        assert run_cli(*argv(command)) == 0
        before = _snapshot(out_dir)
        with open(tmp_path / "corpus.tsv", "a", encoding="utf-8") as handle:
            handle.write("eng_Latn\txyz_Deva\tb\tख\tWiki\n")
        assert run_cli(*argv(command)) == 1
        assert _snapshot(out_dir) == before


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestDigests:
    """run.json digests are of the bytes a run read and wrote, hashed as they went by."""

    @pytest.fixture
    def ranges(self, monkeypatch):
        """Small inputs spread over range workers at two threads, as in TestRangeWorkers."""
        monkeypatch.setattr(corpus_mod, "RANGE_BYTES", TestRangeWorkers.RANGE)
        monkeypatch.setattr(corpus_mod, "SPREAD_BYTES", 0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("command", list(_WRITERS))
    def test_every_digest_is_of_the_file(self, writer_inputs, ranges, command, threads):
        argv, out_dir = writer_inputs
        assert run_cli(*argv(command), "--threads", threads) == 0
        doc = json.loads((out_dir / "o.tsv.run.json").read_text(encoding="utf-8"))
        if command == "mixture":  # --aug has no run.json beside it: declared, digest null
            aug_manifest = out_dir.parent / "corpus.tsv.run.json"
            assert not aug_manifest.exists() and doc["inputs"].pop(str(aug_manifest)) is None
        recorded = [*doc["inputs"].items(), *doc["outputs"].items()]
        assert doc["outputs"] and recorded == [(path, _sha256(path)) for path, _ in recorded]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_fifo_input_gets_no_digest(self, tmp_path, ranges, threads):
        fifo, out = tmp_path / "fifo", tmp_path / "o.tsv"
        with feed_fifo(fifo, fifo_bytes()):
            assert run_cli("ingest", "--in", fifo, "--out", out, "--threads", threads) == 0
        doc = json.loads(Path(f"{out}.run.json").read_text(encoding="utf-8"))
        assert doc["inputs"] == {str(fifo): None}
        assert doc["outputs"][str(out)] == _sha256(out)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_out_replacing_in_records_the_bytes_read_and_written(self, tmp_path, ranges,
                                                                  threads):
        corpus = tmp_path / "c.tsv"
        rows = _rows(12)
        rows[3] = rows[3].replace(b"the dog", b"the  dog")  # ingest cleans this row
        corpus.write_bytes(b"".join(rows))
        before = _sha256(corpus)
        assert run_cli("ingest", "--in", corpus, "--out", corpus, "--threads", threads) == 0
        after = _sha256(corpus)
        assert after != before
        doc = json.loads(Path(f"{corpus}.run.json").read_text(encoding="utf-8"))
        assert doc["inputs"] == {str(corpus): before}
        assert doc["outputs"][str(corpus)] == after

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("command", ["reduce", "sample", "seed-select"])
    def test_an_input_changed_between_two_reads_fails(self, tmp_path, capsys, ranges,
                                                      monkeypatch, hin_lex, command, threads):
        # Between the count and draw passes of reduce, sample and seed-select,
        # one row's text changes in place: the row counts, the lines and the
        # file size stay, and only the digests tell the reads apart.
        files = {"LEX": f"hin_Deva={hin_lex}", "GOOD": tmp_path / "good.tsv"}
        files["GOOD"].write_bytes(b"".join(_rows(12)))
        corpus = files["CORPUS"] = tmp_path / "c.tsv"
        corpus.write_bytes(b"".join(_rows(12)))
        changed = corpus.read_bytes().replace(b"cat 005", b"cow 005")
        real, whole_reads = errors.iter_blocks, []

        def iter_blocks(path, size, error, span=None):
            if span is None and Path(path) == corpus:
                whole_reads.append(path)
                if len(whole_reads) == 2:
                    corpus.write_bytes(changed)
            return real(path, size, error, span)

        monkeypatch.setattr(errors, "iter_blocks", iter_blocks)
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        assert run_cli(*_argv(command, files, out, threads)) == 1
        assert len(whole_reads) == 2
        assert capsys.readouterr() == ("", f"error: {corpus}: changed while read\n")
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mixture_reads_its_in_once(self, tmp_path, ranges, monkeypatch, threads):
        # One whole read of --in: at one thread the read that writes the
        # rows, at two the one range scan, whose ranges the workers read.
        files = {"GOOD": tmp_path / "good.tsv"}
        files["GOOD"].write_bytes(b"".join(_rows(12)))
        corpus = files["CORPUS"] = tmp_path / "c.tsv"
        corpus.write_bytes(b"".join(_rows(12)))
        reads = {"whole": 0, "scan": 0}
        real_blocks, real_ranges = errors.iter_blocks, corpus_mod.file_ranges

        def iter_blocks(path, size, error, span=None):
            reads["whole"] += span is None and Path(path) == corpus
            return real_blocks(path, size, error, span)

        def file_ranges(path):
            reads["scan"] += Path(path) == corpus
            return real_ranges(path)

        monkeypatch.setattr(errors, "iter_blocks", iter_blocks)
        monkeypatch.setattr(corpus_mod, "file_ranges", file_ranges)
        assert run_cli(*_argv("mixture", files, tmp_path / "o.tsv", threads)) == 0
        assert reads == {"whole": 1, "scan": threads - 1}

    # At one thread every command on the worker map reads its input whole,
    # once per pass: a range scan there would read it once more.
    @pytest.mark.parametrize("command, passes", [
        ("ingest", 1), ("stats", 1), ("augment", 1), ("reduce", 2), ("sample", 2),
        ("seed-select", 2),
    ])
    def test_one_process_reads_its_input_once_a_pass_and_no_output(
        self, writer_inputs, monkeypatch, tmp_path, command, passes
    ):
        from bitextpipe import manifest

        read: dict[str, int] = {}

        class Counted:
            def __init__(self, path, mode):
                self.path, self.handle = os.path.realpath(path), open(path, mode)

            def read(self, size=-1):
                data = self.handle.read(size)
                read[self.path] = read.get(self.path, 0) + len(data)
                return data

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        # The line reader and the digest fallback: every read of a declared file.
        monkeypatch.setattr(errors, "open", Counted, raising=False)
        monkeypatch.setattr(manifest, "open", Counted, raising=False)
        argv, out_dir = writer_inputs
        assert run_cli(*argv(command), "--threads", 1) == 0
        corpus = Path(os.path.realpath(tmp_path / "corpus.tsv"))
        inputs = [corpus, corpus.with_name("muse_hin.txt")] if command == "augment" else [corpus]
        mine = {path: n for path, n in read.items() if Path(path).is_relative_to(corpus.parent)}
        expected = {str(p): p.stat().st_size for p in inputs}
        expected[str(corpus)] *= passes
        assert mine == expected  # and not a byte of out/


def _bitextpipe(*argv, **popen) -> subprocess.Popen:
    """``python -m bitextpipe`` with ``argv`` in a child process."""
    env = dict(os.environ, PYTHONPATH=str(Path(corpus_mod.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-m", "bitextpipe", *map(str, argv)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen)


class TestPipesAndSignals:
    """A pipe read twice, or a SIGTERM, ends a run without a hang or a temp file."""

    # mixture reads its --in once, and twice only as its --aug too.
    @pytest.mark.parametrize("command", ["reduce", "sample", "seed-select", "mixture"])
    def test_a_fifo_in_read_twice_is_rejected(self, tmp_path, command):
        corpus, fifo = tmp_path / "c.tsv", tmp_path / "in.fifo"
        corpus.write_bytes(b"".join(_rows(12)))
        os.mkfifo(fifo)
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        argv = [command, "--in", fifo, "--out", out, "--threads", 1]
        argv += ["--aug", fifo] if command == "mixture" else []
        writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', corpus, fifo])
        child = _bitextpipe(*argv)
        try:
            # A second open of the pipe, its writer gone, would wait for good.
            stdout, stderr = child.communicate(timeout=30)
        finally:
            for process in (child, writer):
                process.kill()
                process.wait()
        assert (child.returncode, stdout) == (1, "")
        assert stderr == f"error: {fifo}: not a regular file, and this command reads it twice\n"
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mixture_reads_a_fifo_in(self, tmp_path, threads):
        corpus, fifo, aug = tmp_path / "c.tsv", tmp_path / "in.fifo", tmp_path / "aug.tsv"
        corpus.write_bytes(b"".join(_rows(12)))
        aug.write_bytes(b"".join(_rows(3)))
        os.mkfifo(fifo)
        argv = ["mixture", "--aug", aug, "--threads", threads, "--seed", 1]
        writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', corpus, fifo])
        child = _bitextpipe(*argv, "--in", fifo, "--out", tmp_path / "fifo.tsv")
        try:
            _, stderr = child.communicate(timeout=30)
        finally:
            for process in (child, writer):
                process.kill()
                process.wait()
        assert (child.returncode, stderr) == (0, ""), stderr
        assert run_cli(*argv, "--in", corpus, "--out", tmp_path / "file.tsv") == 0
        assert (tmp_path / "fifo.tsv").read_bytes() == (tmp_path / "file.tsv").read_bytes()
        doc = json.loads((tmp_path / "fifo.tsv.run.json").read_text(encoding="utf-8"))
        assert doc["inputs"][str(fifo)] is None

    @pytest.mark.parametrize("command", ["reduce", "sample", "seed-select", "mixture"])
    def test_a_missing_in_is_one_read_error(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.tsv"
        argv = [command, "--in", missing, "--out", tmp_path / "o.tsv"]
        argv += ["--aug", missing] if command == "mixture" else []
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
        assert list(tmp_path.iterdir()) == []

    def test_sigterm_mid_stream_removes_every_temp_file(self, tmp_path):
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        child = _bitextpipe("ingest", "--in", fifo, "--out", out, "--threads", 1)
        try:
            with open(fifo, "wb") as writer:  # opens once the child reads
                writer.write(b"".join(_rows(100)))
                writer.flush()
                assert sorted(p.suffix for p in out.parent.iterdir()) == [".tmp", ".tmp"]
                child.send_signal(signal.SIGTERM)  # the pipe is still open: mid-stream
                stdout, stderr = child.communicate(timeout=30)
        finally:
            child.kill()
            child.wait()
        assert (child.returncode, stdout, stderr) == (143, "", "")
        assert list(out.parent.iterdir()) == []

    def test_an_in_process_call_keeps_the_callers_sigterm_handler(self, writer_inputs):
        def handler(signum, frame):
            pass

        argv, _ = writer_inputs
        previous = signal.signal(signal.SIGTERM, handler)
        try:
            assert run_cli(*argv("ingest")) == 0
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)
