import json
import os
from pathlib import Path

import pytest

from bitextpipe.cli import main

from conftest import FIXTURES


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
    ])
    def test_unknown_tag_error_names_file_and_line(self, tmp_path, capsys, command, extra):
        corpus = tmp_path / "bad.tsv"
        out = tmp_path / "out" / "o.tsv"
        out.parent.mkdir()
        extra = [corpus if arg is None else arg for arg in extra]
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
        assert origins.count("orig") == 50
        assert origins.count("rev") == 50
        assert origins.count("aug") == 50
        reversed_row = lines[50].split("\t")
        assert reversed_row[0] == "hin_Deva" and reversed_row[1] == "eng_Latn"
        doc = json.loads((tmp_path / "mix.tsv.mixture.json").read_text())
        assert doc["total_pairs"] == 150
        assert doc["total_pairs"] == 2 * doc["original_pairs"] + doc["augmented_pairs"]
        # the augment run manifest sits next to aug.tsv, so the mixture
        # manifest recovers the policy snapshot from it
        assert doc["policy"] == {
            "probability": 1.0,
            "top_k": 4000,
            "mode": "random-language",
            "seed": 5,
        }
        assert set(doc["inputs"]) == {str(corpus), str(aug)}

    def test_mixture_failed_sidecar_write_leaves_no_output(self, tmp_path, en_hi_files):
        corpus = _ingest(tmp_path, en_hi_files)
        mix = tmp_path / "mix.tsv"
        assert run_cli("mixture", "--in", corpus, "--aug", corpus, "--out", mix,
                       "--mixture-manifest", tmp_path / "nodir" / "m.json") == 1
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("mix")) == []

    def test_mixture_hashes_each_input_once(self, tmp_path, en_hi_files, hin_lex,
                                            monkeypatch):
        from bitextpipe import cli, manifest

        corpus = _ingest(tmp_path, en_hi_files)
        aug = tmp_path / "aug.tsv"
        assert run_cli("augment", "--in", corpus, "--lex", f"hin_Deva={hin_lex}",
                       "--seed", 5, "--out", aug) == 0
        hashed = []
        sha256_file = manifest.sha256_file

        def counting(path):
            hashed.append(str(path))
            return sha256_file(path)

        monkeypatch.setattr(manifest, "sha256_file", counting)
        monkeypatch.setattr(cli, "sha256_file", counting)
        mix = tmp_path / "mix.tsv"
        assert run_cli("mixture", "--in", corpus, "--aug", aug, "--out", mix) == 0
        assert sorted(hashed) == sorted(
            [str(corpus), str(aug), str(mix), f"{mix}.mixture.json"]
        )
        doc = json.loads((tmp_path / "mix.tsv.mixture.json").read_text())
        run_doc = json.loads((tmp_path / "mix.tsv.run.json").read_text())
        assert doc["inputs"] == run_doc["inputs"]
        assert doc["inputs"][str(aug)] == sha256_file(aug)

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
        assert json.loads((tmp_path / "mix.tsv.mixture.json").read_text())["policy"] is None

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
        from bitextpipe import cli

        corpus = tmp_path / "in.tsv"
        corpus.write_text("\n".join(self.ROWS) + "\n", encoding="utf-8")
        expected, expected_stats = self._augment(corpus, hin_lex, tmp_path / "ref.tsv", 1)
        assert expected_stats["pairs_augmented"] > 10

        corpus.write_bytes((ending.join(self.ROWS) + last).encode("utf-8"))
        monkeypatch.setattr(cli, "_AUGMENT_BLOCK", 48)
        got, stats = self._augment(corpus, hin_lex, tmp_path / "aug.tsv", threads)
        assert got == expected
        assert stats == expected_stats

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_invalid_utf8_in_a_later_unit_names_its_line(
        self, tmp_path, hin_lex, monkeypatch, capsys, threads
    ):
        from bitextpipe import cli
        from bitextpipe.corpus import iter_lines
        from bitextpipe.errors import CorpusError

        corpus = tmp_path / "in.tsv"
        rows = [row.encode("utf-8") + b"\n" for row in self.ROWS]
        rows[31] = rows[31].replace(b"\tgeneral", b"\xe0\xa4\tgeneral")
        corpus.write_bytes(b"".join(rows))
        with pytest.raises(CorpusError) as expected:
            list(iter_lines(corpus))
        assert "line 32" in str(expected.value)

        monkeypatch.setattr(cli, "_AUGMENT_BLOCK", 48)
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


class TestRowRules:
    @pytest.mark.parametrize("command", [
        "stats", "reduce", "sample", "seed-select", "augment", "mixture",
    ])
    @pytest.mark.parametrize("row", [
        "hin_Deva\thin_Deva\tक\tख\tWiki",
        "eng_Latn\thin_Deva\t \tख\tWiki",
        "eng_Latn\thin_Deva\ta\t\tWiki",
        "eng_Latn\thin_Deva\ta\t\u3000\u2028\tWiki",
    ])
    def test_rows_the_library_rejects_fail_with_its_message(
        self, tmp_path, capsys, hin_lex, command, row
    ):
        from bitextpipe.corpus import read_tsv
        from bitextpipe.errors import CorpusError

        corpus = tmp_path / "bad.tsv"
        corpus.write_text(f"eng_Latn\thin_Deva\ta\tक\tWiki\n{row}\n", encoding="utf-8")
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

    @pytest.mark.parametrize("command", ["reduce", "score"])
    def test_out_in_missing_directory_is_one_error_line(self, tmp_path, en_hi_files, capsys,
                                                         command):
        corpus = _ingest(tmp_path, en_hi_files)
        out = tmp_path / "nodir" / "x.tsv"
        argv = {
            "reduce": ["reduce", "--in", corpus],
            "score": ["score", "--hyp", en_hi_files[1], "--ref", en_hi_files[1],
                      "--pair", "hin_Deva-eng_Latn"],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(out) in err
        assert not (tmp_path / "nodir").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("frobnicate")
        assert excinfo.value.code == 2
