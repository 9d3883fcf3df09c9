import statistics
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_metrics as oracle
from bitextpipe import metrics
from bitextpipe.errors import MetricError, TagError
from bitextpipe.evalharness import (
    ScoreReport,
    ScoreRow,
    read_lines,
    read_rows_tsv,
    render_text,
    report,
    score_run,
    write_report_tsv,
    write_rows_tsv,
)
from bitextpipe.lang import parse_pair, parse_tag

from conftest import FIXTURES
from test_metrics import FIRST20


def _row(pair="hin_Deva-eng_Latn", b=40.0, c=50.0, cpp=48.0):
    src, tgt = parse_pair(pair)
    return ScoreRow(src, tgt, b, c, cpp)


class TestScoreRun:
    def test_identical_files_score_100(self, tmp_path):
        text = "the first line is long enough\nदूसरी पंक्ति भी काफ़ी लंबी है।\n"
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text(text, encoding="utf-8")
        ref.write_text(text, encoding="utf-8")
        row = score_run(hyp, ref, parse_pair("hin_Deva-eng_Latn"))
        assert row.bleu == pytest.approx(100.0, abs=1e-9)
        assert row.chrf == pytest.approx(100.0, abs=1e-9)
        assert row.chrf_pp == pytest.approx(100.0, abs=1e-9)

    def test_row_has_three_metric_columns_for_pair(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b c\n", encoding="utf-8")
        ref.write_text("a b d\n", encoding="utf-8")
        row = score_run(hyp, ref, parse_pair("asm_Beng-eng_Latn"))
        assert row.pair == "asm_Beng-eng_Latn"
        for value in (row.bleu, row.chrf, row.chrf_pp):
            assert 0.0 <= value <= 100.0

    def test_twenty_line_fixture_matches_recorded_oracle(self, tmp_path):
        hyps = (FIXTURES / "parity_hyp.txt").read_text(encoding="utf-8").splitlines()[:20]
        refs = (FIXTURES / "parity_ref.txt").read_text(encoding="utf-8").splitlines()[:20]
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("\n".join(hyps) + "\n", encoding="utf-8")
        ref.write_text("\n".join(refs) + "\n", encoding="utf-8")
        row = score_run(hyp, ref, parse_pair("hin_Deva-eng_Latn"))
        assert row.bleu == pytest.approx(FIRST20["bleu"], abs=1e-9)
        assert row.chrf == pytest.approx(FIRST20["chrf"], abs=1e-9)
        assert row.chrf_pp == pytest.approx(FIRST20["chrfpp"], abs=1e-9)

    def test_line_count_mismatch(self, tmp_path):
        (tmp_path / "h.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("a\n", encoding="utf-8")
        with pytest.raises(MetricError, match="lines"):
            score_run(tmp_path / "h.txt", tmp_path / "r.txt", parse_pair("hin_Deva-eng_Latn"))

    def test_empty_files(self, tmp_path):
        (tmp_path / "h.txt").write_text("", encoding="utf-8")
        (tmp_path / "r.txt").write_text("", encoding="utf-8")
        with pytest.raises(MetricError, match="empty"):
            score_run(tmp_path / "h.txt", tmp_path / "r.txt", parse_pair("hin_Deva-eng_Latn"))

    def test_registry_invalid_pair_rejected(self):
        with pytest.raises(TagError):
            parse_pair("hin_Deva-qqq_Qqqq")

    # Recorded at full precision from the two-pass scorer (chrF and chrF++
    # each extracting their own n-grams) before chrF was derived from the
    # chrF++ statistics; the score row files print these to 4 decimals.
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("deva", (45.07373838911417, 64.38039230569935, 63.643482866115185)),
            ("parity", (44.0594316750937, 64.56223442591184, 64.67806332152017)),
        ],
    )
    def test_full_fixture_values_are_pinned(self, name, expected):
        row = score_run(
            FIXTURES / f"{name}_hyp.txt", FIXTURES / f"{name}_ref.txt",
            parse_pair("eng_Latn-hin_Deva"),
        )
        assert (row.bleu, row.chrf, row.chrf_pp) == expected

    def test_one_chrf_pass_per_segment(self, monkeypatch):
        calls = []
        original = metrics.chrf_segment_stats

        def counting(hyp, ref, cfg):
            calls.append(cfg)
            return original(hyp, ref, cfg)

        monkeypatch.setattr(metrics, "chrf_segment_stats", counting)
        score_run(FIXTURES / "parity_hyp.txt", FIXTURES / "parity_ref.txt",
                  parse_pair("hin_Deva-eng_Latn"))
        assert len(calls) == len(read_lines(FIXTURES / "parity_hyp.txt")) == 50

    def test_lone_carriage_return_stays_inside_its_segment(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_bytes(b"a b\rc d\r\nx y\n")
        ref.write_bytes(b"a b c d\nx y\n")
        assert read_lines(hyp) == ["a b\rc d", "x y"]
        row = score_run(hyp, ref, parse_pair("hin_Deva-eng_Latn"))
        # inside a segment \r is whitespace, like the space in the reference
        assert (row.bleu, row.chrf, row.chrf_pp) == (100.0, 100.0, 100.0)

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_bytes(b"fine\nalso fine\nbad \xff byte\n")
        with pytest.raises(MetricError, match=r"h\.txt: invalid UTF-8 at line 3"):
            read_lines(path)


# Characters that stress segmentation: whitespace runs, edge punctuation,
# Devanagari with combining marks (virama, vowel signs, nukta, anusvara)
# and Perso-Arabic letters and punctuation.
SEGMENT_CHARS = (
    " \t" + "ab.,!?()'\"-"
    + "कखषि्ाीं़।"
    + "بیانکه،؟"
)
segments = st.text(alphabet=SEGMENT_CHARS, max_size=24)


def _naive_bleu_counts(hyps, refs, max_order=4):
    correct = [0] * max_order
    total = [0] * max_order
    for hyp, ref in zip(hyps, refs):
        hyp_tokens = oracle.tok13a(hyp)
        ref_tokens = oracle.tok13a(ref)
        for n in range(1, max_order + 1):
            hyp_list = oracle._ngram_list(hyp_tokens, n)
            clipped = Counter(hyp_list) & Counter(oracle._ngram_list(ref_tokens, n))
            correct[n - 1] += sum(clipped.values())
            total[n - 1] += len(hyp_list)
    return correct, total


class TestOnePassScoring:
    @settings(max_examples=80, deadline=None)
    @given(pairs=st.lists(st.tuples(segments, segments), min_size=1, max_size=6))
    def test_one_pass_equals_two_passes(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        with tempfile.TemporaryDirectory() as tmp:
            hyp = Path(tmp) / "h.txt"
            ref = Path(tmp) / "r.txt"
            hyp.write_text("".join(h + "\n" for h in hyps), encoding="utf-8")
            ref.write_text("".join(r + "\n" for r in refs), encoding="utf-8")
            row = score_run(hyp, ref, parse_pair("hin_Deva-eng_Latn"))
        assert row.chrf == metrics.chrf(hyps, refs, metrics.CHRF).value
        assert row.chrf_pp == metrics.chrf(hyps, refs, metrics.CHRF_PP).value
        assert row.bleu == metrics.bleu(hyps, refs).value

        stats = metrics.sum_stats(metrics.bleu_segment_stats, hyps, refs)
        assert (stats.correct, stats.total) == _naive_bleu_counts(hyps, refs)


class TestReport:
    def test_single_row_average_is_the_row(self):
        rep = report([_row(b=41.25, c=52.5, cpp=50.125)])
        assert rep.averages == (41.25, 52.5, 50.12)

    def test_two_row_average(self):
        rep = report([_row(b=40.0), _row("asm_Beng-eng_Latn", b=50.0)])
        assert rep.averages[0] == 45.00

    def test_synthetic_22_row_mean_matches_independent_recomputation(self):
        rows = [
            _row("hin_Deva-eng_Latn", b=10.0 + i, c=30.0 + i / 2, cpp=29.0 + i / 3)
            for i in range(22)
        ]
        rep = report(rows)
        assert rep.averages[0] == pytest.approx(
            round(statistics.mean(r.bleu for r in rows), 2)
        )
        assert rep.averages[1] == pytest.approx(
            round(statistics.mean(r.chrf for r in rows), 2)
        )
        assert rep.averages[2] == pytest.approx(
            round(statistics.mean(r.chrf_pp for r in rows), 2)
        )

    def test_render_is_stable_and_formatted(self):
        rep = report([_row(b=19.94, c=50.44, cpp=47.81)])
        text = render_text(rep)
        assert text == render_text(rep)
        lines = text.splitlines()
        assert lines[0].split() == ["Language", "pair", "BLEU", "chrF", "chrF++"]
        assert "19.9" in lines[1] and "50.4" in lines[1] and "47.8" in lines[1]
        assert lines[-1].startswith("Avg.")
        assert "19.94" in lines[-1]

    def test_metadata_signatures_present(self):
        rep = report([_row()])
        assert "bleu|o:4" in rep.metadata["bleu_signature"]
        assert "nw:2" in rep.metadata["chrfpp_signature"]

    def test_empty_report_rejected(self):
        with pytest.raises(MetricError):
            ScoreReport((), {})


class TestTsvRoundTrip:
    def test_rows_round_trip_at_4dp(self, tmp_path):
        rows = [_row(b=12.34567, c=45.67891, cpp=44.4), _row("asm_Beng-eng_Latn")]
        path = tmp_path / "rows.tsv"
        write_rows_tsv(rows, path)
        back = read_rows_tsv(path)
        assert len(back) == 2
        assert back[0].bleu == pytest.approx(rows[0].bleu, abs=5e-5)
        assert back[0].pair == rows[0].pair

    def test_report_tsv_has_average_row(self, tmp_path):
        rep = report([_row(b=40.0), _row(b=50.0)])
        path = tmp_path / "report.tsv"
        write_report_tsv(rep, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "pair\tbleu\tchrf\tchrfpp"
        assert lines[-1].startswith("Avg.\t45.00\t")

    def test_read_rows_skips_header_and_average(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text(
            "pair\tbleu\tchrf\tchrfpp\n"
            "hin_Deva-eng_Latn\t40.0\t50.0\t48.0\n"
            "Avg.\t40.00\t50.00\t48.00\n",
            encoding="utf-8",
        )
        rows = read_rows_tsv(path)
        assert len(rows) == 1

    def test_read_rows_errors(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("pair\tbleu\tchrf\tchrfpp\n", encoding="utf-8")
        with pytest.raises(MetricError, match="no score rows"):
            read_rows_tsv(path)
        path.write_text("hin_Deva-eng_Latn\tnot_a_number\t1\t2\n", encoding="utf-8")
        with pytest.raises(MetricError, match="bad score"):
            read_rows_tsv(path)
