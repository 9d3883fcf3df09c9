import math
import os

import pytest

from bitextpipe.corpus import (
    CorpusStats,
    ParallelCorpus,
    SentencePair,
    accounting_language,
    clean_text,
    decode_block,
    ingest,
    iter_blocks,
    iter_lines,
    iter_tsv_rows,
    read_tsv,
    reduce_highresource,
    reverse,
    stats,
    stats_from_counts,
    write_skip_report,
    write_tsv,
    write_tsv_rows,
)
from bitextpipe.errors import CorpusError
from bitextpipe.lang import parse_tag

from conftest import ASM, BRX, ENG, HIN, REFERENCE_COUNTS, mk_corpus, mk_pair


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSentencePair:
    def test_same_language_rejected(self):
        with pytest.raises(CorpusError):
            SentencePair("a", "b", ENG, ENG)

    def test_empty_sides_rejected(self):
        with pytest.raises(CorpusError):
            SentencePair("  ", "b", ENG, HIN)
        with pytest.raises(CorpusError):
            SentencePair("a", "", ENG, HIN)

    def test_tabs_and_newlines_rejected(self):
        with pytest.raises(CorpusError):
            SentencePair("a\tb", "c", ENG, HIN)
        with pytest.raises(CorpusError):
            SentencePair("a", "c\nd", ENG, HIN)

    def test_clean_text_normalizes_whitespace(self):
        assert clean_text("  a \t b c  ") == "a b c"


class TestIngest:
    def test_aligned_files(self, tmp_path):
        _write(tmp_path / "src.txt", ["one", "two", "three"])
        _write(tmp_path / "tgt.txt", ["एक", "दो", "तीन"])
        corpus, report = ingest(tmp_path / "src.txt", tmp_path / "tgt.txt", ENG, HIN)
        assert len(corpus) == 3
        assert report.kept == 3
        assert report.skipped == ()
        assert corpus[0].source == "one"
        assert corpus[0].target == "एक"
        assert corpus[0].subset == "general"

    def test_line_count_mismatch(self, tmp_path):
        _write(tmp_path / "src.txt", ["one", "two", "three"])
        _write(tmp_path / "tgt.txt", ["एक", "दो"])
        with pytest.raises(CorpusError, match="mismatch"):
            ingest(tmp_path / "src.txt", tmp_path / "tgt.txt", ENG, HIN)

    def test_blank_line_dropped_and_reported(self, tmp_path):
        _write(tmp_path / "src.txt", ["one", "two", "three", "four", "five"])
        _write(tmp_path / "tgt.txt", ["एक", "दो", "   ", "चार", "पाँच"])
        corpus, report = ingest(tmp_path / "src.txt", tmp_path / "tgt.txt", ENG, HIN)
        assert len(corpus) == 4
        assert report.skipped == ((3, "empty target"),)
        sidecar = tmp_path / "skips.txt"
        write_skip_report(report, sidecar)
        assert sidecar.read_text(encoding="utf-8") == "3\tempty target\n"

    def test_invalid_utf8_reports_line(self, tmp_path):
        (tmp_path / "src.txt").write_bytes(b"good line\n\xff\xfe broken\n")
        _write(tmp_path / "tgt.txt", ["एक", "दो"])
        with pytest.raises(CorpusError, match="line 2"):
            ingest(tmp_path / "src.txt", tmp_path / "tgt.txt", ENG, HIN)

    def test_missing_file(self, tmp_path):
        _write(tmp_path / "src.txt", ["one"])
        with pytest.raises(CorpusError, match="cannot read"):
            ingest(tmp_path / "src.txt", tmp_path / "nope.txt", ENG, HIN)

    def test_equal_languages_rejected_even_when_every_line_is_skipped(self, tmp_path):
        _write(tmp_path / "src.txt", ["one", " "])
        _write(tmp_path / "tgt.txt", ["", "दो"])
        with pytest.raises(CorpusError, match="language are equal"):
            ingest(tmp_path / "src.txt", tmp_path / "tgt.txt", HIN, HIN)


class TestStats:
    def test_empty_corpus(self):
        value = stats(ParallelCorpus(()))
        assert value.counts == {}
        assert value.total == 0

    def test_synthetic_counts(self):
        pairs = [mk_pair(f"s{i}", f"t{i}", tgt="hin_Deva") for i in range(7)]
        pairs += [mk_pair(f"s{i}", f"t{i}", tgt="brx_Deva") for i in range(3)]
        value = stats(ParallelCorpus(tuple(pairs)))
        assert value.counts == {HIN: 7, BRX: 3}
        assert value.total == 10

    def test_counts_keyed_by_non_english_side(self):
        pairs = (
            mk_pair("hello", "नमस्ते", src="eng_Latn", tgt="hin_Deva"),
            mk_pair("नमस्ते", "hello", src="hin_Deva", tgt="eng_Latn"),
        )
        value = stats(ParallelCorpus(pairs))
        assert value.counts == {HIN: 2}

    @pytest.mark.parametrize("src, tgt, expected", [
        (ENG, HIN, HIN), (HIN, ENG, HIN), (HIN, ASM, ASM), (ENG, ENG, ENG),
    ])
    def test_accounting_rule_same_for_tags_and_rendered_tags(self, src, tgt, expected):
        assert accounting_language(src, tgt) == expected
        assert accounting_language(str(src), str(tgt)) == str(expected)

    def test_counted_manifest_echoes_back(self):
        counts = {parse_tag(t): n for t, n in REFERENCE_COUNTS.items()}
        value = stats_from_counts(counts)
        assert value.counts[parse_tag("hin_Deva")] == 19_240_000
        assert value.counts[parse_tag("snd_Deva")] == 10_000
        assert value.total == sum(REFERENCE_COUNTS.values())

    def test_grand_total_is_sum(self):
        value = CorpusStats({HIN: 5, BRX: 2})
        assert value.total == 7

    def test_negative_count_rejected(self):
        with pytest.raises(CorpusError):
            stats_from_counts({HIN: -1})


class TestReduce:
    def test_over_threshold_halved(self):
        corpus = mk_corpus(20)
        reduced = reduce_highresource(corpus, threshold=10, factor=0.5, seed=7)
        assert len(reduced) == 10

    def test_at_threshold_untouched(self):
        corpus = mk_corpus(10)
        reduced = reduce_highresource(corpus, threshold=10, factor=0.5, seed=7)
        assert reduced.pairs == corpus.pairs

    def test_factor_one_identity(self):
        corpus = mk_corpus(20)
        reduced = reduce_highresource(corpus, threshold=10, factor=1.0, seed=7)
        assert reduced.pairs == corpus.pairs

    def test_ceil_on_odd_counts(self):
        corpus = mk_corpus(15)
        reduced = reduce_highresource(corpus, threshold=10, factor=0.5, seed=7)
        assert len(reduced) == math.ceil(7.5)

    def test_survivors_keep_original_order(self):
        corpus = mk_corpus(50)
        reduced = reduce_highresource(corpus, threshold=10, factor=0.5, seed=3)
        positions = [corpus.pairs.index(p) for p in reduced]
        assert positions == sorted(positions)

    def test_deterministic_and_seed_sensitive(self):
        corpus = mk_corpus(40)
        a = reduce_highresource(corpus, threshold=10, factor=0.5, seed=5)
        b = reduce_highresource(corpus, threshold=10, factor=0.5, seed=5)
        c = reduce_highresource(corpus, threshold=10, factor=0.5, seed=6)
        assert a.pairs == b.pairs
        assert a.pairs != c.pairs

    def test_under_threshold_language_untouched_next_to_reduced(self):
        big = [mk_pair(f"s{i}", f"t{i}", tgt="hin_Deva") for i in range(30)]
        small = [mk_pair(f"u{i}", f"v{i}", tgt="brx_Deva") for i in range(5)]
        corpus = ParallelCorpus(tuple(big + small))
        reduced = reduce_highresource(corpus, threshold=10, factor=0.5, seed=1)
        kept_small = [p for p in reduced if p.tgt_lang == BRX]
        assert kept_small == small
        assert len([p for p in reduced if p.tgt_lang == HIN]) == 15

    def test_invalid_parameters(self):
        corpus = mk_corpus(3)
        with pytest.raises(CorpusError):
            reduce_highresource(corpus, factor=0.0)
        with pytest.raises(CorpusError):
            reduce_highresource(corpus, factor=1.5)
        with pytest.raises(CorpusError):
            reduce_highresource(corpus, threshold=0)


class TestReverse:
    def test_field_swap(self):
        pair = mk_pair("hello", "नमस्ते")
        swapped = reverse(ParallelCorpus((pair,)))[0]
        assert swapped.source == "नमस्ते"
        assert swapped.target == "hello"
        assert swapped.src_lang == HIN
        assert swapped.tgt_lang == ENG
        assert swapped.subset == pair.subset

    def test_involution(self):
        corpus = mk_corpus(25)
        assert reverse(reverse(corpus)).pairs == corpus.pairs

    def test_length_preserved_on_1k(self):
        corpus = mk_corpus(1000)
        assert len(reverse(corpus)) == 1000

    def test_stats_of_reverse_preserves_indic_counts(self):
        pairs = [mk_pair(f"s{i}", f"t{i}", tgt="hin_Deva") for i in range(4)]
        pairs += [mk_pair(f"s{i}", f"t{i}", tgt="asm_Beng") for i in range(6)]
        corpus = ParallelCorpus(tuple(pairs))
        before = stats(corpus).counts
        after = stats(reverse(corpus)).counts
        assert before == after == {HIN: 4, ASM: 6}


class TestTsv:
    def test_round_trip(self, tmp_path):
        corpus = mk_corpus(12, tgt="asm_Beng", subset="Wiki")
        path = tmp_path / "c.tsv"
        assert write_tsv(corpus, path) == 12
        back = read_tsv(path)
        assert back.pairs == corpus.pairs

    def test_six_column_origin_ignored_on_read(self, tmp_path):
        corpus = mk_corpus(3)
        path = tmp_path / "c.tsv"
        write_tsv(corpus, path, origins=iter(["orig", "rev", "aug"]))
        back = read_tsv(path)
        assert back.pairs == corpus.pairs

    def test_malformed_column_count(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("eng_Latn\thin_Deva\tonly four\tfields\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":1"):
            list(iter_tsv_rows(path))

    def test_bad_tag_reported(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("eng_Latn\txxx_Yyyy\ta\tb\tgeneral\n", encoding="utf-8")
        with pytest.raises(Exception, match="unknown"):
            list(iter_tsv_rows(path))


class TestAtomicWrites:
    def test_overlapping_writers_each_publish_whole_bytes(self, tmp_path):
        out = tmp_path / "out.tsv"

        def first():
            yield "A" * 10
            # a second writer runs start to finish while the first is open
            assert write_tsv_rows(["BBBB"], out) == 1
            assert out.read_bytes() == b"BBBB\n"
            yield "A" * 5

        assert write_tsv_rows(first(), out) == 2
        assert out.read_bytes() == b"AAAAAAAAAA\nAAAAA\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_tsv_rows(["x"], tmp_path / "out.tsv")
        finally:
            os.umask(old)
        assert (tmp_path / "out.tsv").stat().st_mode & 0o777 == 0o640


class TestBlocks:
    LINES = [b"short\n", b"x" * 90 + b"\n", b"ab\r\n", b"\n", "क्ष\n".encode(), b"y" * 40,
             b"z\n"]

    @pytest.mark.parametrize("size", [1, 5, 16, 41, 64, 1000])
    @pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)])
    def test_blocks_hold_whole_lines_within_the_unit(self, tmp_path, size, order):
        lines = self.LINES[order]
        path = tmp_path / "c.tsv"
        path.write_bytes(b"".join(lines))
        blocks = list(iter_blocks(path, size))
        assert b"".join(block for _, block in blocks) == path.read_bytes()
        longest = max(len(line) for line in lines)
        decoded = []
        for start, block in blocks:
            assert len(block) <= max(size, longest)
            assert start == len(decoded)
            assert block.endswith(b"\n") or block is blocks[-1][1]
            decoded += decode_block(block, path, start)
        assert decoded == list(iter_lines(path))

    def test_invalid_utf8_names_the_line_as_iter_lines_does(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"ok\n" * 7 + b"fine \xe0\xa4 cut\r\n" + b"ok\n" * 3)
        with pytest.raises(CorpusError) as expected:
            list(iter_lines(path))
        assert "line 8" in str(expected.value)
        with pytest.raises(CorpusError) as got:
            for start, block in iter_blocks(path, 10):
                decode_block(block, path, start)
        assert str(got.value) == str(expected.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            list(iter_blocks(tmp_path / "nope.tsv", 64))
