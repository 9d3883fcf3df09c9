import math
import os
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from bitextpipe import errors
from bitextpipe.corpus import (
    CorpusStats,
    ParallelCorpus,
    SentencePair,
    Work,
    accounting_language,
    clean_text,
    file_ranges,
    ingest,
    iter_lines,
    iter_tsv_rows,
    read_tsv,
    reduce_highresource,
    reverse,
    stats,
    ordered_map,
    stats_from_counts,
    usable_cpus,
    write_skip_report,
    write_tsv,
    write_tsv_rows,
)
from bitextpipe.errors import (CorpusError, LexiconError, PipelineError, decode_block,
                               iter_blocks)
from bitextpipe.lang import parse_tag

from conftest import (ASM, BRX, ENG, HIN, REFERENCE_COUNTS, feed_fifo, fifo_bytes, mk_corpus,
                      mk_pair)


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

    def test_a_row_that_raises_mid_write_keeps_the_previous_file(self, tmp_path):
        out = tmp_path / "out.tsv"
        write_tsv_rows(["old"], out)

        def rows():
            yield "new " * 100_000
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            write_tsv_rows(rows(), out)
        assert out.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]

    def test_sidecar_writers_publish_whole_files_by_rename(self, tmp_path, monkeypatch):
        from bitextpipe import evalharness, sampling, trainconfig
        from bitextpipe.manifest import RunManifest

        row = evalharness.ScoreRow(HIN, ENG, 1.0, 2.0, 3.0)
        plan = sampling.allocate(sampling.distribution(stats(mk_corpus(4)), 5.0), 3)
        writers = {
            "plan.tsv": lambda path: sampling.write_plan_tsv(plan, path),
            "plot.tsv": lambda path: sampling.write_plot_tsv(plan, path),
            "rows.tsv": lambda path: evalharness.write_rows_tsv([row], path),
            "report.tsv": lambda path: evalharness.write_report_tsv(
                evalharness.report([row]), path
            ),
            "train.json": lambda path: trainconfig.write_json(trainconfig.emit("pretrain"), path),
            "run.json": lambda path: RunManifest("stats", {}, 1).write(path),
        }
        renamed = []
        replace = os.replace

        def recording(src, dst):
            renamed.append((Path(src).name, Path(dst).name))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        for name, write in writers.items():
            write(tmp_path / name)
        assert [dst for _, dst in renamed] == list(writers)
        assert all(src.startswith(f"{dst}.") and src.endswith(".tmp") for src, dst in renamed)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)

    def test_a_pipe_is_written_in_place_not_replaced(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        assert write_tsv_rows(["a", "b"], pipe) == 2
        reader.join(timeout=10)
        assert received == [b"a\nb\n"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_a_symlink_is_written_through(self, tmp_path):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "real.tsv"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "out.tsv"
        link.symlink_to(target)
        write_tsv_rows(["new"], link)
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["real.tsv"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_tsv_rows(["x"], tmp_path / "out.tsv")
        finally:
            os.umask(old)
        assert (tmp_path / "out.tsv").stat().st_mode & 0o777 == 0o640


class TestBlocks:
    """The one line reader: whole-line blocks, each decoded at once."""

    LINES = [b"short\n", b"x" * 90 + b"\n", b"ab\r\n", b"\n", "क्ष\n".encode(), b"y" * 40,
             b"z\n"]
    EXPECTED = {  # by the step of the slice that orders LINES
        None: ["short", "x" * 90, "ab", "", "क्ष", "y" * 40 + "z"],
        -1: ["z", "y" * 40 + "क्ष", "", "ab", "x" * 90, "short"],
    }
    SIZES = [1, 5, 16, 41, 64, 1000]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)])
    def test_blocks_hold_whole_lines_within_the_unit(self, tmp_path, monkeypatch, size, order):
        lines = self.LINES[order]
        path = tmp_path / "c.tsv"
        path.write_bytes(b"".join(lines))
        blocks = list(iter_blocks(path, size, CorpusError))
        assert b"".join(block for _, block in blocks) == path.read_bytes()
        longest = max(len(line) for line in lines)
        decoded = []
        for start, block in blocks:
            assert len(block) <= max(size, longest)
            assert start == len(decoded)
            assert block.endswith(b"\n") or block is blocks[-1][1]
            decoded += decode_block(block, path, start, CorpusError)
        assert decoded == self.EXPECTED[order.step]
        monkeypatch.setattr(errors, "_READ_BLOCK", size)
        assert list(iter_lines(path)) == self.EXPECTED[order.step]

    @pytest.mark.parametrize("size", SIZES)
    def test_only_newline_breaks_a_line(self, tmp_path, monkeypatch, size):
        # U+0085, U+2028 and a lone \r are characters inside a line, and only
        # \r before a line's end is dropped.
        path = tmp_path / "c.tsv"
        path.write_bytes("a\u0085b\u2028c\rd\r\r\nnel\u0085\n\rx\n".encode("utf-8"))
        monkeypatch.setattr(errors, "_READ_BLOCK", size)
        assert list(iter_lines(path)) == ["a\u0085b\u2028c\rd", "nel\u0085", "\rx"]

    def test_invalid_utf8_names_the_line_as_iter_lines_does(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"ok\n" * 7 + b"fine \xe0\xa4 cut\r\n" + b"ok\n" * 3)
        message = f"{path}: invalid UTF-8 at line 8: "
        lines = iter_lines(path)
        # the lines before the bad one come first, as read one at a time
        assert [next(lines) for _ in range(7)] == ["ok"] * 7
        with pytest.raises(CorpusError) as expected:
            next(lines)
        assert str(expected.value).startswith(message)
        with pytest.raises(CorpusError) as got:
            for start, block in iter_blocks(path, 10, CorpusError):
                list(decode_block(block, path, start, CorpusError))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("size", SIZES)
    def test_invalid_utf8_on_a_last_line_without_newline(self, tmp_path, monkeypatch, size):
        path = tmp_path / "c.tsv"
        path.write_bytes("ok\nक\n".encode("utf-8") * 3 + b"last \xff")
        monkeypatch.setattr(errors, "_READ_BLOCK", size)
        with pytest.raises(CorpusError, match=r"c\.tsv: invalid UTF-8 at line 7: "):
            list(iter_lines(path))

    def test_the_error_type_is_the_callers(self, tmp_path):
        from bitextpipe.lexicon import MUSE, load

        path = tmp_path / "lex.txt"
        path.write_bytes("dog कुत्ता\n".encode("utf-8") * 3 + b"cat \xe0\xa4")
        with pytest.raises(LexiconError, match=r"lex\.txt: invalid UTF-8 at line 4: "):
            load(path, MUSE, HIN)
        with pytest.raises(LexiconError, match="cannot read"):
            load(tmp_path / "nope.txt", MUSE, HIN)

    @pytest.mark.parametrize("size", [5, 41, 1 << 16])
    def test_a_pipe_reads_as_the_same_bytes_in_a_file(self, tmp_path, monkeypatch, size):
        monkeypatch.setattr(errors, "_READ_BLOCK", size)
        data = fifo_bytes()
        path = tmp_path / "c.tsv"
        path.write_bytes(data)
        fifo = tmp_path / "fifo"
        with feed_fifo(fifo, data):
            assert list(iter_lines(fifo)) == list(iter_lines(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            list(iter_blocks(tmp_path / "nope.tsv", 64, CorpusError))


class TestRanges:
    """Range reads: a range of the file reads as its part of the whole file."""

    LINES = TestBlocks.LINES

    @pytest.mark.parametrize("size", TestBlocks.SIZES)
    def test_ranges_read_back_as_the_whole_file(self, tmp_path, monkeypatch, size):
        from bitextpipe import corpus

        path = tmp_path / "c.tsv"
        path.write_bytes(b"".join(self.LINES))
        monkeypatch.setattr(corpus, "RANGE_BYTES", size)
        monkeypatch.setattr(errors, "_READ_BLOCK", 7)
        spans = list(file_ranges(path))
        assert [(lo, start) for lo, _, start in spans] == [
            (lo, start) for (start, _), lo in zip(
                iter_blocks(path, size, CorpusError),
                [0] + [hi for _, hi, _ in spans[:-1]],
            )
        ]
        assert spans[-1][1] == path.stat().st_size
        assert [line for span in spans for line in iter_lines(path, span)] == list(
            iter_lines(path)
        )

    def test_invalid_utf8_in_a_range_names_its_line_in_the_file(self, tmp_path, monkeypatch):
        from bitextpipe import corpus

        path = tmp_path / "c.tsv"
        path.write_bytes(b"ok\n" * 20 + b"bad \xff\n" + b"ok\n" * 5)
        monkeypatch.setattr(corpus, "RANGE_BYTES", 16)
        span = next(s for s in file_ranges(path) if s[0] <= 60 < s[1])  # the bad line
        assert span[0] > 0
        with pytest.raises(CorpusError, match=r"c\.tsv: invalid UTF-8 at line 21: "):
            list(iter_lines(path, span))

    @pytest.mark.parametrize("cut", ["inside the range", "at its start", "at its last byte"])
    def test_a_file_truncated_after_planning_fails(self, tmp_path, monkeypatch, cut):
        from bitextpipe import corpus

        path = tmp_path / "c.tsv"
        path.write_bytes(b"".join(f"line {i}\n".encode() for i in range(40)))
        monkeypatch.setattr(corpus, "RANGE_BYTES", 64)
        spans = list(file_ranges(path))
        lo, hi, _ = spans[1]
        data = path.read_bytes()
        path.write_bytes(data[:{"inside the range": lo + 10, "at its start": lo,
                                "at its last byte": hi - 1}[cut]])
        assert list(iter_lines(path, spans[0])) == [f"line {i}" for i in range(spans[1][2])]
        with pytest.raises(CorpusError, match=f"^{path}: changed while read$"):
            list(iter_lines(path, spans[1]))

    def test_a_range_ending_inside_a_line_the_file_goes_on_with_fails(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"one\ntwo")
        spans = list(file_ranges(path))
        assert [line for span in spans for line in iter_lines(path, span)] == ["one", "two"]
        path.write_bytes(b"one\ntwo more\n")
        with pytest.raises(CorpusError, match="changed while read"):
            list(iter_lines(path, spans[-1]))


def _collect(token: list, part: object) -> list:
    return token + [part]


def _numbered(task: int) -> Work[int]:
    """A work function: two pieces of output 0, its task as the part."""
    yield 0, f"{task}".encode()
    time.sleep(0.002 * (task % 3 == 0))  # finish out of order
    yield 0, b"\n"
    return task


class TestWorkerMap:
    """:func:`ordered_map`: results applied in task order, errors at their position.

    A work function yields ``(output index, bytes)`` pieces and returns its part.
    """

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_order_is_kept(self, tmp_path, threads):
        # More workers than CPUs, finishing out of order: a result applied
        # out of turn would show in the file and in the token.
        out = tmp_path / "o.txt"
        assert ordered_map(range(60), threads, _numbered, _collect, [], [out]) == list(range(60))
        assert out.read_text() == "".join(f"{i}\n" for i in range(60))

    def test_it_runs_in_process_under_two_tasks(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "o.txt"
        assert ordered_map([7], 8, _numbered, _collect, [], [out]) == [7]
        assert out.read_text() == "7\n"
        assert ordered_map(range(5), 1, _numbered, _collect, [], [out]) == list(range(5))
        assert ordered_map([], 4, _numbered, _collect, [], [out]) == []
        assert out.read_bytes() == b""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("where, expected", [
        ({"compute": 5, "add": 9, "tasks": 7}, "compute 5"),
        ({"compute": 9, "add": 5, "tasks": 7}, "add 5"),
        ({"compute": 9, "add": 8, "tasks": 7}, "tasks 7"),
        ({"compute": 0, "add": 1, "tasks": 2}, "compute 0"),
    ])
    def test_an_error_is_raised_at_its_position(self, tmp_path, threads, where, expected):
        def tasks():
            for task in range(12):
                if task == where["tasks"]:
                    raise CorpusError(f"tasks {task}")
                yield task

        def compute(task):
            yield 0, f"{task}\n".encode()  # a piece before the error lands nowhere
            if task == where["compute"]:
                raise ValueError(f"compute {task}")
            return task

        def add(token, part):
            if part == where["add"]:
                raise KeyError(f"add {part}")
            return token + [part]

        out = tmp_path / "out" / "o.txt"
        out.parent.mkdir()
        with pytest.raises((CorpusError, ValueError, KeyError), match=expected):
            ordered_map(tasks(), threads, compute, add, [], [out])
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("failing", [(), (25, 26)])
    def test_tasks_larger_than_a_pipe(self, tmp_path, threads, failing):
        # A task pickles to more than a pipe holds (64 KiB), so sending it
        # waits on the full pipe until its worker reads the rest.
        def compute(task):
            index, data = task
            if index in failing:
                raise ValueError(f"compute {index}")
            yield 0, b"%d %d\n" % (index, len(data))
            return index

        out = tmp_path / "out" / "o.txt"
        out.parent.mkdir()
        tasks = ((i, bytes(1 << 17)) for i in range(30))
        if not failing:
            assert ordered_map(tasks, threads, compute, _collect, [], [out]) == list(range(30))
            assert out.read_bytes() == b"".join(b"%d 131072\n" % i for i in range(30))
            return
        with pytest.raises(ValueError, match="compute 25$"):
            ordered_map(tasks, threads, compute, _collect, [], [out])
        assert list(out.parent.iterdir()) == []

    def test_a_task_sent_to_a_worker_that_has_left_raises_the_error_before_it(self, tmp_path):
        # Task 1 fails, and both workers leave while the next tasks are slow
        # to come: task 4 then meets a closed task pipe.
        def tasks():
            yield from range(4)
            time.sleep(0.5)
            yield from range(4, 8)

        def compute(task):
            if task == 1:
                raise ValueError(f"compute {task}")
            yield 0, b"%d\n" % task
            return task

        out = tmp_path / "out" / "o.txt"
        out.parent.mkdir()
        with pytest.raises(ValueError, match="compute 1$"):
            ordered_map(tasks(), 2, compute, _collect, [], [out])
        assert list(out.parent.iterdir()) == []

    def test_a_worker_that_dies_on_a_full_task_pipe_never_hangs_the_run(self):
        # The worker of task 4 dies while this process waits to send it task
        # 4 + 2, more than its pipe holds.
        code = (
            "import os, signal, time\n"
            "from bitextpipe.corpus import ordered_map\n"
            "def compute(task):\n"
            "    if task[0] == 4:\n"
            "        time.sleep(0.3)\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return task[0]\n"
            "    yield\n"
            "tasks = ((i, bytes(1 << 17)) for i in range(40))\n"
            "try:\n"
            "    ordered_map(tasks, 2, compute, lambda t, p: t + p, 0)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        child = subprocess.Popen([sys.executable, "-c", code], text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 start_new_session=True)
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the worker map hung on a dead worker")
        assert child.returncode == 0, err
        assert out.startswith("PipelineError worker process ") and "died (exit status -9)" in out

    def test_a_worker_that_dies_never_hangs_the_run(self):
        # Run the map in a child process, so a regression fails here instead
        # of hanging the suite.
        code = (
            "import os, signal\n"
            "from bitextpipe.corpus import ordered_map\n"
            "def compute(task):\n"
            "    if task == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return task\n"
            "    yield\n"
            "try:\n"
            "    ordered_map(range(40), 2, compute, lambda t, p: t + p, 0)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
            "os.waitpid(-1, os.WNOHANG)\n"
        )
        child = subprocess.Popen([sys.executable, "-c", code], text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 start_new_session=True)
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the worker map hung on a dead worker")
        # every worker was reaped: waitpid finds no child
        assert child.returncode == 1 and err.rstrip().endswith("ChildProcessError: [Errno 10] "
                                                               "No child processes")
        assert out.startswith("PipelineError worker process ") and "died (exit status -9)" in out


class TestUsableCpus:
    """The default worker count: the affinity mask, capped by a cgroup CPU quota."""

    @pytest.mark.parametrize("files, expected", [
        ({}, 4),
        ({"cpu.max": "max 100000\n"}, 4),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "800000 100000\n"}, 4),
        ({"cpu.max": "garbage\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "250000\n"}, 4),
        ({"cpu.max": "max 100000\n", "cpu/cpu.cfs_quota_us": "100000\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, 4),
    ])
    def test_the_quota_caps_the_affinity_mask(self, tmp_path, monkeypatch, files, expected):
        from bitextpipe import corpus

        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(corpus, "CGROUP_ROOT", tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert usable_cpus() == expected
