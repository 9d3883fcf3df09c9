import pytest

from bitextpipe.errors import LexiconError
from bitextpipe.lexicon import (
    GATITOS,
    MUSE,
    load,
    truncate_topk,
    write_tsv,
)

from conftest import HIN


def _muse(tmp_path, lines, name="lex.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadMuse:
    def test_duplicate_sources_merge(self, tmp_path):
        path = _muse(tmp_path, ["dog कुत्ता", "dog श्वान", "cat बिल्ली"])
        lex = load(path, MUSE, HIN)
        assert len(lex) == 2
        assert lex.lookup("dog") == ("कुत्ता", "श्वान")
        assert lex.lookup("cat") == ("बिल्ली",)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(LexiconError, match="empty"):
            load(path, MUSE, HIN)

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes("dog कुत्ता\ncat बिल्ली\n".encode("utf-8") + b"house \xe0\xa4\n")
        with pytest.raises(LexiconError, match=r"lex\.txt: invalid UTF-8 at line 3"):
            load(path, MUSE, HIN)

    def test_only_newline_breaks_a_line(self, tmp_path):
        # U+0085, U+2028 and \x0c are whitespace inside a line, not line breaks,
        # so line numbers count "\n" like every other reader.
        path = tmp_path / "lex.txt"
        path.write_text("dog \x85kutta\ncat\u2028billi\n\x0c\nhouse ghar\n", encoding="utf-8")
        lex = load(path, MUSE, HIN)
        assert lex.lookup("dog") == ("kutta",)
        assert lex.lookup("cat") == ("billi",)
        assert lex.lookup("house") == ("ghar",)
        assert lex.skipped_lines == (3,)

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        lines = [f"word{i} शब्द{i}" for i in range(9)]
        lines.insert(4, "onlyonefield")
        path = _muse(tmp_path, lines)
        lex = load(path, MUSE, HIN)
        assert len(lex) == 9
        assert lex.skipped_count == 1
        assert lex.skipped_lines == (5,)

    def test_case_folded_merge_and_lookup(self, tmp_path):
        path = _muse(tmp_path, ["Dog कुत्ता", "dog श्वान"])
        lex = load(path, MUSE, HIN)
        assert len(lex) == 1
        assert lex.lookup("DOG") == ("कुत्ता", "श्वान")
        assert "Dog" in lex

    def test_exact_duplicate_translations_deduplicated(self, tmp_path):
        path = _muse(tmp_path, ["dog कुत्ता", "dog कुत्ता"])
        lex = load(path, MUSE, HIN)
        assert lex.lookup("dog") == ("कुत्ता",)

    def test_entry_order_is_first_seen_file_order(self, tmp_path):
        path = _muse(tmp_path, ["zebra z", "apple a", "zebra y"])
        lex = load(path, MUSE, HIN)
        assert [e.source for e in lex.entries] == ["zebra", "apple"]

    def test_reload_is_identical(self, tmp_path):
        path = _muse(tmp_path, ["dog कुत्ता", "cat बिल्ली", "bad"])
        assert load(path, MUSE, HIN) == load(path, MUSE, HIN)

    def test_three_field_muse_line_is_malformed(self, tmp_path):
        path = _muse(tmp_path, ["dog कुत्ता extra", "cat बिल्ली"])
        lex = load(path, MUSE, HIN)
        assert len(lex) == 1
        assert lex.skipped_count == 1


class TestLoadGatitos:
    def test_tab_separated_with_phrases(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "good morning\tशुभ प्रभात\nwater\tपानी\n", encoding="utf-8"
        )
        lex = load(path, GATITOS, HIN)
        assert len(lex) == 2
        phrase, word = lex.entries
        assert phrase.is_phrase
        assert not word.is_phrase
        assert lex.lookup("good morning") == ("शुभ प्रभात",)

    def test_space_separated_line_is_malformed_in_gatitos(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("water पानी\nfire\tआग\n", encoding="utf-8")
        lex = load(path, GATITOS, HIN)
        assert len(lex) == 1
        assert lex.skipped_lines == (1,)

    def test_unknown_format(self, tmp_path):
        path = _muse(tmp_path, ["a b"])
        with pytest.raises(LexiconError, match="format"):
            load(path, "csv", HIN)


class TestTruncate:
    def test_truncates_to_first_k_in_order(self, tmp_path):
        path = _muse(tmp_path, [f"word{i} w{i}" for i in range(5000)])
        lex = load(path, MUSE, HIN)
        top = truncate_topk(lex, 4000)
        assert len(top) == 4000
        assert top.entries == lex.entries[:4000]
        assert top.top_k == 4000

    def test_small_lexicon_unchanged(self, tmp_path):
        path = _muse(tmp_path, [f"word{i} w{i}" for i in range(100)])
        lex = load(path, MUSE, HIN)
        top = truncate_topk(lex, 4000)
        assert top.entries == lex.entries

    def test_idempotent(self, tmp_path):
        path = _muse(tmp_path, [f"word{i} w{i}" for i in range(50)])
        lex = load(path, MUSE, HIN)
        once = truncate_topk(lex, 10)
        twice = truncate_topk(once, 10)
        assert once == twice

    def test_invalid_k(self, tmp_path):
        path = _muse(tmp_path, ["a b"])
        lex = load(path, MUSE, HIN)
        with pytest.raises(LexiconError):
            truncate_topk(lex, 0)


class TestMergeAndWrite:
    def test_write_tsv(self, tmp_path):
        lex = load(_muse(tmp_path, ["dog कुत्ता", "dog श्वान"]), MUSE, HIN)
        out = tmp_path / "out.tsv"
        assert write_tsv(lex, out) == 2
        assert out.read_text(encoding="utf-8") == "dog\tकुत्ता\ndog\tश्वान\n"
