import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextpipe.errors import LexiconError
from bitextpipe.lexicon import (
    GATITOS,
    MUSE,
    BilingualLexicon,
    LexiconEntry,
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


# Sources that merge under case folding ("Dog"/"DOG", "Straße"/"STRASSE"),
# translations, and lines that are blank, malformed, or hold U+2028 (a
# space inside a line, never a break).
SOURCES = ("dog", "Dog", "DOG", "cat", "Straße", "STRASSE", "house", "water", "tree")
TARGETS = ("कुत्ता", "श्वान", "x", "घर", "y")
NOISE = ("", "   ", "\u2028", "onlyonefield", "a b c", "\tlone", "a\tb\tc")


@st.composite
def lexicon_lines(draw, format):
    kinds = ["pair", "pair", "pair", "noise"] + (["phrase"] if format == GATITOS else [])
    sep = " " if format == MUSE else "\t"
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        source, target = draw(st.sampled_from(SOURCES)), draw(st.sampled_from(TARGETS))
        if kind == "pair":
            inner = draw(st.sampled_from([sep, " \u2028 " if format == MUSE else "\t\u2028"]))
            lines.append(source + inner + target)
        elif kind == "phrase":
            lines.append(f"{source} {draw(st.sampled_from(SOURCES))}\t{target}")
        else:
            lines.append(draw(st.sampled_from(NOISE)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


class TestStreamedTopK:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), format=st.sampled_from([MUSE, GATITOS]))
    def test_load_top_k_equals_truncated_load(self, data, format):
        text = data.draw(lexicon_lines(format))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lex.txt"
            path.write_bytes(text.encode("utf-8"))
            try:
                whole = load(path, format, HIN)
            except LexiconError:
                with pytest.raises(LexiconError, match="empty lexicon"):
                    load(path, format, HIN, top_k=1)
                return
            for k in range(1, len(whole) + 2):
                streamed = load(path, format, HIN, top_k=k)
                assert streamed == truncate_topk(whole, k)
                assert streamed.skipped_lines == whole.skipped_lines
                assert truncate_topk(streamed, k) is streamed

    def test_later_translations_of_a_kept_source_merge(self, tmp_path):
        path = _muse(tmp_path, ["dog a", "cat b", "bird c", "DOG d", "bad", "cat e"])
        lex = load(path, MUSE, HIN, top_k=2)
        assert [(e.source, e.translations) for e in lex.entries] == [
            ("dog", ("a", "d")), ("cat", ("b", "e"))
        ]
        assert lex.top_k == 2 and lex.skipped_lines == (5,)

    def test_phrases_count_toward_k(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good morning\tशुभ प्रभात\nwater\tपानी\n", encoding="utf-8")
        lex = load(path, GATITOS, HIN, top_k=1)
        assert [e.source for e in lex.entries] == ["good morning"]

    @pytest.mark.parametrize("k", [0, -3])
    def test_invalid_k(self, tmp_path, k):
        with pytest.raises(LexiconError, match="top-k bound must be positive"):
            load(_muse(tmp_path, ["a b"]), MUSE, HIN, top_k=k)

    @pytest.mark.parametrize("entries,message", [
        ((LexiconEntry("dog", ("a\tb",)),), "translation with a tab"),
        ((LexiconEntry("dog", ("a",)), LexiconEntry("dog", ("b",))), "two entries for 'dog'"),
    ])
    def test_entries_that_do_not_fit_one_string_per_word(self, entries, message):
        with pytest.raises(LexiconError, match=message):
            BilingualLexicon(HIN, entries)

    def test_entries_view_round_trips(self):
        entries = (LexiconEntry("good morning", ("शुभ प्रभात",), is_phrase=True),
                   LexiconEntry("house", ("घर", "मकान")))
        lex = BilingualLexicon(HIN, iter(entries), top_k=2, skipped_lines=(3,))
        assert lex.entries == entries
        assert lex == BilingualLexicon(HIN, entries, top_k=2, skipped_lines=(3,))
        assert lex != BilingualLexicon(HIN, entries[::-1], top_k=2, skipped_lines=(3,))
        assert lex.table == {"good morning": "शुभ प्रभात", "house": "घर\tमकान"}


class TestMergeAndWrite:
    def test_write_tsv(self, tmp_path):
        lex = load(_muse(tmp_path, ["dog कुत्ता", "dog श्वान"]), MUSE, HIN)
        out = tmp_path / "out.tsv"
        assert write_tsv(lex, out) == 2
        assert out.read_text(encoding="utf-8") == "dog\tकुत्ता\ndog\tश्वान\n"

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        # the TSV goes through a temp file, so an encoding error halfway
        # through leaves the previous output whole and no temp file behind
        out = tmp_path / "out.tsv"
        out.write_text("old\n", encoding="utf-8")
        lex = BilingualLexicon(HIN, (LexiconEntry("dog", ("कुत्ता",)),
                                     LexiconEntry("cat", ("\ud800",))))
        with pytest.raises(UnicodeEncodeError):
            write_tsv(lex, out)
        assert out.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]
