import pytest

from bitextpipe.errors import TagError
from bitextpipe.lang import (
    ENGLISH,
    LanguageTag,
    load_extra_tags,
    parse_pair,
    parse_tag,
    registry,
)


def test_parse_known_tag():
    tag = parse_tag("asm_Beng")
    assert tag == LanguageTag("asm", "Beng")
    assert tag.code == "asm"
    assert tag.script == "Beng"


def test_parse_english_pivot():
    assert parse_tag("eng_Latn") == ENGLISH


def test_parse_missing_underscore_is_malformed():
    with pytest.raises(TagError, match="malformed"):
        parse_tag("asmBeng")


@pytest.mark.parametrize(
    "bad", ["", "asm", "asm_beng", "ASM_Beng", "asm_BENG", "asm__Beng", "asm_Beng_x"]
)
def test_parse_malformed_variants(bad):
    with pytest.raises(TagError):
        parse_tag(bad)


def test_wellformed_but_unknown_is_rejected():
    with pytest.raises(TagError, match="unknown"):
        parse_tag("xxx_Yyyy")


def test_registry_size_and_membership():
    tags = registry()
    assert len(tags) == 25
    rendered = {str(t) for t in tags}
    # Kashmiri and Manipuri each appear in two scripts
    assert {"kas_Arab", "kas_Deva", "mni_Mtei", "mni_Beng"} <= rendered
    assert "eng_Latn" in rendered
    # not in the compiled registry: Sindhi only has the Devanagari row
    assert "snd_Arab" not in rendered
    assert "snd_Deva" in rendered


def test_registry_no_duplicates_and_stable_order():
    tags = registry()
    rendered = [str(t) for t in tags]
    assert len(set(rendered)) == len(rendered)
    assert tags == registry()
    assert tags[0] == ENGLISH
    assert rendered[1:] == sorted(rendered[1:])


def test_roundtrip_over_registry():
    for tag in registry():
        assert parse_tag(str(tag)) == tag


def test_parse_pair():
    src, tgt = parse_pair("asm_Beng-eng_Latn")
    assert str(src) == "asm_Beng"
    assert str(tgt) == "eng_Latn"
    with pytest.raises(TagError):
        parse_pair("asm_Beng")
    with pytest.raises(TagError):
        parse_pair("asm_Beng-xxx_Yyyy")


def test_extra_tags_extend_registry(tmp_path):
    override = tmp_path / "tags.txt"
    override.write_text("# extension\nsnd_Arab\n\neng_Latn\n", encoding="utf-8")
    extra = load_extra_tags(override)
    assert [str(t) for t in extra] == ["snd_Arab"]  # known tags deduplicated
    assert parse_tag("snd_Arab", extra) == LanguageTag("snd", "Arab")
    with pytest.raises(TagError):
        parse_tag("snd_Arab")  # still unknown without the extension


def test_extra_tags_malformed_line(tmp_path):
    override = tmp_path / "tags.txt"
    override.write_text("not-a-tag\n", encoding="utf-8")
    with pytest.raises(TagError):
        load_extra_tags(override)


def test_extra_tags_malformed_line_names_file_and_line(tmp_path):
    override = tmp_path / "tags.txt"
    override.write_text("snd_Arab\nbad tag\n", encoding="utf-8")
    with pytest.raises(TagError, match=r"tags\.txt:2: malformed language tag 'bad tag'"):
        load_extra_tags(override)


def test_extra_tags_only_newline_breaks_a_line(tmp_path):
    override = tmp_path / "tags.txt"
    override.write_text("# extension\x85 note\nsnd_Arab\x1e\nbad\n", encoding="utf-8")
    with pytest.raises(TagError, match=r"tags\.txt:3: malformed language tag 'bad'"):
        load_extra_tags(override)


def test_extra_tags_unreadable_file_is_a_tag_error(tmp_path):
    with pytest.raises(TagError, match=r"cannot read .*missing\.txt"):
        load_extra_tags(tmp_path / "missing.txt")
    override = tmp_path / "tags.txt"
    override.write_bytes(b"snd_Arab\n\xff\n")
    with pytest.raises(TagError, match=r"tags\.txt: invalid UTF-8 at line 2"):
        load_extra_tags(override)
