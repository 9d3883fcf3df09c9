"""Language+script tags and the compiled registry.

Tags follow the FLORES convention ``<iso639-3>_<iso15924>`` (e.g.
``hin_Deva``). The registry covers the 22 scheduled Indian languages, two
of which (Kashmiri, Manipuri) appear in two scripts, plus English: 25 tags
total. Unknown tags are rejected outright; silent typos in language tags
corrupt data mixtures irreversibly, so there is no lenient mode. An
optional override file (one tag per line) can extend the registry for
corpora outside the compiled set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Collection

from .errors import TagError, read_lines

_TAG_RE = re.compile(r"^([a-z]{3})_([A-Z][a-z]{3})$")


@dataclass(frozen=True, slots=True)
class LanguageTag:
    """An ISO-639-3 language code paired with an ISO-15924 script code."""

    code: str
    script: str

    def __str__(self) -> str:
        return f"{self.code}_{self.script}"


ENGLISH = LanguageTag("eng", "Latn")

# The 24 Indic language/script combinations, ordered by rendered tag.
_INDIC = (
    LanguageTag("asm", "Beng"),
    LanguageTag("ben", "Beng"),
    LanguageTag("brx", "Deva"),
    LanguageTag("doi", "Deva"),
    LanguageTag("gom", "Deva"),
    LanguageTag("guj", "Gujr"),
    LanguageTag("hin", "Deva"),
    LanguageTag("kan", "Knda"),
    LanguageTag("kas", "Arab"),
    LanguageTag("kas", "Deva"),
    LanguageTag("mai", "Deva"),
    LanguageTag("mal", "Mlym"),
    LanguageTag("mar", "Deva"),
    LanguageTag("mni", "Beng"),
    LanguageTag("mni", "Mtei"),
    LanguageTag("npi", "Deva"),
    LanguageTag("ory", "Orya"),
    LanguageTag("pan", "Guru"),
    LanguageTag("san", "Deva"),
    LanguageTag("sat", "Olck"),
    LanguageTag("snd", "Deva"),
    LanguageTag("tam", "Taml"),
    LanguageTag("tel", "Telu"),
    LanguageTag("urd", "Arab"),
)

_REGISTRY = (ENGLISH,) + _INDIC
_BY_RENDERED = {str(tag): tag for tag in _REGISTRY}

LANGUAGE_NAMES = {
    "asm": "Assamese",
    "ben": "Bengali",
    "brx": "Bodo",
    "doi": "Dogri",
    "eng": "English",
    "gom": "Konkani",
    "guj": "Gujarati",
    "hin": "Hindi",
    "kan": "Kannada",
    "kas": "Kashmiri",
    "mai": "Maithili",
    "mal": "Malayalam",
    "mar": "Marathi",
    "mni": "Manipuri",
    "npi": "Nepali",
    "ory": "Odia",
    "pan": "Punjabi",
    "san": "Sanskrit",
    "sat": "Santali",
    "snd": "Sindhi",
    "tam": "Tamil",
    "tel": "Telugu",
    "urd": "Urdu",
}


def registry() -> tuple[LanguageTag, ...]:
    """All supported tags: English first, then the 24 Indic tags in order."""
    return _REGISTRY


def parse_tag(text: str, extra: Collection[LanguageTag] = ()) -> LanguageTag:
    """Parse and validate a rendered tag like ``asm_Beng``.

    ``extra`` extends the compiled registry (see :func:`load_extra_tags`).
    Raises :class:`TagError` on malformed syntax or unknown tags.
    """
    tag = _BY_RENDERED.get(text)
    if tag is not None:  # every registry tag is well-formed
        return tag
    if not text:
        raise TagError("empty language tag")
    match = _TAG_RE.match(text)
    if match is None:
        raise TagError(
            f"malformed language tag {text!r}: expected <lll>_<Ssss>, e.g. hin_Deva"
        )
    for candidate in extra:
        if str(candidate) == text:
            return candidate
    raise TagError(f"unknown language tag {text!r}: not in the registry")


def parse_pair(text: str, extra: Collection[LanguageTag] = ()) -> tuple[LanguageTag, LanguageTag]:
    """Parse a direction label like ``asm_Beng-eng_Latn``."""
    src, sep, tgt = text.partition("-")
    if not sep:
        raise TagError(f"malformed language pair {text!r}: expected <src>-<tgt>")
    return parse_tag(src, extra), parse_tag(tgt, extra)


def load_extra_tags(path: str | Path) -> tuple[LanguageTag, ...]:
    """Read registry extensions from a plain-text file, one tag per line.

    Blank lines and ``#`` comments are ignored. Tags must be well formed;
    tags already in the compiled registry are accepted and deduplicated.
    """
    tags: list[LanguageTag] = []
    seen: set[str] = set(_BY_RENDERED)
    for lineno, raw in enumerate(read_lines(path, TagError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _TAG_RE.match(line)
        if match is None:
            raise TagError(
                f"{path}:{lineno}: malformed language tag {line!r}: expected <lll>_<Ssss>"
            )
        if line in seen:
            continue
        seen.add(line)
        tags.append(LanguageTag(match.group(1), match.group(2)))
    return tuple(tags)
