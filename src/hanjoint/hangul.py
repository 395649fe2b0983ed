"""Hangul syllable block <-> compatibility jamo conversion.

Korean text is written in precomposed syllable blocks (U+AC00..U+D7A3), each
encoding an initial consonant, a medial vowel, and an optional final
consonant.  This module converts between blocks and the 51-letter
compatibility-jamo inventory (30 consonants + 21 vowels, U+3131..U+3163).
Compound finals such as ㄳ stay atomic: they are letters of that inventory,
not pairs.

A decomposed text is a flat list of single-character strings: jamo letters,
``" "`` for a word boundary, and any non-Hangul character passed through
verbatim.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvalidSyllable, NonComposable

SYLLABLE_BASE = 0xAC00
SYLLABLE_LAST = 0xD7A3
SYLLABLE_COUNT = 11172

# Positional alphabets in Unicode block order, expressed as compatibility jamo.
INITIALS = (
    "ㄱ", "ㄲ", "ㄴ", "ㄷ", "ㄸ", "ㄹ", "ㅁ", "ㅂ", "ㅃ", "ㅅ",
    "ㅆ", "ㅇ", "ㅈ", "ㅉ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ",
)
MEDIALS = (
    "ㅏ", "ㅐ", "ㅑ", "ㅒ", "ㅓ", "ㅔ", "ㅕ", "ㅖ", "ㅗ", "ㅘ",
    "ㅙ", "ㅚ", "ㅛ", "ㅜ", "ㅝ", "ㅞ", "ㅟ", "ㅠ", "ㅡ", "ㅢ", "ㅣ",
)
# Index 0 means "no final"; the rest are the 27 legal finals.
FINALS = (
    "", "ㄱ", "ㄲ", "ㄳ", "ㄴ", "ㄵ", "ㄶ", "ㄷ", "ㄹ", "ㄺ",
    "ㄻ", "ㄼ", "ㄽ", "ㄾ", "ㄿ", "ㅀ", "ㅁ", "ㅂ", "ㅄ", "ㅅ",
    "ㅆ", "ㅇ", "ㅈ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ",
)

# The 51-letter modern inventory: 30 consonants (initials plus the 11
# compound finals) and 21 vowels.
CONSONANTS = frozenset(INITIALS) | frozenset(FINALS[1:])
VOWELS = frozenset(MEDIALS)
JAMO_INVENTORY = CONSONANTS | VOWELS

WORD_BOUNDARY = " "

_INITIAL_INDEX = {ch: i for i, ch in enumerate(INITIALS)}
_MEDIAL_INDEX = {ch: i for i, ch in enumerate(MEDIALS)}
_FINAL_INDEX = {ch: i for i, ch in enumerate(FINALS)}


def is_syllable(ch: str) -> bool:
    return len(ch) == 1 and SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST


def decompose_syllable(ch: str) -> list[str]:
    """Split one precomposed syllable into 2 or 3 compatibility jamo.

    Raises :class:`InvalidSyllable` for anything outside U+AC00..U+D7A3.
    """
    if not is_syllable(ch):
        raise InvalidSyllable(f"not a precomposed Hangul syllable: {ch!r}")
    offset = ord(ch) - SYLLABLE_BASE
    initial = INITIALS[offset // 588]
    medial = MEDIALS[(offset % 588) // 28]
    final = FINALS[offset % 28]
    if final:
        return [initial, medial, final]
    return [initial, medial]


def decompose_text(text: str) -> list[str]:
    """Decompose text into jamo items; spaces become word boundaries,
    everything else non-Hangul passes through as-is."""
    items: list[str] = []
    for ch in text:
        if is_syllable(ch):
            items.extend(decompose_syllable(ch))
        else:
            items.append(ch)
    return items


def _block(initial: str, medial: str, final: str = "") -> str:
    code = (_INITIAL_INDEX[initial] * 21 + _MEDIAL_INDEX[medial]) * 28
    return chr(SYLLABLE_BASE + code + _FINAL_INDEX[final])


def compose_jamo(items: Sequence[str]) -> str:
    """Assemble a jamo sequence back into syllable text.

    Left-to-right with one symbol of lookahead: consonant+vowel opens a
    block; a consonant after an open block becomes its final unless a vowel
    follows, in which case it starts the next block instead.  Word
    boundaries emit a space, passthrough characters emit verbatim.

    Raises :class:`NonComposable` (with the offending position) whenever an
    item can neither extend the current block nor start a new one: a vowel
    with no initial, a consonant that is not a legal final where a final is
    required, or a consonant left dangling without a vowel.
    """
    out: list[str] = []
    pending: str | None = None  # consonant waiting for its vowel
    pending_pos = -1
    block: tuple[str, str] | None = None  # open (initial, medial)

    n = len(items)
    for i, item in enumerate(items):
        if item in VOWELS:
            if pending is not None:
                if pending not in _INITIAL_INDEX:
                    raise NonComposable(pending_pos)
                block = (pending, item)
                pending = None
            else:
                # either a leading vowel or a vowel after a finished block
                raise NonComposable(i)
        elif item in CONSONANTS:
            if pending is not None:
                raise NonComposable(pending_pos)
            if block is not None:
                next_is_vowel = i + 1 < n and items[i + 1] in VOWELS
                if next_is_vowel:
                    out.append(_block(*block))
                    block = None
                    if item not in _INITIAL_INDEX:
                        raise NonComposable(i)
                    pending, pending_pos = item, i
                else:
                    if item not in _FINAL_INDEX:
                        raise NonComposable(i)
                    out.append(_block(*block, item))
                    block = None
            else:
                pending, pending_pos = item, i
        else:
            # word boundary or passthrough: closes any open block
            if pending is not None:
                raise NonComposable(pending_pos)
            if block is not None:
                out.append(_block(*block))
                block = None
            out.append(item)

    if pending is not None:
        raise NonComposable(pending_pos)
    if block is not None:
        out.append(_block(*block))
    return "".join(out)


def try_compose(items: Sequence[str]) -> str | None:
    """compose_jamo, returning None instead of raising on failure."""
    try:
        return compose_jamo(items)
    except NonComposable:
        return None


def syllable_inventory(texts: Iterable[str]) -> list[str]:
    """Distinct syllables and passthrough characters of a corpus, sorted."""
    units: set[str] = set()
    for text in texts:
        for ch in text:
            if ch != " ":
                units.add(ch)
    return sorted(units)


def grapheme_inventory(texts: Iterable[str]) -> list[str]:
    """Distinct jamo and passthrough characters of a corpus, sorted."""
    units: set[str] = set()
    for text in texts:
        for item in decompose_text(text):
            if item != " ":
                units.add(item)
    return sorted(units)
