"""Hangul syllable block <-> compatibility jamo conversion.

Korean text is written in precomposed syllable blocks (U+AC00..U+D7A3), each
encoding an initial consonant, a medial vowel, and an optional final
consonant.  This module converts between blocks and the 51-letter
compatibility-jamo inventory (30 consonants + 21 vowels, U+3131..U+3163).
Compound finals such as ㄳ stay atomic: they are letters of that inventory,
not pairs.

A decomposed text is a flat list of single-character strings: jamo letters,
``" "`` for a word boundary, and any non-Hangul character passed through
verbatim.  Composition reads it back by the block grammar: each block is an
initial, a vowel and an optional final, and every other item stands alone.
A consonant after a vowel is that block's final unless a vowel follows it.
"""

from __future__ import annotations

from typing import Sequence

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


def compose_jamo(items: Sequence[str]) -> str:
    """Assemble a jamo sequence back into syllable text by the block grammar.

    An item outside the jamo inventory (a word boundary or a passthrough
    character) is emitted as it is.  At a jamo a block starts: an initial
    and the vowel after it, then the next consonant as the block's final
    unless a vowel follows that consonant, which then opens the next block.

    Raises :class:`NonComposable` at the first item that cannot be placed:
    a jamo that cannot start a block (a vowel, a final-only consonant such
    as ㄳ, or a consonant with no vowel after it), or a consonant that must
    be a final but is not a legal one (ㄸ, ㅃ, ㅉ).
    """
    n = len(items)

    def vowel_at(j: int) -> bool:
        return j < n and items[j] in VOWELS

    out: list[str] = []
    i = 0
    while i < n:
        item = items[i]
        if item not in JAMO_INVENTORY:
            out.append(item)
            i += 1
            continue
        if item not in _INITIAL_INDEX or not vowel_at(i + 1):
            raise NonComposable(i)
        code = (_INITIAL_INDEX[item] * 21 + _MEDIAL_INDEX[items[i + 1]]) * 28
        i += 2
        if i < n and items[i] in CONSONANTS and not vowel_at(i + 1):
            if items[i] not in _FINAL_INDEX:
                raise NonComposable(i)
            code += _FINAL_INDEX[items[i]]
            i += 1
        out.append(chr(SYLLABLE_BASE + code))
    return "".join(out)


def try_compose(items: Sequence[str]) -> str | None:
    """compose_jamo, returning None instead of raising on failure."""
    try:
        return compose_jamo(items)
    except NonComposable:
        return None

