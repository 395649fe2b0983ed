import itertools
import unicodedata

import numpy as np
import pytest

from hanjoint import hangul
from hanjoint.errors import InvalidSyllable, NonComposable


def nfd_oracle(ch: str) -> list[str]:
    """Independent decomposition: NFD positional jamo mapped to the
    compatibility letter with the same Unicode name suffix."""
    out = []
    for part in unicodedata.normalize("NFD", ch):
        suffix = unicodedata.name(part).split(" ", 2)[2]
        out.append(unicodedata.lookup("HANGUL LETTER " + suffix))
    return out


def reference_compose(items):
    """Composition as a left-to-right state machine: a consonant waits for
    its vowel, and an open (initial, vowel) block waits for its final.  It
    raises at the first item it cannot place, and the block grammar of
    :func:`hangul.compose_jamo` must agree with it on text and position."""

    def block(initial, medial, final=""):
        code = (hangul.INITIALS.index(initial) * 21 + hangul.MEDIALS.index(medial)) * 28
        return chr(hangul.SYLLABLE_BASE + code + hangul.FINALS.index(final))

    out = []
    pending = None  # consonant waiting for its vowel
    pending_pos = -1
    open_block = None  # open (initial, medial)

    n = len(items)
    for i, item in enumerate(items):
        if item in hangul.VOWELS:
            if pending is not None:
                if pending not in hangul.INITIALS:
                    raise NonComposable(pending_pos)
                open_block = (pending, item)
                pending = None
            else:
                # either a leading vowel or a vowel after a finished block
                raise NonComposable(i)
        elif item in hangul.CONSONANTS:
            if pending is not None:
                raise NonComposable(pending_pos)
            if open_block is not None:
                next_is_vowel = i + 1 < n and items[i + 1] in hangul.VOWELS
                if next_is_vowel:
                    out.append(block(*open_block))
                    open_block = None
                    if item not in hangul.INITIALS:
                        raise NonComposable(i)
                    pending, pending_pos = item, i
                else:
                    if item not in hangul.FINALS:
                        raise NonComposable(i)
                    out.append(block(*open_block, item))
                    open_block = None
            else:
                pending, pending_pos = item, i
        else:
            # word boundary or passthrough: closes any open block
            if pending is not None:
                raise NonComposable(pending_pos)
            if open_block is not None:
                out.append(block(*open_block))
                open_block = None
            out.append(item)

    if pending is not None:
        raise NonComposable(pending_pos)
    if open_block is not None:
        out.append(block(*open_block))
    return "".join(out)


def outcome(compose, items):
    """The text ``compose`` returns, or the position it raises at."""
    try:
        return compose(items)
    except NonComposable as exc:
        return exc.position


def test_decompose_known_syllables():
    assert hangul.decompose_syllable("한") == ["ㅎ", "ㅏ", "ㄴ"]
    assert hangul.decompose_syllable("가") == ["ㄱ", "ㅏ"]
    # cluster finals stay one letter
    assert hangul.decompose_syllable("값") == ["ㄱ", "ㅏ", "ㅄ"]
    assert hangul.decompose_syllable("몫") == ["ㅁ", "ㅗ", "ㄳ"]
    assert hangul.decompose_syllable("흙") == ["ㅎ", "ㅡ", "ㄺ"]


@pytest.mark.parametrize("bad", ["A", "ㄱ", " ", "1", "ᄀ"])
def test_decompose_rejects_non_syllables(bad):
    with pytest.raises(InvalidSyllable):
        hangul.decompose_syllable(bad)


def test_inventory_is_51_letters():
    assert len(hangul.CONSONANTS) == 30
    assert len(hangul.VOWELS) == 21
    assert len(hangul.JAMO_INVENTORY) == 51


def test_full_block_against_unicode_oracle():
    for code in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1):
        ch = chr(code)
        parts = hangul.decompose_syllable(ch)
        assert parts == nfd_oracle(ch)
        assert 2 <= len(parts) <= 3
        assert all(p in hangul.JAMO_INVENTORY for p in parts)
        assert hangul.compose_jamo(parts) == ch


def test_compose_examples():
    assert hangul.compose_jamo(["ㅎ", "ㅏ", "ㄴ", "ㄱ", "ㅡ", "ㄹ"]) == "한글"
    # trailing consonant is reassigned as the next initial when a vowel follows
    assert hangul.compose_jamo(["ㄱ", "ㅏ", "ㄴ", "ㅏ"]) == "가나"
    assert hangul.compose_jamo(["ㅁ", "ㅗ", "ㄳ"]) == "몫"
    assert hangul.compose_jamo([]) == ""
    assert hangul.compose_jamo(["ㄱ", "ㅏ", " ", "A", "5"]) == "가 A5"


@pytest.mark.parametrize(
    "items,position",
    [
        (["ㅏ"], 0),  # vowel with no initial
        (["ㄱ"], 0),  # dangling consonant
        (["ㄱ", "ㄴ", "ㅏ"], 0),  # first consonant can never attach
        (["ㄱ", "ㅏ", "ㅏ"], 2),  # vowel after a finished block
        (["ㄱ", "ㅏ", "ㄳ", "ㅏ"], 2),  # cluster final cannot start a block
        (["ㄱ", "ㅏ", "ㄸ"], 2),  # ㄸ is not a legal final
        (["ㄳ", "ㅏ"], 0),  # cluster final cannot open a block
        (["ㄱ", " "], 0),  # boundary strands the pending consonant
    ],
)
def test_compose_rejects_unplaceable_jamo(items, position):
    with pytest.raises(NonComposable) as info:
        hangul.compose_jamo(items)
    assert info.value.position == position


def test_compose_equals_reference_on_every_short_sequence():
    # one item of each class: a consonant that can be initial or final,
    # initial-only, final-only, two vowels, a boundary and a passthrough
    alphabet = ["ㄱ", "ㄸ", "ㄳ", "ㅏ", "ㅗ", " ", "A"]
    checked = 0
    for length in range(7):
        for items in itertools.product(alphabet, repeat=length):
            assert outcome(hangul.compose_jamo, items) == outcome(reference_compose, items), items
            checked += 1
    assert checked == 137_257
    for code in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1):
        assert reference_compose(hangul.decompose_syllable(chr(code))) == chr(code)


def test_decompose_text():
    assert hangul.decompose_text("한 A") == ["ㅎ", "ㅏ", "ㄴ", " ", "A"]
    assert hangul.decompose_text("") == []
    assert hangul.decompose_text("가") == ["ㄱ", "ㅏ"]
    assert hangul.decompose_text("값싼") == ["ㄱ", "ㅏ", "ㅄ", "ㅆ", "ㅏ", "ㄴ"]


def random_text(rng: np.random.Generator, length: int) -> str:
    chars = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.7:
            chars.append(chr(int(rng.integers(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1))))
        elif kind < 0.85:
            chars.append(" ")
        else:
            chars.append(chr(int(rng.integers(0x21, 0x7F))))
    return "".join(chars)


def test_text_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        text = random_text(rng, int(rng.integers(0, 30)))
        items = hangul.decompose_text(text)
        assert hangul.compose_jamo(items) == text
        # decompositions are always composable, so try_compose agrees
        assert hangul.try_compose(items) == text


def test_try_compose_returns_none():
    assert hangul.try_compose(["ㅏ"]) is None
