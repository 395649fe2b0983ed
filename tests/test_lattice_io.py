import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from hanjoint.errors import (
    BadMagic,
    BlankInLabel,
    DimensionMismatch,
    DuplicateToken,
    HanjointError,
    MissingBlank,
    MissingDelimiter,
    NonFiniteScore,
    OutOfVocabulary,
    TruncatedFile,
)
from hanjoint.joint import tokens_to_text
from hanjoint.lattice_io import (
    EmissionLattice,
    Vocabulary,
    load_lattice,
    normalize,
    save_lattice,
    text_to_tokens,
    unit_inventory,
)


def write_vocab(tmp_path, lines):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_vocab(tmp_path):
    vocab = Vocabulary.load(write_vocab(tmp_path, ["<ctc_blank>", "|", "가", "나"]))
    assert vocab.size == 4
    assert vocab.delimiter_index == 1
    assert vocab.index_of("나") == 3
    assert "가" in vocab and "다" not in vocab


def test_vocab_errors(tmp_path):
    with pytest.raises(MissingBlank):
        Vocabulary.load(write_vocab(tmp_path, ["가", "<ctc_blank>"]))
    with pytest.raises(MissingDelimiter):
        Vocabulary.load(write_vocab(tmp_path, ["<ctc_blank>", "가"]))
    with pytest.raises(DuplicateToken) as info:
        Vocabulary.load(write_vocab(tmp_path, ["<ctc_blank>", "|", "가", "가"]))
    assert info.value.line == 4
    with pytest.raises(HanjointError, match="empty token at line 3"):
        Vocabulary.load(write_vocab(tmp_path, ["<ctc_blank>", "|", "", "가"]))


def test_vocab_that_is_not_utf8_is_a_file_error_naming_it(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"\xff<ctc_blank>\n|\n")
    with pytest.raises(HanjointError, match=re.escape(f"{path}: not UTF-8 text")):
        Vocabulary.load(path)


def test_vocab_save_round_trip(tmp_path):
    vocab = Vocabulary.from_units(["가", "나", "다"])
    path = tmp_path / "v.txt"
    vocab.save(path)
    assert Vocabulary.load(path) == vocab


def test_binary_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    lattice = EmissionLattice(rng.normal(size=(7, 5)).astype(np.float32))
    path = tmp_path / "l.lat"
    save_lattice(lattice, path, "binary")
    loaded = load_lattice(path)
    assert loaded.scores.dtype == np.float64
    assert not loaded.normalized
    np.testing.assert_array_equal(loaded.scores, lattice.scores)
    path2 = tmp_path / "l2.lat"
    save_lattice(loaded, path2, "binary")
    assert path.read_bytes() == path2.read_bytes()


def test_binary_normalized_flag(tmp_path):
    lattice = normalize(EmissionLattice(np.zeros((2, 3))))
    path = tmp_path / "n.lat"
    save_lattice(lattice, path, "binary")
    assert load_lattice(path).normalized


def test_text_format(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1 2 norm\n-0.6931471805599453 -0.6931471805599453\n")
    lattice = load_lattice(path)
    assert lattice.normalized
    assert lattice.frames == 1 and lattice.vocab_size == 2
    assert lattice.scores[0, 0] == pytest.approx(math.log(0.5))


def test_text_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    lattice = EmissionLattice(rng.normal(size=(4, 3)))
    path = tmp_path / "l.txt"
    save_lattice(lattice, path, "text")
    loaded = load_lattice(path)
    np.testing.assert_array_equal(loaded.scores, lattice.scores)

    # nine significant digits, the way perfbench/corpus.py writes text lattices
    rows = [["%.9g" % x for x in row] for row in rng.normal(scale=30.0, size=(5, 4))]
    path.write_text("5 4 raw\n" + "".join(" ".join(row) + "\n" for row in rows))
    expected = np.array([[float(x) for x in row] for row in rows])
    loaded = load_lattice(path)
    assert loaded.scores.tobytes() == expected.tobytes()


def test_format_autodetect(tmp_path):
    lattice = EmissionLattice(np.ones((2, 2)))
    bin_path, txt_path = tmp_path / "a.lat", tmp_path / "a.txt"
    save_lattice(lattice, bin_path, "binary")
    save_lattice(lattice, txt_path, "text")
    np.testing.assert_array_equal(load_lattice(bin_path).scores, load_lattice(txt_path).scores)


def test_zero_frame_lattice_round_trip(tmp_path):
    lattice = EmissionLattice(np.zeros((0, 3)), normalized=True)
    for fmt in ("binary", "text"):
        path = tmp_path / f"empty.{fmt}"
        save_lattice(lattice, path, fmt)
        loaded = load_lattice(path)
        assert loaded.frames == 0 and loaded.vocab_size == 3
        assert loaded.normalized


def test_binary_errors(tmp_path):
    good = tmp_path / "good.lat"
    save_lattice(EmissionLattice(np.ones((2, 3))), good, "binary")
    data = good.read_bytes()

    truncated = tmp_path / "trunc.lat"
    truncated.write_bytes(data[:-4])
    with pytest.raises(TruncatedFile):
        load_lattice(truncated)

    trailing = tmp_path / "trail.lat"
    trailing.write_bytes(data + b"\x00\x00")
    with pytest.raises(DimensionMismatch):
        load_lattice(trailing)

    flagged = tmp_path / "flags.lat"
    flagged.write_bytes(data[:5] + b"\x02" + data[6:])
    with pytest.raises(BadMagic):
        load_lattice(flagged)

    version = tmp_path / "v2.lat"
    version.write_bytes(data[:4] + b"\x02" + data[5:])
    with pytest.raises(BadMagic, match="v2.lat: unsupported version 2"):
        load_lattice(version)

    # without the magic and not UTF-8 either: not read as a text lattice
    unknown = tmp_path / "ctcx.lat"
    unknown.write_bytes(b"CTCX" + data[4:14] + np.full(6, -1.5, dtype="<f4").tobytes())
    with pytest.raises(BadMagic, match="ctcx.lat"):
        load_lattice(unknown)


def test_overflowing_sum_still_loads(tmp_path, recwarn):
    big = np.finfo(np.float64).max / 2
    scores = np.full((3, 4), big)
    scores[1] = -big
    path = tmp_path / "big.txt"
    save_lattice(EmissionLattice(scores), path, "text")
    assert load_lattice(path).scores.tobytes() == scores.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(scores.sum())
    assert not recwarn.list


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_reports_first_position(value, recwarn):
    scores = np.zeros((4, 5))
    scores[2, 3] = value
    scores[3, 0] = -value  # a later non-finite value, and a sum of nan for +-inf
    with pytest.raises(NonFiniteScore) as info:
        EmissionLattice(scores)
    assert (info.value.frame, info.value.index) == (2, 3)
    assert not recwarn.list


def test_nan_rejected(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("1 2 raw\n0.0 nan\n")
    with pytest.raises(NonFiniteScore) as info:
        load_lattice(path)
    assert (info.value.frame, info.value.index) == (0, 1)

    scores = np.zeros((2, 3), dtype=np.float32)
    scores[1, 2] = np.nan
    binary = tmp_path / "nan.lat"
    save_lattice(EmissionLattice(np.zeros((2, 3))), binary, "binary")
    binary.write_bytes(binary.read_bytes()[:14] + scores.astype("<f4").tobytes())
    with pytest.raises(NonFiniteScore) as info:
        load_lattice(binary)
    assert (info.value.frame, info.value.index) == (1, 2)


def test_text_dimension_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 raw\n0 0\n")
    with pytest.raises(TruncatedFile):
        load_lattice(path)
    path.write_text("1 2 raw\n0 0 0\n")
    with pytest.raises(DimensionMismatch):
        load_lattice(path)
    path.write_text("1 2 raw\n0 x\n")
    with pytest.raises(DimensionMismatch):
        load_lattice(path)


@pytest.mark.parametrize(
    "content,error,message",
    [
        ("", TruncatedFile, "empty file"),
        ("2\n0 0\n", DimensionMismatch, "header must be 'F V \\[norm\\|raw\\]'"),
        ("1 2 raw x\n0 0\n", DimensionMismatch, "header must be"),
        ("1 two raw\n0 0\n", DimensionMismatch, "bad header '1 two raw'"),
        ("1.0 2\n0 0\n", DimensionMismatch, "bad header"),
        ("1 -2\n0 0\n", DimensionMismatch, "negative dimension"),
        ("1 2 logits\n0 0\n", DimensionMismatch, "unknown mode 'logits'"),
        ("1 2 raw\n0 0\n0 0\n", DimensionMismatch, "expected 1 rows, found 2"),
        ("1 20000000000 norm\n0.0\n", DimensionMismatch, "header '1 20000000000 norm' needs 20000000000 values"),
    ],
)
def test_text_header_errors_name_the_file(tmp_path, content, error, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(error, match=re.escape(str(path)) + ": " + message):
        load_lattice(path)


def test_scores_must_be_2d():
    with pytest.raises(DimensionMismatch, match="must be 2-D"):
        EmissionLattice(np.zeros(3))


def test_normalized_file_whose_rows_do_not_sum_to_one_names_the_file(tmp_path):
    path = tmp_path / "unnormalized.txt"
    path.write_text("2 2 norm\n-0.6931471805599453 -0.6931471805599453\n0 0\n")
    with pytest.raises(HanjointError, match=re.escape(str(path)) + ": row 1 marked normalized"):
        load_lattice(path)


def _mutations(rng, binary: bytes, text: bytes):
    """Damaged copies of a valid CTCL file and a valid text file holding
    the same F x V lattice."""
    frames, vocab = struct.unpack_from("<II", binary, 6)
    header, _, body = text.partition(b"\n")
    rows = body.splitlines(keepends=True)
    for data in (binary, text):
        yield data
        for cut in (0, 1, 5, 13, 14, len(data) - 1, *rng.integers(0, len(data), 6)):
            yield data[:cut]
        for _ in range(6):  # a flipped header byte
            pos = int(rng.integers(0, 14 if data is binary else len(header)))
            yield data[:pos] + bytes([data[pos] ^ int(rng.integers(1, 256))]) + data[pos + 1:]
        for _ in range(3):  # bytes that are not UTF-8
            pos = int(rng.integers(0, len(data) + 1))
            yield data[:pos] + b"\xff\xc3" + data[pos:]
    for f, v in ((0, vocab), (frames, 0), (1, vocab), (frames, 1), (2**32 - 1, vocab), (frames, 2**32 - 1),
                 (2**32 - 1, 2**32 - 1), (0, 0), (1, 1)):
        yield binary[:6] + struct.pack("<II", f, v) + binary[14:]
        yield f"{f} {v} norm\n".encode() + body
    # extra and missing rows
    yield binary + binary[14:14 + 4 * vocab]
    yield binary[:-4 * vocab]
    yield text + rows[0]
    yield header + b"\n" + b"".join(rows[1:])
    yield header + b"\n" + b"".join(rows[:-1]) + b"\n"
    for value in (np.nan, np.inf, -np.inf):
        pos = 14 + 4 * int(rng.integers(0, frames * vocab))
        yield binary[:pos] + np.float32(value).tobytes() + binary[pos + 4:]
    for token in (b"nan", b"inf", b"-inf", b"NaN", b"1e999"):
        row = int(rng.integers(0, frames))
        values = rows[row].split()
        values[int(rng.integers(0, vocab))] = token
        yield header + b"\n" + b"".join(rows[:row]) + b" ".join(values) + b"\n" + b"".join(rows[row + 1:])


def test_damaged_lattice_files_fail_cleanly_and_small(tmp_path):
    rng = np.random.default_rng(83)
    lattice = normalize(EmissionLattice(rng.normal(size=(16, 12))))
    for fmt in ("binary", "text"):
        save_lattice(lattice, tmp_path / fmt, fmt)
    binary, text = (tmp_path / "binary").read_bytes(), (tmp_path / "text").read_bytes()
    path = tmp_path / "damaged.lat"
    loads = 0
    for data in _mutations(rng, binary, text):
        path.write_bytes(data)
        tracemalloc.start()
        try:
            load_lattice(path)
        except (HanjointError, OSError):
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # no header makes the reader allocate beyond what the file holds:
        # a valid CTCL file peaks near 5.5 times its size
        assert peak <= 8 * len(data) + 32768, (data[:40], peak)
        loads += 1
    assert loads > 50


def test_ctcl_load_does_not_copy_its_payload(tmp_path):
    # the file's bytes, the float64 scores and the row-sum check's temporary
    # (5.4 x the file here); a copy of the payload would make it 6.4 x
    lattice = normalize(EmissionLattice(np.random.default_rng(5).normal(size=(40, 30))))
    path = tmp_path / "x.lat"
    save_lattice(lattice, path)
    load_lattice(path)  # first-call allocations are not the reader's
    tracemalloc.start()
    try:
        load_lattice(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * path.stat().st_size


def test_normalize():
    lattice = normalize(EmissionLattice(np.array([[0.0, 0.0]])))
    np.testing.assert_allclose(lattice.scores[0], [math.log(0.5)] * 2)
    assert lattice.normalized

    assert normalize(lattice) is lattice

    big = normalize(EmissionLattice(np.array([[1000.0, 0.0]])))
    assert big.scores[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert big.scores[0, 1] == pytest.approx(-1000.0)
    assert np.isfinite(big.scores).all()


def test_normalized_flag_is_checked():
    with pytest.raises(HanjointError):
        EmissionLattice(np.zeros((1, 3)), normalized=True)


VOCAB = Vocabulary(("<ctc_blank>", "|", "가", "나"))


def test_text_to_tokens():
    assert text_to_tokens("가 나", VOCAB, "syllable") == [2, 1, 3]
    with pytest.raises(OutOfVocabulary) as info:
        text_to_tokens("다", VOCAB, "syllable")
    assert (info.value.unit, info.value.position) == ("다", 0)


def test_unit_inventory_at_both_levels():
    # spaces are no unit; a passthrough character is one at both levels
    texts = ["각 a", "가가  나", ""]
    assert unit_inventory(texts, "syllable") == ["a", "가", "각", "나"]
    assert unit_inventory(texts, "grapheme") == ["a", "ㄱ", "ㄴ", "ㅏ"]
    assert unit_inventory([], "grapheme") == []


def test_grapheme_tokens_via_decomposition():
    vocab = Vocabulary.from_units(["ㄱ", "ㄴ", "ㅎ", "ㅡ", "ㅏ", "ㄹ"])
    tokens = text_to_tokens("한글", vocab, "grapheme")
    assert len(tokens) == 6
    assert tokens_to_text(tokens, vocab, "grapheme") == "한글"


def test_tokens_to_text_inverse():
    assert tokens_to_text([2, 1, 3], VOCAB, "syllable") == "가 나"
    with pytest.raises(BlankInLabel):
        tokens_to_text([0, 2], VOCAB, "syllable")
    jamo = Vocabulary.from_units(["ㄱ", "ㅏ"])
    assert tokens_to_text([2, 3, 1, 2, 3, 2], jamo, "grapheme") == "가 각"
    # a lone vowel, or an initial left without one, does not compose
    assert tokens_to_text([3], jamo, "grapheme") is None
    assert tokens_to_text([2, 3, 1, 2], jamo, "grapheme") is None
    assert tokens_to_text([3], jamo) == "ㅏ"
    with pytest.raises(BlankInLabel):
        tokens_to_text([2, 0, 3], jamo, "grapheme")
    # an id outside the vocabulary is rejected as the CTC label check rejects it
    for bad in (-1, jamo.size):
        for tokens, level in (([bad], "syllable"), ([2, bad], "grapheme")):
            with pytest.raises(HanjointError, match=f"token index {bad} outside vocabulary of size 4"):
                tokens_to_text(tokens, jamo, level)


def test_tokens_to_text_rejects_an_unknown_level_as_text_to_tokens_does():
    jamo = Vocabulary.from_units(["ㄱ", "ㅏ"])
    for level in ("graphemes", "Syllable", ""):
        with pytest.raises(ValueError, match=f"^unknown level {level!r}$"):
            text_to_tokens("가", jamo, level)
        for tokens in ([2, 3], []):
            with pytest.raises(ValueError, match=f"^unknown level {level!r}$"):
                tokens_to_text(tokens, jamo, level)
