import numpy as np
import pytest

from hanjoint.errors import EmptyReference
from hanjoint.metrics import (
    EditSummary,
    EvalReport,
    cer,
    levenshtein,
    recovered_units,
    space_normalize,
    swer,
    wer,
)


def test_levenshtein_basics():
    summary, ops = levenshtein("abc", "abc")
    assert summary.edits == 0
    assert [op for op, _, _ in ops] == ["match"] * 3

    summary, _ = levenshtein("abc", "axc")
    assert (summary.substitutions, summary.insertions, summary.deletions) == (1, 0, 0)

    summary, _ = levenshtein("kitten", "sitting")
    assert summary.edits == 3

    summary, _ = levenshtein("", "ab")
    assert summary.insertions == 2


def test_levenshtein_backtrace_preference():
    # equal-cost parses exist; the backtrace must prefer substitution over
    # deletion+insertion and stay deterministic
    _, ops = levenshtein("ab", "cb")
    assert [op for op, _, _ in ops] == ["sub", "match"]
    _, ops1 = levenshtein("abcdef", "abdcef")
    _, ops2 = levenshtein("abcdef", "abdcef")
    assert ops1 == ops2


def test_cer_examples():
    assert cer("가나다라마", "가나다라마").edits == 0
    one_sub = cer("가나다라마", "가나타라마")
    assert one_sub.rate == pytest.approx(0.2)
    empty_hyp = cer("가나다라", "")
    assert empty_hyp.deletions == 4
    assert empty_hyp.rate == pytest.approx(1.0)
    with pytest.raises(EmptyReference):
        cer("", "가")
    with pytest.raises(EmptyReference):
        cer("  ", "가")


def test_cer_ignores_spacing():
    assert cer("가나 다", "가 나다").edits == 0
    assert cer("가나 다", "가나다").edits == 0


def test_recovered_units():
    held = {"흙", "밝"}
    # every occurrence counts, in reference order, and only units of the set
    assert recovered_units("흙 가 밝 흙", "흙 가 밝 흙", held) == ["흙", "밝", "흙"]
    # spaces do not take part in the alignment
    assert recovered_units("가흙 나밝", "가 흙나 밝", held) == ["흙", "밝"]
    # a substituted occurrence is not recovered; the others still are
    assert recovered_units("흙 가 흙", "흑 가 흙", held) == ["흙"]
    assert recovered_units("흙 가", "", held) == []
    # the alignment is cer's: one hypothesis 흙 reproduces one of two
    assert recovered_units("흙흙", "흙", held) == ["흙"]
    assert cer("흙흙", "흙").deletions == 1


def test_wer_examples():
    assert wer("안녕 하세요", "안녕 하세요").edits == 0
    both_words_wrong = wer("안녕 하세요", "안녕하 세요")
    assert both_words_wrong.rate == pytest.approx(1.0)
    one_of_three = wer("가 나 다", "가 나 따")
    assert one_of_three.rate == pytest.approx(1 / 3)
    with pytest.raises(EmptyReference):
        wer("", "가")


def test_space_normalize_examples():
    assert space_normalize("안녕 하세요", "안녕하 세요") == "안녕 하세요"
    assert space_normalize("안녕 하세요", "안녕 하세요") == "안녕 하세요"
    # a substituted character keeps the reference's spacing
    assert space_normalize("가나 다", "가타다") == "가타 다"


def test_space_normalize_preserves_characters():
    rng = np.random.default_rng(4)
    syllables = list("가나다라마바사아자차")
    for _ in range(200):
        ref_chars = [str(rng.choice(syllables)) for _ in range(int(rng.integers(1, 12)))]
        hyp_chars = [str(rng.choice(syllables)) for _ in range(int(rng.integers(0, 12)))]
        ref = _respace(rng, ref_chars)
        hyp = _respace(rng, hyp_chars)
        normalized = space_normalize(ref, hyp)
        assert normalized.replace(" ", "") == "".join(hyp_chars)


def _respace(rng, chars):
    pieces = []
    for k, ch in enumerate(chars):
        pieces.append(ch)
        if k + 1 < len(chars) and rng.random() < 0.3:
            pieces.append(" ")
    return "".join(pieces)


def test_swer_examples():
    assert swer("안녕 하세요", "안녕하 세요").edits == 0
    assert swer("안녕 하세요", "안녕 하세요").edits == 0
    assert swer("가나 다", "가타다").rate == pytest.approx(0.5)


def test_spacing_only_difference_scores_zero():
    rng = np.random.default_rng(14)
    syllables = list("가나다라마바사")
    for _ in range(100):
        chars = [str(rng.choice(syllables)) for _ in range(int(rng.integers(2, 10)))]
        ref = _respace(rng, chars)
        hyp = _respace(rng, chars)
        assert cer(ref, hyp).edits == 0
        assert swer(ref, hyp).edits == 0
        assert swer(ref, hyp).edits <= wer(ref, hyp).edits


def test_rates_can_exceed_one():
    heavy = cer("가", "나다라")
    assert heavy.rate > 1.0


def test_zero_rate_characterizations():
    # CER/sWER vanish exactly when the non-space content matches; WER
    # exactly when the word sequences match
    rng = np.random.default_rng(21)
    pool = list("가나다")
    for _ in range(300):
        ref_chars = [str(rng.choice(pool)) for _ in range(int(rng.integers(1, 6)))]
        hyp_chars = [str(rng.choice(pool)) for _ in range(int(rng.integers(1, 6)))]
        ref = _respace(rng, ref_chars)
        hyp = _respace(rng, hyp_chars)
        same_content = ref_chars == hyp_chars
        assert (cer(ref, hyp).edits == 0) == same_content
        assert (swer(ref, hyp).edits == 0) == same_content
        assert (wer(ref, hyp).edits == 0) == (ref.split() == hyp.split())


def test_space_normalize_idempotent():
    rng = np.random.default_rng(22)
    pool = list("가나다라마")
    for _ in range(200):
        ref = _respace(rng, [str(rng.choice(pool)) for _ in range(int(rng.integers(1, 10)))])
        hyp = _respace(rng, [str(rng.choice(pool)) for _ in range(int(rng.integers(0, 10)))])
        once = space_normalize(ref, hyp)
        assert space_normalize(ref, once) == once


def test_edit_summary_fields_reproduce_rate():
    s = EditSummary(substitutions=1, insertions=2, deletions=3, reference_length=12)
    assert s.rate == pytest.approx(0.5)
    assert s.edits == 6


def test_corpus_micro_average():
    report = EvalReport.from_pairs(
        [
            ("u1", "가", "나"),  # 1 edit / 1 char
            ("u2", "가나다라마바사아자", "가나다라마바사아자"),  # 0 edits / 9 chars
        ]
    )
    assert report.corpus_cer == pytest.approx(0.1)
    # distinctly not the mean of per-utterance rates (which would be 0.5)
    rates = [u.cer.rate for u in report.utterances]
    assert np.mean(rates) == pytest.approx(0.5)
