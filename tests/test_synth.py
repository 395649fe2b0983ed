import math

import numpy as np
import pytest

from hanjoint.ctc import greedy_decode
from hanjoint.errors import OutOfVocabulary, TooLarge, UncoverableHoldout
from hanjoint.hangul import decompose_text
from hanjoint.joint import tokens_to_text
from hanjoint.lattice_io import EmissionLattice, Vocabulary, unit_inventory
from hanjoint.synth import (
    SynthSpec,
    brute_force_best,
    brute_force_ctc,
    gen_lattice,
    gen_oov_corpus,
)

VOCAB = Vocabulary(("<ctc_blank>", "|", "가", "나"))


def test_brute_force_uniform_example():
    lattice = EmissionLattice(np.full((2, 2), math.log(0.5)), normalized=True)
    assert brute_force_ctc(lattice, [1]) == pytest.approx(math.log(0.75), abs=1e-12)


def test_brute_force_empty_label():
    lattice = EmissionLattice(np.log(np.array([[0.7, 0.3]])), normalized=True)
    assert brute_force_ctc(lattice, []) == pytest.approx(math.log(0.7), abs=1e-12)


def test_brute_force_infeasible():
    lattice = EmissionLattice(np.full((1, 2), math.log(0.5)), normalized=True)
    assert brute_force_ctc(lattice, [1, 1]) == -math.inf


def test_enumeration_guard():
    huge = EmissionLattice(np.full((30, 10), -math.log(10)), normalized=True)
    with pytest.raises(TooLarge):
        brute_force_ctc(huge, [1])


def test_brute_force_best_single_frame():
    lattice = EmissionLattice(np.log(np.array([[0.6, 0.1, 0.3]])), normalized=True)
    vocab = Vocabulary(("<ctc_blank>", "|", "a"))
    assert brute_force_best(lattice, vocab) == ("", pytest.approx(math.log(0.6)))


def test_brute_force_on_zero_frames():
    # the one path of a zero-frame lattice is empty and certain
    lattice = EmissionLattice(np.zeros((0, 4)), normalized=True)
    assert brute_force_ctc(lattice, []) == 0.0
    assert brute_force_ctc(lattice, [2]) == -math.inf
    assert brute_force_best(lattice, VOCAB) == ("", 0.0)


def test_gen_lattice_recovers_text():
    lattice = gen_lattice("가 나", VOCAB, "syllable", SynthSpec(frames_per_token=3, blank_gap=1))
    assert lattice.normalized
    assert np.exp(lattice.scores).sum(axis=1) == pytest.approx(np.ones(lattice.frames), abs=1e-9)
    assert tokens_to_text(greedy_decode(lattice), VOCAB) == "가 나"


def test_gen_lattice_deterministic():
    spec = SynthSpec(frames_per_token=2, blank_gap=1, noise=0.1, seed=42)
    a = gen_lattice("나가", VOCAB, "syllable", spec)
    b = gen_lattice("나가", VOCAB, "syllable", spec)
    np.testing.assert_array_equal(a.scores, b.scores)


def test_gen_lattice_separates_repeated_tokens():
    lattice = gen_lattice("가가", VOCAB, "syllable", SynthSpec(frames_per_token=2, blank_gap=0))
    assert tokens_to_text(greedy_decode(lattice), VOCAB) == "가가"


def test_gen_lattice_grapheme_level():
    vocab = Vocabulary.from_units(["ㄱ", "ㅏ", "ㄴ"])
    lattice = gen_lattice("가나", vocab, "grapheme", SynthSpec(frames_per_token=2, blank_gap=1))
    assert tokens_to_text(greedy_decode(lattice), vocab) == "ㄱㅏㄴㅏ"


def test_gen_lattice_oov_needs_holdout():
    with pytest.raises(OutOfVocabulary) as err:
        gen_lattice("가 다", VOCAB, "syllable")
    assert err.value.position == 2
    lattice = gen_lattice("다", VOCAB, "syllable", holdouts=frozenset({"다"}))
    # held-out units come out maximally confused: uniform rows
    np.testing.assert_allclose(np.exp(lattice.scores[0]), np.full(VOCAB.size, 1 / VOCAB.size))


def test_gen_lattice_noise_reaches_wrong_tokens():
    # 가's span holds its two jamo's frames and the gap between them
    lattice = gen_lattice("가", VOCAB, "syllable", SynthSpec(frames_per_token=1, noise=0.3))
    assert lattice.frames == 3
    for probs in np.exp(lattice.scores):
        assert probs[VOCAB.index_of("가")] == pytest.approx(0.7)
        assert probs[0] == pytest.approx(0.1)


# spaces, a repeated syllable, a jamo repeated across a syllable boundary
# (각가: ㄱㅏㄱ, ㄱㅏ), a passthrough character and a held-out syllable
TIMELINE_TEXTS = ["가 나", "가가", "각가", "까 a 가", "흙 닭 가", "가나 다", "a  a"]
TIMELINE_HOLDOUTS = frozenset({"흙"})


def _timeline_vocabs():
    syll = [u for u in unit_inventory(TIMELINE_TEXTS, "syllable") if u not in TIMELINE_HOLDOUTS]
    return Vocabulary.from_units(syll), Vocabulary.from_units(unit_inventory(TIMELINE_TEXTS, "grapheme"))


def _runs(tokens: np.ndarray) -> list[tuple[int, int, int]]:
    """(token, start, end) of each maximal run of one non-blank argmax token."""
    edges = np.flatnonzero(np.diff(tokens)) + 1
    bounds = zip(np.concatenate([[0], edges]), np.concatenate([edges, [tokens.size]]))
    return [(int(tokens[a]), int(a), int(b)) for a, b in bounds if tokens[a] != 0]


@pytest.mark.parametrize("gap", [0, 1, 2])
@pytest.mark.parametrize("text", TIMELINE_TEXTS)
def test_both_heads_share_one_timeline(text, gap):
    syll_vocab, grap_vocab = _timeline_vocabs()
    spec = SynthSpec(frames_per_token=2, blank_gap=gap)
    syll = gen_lattice(text, syll_vocab, "syllable", spec, TIMELINE_HOLDOUTS)
    grap = gen_lattice(text, grap_vocab, "grapheme", spec, TIMELINE_HOLDOUTS)
    assert syll.frames == grap.frames

    # at noise 0 the argmax path of each head collapses back to the text,
    # less the held-out syllables, which read as blank on the syllable head
    shown = "".join(ch for ch in text if ch not in TIMELINE_HOLDOUTS)
    assert tokens_to_text(greedy_decode(syll), syll_vocab) == shown
    assert tokens_to_text(greedy_decode(grap), grap_vocab, "grapheme") == text

    # every grapheme unit is one argmax run; a syllable's peak frames are
    # exactly the frames from its first jamo's run to its last
    jamo_runs = iter(_runs(np.argmax(grap.scores, axis=1)))
    syll_best = np.argmax(syll.scores, axis=1)
    peaks = np.zeros(syll.frames, dtype=bool)
    for ch in text:
        runs = [next(jamo_runs) for _ in decompose_text(ch)]
        start, end = runs[0][1], runs[-1][2]
        if ch in TIMELINE_HOLDOUTS:
            np.testing.assert_allclose(np.exp(syll.scores[start:end]), 1 / syll_vocab.size)
            continue
        token = syll_vocab.delimiter_index if ch == " " else syll_vocab.index_of(ch)
        assert (syll_best[start:end] == token).all()
        peaks[start:end] = True
    assert next(jamo_runs, None) is None
    assert (syll_best[~peaks] == 0).all()


def test_gen_oov_corpus():
    # 하/그/닭 supply 흙's jamo the way a training set would
    texts = ["가 나 흙 하", "나 그 가", "흙 닭 가"]
    corpus = gen_oov_corpus(texts, ["흙"], SynthSpec(frames_per_token=2, blank_gap=1))
    assert "흙" not in corpus.syllable_vocab
    assert "가" in corpus.syllable_vocab
    for jamo in ("ㅎ", "ㅡ", "ㄺ"):
        assert jamo in corpus.grapheme_vocab
    flags = [u.has_holdout for u in corpus.utterances]
    assert flags == [True, False, True]
    assert corpus.utterances[0].holdout_positions == [4]


def test_gen_oov_corpus_uncoverable():
    # ㄺ occurs only inside the holdout, so the grapheme side cannot build it
    with pytest.raises(UncoverableHoldout):
        gen_oov_corpus(["가 흙"], ["흙"], SynthSpec())
