import math

import numpy as np
import pytest

from hanjoint.ctc import greedy_decode
from hanjoint.errors import OutOfVocabulary, TooLarge, UncoverableHoldout
from hanjoint.joint import tokens_to_text
from hanjoint.lattice_io import EmissionLattice, Vocabulary
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


def test_gen_lattice_recovers_text():
    spec = SynthSpec("가 나", frames_per_token=3, blank_gap=1)
    lattice = gen_lattice(spec, VOCAB, "syllable")
    assert lattice.normalized
    assert np.exp(lattice.scores).sum(axis=1) == pytest.approx(np.ones(lattice.frames), abs=1e-9)
    assert tokens_to_text(greedy_decode(lattice), VOCAB) == "가 나"


def test_gen_lattice_deterministic():
    spec = SynthSpec("나가", frames_per_token=2, blank_gap=1, noise=0.1, seed=42)
    a = gen_lattice(spec, VOCAB, "syllable")
    b = gen_lattice(spec, VOCAB, "syllable")
    np.testing.assert_array_equal(a.scores, b.scores)


def test_gen_lattice_separates_repeated_tokens():
    spec = SynthSpec("가가", frames_per_token=2, blank_gap=0)
    lattice = gen_lattice(spec, VOCAB, "syllable")
    assert tokens_to_text(greedy_decode(lattice), VOCAB) == "가가"


def test_gen_lattice_grapheme_level():
    vocab = Vocabulary.from_units(["ㄱ", "ㅏ", "ㄴ"])
    spec = SynthSpec("가나", frames_per_token=2, blank_gap=1)
    lattice = gen_lattice(spec, vocab, "grapheme")
    assert tokens_to_text(greedy_decode(lattice), vocab) == "ㄱㅏㄴㅏ"


def test_gen_lattice_oov_needs_extended_vocab():
    spec = SynthSpec("다")
    with pytest.raises(OutOfVocabulary):
        gen_lattice(spec, VOCAB, "syllable")
    extended = Vocabulary(("<ctc_blank>", "|", "다"))
    lattice = gen_lattice(spec, VOCAB, "syllable", extended)
    # held-out units come out maximally confused: uniform rows
    np.testing.assert_allclose(np.exp(lattice.scores[0]), np.full(VOCAB.size, 1 / VOCAB.size))


def test_gen_lattice_noise_reaches_wrong_tokens():
    spec = SynthSpec("가", frames_per_token=1, noise=0.3)
    lattice = gen_lattice(spec, VOCAB, "syllable")
    probs = np.exp(lattice.scores[0])
    assert probs[VOCAB.index_of("가")] == pytest.approx(0.7)
    assert probs[0] == pytest.approx(0.1)


def test_gen_oov_corpus():
    # 하/그/닭 supply 흙's jamo the way a training set would
    texts = ["가 나 흙 하", "나 그 가", "흙 닭 가"]
    corpus = gen_oov_corpus(texts, ["흙"], SynthSpec("", frames_per_token=2, blank_gap=1))
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
        gen_oov_corpus(["가 흙"], ["흙"], SynthSpec(""))
