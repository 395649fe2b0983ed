import math

import numpy as np
import pytest

from hanjoint.beam import BeamConfig
from hanjoint.joint import (
    JointConfig,
    beam_decode_texts,
    combine_heads,
    joint_decode,
    joint_decode_batch,
    rescore_candidate,
)
from hanjoint.errors import HanjointError
from hanjoint.lattice_io import EmissionLattice, Vocabulary
from hanjoint.synth import SynthSpec, gen_lattice, gen_oov_corpus, random_lattice

SYLL_VOCAB = Vocabulary(("<ctc_blank>", "|", "가", "나", "다"))
GRAP_VOCAB = Vocabulary(("<ctc_blank>", "|", "ㄱ", "ㄴ", "ㄷ", "ㅏ"))


def exhaustive_config(gamma, frames_syll, frames_grap):
    width = max(
        sum((SYLL_VOCAB.size - 1) ** l for l in range(frames_syll + 1)),
        sum((GRAP_VOCAB.size - 1) ** l for l in range(frames_grap + 1)),
    )
    return JointConfig(gamma=gamma, beam=BeamConfig(beam_width=width))


def random_pair(rng):
    fs = int(rng.integers(1, 4))
    fg = int(rng.integers(1, 5))
    return (
        random_lattice(rng, fs, SYLL_VOCAB.size),
        random_lattice(rng, fg, GRAP_VOCAB.size),
        fs,
        fg,
    )


def test_endpoints_match_single_level_decoders():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        syll_lat, grap_lat, fs, fg = random_pair(rng)
        cfg0 = exhaustive_config(0.0, fs, fg)
        cfg1 = exhaustive_config(1.0, fs, fg)

        grap_top = beam_decode_texts(grap_lat, GRAP_VOCAB, "grapheme", cfg0.beam)[0][0]
        joint0 = joint_decode(syll_lat, grap_lat, SYLL_VOCAB, GRAP_VOCAB, cfg0)
        assert joint0.best.text == grap_top

        syll_top = beam_decode_texts(syll_lat, SYLL_VOCAB, "syllable", cfg1.beam)[0][0]
        joint1 = joint_decode(syll_lat, grap_lat, SYLL_VOCAB, GRAP_VOCAB, cfg1)
        assert joint1.best.text == syll_top


def test_rescoring_consistency_and_union_coverage():
    rng = np.random.default_rng(31)
    for _ in range(25):
        syll_lat, grap_lat, fs, fg = random_pair(rng)
        cfg = exhaustive_config(0.5, fs, fg)
        result = joint_decode(syll_lat, grap_lat, SYLL_VOCAB, GRAP_VOCAB, cfg)

        texts = [c.text for c in result.candidates]
        assert len(texts) == len(set(texts))

        for cand in result.candidates:
            again = rescore_candidate(
                cand.text, syll_lat, grap_lat, SYLL_VOCAB, GRAP_VOCAB, cfg.gamma
            )
            assert again.joint_score == pytest.approx(cand.joint_score, abs=1e-9)

        # every composable hypothesis from either beam appears
        from hanjoint.beam import prefix_beam_search
        from hanjoint.joint import tokens_to_text

        for hyp in prefix_beam_search(syll_lat, SYLL_VOCAB, cfg.beam):
            assert tokens_to_text(hyp.tokens, SYLL_VOCAB, "syllable") in set(texts)
        for hyp in prefix_beam_search(grap_lat, GRAP_VOCAB, cfg.beam):
            text = tokens_to_text(hyp.tokens, GRAP_VOCAB, "grapheme")
            if text is not None:
                assert text in set(texts)


def test_batched_union_scores_equal_single_candidate_rescoring():
    texts = ["가 나 흙 하", "나 그 가", "흙 닭 가", "가나 다", "밝은 흙", "하나"]
    corpus = gen_oov_corpus(texts, ["흙"], SynthSpec(frames_per_token=2, noise=0.3, seed=5))
    cfg = JointConfig(gamma=0.5, beam=BeamConfig(beam_width=20))
    oov = 0
    for utt in corpus.utterances:
        args = (utt.syllable_lattice, utt.grapheme_lattice, corpus.syllable_vocab, corpus.grapheme_vocab)
        result = joint_decode(*args, cfg)
        assert len(result.candidates) > 1
        for cand in result.candidates:
            again = rescore_candidate(cand.text, *args, cfg.gamma)
            assert (again.syll_log_prob, again.grap_log_prob, again.joint_score) == (
                cand.syll_log_prob, cand.grap_log_prob, cand.joint_score
            )
            oov += cand.syll_log_prob is None
    assert oov > 0


def test_non_composable_candidates_are_counted():
    rng = np.random.default_rng(8)
    syll_lat = random_lattice(rng, 2, SYLL_VOCAB.size)
    grap_lat = random_lattice(rng, 2, GRAP_VOCAB.size)
    cfg = exhaustive_config(0.5, 2, 2)
    result = joint_decode(syll_lat, grap_lat, SYLL_VOCAB, GRAP_VOCAB, cfg)
    # sequences like a bare consonant or a leading vowel cannot compose
    assert result.dropped_non_composable > 0


def test_candidate_in_both_beams_outscores_single_heads():
    rng = np.random.default_rng(77)
    syll_lat, grap_lat, *_ = random_pair(rng)
    cand = rescore_candidate("가", syll_lat, grap_lat, SYLL_VOCAB, GRAP_VOCAB, 0.4)
    assert cand.syll_log_prob is not None and cand.grap_log_prob is not None
    assert cand.joint_score > math.log(0.4) + cand.syll_log_prob
    assert cand.joint_score > math.log(0.6) + cand.grap_log_prob


def test_combine_heads_identities():
    p = math.log(0.3)
    assert combine_heads(p, p, 0.5) == pytest.approx(p, abs=1e-12)
    # absent syllable head contributes zero probability
    assert combine_heads(None, p, 0.5) == pytest.approx(math.log(0.5) + p, abs=1e-12)
    assert combine_heads(p, None, 0.5) == pytest.approx(math.log(0.5) + p, abs=1e-12)
    assert combine_heads(None, None, 0.5) == -math.inf
    # endpoint weights drop the other head exactly
    assert combine_heads(p, math.log(0.9), 1.0) == p
    assert combine_heads(math.log(0.9), p, 0.0) == p


def test_oov_syllable_recovered_through_grapheme_beam():
    syll_vocab = Vocabulary(("<ctc_blank>", "|", "가"))
    grap_vocab = Vocabulary(("<ctc_blank>", "|", "ㄱ", "ㅎ", "ㅡ", "ㄺ", "ㅏ"))

    spec = SynthSpec(frames_per_token=2, blank_gap=1)
    syll_lat = gen_lattice("흙", syll_vocab, "syllable", spec, frozenset({"흙"}))
    grap_lat = gen_lattice("흙", grap_vocab, "grapheme", spec)

    cfg = JointConfig(gamma=0.5, beam=BeamConfig(beam_width=50))
    result = joint_decode(syll_lat, grap_lat, syll_vocab, grap_vocab, cfg)

    assert result.best.text == "흙"
    assert result.best.syll_log_prob is None
    assert result.best.provenance == frozenset({"grapheme_beam"})
    # the syllable decoder alone cannot produce the held-out syllable
    syll_only = beam_decode_texts(syll_lat, syll_vocab, "syllable", cfg.beam)
    assert all("흙" not in text for text, _ in syll_only)


def test_joint_decode_batch_matches_joint_decode_and_raises_for_a_bad_lattice():
    rng = np.random.default_rng(31)
    pairs = [random_pair(rng)[:2] for _ in range(4)]
    # a grapheme lattice of the syllable vocabulary's size fails the batch that holds it
    bad = (pairs[1][0], random_lattice(rng, 3, SYLL_VOCAB.size))
    pairs.append((EmissionLattice(np.zeros((0, SYLL_VOCAB.size)), normalized=True), pairs[0][1]))
    cfg = JointConfig(gamma=0.3, beam=BeamConfig(beam_width=6))
    message = f"^lattice vocab size {SYLL_VOCAB.size} != vocabulary size {GRAP_VOCAB.size}$"
    with pytest.raises(HanjointError, match=message):
        joint_decode_batch([pairs[0], bad, *pairs[2:]], SYLL_VOCAB, GRAP_VOCAB, cfg)
    results = joint_decode_batch(pairs, SYLL_VOCAB, GRAP_VOCAB, cfg)
    for k in range(len(pairs)):
        assert results[k] == joint_decode(*pairs[k], SYLL_VOCAB, GRAP_VOCAB, cfg)


@pytest.mark.parametrize("head", ["syllable", "grapheme"])
@pytest.mark.parametrize("extra", [1, -1], ids=["wider", "narrower"])
def test_rescore_candidate_rejects_a_lattice_of_another_width(head, extra):
    rng = np.random.default_rng(32)
    lattices = dict(zip(("syllable", "grapheme"), random_pair(rng)[:2]))
    size = {"syllable": SYLL_VOCAB, "grapheme": GRAP_VOCAB}[head].size
    lattices[head] = random_lattice(rng, 4, size + extra)
    with pytest.raises(HanjointError, match=f"^lattice vocab size {size + extra} != vocabulary size {size}$"):
        rescore_candidate("가", lattices["syllable"], lattices["grapheme"], SYLL_VOCAB, GRAP_VOCAB, 0.5)


def test_zero_frame_lattices_yield_empty_hypothesis():
    syll_lat = EmissionLattice(np.zeros((0, SYLL_VOCAB.size)), normalized=True)
    grap_lat = EmissionLattice(np.zeros((0, GRAP_VOCAB.size)), normalized=True)
    result = joint_decode(syll_lat, grap_lat, SYLL_VOCAB, GRAP_VOCAB, JointConfig())
    assert result.best.text == ""
    assert result.best.joint_score == pytest.approx(0.0, abs=1e-12)


def test_gamma_validation():
    with pytest.raises(ValueError):
        JointConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        JointConfig(gamma=1.1)
