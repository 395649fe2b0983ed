"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Criteria 1-5 and 8 run the ``selfcheck`` oracles with this
module's own seeds and instance counts; their tolerances (1e-9, 1e-3, 1e-9
and 1e-12) live in :mod:`hanjoint.selfcheck` and nowhere else."""

import json
import time

import numpy as np
import pytest

from hanjoint import _kernels, hangul, selfcheck
from hanjoint.beam import BeamConfig
from hanjoint.cli import main
from hanjoint.joint import JointConfig, beam_decode_texts, joint_decode
from hanjoint.lattice_io import Vocabulary, save_lattice
from hanjoint.metrics import cer, space_normalize, swer, wer
from hanjoint.synth import SynthSpec, gen_oov_corpus, random_lattice


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    _kernels.warmup()


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def timed(check, *args, **kwargs):
    """Run one selfcheck oracle, assert it passed, and return its detail
    line with the wall time the call took."""
    start = time.perf_counter()
    result = check(*args, **kwargs)
    elapsed = time.perf_counter() - start
    assert result.passed, result.line()
    return result.detail, elapsed


# -----------------------------------------------------------------------
# 1. CTC scoring equals brute-force enumeration
# -----------------------------------------------------------------------

def test_criterion_1_ctc_oracle_equivalence():
    # F <= 6, V <= 4, |Y| <= 3
    detail, elapsed = timed(selfcheck.check_ctc_oracle, instances=200, seed=9001)
    assert elapsed < 5.0
    report("criterion 1 (ctc oracle)", detail)


# -----------------------------------------------------------------------
# 2. Analytic gradient vs central finite differences
# -----------------------------------------------------------------------

def test_criterion_2_gradient_check():
    detail, _ = timed(selfcheck.check_gradients, instances=50, seed=9002)
    report("criterion 2 (gradient)", detail)


# -----------------------------------------------------------------------
# 3. Beam search is exact under an exhaustive beam
# -----------------------------------------------------------------------

def test_criterion_3_beam_exactness():
    detail, _ = timed(selfcheck.check_beam_exactness, instances=100, seed=9003)
    report("criterion 3 (beam exactness)", detail)


# -----------------------------------------------------------------------
# 4. Joint decoder endpoints match the single-level decoders
# -----------------------------------------------------------------------

def test_criterion_4_joint_endpoints():
    detail, _ = timed(selfcheck.check_joint_endpoints, instances=100, seed=9004)
    report("criterion 4 (joint endpoints)", detail)


# -----------------------------------------------------------------------
# 5. Hangul round trip over the whole precomposed block
# -----------------------------------------------------------------------

def test_criterion_5_hangul_round_trip():
    detail, elapsed = timed(selfcheck.check_hangul_round_trip)
    assert elapsed < 1.0
    report("criterion 5 (hangul round trip)", detail)


# -----------------------------------------------------------------------
# 6. OOV recovery: joint decoding recovers what syllable decoding cannot
# -----------------------------------------------------------------------

DONORS = ["하 그 닭", "비 소 무", "전 길 남", "옷 하 비", "그 전 소"]
HOLDOUTS = ["흙", "밝", "솜", "준", "김", "돌", "산", "물", "허", "입"]
OOV_TEXTS = DONORS + [f"하 {h} 그" for h in HOLDOUTS] + [f"{HOLDOUTS[0]} 비 {HOLDOUTS[1]}"]


def _recoveries(corpus, decode_texts):
    """(types, occurrences) of held-out syllables reproduced per utterance."""
    types, occurrences = set(), 0
    for utt, hyp in zip(corpus.utterances, decode_texts):
        for pos in utt.holdout_positions:
            ref_chars = [ch for ch in utt.text if ch != " "]
            hyp_chars = [ch for ch in hyp if ch != " "]
            from hanjoint.metrics import levenshtein

            _, ops = levenshtein(ref_chars, hyp_chars)
            stripped_pos = len([c for c in utt.text[:pos] if c != " "])
            for op, i, _ in ops:
                if op == "match" and i == stripped_pos:
                    types.add(utt.text[pos])
                    occurrences += 1
    return types, occurrences


def _decode_corpus(corpus, mode, gamma=0.5, width=30):
    texts = []
    for utt in corpus.utterances:
        if mode == "joint":
            result = joint_decode(
                utt.syllable_lattice, utt.grapheme_lattice,
                corpus.syllable_vocab, corpus.grapheme_vocab,
                JointConfig(gamma=gamma, beam=BeamConfig(beam_width=width)),
            )
            texts.append(result.best.text)
        else:
            pairs = beam_decode_texts(
                utt.syllable_lattice, corpus.syllable_vocab, "syllable",
                BeamConfig(beam_width=width),
            )
            texts.append(pairs[0][0])
    return texts


def test_criterion_6_oov_recovery(tmp_path, capsys):
    spec = SynthSpec(frames_per_token=2, blank_gap=1, noise=0.0)
    corpus = gen_oov_corpus(OOV_TEXTS, HOLDOUTS, spec)
    total_occurrences = sum(len(u.holdout_positions) for u in corpus.utterances)
    assert total_occurrences == 12  # 10 holdouts + 2 repeats

    syll_texts = _decode_corpus(corpus, "syllable")
    syll_types, syll_occ = _recoveries(corpus, syll_texts)
    assert syll_types == set() and syll_occ == 0

    joint_texts = _decode_corpus(corpus, "joint")
    joint_types, joint_occ = _recoveries(corpus, joint_texts)
    assert joint_types == set(HOLDOUTS)
    assert joint_occ == total_occurrences

    # under noise, joint recoveries still contain the syllable-only ones
    noisy = gen_oov_corpus(OOV_TEXTS, HOLDOUTS, SynthSpec(2, 1, noise=0.4))
    noisy_syll_types, _ = _recoveries(noisy, _decode_corpus(noisy, "syllable"))
    noisy_joint_types, _ = _recoveries(noisy, _decode_corpus(noisy, "joint"))
    assert noisy_syll_types <= noisy_joint_types

    # the CLI report reproduces the Total / OOV / Recovery-per-mode columns
    corpus_dir = tmp_path / "oov"
    texts_file = tmp_path / "texts.txt"
    texts_file.write_text("\n".join(OOV_TEXTS) + "\n", encoding="utf-8")
    assert main(["synth", "--texts", str(texts_file), "--holdouts", ",".join(HOLDOUTS),
                 "--frames-per-token", "2", "--out", str(corpus_dir)]) == 0
    grap_out = tmp_path / "grap.jsonl"
    joint_out = tmp_path / "joint.jsonl"
    assert main(["decode", "--corpus", str(corpus_dir), "--mode", "beam", "--level",
                 "grapheme", "--beam", "30", "--out", str(grap_out)]) == 0
    assert main(["decode", "--corpus", str(corpus_dir), "--mode", "joint", "--beam", "30",
                 "--out", str(joint_out)]) == 0
    report_out = tmp_path / "report.json"
    assert main(["oov-report", "--refs", str(corpus_dir / "refs.tsv"),
                 "--decodes", str(grap_out), "--decodes", str(joint_out),
                 "--train-vocab", str(corpus_dir / "syllable.vocab"),
                 "--grapheme-vocab", str(corpus_dir / "grapheme.vocab"),
                 "--out", str(report_out)]) == 0
    record = json.loads(report_out.read_text().strip())
    assert record["oov_vocab"] == 10
    assert record["oov_occurrences"] == 12
    assert set(record["recovery"]) == {"beam:grapheme", "joint"}
    assert record["recovery"]["joint"] == {"vocab": 10, "occurrences": 12}
    table = capsys.readouterr().err
    for column in ("Total", "OOV", "Recovery"):
        assert column in table
    for row in ("# Vocab.", "# Occur."):
        assert row in table

    report("criterion 6 (OOV recovery)",
           "syllable-only 0%, joint 100% of 12 held-out occurrences; table columns reproduced")


# -----------------------------------------------------------------------
# 7. Metric properties on spacing perturbations
# -----------------------------------------------------------------------

def test_criterion_7_metric_properties():
    rng = np.random.default_rng(9007)
    pool = list("가나다라마바사아자차카타파하")
    checked = 0
    while checked < 1000:
        chars = [str(rng.choice(pool)) for _ in range(int(rng.integers(2, 15)))]
        gaps = len(chars) - 1
        ref_mask = rng.random(gaps) < 0.35
        hyp_mask = rng.random(gaps) < 0.35
        if ref_mask.tolist() == hyp_mask.tolist():
            continue

        def respace(mask):
            pieces = [chars[0]]
            for k in range(gaps):
                if mask[k]:
                    pieces.append(" ")
                pieces.append(chars[k + 1])
            return "".join(pieces)

        ref, hyp = respace(ref_mask), respace(hyp_mask)
        assert cer(ref, hyp).edits == 0
        assert swer(ref, hyp).edits == 0
        assert wer(ref, hyp).edits > 0
        assert space_normalize(ref, hyp).replace(" ", "") == "".join(chars)
        checked += 1
    report("criterion 7 (metrics)", "1000 spacing-perturbed pairs: CER=0, sWER=0, WER>0, characters preserved")


# -----------------------------------------------------------------------
# 8. Loss endpoints and the lambda = 0.5 mean identity
# -----------------------------------------------------------------------

def test_criterion_8_loss_endpoints():
    detail, _ = timed(selfcheck.check_loss_endpoints, seed=9008)
    report("criterion 8 (loss endpoints)", detail)


# -----------------------------------------------------------------------
# 9. Determinism across runs, plus realistic-shape throughput
# -----------------------------------------------------------------------

def test_criterion_9_determinism_and_throughput(tmp_path):
    corpus_dir = tmp_path / "corpus100"
    assert main(["synth", "--random", "100", "--seed", "2718",
                 "--frames-per-token", "2", "--out", str(corpus_dir)]) == 0
    outputs = []
    for run in range(2):
        out = tmp_path / f"decode_run{run}.jsonl"
        assert main(["decode", "--corpus", str(corpus_dir), "--mode", "joint",
                     "--beam", "8", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    # realistic shape: F=500 frames, V=2302 syllable tokens, beam 100
    frames, vocab_size, n_utts = 500, 2302, 2
    units = [chr(hangul.SYLLABLE_BASE + i) for i in range(vocab_size - 2)]
    vocab = Vocabulary.from_units(units)
    big_dir = tmp_path / "big"
    big_dir.mkdir()
    vocab.save(big_dir / "syllable.vocab")
    rng = np.random.default_rng(9009)
    for k in range(n_utts):
        lattice = random_lattice(rng, frames, vocab_size, scale=2.0)
        save_lattice(lattice, big_dir / f"utt{k:04d}.syll.lat")
    out = big_dir / "decode.jsonl"
    start = time.perf_counter()
    assert main(["decode", "--corpus", str(big_dir), "--mode", "beam", "--level", "syllable",
                 "--beam", "100", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    frames_per_sec = n_utts * frames / elapsed
    report(
        "criterion 9 (determinism & throughput)",
        f"100 utterances byte-identical across two runs; beam-100 decode at "
        f"F={frames}, V={vocab_size}: {elapsed / n_utts:.2f}s/utt ({frames_per_sec:.0f} frames/s)",
    )
