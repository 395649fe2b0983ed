import math

import numpy as np
import pytest

from hanjoint._kernels import _logsumexp3
from hanjoint.ctc import (
    MultiTaskLossConfig,
    _flatten,
    _label_trie,
    collapse,
    ctc_log_prob,
    ctc_log_probs,
    ctc_loss_and_grad,
    greedy_decode,
    label_feasible,
    multitask_loss,
)
from hanjoint.errors import BlankInLabel, HanjointError, InfeasibleLabel, OutOfVocabulary
from hanjoint.joint import tokens_to_text
from hanjoint.lattice_io import EmissionLattice, Vocabulary, normalize
from hanjoint.synth import brute_force_all, brute_force_ctc, random_lattice

AB_VOCAB = Vocabulary(("<ctc_blank>", "|", "a", "b"))


def uniform_lattice(frames, vocab_size):
    return EmissionLattice(np.full((frames, vocab_size), math.log(1.0 / vocab_size)), normalized=True)


def test_uniform_two_frames():
    # alignments for [a] in 2 frames: aa, a-, -a -> 3/4
    lattice = uniform_lattice(2, 2)
    vocab_ab = EmissionLattice(lattice.scores, normalized=True)
    assert ctc_log_prob(vocab_ab, [1]) == pytest.approx(math.log(0.75), abs=1e-12)


def test_single_frame():
    lattice = EmissionLattice(np.log(np.array([[0.1, 0.9]])), normalized=True)
    assert ctc_log_prob(lattice, [1]) == pytest.approx(math.log(0.9), abs=1e-12)


def test_infeasible_repeat():
    lattice = uniform_lattice(1, 2)
    assert not label_feasible([1, 1], 1)
    assert ctc_log_prob(lattice, [1, 1]) == -math.inf
    # feasible with a blank frame between the repeats
    assert label_feasible([1, 1], 3)


def test_label_feasible_counts_repeats_near_the_frame_limit():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        label = rng.integers(1, 3, size=int(rng.integers(0, 9)))
        needed = len(label) + sum(int(a == b) for a, b in zip(label, label[1:]))
        for frames in (needed - 1, needed, 2 * len(label) - 1, 2 * len(label)):
            assert label_feasible(label, frames) == (frames >= needed)
            assert label_feasible(tuple(label.tolist()), frames) == (frames >= needed)


def test_blank_in_label_rejected():
    with pytest.raises(BlankInLabel):
        ctc_log_prob(uniform_lattice(2, 2), [0])


def test_requires_normalized():
    with pytest.raises(HanjointError):
        ctc_log_prob(EmissionLattice(np.zeros((2, 2))), [1])


def test_empty_label_and_empty_lattice():
    lattice = EmissionLattice(np.log(np.array([[0.7, 0.3]])), normalized=True)
    assert ctc_log_prob(lattice, []) == pytest.approx(math.log(0.7))
    empty = EmissionLattice(np.zeros((0, 2)), normalized=True)
    assert ctc_log_prob(empty, []) == 0.0
    assert ctc_log_prob(empty, [1]) == -math.inf


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(100):
        F = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        lattice = random_lattice(rng, F, V)
        L = int(rng.integers(0, 4))
        label = [int(rng.integers(1, V)) for _ in range(L)]
        expected = brute_force_ctc(lattice, label)
        got = ctc_log_prob(lattice, label)
        if expected == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(expected, abs=1e-9)


def test_total_mass_is_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        lattice = random_lattice(rng, int(rng.integers(1, 6)), int(rng.integers(2, 5)))
        masses = brute_force_all(lattice)
        assert sum(math.exp(lp) for lp in masses.values()) == pytest.approx(1.0, abs=1e-9)
        # the DP agrees label by label, so its exp-sum is also 1
        total = sum(math.exp(ctc_log_prob(lattice, list(label))) for label in masses)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_more_frames_never_lose_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(50):
        F = int(rng.integers(1, 6))
        lattice = random_lattice(rng, F, 3)
        extended = EmissionLattice(
            np.vstack([lattice.scores, random_lattice(rng, 2, 3).scores]), normalized=True
        )
        for label in ([1], [1, 2], [2, 2], [1, 1, 2]):
            if ctc_log_prob(lattice, label) > -math.inf:
                assert ctc_log_prob(extended, label) > -math.inf


def loop_reference(lattice, label):
    """One label at a time through the forward recurrence over its
    blank-extended states (blank, y1, blank, ..., yL, blank), frame by frame
    and vectorized over the states, with the kernel's own
    :func:`_logsumexp3` arithmetic.  The trie kernel must match it bit for
    bit."""
    if lattice.frames == 0:
        return 0.0 if len(label) == 0 else -math.inf
    if not label_feasible(label, lattice.frames):
        return -math.inf
    S = 2 * len(label) + 1
    ext = np.zeros(S, dtype=np.int64)
    ext[1::2] = label
    skip = np.zeros(S, dtype=np.bool_)  # s-2 -> s is legal into a token unlike the one before
    skip[3::2] = ext[3::2] != ext[1:-2:2]
    lp_ext = lattice.scores[:, ext]
    alpha = lp_ext[0].copy()
    alpha[2:] = -math.inf
    step = np.empty(S)
    jump = np.empty(S)
    with np.errstate(divide="ignore"):
        for row in lp_ext[1:]:
            step[0] = -math.inf
            step[1:] = alpha[:-1]
            jump[:2] = -math.inf
            jump[2:] = np.where(skip[2:], alpha[:-2], -math.inf)
            alpha = _logsumexp3(alpha, step, jump) + row
    total = alpha[-1]
    if S > 1:
        total = np.logaddexp(total, alpha[-2])
    return float(total)


def test_batch_equals_loop_reference_exactly():
    rng = np.random.default_rng(61)
    for _ in range(60):
        F = int(rng.integers(1, 30))
        V = int(rng.integers(2, 6))
        lattice = random_lattice(rng, F, V)
        labels = [
            [int(rng.integers(1, V)) for _ in range(int(rng.integers(0, 20)))]
            for _ in range(int(rng.integers(1, 12)))
        ]
        # an empty label, repeated tokens (skip disabled), and a label too
        # long for the frame count ride in every batch
        labels += [[], [1, 1, 1], [1] * (F + 1)]
        assert ctc_log_probs(lattice, labels) == [loop_reference(lattice, label) for label in labels]


def test_trie_edge_cases_equal_loop_reference_exactly():
    rng = np.random.default_rng(67)
    stem = [1, 2, 3, 1, 2]
    labels = [
        stem + [4, 1, 3], stem + [4, 1], stem + [4, 2],  # deep shared prefixes
        stem, stem, [1, 2, 3],  # duplicates, and labels that are prefixes of others
        stem + [2], stem + [2, 2, 4],  # a repeated token right after the shared prefix
        [], [1], [1, 1], [2, 1],
        [3] * 60, stem * 12,  # infeasible for every frame count below
    ]
    for F in (1, 2, 3, 7, 16, 41):
        lattice = random_lattice(rng, F, 5)
        expected = [loop_reference(lattice, label) for label in labels]
        assert ctc_log_probs(lattice, labels) == expected
        assert ctc_log_probs(lattice, labels[::-1]) == expected[::-1]
        assert [ctc_log_prob(lattice, label) for label in labels] == expected


def test_trie_on_random_shared_prefixes_equals_loop_reference_exactly():
    rng = np.random.default_rng(71)
    for _ in range(40):
        F = int(rng.integers(1, 25))
        V = int(rng.integers(2, 5))
        lattice = random_lattice(rng, F, V)
        stems = [[int(rng.integers(1, V)) for _ in range(int(rng.integers(0, 10)))] for _ in range(3)]
        labels = []
        for _ in range(int(rng.integers(1, 30))):
            stem = stems[int(rng.integers(0, 3))]
            labels.append(stem[: int(rng.integers(0, len(stem) + 1))]
                          + [int(rng.integers(1, V)) for _ in range(int(rng.integers(0, 4)))])
        assert ctc_log_probs(lattice, labels) == [loop_reference(lattice, label) for label in labels]


def test_label_trie_holds_each_prefix_once_in_depth_order():
    rng = np.random.default_rng(73)
    for _ in range(30):
        labels = [[int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 7)))]
                  for _ in range(int(rng.integers(1, 20)))]
        parent, token, depth, ends = _label_trie(*_flatten(labels, 4))
        prefixes = [()]
        for n in range(1, len(parent)):
            assert parent[n] < n and depth[n] == depth[parent[n]] + 1
            prefixes.append(prefixes[parent[n]] + (int(token[n]),))
        assert np.all(np.diff(depth) >= 0)
        assert len(set(prefixes)) == len(prefixes)
        assert set(prefixes) == {tuple(label[:d]) for label in labels for d in range(len(label) + 1)}
        assert [prefixes[e] for e in ends] == [tuple(label) for label in labels]


def test_batch_infeasible_and_zero_frames():
    lattice = random_lattice(np.random.default_rng(2), 3, 3)
    got = ctc_log_probs(lattice, [[1, 1, 1], [2], [1, 2, 1, 2]])
    assert got[0] == -math.inf and got[2] == -math.inf
    assert got[1] == loop_reference(lattice, [2])
    assert ctc_log_probs(lattice, [[2, 2, 2], [1, 2, 1, 2]]) == [-math.inf, -math.inf]
    assert ctc_log_probs(lattice, []) == []
    empty = EmissionLattice(np.zeros((0, 3)), normalized=True)
    assert ctc_log_probs(empty, [[], [1], []]) == [0.0, -math.inf, 0.0]

    # feasible, infeasible and empty labels that share trie prefixes: the
    # forward pass reaches no end state of a label that does not fit
    lattice = random_lattice(np.random.default_rng(9), 4, 3)
    labels = [[1, 2], [1, 2, 1, 2, 1], [], [1, 1, 1], [1, 2, 2], [2], [2, 2, 1, 1]]
    got = ctc_log_probs(lattice, labels)
    assert got == [loop_reference(lattice, label) for label in labels]
    assert [score == -math.inf for score in got] == [False, True, False, True, False, False, True]


@pytest.mark.parametrize("labels, error", [
    ([[1], [1, 5], [0]], HanjointError),
    ([[1], [0], [1, 5]], BlankInLabel),
    ([[2, -1], [0]], HanjointError),
    ([[], [2, 2, 0, 7]], BlankInLabel),
])
def test_batch_check_raises_for_the_first_bad_token(labels, error):
    with pytest.raises(HanjointError) as info:
        ctc_log_probs(uniform_lattice(4, 3), labels)
    assert type(info.value) is error


@pytest.mark.parametrize("bad", [[0], [1, 5]])
def test_batch_rejects_bad_label_like_single_call(bad):
    lattice = uniform_lattice(4, 3)
    with pytest.raises(HanjointError) as single:
        ctc_log_prob(lattice, bad)
    with pytest.raises(HanjointError) as batch:
        ctc_log_probs(lattice, [[1], [2, 1], bad, [1, 1, 2]])
    assert type(batch.value) is type(single.value)
    assert str(batch.value) == str(single.value)
    # checked before any work, also when the lattice has no frames
    empty = EmissionLattice(np.zeros((0, 3)), normalized=True)
    with pytest.raises(type(single.value)):
        ctc_log_probs(empty, [[1], bad])


# ---- gradients ----


def fd_gradient(logits: np.ndarray, label, eps=1e-4):
    grad = np.zeros_like(logits)
    for t in range(logits.shape[0]):
        for k in range(logits.shape[1]):
            plus, minus = logits.copy(), logits.copy()
            plus[t, k] += eps
            minus[t, k] -= eps
            hi = ctc_log_prob(normalize(EmissionLattice(plus)), label)
            lo = ctc_log_prob(normalize(EmissionLattice(minus)), label)
            grad[t, k] = (hi - lo) / (2 * eps)
    return grad


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    for _ in range(25):
        F = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        logits = rng.normal(size=(F, V))
        label = [int(rng.integers(1, V)) for _ in range(int(rng.integers(0, 4)))]
        if not label_feasible(label, F):
            continue
        result = ctc_loss_and_grad(EmissionLattice(logits), label)
        assert result.log_prob == ctc_log_prob(normalize(EmissionLattice(logits)), label)
        assert relative_error(result.grad, fd_gradient(logits, label)).max() <= 1e-3


def test_gradient_closed_form_single_frame():
    logits = np.array([[0.3, 1.1, -0.4]])
    result = ctc_loss_and_grad(EmissionLattice(logits), [1])
    probs = np.exp(normalize(EmissionLattice(logits)).scores[0])
    assert result.grad[0, 1] == pytest.approx(1.0 - probs[1], abs=1e-12)
    assert result.grad[0, 0] == pytest.approx(-probs[0], abs=1e-12)
    assert result.grad[0, 2] == pytest.approx(-probs[2], abs=1e-12)


def test_gradient_symmetric_frames():
    # uniform rows and a palindromic label are invariant under time
    # reversal, so frames t and F-1-t carry identical gradients
    for frames, label in ((3, [2]), (4, [1]), (5, [1, 2, 1])):
        result = ctc_loss_and_grad(EmissionLattice(np.zeros((frames, 3))), label)
        np.testing.assert_allclose(result.grad, result.grad[::-1], atol=1e-12)


def test_gradient_infeasible_flag():
    for frames, label in ((1, [1, 1]), (0, [1]), (0, [2, 2])):
        result = ctc_loss_and_grad(EmissionLattice(np.zeros((frames, 3))), label)
        assert result.infeasible
        assert result.log_prob == -math.inf
        assert result.grad is None
    # with no frames the empty label is certain and has nothing to differentiate
    result = ctc_loss_and_grad(EmissionLattice(np.zeros((0, 3))), [])
    assert not result.infeasible
    assert result.log_prob == 0.0
    assert result.grad.shape == (0, 3)


# ---- multi-task loss ----

SYLL_VOCAB = Vocabulary(("<ctc_blank>", "|", "가", "나"))
GRAP_VOCAB = Vocabulary(("<ctc_blank>", "|", "ㄱ", "ㄴ", "ㅏ"))


def make_loss_inputs(rng):
    return (
        EmissionLattice(rng.normal(size=(6, SYLL_VOCAB.size))),
        EmissionLattice(rng.normal(size=(8, GRAP_VOCAB.size))),
    )


def test_multitask_endpoints_and_mean():
    rng = np.random.default_rng(8)
    syll, grap = make_loss_inputs(rng)
    text = "가 나"
    at_one = multitask_loss(syll, grap, text, SYLL_VOCAB, GRAP_VOCAB, MultiTaskLossConfig(1.0))
    assert at_one.total == at_one.syllable_log_prob
    at_zero = multitask_loss(syll, grap, text, SYLL_VOCAB, GRAP_VOCAB, MultiTaskLossConfig(0.0))
    assert at_zero.total == at_zero.grapheme_log_prob
    mid = multitask_loss(syll, grap, text, SYLL_VOCAB, GRAP_VOCAB, MultiTaskLossConfig(0.5))
    assert mid.total == pytest.approx(
        (mid.syllable_log_prob + mid.grapheme_log_prob) / 2, abs=1e-12
    )
    assert mid.syllable_log_prob <= 0 and mid.grapheme_log_prob <= 0


def test_multitask_gradients():
    rng = np.random.default_rng(12)
    syll, grap = make_loss_inputs(rng)
    result = multitask_loss(syll, grap, "가", SYLL_VOCAB, GRAP_VOCAB, MultiTaskLossConfig(0.25), with_grad=True)
    syll_head = ctc_loss_and_grad(syll, [2])
    np.testing.assert_allclose(result.gradients[0], 0.25 * syll_head.grad, atol=1e-12)


def test_multitask_oov_names_head():
    rng = np.random.default_rng(13)
    syll, grap = make_loss_inputs(rng)
    with pytest.raises(OutOfVocabulary) as info:
        multitask_loss(syll, grap, "다", SYLL_VOCAB, GRAP_VOCAB)
    assert info.value.head == "syllable"
    # "나나" decomposes fine but needs a grapheme the vocab lacks? use latin char
    with pytest.raises(OutOfVocabulary) as info:
        multitask_loss(syll, grap, "가X", Vocabulary(("<ctc_blank>", "|", "가", "X")), GRAP_VOCAB)
    assert info.value.head == "grapheme"


def test_multitask_infeasible_names_head():
    rng = np.random.default_rng(14)
    _, grap = make_loss_inputs(rng)
    tiny = EmissionLattice(rng.normal(size=(1, SYLL_VOCAB.size)))
    with pytest.raises(InfeasibleLabel) as info:
        multitask_loss(tiny, grap, "가 나", SYLL_VOCAB, GRAP_VOCAB)
    assert info.value.head == "syllable"
    assert multitask_loss(tiny, grap, "가", SYLL_VOCAB, GRAP_VOCAB).total <= 0


def test_lambda_validation():
    with pytest.raises(ValueError):
        MultiTaskLossConfig(1.5)


# ---- greedy decoding ----


def peaked(rows, vocab_size):
    scores = np.full((len(rows), vocab_size), 0.05 / (vocab_size - 1))
    for t, tok in enumerate(rows):
        scores[t] = 0.05 / (vocab_size - 1)
        scores[t, tok] = 0.95
    return EmissionLattice(np.log(scores), normalized=True)


def test_collapse():
    assert collapse([0, 2, 2, 0, 3]) == [2, 3]
    assert collapse([0, 0, 0]) == []
    assert collapse([2, 0, 2]) == [2, 2]


def test_greedy_examples():
    assert greedy_decode(peaked([0, 2, 2, 0, 3], 4)) == [2, 3]
    assert greedy_decode(peaked([0, 0, 0], 4)) == []
    assert greedy_decode(peaked([2, 0, 2], 4)) == [2, 2]
    assert greedy_decode(peaked([2, 1, 3], 4)) == [2, 1, 3]
    assert tokens_to_text(greedy_decode(peaked([2, 1, 3], 4)), AB_VOCAB) == "a b"
    assert greedy_decode(EmissionLattice(np.zeros((0, 4)), normalized=True)) == []


def test_greedy_ties_take_lowest_index():
    assert greedy_decode(uniform_lattice(2, 3)) == []


def test_greedy_invariant_under_row_rescaling():
    rng = np.random.default_rng(77)
    for _ in range(20):
        lattice = random_lattice(rng, 6, 4)
        rescaled = normalize(EmissionLattice(lattice.scores * 2.5 + 1.0))
        assert greedy_decode(lattice) == greedy_decode(rescaled)
