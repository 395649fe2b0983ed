"""CTC scoring, multi-task loss, gradients, and greedy decoding.

The probability of a label sequence is the sum over every frame-level
alignment that collapses to it (merge repeats, delete blanks), computed in
the log domain by one forward recurrence over a prefix trie of the labels
(:func:`hanjoint._kernels.ctc_alpha`).  The gradient runs that recurrence
forwards and over the time-reversed lattice and label, whose rows are the
backward variables.
The multi-task loss combines the syllable-head and grapheme-head CTC
log-probabilities of one reference with a trade-off weight.  Greedy
decoding returns token ids; :func:`hanjoint.joint.tokens_to_text` renders
them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ConfigError, InfeasibleLabel, OutOfVocabulary
from .lattice_io import (
    BLANK_INDEX,
    EmissionLattice,
    Vocabulary,
    check_tokens,
    normalize,
    require_normalized,
    text_to_tokens,
)

NEG_INF = -np.inf


@dataclass(frozen=True)
class MultiTaskLossConfig:
    """Trade-off weight between the syllable and grapheme heads."""

    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")


@dataclass
class HeadLoss:
    """CTC log-probability of one head, with optional gradient."""

    log_prob: float
    grad: np.ndarray | None = None
    infeasible: bool = False


@dataclass
class LossResult:
    """Weighted multi-task loss: total = lam * syllable + (1 - lam) * grapheme.

    ``gradients``, when requested, holds the gradients of ``total`` with
    respect to each head's logits (syllable first).
    """

    total: float
    syllable_log_prob: float
    grapheme_log_prob: float
    gradients: tuple[np.ndarray, np.ndarray] | None = None


def label_feasible(label: Sequence[int], frames: int) -> bool:
    """True when ``frames`` suffice to emit the label: repeats of the same
    token need a separating blank frame."""
    n = len(label)
    # At most n - 1 repeats, so only a label longer than frames / 2 needs them counted.
    return frames >= 2 * n or frames >= n + sum(map(operator.eq, label, label[1:]))


def _flatten(labels: Sequence[Sequence[int]], vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every token of the batch in label order, and each label's length.
    The first blank or out-of-range token, in label order, is rejected."""
    lengths = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
    flat = np.fromiter(chain.from_iterable(labels), dtype=np.int64, count=int(lengths.sum()))
    check_tokens(flat, vocab_size)
    return flat, lengths


def _label_trie(flat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Prefix trie of the labels that :func:`_flatten` returned, nodes in
    depth order: node 0 is the root (the empty prefix), node n > 0 extends
    ``parent[n]`` by ``token[n]`` at depth ``depth[n]``, and label i ends at
    node ``ends[i]``.

    Sorted, labels that share a prefix are neighbours.  Entry (d, j) of a
    depth x label grid is the length-(d+1) prefix of the j-th sorted label;
    it is a new node unless label j-1 has the same prefix.  Numbering the new
    entries row by row puts the nodes in depth order, and a shared entry
    takes the number of its left neighbour, which is the largest so far in
    its row.  No step loops over tokens in Python, so one label, or labels
    that share nothing, cost a few array operations.
    """
    filled = np.arange(int(lengths.max())) < lengths[:, None]
    padded = np.zeros(filled.shape, dtype=np.int64)
    padded[filled] = flat
    # Tokens are positive and padding is 0, so a prefix sorts before its extensions.
    order = np.lexsort(padded.T[::-1]) if padded.shape[1] else np.arange(len(lengths))
    grid, valid = padded[order].T, filled[order].T

    same = grid[:, 1:] == grid[:, :-1]
    shared = np.logical_and.accumulate(same & valid[:, 1:] & valid[:, :-1], axis=0)
    new = valid.copy()
    new[:, 1:] &= ~shared
    nodes = np.zeros((valid.shape[0] + 1, len(order)), dtype=np.int64)  # row d: node at depth d
    nodes[1:][new] = np.arange(1, np.count_nonzero(new) + 1)
    np.maximum.accumulate(nodes, axis=1, out=nodes)
    depth = np.broadcast_to(np.arange(1, nodes.shape[0])[:, None], valid.shape)

    ends = np.zeros(len(order), dtype=np.int64)
    ends[order] = nodes[lengths[order], np.arange(len(order))]
    root = np.zeros(1, dtype=np.int64)
    return (np.concatenate((root, nodes[:-1][new])), np.concatenate((root, grid[new])),
            np.concatenate((root, depth[new])), ends)


def _end_scores(last: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Each label's log-probability from the last forward row: its end
    node's trailing blank plus, unless it is empty, its last token."""
    final = last[2 * ends]
    nonempty = ends > 0
    final[nonempty] = np.logaddexp(final[nonempty], last[2 * ends[nonempty] - 1])
    return final


def ctc_log_probs(lattice: EmissionLattice, labels: Sequence[Sequence[int]]) -> list[float]:
    """log p(label | lattice) of every label, in order, summed over all
    alignments, from one forward pass over a prefix trie of the batch.

    Every label is checked before any scoring starts.  Labels that do not
    fit in the frame count score -inf, because the forward pass reaches none
    of their end states; use :func:`label_feasible` to distinguish that case
    from underflow.
    """
    require_normalized(lattice)
    flat, lengths = _flatten(labels, lattice.vocab_size)
    if len(labels) == 0:
        return []

    parent, token, depth, ends = _label_trie(flat, lengths)
    last = _kernels.ctc_alpha(lattice.scores, parent, token, depth)
    return _end_scores(last, ends).tolist()


def ctc_log_prob(lattice: EmissionLattice, label: Sequence[int]) -> float:
    """log p(label | lattice): :func:`ctc_log_probs` of one label."""
    return ctc_log_probs(lattice, [label])[0]


def ctc_loss_and_grad(logits: EmissionLattice, label: Sequence[int]) -> HeadLoss:
    """Head log-probability and its gradient with respect to the logits.

    Accepts raw logits or already-normalized lattices (:func:`normalize`
    returns the latter unchanged).  The gradient is the state-occupancy sum
    minus the softmax posterior, frame by frame.
    """
    lattice = normalize(logits)
    flat, lengths = _flatten([label], lattice.vocab_size)
    F, V = lattice.scores.shape
    if not label_feasible(label, F):
        return HeadLoss(NEG_INF, None, infeasible=True)

    # The backward variables are the forward rows of the time-reversed
    # lattice and label, flipped back in time and state, less the emission at
    # t, which the forward rows also hold.  One label's trie is a chain, so
    # the reversed label's trie is the same chain with its tokens reversed.
    alpha = np.empty((F, 2 * len(flat) + 1))
    reversed_alpha = np.empty_like(alpha)
    parent, token, depth, ends = _label_trie(flat, lengths)
    last = _kernels.ctc_alpha(lattice.scores, parent, token, depth, rows=alpha)
    _kernels.ctc_alpha(lattice.scores[::-1], parent, np.concatenate((token[:1], token[:0:-1])), depth,
                       rows=reversed_alpha)
    total = _end_scores(last, ends)[0]

    ext = np.zeros(alpha.shape[1], dtype=np.int64)  # each state's token: the kernel's emit
    ext[1::2] = flat
    occupancy = np.zeros((F, V))
    np.add.at(occupancy.T, ext, np.exp(alpha + reversed_alpha[::-1, ::-1] - lattice.scores[:, ext] - total).T)
    grad = occupancy - np.exp(lattice.scores)
    return HeadLoss(float(total), grad)


def multitask_loss(
    syll_logits: EmissionLattice,
    grap_logits: EmissionLattice,
    reference_text: str,
    syll_vocab: Vocabulary,
    grap_vocab: Vocabulary,
    config: MultiTaskLossConfig = MultiTaskLossConfig(),
    with_grad: bool = False,
) -> LossResult:
    """Weighted sum of the two heads' CTC log-probabilities for one reference.

    Out-of-vocabulary units and infeasible labels are reported per head
    (the raised error carries ``head`` = ``"syllable"`` or ``"grapheme"``).
    """
    heads: dict[str, HeadLoss] = {}
    for head, logits, vocab in (
        ("syllable", syll_logits, syll_vocab),
        ("grapheme", grap_logits, grap_vocab),
    ):
        try:
            label = text_to_tokens(reference_text, vocab, head)
        except OutOfVocabulary as exc:
            raise OutOfVocabulary(exc.unit, exc.position, head=head) from None
        if not label_feasible(label, logits.frames):
            raise InfeasibleLabel(head=head)
        if with_grad:
            heads[head] = ctc_loss_and_grad(logits, label)
        else:
            heads[head] = HeadLoss(ctc_log_prob(normalize(logits), label))

    lam = config.lam
    s, g = heads["syllable"], heads["grapheme"]
    total = lam * s.log_prob + (1.0 - lam) * g.log_prob
    gradients = None
    if with_grad:
        gradients = (lam * s.grad, (1.0 - lam) * g.grad)
    return LossResult(total, s.log_prob, g.log_prob, gradients)


def collapse(path: Sequence[int]) -> list[int]:
    """Inverse CTC process: merge runs of equal tokens, then drop blanks."""
    out: list[int] = []
    prev = -1
    for tok in path:
        if tok != prev:
            if tok != BLANK_INDEX:
                out.append(tok)
            prev = tok
    return out


def greedy_decode(lattice: EmissionLattice) -> list[int]:
    """Tokens of the collapsed per-frame argmax path (ties go to the lowest
    index)."""
    require_normalized(lattice)
    if lattice.frames == 0:
        return []
    return collapse(np.argmax(lattice.scores, axis=1).tolist())
