"""CTC scoring, multi-task loss, gradients, and greedy decoding.

The probability of a label sequence is the sum over every frame-level
alignment that collapses to it (merge repeats, delete blanks), computed by
forward-backward over the blank-extended state sequence in the log domain.
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
from .errors import BlankInLabel, ConfigError, HanjointError, InfeasibleLabel, OutOfVocabulary
from .lattice_io import (
    BLANK_INDEX,
    EmissionLattice,
    Vocabulary,
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


def extended_states(label: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Blank-extended state sequence and its skip-transition mask."""
    L = len(label)
    ext = np.full(2 * L + 1, BLANK_INDEX, dtype=np.int64)
    ext[1::2] = label
    skip = np.zeros(2 * L + 1, dtype=np.bool_)
    skip[3::2] = ext[3::2] != ext[1:-2:2]
    return ext, skip


def _check_labels(labels: Sequence[Sequence[int]], vocab_size: int) -> None:
    """Reject the first blank or out-of-range token of the batch, in label
    order, with one array comparison over all of its tokens."""
    flat = np.fromiter(chain.from_iterable(labels), dtype=np.int64)
    bad = (flat <= BLANK_INDEX) | (flat >= vocab_size)
    if bad.any():
        tok = int(flat[np.argmax(bad)])
        if tok == BLANK_INDEX:
            raise BlankInLabel("label may not contain the blank index")
        raise HanjointError(f"token index {tok} outside vocabulary of size {vocab_size}")


def _label_trie(labels: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Prefix trie of the labels, nodes in depth order: node 0 is the root
    (the empty prefix), node n > 0 extends ``parent[n]`` by ``token[n]`` at
    depth ``depth[n]``, and label i ends at node ``ends[i]``.

    Sorted, labels that share a prefix are neighbours.  Entry (d, j) of a
    depth x label grid is the length-(d+1) prefix of the j-th sorted label;
    it is a new node unless label j-1 has the same prefix.  Numbering the new
    entries row by row puts the nodes in depth order, and a shared entry
    takes the number of its left neighbour, which is the largest so far in
    its row.  No step loops over tokens in Python, so one label, or labels
    that share nothing, cost a few array operations.
    """
    keys = [tuple(label) for label in labels]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    lengths = np.fromiter((len(keys[i]) for i in order), dtype=np.int64, count=len(order))
    valid = np.arange(int(lengths.max()))[:, None] < lengths
    grid = np.zeros(valid.shape, dtype=np.int64)
    grid.T[valid.T] = np.fromiter(chain.from_iterable(keys[i] for i in order), dtype=np.int64)

    same = grid[:, 1:] == grid[:, :-1]
    shared = np.logical_and.accumulate(same & valid[:, 1:] & valid[:, :-1], axis=0)
    new = valid.copy()
    new[:, 1:] &= ~shared
    nodes = np.zeros((valid.shape[0] + 1, len(order)), dtype=np.int64)  # row d: node at depth d
    nodes[1:][new] = np.arange(1, np.count_nonzero(new) + 1)
    np.maximum.accumulate(nodes, axis=1, out=nodes)
    depth = np.broadcast_to(np.arange(1, nodes.shape[0])[:, None], valid.shape)

    ends = np.zeros(len(order), dtype=np.int64)
    ends[order] = nodes[lengths, np.arange(len(order))]
    root = np.zeros(1, dtype=np.int64)
    return (np.concatenate((root, nodes[:-1][new])), np.concatenate((root, grid[new])),
            np.concatenate((root, depth[new])), ends)


def ctc_log_probs(lattice: EmissionLattice, labels: Sequence[Sequence[int]]) -> list[float]:
    """log p(label | lattice) of every label, in order, summed over all
    alignments, from one forward pass over a prefix trie of the batch.

    Every label is checked before any scoring starts.  Labels that do not
    fit in the frame count score -inf, because the forward pass reaches none
    of their end states; use :func:`label_feasible` to distinguish that case
    from underflow.
    """
    require_normalized(lattice)
    _check_labels(labels, lattice.vocab_size)
    if len(labels) == 0:
        return []

    parent, token, depth, ends = _label_trie(labels)
    last = _kernels.ctc_alpha_last_trie(lattice.scores, parent, token, depth)
    final = last[2 * ends]
    nonempty = ends > 0
    final[nonempty] = np.logaddexp(final[nonempty], last[2 * ends[nonempty] - 1])
    return final.tolist()


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
    _check_labels([label], lattice.vocab_size)
    F, V = lattice.scores.shape
    if F == 0:
        if len(label) == 0:
            return HeadLoss(0.0, np.zeros((0, V)))
        return HeadLoss(NEG_INF, None, infeasible=True)
    if not label_feasible(label, F):
        return HeadLoss(NEG_INF, None, infeasible=True)

    ext, skip = extended_states(label)
    lp_ext = lattice.scores[:, ext]
    alpha = _kernels.ctc_alpha(lp_ext, skip)
    beta = _kernels.ctc_beta(lp_ext, skip)
    total = alpha[-1, -1]
    if alpha.shape[1] > 1:
        total = np.logaddexp(total, alpha[-1, -2])

    occupancy = np.zeros((F, V))
    np.add.at(occupancy.T, ext, np.exp(alpha + beta - total).T)
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
