"""CTC scoring, multi-task loss, gradients, and greedy decoding.

The probability of a label sequence is the sum over every frame-level
alignment that collapses to it (merge repeats, delete blanks), computed by
forward-backward over the blank-extended state sequence in the log domain.
The multi-task loss combines the syllable-head and grapheme-head CTC
log-probabilities of one reference with a trade-off weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import BlankInLabel, HanjointError, InfeasibleLabel, OutOfVocabulary
from .lattice_io import (
    BLANK_INDEX,
    EmissionLattice,
    Vocabulary,
    normalize,
    require_normalized,
    text_to_tokens,
    tokens_to_units,
)

NEG_INF = -np.inf


@dataclass(frozen=True)
class MultiTaskLossConfig:
    """Trade-off weight between the syllable and grapheme heads."""

    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")


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
    repeats = sum(1 for a, b in zip(label, label[1:]) if a == b)
    return frames >= len(label) + repeats


def extended_states(label: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Blank-extended state sequence and its skip-transition mask."""
    L = len(label)
    ext = np.full(2 * L + 1, BLANK_INDEX, dtype=np.int64)
    ext[1::2] = label
    skip = np.zeros(2 * L + 1, dtype=np.bool_)
    skip[3::2] = ext[3::2] != ext[1:-2:2]
    return ext, skip


def _check_label(label: Sequence[int], vocab_size: int) -> None:
    for tok in label:
        if tok == BLANK_INDEX:
            raise BlankInLabel("label may not contain the blank index")
        if not 0 <= tok < vocab_size:
            raise HanjointError(f"token index {tok} outside vocabulary of size {vocab_size}")


def ctc_log_probs(lattice: EmissionLattice, labels: Sequence[Sequence[int]]) -> list[float]:
    """log p(label | lattice) of every label, in order, summed over all
    alignments, from one forward pass over the whole batch.

    Every label is checked before any scoring starts.  Labels that do not
    fit in the frame count score -inf; use :func:`label_feasible` to
    distinguish that case from underflow.
    """
    require_normalized(lattice)
    for label in labels:
        _check_label(label, lattice.vocab_size)
    F = lattice.frames
    if F == 0:
        return [0.0 if len(label) == 0 else NEG_INF for label in labels]
    totals = [NEG_INF] * len(labels)
    live = [i for i, label in enumerate(labels) if label_feasible(label, F)]
    if not live:
        return totals

    lengths = np.array([len(labels[i]) for i in live])
    ext = np.full((len(live), 2 * lengths.max() + 1), BLANK_INDEX, dtype=np.int64)
    for row, i in enumerate(live):
        ext[row, 1 : 2 * lengths[row] : 2] = labels[i]
    skip = np.zeros(ext.shape, dtype=np.bool_)
    # as in extended_states; past a label's end it only reaches padded states
    skip[:, 3::2] = ext[:, 3::2] != ext[:, 1:-2:2]
    last = _kernels.ctc_alpha_last_batch(lattice.scores, ext, skip)

    rows = np.arange(len(live))
    final = last[rows, 2 * lengths]
    nonempty = lengths > 0
    final[nonempty] = np.logaddexp(final[nonempty], last[rows[nonempty], 2 * lengths[nonempty] - 1])
    for i, total in zip(live, final.tolist()):
        totals[i] = total
    return totals


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
    _check_label(label, lattice.vocab_size)
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


def greedy_decode(lattice: EmissionLattice, vocab: Vocabulary) -> str:
    """Collapse the per-frame argmax path (ties go to the lowest index) and
    render it as text with delimiters mapped to spaces."""
    require_normalized(lattice)
    if lattice.frames == 0:
        return ""
    path = np.argmax(lattice.scores, axis=1)
    return "".join(tokens_to_units(collapse(path.tolist()), vocab))
