"""Dynamic-programming kernels over the blank-extended CTC state lattice.

Scoring a label only needs the last row of the forward recurrence, so
:func:`ctc_alpha_last_batch` runs it for a whole batch of labels at once,
one vectorized step over an (N, S_max) state array per frame.  Joint
decoding scores every candidate of one lattice through that one call.

The gradient needs every alpha and beta row.  :func:`ctc_alpha` and
:func:`ctc_beta` compute those full matrices, vectorized over the state
axis; :func:`ctc_alpha` is also the reference the batched kernel is tested
against.  All three use the same :func:`_logsumexp3` arithmetic.

Conventions: ``lp_ext[t, s]`` is the frame-t log-probability of extended
state s (blank, y1, blank, ..., yL, blank); ``skip[s]`` is True where the
s-2 -> s transition is legal (state s is a non-blank different from state
s-2).  ``alpha[t, s]`` includes the emission at t, ``beta[t, s]`` covers
frames t+1.. only, so alpha + beta sums to the total log-probability at
every frame.
"""

from __future__ import annotations

import numpy as np

NEG_INF = -np.inf


def _logsumexp3(a, b, c):
    m = np.maximum(np.maximum(a, b), c)
    safe = np.where(np.isfinite(m), m, 0.0)
    total = np.exp(a - safe) + np.exp(b - safe) + np.exp(c - safe)
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(m), safe + np.log(total), NEG_INF)


def ctc_alpha(lp_ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    F, S = lp_ext.shape
    alpha = np.full((F, S), NEG_INF)
    alpha[0, 0] = lp_ext[0, 0]
    if S > 1:
        alpha[0, 1] = lp_ext[0, 1]
    step = np.empty(S)
    jump = np.empty(S)
    for t in range(1, F):
        prev = alpha[t - 1]
        step[0] = NEG_INF
        step[1:] = prev[:-1]
        jump[:2] = NEG_INF
        jump[2:] = np.where(skip[2:], prev[:-2], NEG_INF)
        alpha[t] = _logsumexp3(prev, step, jump) + lp_ext[t]
    return alpha


def ctc_alpha_last_batch(scores: np.ndarray, ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Last forward row of every label in a padded batch.

    ``scores`` is the F x V lattice (F >= 1); row n of ``ext`` / ``skip`` is
    a label's extended states and skip mask, padded on the right to the
    batch's longest.  Each real state sees the same arithmetic as in
    :func:`ctc_alpha`, so it matches that kernel's last row exactly.
    Padded states need no masking: transitions only move to equal or
    higher states, so they never feed a label's real states.  Emissions are
    gathered one frame at a time, never as an F x N x S_max tensor.
    """
    alpha = np.full(ext.shape, NEG_INF)
    alpha[:, :2] = scores[0][ext[:, :2]]
    step = np.full(ext.shape, NEG_INF)
    jump = np.full(ext.shape, NEG_INF)
    can_jump = skip[:, 2:]
    for t in range(1, scores.shape[0]):
        step[:, 1:] = alpha[:, :-1]
        np.copyto(jump[:, 2:], alpha[:, :-2], where=can_jump)
        alpha = _logsumexp3(alpha, step, jump) + scores[t][ext]
    return alpha


def ctc_beta(lp_ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    F, S = lp_ext.shape
    beta = np.full((F, S), NEG_INF)
    beta[F - 1, S - 1] = 0.0
    if S > 1:
        beta[F - 1, S - 2] = 0.0
    step = np.empty(S)
    jump = np.empty(S)
    for t in range(F - 2, -1, -1):
        nxt = beta[t + 1] + lp_ext[t + 1]
        step[:-1] = nxt[1:]
        step[-1] = NEG_INF
        jump[:-2] = np.where(skip[2:], nxt[2:], NEG_INF)
        jump[-2:] = NEG_INF
        beta[t] = _logsumexp3(nxt, step, jump)
    return beta


def warmup() -> None:
    """Run both full-matrix kernels once on a tiny case, so the first timed
    call does not also pay for numpy's first-use set-up."""
    lp = np.log(np.full((2, 3), 1.0 / 3.0))
    skip = np.array([False, False, True])
    ctc_alpha(lp, skip)
    ctc_beta(lp, skip)
