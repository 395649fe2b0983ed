"""Dynamic-programming kernels over the blank-extended CTC state lattice.

Scoring a label only needs the last row of the forward recurrence.
:func:`ctc_alpha_last_trie` runs it for every label of a batch at once,
over a prefix trie of the labels: labels that share a prefix share its
states, so joint decoding scores each lattice's whole candidate union, and
a single label, through that one kernel.  The trie's states are one
interleaved array in depth order (0 is the root's blank; node n has its
token state at 2n-1 and its trailing blank at 2n), so the states frame t
can reach, those of depth <= t+1, are a prefix of the array.

The gradient needs every alpha and beta row.  :func:`ctc_alpha` and
:func:`ctc_beta` compute those full matrices for one label, vectorized over
the state axis; :func:`ctc_alpha` is also the reference the trie kernel is
tested against.  All three use the same :func:`_logsumexp3` arithmetic,
with the same arguments in the same order for the same state, so their
scores agree bit for bit.

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
    """log(exp(a) + exp(b) + exp(c)), elementwise, shifted by the maximum.
    Where all three are -inf the shift is 0 and the log of the zero sum is
    -inf, so callers hold ``np.errstate(divide="ignore")`` around their frame
    loop rather than each call paying for it."""
    m = np.maximum(np.maximum(a, b), c)
    safe = np.where(np.isfinite(m), m, 0.0)
    return safe + np.log(np.exp(a - safe) + np.exp(b - safe) + np.exp(c - safe))


def ctc_alpha(lp_ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    F, S = lp_ext.shape
    alpha = np.full((F, S), NEG_INF)
    alpha[0, 0] = lp_ext[0, 0]
    if S > 1:
        alpha[0, 1] = lp_ext[0, 1]
    step = np.empty(S)
    jump = np.empty(S)
    with np.errstate(divide="ignore"):
        for t in range(1, F):
            prev = alpha[t - 1]
            step[0] = NEG_INF
            step[1:] = prev[:-1]
            jump[:2] = NEG_INF
            jump[2:] = np.where(skip[2:], prev[:-2], NEG_INF)
            alpha[t] = _logsumexp3(prev, step, jump) + lp_ext[t]
    return alpha


def ctc_alpha_last_trie(scores: np.ndarray, parent: np.ndarray, token: np.ndarray,
                        depth: np.ndarray) -> np.ndarray:
    """Last forward row over every state of a label trie.

    ``scores`` is the F x V lattice with blank at index 0.  Node 0 of the
    trie is the root (the empty prefix); node n > 0 extends ``parent[n]`` by
    ``token[n]``, and ``depth`` is nondecreasing in n.  The returned states
    are interleaved: 0 is the root's blank, 2n-1 node n's token and 2n its
    trailing blank.  A token state steps from its parent's blank and jumps
    from its parent's token state when the two tokens differ; a blank steps
    from its own token state.  So every state sees the same
    :func:`_logsumexp3` arguments, in the same order, as the matching state
    of a label through :func:`ctc_alpha`, and each label's states match that
    kernel's last row exactly.  (Frame 0 steps from a start in which only
    the root's blank holds, with log-probability 0, which leaves each
    emission as it is.)

    A state deeper than t+1 cannot be reached by frame t and stays -inf;
    the states of depth <= t+1 are a prefix of the array, so each frame
    steps only that prefix.  With no frames, only the root's blank holds.
    """
    nodes = np.arange(1, len(parent))
    par = parent[1:]
    size = 2 * len(nodes) + 1
    sentinel = size  # a slot that stays -inf: the source of every missing edge
    step_src = np.full(size, sentinel)
    step_src[1::2] = 2 * par
    step_src[2::2] = 2 * nodes - 1
    jump_src = np.full(size, sentinel)
    jump_src[1::2] = np.where((par > 0) & (token[1:] != token[par]), 2 * par - 1, sentinel)
    emit = np.zeros(size, dtype=np.int64)
    emit[1::2] = token[1:]
    reach = 2 * np.searchsorted(depth[1:], np.arange(1, len(scores) + 1), side="right") + 1

    alpha = np.full(size + 1, NEG_INF)
    alpha[0] = 0.0
    with np.errstate(divide="ignore"):
        for row, k in zip(scores, reach.tolist()):
            alpha[:k] = _logsumexp3(alpha[:k], alpha[step_src[:k]], alpha[jump_src[:k]]) + row[emit[:k]]
    return alpha[:size]


def ctc_beta(lp_ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    F, S = lp_ext.shape
    beta = np.full((F, S), NEG_INF)
    beta[F - 1, S - 1] = 0.0
    if S > 1:
        beta[F - 1, S - 2] = 0.0
    step = np.empty(S)
    jump = np.empty(S)
    with np.errstate(divide="ignore"):
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
