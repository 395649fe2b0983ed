"""The one dynamic-programming kernel: the CTC forward recurrence over a
prefix trie of labels.

:func:`ctc_alpha` runs the forward recurrence for every label of a batch at
once: labels that share a prefix share its states, so joint decoding scores
each lattice's whole candidate union, and a single label, through one call.
The trie's states are one interleaved array in depth order (0 is the root's
blank; node n has its token state at 2n-1 and its trailing blank at 2n), so
the states frame t can reach, those of depth <= t+1, are a prefix of the
array.  For one label the states are its blank-extended sequence (blank,
y1, blank, ..., yL, blank).

Scoring needs only the last row.  The gradient also needs every row, which
the kernel writes into an array the caller passes in, and the backward
variables: those are the forward rows of the time-reversed lattice and the
reversed label (Graves et al. 2006), so the same kernel computes them.
``alpha[t, s]`` includes the emission at frame t.
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


def ctc_alpha(scores: np.ndarray, parent: np.ndarray, token: np.ndarray, depth: np.ndarray,
              rows: np.ndarray | None = None) -> np.ndarray:
    """Last forward row over every state of a label trie.

    ``scores`` is the F x V lattice with blank at index 0.  Node 0 of the
    trie is the root (the empty prefix); node n > 0 extends ``parent[n]`` by
    ``token[n]``, and ``depth`` is nondecreasing in n.  The returned states
    are interleaved: 0 is the root's blank, 2n-1 node n's token and 2n its
    trailing blank.  A token state steps from its parent's blank and jumps
    from its parent's token state when the two tokens differ; a blank steps
    from its own token state.  So each label's states see the same
    :func:`_logsumexp3` arguments, in the same order, as a forward over
    that label's blank-extended states alone, and score exactly what it
    scores.  (Frame 0 steps from a start in which only the root's blank
    holds, with log-probability 0, which leaves each emission as it is.)

    A state deeper than t+1 cannot be reached by frame t and stays -inf;
    the states of depth <= t+1 are a prefix of the array, so each frame
    steps only that prefix.  With no frames, only the root's blank holds.
    When ``rows`` (F x states) is given, frame t's row is written to
    ``rows[t]``.
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
        for t, (row, k) in enumerate(zip(scores, reach.tolist())):
            alpha[:k] = _logsumexp3(alpha[:k], alpha[step_src[:k]], alpha[jump_src[:k]]) + row[emit[:k]]
            if rows is not None:
                rows[t] = alpha[:size]
    return alpha[:size]


def warmup() -> None:
    """Run the kernel once on a tiny case, writing its rows, so the first
    timed call does not also pay for numpy's first-use set-up."""
    scores = np.log(np.full((2, 3), 1.0 / 3.0))
    ctc_alpha(scores, np.array([0, 0]), np.array([0, 1]), np.array([0, 1]), rows=np.empty((2, 3)))
