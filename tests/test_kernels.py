"""The forward kernel, run on a label and on the time-reversed lattice and
label, gives the forward and backward variables of one recurrence."""

import numpy as np
import pytest

from hanjoint import _kernels
from hanjoint.ctc import _flatten, _label_trie
from hanjoint.synth import random_lattice


def random_case(rng):
    F = int(rng.integers(1, 8))
    V = int(rng.integers(2, 5))
    L = int(rng.integers(0, 4))
    label = [int(rng.integers(1, V)) for _ in range(L)]
    return random_lattice(rng, F, V).scores, label


def forward_rows(scores, label):
    parent, token, depth, _ = _label_trie(*_flatten([label], scores.shape[1]))
    rows = np.empty((len(scores), 2 * len(label) + 1))
    last = _kernels.ctc_alpha(scores, parent, token, depth, rows=rows)
    return rows, last


def test_forward_backward_consistency():
    # alpha[t] + beta[t] must give the same total mass at every frame, with
    # beta[t] the reversed pass's row minus the emission at t
    rng = np.random.default_rng(5)
    for _ in range(50):
        scores, label = random_case(rng)
        alpha, last = forward_rows(scores, label)
        np.testing.assert_array_equal(alpha[-1], last)
        reversed_alpha, _ = forward_rows(scores[::-1], label[::-1])
        ext = np.zeros(alpha.shape[1], dtype=np.int64)
        ext[1::2] = label
        beta = reversed_alpha[::-1, ::-1] - scores[:, ext]
        total = last[-1]
        if len(last) > 1:
            total = np.logaddexp(total, last[-2])
        if total == -np.inf:
            continue
        for t in range(len(scores)):
            joined = alpha[t] + beta[t]
            m = joined.max()
            frame_total = m + np.log(np.exp(joined - m).sum())
            assert frame_total == pytest.approx(total, abs=1e-10)
