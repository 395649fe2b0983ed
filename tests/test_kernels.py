"""The full-matrix forward and backward kernels implement one recurrence."""

import numpy as np
import pytest

from hanjoint import _kernels
from hanjoint.ctc import extended_states
from hanjoint.synth import random_lattice


def random_case(rng):
    F = int(rng.integers(1, 8))
    V = int(rng.integers(2, 5))
    L = int(rng.integers(0, 4))
    label = [int(rng.integers(1, V)) for _ in range(L)]
    lattice = random_lattice(rng, F, V)
    ext, skip = extended_states(label)
    return lattice.scores[:, ext], skip


def test_forward_backward_consistency():
    # alpha[t] + beta[t] must give the same total mass at every frame
    rng = np.random.default_rng(5)
    for _ in range(50):
        lp_ext, skip = random_case(rng)
        alpha = _kernels.ctc_alpha(lp_ext, skip)
        beta = _kernels.ctc_beta(lp_ext, skip)
        total = alpha[-1, -1]
        if alpha.shape[1] > 1:
            total = np.logaddexp(total, alpha[-1, -2])
        if total == -np.inf:
            continue
        for t in range(lp_ext.shape[0]):
            joined = alpha[t] + beta[t]
            m = joined.max()
            frame_total = m + np.log(np.exp(joined - m).sum())
            assert frame_total == pytest.approx(total, abs=1e-10)
