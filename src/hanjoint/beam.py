"""CTC prefix beam search.

Searches over collapsed prefixes, keeping separate blank-ending and
nonblank-ending probability mass per prefix so that alignments merging into
the same prefix are summed, not max-reduced.  With a beam wide enough to
hold every reachable prefix the returned score of a hypothesis equals its
full CTC posterior.

Prefixes are nodes of a trie built once per call: ``parent`` and ``token``
arrays, with children found by ``parent * V + token``.  A node id names a
prefix, so "is the parent of this live prefix live too?" (an extension of
the parent then merges into it) is one gather through a node -> slot array.
Token tuples exist only for the live prefixes, for the lexicographic
tie-break and the returned hypotheses.

Each frame scores the kept prefixes and their one-token extensions, then
keeps the top ``beam_width`` with a partition and an exact lexicographic
tie-break.  Extensions are scored only over the tokens that can be kept.
Extending prefix i by a token c other than its last token scores
``total[i] + lp[c]``, so if beam_width + 1 non-blank tokens make that sum
strictly larger, beam_width distinct candidates (or the live prefixes they
merge into, which only gain mass) outrank it and it is never kept.  The
scored tokens are therefore those within rounding of the frame's
(beam_width + 1)-th best non-blank score, plus the live prefixes' last
tokens, whose own extensions use the blank-ending mass instead.  The result
is the same, bit for bit, as scoring every token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HanjointError
from .lattice_io import BLANK_INDEX, EmissionLattice, Vocabulary, require_normalized

NEG_INF = -np.inf
# a bound, relative to the magnitudes added, on how far below the pruning
# bound a token's score can sit and still round to the same total + lp
_SLACK = 8 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class BeamConfig:
    """beam_width live prefixes, all of them returned."""

    beam_width: int = 100

    def __post_init__(self):
        if self.beam_width < 1:
            raise ConfigError("beam_width must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    """A collapsed token sequence with its accumulated CTC log-probability."""

    tokens: tuple[int, ...]
    log_prob: float
    level: str | None = None


def prefix_beam_search(
    lattice: EmissionLattice,
    vocab: Vocabulary,
    config: BeamConfig = BeamConfig(),
    level: str | None = None,
) -> list[Hypothesis]:
    """Top hypotheses of a normalized lattice, best first.

    Ranking and pruning use total prefix mass with ties broken by
    lexicographic token order, so results are deterministic.
    """
    require_normalized(lattice)
    if lattice.vocab_size != vocab.size:
        raise HanjointError(
            f"lattice vocab size {lattice.vocab_size} != vocabulary size {vocab.size}"
        )
    if lattice.frames == 0:
        return [Hypothesis((), 0.0, level)]

    width = config.beam_width
    V = lattice.vocab_size
    # position of the (width + 1)-th best non-blank score, when pruning can drop a token
    kth = V - 2 - width if V - 1 > width + 1 else None
    all_tokens = np.arange(1, V)

    # the trie: node 0 is the empty prefix
    parent = np.full(64, -1, dtype=np.int64)
    token = np.full(64, -1, dtype=np.int64)
    slot = np.full(64, -1, dtype=np.int64)  # node -> index among the live prefixes
    children: dict[int, int] = {}
    n_nodes = 1

    nodes = np.zeros(1, dtype=np.int64)
    prefixes: list[tuple[int, ...]] = [()]
    slot[0] = 0
    pb = np.array([0.0])
    pnb = np.array([NEG_INF])

    for lp in lattice.scores:
        n = len(prefixes)
        total = np.logaddexp(pb, pnb)
        last = token[nodes]
        rows = np.nonzero(last >= 0)[0]
        last_rows = last[rows]

        kept_pb = total + lp[BLANK_INDEX]
        kept_pnb = np.full(n, NEG_INF)
        kept_pnb[rows] = pnb[rows] + lp[last_rows]

        if kth is None:
            cols = all_tokens
        else:
            bound = np.partition(lp[1:], kth)[kth]
            # a token just below the bound can still tie with it once the
            # prefix total is added, so the bound is widened by the rounding
            keep = lp >= bound - _SLACK * (np.abs(total).max() + abs(bound))
            keep[BLANK_INDEX] = False
            keep[last_rows] = True
            cols = np.nonzero(keep)[0]
        m = cols.size

        # extension scores: prefix i extended by token cols[k]
        ext = total[:, None] + lp[cols][None, :]
        last_pos = np.searchsorted(cols, last_rows)
        ext[rows, last_pos] = pb[rows] + lp[last_rows]

        # an extension recreating a live prefix merges into it
        parent_slot = slot[parent[nodes[rows]]]
        merged = parent_slot >= 0
        j, i, k = rows[merged], parent_slot[merged], last_pos[merged]
        kept_pnb[j] = np.logaddexp(kept_pnb[j], ext[i, k])
        ext[i, k] = NEG_INF

        kept_total = np.logaddexp(kept_pb, kept_pnb)
        scores = np.concatenate([kept_total, ext.ravel()])

        def token_sequences(idx: np.ndarray) -> list[tuple[int, ...]]:
            row, col = np.divmod(idx - n, m)
            return [
                prefixes[c] if c < n else prefixes[i] + (t,)
                for c, i, t in zip(idx.tolist(), row.tolist(), cols[col].tolist())
            ]

        if scores.size > width:
            cutoff = np.partition(scores, scores.size - width)[scores.size - width]
            chosen = np.nonzero(scores > cutoff)[0]
            need = width - chosen.size
            if need > 0 and cutoff > NEG_INF:
                tied = np.nonzero(scores == cutoff)[0]
                # one prefix's extensions sort by token, which is index order,
                # so at most `need` of them can be taken
                group = np.where(tied < n, tied - n, (tied - n) // m)
                tied = tied[np.arange(tied.size) - np.searchsorted(group, group) < need]
                if tied.size > need:
                    keys = token_sequences(tied)
                    tied = tied[sorted(range(tied.size), key=keys.__getitem__)[:need]]
                chosen = np.sort(np.concatenate([chosen, tied]))
        else:
            chosen = np.nonzero(scores > NEG_INF)[0]

        if not chosen.size:  # unreachable with finite lattices
            raise HanjointError("beam search retained no candidates")

        # chosen is sorted: kept prefixes first, then extensions
        n_kept = np.searchsorted(chosen, n)
        kept, extended = chosen[:n_kept], chosen[n_kept:] - n
        ext_row, ext_col = np.divmod(extended, m)
        ext_tok = cols[ext_col]
        child_keys = (nodes[ext_row] * V + ext_tok).tolist()
        ext_nodes = np.array([children.get(key, -1) for key in child_keys], dtype=np.int64)
        fresh = np.nonzero(ext_nodes < 0)[0]
        if fresh.size:
            while n_nodes + fresh.size > parent.size:
                parent, token, slot = (
                    np.concatenate([a, np.full(a.size, -1, dtype=np.int64)])
                    for a in (parent, token, slot)
                )
            ids = np.arange(n_nodes, n_nodes + fresh.size)
            ext_nodes[fresh] = ids
            parent[ids] = nodes[ext_row[fresh]]
            token[ids] = ext_tok[fresh]
            children.update(zip((child_keys[f] for f in fresh.tolist()), ids.tolist()))
            n_nodes += fresh.size

        prefixes = token_sequences(chosen)
        slot[nodes] = -1
        nodes = np.concatenate([nodes[kept], ext_nodes])
        slot[nodes] = np.arange(nodes.size)
        pb = np.concatenate([kept_pb[kept], np.full(extended.size, NEG_INF)])
        pnb = np.concatenate([kept_pnb[kept], ext.ravel()[extended]])

    total = np.logaddexp(pb, pnb)
    order = sorted(range(len(prefixes)), key=lambda i: (-total[i], prefixes[i]))
    return [Hypothesis(prefixes[i], float(total[i]), level) for i in order]
