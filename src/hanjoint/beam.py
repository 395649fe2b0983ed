"""CTC prefix beam search over a batch of lattices.

Searches over collapsed prefixes, keeping separate blank-ending and
nonblank-ending probability mass per prefix so that alignments merging into
the same prefix are summed, not max-reduced.  With a beam wide enough to
hold every reachable prefix the returned score of a hypothesis equals its
full CTC posterior.

One frame loop steps every lattice of a batch (the search is Hannun et al.
2014; the batch axis is that of batched CTC beam decoders): the live
prefixes of lattice b are row b of padded (batch x width) arrays, so a
frame costs one set of numpy calls for the whole batch.  Rows are ordered
by frame count, longest first, and the lattices that still have frames are
a leading block of rows: a lattice whose frames have run out leaves the
block with its hypotheses and is not stepped again.  Vocabularies of
different sizes are padded with -inf scores, which no kept candidate can
have.  :func:`prefix_beam_search` is a batch of one.

Prefixes are nodes of a trie shared by the batch, each lattice with its
own root: ``parent``, ``token`` and ``depth`` arrays, and a dict from
``parent * base + token`` to the child.  A node id names a prefix, so "is
the parent of this live prefix live too?" (an extension of the parent then
merges into it) is one gather through a node -> slot array.  Only the
ancestors of live prefixes need stable ids, so when the trie has doubled
since it was last compacted (and holds at least ``_TRIE_NODES`` nodes) it is
compacted to them and renumbered; its size follows the beam, not the frame
count.  Token sequences are built from parent pointers, one vectorised
gather per depth level, only for the tie-break and the returned hypotheses.

Each frame scores the kept prefixes and their one-token extensions, then
keeps the top ``beam_width`` of each row: the cutoff is read from the rows
sorted, and where more candidates than fit tie at it, the tied candidates
of all rows are ordered by (row, token sequence) with one ``np.lexsort``.
Extensions are scored only over the tokens that can be kept.  Extending
prefix i by a token c other than its last token scores ``total[i] +
lp[c]`` (by its last token, less), so c can be dropped when either

* beam_width + 1 non-blank tokens make that sum strictly larger: then
  beam_width distinct candidates (or the live prefixes they merge into,
  which only gain mass) outrank it; the bound is the (beam_width + 1)-th
  best non-blank score, found with ``np.partition`` along the rows; or
* the row holds beam_width live prefixes and the sum with the best prefix
  total stays below the worst kept prefix, which beam_width candidates
  reach.

Both bounds are widened by the rounding of the sum, and an extension that
recreates a live prefix is merged from its parent's scores directly, so
the result is the same, bit for bit, as scoring every token of one lattice
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ConfigError, HanjointError
from .lattice_io import BLANK_INDEX, EmissionLattice, Vocabulary, require_normalized, require_vocab_size

NEG_INF = -np.inf
# a bound, relative to the magnitudes added, on how far below the pruning
# bound a token's score can sit and still round to the same total + lp
_SLACK = 8 * np.finfo(np.float64).eps
# the trie is compacted to the ancestors of live prefixes when it holds more
# than twice the nodes the last compaction left, and at least this many
_TRIE_NODES = 4096

_Ranked = list[tuple[tuple[int, ...], float]]  # (tokens, log_prob) pairs, best first


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


class _Trie:
    """The prefixes of a batch.  Node 0 is the sentinel that pads the rows
    of live prefixes; nodes 1..roots are the lattices' empty prefixes.  A
    node is numbered after its parent.  The sentinel and the roots have no
    last token: they carry ``pad``, a token whose score is always -inf, so
    they go through every step of a frame without gaining mass."""

    def __init__(self, roots: int, pad: int):
        self.size = roots + 1
        capacity = 2 * max(_TRIE_NODES, self.size)
        self.parent = np.zeros(capacity, dtype=np.int64)
        self.token = np.full(capacity, pad, dtype=np.int64)
        self.depth = np.zeros(capacity, dtype=np.int64)
        self.slot = np.full(capacity, -1, dtype=np.int64)  # node -> column among its lattice's live prefixes
        self.base = pad + 1
        self.children: dict[int, int] = {}

    def child(self, parents: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Node ids of the prefixes ``parents`` extended by ``tokens``,
        created where they are not in the trie yet."""
        keys = parents * self.base + tokens
        ids = np.fromiter(map(self.children.get, keys.tolist(), repeat(-1)), np.int64, keys.size)
        fresh = np.flatnonzero(ids < 0)
        if fresh.size:
            end = self.size + fresh.size
            if end > self.parent.size:
                capacity = 2 * end
                self.parent, self.token, self.depth, self.slot = (
                    np.concatenate([a, np.full(capacity - a.size, fill, dtype=np.int64)])
                    for a, fill in ((self.parent, 0), (self.token, 0), (self.depth, 0), (self.slot, -1))
                )
            new = np.arange(self.size, end)
            ids[fresh] = new
            self.parent[new] = parents[fresh]
            self.token[new] = tokens[fresh]
            self.depth[new] = self.depth[parents[fresh]] + 1
            self.children.update(zip(keys[fresh].tolist(), new.tolist()))
            self.size = end
        return ids

    def sequences(self, nodes: np.ndarray, extra: np.ndarray | None = None) -> np.ndarray:
        """The token sequences of ``nodes``, each followed by its ``extra``
        token (0 for none), as the columns of a zero-padded (depth x nodes)
        array.  Tokens are positive, so the columns sort like the tuples."""
        walk = int(self.depth[nodes].max()) if nodes.size else 0
        depth = walk + (extra is not None)
        keys = np.zeros((depth + 1, nodes.size), dtype=np.int64)  # the last row takes the roots' pad
        columns = np.arange(nodes.size)
        if extra is not None:
            keys[self.depth[nodes], columns] = extra
        for _ in range(walk):
            keys[self.depth[nodes] - 1, columns] = self.token[nodes]
            nodes = self.parent[nodes]
        return keys[:depth]

    def compact(self, live: np.ndarray) -> np.ndarray:
        """Keep only the sentinel and the ancestors of ``live`` (the nodes
        themselves included), renumbered in order; returns the old -> new
        id map, which sends every dropped node to the sentinel."""
        keep = np.zeros(self.size, dtype=bool)
        keep[0] = True
        nodes = np.unique(live)
        while nodes.size:
            keep[nodes] = True
            nodes = self.parent[nodes]
            nodes = np.unique(nodes[~keep[nodes]])
        old = np.flatnonzero(keep)
        remap = np.zeros(self.size, dtype=np.int64)
        remap[old] = np.arange(old.size)
        self.size = old.size
        self.parent[: self.size] = remap[self.parent[old]]
        self.token[: self.size] = self.token[old]
        self.depth[: self.size] = self.depth[old]
        self.slot[: self.size] = self.slot[old]
        ids = np.flatnonzero(self.depth[: self.size] > 0)
        keys = self.parent[ids] * self.base + self.token[ids]
        self.children.clear()  # before the new entries, so the two never coexist
        self.children.update(zip(keys.tolist(), ids.tolist()))
        return remap


def prefix_beam_search_batch(
    lattices: Sequence[EmissionLattice],
    vocabs: Sequence[Vocabulary],
    config: BeamConfig = BeamConfig(),
) -> list[list[Hypothesis]]:
    """:func:`prefix_beam_search` of every lattice, each with its own
    vocabulary, in one frame loop.  Raises for the first lattice that
    cannot be searched: one not normalized, or of another width than its
    vocabulary."""
    for lattice, vocab in zip(lattices, vocabs, strict=True):
        require_normalized(lattice)
        require_vocab_size(lattice, vocab)
    results = [[Hypothesis((), 0.0)] for _ in lattices]
    batch = [b for b, lattice in enumerate(lattices) if lattice.frames]
    # longest first, so the lattices still running are a leading block of rows
    batch.sort(key=lambda b: -lattices[b].frames)
    searched = _search([lattices[b].scores for b in batch], config.beam_width)
    for b, found in zip(batch, searched):
        results[b] = [Hypothesis(tokens, log_prob) for tokens, log_prob in found]
    return results


def prefix_beam_search(
    lattice: EmissionLattice,
    vocab: Vocabulary,
    config: BeamConfig = BeamConfig(),
) -> list[Hypothesis]:
    """Top hypotheses of a normalized lattice, best first.

    Ranking and pruning use total prefix mass with ties broken by
    lexicographic token order, so results are deterministic.
    """
    return prefix_beam_search_batch([lattice], [vocab], config)[0]


def _search(scores: list[np.ndarray], width: int) -> list[_Ranked]:
    """(tokens, log_prob) pairs of each lattice, best first; the lattices
    are F x V log-probabilities with F > 0, longest first."""
    if not scores:
        return []
    sizes = [s.shape[1] for s in scores]
    frames = [s.shape[0] for s in scores]
    V = max(sizes)
    pad = V  # lp[:, V] stays -inf, as do the columns past a lattice's own tokens
    # position of the (width + 1)-th best non-blank score, when pruning can drop a token
    kth = V - 2 - width if V - 1 > width + 1 else None
    # the rows that bound can drop a token from
    pruned = np.flatnonzero(np.array(sizes) - 1 > width + 1)

    a = len(scores)
    trie = _Trie(a, pad)
    nodes = np.arange(1, a + 1)[:, None]  # live prefixes, a row per lattice; 0 pads
    trie.slot[nodes] = 0
    pb = np.zeros((a, 1))
    pnb = np.full((a, 1), NEG_INF)
    lp_all = np.full((a, V + 1), NEG_INF)
    lp_rows = np.arange(a)[:, None] * (V + 1)  # row offsets into lp
    position = np.zeros((a, V + 1), dtype=np.int64)  # token -> column among the scored ones
    limit = _TRIE_NODES
    found: list = [None] * a

    for t in range(frames[0]):
        lp = lp_all[:a]
        for i in range(a):
            lp[i, : sizes[i]] = scores[i][t]
        n = nodes.shape[1]
        total = np.logaddexp(pb, pnb)
        last_token = trie.token[nodes]
        last = last_token + lp_rows[:a]  # flat index of each live prefix's last token in lp
        lp_last = lp_all.ravel()[last]
        kept_pb = total + lp[:, BLANK_INDEX, None]
        kept_pnb = pnb + lp_last

        # an extension recreating a live prefix j merges into it: j's parent,
        # live at column i, extended by j's last token, through a blank when
        # that is also the parent's last token
        parent_slot = trie.slot[trie.parent[nodes]]
        merged = np.flatnonzero(parent_slot >= 0)
        parent_at = merged - merged % n + parent_slot.ravel()[merged]  # flat, like merged
        repeat = last_token.ravel()[parent_at] == last_token.ravel()[merged]
        source = np.where(repeat, pb.ravel()[parent_at], total.ravel()[parent_at]) + lp_last.ravel()[merged]
        kept_pnb.ravel()[merged] = np.logaddexp(kept_pnb.ravel()[merged], source)
        kept_total = np.logaddexp(kept_pb, kept_pnb)

        # the two bounds of the module docstring, each widened by the
        # rounding of total + lp; a row with at most width + 1 non-blank
        # tokens gets -inf as the first, one with fewer than width live
        # prefixes as the second
        floor = np.full(a, NEG_INF)
        if n == width:
            worst = kept_total.min(axis=1)
            best = total.max(axis=1)
            floor = worst - best - _SLACK * (np.abs(worst) + np.abs(best))
        if kth is not None:
            ranked = lp[pruned, 1:V]
            ranked.partition(kth, axis=1)
            bound = np.full(a, NEG_INF)
            bound[pruned] = ranked[:, kth]
            span = np.max(np.abs(total), axis=1, initial=0.0, where=total > NEG_INF)
            floor = np.maximum(floor, bound - _SLACK * (span + np.abs(bound)))
        keep = lp >= floor[:, None]
        keep &= lp > NEG_INF
        keep[:, BLANK_INDEX] = False
        keep[:, pad] = True
        flat = np.flatnonzero(keep)
        kb, kc = np.divmod(flat, V + 1)
        counts = np.bincount(kb, minlength=a)
        m = int(counts.max())
        at = np.arange(flat.size) - (np.cumsum(counts) - counts)[kb]
        cols = np.full((a, m), pad)
        cols.ravel()[kb * m + at] = kc
        position.ravel()[flat] = at
        lp_cols = lp_all.ravel()[cols + lp_rows[:a]]
        # a last token that is not scored points at column m - 1, a pad
        last_pos = np.where(keep.ravel()[last], position.ravel()[last], m - 1)

        # each row of candidates: its kept prefixes, then their extensions,
        # prefix (b, i) extended by token cols[b, k] at n + i * m + k
        size = n + n * m
        cand = np.empty((a, size))
        cand[:, :n] = kept_total
        ext = cand[:, n:].reshape(a, n, m)  # a view
        np.add(total[:, :, None], lp_cols[:, None, :], out=ext)
        ext[np.arange(a)[:, None], np.arange(n), last_pos] = pb + lp_last
        ext[merged // n, parent_slot.ravel()[merged], last_pos.ravel()[merged]] = NEG_INF

        chosen = _select(cand, width, trie, nodes, cols)
        cb, cc = np.divmod(chosen, size)
        counts = np.bincount(cb, minlength=a)
        if not counts.all():  # unreachable with finite lattices
            raise HanjointError("beam search retained no candidates")
        kept = cc < n
        src = cb * n + np.minimum(cc, n - 1)
        new_nodes = nodes.ravel()[src]
        new_pb = np.where(kept, kept_pb.ravel()[src], NEG_INF)
        new_pnb = np.where(kept, kept_pnb.ravel()[src], cand.ravel()[chosen])
        extended = np.flatnonzero(~kept)
        eb = cb[extended]
        row, col = np.divmod(cc[extended] - n, m)
        new_nodes[extended] = trie.child(nodes.ravel()[eb * n + row], cols.ravel()[eb * m + col])

        trie.slot[nodes] = -1
        n = int(counts.max())
        if chosen.size == a * n:
            nodes, pb, pnb = new_nodes.reshape(a, n), new_pb.reshape(a, n), new_pnb.reshape(a, n)
            trie.slot[nodes] = np.arange(n)
        else:
            at = np.arange(chosen.size) - (np.cumsum(counts) - counts)[cb]
            dst = cb * n + at
            nodes = np.zeros((a, n), dtype=np.int64)
            pb = np.full((a, n), NEG_INF)
            pnb = np.full((a, n), NEG_INF)
            np.put(nodes, dst, new_nodes)
            np.put(pb, dst, new_pb)
            np.put(pnb, dst, new_pnb)
            trie.slot[new_nodes] = at

        running = a
        while running and frames[running - 1] == t + 1:
            running -= 1
        if running < a:
            found[running:a] = _hypotheses(trie, nodes[running:], np.logaddexp(pb[running:], pnb[running:]))
            a = running
            nodes, pb, pnb = nodes[:a], pb[:a], pnb[:a]
            pruned = pruned[pruned < a]
        if a and trie.size > limit:
            nodes = trie.compact(nodes[nodes > 0])[nodes]
            limit = max(_TRIE_NODES, 2 * trie.size)
    return found


def _select(cand: np.ndarray, width: int, trie: _Trie, nodes: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat indices, in order, of the ``width`` best candidates of each row
    (fewer where fewer are finite), ties at the cutoff broken by token
    sequence."""
    size = cand.shape[1]
    if size <= width:
        return np.flatnonzero(cand > NEG_INF)
    # a sort along the rows outruns np.partition on these rows, which hold
    # many ties and -inf
    ranked = np.sort(cand, axis=1)
    cutoff = ranked[:, size - width, None]
    chosen = np.flatnonzero(cand >= cutoff)
    crowded = ranked[:, size - width - 1] == cutoff[:, 0]
    if not crowded.any():
        return chosen
    # more candidates at the cutoff than room: keep those above it, and
    # fill the rest of the beam by the tie-break
    rows = np.flatnonzero(crowded)
    block, level = cand[rows], cutoff[rows]
    sub, col = np.nonzero(block > level)
    chosen = np.concatenate([chosen[~crowded[chosen // size]], rows[sub] * size + col])
    need = width - np.bincount(sub, minlength=rows.size)
    sub, col = np.nonzero((block == level) & (level > NEG_INF))
    if sub.size:
        tb, tc = _tie_break(trie, rows[sub], col, need[sub], nodes, cols)
        chosen = np.concatenate([chosen, tb * size + tc])
    return np.sort(chosen)


def _tie_break(trie: _Trie, tb: np.ndarray, tc: np.ndarray, need: np.ndarray,
               nodes: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of the candidates tied at the cutoff, (row, column) in order, the
    ``need`` of each row that fill its beam: those with the
    lexicographically smallest token sequences."""
    n, m = nodes.shape[1], cols.shape[1]
    # one prefix's extensions sort by token, which is index order, so at
    # most need of them can be taken; a kept prefix is a group of its own
    group = tb * (2 * n) + np.where(tc < n, tc, n + (tc - n) // m)
    take = np.arange(tc.size) - np.searchsorted(group, group) < need
    tb, tc, need = tb[take], tc[take], need[take]
    over = np.bincount(tb)[tb] > need
    if not over.any():
        return tb, tc
    sb, sc, need = tb[over], tc[over], need[over]
    is_ext = sc >= n
    row, col = np.divmod(np.maximum(sc - n, 0), m)
    keys = trie.sequences(nodes[sb, np.where(is_ext, row, sc)], np.where(is_ext, cols[sb, col], 0))
    order = np.lexsort(np.concatenate([keys[::-1], sb[None]]))
    sb, sc, need = sb[order], sc[order], need[order]
    take = np.arange(sb.size) - np.searchsorted(sb, sb) < need
    return np.concatenate([tb[~over], sb[take]]), np.concatenate([tc[~over], sc[take]])


def _hypotheses(trie: _Trie, nodes: np.ndarray, total: np.ndarray) -> list[_Ranked]:
    """(tokens, log_prob) of each row's live prefixes, best first, ties in
    token order."""
    rb, rc = np.nonzero(nodes > 0)
    live = nodes[rb, rc]
    keys = trie.sequences(live).T.tolist()
    tokens = [tuple(key[:d]) for key, d in zip(keys, trie.depth[live].tolist())]
    rows: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(nodes.shape[0])]
    for b, seq, score in zip(rb.tolist(), tokens, total[rb, rc].tolist()):
        rows[b].append((-score, seq))
    return [[(seq, -neg) for neg, seq in sorted(row)] for row in rows]
