import math

import numpy as np
import pytest

from hanjoint import beam
from hanjoint.beam import BeamConfig, Hypothesis, prefix_beam_search, prefix_beam_search_batch
from hanjoint.ctc import ctc_log_prob
from hanjoint.errors import HanjointError
from hanjoint.lattice_io import EmissionLattice, Vocabulary, normalize
from hanjoint.synth import brute_force_all, brute_force_best, random_lattice

VOCAB3 = Vocabulary(("<ctc_blank>", "|", "a"))
VOCAB4 = Vocabulary(("<ctc_blank>", "|", "a", "b"))


def vocab_of(size):
    return Vocabulary(("<ctc_blank>", "|", *(f"t{i}" for i in range(2, size))))


def full_matrix_beam(lattice, width):
    """Reference beam with no vocabulary pruning: every frame scores the
    whole (live prefixes x vocabulary) extension matrix, and prefixes are
    token tuples.  prefix_beam_search must match it exactly."""
    V = lattice.vocab_size
    prefixes = [()]
    pb = np.array([0.0])
    pnb = np.array([-np.inf])
    for lp in lattice.scores:
        n = len(prefixes)
        slot = {p: k for k, p in enumerate(prefixes)}
        total = np.logaddexp(pb, pnb)
        last = np.array([p[-1] if p else -1 for p in prefixes])
        has_last = last >= 0
        kept_pb = total + lp[0]
        kept_pnb = np.where(has_last, pnb + lp[np.where(has_last, last, 0)], -np.inf)
        ext = total[:, None] + lp[None, :]
        rows = np.nonzero(has_last)[0]
        ext[rows, last[rows]] = pb[rows] + lp[last[rows]]
        ext[:, 0] = -np.inf
        for j in rows:
            parent = slot.get(prefixes[j][:-1])
            if parent is not None:
                kept_pnb[j] = np.logaddexp(kept_pnb[j], ext[parent, last[j]])
                ext[parent, last[j]] = -np.inf
        scores = np.concatenate([np.logaddexp(kept_pb, kept_pnb), ext.ravel()])

        def key(c):
            if c < n:
                return prefixes[c]
            i, tok = divmod(int(c) - n, V)
            return prefixes[i] + (tok,)

        if scores.size > width:
            cutoff = np.partition(scores, scores.size - width)[scores.size - width]
            chosen = list(np.nonzero(scores > cutoff)[0])
            if len(chosen) < width and cutoff > -np.inf:
                tied = sorted(np.nonzero(scores == cutoff)[0], key=key)
                chosen += tied[: width - len(chosen)]
        else:
            chosen = list(np.nonzero(scores > -np.inf)[0])
        prefixes = [key(c) for c in chosen]
        pb = np.array([kept_pb[c] if c < n else -np.inf for c in chosen])
        pnb = np.array([kept_pnb[c] if c < n else ext.ravel()[c - n] for c in chosen])
    total = np.logaddexp(pb, pnb)
    order = sorted(range(len(prefixes)), key=lambda i: (-total[i], prefixes[i]))
    return [Hypothesis(prefixes[i], float(total[i])) for i in order[:width]]


def exhaustive_width(frames, vocab_size):
    return sum((vocab_size - 1) ** l for l in range(frames + 1))


def test_empty_lattice():
    lattice = EmissionLattice(np.zeros((0, 3)), normalized=True)
    assert prefix_beam_search(lattice, VOCAB3) == [Hypothesis((), 0.0)]


def test_single_frame_two_outcomes():
    lattice = EmissionLattice(np.log(np.array([[0.6, 0.1, 0.3]])), normalized=True)
    hyps = prefix_beam_search(lattice, VOCAB3, BeamConfig(beam_width=8))
    assert [h.tokens for h in hyps] == [(), (2,), (1,)]
    assert hyps[0].log_prob == pytest.approx(math.log(0.6), abs=1e-12)
    assert hyps[1].log_prob == pytest.approx(math.log(0.3), abs=1e-12)


def test_prefix_mass_accumulates_across_alignments():
    # uniform 2x2: mass of "a" is aa + a- + -a = 3/4
    lattice = EmissionLattice(np.full((2, 2), math.log(0.5)), normalized=True)
    vocab = Vocabulary(("<ctc_blank>", "|"))
    hyps = prefix_beam_search(lattice, vocab, BeamConfig(beam_width=8))
    by_tokens = {h.tokens: h.log_prob for h in hyps}
    assert by_tokens[(1,)] == pytest.approx(math.log(0.75), abs=1e-12)
    assert by_tokens[()] == pytest.approx(math.log(0.25), abs=1e-12)


def test_exhaustive_beam_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(100):
        F = int(rng.integers(1, 5))
        V = int(rng.integers(2, 5))
        lattice = random_lattice(rng, F, V)
        vocab = Vocabulary(("<ctc_blank>", "|", "a", "b")[:V])
        width = exhaustive_width(F, V)
        hyps = prefix_beam_search(lattice, vocab, BeamConfig(beam_width=width))

        masses = brute_force_all(lattice)
        expected = sorted(masses.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [h.tokens for h in hyps] == [label for label, _ in expected]
        for hyp, (_, lp) in zip(hyps, expected):
            assert hyp.log_prob == pytest.approx(lp, abs=1e-9)
            # the prefix mass is the true CTC posterior of that sequence
            assert hyp.log_prob == pytest.approx(
                ctc_log_prob(lattice, list(hyp.tokens)), abs=1e-9
            )

        text, best_lp = brute_force_best(lattice, vocab)
        assert hyps[0].log_prob == pytest.approx(best_lp, abs=1e-9)


def test_narrow_beam_still_finds_peaked_path():
    scores = np.log(np.array([
        [0.05, 0.05, 0.85, 0.05],
        [0.85, 0.05, 0.05, 0.05],
        [0.05, 0.05, 0.05, 0.85],
    ]))
    lattice = EmissionLattice(scores, normalized=True)
    hyps = prefix_beam_search(lattice, VOCAB4, BeamConfig(beam_width=2))
    assert hyps[0].tokens == (2, 3)


def test_pruned_beam_never_overstates_mass():
    # pruning can only lose alignment mass, so the reported score is a
    # lower bound on the exact CTC posterior of the sequence
    rng = np.random.default_rng(123)
    for _ in range(40):
        lattice = random_lattice(rng, 6, 4)
        for width in (1, 2, 4):
            for hyp in prefix_beam_search(lattice, VOCAB4, BeamConfig(beam_width=width)):
                exact = ctc_log_prob(lattice, list(hyp.tokens))
                assert hyp.log_prob <= exact + 1e-9


def test_widening_monotonicity():
    rng = np.random.default_rng(55)
    for _ in range(30):
        lattice = random_lattice(rng, 5, 4)
        best = -math.inf
        for width in (1, 2, 4, 8, 16, 64):
            top = prefix_beam_search(lattice, VOCAB4, BeamConfig(beam_width=width))[0]
            assert top.log_prob >= best - 1e-12
            best = max(best, top.log_prob)


def test_determinism():
    rng = np.random.default_rng(66)
    lattice = random_lattice(rng, 8, 4)
    first = prefix_beam_search(lattice, VOCAB4, BeamConfig(beam_width=5))
    second = prefix_beam_search(lattice, VOCAB4, BeamConfig(beam_width=5))
    assert first == second


def test_tie_break_is_lexicographic():
    # both tokens equally likely everywhere: hypotheses with equal mass
    # must come out in token order
    lattice = EmissionLattice(np.full((1, 3), math.log(1 / 3)), normalized=True)
    hyps = prefix_beam_search(lattice, VOCAB3, BeamConfig(beam_width=8))
    assert [h.tokens for h in hyps] == [(), (1,), (2,)][: len(hyps)]
    lone = prefix_beam_search(lattice, VOCAB3, BeamConfig(beam_width=2))
    assert [h.tokens for h in lone] == [(), (1,)]


def reference_cases():
    """(lattice, width) pairs on which the beam must match full_matrix_beam.

    V up to 45 and widths 1-8 keep vocabulary pruning active on most
    frames; integer logits force exact ties at the cutoff, and boosted runs
    of one token make repeats take the blank-ending extension path."""
    rng = np.random.default_rng(2024)
    for k in range(1200):
        F = int(rng.integers(1, 13))
        V = int(rng.integers(3, 46))
        width = int(rng.integers(1, 9))
        logits = rng.normal(0.0, rng.choice([0.5, 2.0, 4.0]), size=(F, V))
        if k % 2:
            logits = np.round(logits)
        if k % 3 == 0:
            runs = np.repeat(rng.integers(1, V, size=F), rng.integers(1, 4, size=F))[:F]
            logits[np.arange(F), runs] += 3.0
        lattice = EmissionLattice(
            logits - np.log(np.exp(logits).sum(axis=1, keepdims=True)), normalized=True
        )
        yield lattice, width


def test_matches_full_matrix_reference_on_random_lattices():
    for k, (lattice, width) in enumerate(reference_cases()):
        got = prefix_beam_search(lattice, vocab_of(lattice.vocab_size), BeamConfig(beam_width=width))
        assert got == full_matrix_beam(lattice, width), (k, lattice.scores.shape, width)


@pytest.mark.parametrize("trie_nodes", [beam._TRIE_NODES, 8], ids=["default", "compact-often"])
def test_batches_match_the_reference_and_their_batches_of_one(monkeypatch, trie_nodes):
    # the reference lattices, with zero-frame ones mixed in, run as batches
    # of one width that mix frame counts, vocabulary sizes, and rows with
    # and without vocabulary pruning (or, in batches of small vocabularies
    # only, none at all); compacting the trie every few frames must not
    # change a result
    monkeypatch.setattr(beam, "_TRIE_NODES", trie_nodes)
    rng = np.random.default_rng(11)
    groups: dict[tuple[int, bool], list[EmissionLattice]] = {}
    for k, (lattice, width) in enumerate(reference_cases()):
        group = groups.setdefault((width, lattice.vocab_size <= width + 2), [])
        group.append(lattice)
        if k % 50 == 0:
            group.append(EmissionLattice(np.zeros((0, lattice.vocab_size)), normalized=True))
    for (width, _), lattices in groups.items():
        rng.shuffle(lattices)
        config = BeamConfig(beam_width=width)
        for start in range(0, len(lattices), 40):
            batch = lattices[start:start + 40]
            vocabs = [vocab_of(lattice.vocab_size) for lattice in batch]
            got = prefix_beam_search_batch(batch, vocabs, config)
            for lattice, vocab, hyps in zip(batch, vocabs, got):
                assert hyps == full_matrix_beam(lattice, width), (width, lattice.scores.shape)
                assert hyps == prefix_beam_search(lattice, vocab, config)


def test_batch_raises_for_the_first_unsearchable_lattice():
    rng = np.random.default_rng(12)
    lattices = [random_lattice(rng, 5, 4), random_lattice(rng, 7, 3), random_lattice(rng, 3, 4),
                EmissionLattice(rng.normal(size=(4, 4)))]
    config = BeamConfig(beam_width=3)
    with pytest.raises(HanjointError, match=r"^lattice vocab size 3 != vocabulary size 4$"):
        prefix_beam_search_batch(lattices, [VOCAB4] * 4, config)
    with pytest.raises(HanjointError, match=r"^lattice vocab size 5 != vocabulary size 4$"):
        prefix_beam_search_batch([lattices[0], random_lattice(rng, 2, 5)], [VOCAB4] * 2, config)
    with pytest.raises(HanjointError, match=r"^lattice must be normalized \(log-probabilities\)$"):
        prefix_beam_search_batch(lattices[2:], [VOCAB4] * 2, config)
    searchable = [lattices[0], lattices[2]]
    got = prefix_beam_search_batch(searchable, [VOCAB4] * 2, config)
    for k, lattice in enumerate(searchable):
        assert got[k] == prefix_beam_search(lattice, VOCAB4, config)


def test_batch_returns_to_every_token_after_its_widest_lattice_retires():
    # lattice 0 fills the width-6 beam and retires after 3 frames; lattice 1,
    # with a single non-blank token, holds fewer prefixes than the width for
    # two more frames, so the search goes back to scoring every token
    rng = np.random.default_rng(14)
    lattices = [random_lattice(rng, 3, 4), random_lattice(rng, 5, 2)]
    got = prefix_beam_search_batch(lattices, [VOCAB4, vocab_of(2)], BeamConfig(beam_width=6))
    assert got == [full_matrix_beam(lattice, 6) for lattice in lattices]


def test_trie_stays_bounded_on_a_600_frame_lattice(monkeypatch):
    # A peaked 600-frame lattice creates about 35,000 prefixes.  Compaction
    # keeps the trie to the ancestors of the live prefixes, and lets it grow
    # to twice what the last compaction left (at least beam._TRIE_NODES),
    # plus one frame's extensions.
    sizes, compacted = [], [0]

    class Recording(beam._Trie):
        def child(self, parents, tokens):
            ids = super().child(parents, tokens)
            sizes.append(self.size)
            return ids

        def compact(self, live):
            remap = super().compact(live)
            compacted.append(self.size)
            return remap

    monkeypatch.setattr(beam, "_Trie", Recording)
    rng = np.random.default_rng(13)
    path = np.where(rng.random(600) < 0.4, 0, rng.integers(1, 30, size=600))
    logits = rng.normal(0.0, 1.0, size=(600, 30))
    logits[np.arange(600), path] += 4.0
    lattice = normalize(EmissionLattice(logits))
    width = 100
    hyps = prefix_beam_search(lattice, vocab_of(30), BeamConfig(beam_width=width))
    assert len(hyps) == width
    created = int(np.diff(sizes, prepend=0).clip(min=0).sum())
    assert len(compacted) > 3 and created > 2 * max(sizes)
    assert max(sizes) <= 2 * max(beam._TRIE_NODES, *compacted) + width


def test_recreated_prefix_keeps_its_node_id():
    # tokens a=1, b=2, width 3: after frame 3 "ab" has dropped out while its
    # child "aba" is live; frame 4 re-creates "ab" from "a", and in frame 5
    # "ab" + a must merge into "aba".  The merge test finds the parent
    # through "aba"'s parent node id, so the re-created "ab" has to get its
    # old node back.
    probs = np.array([
        [0.1, 0.6, 0.3],
        [0.2, 0.5, 0.3],
        [0.2, 0.7, 0.1],
        [0.2, 0.5, 0.3],
        [0.5, 0.1, 0.4],
    ])
    config = BeamConfig(beam_width=3)

    def live_after(frames):
        lattice = EmissionLattice(np.log(probs[:frames]), normalized=True)
        return {h.tokens for h in prefix_beam_search(lattice, VOCAB3, config)}

    assert live_after(3) == {(1,), (1, 2, 1), (2, 1)}
    assert {(1, 2), (1, 2, 1)} <= live_after(4)
    lattice = EmissionLattice(np.log(probs), normalized=True)
    hyps = prefix_beam_search(lattice, VOCAB3, config)
    assert hyps == full_matrix_beam(lattice, 3)
    assert len({h.tokens for h in hyps}) == len(hyps)


def test_pruning_keeps_tokens_that_tie_only_after_rounding():
    # frame 0 leaves one live prefix (4,).  In frame 1 token 1 scores one ulp
    # below tokens 2 and 3, so it is not among the top width + 1 = 2; but
    # adding the prefix total rounds all three extensions to the same score,
    # and the lexicographic tie-break must then pick token 1
    first = np.array([0.3, 0.08, 0.08, 0.08, math.exp(-1.0), 0.0])
    first[5] = 1.0 - first.sum()
    total = np.log(first[4])
    x = -1.46
    while total + np.nextafter(x, -np.inf) != total + x:
        x = np.nextafter(x, 0.0)
    rest = 1.0 - np.exp(np.nextafter(x, -np.inf)) - 2 * np.exp(x)
    second = np.array([
        np.log(0.6 * rest), np.nextafter(x, -np.inf), x, x,
        np.log(0.15 * rest), np.log(0.25 * rest),
    ])
    lattice = EmissionLattice(np.stack([np.log(first), second]), normalized=True)
    hyps = prefix_beam_search(lattice, vocab_of(6), BeamConfig(beam_width=1))
    assert hyps == full_matrix_beam(lattice, 1)
    assert hyps[0].tokens == (4, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(beam_width=0)
