"""Joint decoding over syllable and grapheme beam candidates.

Both beams are searched independently, grapheme hypotheses are composed
into syllable text (non-composable ones are dropped and counted), the union
is deduplicated by text, and the whole union is rescored with one CTC
forward pass per lattice.  That pass runs over a prefix trie of the union's
labels, so candidates that share a prefix (most beam survivors do) share
its states.  The joint score mixes the two posteriors in the probability
domain:

    score(Y) = log( gamma * p_syll(Y) + (1 - gamma) * p_grap(Y) )

A candidate that is out-of-vocabulary at one level simply contributes zero
probability at that level, which is what lets grapheme candidates recover
syllables missing from the syllable vocabulary.

:func:`tokens_to_text` is the one place where token ids become text: beam
hypotheses, greedy paths and oracle labels are all rendered by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .beam import BeamConfig, prefix_beam_search
# ctc_log_prob is importable here because perfbench/layers.py traces joint.ctc_log_prob.
from .ctc import ctc_log_prob, ctc_log_probs  # noqa: F401
from .errors import BothBeamsEmpty, ConfigError, OutOfVocabulary
# Composition is called through this name: perfbench/layers.py traces joint.try_compose.
from .hangul import try_compose
from .lattice_io import BLANK_INDEX, EmissionLattice, Vocabulary, check_tokens, text_to_tokens

NEG_INF = -math.inf


@dataclass(frozen=True)
class JointConfig:
    gamma: float = 0.5
    beam: BeamConfig = field(default_factory=BeamConfig)

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class ScoredCandidate:
    """One rescored candidate.  A per-head log-probability is None when the
    candidate cannot be tokenized at that level."""

    text: str
    syll_log_prob: float | None
    grap_log_prob: float | None
    joint_score: float
    provenance: frozenset[str] = frozenset()


@dataclass
class JointDecodeResult:
    candidates: list[ScoredCandidate]
    dropped_non_composable: int = 0

    @property
    def best(self) -> ScoredCandidate:
        return self.candidates[0]


def _rescore(
    candidates: list[tuple[str, frozenset[str]]],
    syll_lattice: EmissionLattice,
    grap_lattice: EmissionLattice,
    syll_vocab: Vocabulary,
    grap_vocab: Vocabulary,
    gamma: float,
) -> list[ScoredCandidate]:
    """Score (text, provenance) pairs against both lattices, with one
    forward pass per lattice over all of them; a text out of vocabulary at a
    level gets None there."""
    heads = []
    for lattice, vocab, level in (
        (syll_lattice, syll_vocab, "syllable"),
        (grap_lattice, grap_vocab, "grapheme"),
    ):
        labels: list[list[int] | None] = []
        for text, _ in candidates:
            try:
                labels.append(text_to_tokens(text, vocab, level))
            except OutOfVocabulary:
                labels.append(None)
        scores = iter(ctc_log_probs(lattice, [label for label in labels if label is not None]))
        heads.append([None if label is None else next(scores) for label in labels])
    return [
        ScoredCandidate(text, syll_lp, grap_lp, combine_heads(syll_lp, grap_lp, gamma), provenance)
        for (text, provenance), syll_lp, grap_lp in zip(candidates, *heads)
    ]


def combine_heads(syll_log_prob: float | None, grap_log_prob: float | None, gamma: float) -> float:
    """Weighted log-sum-exp of the present heads; absent heads contribute
    zero probability, as does a head whose weight is exactly zero."""
    score = NEG_INF
    if syll_log_prob is not None and gamma > 0.0:
        score = math.log(gamma) + syll_log_prob
    if grap_log_prob is not None and gamma < 1.0:
        term = math.log1p(-gamma) + grap_log_prob
        if score == NEG_INF:
            score = term
        elif term != NEG_INF:
            hi, lo = (score, term) if score >= term else (term, score)
            score = hi + math.log1p(math.exp(lo - hi))
    return score


def rescore_candidate(
    text: str,
    syll_lattice: EmissionLattice,
    grap_lattice: EmissionLattice,
    syll_vocab: Vocabulary,
    grap_vocab: Vocabulary,
    gamma: float,
    provenance: frozenset[str] = frozenset(),
) -> ScoredCandidate:
    """Score one text against both lattices, independent of any beam."""
    return _rescore([(text, provenance)], syll_lattice, grap_lattice, syll_vocab, grap_vocab, gamma)[0]


def tokens_to_text(tokens: Sequence[int], vocab: Vocabulary, level: str = "syllable") -> str | None:
    """Text of a token sequence, the inverse of :func:`text_to_tokens`.

    The delimiter becomes a space; a blank or out-of-range id raises as in
    :func:`check_tokens`.  Syllable tokens are joined; grapheme tokens are
    composed into syllable blocks, and None means the jamo do not compose.
    """
    if tokens and not (BLANK_INDEX < min(tokens) and max(tokens) < vocab.size):
        check_tokens(tokens, vocab.size)  # raises for the first bad id
    units = [" " if tok == vocab.delimiter_index else vocab.tokens[tok] for tok in tokens]
    if level == "grapheme":
        return try_compose(units)
    return "".join(units)


def joint_decode(
    syll_lattice: EmissionLattice,
    grap_lattice: EmissionLattice,
    syll_vocab: Vocabulary,
    grap_vocab: Vocabulary,
    config: JointConfig = JointConfig(),
) -> JointDecodeResult:
    """Rescored union of the two beams, best candidate first.

    Ties in joint score break lexicographically on text, so the ranking is
    deterministic.
    """
    provenance: dict[str, set[str]] = {}
    dropped = 0
    for lattice, vocab, level in (
        (syll_lattice, syll_vocab, "syllable"),
        (grap_lattice, grap_vocab, "grapheme"),
    ):
        for hyp in prefix_beam_search(lattice, vocab, config.beam, level=level):
            text = tokens_to_text(hyp.tokens, vocab, level)
            if text is None:
                dropped += 1
                continue
            provenance.setdefault(text, set()).add(f"{level}_beam")

    if not provenance:
        raise BothBeamsEmpty("no candidate survived either beam")

    candidates = _rescore(
        [(text, frozenset(sources)) for text, sources in provenance.items()],
        syll_lattice, grap_lattice, syll_vocab, grap_vocab, config.gamma,
    )
    candidates.sort(key=lambda c: (-c.joint_score, c.text))
    return JointDecodeResult(candidates, dropped)


def beam_decode_texts(
    lattice: EmissionLattice,
    vocab: Vocabulary,
    level: str,
    config: BeamConfig = BeamConfig(),
) -> list[tuple[str, float]]:
    """Single-level beam decoding as (text, log_prob) pairs, best first.
    Grapheme hypotheses are composed; non-composable ones are skipped."""
    out: list[tuple[str, float]] = []
    for hyp in prefix_beam_search(lattice, vocab, config, level=level):
        text = tokens_to_text(hyp.tokens, vocab, level)
        if text is not None:
            out.append((text, hyp.log_prob))
    return out
