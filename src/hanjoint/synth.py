"""Brute-force oracles and synthetic lattice/corpus generators.

The brute-force scorer enumerates every frame-level path and is the ground
truth the dynamic-programming scorer and the beam search are validated
against.  The generators build peaked emission lattices from reference
texts, including paired syllable/grapheme corpora with held-out syllables
for out-of-vocabulary recovery experiments.

These live in the shipped package (not in the test tree) so the CLI
``selfcheck`` command can replay the validation anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import hangul
from .ctc import collapse
from .errors import ConfigError, HanjointError, OutOfVocabulary, TooLarge, UncoverableHoldout
from .joint import tokens_to_text
from .lattice_io import (
    BLANK_INDEX,
    EmissionLattice,
    Vocabulary,
    normalize,
    require_normalized,
    text_to_units,
)

ENUMERATION_GUARD = 10**7

# Zero probabilities would put -inf into a log-domain lattice, so "no noise"
# is floored at a level that cannot disturb argmax or ranking.
NOISE_FLOOR = 1e-8


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a peaked lattice: each token holds ``frames_per_token``
    frames at probability 1 - noise, separated by ``blank_gap``
    blank-dominant frames.  ``seed`` feeds corpus-level randomization
    (text sampling, spacing perturbation); single-lattice generation is
    fully deterministic."""

    text: str
    frames_per_token: int = 3
    blank_gap: int = 1
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.frames_per_token < 1:
            raise ConfigError("frames_per_token must be >= 1")
        if self.blank_gap < 0:
            raise ConfigError("blank_gap must be >= 0")
        if not 0.0 <= self.noise < 1.0:
            raise ConfigError("noise must lie in [0, 1)")


def brute_force_all(lattice: EmissionLattice) -> dict[tuple[int, ...], float]:
    """Total probability mass per collapsed label, by path enumeration."""
    require_normalized(lattice)
    F, V = lattice.scores.shape
    if V**F > ENUMERATION_GUARD:
        raise TooLarge(f"{V}^{F} paths exceed the enumeration guard")
    masses: dict[tuple[int, ...], list[float]] = {}
    scores = lattice.scores
    for path in itertools.product(range(V), repeat=F):
        lp = sum(scores[t, tok] for t, tok in enumerate(path))
        masses.setdefault(tuple(collapse(path)), []).append(lp)
    out: dict[tuple[int, ...], float] = {}
    for label, lps in masses.items():
        arr = np.array(lps)
        m = arr.max()
        out[label] = float(m + np.log(np.exp(arr - m).sum()))
    return out


def brute_force_ctc(lattice: EmissionLattice, label) -> float:
    """log p(label) by explicit enumeration; -inf when no path collapses to
    the label."""
    if lattice.frames == 0:
        return 0.0 if len(label) == 0 else -np.inf
    return brute_force_all(lattice).get(tuple(label), -np.inf)


def brute_force_best(
    lattice: EmissionLattice, vocab: Vocabulary, max_len: int | None = None
) -> tuple[str, float]:
    """Most probable collapsed label of length <= max_len, with the same
    lexicographic tie-break the beam search uses."""
    if lattice.frames == 0:
        return "", 0.0
    masses = brute_force_all(lattice)
    limit = lattice.frames if max_len is None else max_len
    best_label, best_lp = None, -np.inf
    for label, lp in masses.items():
        if len(label) > limit:
            continue
        if lp > best_lp or (lp == best_lp and (best_label is None or label < best_label)):
            best_label, best_lp = label, lp
    if best_label is None:
        return "", -np.inf
    return tokens_to_text(best_label, vocab), best_lp


def random_lattice(rng: np.random.Generator, frames: int, vocab_size: int, scale: float = 1.0) -> EmissionLattice:
    """Normalized lattice with Gaussian logits; ties have probability zero."""
    return normalize(EmissionLattice(rng.normal(0.0, scale, size=(frames, vocab_size))))


def _peaked_row(vocab_size: int, token: int | None, noise: float) -> np.ndarray:
    eps = max(noise, NOISE_FLOOR)
    if token is None:
        return np.full(vocab_size, 1.0 / vocab_size)
    row = np.full(vocab_size, eps / (vocab_size - 1))
    row[token] = 1.0 - eps
    return row


def _tokenize_with_confusion(
    text: str, vocab: Vocabulary, level: str, extended_vocab: Vocabulary | None
) -> list[int | None]:
    """Token indices, with None marking units to emit as pure confusion
    (in the extended vocabulary but held out of ``vocab``)."""
    tokens: list[int | None] = []
    for pos, unit in enumerate(text_to_units(text, level)):
        if unit == " ":
            tokens.append(vocab.delimiter_index)
            continue
        idx = vocab.index_of(unit)
        if idx is not None:
            tokens.append(idx)
        elif extended_vocab is not None and unit in extended_vocab:
            tokens.append(None)
        else:
            raise OutOfVocabulary(unit, pos)
    return tokens


def gen_lattice(
    spec: SynthSpec,
    vocab: Vocabulary,
    level: str,
    extended_vocab: Vocabulary | None = None,
) -> EmissionLattice:
    """Peaked lattice for a reference text.

    Tokens outside ``vocab`` raise unless ``extended_vocab`` knows them, in
    which case their frames carry a uniform (maximally confused) row, the
    way an acoustic model behaves on a unit it never saw.  Adjacent equal
    tokens always get at least one separating blank frame so the argmax
    path collapses back to the text.
    """
    tokens = _tokenize_with_confusion(spec.text, vocab, level, extended_vocab)
    V = vocab.size
    rows: list[np.ndarray] = []
    prev: int | None = None
    for k, tok in enumerate(tokens):
        gap = spec.blank_gap
        if k > 0 and tok is not None and tok == prev and gap == 0:
            gap = 1
        if k > 0:
            rows.extend(_peaked_row(V, BLANK_INDEX, spec.noise) for _ in range(gap))
        rows.extend(_peaked_row(V, tok, spec.noise) for _ in range(spec.frames_per_token))
        prev = tok
    if not rows:
        return EmissionLattice(np.zeros((0, V)), normalized=True)
    return EmissionLattice(np.log(np.stack(rows)), normalized=True)


@dataclass
class SynthUtterance:
    id: str
    text: str
    syllable_lattice: EmissionLattice
    grapheme_lattice: EmissionLattice
    holdout_positions: list[int]

    @property
    def has_holdout(self) -> bool:
        return bool(self.holdout_positions)


@dataclass
class OovCorpus:
    utterances: list[SynthUtterance]
    syllable_vocab: Vocabulary
    grapheme_vocab: Vocabulary
    holdouts: list[str]


def gen_oov_corpus(
    base_texts: list[str],
    holdout_syllables: list[str],
    spec: SynthSpec,
) -> OovCorpus:
    """Paired corpus whose syllable vocabulary excludes the holdouts.

    The grapheme vocabulary is built from the texts with holdout syllables
    removed, mimicking a training set that never saw them; a holdout whose
    jamo only it supplies is therefore uncoverable and rejected.
    """
    holdouts = list(dict.fromkeys(holdout_syllables))
    holdout_set = set(holdouts)
    syll_units = [u for u in hangul.syllable_inventory(base_texts) if u not in holdout_set]
    train_like = ["".join(ch for ch in t if ch not in holdout_set) for t in base_texts]
    grap_units = hangul.grapheme_inventory(train_like)
    grap_cover = set(grap_units)

    for syll in holdouts:
        if not hangul.is_syllable(syll):
            raise HanjointError(f"holdout {syll!r} is not a Hangul syllable")
        for jamo in hangul.decompose_syllable(syll):
            if jamo not in grap_cover:
                raise UncoverableHoldout(syll, jamo)

    syll_vocab = Vocabulary.from_units(syll_units)
    grap_vocab = Vocabulary.from_units(grap_units)
    full_syll_vocab = Vocabulary.from_units(hangul.syllable_inventory(base_texts))

    utterances = []
    for k, text in enumerate(base_texts):
        utt_spec = SynthSpec(text, spec.frames_per_token, spec.blank_gap, spec.noise, spec.seed)
        utterances.append(
            SynthUtterance(
                id=f"utt{k:04d}",
                text=text,
                syllable_lattice=gen_lattice(utt_spec, syll_vocab, "syllable", full_syll_vocab),
                grapheme_lattice=gen_lattice(utt_spec, grap_vocab, "grapheme"),
                holdout_positions=[i for i, ch in enumerate(text) if ch in holdout_set],
            )
        )
    return OovCorpus(utterances, syll_vocab, grap_vocab, holdouts)
