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
    unit_inventory,
)

ENUMERATION_GUARD = 10**7

# Zero probabilities would put -inf into a log-domain lattice, so "no noise"
# is floored at a level that cannot disturb argmax or ranking.
NOISE_FLOOR = 1e-8


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for peaked lattices on a shared frame timeline: each grapheme
    unit holds ``frames_per_token`` frames at probability 1 - noise, and
    units are separated by ``blank_gap`` blank-dominant frames.  No
    generator reads ``seed`` yet (it is kept for a seeded noise model), so
    lattice generation is fully deterministic."""

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
    return brute_force_all(lattice).get(tuple(label), -np.inf)


def brute_force_best(lattice: EmissionLattice, vocab: Vocabulary) -> tuple[str, float]:
    """Most probable collapsed label, with the same lexicographic tie-break
    the beam search uses."""
    best_label, best_lp = None, -np.inf
    for label, lp in brute_force_all(lattice).items():
        if lp > best_lp or (lp == best_lp and (best_label is None or label < best_label)):
            best_label, best_lp = label, lp
    return tokens_to_text(best_label, vocab), best_lp


def random_lattice(rng: np.random.Generator, frames: int, vocab_size: int, scale: float = 1.0) -> EmissionLattice:
    """Normalized lattice with Gaussian logits; ties have probability zero."""
    return normalize(EmissionLattice(rng.normal(0.0, scale, size=(frames, vocab_size))))


def _timeline(text: str, spec: SynthSpec) -> tuple[dict[str, list[tuple[str, int, int]]], int]:
    """Frame spans ``(unit, start, end)`` of each level's units (in the
    order of ``text_to_units``) on one timeline, and the frame count.

    Every grapheme unit (a jamo, the word boundary or a passthrough
    character) holds ``frames_per_token`` frames, units are separated by
    ``blank_gap`` blank frames, and a syllable spans the frames from its
    first jamo to its last.  Where two equal units would touch at either
    level, one blank frame separates them, so the argmax path of each level
    collapses back to its units.
    """
    spans: dict[str, list[tuple[str, int, int]]] = {"syllable": [], "grapheme": []}
    t = 0
    prev_char = prev_unit = None
    for char in text:
        start = None
        for unit in hangul.decompose_text(char):
            if prev_unit is not None:
                touching = unit == prev_unit or (start is None and char == prev_char)
                t += spec.blank_gap or int(touching)
            start = t if start is None else start
            spans["grapheme"].append((unit, t, t + spec.frames_per_token))
            t += spec.frames_per_token
            prev_unit = unit
        spans["syllable"].append((char, start, t))
        prev_char = char
    return spans, t


def gen_lattice(
    text: str,
    vocab: Vocabulary,
    level: str,
    spec: SynthSpec = SynthSpec(),
    holdouts: frozenset[str] = frozenset(),
) -> EmissionLattice:
    """Peaked lattice of one level for a reference text, on the text's
    shared timeline: both levels of one text get the same frame count.

    A unit in ``holdouts`` gets uniform (maximally confused) rows over its
    span, the way an acoustic model behaves on a unit it never saw; any
    other unit outside ``vocab`` raises :class:`OutOfVocabulary` with its
    position in the level's unit sequence.
    """
    spans, frames = _timeline(text, spec)
    if level not in spans:
        raise ValueError(f"unknown level {level!r}")
    V = vocab.size
    eps = max(spec.noise, NOISE_FLOOR)
    probs = np.full((frames, V), eps / (V - 1))
    probs[:, BLANK_INDEX] = 1.0 - eps
    for pos, (unit, start, end) in enumerate(spans[level]):
        if unit in holdouts:
            probs[start:end] = 1.0 / V
            continue
        tok = vocab.delimiter_index if unit == " " else vocab.index_of(unit)
        if tok is None:
            raise OutOfVocabulary(unit, pos)
        probs[start:end] = eps / (V - 1)
        probs[start:end, tok] = 1.0 - eps
    return EmissionLattice(np.log(probs), normalized=True)


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
    holdout_set = frozenset(holdouts)
    syll_units = [u for u in unit_inventory(base_texts, "syllable") if u not in holdout_set]
    train_like = ["".join(ch for ch in t if ch not in holdout_set) for t in base_texts]
    grap_units = unit_inventory(train_like, "grapheme")
    grap_cover = set(grap_units)

    for syll in holdouts:
        if not hangul.is_syllable(syll):
            raise HanjointError(f"holdout {syll!r} is not a Hangul syllable")
        for jamo in hangul.decompose_syllable(syll):
            if jamo not in grap_cover:
                raise UncoverableHoldout(syll, jamo)

    syll_vocab = Vocabulary.from_units(syll_units)
    grap_vocab = Vocabulary.from_units(grap_units)
    utterances = [
        SynthUtterance(
            id=f"utt{k:04d}",
            text=text,
            syllable_lattice=gen_lattice(text, syll_vocab, "syllable", spec, holdout_set),
            grapheme_lattice=gen_lattice(text, grap_vocab, "grapheme", spec),
            holdout_positions=[i for i, ch in enumerate(text) if ch in holdout_set],
        )
        for k, text in enumerate(base_texts)
    ]
    return OovCorpus(utterances, syll_vocab, grap_vocab, holdouts)
