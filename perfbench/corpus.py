"""Seeded corpus generator and lattice writers for the benchmark.

    python3 perfbench/corpus.py SRC_DIR WORKLOAD SEED OUT_DIR

writes one workload's corpus (see ``Corpus.save``).  run.py generates in
this separate process so that the generator's memory does not count in
the workload process's peak RSS.

Every input the benchmark feeds to hanjoint is built here from the run's
seed, with nothing taken from ``hanjoint.synth``, so a change to the
package's own synthetic generators cannot change a workload.

Both heads of one utterance share one frame timeline, as two heads of one
acoustic model do: every grapheme unit (a jamo or the word boundary) holds
``JAMO_FRAMES`` frames, units are separated by ``GAP_FRAMES`` blank
frames, and a syllable spans the frames from its first jamo to its last.

Shapes (utterance count, word structure, frame counts) follow a fixed
schedule; the seed chooses only which syllables fill them and where the
held-out syllables sit.  That keeps the amount of work per run nearly
independent of the seed, so runs on different seeds can be compared.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Format constants, restated from the lattice and vocabulary formats that
# README.md and hanjoint.lattice_io document.
BLANK_TOKEN = "<ctc_blank>"
DELIMITER_TOKEN = "|"
CTCL_MAGIC = b"CTCL"
CTCL_VERSION = 1
CTCL_FLAG_NORMALIZED = 0x01

JAMO_FRAMES = 2
GAP_FRAMES = 1

# Hangul syllable block arithmetic (Unicode U+AC00..U+D7A3).
SYLLABLE_BASE = 0xAC00
SYLLABLE_COUNT = 11172
INITIALS = "ㄱㄲㄴㄷㄸㄹㅁㅂㅃㅅㅆㅇㅈㅉㅊㅋㅌㅍㅎ"
MEDIALS = "ㅏㅐㅑㅒㅓㅔㅕㅖㅗㅘㅙㅚㅛㅜㅝㅞㅟㅠㅡㅢㅣ"
FINALS = ("", "ㄱ", "ㄲ", "ㄳ", "ㄴ", "ㄵ", "ㄶ", "ㄷ", "ㄹ", "ㄺ", "ㄻ", "ㄼ", "ㄽ", "ㄾ",
          "ㄿ", "ㅀ", "ㅁ", "ㅂ", "ㅄ", "ㅅ", "ㅆ", "ㅇ", "ㅈ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ")
ALL_JAMO = sorted(set(INITIALS) | set(MEDIALS) | set(FINALS[1:]))


def jamo_of(syllable: str) -> list[str]:
    offset = ord(syllable) - SYLLABLE_BASE
    final = FINALS[offset % 28]
    head = [INITIALS[offset // 588], MEDIALS[(offset % 588) // 28]]
    return head + [final] if final else head


@dataclass
class Utterance:
    id: str
    text: str
    syll_scores: np.ndarray  # F x Vs, float32
    grap_scores: np.ndarray  # F x Vg, float32
    holdouts: int  # occurrences of held-out syllables in ``text``


@dataclass
class Corpus:
    syllable_tokens: list[str]  # vocabulary files, blank and delimiter included
    grapheme_tokens: list[str]
    holdouts: list[str]
    utterances: list[Utterance]
    normalized: bool  # rows are log-probabilities (else raw logits)
    format: str  # "binary" or "text"

    def save(self, out: Path) -> None:
        """Write ``out/corpus`` (every utterance), ``out/loss-corpus`` (the
        utterances without held-out syllables, when that is fewer) and
        ``out/meta.json``, which describes them without the lattices."""
        loss_ids = [u.id for u in self.utterances if u.holdouts == 0]
        self.write(out / "corpus")
        if len(loss_ids) < len(self.utterances):
            self.write(out / "loss-corpus", loss_ids)
        meta = {
            "refs": {u.id: u.text for u in self.utterances},
            "holdouts": self.holdouts,
            "holdout_counts": {u.id: u.holdouts for u in self.utterances},
            "loss_ids": loss_ids,
            "frames": {u.id: u.syll_scores.shape[0] for u in self.utterances},
            "syllable_vocab": len(self.syllable_tokens),
            "grapheme_vocab": len(self.grapheme_tokens),
            "lattice_format": self.format,
            "normalized": self.normalized,
        }
        (out / "meta.json").write_text(json.dumps(meta, ensure_ascii=False), encoding="utf-8")

    def write(self, out: Path, ids: list[str] | None = None) -> None:
        """Write a corpus directory in hanjoint's layout; ``ids`` restricts
        it to a subset of the utterances."""
        out.mkdir(parents=True, exist_ok=True)
        (out / "syllable.vocab").write_text("\n".join(self.syllable_tokens) + "\n", encoding="utf-8")
        (out / "grapheme.vocab").write_text("\n".join(self.grapheme_tokens) + "\n", encoding="utf-8")
        chosen = [u for u in self.utterances if ids is None or u.id in ids]
        (out / "refs.tsv").write_text("".join(f"{u.id}\t{u.text}\n" for u in chosen), encoding="utf-8")
        write = write_binary if self.format == "binary" else write_text
        for u in chosen:
            write(out / f"{u.id}.syll.lat", u.syll_scores, self.normalized)
            write(out / f"{u.id}.grap.lat", u.grap_scores, self.normalized)


def write_binary(path: Path, scores: np.ndarray, normalized: bool) -> None:
    """CTCL v1: magic, version byte, flags byte, F and V as little-endian
    uint32, then F*V little-endian float32 values row-major."""
    frames, vocab = scores.shape
    flags = CTCL_FLAG_NORMALIZED if normalized else 0
    header = CTCL_MAGIC + bytes([CTCL_VERSION, flags]) + struct.pack("<II", frames, vocab)
    path.write_bytes(header + scores.astype("<f4").tobytes())


def write_text(path: Path, scores: np.ndarray, normalized: bool) -> None:
    """Text format: header ``F V norm|raw``, then F lines of V decimals.
    Nine significant digits carry a float32 exactly."""
    frames, vocab = scores.shape
    row_format = " ".join(["%.9g"] * vocab) + "\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{frames} {vocab} {'norm' if normalized else 'raw'}\n")
        for row in scores.tolist():
            fh.write(row_format % tuple(row))


# ---------------------------------------------------------------------------
# shared frame timeline
# ---------------------------------------------------------------------------

def timeline(words: list[list[str]]) -> tuple[list[tuple[str, int, int]], list[tuple[str, int, int]], int]:
    """Frame spans ``(unit, start, end)`` of the syllable and grapheme heads
    on one shared timeline, plus the frame count.  The word boundary is a
    unit of both heads; frames outside every span are blank frames."""
    syll_spans: list[tuple[str, int, int]] = []
    grap_spans: list[tuple[str, int, int]] = []
    t = 0

    def unit(item: str) -> tuple[int, int]:
        nonlocal t
        if t:
            t += GAP_FRAMES
        span = (t, t + JAMO_FRAMES)
        grap_spans.append((item, *span))
        t += JAMO_FRAMES
        return span

    for w, word in enumerate(words):
        if w:
            start, end = unit(DELIMITER_TOKEN)
            syll_spans.append((DELIMITER_TOKEN, start, end))
        for syllable in word:
            spans = [unit(j) for j in jamo_of(syllable)]
            syll_spans.append((syllable, spans[0][0], spans[-1][1]))
    return syll_spans, grap_spans, t


def jamo_units(words: list[list[str]]) -> int:
    """Grapheme units of ``words``: jamo plus word boundaries."""
    return sum(len(jamo_of(s)) for w in words for s in w) + len(words) - 1


def frames_for(units: int) -> int:
    return units * JAMO_FRAMES + (units - 1) * GAP_FRAMES


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _peaked_rows(frames: int, spans, index: dict[str, int], noise: float) -> np.ndarray:
    """Rows with the target unit at 1 - noise and the rest spread uniformly;
    a unit missing from ``index`` (held out) gets a uniform row."""
    vocab = len(index)
    probs = np.full((frames, vocab), noise / (vocab - 1))
    probs[:, 0] = 1.0 - noise
    for unit, start, end in spans:
        tok = index.get(unit)
        if tok is None:
            probs[start:end] = 1.0 / vocab
        else:
            probs[start:end] = noise / (vocab - 1)
            probs[start:end, tok] = 1.0 - noise
    return np.log(probs)


def _gaussian_rows(rng: np.random.Generator, frames: int, spans, index: dict[str, int],
                   scale: float, boost: float) -> np.ndarray:
    """Gaussian logits with the target unit boosted; a held-out unit is
    left unboosted.  Continuous noise leaves no exact ties."""
    logits = rng.normal(0.0, scale, size=(frames, len(index)))
    target = np.zeros(frames, dtype=np.int64)
    for unit, start, end in spans:
        target[start:end] = index.get(unit, -1)
    rows = np.nonzero(target >= 0)[0]
    logits[rows, target[rows]] += boost
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _index(tokens: list[str]) -> dict[str, int]:
    return {tok: i for i, tok in enumerate(tokens)}


def _sentence(rng: np.random.Generator, pool: list[str], word_lengths: list[int]) -> list[list[str]]:
    return [[pool[int(i)] for i in rng.integers(0, len(pool), size=n)] for n in word_lengths]


def _place_holdout(rng: np.random.Generator, words: list[list[str]], holdout: str, held: list[str]) -> None:
    """Replace one seeded syllable that is not already held out."""
    flat = [(w, s) for w, word in enumerate(words) for s, syl in enumerate(word) if syl not in held]
    w, s = flat[int(rng.integers(0, len(flat)))]
    words[w][s] = holdout


def oov_small(seed: int, pool: str, utterances: int) -> Corpus:
    """The peaked OOV-recovery corpus: about 30 syllables and 30 jamo,
    1-3 words of 1-4 syllables per utterance, noise 0.3 spread uniformly
    (so exact ties reach the beam's tie-break), 흙 and 밝 held out of the
    syllable vocabulary.  Every other utterance carries one held-out
    occurrence."""
    holdouts = ["흙", "밝"]
    syllables = sorted(set(pool) | set(holdouts))
    in_vocab = [s for s in syllables if s not in holdouts]
    syll_tokens = [BLANK_TOKEN, DELIMITER_TOKEN, *in_vocab]
    grap_tokens = [BLANK_TOKEN, DELIMITER_TOKEN, *sorted({j for s in syllables for j in jamo_of(s)})]
    syll_index, grap_index = _index(syll_tokens), _index(grap_tokens)

    rng = np.random.default_rng(seed)
    utts = []
    for k in range(utterances):
        shape = [1 + (k + i) % 4 for i in range(1 + k % 3)]
        words = _sentence(rng, in_vocab, shape)
        if k % 2 == 0:
            _place_holdout(rng, words, holdouts[(k // 2) % 2], holdouts)
        syll_spans, grap_spans, frames = timeline(words)
        utts.append(Utterance(
            id=f"utt{k:04d}",
            text=" ".join("".join(w) for w in words),
            syll_scores=_peaked_rows(frames, syll_spans, syll_index, 0.3),
            grap_scores=_peaked_rows(frames, grap_spans, grap_index, 0.3),
            holdouts=int(k % 2 == 0),
        ))
    return Corpus(syll_tokens, grap_tokens, holdouts, utts, normalized=True, format="binary")


def large_vocab(seed: int, utterances: int, normalized: bool = True, format: str = "binary",
                holdouts: bool = True) -> Corpus:
    """The paper-sized corpus: 2302 syllable tokens, all 51 jamo, frame
    counts spread evenly over 250-600 (trailing blank frames pad each
    utterance to its exact count), Gaussian logits (scale 1) with the
    target boosted by 8 on the syllable head and 5.5 on the grapheme head.
    With ``holdouts``, four syllables are kept out of the syllable
    vocabulary and every other utterance carries two occurrences."""
    rng = np.random.default_rng(seed)
    picked = rng.choice(SYLLABLE_COUNT, size=2300 + 4, replace=False)
    chars = [chr(SYLLABLE_BASE + int(i)) for i in picked]
    in_vocab, held = sorted(chars[:2300]), (chars[2300:] if holdouts else [])
    syll_tokens = [BLANK_TOKEN, DELIMITER_TOKEN, *in_vocab]
    grap_tokens = [BLANK_TOKEN, DELIMITER_TOKEN, *ALL_JAMO]
    syll_index, grap_index = _index(syll_tokens), _index(grap_tokens)

    utts = []
    for k, target in enumerate(np.linspace(250, 600, utterances)):
        words: list[list[str]] = []
        while True:
            word = _sentence(rng, in_vocab, [1 + len(words) % 4])[0]
            if frames_for(jamo_units(words + [word])) > target:
                break
            words.append(word)
        count = 2 if held and k % 2 == 0 else 0
        for h in range(count):
            _place_holdout(rng, words, held[(k + h) % len(held)], held)
        syll_spans, grap_spans, _ = timeline(words)
        frames = int(target)  # trailing blank frames make the frame count exact
        syll = _gaussian_rows(rng, frames, syll_spans, syll_index, 1.0, 8.0)
        grap = _gaussian_rows(rng, frames, grap_spans, grap_index, 1.0, 5.5)
        if normalized:
            syll, grap = _log_softmax(syll), _log_softmax(grap)
        text = " ".join("".join(w) for w in words)
        utts.append(Utterance(
            id=f"utt{k:04d}",
            text=text,
            syll_scores=syll.astype(np.float32),
            grap_scores=grap.astype(np.float32),
            holdouts=sum(ch in held for ch in text),
        ))
    return Corpus(syll_tokens, grap_tokens, held, utts, normalized=normalized, format=format)


WORKLOADS = {
    "oov-small": lambda seed, pool: oov_small(seed, pool, utterances=56),
    "large-vocab": lambda seed, pool: large_vocab(seed, utterances=4),
    "loss-text": lambda seed, pool: large_vocab(
        seed, utterances=3, normalized=False, format="text", holdouts=False),
}


def main(argv: list[str]) -> int:
    src, workload, seed, out = argv
    sys.path.insert(0, src)
    from hanjoint.cli import SYLLABLE_POOL

    WORKLOADS[workload](int(seed), SYLLABLE_POOL).save(Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
