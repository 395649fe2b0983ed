"""Error-rate metrics: CER, WER, and space-normalized WER.

CER is computed over syllable/passthrough characters with spaces excluded
(Korean spacing is too inconsistent to count at the character level).  WER
is computed over space-delimited words.  sWER first rewrites the
hypothesis's spacing to match the reference: the two strings are aligned
space-free, and a space is inserted after every hypothesis character whose
aligned reference character immediately precedes a space.  A hypothesis
differing only in spacing therefore scores 0.

The OOV recovery rule lives here too: :func:`recovered_units` gives the
reference characters of a unit set that the hypothesis reproduces, by the
alignment that :func:`cer` scores.

Corpus rates are micro-averaged (summed edits over summed reference
lengths), so they can exceed 100% when insertions dominate; they are not
clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyReference

# one alignment step: (op, ref_index, hyp_index); gap positions are None
AlignOp = tuple[str, int | None, int | None]


@dataclass(frozen=True)
class EditSummary:
    substitutions: int
    insertions: int
    deletions: int
    reference_length: int

    @property
    def edits(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        return self.edits / self.reference_length


def levenshtein(a, b) -> tuple[EditSummary, list[AlignOp]]:
    """Minimal unit-cost edit distance from ``a`` (reference) to ``b``
    (hypothesis) with a deterministic backtrace: at equal cost, prefer
    match, then substitution, then deletion, then insertion."""
    n, m = len(a), len(b)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        ai = a[i - 1]
        row = dist[i]
        prev = dist[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ai == b[j - 1] else 1
            row[j] = min(prev[j - 1] + cost, prev[j] + 1, row[j - 1] + 1)

    ops: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i, j]
        if i > 0 and j > 0 and a[i - 1] == b[j - 1] and dist[i - 1, j - 1] == here:
            ops.append(("match", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i - 1, j - 1] + 1 == here:
            ops.append(("sub", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i - 1, j] + 1 == here:
            ops.append(("del", i - 1, None))
            i -= 1
        else:
            ops.append(("ins", None, j - 1))
            j -= 1
    ops.reverse()

    subs = sum(1 for op, _, _ in ops if op == "sub")
    ins = sum(1 for op, _, _ in ops if op == "ins")
    dels = sum(1 for op, _, _ in ops if op == "del")
    return EditSummary(subs, ins, dels, n), ops


def _char_units(text: str) -> list[str]:
    return [ch for ch in text if ch != " "]


def cer(reference: str, hypothesis: str) -> EditSummary:
    ref = _char_units(reference)
    if not ref:
        raise EmptyReference("reference has no characters")
    summary, _ = levenshtein(ref, _char_units(hypothesis))
    return summary


def recovered_units(reference: str, hypothesis: str, units) -> list[str]:
    """The characters of ``reference`` that are in ``units`` and that the
    hypothesis reproduces, in reference order: those the space-free
    alignment of :func:`cer` matches.  A unit counts once per occurrence."""
    ref = _char_units(reference)
    _, ops = levenshtein(ref, _char_units(hypothesis))
    return [ref[i] for op, i, _ in ops if op == "match" and ref[i] in units]


def wer(reference: str, hypothesis: str) -> EditSummary:
    ref = reference.split()
    if not ref:
        raise EmptyReference("reference has no words")
    summary, _ = levenshtein(ref, hypothesis.split())
    return summary


def space_normalize(reference: str, hypothesis: str) -> str:
    """Respaced hypothesis: non-space characters kept verbatim and in order,
    spaces re-derived from the reference via a space-free alignment."""
    ref_chars = _char_units(reference)
    hyp_chars = _char_units(hypothesis)

    # does the reference character at stripped index i precede a space?
    space_after = []
    raw = [ch for ch in reference]
    for k, ch in enumerate(raw):
        if ch == " ":
            continue
        space_after.append(k + 1 < len(raw) and raw[k + 1] == " ")

    _, ops = levenshtein(ref_chars, hyp_chars)
    pieces: list[str] = []
    for op, i, j in ops:
        if j is None:
            continue
        pieces.append(hyp_chars[j])
        if op in ("match", "sub") and space_after[i]:
            pieces.append(" ")
    return "".join(pieces)


def swer(reference: str, hypothesis: str) -> EditSummary:
    """WER after normalizing the hypothesis's spacing to the reference's."""
    return wer(reference, space_normalize(reference, hypothesis))


@dataclass(frozen=True)
class UtteranceEval:
    id: str
    cer: EditSummary
    wer: EditSummary
    swer: EditSummary

    @classmethod
    def score(cls, uid: str, reference: str, hypothesis: str) -> "UtteranceEval":
        """Raises :class:`EmptyReference` when the reference has nothing to score."""
        return cls(uid, cer(reference, hypothesis), wer(reference, hypothesis), swer(reference, hypothesis))


@dataclass
class EvalReport:
    """Per-utterance scores plus micro-averaged corpus rates."""

    utterances: list[UtteranceEval]

    def _micro(self, metric: str) -> float:
        edits = sum(getattr(u, metric).edits for u in self.utterances)
        length = sum(getattr(u, metric).reference_length for u in self.utterances)
        return edits / length

    @property
    def corpus_cer(self) -> float:
        return self._micro("cer")

    @property
    def corpus_wer(self) -> float:
        return self._micro("wer")

    @property
    def corpus_swer(self) -> float:
        return self._micro("swer")

    @classmethod
    def from_pairs(cls, items: list[tuple[str, str, str]]) -> "EvalReport":
        """items: (utterance id, reference, hypothesis)."""
        return cls([UtteranceEval.score(uid, ref, hyp) for uid, ref, hyp in items])
