"""Vocabularies, emission lattices, and their on-disk formats.

A vocabulary is a UTF-8 text file, one token per line, with the CTC blank
pinned to index 0 and a single ``"|"`` word-delimiter token somewhere in the
list.  An emission lattice is an F x V matrix of per-frame scores, either
raw logits or log-probabilities (``normalized=True`` means each row's
probabilities sum to 1).

Lattices ship in two interchangeable formats:

* binary ("CTCL" v1): magic ``CTCL``, version byte 1, flags byte (bit 0 =
  normalized, bits 1-7 must be zero), F and V as little-endian uint32, then
  F*V little-endian float32 values in row-major order;
* text: a header line ``F V [norm|raw]`` followed by F lines of V
  space-separated decimals.

:func:`load_lattice` tells them apart by the ``CTCL`` magic; any other file
must be UTF-8 text.  The values of both are checked once, by
:class:`EmissionLattice`.  Binary values are 32-bit floats; in memory all
values are float64.  :func:`normalize` returns an already-normalized
lattice unchanged, so callers apply it unconditionally.

Text becomes token ids here (:func:`text_to_tokens`); the way back, token
ids to text, is :func:`hanjoint.joint.tokens_to_text`.  Token ids that come
from elsewhere are checked by :func:`check_tokens`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import hangul
from .errors import (
    BadMagic,
    BlankInLabel,
    DimensionMismatch,
    DuplicateToken,
    HanjointError,
    MissingBlank,
    MissingDelimiter,
    NonFiniteScore,
    OutOfVocabulary,
    TruncatedFile,
)

BLANK_TOKEN = "<ctc_blank>"
DELIMITER_TOKEN = "|"
BLANK_INDEX = 0

_MAGIC = b"CTCL"
_VERSION = 1
_FLAG_NORMALIZED = 0x01

ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token inventory with blank at index 0 and a word delimiter."""

    tokens: tuple[str, ...]
    delimiter_index: int = field(init=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tokens or self.tokens[0] != BLANK_TOKEN:
            raise MissingBlank(f"token {BLANK_TOKEN!r} must sit at index 0")
        index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if not tok:
                raise HanjointError(f"empty token at line {i + 1}")
            if tok in index:
                raise DuplicateToken(tok, i + 1)
            index[tok] = i
        if DELIMITER_TOKEN not in index:
            raise MissingDelimiter(f"no {DELIMITER_TOKEN!r} token present")
        object.__setattr__(self, "delimiter_index", index[DELIMITER_TOKEN])
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index_of(self, token: str) -> int | None:
        return self._index.get(token)

    @classmethod
    def from_units(cls, units: list[str]) -> "Vocabulary":
        """Build a vocabulary from content units, prepending blank and delimiter."""
        return cls((BLANK_TOKEN, DELIMITER_TOKEN, *units))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(tuple(lines))

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")


@dataclass
class EmissionLattice:
    """F x V per-frame score matrix (float64 in memory)."""

    scores: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise DimensionMismatch(f"lattice must be 2-D, got shape {scores.shape}")
        self.scores = scores
        # One pass: a finite sum means finite scores.  A sum that is not
        # finite is either a non-finite score, found by the scan, or an
        # overflow of finite ones.
        with np.errstate(over="ignore", invalid="ignore"):
            total = scores.sum()
        if not np.isfinite(total):
            bad = np.argwhere(~np.isfinite(scores))
            if bad.size:
                frame, index = map(int, bad[0])
                raise NonFiniteScore(frame, index)
        if self.normalized and scores.shape[0]:
            sums = np.exp(scores).sum(axis=1)
            off = np.abs(sums - 1.0)
            worst = int(np.argmax(off))
            if off[worst] > ROW_SUM_TOL:
                raise HanjointError(
                    f"row {worst} marked normalized but probabilities sum to {sums[worst]!r}"
                )

    @property
    def frames(self) -> int:
        return self.scores.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.scores.shape[1]


def normalize(lattice: EmissionLattice) -> EmissionLattice:
    """Log-softmax each row; a lattice already marked normalized is returned
    as is."""
    if lattice.normalized:
        return lattice
    scores = lattice.scores
    if scores.shape[0] == 0:
        return EmissionLattice(scores.copy(), normalized=True)
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return EmissionLattice(shifted - log_z, normalized=True)


def require_normalized(lattice: EmissionLattice) -> None:
    """Reject raw logits where log-probabilities are needed."""
    if not lattice.normalized:
        raise HanjointError("lattice must be normalized (log-probabilities)")


def _build(scores: np.ndarray, normalized: bool, path: str) -> EmissionLattice:
    """The lattice of a parsed file; a value error names the path, and a
    non-finite score keeps its type and position."""
    try:
        return EmissionLattice(scores, normalized=normalized)
    except NonFiniteScore as exc:
        raise NonFiniteScore(exc.frame, exc.index, path) from None
    except HanjointError as exc:
        raise HanjointError(f"{path}: {exc}") from exc


def _parse_binary(data: bytes, path: str) -> EmissionLattice:
    """A file that starts with the magic, read as a CTCL lattice."""
    if len(data) < 14:
        raise TruncatedFile(f"{path}: header incomplete")
    version, flags = data[4], data[5]
    if version != _VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    if flags & ~_FLAG_NORMALIZED:
        raise BadMagic(f"{path}: reserved flag bits set: {flags:#04x}")
    frames, vocab = struct.unpack_from("<II", data, 6)
    body = data[14:]
    expected = frames * vocab * 4
    if len(body) < expected:
        raise TruncatedFile(f"{path}: need {expected} payload bytes, found {len(body)}")
    if len(body) > expected:
        raise DimensionMismatch(f"{path}: {len(body) - expected} trailing bytes")
    values = np.frombuffer(body, dtype="<f4", count=frames * vocab)
    scores = values.astype(np.float64).reshape(frames, vocab)
    return _build(scores, bool(flags & _FLAG_NORMALIZED), path)


def _parse_text(data: bytes, path: str) -> EmissionLattice:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise BadMagic(f"{path}: neither a CTCL lattice nor UTF-8 text") from None
    lines = text.splitlines()
    if not lines:
        raise TruncatedFile(f"{path}: empty file")
    head = lines[0].split()
    if len(head) not in (2, 3):
        raise DimensionMismatch(f"{path}: header must be 'F V [norm|raw]'")
    try:
        frames, vocab = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DimensionMismatch(f"{path}: bad header {lines[0]!r}") from exc
    normalized = False
    if len(head) == 3:
        if head[2] not in ("norm", "raw"):
            raise DimensionMismatch(f"{path}: unknown mode {head[2]!r}")
        normalized = head[2] == "norm"
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) < frames:
        raise TruncatedFile(f"{path}: expected {frames} rows, found {len(rows)}")
    if len(rows) > frames:
        raise DimensionMismatch(f"{path}: expected {frames} rows, found {len(rows)}")
    scores = np.empty((frames, vocab), dtype=np.float64)
    for f, line in enumerate(rows):
        parts = line.split()
        if len(parts) != vocab:
            raise DimensionMismatch(f"{path}: row {f} has {len(parts)} values, expected {vocab}")
        try:
            scores[f] = parts  # numpy parses each string as float() does
        except ValueError as exc:
            raise DimensionMismatch(f"{path}: row {f}: {exc}") from exc
    return _build(scores, normalized, path)


def load_lattice(path: str | Path) -> EmissionLattice:
    """Read a lattice file in either format, told apart by the magic bytes."""
    data = Path(path).read_bytes()
    if data[:4] == _MAGIC:
        return _parse_binary(data, str(path))
    return _parse_text(data, str(path))


def save_lattice(lattice: EmissionLattice, path: str | Path, format: str = "binary") -> None:
    path = Path(path)
    if format == "binary":
        flags = _FLAG_NORMALIZED if lattice.normalized else 0
        header = _MAGIC + bytes([_VERSION, flags])
        header += struct.pack("<II", lattice.frames, lattice.vocab_size)
        body = lattice.scores.astype("<f4").tobytes()
        path.write_bytes(header + body)
    elif format == "text":
        mode = "norm" if lattice.normalized else "raw"
        lines = [f"{lattice.frames} {lattice.vocab_size} {mode}"]
        for row in lattice.scores:
            lines.append(" ".join(repr(float(x)) for x in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown lattice format {format!r}")


def text_to_units(text: str, level: str) -> list[str]:
    """Split text into the unit sequence of a modeling level; spaces become
    the word boundary marker at both levels."""
    if level == "syllable":
        return list(text)
    if level == "grapheme":
        return hangul.decompose_text(text)
    raise ValueError(f"unknown level {level!r}")


def text_to_tokens(text: str, vocab: Vocabulary, level: str) -> list[int]:
    """Map text to vocabulary indices.  Raises :class:`OutOfVocabulary` with
    the offending unit and its position in the unit sequence."""
    tokens: list[int] = []
    for pos, unit in enumerate(text_to_units(text, level)):
        if unit == " ":
            tokens.append(vocab.delimiter_index)
            continue
        idx = vocab.index_of(unit)
        if idx is None:
            raise OutOfVocabulary(unit, pos)
        tokens.append(idx)
    return tokens


def check_tokens(tokens: Sequence[int] | np.ndarray, vocab_size: int) -> None:
    """Reject the first blank or out-of-range token id, in order, with one
    array comparison over all of them."""
    ids = np.asarray(tokens, dtype=np.int64)
    bad = (ids <= BLANK_INDEX) | (ids >= vocab_size)
    if bad.any():
        tok = int(ids[np.argmax(bad)])
        if tok == BLANK_INDEX:
            raise BlankInLabel("label may not contain the blank index")
        raise HanjointError(f"token index {tok} outside vocabulary of size {vocab_size}")
