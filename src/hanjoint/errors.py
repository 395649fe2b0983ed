"""Exception hierarchy shared across the package."""


class HanjointError(Exception):
    """Base class for all hanjoint errors."""


class ConfigError(HanjointError, ValueError):
    """A configuration value is out of range; the CLI exits 2 on it."""


# ---- hangul ----

class InvalidSyllable(HanjointError):
    """Input character is not a precomposed Hangul syllable."""


class NonComposable(HanjointError):
    """A jamo sequence cannot be assembled into syllable blocks.

    ``position`` is the index of the offending item in the input sequence.
    """

    def __init__(self, position: int, message: str = ""):
        self.position = position
        super().__init__(message or f"jamo at position {position} cannot be placed")


# ---- vocabulary / lattice files ----

class MissingBlank(HanjointError):
    """Vocabulary file does not have the blank token at index 0."""


class MissingDelimiter(HanjointError):
    """Vocabulary file has no word-delimiter token."""


class DuplicateToken(HanjointError):
    def __init__(self, token: str, line: int):
        self.token = token
        self.line = line
        super().__init__(f"duplicate token {token!r} at line {line}")


class BadMagic(HanjointError):
    """Lattice file is neither a CTCL lattice of a known version and flags
    nor UTF-8 text."""


class TruncatedFile(HanjointError):
    """Lattice file ended before all declared entries were read."""


class NonFiniteScore(HanjointError):
    def __init__(self, frame: int, index: int, path: str | None = None):
        self.frame = frame
        self.index = index
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}non-finite score at frame {frame}, index {index}")


class DimensionMismatch(HanjointError):
    """Declared lattice dimensions disagree with the file contents."""


class OutOfVocabulary(HanjointError):
    def __init__(self, unit: str, position: int, head: str | None = None):
        self.unit = unit
        self.position = position
        self.head = head
        where = f" ({head} head)" if head else ""
        super().__init__(f"unit {unit!r} at position {position} not in vocabulary{where}")


# ---- CTC ----

class BlankInLabel(HanjointError):
    """Label sequence contains the reserved blank index."""


class InfeasibleLabel(HanjointError):
    """Label cannot be emitted in the available frames (F too small).

    Raised only by operations that must report the condition as an error;
    scoring functions return -inf instead and callers consult
    :func:`hanjoint.ctc.label_feasible`.
    """

    def __init__(self, message: str = "label infeasible for frame count", head: str | None = None):
        self.head = head
        super().__init__(message if head is None else f"{message} ({head} head)")


# ---- metrics ----

class EmptyReference(HanjointError):
    """Reference has no scoreable units."""


# ---- synthetic corpora / oracles ----

class TooLarge(HanjointError):
    """Brute-force enumeration would exceed the safety guard."""


class UncoverableHoldout(HanjointError):
    def __init__(self, syllable: str, missing: str):
        self.syllable = syllable
        self.missing = missing
        super().__init__(
            f"holdout syllable {syllable!r} needs grapheme {missing!r} "
            "which the grapheme vocabulary does not cover"
        )


# ---- CLI / evaluation ----

class UnmatchedId(HanjointError):
    def __init__(self, utt_id: str):
        self.utt_id = utt_id
        super().__init__(f"utterance id {utt_id!r} has no counterpart")
