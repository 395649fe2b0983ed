"""Joint grapheme/syllable CTC decoding for Korean ASR.

Library surface: Hangul jamo conversion, emission-lattice I/O, CTC
scoring/loss/gradients, prefix beam search, joint two-level decoding with
OOV recovery, CER/WER/sWER metrics, and the synthetic oracles everything
is validated against.  The ``hanjoint`` command wires these into batch
workflows.
"""

from .beam import BeamConfig, Hypothesis, prefix_beam_search, prefix_beam_search_batch
from .ctc import (
    LossResult,
    MultiTaskLossConfig,
    ctc_log_prob,
    ctc_log_probs,
    ctc_loss_and_grad,
    greedy_decode,
    label_feasible,
    multitask_loss,
)
from .hangul import compose_jamo, decompose_syllable, decompose_text
from .joint import (
    JointConfig,
    JointDecodeResult,
    ScoredCandidate,
    beam_decode_texts,
    beam_decode_texts_batch,
    joint_decode,
    joint_decode_batch,
    rescore_candidate,
    tokens_to_text,
)
from .lattice_io import (
    EmissionLattice,
    Vocabulary,
    load_lattice,
    normalize,
    save_lattice,
    text_to_tokens,
    unit_inventory,
)
from .metrics import EditSummary, EvalReport, cer, levenshtein, recovered_units, space_normalize, swer, wer
from .synth import SynthSpec, brute_force_best, brute_force_ctc, gen_lattice, gen_oov_corpus

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the CTC kernel backend; numpy is the only one."""
    return "numpy"


__all__ = [
    "BeamConfig",
    "EditSummary",
    "EmissionLattice",
    "EvalReport",
    "Hypothesis",
    "JointConfig",
    "JointDecodeResult",
    "LossResult",
    "MultiTaskLossConfig",
    "ScoredCandidate",
    "SynthSpec",
    "Vocabulary",
    "beam_decode_texts",
    "beam_decode_texts_batch",
    "brute_force_best",
    "brute_force_ctc",
    "cer",
    "compose_jamo",
    "ctc_log_prob",
    "ctc_log_probs",
    "ctc_loss_and_grad",
    "decompose_syllable",
    "decompose_text",
    "gen_lattice",
    "gen_oov_corpus",
    "greedy_decode",
    "joint_decode",
    "joint_decode_batch",
    "kernel_backend",
    "label_feasible",
    "levenshtein",
    "load_lattice",
    "multitask_loss",
    "normalize",
    "prefix_beam_search",
    "prefix_beam_search_batch",
    "recovered_units",
    "rescore_candidate",
    "save_lattice",
    "space_normalize",
    "swer",
    "text_to_tokens",
    "tokens_to_text",
    "unit_inventory",
    "wer",
    "__version__",
]
