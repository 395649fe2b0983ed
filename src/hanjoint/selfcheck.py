"""Self-contained validation suites runnable from the CLI.

Each check replays one of the package's oracle validations: DP scoring vs
path enumeration, analytic gradients vs finite differences, beam search vs
exhaustive enumeration, joint-decoder endpoint behavior, the full Hangul
round trip, and the loss endpoints.  They are deliberately cheap enough to
run anywhere as a smoke test of the installed build.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import hangul
from .beam import BeamConfig, prefix_beam_search
from .ctc import MultiTaskLossConfig, ctc_log_prob, ctc_log_probs, ctc_loss_and_grad, multitask_loss
from .joint import JointConfig, beam_decode_texts, joint_decode, tokens_to_text
from .lattice_io import EmissionLattice, Vocabulary, normalize
from .synth import brute_force_best, brute_force_ctc, random_lattice


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


_LETTERS = ("<ctc_blank>", "|", "a", "b")


def check_ctc_oracle(instances: int = 200, seed: int = 1001) -> CheckResult:
    """Each instance scores a batch of up to 4 labels of length <= 3 in one
    forward pass over their prefix trie.  The labels grow from one shared
    stem, so shared prefixes, duplicates, labels that are prefixes of
    others, and the empty label are checked against enumeration too."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = 0.0
    scored = 0
    for _ in range(instances):
        F = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        lattice = random_lattice(rng, F, V)
        stem = [int(rng.integers(1, V)) for _ in range(int(rng.integers(0, 4)))]
        labels = []
        for _ in range(int(rng.integers(1, 5))):
            label = stem[: int(rng.integers(0, len(stem) + 1))]
            labels.append(label + [int(rng.integers(1, V)) for _ in range(int(rng.integers(0, 4 - len(label))))])
        for label, got in zip(labels, ctc_log_probs(lattice, labels)):
            scored += 1
            expected = brute_force_ctc(lattice, label)
            if expected == -math.inf or got == -math.inf:
                if expected != got:
                    return CheckResult("ctc-oracle", False, f"feasibility mismatch on {label}")
                continue
            worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    return CheckResult(
        "ctc-oracle",
        worst <= 1e-9,
        f"max |dp - enumeration| = {worst:.3e} over {scored} labels in {instances} batches in {elapsed:.2f}s",
    )


def check_gradients(instances: int = 50, seed: int = 1002) -> CheckResult:
    rng = np.random.default_rng(seed)
    eps = 1e-4
    worst = 0.0
    done = 0
    while done < instances:
        F = int(rng.integers(1, 7))
        V = int(rng.integers(2, 5))
        logits = rng.normal(size=(F, V))
        label = [int(rng.integers(1, V)) for _ in range(int(rng.integers(0, 4)))]
        result = ctc_loss_and_grad(EmissionLattice(logits), label)
        if result.infeasible:
            continue
        done += 1
        for t in range(F):
            for k in range(V):
                plus, minus = logits.copy(), logits.copy()
                plus[t, k] += eps
                minus[t, k] -= eps
                numeric = (
                    ctc_log_prob(normalize(EmissionLattice(plus)), label)
                    - ctc_log_prob(normalize(EmissionLattice(minus)), label)
                ) / (2 * eps)
                analytic = result.grad[t, k]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
                worst = max(worst, rel)
    return CheckResult(
        "gradient",
        worst <= 1e-3,
        f"max relative error = {worst:.3e} over {instances} instances (central differences, eps={eps})",
    )


def check_beam_exactness(instances: int = 100, seed: int = 1003) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        F = int(rng.integers(1, 5))
        V = int(rng.integers(2, 5))
        lattice = random_lattice(rng, F, V)
        vocab = Vocabulary(_LETTERS[:V])
        width = sum((V - 1) ** l for l in range(F + 1))
        top = prefix_beam_search(lattice, vocab, BeamConfig(beam_width=width))[0]
        text, lp = brute_force_best(lattice, vocab)
        got_text = tokens_to_text(top.tokens, vocab)
        if got_text != text:
            return CheckResult("beam-exactness", False, f"top-1 {got_text!r} != {text!r}")
        worst = max(worst, abs(top.log_prob - lp))
    return CheckResult(
        "beam-exactness",
        worst <= 1e-9,
        f"top-1 matched enumeration on {instances} instances, max |dlogp| = {worst:.3e}",
    )


_SYLL_VOCAB = Vocabulary(("<ctc_blank>", "|", "가", "나", "다"))
_GRAP_VOCAB = Vocabulary(("<ctc_blank>", "|", "ㄱ", "ㄴ", "ㄷ", "ㅏ"))


def check_joint_endpoints(instances: int = 100, seed: int = 1004) -> CheckResult:
    rng = np.random.default_rng(seed)
    for k in range(instances):
        fs = int(rng.integers(1, 4))
        fg = int(rng.integers(1, 5))
        syll_lat = random_lattice(rng, fs, _SYLL_VOCAB.size)
        grap_lat = random_lattice(rng, fg, _GRAP_VOCAB.size)
        width = max(
            sum((_SYLL_VOCAB.size - 1) ** l for l in range(fs + 1)),
            sum((_GRAP_VOCAB.size - 1) ** l for l in range(fg + 1)),
        )
        beam = BeamConfig(beam_width=width)
        grap_top = beam_decode_texts(grap_lat, _GRAP_VOCAB, "grapheme", beam)[0][0]
        syll_top = beam_decode_texts(syll_lat, _SYLL_VOCAB, "syllable", beam)[0][0]
        at0 = joint_decode(syll_lat, grap_lat, _SYLL_VOCAB, _GRAP_VOCAB, JointConfig(0.0, beam))
        at1 = joint_decode(syll_lat, grap_lat, _SYLL_VOCAB, _GRAP_VOCAB, JointConfig(1.0, beam))
        if at0.best.text != grap_top:
            return CheckResult("joint-endpoints", False, f"gamma=0 mismatch on instance {k}")
        if at1.best.text != syll_top:
            return CheckResult("joint-endpoints", False, f"gamma=1 mismatch on instance {k}")
    return CheckResult(
        "joint-endpoints",
        True,
        f"gamma=0 tracks the grapheme decoder and gamma=1 the syllable decoder on {instances} instances",
    )


def check_hangul_round_trip() -> CheckResult:
    """Every syllable decomposes into 2-3 letters of the jamo inventory, and
    its grapheme tokens render back to it."""
    start = time.perf_counter()
    vocab = Vocabulary.from_units(sorted(hangul.JAMO_INVENTORY))
    for code in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1):
        ch = chr(code)
        parts = hangul.decompose_syllable(ch)
        if not 2 <= len(parts) <= 3:
            return CheckResult("hangul-round-trip", False, f"{ch!r} decomposed to {len(parts)} jamo")
        if any(p not in hangul.JAMO_INVENTORY for p in parts):
            return CheckResult("hangul-round-trip", False, f"{ch!r} left the 51-letter inventory")
        if tokens_to_text([vocab.index_of(p) for p in parts], vocab, "grapheme") != ch:
            return CheckResult("hangul-round-trip", False, f"{ch!r} did not recompose")
    elapsed = time.perf_counter() - start
    return CheckResult(
        "hangul-round-trip",
        True,
        f"all {hangul.SYLLABLE_COUNT} syllables recomposed in {elapsed:.2f}s",
    )


def check_loss_endpoints(seed: int = 1005) -> CheckResult:
    rng = np.random.default_rng(seed)
    text = "가 나"
    for k in range(20):
        syll = EmissionLattice(rng.normal(size=(6, _SYLL_VOCAB.size)))
        grap = EmissionLattice(rng.normal(size=(8, _GRAP_VOCAB.size)))
        at1 = multitask_loss(syll, grap, text, _SYLL_VOCAB, _GRAP_VOCAB, MultiTaskLossConfig(1.0))
        at0 = multitask_loss(syll, grap, text, _SYLL_VOCAB, _GRAP_VOCAB, MultiTaskLossConfig(0.0))
        mid = multitask_loss(syll, grap, text, _SYLL_VOCAB, _GRAP_VOCAB, MultiTaskLossConfig(0.5))
        ok = (
            at1.total == at1.syllable_log_prob
            and at0.total == at0.grapheme_log_prob
            and abs(mid.total - (mid.syllable_log_prob + mid.grapheme_log_prob) / 2) <= 1e-12
        )
        if not ok:
            return CheckResult("loss-endpoints", False, f"identity broken on instance {k}")
    return CheckResult(
        "loss-endpoints", True, "lambda in {0, 0.5, 1} reproduces head/mean identities on 20 instances"
    )


def run_all() -> list[CheckResult]:
    return [
        check_ctc_oracle(),
        check_gradients(),
        check_beam_exactness(),
        check_joint_endpoints(),
        check_hangul_round_trip(),
        check_loss_endpoints(),
    ]
