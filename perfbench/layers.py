"""The layers the traced run measures, and the per-layer metrics.

The layers are hanjoint's modules: ``cli``, ``lattice_io``, ``beam``,
``joint``, ``ctc``, ``_kernels`` (reported as ``kernels``), ``hangul`` and
``metrics``.  Each is traced at the module attributes the pipeline calls
through; a call between two modules is wrapped where the caller looks the
name up, so each call is recorded once.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from spans import Span, Target, attribute

LAYERS = ("cli", "lattice_io", "beam", "joint", "ctc", "kernels", "hangul", "metrics", "bench")

# name -> unit, in report order; BENCHMARK.json gives directions.  The
# "computed" counts are derived from call shapes, not measured.
PER_LAYER = {
    "lattice_io.load_calls": "count",
    "lattice_io.load_busy_s": "s",
    "lattice_io.load_bytes": "B",
    "lattice_io.load_values_per_s": "1/s",
    "lattice_io.normalize_calls": "count",
    "lattice_io.normalize_busy_s": "s",
    "beam.calls": "count",
    "beam.syllable_busy_s": "s",
    "beam.grapheme_busy_s": "s",
    "beam.frames": "count",
    "beam.frames_per_s": "1/s",
    "beam.ext_entries": "computed",
    "beam.hyps_returned": "count",
    "joint.calls": "count",
    "joint.self_s": "s",
    "joint.union_size": "count",
    "joint.dropped_non_composable": "count",
    "joint.oov_at_level": "count",
    "joint.rescores_per_s": "1/s",
    "ctc.log_prob_calls": "count",
    "ctc.log_prob_busy_s": "s",
    "ctc.dp_cells": "computed",
    "ctc.dp_cells_per_s": "1/s",
    "ctc.loss_grad_calls": "count",
    "ctc.loss_grad_busy_s": "s",
    "kernels.alpha_calls": "count",
    "kernels.alpha_busy_s": "s",
    "kernels.beta_calls": "count",
    "kernels.beta_busy_s": "s",
    "kernels.bytes_computed": "B",
    "hangul.compose_calls": "count",
    "hangul.compose_busy_s": "s",
    "metrics.eval_busy_s": "s",
    "metrics.lev_cells": "computed",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# The coverage check: the commands of one kind may leave this share of
# their wall time to the harness, plus the cost of opening and closing the
# spans directly under them, which falls in the command's own span.
UNCOVERED_SHARE = 0.01
UNCOVERED_PER_SPAN_S = 5e-6


def _arg(args: tuple, kwargs: dict, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _load(args, kwargs, lattice) -> dict:
    return {"bytes": Path(args[0]).stat().st_size, "values": lattice.scores.size}


def _values(args, kwargs, lattice) -> dict:
    return {"values": lattice.scores.size}


def _beam(args, kwargs, hyps) -> dict:
    lattice = args[0]
    config = _arg(args, kwargs, 2, "config")
    width = config.beam_width if config is not None else 100
    return {
        "level": _arg(args, kwargs, 3, "level"),
        "frames": lattice.frames,
        "ext_entries": lattice.frames * width * lattice.vocab_size,
        "hyps": len(hyps),
    }


def _joint(args, kwargs, result) -> dict:
    return {
        "union": len(result.candidates),
        "dropped": result.dropped_non_composable,
        "oov": sum(c.syll_log_prob is None or c.grap_log_prob is None for c in result.candidates),
    }


def _dp(args, kwargs, result) -> dict:
    return {"cells": args[0].frames * (2 * len(args[1]) + 1)}


def _array_bytes(args, kwargs, array) -> dict:
    return {"bytes": array.nbytes}


def _lev(args, kwargs, result) -> dict:
    return {"cells": (len(args[0]) + 1) * (len(args[1]) + 1)}


def _utt_of_path(args) -> str | None:
    return Path(args[0]).name.split(".")[0] if args else None


def targets(hj) -> list[Target]:
    cli, joint, ctc = hj.cli, hj.joint, hj.ctc
    return [
        Target(cli, "main", "cli", "cli.main"),
        Target(cli, "load_lattice", "lattice_io", "load", _load, _utt_of_path),
        Target(cli, "normalize", "lattice_io", "normalize", _values),
        Target(ctc, "normalize", "lattice_io", "normalize", _values),
        Target(cli, "prefix_beam_search", "beam", "beam", _beam),
        Target(joint, "prefix_beam_search", "beam", "beam", _beam),
        Target(cli, "joint_decode", "joint", "joint_decode", _joint),
        Target(joint, "joint_decode", "joint", "joint_decode", _joint),
        Target(joint, "ctc_log_prob", "ctc", "log_prob", _dp),
        Target(ctc, "ctc_log_prob", "ctc", "log_prob", _dp),
        Target(ctc, "ctc_loss_and_grad", "ctc", "loss_grad", _dp),
        Target(cli, "multitask_loss", "ctc", "multitask_loss"),
        Target(ctc, "multitask_loss", "ctc", "multitask_loss"),
        Target(ctc._kernels, "ctc_alpha", "kernels", "alpha", _array_bytes),
        Target(ctc._kernels, "ctc_beta", "kernels", "beta", _array_bytes),
        Target(joint, "try_compose", "hangul", "compose"),
        Target(hj.hangul, "decompose_text", "hangul", "decompose"),
        Target(hj.metrics.EvalReport, "from_pairs", "metrics", "eval"),
        Target(hj.metrics, "levenshtein", "metrics", "levenshtein", _lev),
    ]


def per_layer(spans: list[Span], rounds: int, overhead: float) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Per-round per-layer metrics, and the kinds of command whose layers
    leave more of their wall time to the harness than the coverage check
    allows, with the share they leave."""
    self_time, inclusive = attribute(spans)

    def select(name: str, **where) -> list[int]:
        return [i for i, s in enumerate(spans)
                if s.name == name and all(s.attrs.get(k) == v for k, v in where.items())]

    def calls(name: str) -> float:
        return len(select(name)) / rounds

    def busy(name: str, **where) -> float:
        return sum(inclusive[i] for i in select(name, **where)) / rounds

    def total(name: str, key: str) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in select(name)) / rounds

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    joint_calls = set(select("joint_decode"))
    beam_in_joint = sum(inclusive[i] for i in select("beam") if spans[i].parent in joint_calls)
    joint_self = (sum(inclusive[i] for i in joint_calls) - beam_in_joint) / rounds
    beam_busy = busy("beam")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_time):
        layer_self[s.layer] += t / rounds

    children = Counter(s.parent for s in spans)
    commands: dict[str, list[float]] = {}  # name -> [spans opened, wall, harness self time]
    for i, s in enumerate(spans):
        if s.parent is None:
            entry = commands.setdefault(s.name, [0, 0.0, 0.0])
            entry[0] += 1 + children[i]
            entry[1] += s.end - s.start
            entry[2] += self_time[i]
    uncovered = [(name, harness / wall) for name, (opened, wall, harness) in commands.items()
                 if harness > UNCOVERED_SHARE * wall + UNCOVERED_PER_SPAN_S * opened]

    metrics = {
        "lattice_io.load_calls": calls("load"),
        "lattice_io.load_busy_s": busy("load"),
        "lattice_io.load_bytes": total("load", "bytes"),
        "lattice_io.load_values_per_s": rate(total("load", "values"), busy("load")),
        "lattice_io.normalize_calls": calls("normalize"),
        "lattice_io.normalize_busy_s": busy("normalize"),
        "beam.calls": calls("beam"),
        "beam.syllable_busy_s": busy("beam", level="syllable"),
        "beam.grapheme_busy_s": busy("beam", level="grapheme"),
        "beam.frames": total("beam", "frames"),
        "beam.frames_per_s": rate(total("beam", "frames"), beam_busy),
        "beam.ext_entries": total("beam", "ext_entries"),
        "beam.hyps_returned": total("beam", "hyps"),
        "joint.calls": calls("joint_decode"),
        "joint.self_s": joint_self,
        "joint.union_size": total("joint_decode", "union"),
        "joint.dropped_non_composable": total("joint_decode", "dropped"),
        "joint.oov_at_level": total("joint_decode", "oov"),
        "joint.rescores_per_s": rate(total("joint_decode", "union"), joint_self),
        "ctc.log_prob_calls": calls("log_prob"),
        "ctc.log_prob_busy_s": busy("log_prob"),
        "ctc.dp_cells": total("log_prob", "cells"),
        "ctc.dp_cells_per_s": rate(total("log_prob", "cells"), busy("log_prob")),
        "ctc.loss_grad_calls": calls("loss_grad"),
        "ctc.loss_grad_busy_s": busy("loss_grad"),
        "kernels.alpha_calls": calls("alpha"),
        "kernels.alpha_busy_s": busy("alpha"),
        "kernels.beta_calls": calls("beta"),
        "kernels.beta_busy_s": busy("beta"),
        "kernels.bytes_computed": total("alpha", "bytes") + total("beta", "bytes"),
        "hangul.compose_calls": calls("compose"),
        "hangul.compose_busy_s": busy("compose"),
        "metrics.eval_busy_s": busy("eval"),
        "metrics.lev_cells": total("levenshtein", "cells"),
        **{f"self.{layer}_s": layer_self[layer] for layer in LAYERS},
        "trace.wall_s": sum(s.end - s.start for s in spans if s.parent is None) / rounds,
        "trace.overhead_frac": overhead,
    }
    return metrics, uncovered
