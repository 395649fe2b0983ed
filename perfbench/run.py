"""hanjoint benchmark: one workload per process, run from a checkout's root.

    python3 perfbench/run.py --workload oov-small --seed 1 --seconds 30 --trace 0

The run builds its corpus from the seed, measures set-up in fresh
interpreters, then repeats rounds of user-facing calls until ``--seconds``
have passed.  One round is:

* CLI ``decode --mode joint --beam 100 --gamma 0.5`` over the corpus,
* CLI ``decode --mode beam --level syllable --beam 100`` over the corpus,
* library ``joint_decode`` on every utterance, lattices in memory,
* CLI ``loss --lambda 0.5`` over the utterances whose reference is in the
  syllable vocabulary,
* library ``multitask_loss(..., with_grad=True)`` on those utterances,
* ``EvalReport`` over the joint top-1 hypotheses.

The CLI is called in-process through ``hanjoint.cli.main`` (interpreter
start-up is ``setup_s``, not decode time) by one client issuing one
command at a time, with ``HANJOINT_THREADS`` set to the usable cores.

With ``--trace 1`` traced rounds alternate with untraced ones: the tracer
in spans.py wraps the module attributes the pipeline calls through, and
the per-layer metrics come from the traced rounds, per round.

Every output is checked (see ``Bench``); a failed check counts in
``failed``, sets ``correct`` to false and makes the exit code 1.  The last
line of standard output is the JSON result; the line before it holds the
run facts.  Without ``src/hanjoint`` under the working directory the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BEAM_WIDTH = 100
GAMMA = 0.5
LAMBDA = 0.5
SETUP_PROBES = 9
MIN_ROUNDS = 2  # the byte-identity check compares rounds
TOLERANCE = 1e-9

# name -> unit, in report order; BENCHMARK.json gives directions and bounds.
END_TO_END = {
    "setup_s": "s",
    "joint_utt_per_s": "utt/s",
    "beam_utt_per_s": "utt/s",
    "joint_ms_p50": "ms",
    "joint_ms_p90": "ms",
    "loss_utt_per_s": "utt/s",
    "grad_utt_per_s": "utt/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Reps:
    """How often a round repeats the calls that take well under a second
    (CLI beam decode, CLI loss, library gradient pass), so that each is
    timed over about a second; their rates come from the median call, which
    a burst of load on the machine moves less than a total.  The corpora
    are in corpus.WORKLOADS."""

    beam: int
    loss: int
    grad: int


WORKLOADS = {
    "oov-small": Reps(beam=5, loss=70, grad=40),
    "large-vocab": Reps(beam=3, loss=45, grad=30),
    "loss-text": Reps(beam=2, loss=4, grad=20),
}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would search outside the checkout when there is no repository); None
    when it cannot be read this way."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        return (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def recovered(ref: list[str], ops: list, holdouts: set[str]) -> int:
    """Held-out syllable occurrences of the reference characters ``ref``
    that the alignment ``ops`` matches in the hypothesis."""
    return sum(1 for op, i, _ in ops if op == "match" and ref[i] in holdouts)


class Bench:
    """One workload's corpus, the calls of a round, and the output checks:

    * every decode record parses, carries no ``error``, and the ids match
      the corpus;
    * the joint top-1 ``joint_score`` equals ``rescore_candidate``
      recomputed from the public API, within 1e-9;
    * every CLI output is byte-identical (sha256) across the run's rounds;
    * the CLI ``loss`` totals equal the library totals within 1e-9;
    * every gradient row sums to what the lattice's own normalization
      gives, ``weight * (1 - sum(exp(row)))``, within 1e-9: 0 for
      lattices normalized in float64, about 1e-8 for float32-stored
      log-probabilities (see README.md);
    * every probe exits cleanly;
    * in traced rounds, the layers' self times cover each command.
    """

    def __init__(self, hj, meta: dict, reps: Reps, work: Path):
        """``work`` holds the corpus that corpus.py saved, described by ``meta``."""
        self.hj = hj
        self.meta = meta
        self.reps = reps
        self.refs = meta["refs"]
        self.ids = list(self.refs)
        self.loss_ids = meta["loss_ids"]
        self.decode_dir = work / "corpus"
        self.loss_dir = work / "loss-corpus" if self.loss_ids != self.ids else self.decode_dir
        self.out_dir = work / "out"
        self.out_dir.mkdir()

        lio = hj.lattice_io
        self.syll_vocab = lio.Vocabulary.load(self.decode_dir / "syllable.vocab")
        self.grap_vocab = lio.Vocabulary.load(self.decode_dir / "grapheme.vocab")
        self.raw = {}
        self.lattices = {}
        for uid in self.ids:
            pair = tuple(lio.load_lattice(self.decode_dir / f"{uid}.{lvl}.lat") for lvl in ("syll", "grap"))
            self.raw[uid] = pair
            self.lattices[uid] = tuple(x if x.normalized else lio.normalize(x) for x in pair)
        self.row_sums = {
            uid: tuple(weight * (1.0 - np.exp(x.scores).sum(axis=1))
                       for weight, x in zip((LAMBDA, 1.0 - LAMBDA), self.lattices[uid]))
            for uid in self.loss_ids
        }
        self.joint_config = hj.JointConfig(gamma=GAMMA, beam=hj.BeamConfig(beam_width=BEAM_WIDTH))
        self.loss_config = hj.MultiTaskLossConfig(LAMBDA)

        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float | None] = {}
        self.grad_row_sum_max = 0.0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    # -- the calls of one round ------------------------------------------------

    def _cli(self, tag: str, argv: list[str], tracer) -> tuple[float, list[dict]]:
        # A fresh path per call: on ext4, replacing an existing file by
        # truncation flushes it to disk, which would time the disk.
        self.calls += 1
        out = self.out_dir / f"{tag}-{self.calls}.jsonl"
        gc.collect()
        with tracer.command(f"cmd.{tag}") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            code = self.hj.cli.main([*argv, "--out", str(out)])
            wall = time.perf_counter() - start
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(tag, digest) != digest:
            self.fail(f"{tag}: output differs from the first round's")
        if code != 0:
            self.fail(f"{tag}: exit code {code}")
        records = []
        for line in data.decode("utf-8").splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                self.fail(f"{tag}: unparsable record {line[:80]!r}")
        return wall, records

    def _check_records(self, tag: str, records: list[dict], ids: list[str]) -> None:
        self.attempted += len(ids)
        errors = [r for r in records if "error" in r]
        if errors:
            self.fail(f"{tag}: error record {errors[0]}", len(errors))
        got = [r["id"] for r in records if "id" in r]
        if got != ids:
            self.fail(f"{tag}: ids {got[:3]}... do not match the corpus")

    def cli_joint(self, tracer, first: bool) -> tuple[float, list[dict]]:
        wall, records = self._cli("joint", [
            "decode", "--corpus", str(self.decode_dir), "--mode", "joint",
            "--beam", str(BEAM_WIDTH), "--gamma", str(GAMMA)], tracer)
        self._check_records("joint", records, self.ids)
        if first:
            self._check_joint_scores(records)
        return wall, records

    def _check_joint_scores(self, records: list[dict]) -> None:
        for record in records:
            if "hypotheses" not in record or not record["hypotheses"]:
                continue
            top = record["hypotheses"][0]
            syll, grap = self.lattices[record["id"]]
            again = self.hj.rescore_candidate(
                top["text"], syll, grap, self.syll_vocab, self.grap_vocab, GAMMA)
            if not (again.joint_score == top["joint_score"]
                    or abs(again.joint_score - top["joint_score"]) <= TOLERANCE):
                self.fail(f"joint: {record['id']} top-1 score {top['joint_score']!r} "
                          f"!= rescore_candidate {again.joint_score!r}")

    def cli_beam(self, tracer) -> float:
        wall, records = self._cli("beam", [
            "decode", "--corpus", str(self.decode_dir), "--mode", "beam",
            "--level", "syllable", "--beam", str(BEAM_WIDTH)], tracer)
        self._check_records("beam", records, self.ids)
        return wall

    def lib_joint(self, tracer) -> list[float]:
        samples = []
        joint = self.hj.joint
        for uid in self.ids:
            syll, grap = self.lattices[uid]
            gc.collect()
            with tracer.command("cmd.lib_joint", uid) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                joint.joint_decode(syll, grap, self.syll_vocab, self.grap_vocab, self.joint_config)
                samples.append(time.perf_counter() - start)
        self.attempted += len(self.ids)
        return samples

    def cli_loss(self, tracer) -> tuple[float, dict[str, float]]:
        wall, records = self._cli("loss", [
            "loss", "--corpus", str(self.loss_dir), "--lambda", str(LAMBDA)], tracer)
        self._check_records("loss", records, self.loss_ids)
        totals = {r["id"]: r["total"] for r in records if "id" in r and "total" in r}
        summary = [r for r in records if "scored" in r]
        if not summary or summary[0]["scored"] != len(self.loss_ids):
            self.fail(f"loss: corpus record {summary} does not count {len(self.loss_ids)} utterances")
        return wall, totals

    def lib_grad(self, tracer, cli_totals: dict[str, float]) -> float:
        """One gradient pass over the in-vocabulary utterances; returns the
        time spent in the library calls."""
        busy = 0.0
        ctc = self.hj.ctc
        for uid in self.loss_ids:
            syll, grap = self.raw[uid]
            with tracer.command("cmd.lib_grad", uid) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                result = ctc.multitask_loss(syll, grap, self.refs[uid], self.syll_vocab,
                                            self.grap_vocab, self.loss_config, with_grad=True)
                busy += time.perf_counter() - start
            self.attempted += 1
            sums = [g.sum(axis=1) for g in result.gradients]
            self.grad_row_sum_max = max(self.grad_row_sum_max, *(float(np.abs(x).max()) for x in sums))
            worst = max(float(np.abs(x - e).max()) for x, e in zip(sums, self.row_sums[uid]))
            if not worst <= TOLERANCE:
                self.fail(f"grad: {uid} gradient row sums miss their expected value by {worst!r}")
            if uid in cli_totals and not abs(cli_totals[uid] - result.total) <= TOLERANCE:
                self.fail(f"loss: {uid} CLI total {cli_totals[uid]!r} != library {result.total!r}")
        return busy

    def evaluate(self, tracer, records: list[dict]) -> float:
        metrics = self.hj.metrics
        tops = {r["id"]: r["hypotheses"][0]["text"] for r in records if r.get("hypotheses")}
        pairs = [(uid, self.refs[uid], tops.get(uid, "")) for uid in self.ids]
        chars = [([c for c in ref if c != " "], [c for c in hyp if c != " "]) for _, ref, hyp in pairs]
        with tracer.command("cmd.eval") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            report = metrics.EvalReport.from_pairs(pairs)
            alignments = [metrics.levenshtein(ref, hyp)[1] for ref, hyp in chars]
            wall = time.perf_counter() - start
        held = set(self.meta["holdouts"])
        hits = sum(recovered(ref, ops, held) for (ref, _), ops in zip(chars, alignments))
        total = sum(self.meta["holdout_counts"].values())
        self.quality = {
            "cer": report.corpus_cer,
            "swer": report.corpus_swer,
            "oov_recovery": hits / total if total else None,
            "oov_occurrences": total,
        }
        self.attempted += 1
        return wall

    def round(self, tracer, first: bool) -> dict:
        reps = self.reps
        joint_wall, joint_records = self.cli_joint(tracer, first)
        beam_walls = [self.cli_beam(tracer) for _ in range(reps.beam)]
        samples = self.lib_joint(tracer)
        loss_walls = []
        for _ in range(reps.loss):
            wall, totals = self.cli_loss(tracer)
            loss_walls.append(wall)
        grad_walls = [self.lib_grad(tracer, totals) for _ in range(reps.grad)]
        eval_wall = self.evaluate(tracer, joint_records)
        return {
            "joint_wall": joint_wall,
            "beam_walls": beam_walls,
            "joint_samples": samples,
            "loss_walls": loss_walls,
            "grad_walls": grad_walls,
            "wall": joint_wall + sum(beam_walls) + sum(samples) + sum(loss_walls) + sum(grad_walls) + eval_wall,
        }


def probe(bench: Bench, *extra: str) -> list[float]:
    """Run probe.py; returns the set-up time, then anything else it printed."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), str(bench.decode_dir), *extra],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    bench.attempted += 1
    try:
        ready, *rest = map(float, proc.stdout.split())
    except ValueError:
        ready, rest = None, []
    if proc.returncode != 0 or ready is None or len(rest) != (1 if extra else 0):
        bench.fail(f"probe failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
        return []
    return [ready - start, *rest]


def measure_probes(bench: Bench) -> tuple[list[float], float]:
    """Set-up times of SETUP_PROBES fresh interpreters, and the peak RSS in
    MiB of one that also decodes the longest utterance and computes the
    loss gradient of the longest in-vocabulary one."""
    setup = [r[0] for r in (probe(bench) for _ in range(SETUP_PROBES)) if r]
    frames = bench.meta["frames"]
    longest = max(bench.ids, key=frames.get)
    longest_loss = max(bench.loss_ids, key=frames.get) if bench.loss_ids else "-"
    memory = probe(bench, longest, longest_loss)
    return setup, memory[1] / 1024.0 if memory else float("nan")


def end_to_end(bench: Bench, rounds: list[dict], setup: list[float], peak_rss_mb: float) -> dict[str, float]:
    n, n_loss = len(bench.ids), len(bench.loss_ids)

    def median_of(key: str) -> float:
        return statistics.median(x for r in rounds for x in r[key])

    samples = [s for r in rounds for s in r["joint_samples"]]
    # "inclusive" interpolates between samples; with the 6-12 samples of the
    # large-vocabulary workloads, "exclusive" would extrapolate past the
    # slowest one.
    deciles = statistics.quantiles(samples, n=10, method="inclusive") if len(samples) > 1 else samples * 9
    return {
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "joint_utt_per_s": statistics.median(n / r["joint_wall"] for r in rounds),
        "beam_utt_per_s": n / median_of("beam_walls"),
        "joint_ms_p50": 1e3 * statistics.median(samples),
        "joint_ms_p90": 1e3 * deciles[8],
        "loss_utt_per_s": n_loss / median_of("loss_walls"),
        "grad_utt_per_s": n_loss / median_of("grad_walls"),
        "peak_rss_mb": peak_rss_mb,
    }


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import hanjoint as hj
    import hanjoint.cli  # noqa: F401  (the modules the tracer and the calls reach)
    import hanjoint.ctc  # noqa: F401
    import hanjoint.joint  # noqa: F401
    import hanjoint.metrics  # noqa: F401

    import layers
    import spans

    cores = len(os.sched_getaffinity(0))
    os.environ["HANJOINT_THREADS"] = str(cores)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), str(SRC), args.workload, str(args.seed), str(work)],
            check=True, timeout=300, cwd=ROOT,
        )
        generation_s = time.perf_counter() - start
        meta = json.loads((work / "meta.json").read_text(encoding="utf-8"))
        bench = Bench(hj, meta, WORKLOADS[args.workload], work)
        hj._kernels.warmup()
        setup, peak_rss_mb = measure_probes(bench)

        untraced: list[dict] = []
        traced: list[dict] = []
        tracer = spans.Tracer() if args.trace else None
        missing: list[str] = []
        start = time.perf_counter()
        while True:
            untraced.append(bench.round(None, first=not untraced))
            if tracer is not None:
                missing = tracer.install(layers.targets(hj))
                try:
                    traced.append(bench.round(tracer, first=False))
                finally:
                    tracer.uninstall()
            elapsed = time.perf_counter() - start
            if len(untraced) + len(traced) >= MIN_ROUNDS and elapsed + elapsed / len(untraced) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    e2e = end_to_end(bench, untraced, setup, peak_rss_mb)
    if tracer is not None:
        overhead = statistics.median(r["wall"] for r in traced) / statistics.median(r["wall"] for r in untraced) - 1
        per_layer, uncovered = layers.per_layer(tracer.spans, len(traced), overhead)
        for name, share in uncovered:
            bench.fail(f"trace: {share:.1%} of command {name} is not attributed to a layer")
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "usable_cores": cores,
        "threads": int(os.environ["HANJOINT_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": hj.kernel_backend(),
        "commit": git_commit(),
        "shapes": {
            "utterances": len(bench.ids),
            "loss_utterances": len(bench.loss_ids),
            "frames": sum(meta["frames"].values()),
            **{k: meta[k] for k in ("syllable_vocab", "grapheme_vocab", "lattice_format", "normalized")},
        },
        "generation_s": generation_s,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "joint_ms_samples": sum(len(r["joint_samples"]) for r in untraced),
        "setup_probes": setup,
        "sha256": bench.digests,
        "quality": bench.quality,
        "failed_frac": bench.failed / max(bench.attempted, 1),
        "grad_row_sum_max": bench.grad_row_sum_max,
        "missing_trace_targets": missing,
        "end_to_end": e2e,
        "problems": bench.problems,
    }
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in e2e.items():
        print(f"{args.workload:12s} {name:32s} {value:14.6g} {END_TO_END[name]}")
    if tracer is not None:
        for name, entry in metrics.items():
            print(f"{args.workload:12s} {name:32s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"facts": facts}, ensure_ascii=False, sort_keys=True))
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hanjoint" / "__init__.py").is_file():
        print(f"error: no src/hanjoint under {ROOT}; run from the root of a hanjoint checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
