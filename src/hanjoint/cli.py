"""Command-line interface.

Subcommands: ``synth`` builds a synthetic corpus on disk, ``decode`` runs
greedy/beam/joint decoding over a corpus directory in corpus order (beam
and joint modes search chunks of utterances as one batch), ``eval``
scores hypotheses against references, ``loss`` computes the multi-task
loss, ``vocab-stats`` and ``oov-report`` reproduce the vocabulary/OOV
accounting tables, and ``selfcheck`` replays the oracle validation
suites.

Machine output is line-delimited JSON with sorted keys; every file-producing
run also writes a ``<out>.manifest.json`` capturing the exact configuration,
and re-running a command with the same arguments reproduces the output
byte for byte.  Exit codes: 0 on success, 1 when any utterance failed,
2 on configuration or file-format errors.  A flag value out of range
(``--beam`` or ``--top-k`` below 1, ``--gamma`` or ``--lambda`` outside
[0, 1]) is a configuration error, reported before any lattice is read,
as is a vocabulary file missing for a level the run needs.

A corpus directory contains ``syllable.vocab``, ``grapheme.vocab``,
``refs.tsv`` (id<TAB>text), and per-utterance ``<id>.syll.lat`` /
``<id>.grap.lat`` lattice files in either lattice format, told apart by
the file's magic bytes.  A ``decode`` run decodes every utterance at one
level: ``--level`` in greedy and beam modes (default: syllable when
the corpus has ``syllable.vocab``, else grapheme), both in joint mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, hangul, selfcheck
from .beam import BeamConfig
from .ctc import MultiTaskLossConfig, greedy_decode, multitask_loss
from .errors import EmptyReference, HanjointError, InfeasibleLabel, OutOfVocabulary, UnmatchedId
from .joint import JointConfig, beam_decode_texts_batch, joint_decode_batch, tokens_to_text
from .lattice_io import (
    Vocabulary,
    load_lattice,
    normalize,
    read_text,
    require_vocab_size,
    save_lattice,
    unit_inventory,
)
from .metrics import EvalReport, UtteranceEval, recovered_units
from .synth import SynthSpec, gen_oov_corpus

SYLLABLE_POOL = "가나다라마바사아자차카타파하간존물꿈별빛손길말글강산바람닭흙밝값몫앉"

# The lattice file suffix of each level, in the order joint decoding and
# the loss take the levels.
_LATTICE_SUFFIXES = {"syllable": ".syll.lat", "grapheme": ".grap.lat"}
_LEVELS = tuple(_LATTICE_SUFFIXES)


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: list[str]
    version: str
    seed: int | None

    def write(self, out_path: Path) -> None:
        path = out_path.with_name(out_path.name + ".manifest.json")
        path.write_text(
            json.dumps(asdict(self), ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )


def _dump(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def _finish(records: list[dict], out: str | None, manifest: RunManifest) -> int:
    """Write a run's records to ``out`` with its manifest, or to stdout;
    exit code 1 when any utterance record is an error, else 0."""
    text = "".join(_dump(r) + "\n" for r in records)
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        manifest.write(path)
    failed = sum("error" in r for r in records)
    if failed:
        print(f"{failed}/{sum('id' in r for r in records)} utterances failed", file=sys.stderr)
        return 1
    return 0


def _read_refs(path: Path) -> dict[str, str]:
    refs: dict[str, str] = {}
    for line in read_text(path).splitlines():
        if not line:
            continue
        utt_id, _, text = line.partition("\t")
        refs[utt_id] = text
    return refs


def _read_hyps(path: Path, refs: dict[str, str]) -> tuple[dict[str, str], dict[str, str], str | None]:
    """TSV id<TAB>text, or decode JSONL (top-1 hypothesis per record),
    holding exactly the ids of ``refs``.

    Returns the hypotheses, the error of every decode record that failed,
    and the decode mode: that of the first JSON record without an error,
    as ``mode:level`` when the record has a level (failed records carry
    none).  A line that starts with ``{`` but is not JSON, or a first
    hypothesis whose ``text`` is missing or not a string, raises an error
    naming the file and line; a reference without a record, or a record
    without a reference, raises :class:`UnmatchedId`."""
    text = read_text(path)
    hyps: dict[str, str] = {}
    failed: dict[str, str] = {}
    mode: str | None = None
    mode_seen = False
    for number, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("{"):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HanjointError(f"{path}, line {number}: not a JSON record: {exc}") from None
            if not mode_seen and "error" not in record:
                mode_seen = True
                mode = record.get("mode")
                if mode and record.get("level"):
                    mode = f"{mode}:{record['level']}"
            if "id" not in record:
                continue
            if "error" in record:
                failed[record["id"]] = record["error"]
                continue
            hypotheses = record.get("hypotheses", [])
            try:
                hyp = hypotheses[0]["text"] if hypotheses else ""
            except (KeyError, TypeError):
                hyp = None
            if not isinstance(hyp, str):
                raise HanjointError(f"{path}, line {number}: the first hypothesis has no text")
            hyps[record["id"]] = hyp
        else:
            utt_id, _, hyp = line.partition("\t")
            hyps[utt_id] = hyp
    for utt_id in (*refs, *hyps, *failed):
        if (utt_id in refs) != (utt_id in hyps or utt_id in failed):
            raise UnmatchedId(utt_id)
    return hyps, failed, mode


@dataclass
class CorpusUtterance:
    id: str
    reference: str | None
    paths: dict[str, Path]  # the lattice file of each level present


def _scan_corpus(corpus: Path) -> tuple[dict[str, Vocabulary], list[CorpusUtterance]]:
    """The vocabulary of each level whose file the corpus holds, and its
    utterances: the ids of refs.tsv, then those of the other syllable and
    grapheme lattice files, in file-name order.  A corpus without
    utterances is a configuration error."""
    vocabs = {level: Vocabulary.load(corpus / f"{level}.vocab")
              for level in _LEVELS if (corpus / f"{level}.vocab").exists()}

    refs_path = corpus / "refs.tsv"
    refs = _read_refs(refs_path) if refs_path.exists() else {}

    ids: dict[str, None] = dict.fromkeys(refs)
    for suffix in _LATTICE_SUFFIXES.values():
        for path in sorted(corpus.glob(f"*{suffix}")):
            ids.setdefault(path.name[: -len(suffix)], None)

    utterances = []
    for utt_id in ids:
        paths = {level: corpus / f"{utt_id}{suffix}" for level, suffix in _LATTICE_SUFFIXES.items()}
        utterances.append(CorpusUtterance(
            utt_id, refs.get(utt_id), {level: path for level, path in paths.items() if path.exists()}
        ))
    if not utterances:
        raise HanjointError(f"no utterances found in {corpus}")
    return vocabs, utterances


def _vocabularies(vocabs: dict[str, Vocabulary], levels) -> list[Vocabulary]:
    """The vocabulary of each level; a level whose vocabulary file the
    corpus lacks is a configuration error, raised before any lattice is
    read."""
    for level in levels:
        if level not in vocabs:
            raise HanjointError(f"no {level} vocabulary in the corpus")
    return [vocabs[level] for level in levels]


def _lattices(utt: CorpusUtterance, levels, vocabs) -> list:
    """The utterance's lattice at each level, as loaded (not normalized),
    each checked against its level's vocabulary.  A missing file raises
    ``no {level} lattice present``; read and format errors pass through."""
    lattices = []
    for level, vocab in zip(levels, vocabs):
        if level not in utt.paths:
            raise HanjointError(f"no {level} lattice present")
        lattice = load_lattice(utt.paths[level])
        require_vocab_size(lattice, vocab)
        lattices.append(lattice)
    return lattices


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

# Beam and joint decoding search a chunk of utterances as one batch.  A
# chunk holds its lattices, 8 bytes a score, and for each lattice
# beam_width hypotheses (a few hundred bytes each, joint candidates as much
# again) and, each frame, beam_width * (scored tokens + 1) candidate scores.
# It is decoded once its lattices hold _CHUNK_CELLS scores (32 MiB) or its
# lattices times the beam width reach _CHUNK_HYPOTHESES: about 40 lattices
# at the default width, past which larger batches decoded no faster.
_CHUNK_CELLS = 1 << 22
_CHUNK_HYPOTHESES = 1 << 12


def _greedy_fields(level, lattice, vocab) -> dict:
    tokens = greedy_decode(lattice)
    text = tokens_to_text(tokens, vocab, level)
    if text is None:  # jamo that do not compose are written as they are
        text = tokens_to_text(tokens, vocab)
    return {"level": level, "hypotheses": [{"text": text, "level": level}]}


def _decode_chunk(chunk, mode, levels, vocabs, config, top_k) -> None:
    """Fill the records of one chunk of loaded (record, lattices) from one
    beam batch."""
    if mode == "joint":
        results = joint_decode_batch([tuple(lattices) for _, lattices in chunk], *vocabs, config)
    else:
        results = beam_decode_texts_batch([lattices[0] for _, lattices in chunk], vocabs[0], levels[0],
                                          config.beam)
    for (record, _), result in zip(chunk, results):
        if mode == "joint":
            record["hypotheses"] = [
                {
                    "text": c.text,
                    "joint_score": c.joint_score,
                    "syll_log_prob": c.syll_log_prob,
                    "grap_log_prob": c.grap_log_prob,
                    "provenance": sorted(c.provenance),
                }
                for c in result.candidates[:top_k]
            ]
            record["dropped_non_composable"] = result.dropped_non_composable
        else:
            record["level"] = levels[0]
            record["hypotheses"] = [{"text": text, "log_prob": log_prob, "level": levels[0]}
                                    for text, log_prob in result[:top_k]]


def _decode(utterances, mode, levels, vocabs, config, top_k) -> list[dict]:
    """One record per utterance, in corpus order, decoded from its
    normalized lattices at ``levels`` (both in joint mode, else one).  Beam
    and joint modes decode chunks of utterances (see _CHUNK_CELLS), each as
    one batch.  An utterance whose lattices are missing, cannot be read, or
    do not fit their vocabularies gets an error record at load and joins no
    chunk."""
    records: list[dict] = []
    chunk: list[tuple[dict, list]] = []
    cells = hypotheses = 0
    for utt in utterances:
        record = {"id": utt.id, "mode": mode}
        records.append(record)
        try:
            lattices = [normalize(lattice) for lattice in _lattices(utt, levels, vocabs)]
            if mode == "greedy":
                record.update(_greedy_fields(levels[0], lattices[0], vocabs[0]))
                continue
        except (HanjointError, OSError) as exc:  # an OSError names the file it could not read
            record["error"] = str(exc)
            continue
        chunk.append((record, lattices))
        cells += sum(lattice.scores.size for lattice in lattices)
        hypotheses += len(lattices) * config.beam.beam_width
        if cells >= _CHUNK_CELLS or hypotheses >= _CHUNK_HYPOTHESES:
            _decode_chunk(chunk, mode, levels, vocabs, config, top_k)
            chunk, cells, hypotheses = [], 0, 0
    if chunk:
        _decode_chunk(chunk, mode, levels, vocabs, config, top_k)
    return records


def cmd_decode(args) -> int:
    config = JointConfig(gamma=args.gamma, beam=BeamConfig(beam_width=args.beam))
    if args.top_k < 1:
        raise HanjointError(f"--top-k must be >= 1, got {args.top_k}")
    corpus = Path(args.corpus)
    vocabs, utterances = _scan_corpus(corpus)
    if args.mode == "joint":
        levels = _LEVELS
    else:
        levels = (args.level or ("syllable" if "syllable" in vocabs else "grapheme"),)

    records = _decode(utterances, args.mode, levels, _vocabularies(vocabs, levels), config, args.top_k)

    manifest = RunManifest(
        command="decode",
        config={
            "mode": args.mode,
            "level": args.level,
            "beam": args.beam,
            "gamma": args.gamma,
            "top_k": args.top_k,
        },
        inputs=[str(corpus)],
        version=__version__,
        seed=None,
    )
    return _finish(records, args.out, manifest)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _edit_record(summary) -> dict:
    return {"rate": summary.rate, "sub": summary.substitutions, "ins": summary.insertions,
            "del": summary.deletions, "ref_len": summary.reference_length}


def cmd_eval(args) -> int:
    refs = _read_refs(Path(args.refs))
    hyps, failed, _ = _read_hyps(Path(args.hyps), refs)

    records = []
    scored = []
    for utt_id, reference in refs.items():
        if utt_id in failed:
            records.append({"id": utt_id, "error": f"decode failed: {failed[utt_id]}"})
            continue
        try:
            u = UtteranceEval.score(utt_id, reference, hyps[utt_id])
        except EmptyReference as exc:
            records.append({"id": utt_id, "error": str(exc)})
            continue
        scored.append(u)
        records.append({"id": u.id, "cer": _edit_record(u.cer), "wer": _edit_record(u.wer),
                        "swer": _edit_record(u.swer)})
    if scored:
        report = EvalReport(scored)
        records.append(
            {
                "corpus": {
                    "cer": report.corpus_cer,
                    "wer": report.corpus_wer,
                    "swer": report.corpus_swer,
                    "utterances": len(scored),
                }
            }
        )
        print(
            f"{'':12s} {'CER':>8s} {'WER':>8s} {'sWER':>8s}\n"
            f"{'corpus':12s} {100 * report.corpus_cer:7.3f}% {100 * report.corpus_wer:7.3f}% "
            f"{100 * report.corpus_swer:7.3f}%",
            file=sys.stderr,
        )
    manifest = RunManifest("eval", {}, [args.refs, args.hyps], __version__, None)
    return _finish(records, args.out, manifest)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cmd_loss(args) -> int:
    config = MultiTaskLossConfig(args.lam)
    corpus = Path(args.corpus)
    vocabs, utterances = _scan_corpus(corpus)
    vocabs = _vocabularies(vocabs, _LEVELS)

    records = []
    totals = []
    for utt in utterances:
        record = {"id": utt.id}
        records.append(record)
        try:
            if utt.reference is None:
                raise HanjointError("no reference")
            result = multitask_loss(*_lattices(utt, _LEVELS, vocabs), utt.reference, *vocabs, config)
        except (OutOfVocabulary, InfeasibleLabel) as exc:
            record.update(error=str(exc), head=exc.head)
            continue
        except (HanjointError, OSError) as exc:
            record["error"] = str(exc)
            continue
        totals.append(result.total)
        record.update(
            total=result.total,
            syllable_log_prob=result.syllable_log_prob,
            grapheme_log_prob=result.grapheme_log_prob,
        )
    if totals:
        records.append({"corpus_mean_total": float(np.mean(totals)), "scored": len(totals)})

    manifest = RunManifest("loss", {"lambda": args.lam}, [str(corpus)], __version__, None)
    return _finish(records, args.out, manifest)


# ---------------------------------------------------------------------------
# vocab-stats
# ---------------------------------------------------------------------------

def _constructible(unit: str, graphemes) -> bool:
    """True for a syllable whose every jamo is in ``graphemes``: one the
    grapheme head can spell."""
    return hangul.is_syllable(unit) and all(j in graphemes for j in hangul.decompose_syllable(unit))


def _read_corpus_texts(path: str) -> list[str]:
    return [ln for ln in read_text(path).splitlines() if ln]


def cmd_vocab_stats(args) -> int:
    train = _read_corpus_texts(args.train)
    eval_sets: dict[str, list[str]] = {}
    for path in args.eval:
        name = Path(path).name
        if name in eval_sets:  # the name keys the OOV columns
            raise HanjointError(f"--eval {path}: another --eval file is already named {name}")
        eval_sets[name] = _read_corpus_texts(path)
    levels = _LEVELS if args.level == "both" else (args.level,)

    train_units = {level: set(unit_inventory(train, level)) for level in _LEVELS}
    records = []
    for level in levels:
        row = {"unit": level, "vocab_size": len(train_units[level]), "oov": {}}
        for name, texts in eval_sets.items():
            oov = [u for u in unit_inventory(texts, level) if u not in train_units[level]]
            entry = {"count": len(oov)}
            if level == "syllable":
                constructible = sum(_constructible(u, train_units["grapheme"]) for u in oov)
                entry["constructible"] = constructible
                entry["unconstructible"] = len(oov) - constructible
            row["oov"][name] = entry
        records.append(row)

    names = list(eval_sets)
    header = f"{'unit':10s} {'#vocab':>8s}" + "".join(f" {('#OOV ' + n)[:18]:>18s}" for n in names)
    table = [header]
    for row in records:
        cells = "".join(f" {row['oov'][n]['count']:>18d}" for n in names)
        table.append(f"{row['unit']:10s} {row['vocab_size']:>8d}{cells}")
    print("\n".join(table), file=sys.stderr)

    manifest = RunManifest(
        "vocab-stats", {"level": args.level}, [args.train, *args.eval], __version__, None
    )
    return _finish(records, args.out, manifest)


# ---------------------------------------------------------------------------
# oov-report
# ---------------------------------------------------------------------------

def cmd_oov_report(args) -> int:
    refs = _read_refs(Path(args.refs))
    train_vocab = Vocabulary.load(args.train_vocab)
    grap_vocab = Vocabulary.load(args.grapheme_vocab)

    ref_units = unit_inventory(refs.values(), "syllable")
    counts = Counter("".join(refs.values()))
    oov_all = {u for u in ref_units if u not in train_vocab}
    constructible = {u for u in oov_all if _constructible(u, grap_vocab)}

    recovery = {}
    failed_count = 0
    for decode_path in args.decodes:
        hyps, failed, mode = _read_hyps(Path(decode_path), refs)
        failed_ids = [utt_id for utt_id in refs if utt_id in failed]
        recovered = [unit for utt_id, reference in refs.items() if utt_id not in failed
                     for unit in recovered_units(reference, hyps[utt_id], constructible)]
        key = mode or Path(decode_path).name
        if key in recovery:
            key = f"{key}:{Path(decode_path).name}"
        recovery[key] = {"vocab": len(set(recovered)), "occurrences": len(recovered)}
        if failed_ids:
            recovery[key]["failed"] = failed_ids
            failed_count += len(failed_ids)

    record = {
        "total_vocab": len(ref_units),
        "total_occurrences": sum(counts[u] for u in ref_units),
        "oov_vocab": len(constructible),
        "oov_occurrences": sum(counts[u] for u in constructible),
        "unconstructible_vocab": len(oov_all) - len(constructible),
        "recovery": recovery,
    }

    def pct(n, d):
        return f"{n}({100 * n / d:.1f}%)" if d else "0(0.0%)"

    modes = list(recovery)
    head = f"{'':10s} {'Total':>8s} {'OOV':>6s}" + "".join(f" {'Recovery(' + m + ')':>20s}" for m in modes)
    v = record
    row1 = f"{'# Vocab.':10s} {v['total_vocab']:>8d} {v['oov_vocab']:>6d}" + "".join(
        f" {pct(recovery[m]['vocab'], v['oov_vocab']):>20s}" for m in modes
    )
    row2 = f"{'# Occur.':10s} {v['total_occurrences']:>8d} {v['oov_occurrences']:>6d}" + "".join(
        f" {pct(recovery[m]['occurrences'], v['oov_occurrences']):>20s}" for m in modes
    )
    print("\n".join([head, row1, row2]), file=sys.stderr)

    manifest = RunManifest(
        "oov-report", {}, [args.refs, *args.decodes, args.train_vocab, args.grapheme_vocab],
        __version__, None,
    )
    code = _finish([record], args.out, manifest)
    if failed_count:
        print(f"{failed_count} decode records failed and recovered nothing", file=sys.stderr)
        return 1
    return code


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _random_texts(rng: np.random.Generator, count: int) -> list[str]:
    pool = list(SYLLABLE_POOL)
    texts = []
    for _ in range(count):
        words = []
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(1, 5))
            words.append("".join(str(rng.choice(pool)) for _ in range(length)))
        texts.append(" ".join(words))
    return texts


def cmd_synth(args) -> int:
    if args.texts:
        texts = _read_corpus_texts(args.texts)
    else:
        texts = _random_texts(np.random.default_rng(args.seed), args.random)
    holdouts = [s for s in (args.holdouts.split(",") if args.holdouts else []) if s]

    spec = SynthSpec(
        frames_per_token=args.frames_per_token, blank_gap=args.blank_gap,
        noise=args.noise, seed=args.seed,
    )
    corpus = gen_oov_corpus(texts, holdouts, spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus.syllable_vocab.save(out / "syllable.vocab")
    corpus.grapheme_vocab.save(out / "grapheme.vocab")
    refs_lines = [f"{u.id}\t{u.text}" for u in corpus.utterances]
    (out / "refs.tsv").write_text("\n".join(refs_lines) + "\n", encoding="utf-8")
    for utt in corpus.utterances:
        save_lattice(utt.syllable_lattice, out / f"{utt.id}.syll.lat", args.format)
        save_lattice(utt.grapheme_lattice, out / f"{utt.id}.grap.lat", args.format)

    manifest = RunManifest(
        "synth",
        {
            "frames_per_token": args.frames_per_token,
            "blank_gap": args.blank_gap,
            "noise": args.noise,
            "holdouts": holdouts,
            "format": args.format,
            "utterances": len(texts),
        },
        [args.texts] if args.texts else [],
        __version__,
        args.seed,
    )
    manifest.write(out / "corpus")
    print(f"wrote {len(texts)} utterances to {out}", file=sys.stderr)
    return 0


def cmd_selfcheck(args) -> int:
    results = selfcheck.run_all()
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanjoint",
        description="Joint grapheme/syllable CTC decoding and evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"hanjoint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decode", help="decode a corpus directory",
        description="Decode every utterance of a corpus directory, in corpus order.",
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=("greedy", "beam", "joint"), default="joint")
    p.add_argument("--level", choices=("syllable", "grapheme"), default=None,
                   help="lattice level of every utterance in greedy/beam modes "
                        "(default: syllable when the corpus has syllable.vocab, else grapheme)")
    p.add_argument("--beam", type=int, default=100)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--top-k", type=int, default=1, help="hypotheses per utterance (>= 1)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score hypotheses against references")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loss", help="multi-task CTC loss over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("vocab-stats", help="vocabulary sizes and OOV counts")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", action="append", required=True)
    p.add_argument("--level", choices=("syllable", "grapheme", "both"), default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_vocab_stats)

    p = sub.add_parser("oov-report", help="OOV recovery accounting per decoding mode")
    p.add_argument("--refs", required=True)
    p.add_argument("--decodes", action="append", required=True)
    p.add_argument("--train-vocab", required=True)
    p.add_argument("--grapheme-vocab", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oov_report)

    p = sub.add_parser("synth", help="generate a synthetic paired corpus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--texts", default=None, help="file of reference texts, one per line")
    group.add_argument("--random", type=int, default=None, help="number of random utterances")
    p.add_argument("--holdouts", default="", help="comma-separated syllables to hold out")
    p.add_argument("--frames-per-token", type=int, default=3,
                   help="frames per jamo, word boundary or passthrough character; a syllable spans its jamo")
    p.add_argument("--blank-gap", type=int, default=1,
                   help="blank frames between those units (at least 1 between two equal ones)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="probability in [0, 1) spread evenly over the non-target tokens of every frame")
    p.add_argument("--seed", type=int, default=0, help="seed of the --random text sampling")
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("selfcheck", help="run the oracle validation suites")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HanjointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
