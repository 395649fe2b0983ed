import json

import numpy as np
import pytest

from hanjoint import cli
from hanjoint.beam import BeamConfig, prefix_beam_search
from hanjoint.cli import main
from hanjoint.joint import beam_decode_texts, rescore_candidate, tokens_to_text
from hanjoint.lattice_io import EmissionLattice, Vocabulary, load_lattice, save_lattice

TEXTS = ["가 나 흙 하", "나 그 가", "흙 닭 가", "가나 다"]


@pytest.fixture()
def corpus(tmp_path):
    texts_file = tmp_path / "texts.txt"
    texts_file.write_text("\n".join(TEXTS) + "\n", encoding="utf-8")
    corpus_dir = tmp_path / "corpus"
    code = main(
        [
            "synth", "--texts", str(texts_file), "--holdouts", "흙",
            "--frames-per-token", "2", "--blank-gap", "1", "--seed", "7",
            "--out", str(corpus_dir),
        ]
    )
    assert code == 0
    return corpus_dir


def read_records(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_synth_writes_corpus(corpus):
    assert (corpus / "syllable.vocab").exists()
    assert (corpus / "grapheme.vocab").exists()
    assert (corpus / "refs.tsv").exists()
    assert (corpus / "corpus.manifest.json").exists()
    assert len(list(corpus.glob("*.syll.lat"))) == len(TEXTS)


def test_synth_is_reproducible(tmp_path, corpus):
    texts_file = corpus.parent / "texts.txt"
    again = tmp_path / "again"
    main(["synth", "--texts", str(texts_file), "--holdouts", "흙",
          "--frames-per-token", "2", "--blank-gap", "1", "--seed", "7", "--out", str(again)])
    for name in ("syllable.vocab", "refs.tsv", "utt0000.syll.lat", "utt0003.grap.lat"):
        assert (again / name).read_bytes() == (corpus / name).read_bytes()


def test_greedy_decode_matches_references(corpus, tmp_path):
    out = tmp_path / "greedy.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "greedy", "--out", str(out)]) == 0
    refs = dict(
        line.split("\t") for line in (corpus / "refs.tsv").read_text().splitlines()
    )
    for record in read_records(out):
        # the held-out syllable cannot be greedy-decoded at syllable level
        if "흙" in refs[record["id"]]:
            continue
        assert record["hypotheses"][0]["text"] == refs[record["id"]]


def test_grapheme_greedy_recovers_everything(corpus, tmp_path):
    out = tmp_path / "greedy_g.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "greedy",
                 "--level", "grapheme", "--out", str(out)]) == 0
    refs = dict(line.split("\t") for line in (corpus / "refs.tsv").read_text().splitlines())
    for record in read_records(out):
        assert record["hypotheses"][0]["text"] == refs[record["id"]]


def test_joint_gamma_one_matches_syllable_beam(corpus, tmp_path):
    joint_out = tmp_path / "joint1.jsonl"
    beam_out = tmp_path / "beam.jsonl"
    main(["decode", "--corpus", str(corpus), "--mode", "joint", "--gamma", "1.0",
          "--beam", "20", "--out", str(joint_out)])
    main(["decode", "--corpus", str(corpus), "--mode", "beam", "--level", "syllable",
          "--beam", "20", "--out", str(beam_out)])
    refs = dict(line.split("\t") for line in (corpus / "refs.tsv").read_text().splitlines())
    syll_vocab = Vocabulary.load(corpus / "syllable.vocab")
    grap_vocab = Vocabulary.load(corpus / "grapheme.vocab")
    for joint, beam in zip(read_records(joint_out), read_records(beam_out), strict=True):
        joint_top, beam_top = joint["hypotheses"][0], beam["hypotheses"][0]
        if "흙" not in refs[joint["id"]]:
            assert joint_top["text"] == beam_top["text"]
        # A held-out span is uniform over many frames, so the beam's pruned
        # scores can rank its own hypotheses differently from exact
        # rescoring; joint's top-1 is the union's best exact syllable score.
        lattices = [load_lattice(corpus / f"{joint['id']}.{head}.lat") for head in ("syll", "grap")]
        beam_exact = rescore_candidate(beam_top["text"], *lattices, syll_vocab, grap_vocab, 1.0)
        assert joint_top["syll_log_prob"] >= beam_exact.syll_log_prob


def test_joint_decode_recovers_holdout(corpus, tmp_path):
    out = tmp_path / "joint.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "joint", "--beam", "20",
                 "--out", str(out)]) == 0
    refs = dict(line.split("\t") for line in (corpus / "refs.tsv").read_text().splitlines())
    for record in read_records(out):
        assert record["hypotheses"][0]["text"] == refs[record["id"]]


@pytest.mark.parametrize("argv", [
    ["decode", "--mode", "joint", "--beam", "10"],
    ["decode", "--mode", "beam", "--level", "grapheme", "--top-k", "5", "--beam", "10"],
    ["decode", "--mode", "greedy"],
    ["loss"],
], ids=["joint", "beam-grapheme-top5", "greedy", "loss"])
def test_rerun_is_byte_identical(corpus, tmp_path, argv):
    runs = []
    for k in range(2):
        out = tmp_path / f"run{k}.jsonl"
        code = main([argv[0], "--corpus", str(corpus), *argv[1:], "--out", str(out)])
        manifest = tmp_path / f"run{k}.jsonl.manifest.json"
        runs.append((code, out.read_bytes(), manifest.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv, message", [
    (["decode", "--beam", "0"], "beam_width must be >= 1"),
    (["decode", "--mode", "joint", "--gamma", "2"], "gamma must lie in [0, 1], got 2.0"),
    (["loss", "--lambda", "2"], "lambda must lie in [0, 1], got 2.0"),
    (["decode", "--mode", "beam", "--top-k", "-1"], "--top-k must be >= 1, got -1"),
    (["decode", "--mode", "beam", "--top-k", "0"], "--top-k must be >= 1, got 0"),
], ids=["beam-0", "gamma-2", "lambda-2", "top-k-minus-1", "top-k-0"])
def test_out_of_range_flag_is_config_error(corpus, tmp_path, capsys, argv, message):
    out = tmp_path / "out.jsonl"
    code = main([argv[0], "--corpus", str(corpus), *argv[1:], "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not (tmp_path / "out.jsonl.manifest.json").exists()


@pytest.mark.parametrize("mode", ["beam", "greedy"])
def test_missing_level_vocabulary_is_a_config_error(corpus, tmp_path, capsys, mode):
    (corpus / "syllable.vocab").unlink()
    out = tmp_path / "dec.jsonl"
    code = main(["decode", "--corpus", str(corpus), "--mode", mode, "--level", "syllable",
                 "--beam", "5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: no syllable vocabulary in the corpus\n"
    assert not out.exists() and not (tmp_path / "dec.jsonl.manifest.json").exists()
    # the grapheme level is still decoded from the same corpus
    assert main(["decode", "--corpus", str(corpus), "--mode", mode, "--level", "grapheme",
                 "--beam", "5", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv, level", [
    (["decode", "--mode", "joint", "--beam", "5"], "syllable"),
    (["decode", "--mode", "joint", "--beam", "5"], "grapheme"),
    (["loss"], "syllable"),
    (["loss"], "grapheme"),
], ids=["joint-syllable", "joint-grapheme", "loss-syllable", "loss-grapheme"])
def test_missing_vocabulary_of_a_needed_level_is_a_config_error(corpus, tmp_path, capsys, argv, level):
    (corpus / f"{level}.vocab").unlink()
    out = tmp_path / "out.jsonl"
    assert main([argv[0], "--corpus", str(corpus), *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no {level} vocabulary in the corpus\n"
    assert not out.exists() and not (tmp_path / "out.jsonl.manifest.json").exists()


@pytest.mark.parametrize("mode", ["beam", "greedy"])
def test_default_level_is_chosen_once_per_run(corpus, tmp_path, capsys, mode):
    (corpus / "utt0000.syll.lat").unlink()
    out = tmp_path / "dec.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", mode, "--beam", "5",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(f"1/{len(TEXTS)} utterances failed\n")
    records = read_records(out)
    # the utterance without a syllable lattice is not decoded at another level
    assert records[0] == {"id": "utt0000", "mode": mode, "error": "no syllable lattice present"}
    assert [r["level"] for r in records[1:]] == ["syllable"] * (len(TEXTS) - 1)


@pytest.mark.parametrize("level", ["syllable", "grapheme"])
def test_decode_and_loss_report_a_missing_lattice_alike(corpus, tmp_path, capsys, level):
    (corpus / f"utt0001.{level[:4]}.lat").unlink()
    message = f"no {level} lattice present"
    decoded = tmp_path / "dec.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "joint", "--beam", "5",
                 "--out", str(decoded)]) == 1
    assert read_records(decoded)[1] == {"id": "utt0001", "mode": "joint", "error": message}
    out = tmp_path / "loss.jsonl"
    capsys.readouterr()
    assert main(["loss", "--corpus", str(corpus), "--out", str(out)]) == 1
    # utt0000 and utt0002 hold the held-out syllable
    assert capsys.readouterr().err == f"3/{len(TEXTS)} utterances failed\n"
    assert read_records(out)[1] == {"id": "utt0001", "error": message}


def test_loss_utterance_without_reference_is_a_per_utterance_error(corpus, tmp_path, capsys):
    refs = corpus / "refs.tsv"
    lines = refs.read_text(encoding="utf-8").splitlines()
    refs.write_text("".join(line + "\n" for line in lines if not line.startswith("utt0001\t")),
                    encoding="utf-8")
    out = tmp_path / "loss.jsonl"
    assert main(["loss", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"3/{len(TEXTS)} utterances failed\n"
    records = read_records(out)
    # the ids of refs.tsv come first, then those of lattice files alone
    assert [r.get("id") for r in records] == ["utt0000", "utt0002", "utt0003", "utt0001", None]
    assert records[3] == {"id": "utt0001", "error": "no reference"}


def test_dotted_ids_make_no_phantom_utterances(tmp_path):
    texts_file = tmp_path / "texts.txt"
    texts_file.write_text("가 나\n다\n", encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["synth", "--texts", str(texts_file), "--seed", "7", "--out", str(corpus)]) == 0
    for head in ("syll", "grap"):
        (corpus / f"utt0000.{head}.lat").rename(corpus / f"a.b.{head}.lat")
    refs = corpus / "refs.tsv"
    refs.write_text(refs.read_text(encoding="utf-8").replace("utt0000\t", "a.b\t"), encoding="utf-8")
    for argv in (["decode", "--mode", "joint", "--beam", "5"], ["loss"]):
        out = tmp_path / "out.jsonl"
        assert main([argv[0], "--corpus", str(corpus), *argv[1:], "--out", str(out)]) == 0
        assert [r["id"] for r in read_records(out) if "id" in r] == ["a.b", "utt0001"]


def test_negative_text_lattice_width_is_a_per_utterance_error(corpus, tmp_path):
    (corpus / "utt0001.syll.lat").write_text("1 -1 norm\n0.0\n", encoding="utf-8")
    out = tmp_path / "dec.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "beam", "--level", "syllable",
                 "--beam", "5", "--out", str(out)]) == 1
    records = read_records(out)
    error = records[1].pop("error")
    assert "utt0001.syll.lat" in error and "negative dimension" in error
    assert records[1] == {"id": "utt0001", "mode": "beam"}
    assert all("hypotheses" in r for k, r in enumerate(records) if k != 1)


def test_decode_writes_manifest(corpus, tmp_path):
    out = tmp_path / "dec.jsonl"
    main(["decode", "--corpus", str(corpus), "--mode", "greedy", "--out", str(out)])
    manifest = json.loads((tmp_path / "dec.jsonl.manifest.json").read_text())
    assert manifest["command"] == "decode"
    assert manifest["config"]["mode"] == "greedy"


def test_joint_needs_both_lattices(corpus, tmp_path):
    (corpus / "utt0001.grap.lat").unlink()
    out = tmp_path / "dec.jsonl"
    code = main(["decode", "--corpus", str(corpus), "--mode", "joint", "--beam", "5",
                 "--out", str(out)])
    assert code == 1
    records = {r["id"]: r for r in read_records(out)}
    assert "error" in records["utt0001"]
    assert "hypotheses" in records["utt0000"]


def test_corrupted_lattice_is_reported(corpus, tmp_path):
    (corpus / "utt0000.syll.lat").write_bytes(b"CTCLgarbage")
    out = tmp_path / "dec.jsonl"
    code = main(["decode", "--corpus", str(corpus), "--mode", "beam", "--level", "syllable",
                 "--beam", "5", "--out", str(out)])
    assert code == 1
    records = {r["id"]: r for r in read_records(out)}
    assert "error" in records["utt0000"]


def test_unknown_magic_is_a_per_utterance_error(corpus, tmp_path):
    # neither CTCL nor UTF-8 text
    path = corpus / "utt0001.syll.lat"
    path.write_bytes(b"CTCX" + path.read_bytes()[4:])
    out = tmp_path / "dec.jsonl"
    code = main(["decode", "--corpus", str(corpus), "--mode", "beam", "--level", "syllable",
                 "--beam", "5", "--out", str(out)])
    assert code == 1
    records = {r["id"]: r for r in read_records(out)}
    assert "utt0001.syll.lat" in records["utt0001"]["error"]
    assert "UTF-8" in records["utt0001"]["error"]
    assert all("hypotheses" in records[u] for u in ("utt0000", "utt0002", "utt0003"))


@pytest.mark.parametrize("argv", [
    ["--mode", "joint", "--beam", "5", "--top-k", "2"],
    ["--mode", "beam", "--level", "syllable", "--beam", "5", "--top-k", "2"],
], ids=["joint", "beam"])
def test_bad_lattices_in_a_chunk_fail_only_their_utterances(corpus, tmp_path, argv):
    def decode(name):
        out = tmp_path / name
        code = main(["decode", "--corpus", str(corpus), *argv, "--out", str(out)])
        return code, out.read_text(encoding="utf-8").splitlines()

    code, clean = decode("clean.jsonl")
    assert code == 0
    (corpus / "utt0001.syll.lat").write_bytes(b"CTCLgarbage")
    path = corpus / "utt0002.syll.lat"
    path.write_bytes(b"CTCX" + path.read_bytes()[4:])
    code, broken = decode("broken.jsonl")
    assert code == 1
    # the chunk still decodes its other utterances, exactly as before
    assert [broken[0], broken[3]] == [clean[0], clean[3]]
    errors = [json.loads(line) for line in broken[1:3]]
    assert [r["id"] for r in errors] == ["utt0001", "utt0002"]
    assert all(set(r) == {"id", "mode", "error"} for r in errors)
    assert "UTF-8" in errors[1]["error"]


@pytest.mark.parametrize("extra", [1, -1], ids=["wider", "narrower"])
@pytest.mark.parametrize("argv, level", [
    (["decode", "--mode", "greedy", "--level", "syllable"], "syllable"),
    (["decode", "--mode", "beam", "--level", "grapheme", "--beam", "5"], "grapheme"),
    (["decode", "--mode", "joint", "--beam", "5"], "grapheme"),
    (["loss"], "syllable"),
], ids=["greedy", "beam", "joint", "loss"])
def test_vocabulary_size_mismatch_fails_only_its_utterance(corpus, tmp_path, argv, level, extra):
    def run(name):
        out = tmp_path / name
        code = main([argv[0], "--corpus", str(corpus), *argv[1:], "--out", str(out)])
        # (id, line) in corpus order; loss adds a corpus line without an id
        lines = out.read_text(encoding="utf-8").splitlines()
        return code, [(json.loads(line).get("id"), line) for line in lines]

    _, clean = run("clean.jsonl")
    path = corpus / f"utt0001.{level[:4]}.lat"
    size = Vocabulary.load(corpus / f"{level}.vocab").size
    frames = load_lattice(path).frames
    save_lattice(EmissionLattice(np.full((frames, size + extra), -np.log(size + extra)), normalized=True), path)
    code, broken = run("broken.jsonl")
    assert code == 1
    record = json.loads(broken[1][1])
    assert record.pop("error") == f"lattice vocab size {size + extra} != vocabulary size {size}"
    assert record == ({"id": "utt0001", "mode": argv[2]} if argv[0] == "decode" else {"id": "utt0001"})
    # every other utterance's record is the clean run's, byte for byte
    assert [item for item in broken if item[0] not in ("utt0001", None)] == \
        [item for item in clean if item[0] not in ("utt0001", None)]


@pytest.mark.parametrize("argv", [
    ["decode", "--mode", "greedy", "--level", "grapheme"],
    ["decode", "--mode", "beam", "--level", "grapheme", "--beam", "5"],
    ["decode", "--mode", "joint", "--beam", "5"],
    ["loss"],
], ids=["greedy", "beam", "joint", "loss"])
def test_header_larger_than_its_file_fails_only_its_utterance(corpus, tmp_path, argv):
    def run(name):
        out = tmp_path / name
        code = main([argv[0], "--corpus", str(corpus), *argv[1:], "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        return code, [(json.loads(line).get("id"), line) for line in lines]

    _, clean = run("clean.jsonl")
    # 23 bytes whose header promises 20 billion values: rejected before any
    # score array is allocated
    path = corpus / "utt0001.grap.lat"
    path.write_text("1 20000000000 norm\n0.0\n")
    assert path.stat().st_size == 23
    code, broken = run("broken.jsonl")
    assert code == 1
    [record] = [json.loads(line) for utt_id, line in broken if utt_id == "utt0001"]
    assert record.pop("error") == (f"{path}: header '1 20000000000 norm' needs 20000000000 values, "
                                   f"more than its rows can hold")
    assert record == ({"id": "utt0001", "mode": argv[2]} if argv[0] == "decode" else {"id": "utt0001"})
    # every other utterance's record is the clean run's, byte for byte
    assert [item for item in broken if item[0] not in ("utt0001", None)] == \
        [item for item in clean if item[0] not in ("utt0001", None)]


@pytest.mark.parametrize("argv", [["decode", "--mode", "greedy"], ["loss"]], ids=["decode", "loss"])
def test_corpus_without_utterances_is_a_config_error(corpus, tmp_path, capsys, argv):
    empty = tmp_path / "empty"
    empty.mkdir()
    for name in ("syllable.vocab", "grapheme.vocab"):
        (empty / name).write_bytes((corpus / name).read_bytes())
    out = tmp_path / "out.jsonl"
    assert main([argv[0], "--corpus", str(empty), *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no utterances found in {empty}\n"
    assert not out.exists() and not (tmp_path / "out.jsonl.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["--mode", "joint", "--beam", "10", "--top-k", "3"],
    ["--mode", "beam", "--level", "grapheme", "--beam", "10", "--top-k", "3"],
], ids=["joint", "beam"])
def test_chunking_does_not_change_the_output(corpus, tmp_path, monkeypatch, argv):
    batches = []

    def recording(decode):
        def batch(items, *rest):
            batches[-1].append(len(items))
            return decode(items, *rest)
        return batch

    for name in ("joint_decode_batch", "beam_decode_texts_batch"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    cells = load_lattice(corpus / "utt0000.syll.lat").scores.size
    runs = []
    # one chunk for the corpus; a chunk per utterance by either bound; then
    # chunks closed by the lattice cells of two utterances, and by the
    # hypotheses of two utterances (two lattices of width 10 each in joint
    # mode, one in beam mode)
    for limits in ((cli._CHUNK_CELLS, cli._CHUNK_HYPOTHESES), (1, cli._CHUNK_HYPOTHESES),
                   (cli._CHUNK_CELLS, 1), (2 * cells, cli._CHUNK_HYPOTHESES),
                   (cli._CHUNK_CELLS, 40 if "joint" in argv else 20)):
        monkeypatch.setattr(cli, "_CHUNK_CELLS", limits[0])
        monkeypatch.setattr(cli, "_CHUNK_HYPOTHESES", limits[1])
        batches.append([])
        out = tmp_path / "out.jsonl"
        assert main(["decode", "--corpus", str(corpus), *argv, "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs == [runs[0]] * 5
    assert batches[:3] == [[4], [1, 1, 1, 1], [1, 1, 1, 1]]
    assert max(batches[3]) < 4 and batches[4] == [2, 2]


def test_missing_corpus_is_config_error(tmp_path):
    assert main(["decode", "--corpus", str(tmp_path / "nope"), "--mode", "greedy"]) == 2


def test_eval_identical_hyps(corpus, tmp_path):
    out = tmp_path / "eval.jsonl"
    code = main(["eval", "--refs", str(corpus / "refs.tsv"),
                 "--hyps", str(corpus / "refs.tsv"), "--out", str(out)])
    assert code == 0
    summary = read_records(out)[-1]["corpus"]
    assert summary == {"cer": 0.0, "wer": 0.0, "swer": 0.0, "utterances": len(TEXTS)}


def test_eval_spacing_only_perturbation(corpus, tmp_path):
    refs = dict(line.split("\t") for line in (corpus / "refs.tsv").read_text().splitlines())
    hyps_path = tmp_path / "hyps.tsv"
    hyps_path.write_text(
        "\n".join(f"{uid}\t{text.replace(' ', '')}" for uid, text in refs.items()) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "eval.jsonl"
    main(["eval", "--refs", str(corpus / "refs.tsv"), "--hyps", str(hyps_path),
          "--out", str(out)])
    summary = read_records(out)[-1]["corpus"]
    assert summary["cer"] == 0.0
    assert summary["swer"] == 0.0
    assert summary["wer"] > 0.0


def test_eval_unmatched_id(corpus, tmp_path):
    hyps_path = tmp_path / "hyps.tsv"
    hyps_path.write_text("other\t가\n", encoding="utf-8")
    assert main(["eval", "--refs", str(corpus / "refs.tsv"), "--hyps", str(hyps_path)]) == 2


def test_eval_empty_reference_is_a_per_utterance_error(corpus, tmp_path):
    refs_path = tmp_path / "refs.tsv"
    refs_path.write_text((corpus / "refs.tsv").read_text(encoding="utf-8") + "blank\t \n",
                         encoding="utf-8")
    hyps_path = tmp_path / "hyps.tsv"
    hyps_path.write_text((corpus / "refs.tsv").read_text(encoding="utf-8") + "blank\t가\n",
                         encoding="utf-8")
    out = tmp_path / "eval.jsonl"
    code = main(["eval", "--refs", str(refs_path), "--hyps", str(hyps_path), "--out", str(out)])
    assert code == 1
    records = read_records(out)
    errors = [r for r in records if "error" in r]
    assert errors == [{"id": "blank", "error": "reference has no characters"}]
    assert records[-1]["corpus"] == {"cer": 0.0, "wer": 0.0, "swer": 0.0, "utterances": len(TEXTS)}


def test_eval_failed_decode_record_is_a_per_utterance_error(corpus, tmp_path):
    (corpus / "utt0001.grap.lat").unlink()
    decoded = tmp_path / "dec.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "joint", "--beam", "5",
                 "--out", str(decoded)]) == 1
    out = tmp_path / "eval.jsonl"
    code = main(["eval", "--refs", str(corpus / "refs.tsv"), "--hyps", str(decoded),
                 "--out", str(out)])
    assert code == 1
    records = read_records(out)
    by_id = {r["id"]: r for r in records if "id" in r}
    assert set(by_id) == {f"utt{k:04d}" for k in range(len(TEXTS))}
    assert by_id["utt0001"]["error"].startswith("decode failed: ")
    assert all("cer" in r for uid, r in by_id.items() if uid != "utt0001")
    assert records[-1]["corpus"]["utterances"] == len(TEXTS) - 1


def test_loss_records(corpus, tmp_path):
    out = tmp_path / "loss.jsonl"
    # the holdout syllable is OOV for the syllable head: per-utterance errors
    code = main(["loss", "--corpus", str(corpus), "--lambda", "0.5", "--out", str(out)])
    assert code == 1
    records = read_records(out)
    errors = [r for r in records if "error" in r]
    assert errors and all(r["head"] == "syllable" for r in errors)
    scored = [r for r in records if "total" in r]
    for r in scored:
        assert r["total"] == pytest.approx(
            (r["syllable_log_prob"] + r["grapheme_log_prob"]) / 2, abs=1e-12
        )
    assert "corpus_mean_total" in records[-1]


def test_loss_bad_lattice_is_a_per_utterance_error(corpus, tmp_path):
    path = corpus / "utt0001.grap.lat"
    path.write_bytes(path.read_bytes()[:-4])
    out = tmp_path / "loss.jsonl"
    code = main(["loss", "--corpus", str(corpus), "--out", str(out)])
    assert code == 1
    records = read_records(out)
    by_id = {r["id"]: r for r in records if "id" in r}
    assert "utt0001.grap.lat" in by_id["utt0001"]["error"]
    assert "head" not in by_id["utt0001"]
    assert by_id["utt0000"]["head"] == by_id["utt0002"]["head"] == "syllable"
    assert "total" in by_id["utt0003"]
    assert records[-1] == {"corpus_mean_total": by_id["utt0003"]["total"], "scored": 1}


def test_unreadable_lattice_is_a_per_utterance_error(tmp_path):
    texts_file = tmp_path / "texts.txt"
    texts_file.write_text("\n".join(TEXTS[:3]) + "\n", encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["synth", "--texts", str(texts_file), "--seed", "7", "--out", str(corpus)]) == 0
    path = corpus / "utt0001.syll.lat"
    path.unlink()
    path.mkdir()  # reading it raises an OSError, not a HanjointError
    out = tmp_path / "dec.jsonl"
    code = main(["decode", "--corpus", str(corpus), "--mode", "joint", "--beam", "5",
                 "--out", str(out)])
    assert code == 1
    records = {r["id"]: r for r in read_records(out)}
    assert list(records) == ["utt0000", "utt0001", "utt0002"]
    assert "utt0001.syll.lat" in records["utt0001"]["error"]
    assert "hypotheses" in records["utt0000"] and "hypotheses" in records["utt0002"]

    out = tmp_path / "loss.jsonl"
    assert main(["loss", "--corpus", str(corpus), "--out", str(out)]) == 1
    by_id = {r["id"]: r for r in read_records(out) if "id" in r}
    assert "utt0001.syll.lat" in by_id["utt0001"]["error"]
    assert "total" in by_id["utt0000"] and "total" in by_id["utt0002"]


def test_loss_non_finite_score_names_its_file(corpus, tmp_path):
    path = corpus / "utt0001.grap.lat"
    data = bytearray(path.read_bytes())
    at = 14 + 4 * (load_lattice(path).vocab_size + 3)  # CTCL header, then float32 row by row
    data[at : at + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))
    out = tmp_path / "loss.jsonl"
    assert main(["loss", "--corpus", str(corpus), "--out", str(out)]) == 1
    by_id = {r["id"]: r for r in read_records(out) if "id" in r}
    error = by_id["utt0001"]["error"]
    assert "utt0001.grap.lat" in error and "non-finite score at frame 1, index 3" in error
    assert "total" in by_id["utt0003"]


def test_loss_lambda_endpoint(corpus, tmp_path):
    out = tmp_path / "loss1.jsonl"
    main(["loss", "--corpus", str(corpus), "--lambda", "1.0", "--out", str(out)])
    for r in read_records(out):
        if "total" in r:
            assert r["total"] == r["syllable_log_prob"]


def test_vocab_stats(tmp_path):
    train = tmp_path / "train.txt"
    train.write_text("가 나 하\n나 그 가\n닭 가\n", encoding="utf-8")
    eval_in = tmp_path / "eval_in.txt"
    eval_in.write_text("가 나\n", encoding="utf-8")
    eval_oov = tmp_path / "eval_oov.txt"
    eval_oov.write_text("가 흙 굴\n", encoding="utf-8")
    out = tmp_path / "stats.jsonl"
    code = main(["vocab-stats", "--train", str(train), "--eval", str(eval_in),
                 "--eval", str(eval_oov), "--level", "both", "--out", str(out)])
    assert code == 0
    records = {r["unit"]: r for r in read_records(out)}
    assert records["syllable"]["vocab_size"] == 5
    assert records["syllable"]["oov"]["eval_in.txt"]["count"] == 0
    oov = records["syllable"]["oov"]["eval_oov.txt"]
    # 흙 is constructible from 하/그/닭 jamo, 굴 needs ㅜ which train lacks
    assert oov == {"count": 2, "constructible": 1, "unconstructible": 1}
    assert records["grapheme"]["oov"]["eval_in.txt"]["count"] == 0


@pytest.mark.parametrize("level", ["syllable", "grapheme"])
def test_vocab_stats_one_level_is_that_row_of_both(tmp_path, level):
    train = tmp_path / "train.txt"
    train.write_text("가 나 하\n나 그 a\n", encoding="utf-8")
    dev = tmp_path / "dev.txt"
    dev.write_text("가 흙 굴\nb 나\n", encoding="utf-8")
    rows = {}
    for run in ("both", level):
        out = tmp_path / f"{run}.jsonl"
        assert main(["vocab-stats", "--train", str(train), "--eval", str(dev), "--eval", str(train),
                     "--level", run, "--out", str(out)]) == 0
        rows[run] = read_records(out)
    assert rows[level] == [r for r in rows["both"] if r["unit"] == level]


def test_vocab_stats_eval_files_of_one_name_are_a_config_error(tmp_path, capsys):
    train = tmp_path / "train.txt"
    train.write_text("가 나\n", encoding="utf-8")
    dev, test = tmp_path / "dev" / "text.txt", tmp_path / "test" / "text.txt"
    for path, text in ((dev, "가 흙\n"), (test, "가 나\n")):
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "stats.jsonl"
    # one column per name: the second file would hide the first one's OOV
    assert main(["vocab-stats", "--train", str(train), "--eval", str(dev), "--eval", str(test),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(test) in err
    assert not out.exists() and not (tmp_path / "stats.jsonl.manifest.json").exists()


@pytest.mark.parametrize("name", ["syllable.vocab", "refs.tsv", "hyps", "train"])
def test_text_input_that_is_not_utf8_is_a_file_error(corpus, tmp_path, capsys, name):
    copy = tmp_path / "copy.txt"
    copy.write_bytes((corpus / "refs.tsv").read_bytes())
    argv = {
        "syllable.vocab": ["decode", "--corpus", str(corpus)],
        "refs.tsv": ["decode", "--corpus", str(corpus)],
        "hyps": ["eval", "--refs", str(corpus / "refs.tsv"), "--hyps", str(copy)],
        "train": ["vocab-stats", "--train", str(copy), "--eval", str(tmp_path / "texts.txt")],
    }[name]
    bad = copy if name in ("hyps", "train") else corpus / name
    bad.write_bytes(b"\xff" + bad.read_bytes())
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"
    assert not out.exists() and not (tmp_path / "out.jsonl.manifest.json").exists()


def test_oov_report(corpus, tmp_path):
    joint_out = tmp_path / "joint.jsonl"
    syll_out = tmp_path / "syll.jsonl"
    main(["decode", "--corpus", str(corpus), "--mode", "joint", "--beam", "20",
          "--out", str(joint_out)])
    main(["decode", "--corpus", str(corpus), "--mode", "beam", "--level", "syllable",
          "--beam", "20", "--out", str(syll_out)])
    out = tmp_path / "report.json"
    code = main(["oov-report", "--refs", str(corpus / "refs.tsv"),
                 "--decodes", str(syll_out), "--decodes", str(joint_out),
                 "--train-vocab", str(corpus / "syllable.vocab"),
                 "--grapheme-vocab", str(corpus / "grapheme.vocab"),
                 "--out", str(out)])
    assert code == 0
    record = read_records(out)[0]
    assert record["oov_vocab"] == 1
    assert record["oov_occurrences"] == 2
    # a syllable-only decoder cannot produce true OOVs; the joint decoder got them all
    assert record["recovery"]["beam:syllable"] == {"vocab": 0, "occurrences": 0}
    assert record["recovery"]["joint"] == {"vocab": 1, "occurrences": 2}


def test_oov_report_failed_decode_record(corpus, tmp_path, capsys):
    (corpus / "utt0000.grap.lat").unlink()
    decoded = tmp_path / "grap.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "beam", "--level", "grapheme",
                 "--beam", "20", "--out", str(decoded)]) == 1
    report_args = ["oov-report", "--refs", str(corpus / "refs.tsv"),
                   "--train-vocab", str(corpus / "syllable.vocab"),
                   "--grapheme-vocab", str(corpus / "grapheme.vocab")]
    out = tmp_path / "report.json"
    assert main([*report_args, "--decodes", str(decoded), "--out", str(out)]) == 1
    # the failed first record recovers nothing and does not hide the level;
    # utt0002 still recovers its held-out syllable
    assert read_records(out)[0]["recovery"] == {
        "beam:grapheme": {"vocab": 1, "occurrences": 1, "failed": ["utt0000"]}
    }

    lines = decoded.read_text(encoding="utf-8").splitlines()
    missing = tmp_path / "missing.jsonl"
    missing.write_text("".join(line + "\n" for line in lines if '"utt0002"' not in line),
                       encoding="utf-8")
    capsys.readouterr()
    assert main([*report_args, "--decodes", str(missing)]) == 2
    assert "'utt0002' has no counterpart" in capsys.readouterr().err


def test_eval_and_oov_report_reject_a_decode_id_without_a_reference(corpus, tmp_path, capsys):
    decoded = tmp_path / "dec.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "joint", "--beam", "5",
                 "--out", str(decoded)]) == 0
    lines = decoded.read_text(encoding="utf-8").splitlines()
    extra = json.loads(lines[0])
    extra["id"] = "extra"
    decoded.write_text("".join(line + "\n" for line in [*lines, json.dumps(extra)]), encoding="utf-8")
    refs = str(corpus / "refs.tsv")
    for argv in (["eval", "--refs", refs, "--hyps", str(decoded)],
                 ["oov-report", "--refs", refs, "--decodes", str(decoded),
                  "--train-vocab", str(corpus / "syllable.vocab"),
                  "--grapheme-vocab", str(corpus / "grapheme.vocab")]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: utterance id 'extra' has no counterpart\n"


@pytest.mark.parametrize("bad, message", [
    ('{"id": "utt0002", "mode": "joint", "hypotheses": [', "not a JSON record: "),
    ('{"id": "utt0002", "mode": "joint", "hypotheses": [{"joint_score": 0.0}]}',
     "the first hypothesis has no text\n"),
    ('{"id": "utt0002", "mode": "joint", "hypotheses": [{"text": null}]}',
     "the first hypothesis has no text\n"),
    ('{"id": "utt0002", "mode": "joint", "hypotheses": [{"text": 5}]}',
     "the first hypothesis has no text\n"),
], ids=["not-json", "no-text", "null-text", "number-text"])
def test_malformed_decode_file_is_a_file_error(corpus, tmp_path, capsys, bad, message):
    decoded = tmp_path / "dec.jsonl"
    assert main(["decode", "--corpus", str(corpus), "--mode", "joint", "--beam", "5",
                 "--out", str(decoded)]) == 0
    lines = decoded.read_text(encoding="utf-8").splitlines()
    lines[2] = bad
    decoded.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    refs = str(corpus / "refs.tsv")
    for argv in (["eval", "--refs", refs, "--hyps", str(decoded)],
                 ["oov-report", "--refs", refs, "--decodes", str(decoded),
                  "--train-vocab", str(corpus / "syllable.vocab"),
                  "--grapheme-vocab", str(corpus / "grapheme.vocab")]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {decoded}, line 3: {message}")


def test_beam_grapheme_top_k_skips_non_composable(tmp_path):
    vocab = Vocabulary(("<ctc_blank>", "|", "ㄱ", "ㅏ"))
    probs = np.array([[0.1, 0.1, 0.3, 0.5],
                      [0.3, 0.1, 0.1, 0.5]])
    vocab.save(tmp_path / "grapheme.vocab")
    save_lattice(EmissionLattice(np.log(probs), normalized=True), tmp_path / "utt0000.grap.lat")
    out = tmp_path / "beam.jsonl"
    assert main(["decode", "--corpus", str(tmp_path), "--mode", "beam", "--level", "grapheme",
                 "--beam", "20", "--top-k", "3", "--out", str(out)]) == 0

    lattice = load_lattice(tmp_path / "utt0000.grap.lat")
    config = BeamConfig(beam_width=20)
    # the best grapheme hypothesis is a lone vowel, which does not compose
    top = prefix_beam_search(lattice, vocab, config)[0]
    assert top.tokens == (3,) and tokens_to_text(top.tokens, vocab, "grapheme") is None
    expected = [{"text": text, "log_prob": lp, "level": "grapheme"}
                for text, lp in beam_decode_texts(lattice, vocab, "grapheme", config)[:3]]
    assert len(expected) == 3 and expected[0]["text"] == "가"
    assert read_records(out)[0]["hypotheses"] == expected


def test_greedy_grapheme_writes_jamo_that_do_not_compose(tmp_path):
    vocab = Vocabulary(("<ctc_blank>", "|", "ㄱ", "ㅏ"))
    vocab.save(tmp_path / "grapheme.vocab")
    for utt_id, path in (("utt0000", [3]), ("utt0001", [3, 2, 3]), ("utt0002", [2, 3, 0, 2])):
        probs = np.full((len(path), 4), 0.02)
        probs[np.arange(len(path)), path] = 0.94
        save_lattice(EmissionLattice(np.log(probs), normalized=True), tmp_path / f"{utt_id}.grap.lat")
    out = tmp_path / "greedy.jsonl"
    assert main(["decode", "--corpus", str(tmp_path), "--mode", "greedy", "--out", str(out)]) == 0
    # a lone vowel and a leading vowel stay raw jamo; 가 + ㄱ composes into 각
    assert [r["hypotheses"] for r in read_records(out)] == [
        [{"text": "ㅏ", "level": "grapheme"}],
        [{"text": "ㅏㄱㅏ", "level": "grapheme"}],
        [{"text": "각", "level": "grapheme"}],
    ]


def test_vocab_stats_table_shape(tmp_path, capsys):
    train = tmp_path / "train.txt"
    train.write_text("가 나\n", encoding="utf-8")
    main(["vocab-stats", "--train", str(train), "--eval", str(train), "--level", "both"])
    err = capsys.readouterr().err
    for column in ("unit", "#vocab", "#OOV"):
        assert column in err


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("[PASS]") for line in lines)
