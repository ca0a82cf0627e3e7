"""Command-line interface: exit codes, precedence, determinism."""

import json
import os

import numpy as np
import pytest

from proxycause import proxy_text
from proxycause.cli import main
from proxycause.core import LabeledScatterDataset, SeedSpec, load_scatter, save_dataset, save_scatter
from proxycause.experiments import bundled_data_path, synth_anm_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), out


TINY_CORPUS = (
    "rain made the street wet\n"
    "rain again today\n"
    "wet street and wind\n"
    "wind made waves\n"
    "waves on the water\n"
    "sun after rain\n"
    "storms bring heavy rain and thunder\n"
    "clouds cover the sky before storms\n"
    "wind drives the clouds fast\n"
    "the water rose over the banks\n"
)


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(TINY_CORPUS)
    return str(path)


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["significance", "--bogus-flag"]) == 2


def test_data_errors_exit_one(capsys):
    code, out, err = run(capsys, "significance", "--n", "10")
    assert code == 1
    assert out == ""
    assert "error:" in err
    code, _, err = run(capsys, "index-corpus", "--corpus", "/does/not/exist.txt")
    assert code == 1
    assert "error:" in err


def test_significance_command(capsys):
    doc, raw = run_json(capsys, "significance", "--accuracy", "0.52", "--n", "1970")
    assert doc["p_value"] < 0.05
    assert doc["significant"] is True
    doc2, raw2 = run_json(capsys, "significance", "--accuracy", "0.52", "--n", "1970")
    assert raw == raw2


def test_synth_scatter_round_trip(tmp_path, capsys):
    out = str(tmp_path / "pair.jsonl")
    doc, raw = run_json(capsys, "synth", "--what", "scatter", "--n", "60", "--seed", "3", "--out", out)
    assert doc["label"] in (1, -1)
    sample = load_scatter(out)
    assert sample.n == 60
    doc2, raw2 = run_json(capsys, "synth", "--what", "scatter", "--n", "60", "--seed", "3", "--out", out)
    assert raw == raw2


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    base = lambda: run_json(capsys, "synth", "--what", "scatter", "--n", "50", "--seed", "5")[1]
    flag_output = base()
    monkeypatch.setenv("PROXYCAUSE_SEED", "5")
    _, env_output = run_json(capsys, "synth", "--what", "scatter", "--n", "50")
    assert env_output == flag_output
    # an explicit flag beats the environment
    _, over_output = run_json(capsys, "synth", "--what", "scatter", "--n", "50", "--seed", "7")
    monkeypatch.delenv("PROXYCAUSE_SEED")
    _, direct = run_json(capsys, "synth", "--what", "scatter", "--n", "50", "--seed", "7")
    assert over_output == direct
    # a config file beats the environment too
    monkeypatch.setenv("PROXYCAUSE_SEED", "11")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    _, cfg_output = run_json(capsys, "synth", "--what", "scatter", "--n", "50", "--config", str(cfg))
    assert cfg_output == flag_output


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nn = 40\naccuracy=1.0\n")
    doc, _ = run_json(capsys, "significance", "--config", str(cfg))
    assert doc["n"] == 40
    assert doc["p_value"] == 2.0**-40
    # flags beat the file
    doc, _ = run_json(capsys, "significance", "--config", str(cfg), "--n", "10")
    assert doc["n"] == 10
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    code, _, err = run(capsys, "significance", "--config", str(bad))
    assert code == 1 and "key=value" in err


def test_index_corpus_and_word_pair(tmp_path, capsys, corpus_file):
    index_path = str(tmp_path / "index.json")
    doc, _ = run_json(capsys, "index-corpus", "--corpus", corpus_file, "--out", index_path)
    assert doc["sentences"] == 10
    assert doc["vocabulary"] == 27
    doc, raw = run_json(
        capsys,
        "word-pair", "--x", "rain", "--y", "wet", "--kind", "prec-counts",
        "--index", index_path, "--permutations", "99", "--n-vocab", "20",
    )
    assert doc["kind"] == "prec_counts"
    assert doc["verdict"] in ("x->y", "y->x")
    assert doc["n"] == 20
    _, raw2 = run_json(
        capsys,
        "word-pair", "--x", "rain", "--y", "wet", "--kind", "prec-counts",
        "--index", index_path, "--permutations", "99", "--n-vocab", "20",
    )
    assert raw == raw2


@pytest.mark.parametrize("method", ["top", "uniform"])
def test_word_pair_rejects_a_vocab_sample_below_two(capsys, corpus_file, method):
    for n in ("-1", "0", "1"):
        code, out, err = run(
            capsys,
            "word-pair", "--x", "rain", "--y", "wet", "--kind", "counts", "--corpus", corpus_file,
            "--n-vocab", n, "--vocab-method", method,
        )
        assert code == 1 and out == ""
        assert "n must be an integer of at least 2" in err


def test_embed_train_then_word_pair(tmp_path, capsys, corpus_file):
    vi = str(tmp_path / "vi.txt")
    vo = str(tmp_path / "vo.txt")
    doc, _ = run_json(
        capsys,
        "embed-train", "--corpus", corpus_file, "--d", "8", "--epochs", "1",
        "--out-input", vi, "--out-output", vo, "--seed", "2",
    )
    assert doc["words"] == 27 and doc["d"] == 8
    doc, raw = run_json(
        capsys,
        "word-pair", "--x", "rain", "--y", "wet", "--kind", "w2voi",
        "--corpus", corpus_file, "--emb-input", vi, "--emb-output", vo,
        "--permutations", "99", "--n-vocab", "20", "--seed", "2",
    )
    assert doc["verdict"] in ("x->y", "y->x")
    # same settings, embeddings trained on the fly instead of loaded
    doc2, _ = run_json(
        capsys,
        "word-pair", "--x", "rain", "--y", "wet", "--kind", "w2voi",
        "--corpus", corpus_file, "--d", "8", "--epochs", "1",
        "--permutations", "99", "--n-vocab", "20", "--seed", "2",
    )
    assert doc2["verdict"] in ("x->y", "y->x")


def test_word_pair_reads_the_corpus_once(tmp_path, capsys, monkeypatch, corpus_file):
    """With --corpus and an embedding kind, the index and the embeddings
    trained on the fly share one read of the corpus; stdout is that of the
    same run on an index and embeddings the public functions build."""
    calls = []
    real = proxy_text._read_corpus

    def counting(path):
        calls.append(path)
        return real(path)

    argv = ("word-pair", "--x", "rain", "--y", "wet", "--kind", "w2vii", "--n-vocab", "20", "--permutations", "99",
            "--seed", "2")
    monkeypatch.setattr(proxy_text, "_read_corpus", counting)
    code, out, err = run(capsys, *argv, "--corpus", corpus_file, "--d", "8", "--epochs", "1")
    assert code == 0, err
    assert calls == [corpus_file]
    monkeypatch.undo()
    index, vi, vo = (str(tmp_path / name) for name in ("index.json", "vi.txt", "vo.txt"))
    proxy_text.save_index(proxy_text.build_index(corpus_file), index)
    emb = proxy_text.sgns_train(corpus_file, d=8, epochs=1, seed=SeedSpec(2).child("cli.embed"))
    proxy_text.save_embeddings(emb, vi, vo)
    code, want, err = run(capsys, *argv, "--index", index, "--emb-input", vi, "--emb-output", vo)
    assert code == 0, err
    assert out == want and json.loads(out)["kind"] == "w2vii"


def test_image_pair_command(tmp_path, capsys):
    doc, _ = run_json(
        capsys,
        "synth", "--what", "stylized", "--size", "40", "--k", "10", "--seed", "6",
        "--out-x", str(tmp_path / "x.pgm"), "--out-y", str(tmp_path / "y.pgm"),
    )
    assert doc["clipped_fraction"] < 0.05
    argv = (
        "image-pair", "--x", str(tmp_path / "x.pgm"), "--y", str(tmp_path / "y.pgm"),
        "--n", "200", "--k", "10", "--permutations", "99", "--seed", "6",
    )
    doc, raw = run_json(capsys, *argv)
    assert doc["verdict"] in ("x->y", "y->x")
    _, raw2 = run_json(capsys, *argv)
    assert raw == raw2


def test_frames_order_command(tmp_path, capsys):
    frames_dir = str(tmp_path / "frames")
    doc, _ = run_json(
        capsys,
        "synth", "--what", "frames", "--size", "24", "--frames", "3",
        "--seed", "1", "--out-dir", frames_dir,
    )
    assert len(doc["paths"]) == 3
    argv = (
        "frames-order", "--dir", frames_dir, "--n", "120", "--k", "4",
        "--permutations", "99", "--seed", "1",
    )
    doc, raw = run_json(capsys, *argv, "--jobs", "1")
    assert sorted(doc["indices"]) == [0, 1, 2]
    assert len(doc["matrix"]) == 3
    assert doc["frames"] == ["frame_0.pgm", "frame_1.pgm", "frame_2.pgm"]
    for jobs in (2, len(os.sched_getaffinity(0)) + 1):
        _, raw2 = run_json(capsys, *argv, "--jobs", str(jobs))
        assert raw == raw2


def test_model_train_predict_inspect(tmp_path, capsys):
    items = []
    for i in range(12):
        sample, label = synth_anm_pair(40, seed=200 + i)
        items.append((sample, label))
    data_path = str(tmp_path / "train.jsonl")
    save_dataset(LabeledScatterDataset(tuple(items)), data_path)
    sample_path = str(tmp_path / "probe.jsonl")
    save_scatter(items[0][0], sample_path)
    model_path = str(tmp_path / "model.json")

    doc, _ = run_json(
        capsys,
        "model", "train", "--data", data_path, "--out", model_path,
        "--m", "20", "--trees", "30", "--seed", "4",
    )
    assert doc["examples"] == 12
    doc, _ = run_json(capsys, "model", "inspect", "--model", model_path)
    assert doc["m"] == 20 and doc["trees"] == 30
    doc, raw = run_json(capsys, "model", "predict", "--model", model_path, "--sample", sample_path)
    assert doc["verdict"] in ("x->y", "y->x")
    _, raw2 = run_json(capsys, "model", "predict", "--model", model_path, "--sample", sample_path)
    assert raw == raw2
    code, _, err = run(capsys, "model", "retrain")
    assert code == 1 and "unknown model action" in err


def test_model_without_an_action_names_the_choices(capsys, tmp_path):
    code, out, err = run(capsys, "model", "--model", str(tmp_path / "m.json"))
    error = err.strip().splitlines()[-1]
    assert code == 1 and out == ""
    assert error.startswith("error: model action is required") and "None" not in error
    assert all(choice in error for choice in ("train", "predict", "inspect"))


def test_word_pair_with_model_engine(tmp_path, capsys, corpus_file):
    items = [synth_anm_pair(40, seed=300 + i) for i in range(10)]
    data_path = str(tmp_path / "train.jsonl")
    save_dataset(LabeledScatterDataset(tuple(items)), data_path)
    model_path = str(tmp_path / "model.json")
    run_json(
        capsys,
        "model", "train", "--data", data_path, "--out", model_path,
        "--m", "10", "--trees", "20", "--seed", "0",
    )
    doc, raw = run_json(
        capsys,
        "word-pair", "--x", "rain", "--y", "wet", "--kind", "counts",
        "--corpus", corpus_file, "--engine", "model", "--model", model_path,
        "--n-vocab", "20",
    )
    assert doc["verdict"] in ("x->y", "y->x")
    _, raw2 = run_json(
        capsys,
        "word-pair", "--x", "rain", "--y", "wet", "--kind", "counts",
        "--corpus", corpus_file, "--engine", "model", "--model", model_path,
        "--n-vocab", "20",
    )
    assert raw == raw2


def test_baselines_command(capsys):
    argv = (
        "baselines",
        "--pairs", bundled_data_path("word_pairs.csv"),
        "--corpus", bundled_data_path("mini_corpus.txt"),
        "--min-votes", "14", "--kinds", "frequency,precedence", "--n-vocab", "100",
    )
    doc, raw = run_json(capsys, *argv)
    assert doc["filtered_pairs"] == 33
    for kind in ("frequency", "precedence"):
        block = doc["baselines"][kind]
        assert 0.0 <= block["accuracy"] <= 1.0
        assert len(block["pairs"]) == 33
    _, raw2 = run_json(capsys, *argv)
    assert raw == raw2


def test_nlp_eval_is_job_invariant(capsys):
    argv = (
        "nlp-eval",
        "--pairs", bundled_data_path("word_pairs.csv"),
        "--corpus", bundled_data_path("mini_corpus.txt"),
        "--min-votes", "14", "--kinds", "counts,pmi",
        "--methods", "distribution,baselines,curve", "--curve-kind", "counts",
        "--trees", "20", "--m", "20", "--repeats", "2", "--n-vocab", "60", "--seed", "1",
    )
    doc, raw = run_json(capsys, *argv, "--jobs", "1")
    assert doc["filtered_pairs"] == 33
    assert set(doc["distribution"]) == {"counts", "pmi"}
    assert len(doc["baselines"]) == 10
    assert doc["confidence_curve"][0]["threshold"] == 0
    for point in doc["confidence_curve"]:
        acc = point["accuracy"]
        assert acc is None or 0.0 <= acc <= 1.0
    for jobs in (2, len(os.sched_getaffinity(0)) + 1):
        _, raw2 = run_json(capsys, *argv, "--jobs", str(jobs))
        assert raw == raw2


@pytest.mark.parametrize("command", ["nlp-eval", "baselines", "frames-order"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_data_error(capsys, tmp_path, command, jobs):
    argv = [command, "--jobs", jobs, "--dir", str(tmp_path)] if command == "frames-order" else [
        command, "--pairs", bundled_data_path("word_pairs.csv"),
        "--corpus", bundled_data_path("mini_corpus.txt"), "--jobs", jobs,
    ]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"error: --jobs must be at least 1, got {jobs}" in err


@pytest.mark.parametrize("command, flag, value, what", [
    ("nlp-eval", "--methods", "distributon", "method"),
    ("nlp-eval", "--kinds", "count", "projection kind"),
    ("nlp-eval", "--curve-kind", "w2v", "curve kind"),
    ("baselines", "--kinds", "frequency,zipf", "baseline"),
])
def test_unknown_names_are_rejected_before_any_work(capsys, command, flag, value, what):
    # Neither input exists, so an error about the name shows that it was
    # checked before either was read.
    code, out, err = run(capsys, command, "--pairs", "/does/not/exist.csv", "--corpus", "/does/not/exist.txt",
                         flag, value)
    assert code == 1 and out == ""
    bad = value.split(",")[-1]
    assert f"error: unknown {what} {bad!r}" in err


def test_word_pair_kind_is_rejected_before_any_work(capsys):
    code, out, err = run(capsys, "word-pair", "--x", "cat", "--y", "animal", "--corpus", "/does/not/exist.txt",
                         "--kind", "count")
    assert code == 1 and out == ""
    assert "error: unknown projection kind 'count'" in err


def test_general_beta_follows_flag_then_config(tmp_path, capsys):
    argv = [
        "synth", "--what", "stylized", "--size", "20", "--k", "10", "--seed", "6",
        "--out-x", str(tmp_path / "x.pgm"), "--out-y", str(tmp_path / "y.pgm"),
    ]
    cfg = tmp_path / "run.cfg"

    def row_constant(*extra, config=None):
        if config is not None:
            cfg.write_text(f"general-beta = {config}\n")
            extra += ("--config", str(cfg))
        return run_json(capsys, *argv, *extra)[0]["row_constant"]

    assert row_constant() is True
    assert row_constant("--general-beta") is False
    assert row_constant(config="true") is False
    assert row_constant(config="false") is True
    # the flag beats the file
    assert row_constant("--general-beta", config="false") is False
    for bad in ("1", "yes", "True", ""):
        cfg.write_text(f"general-beta = {bad}\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1 and out == "" and "true or false" in err


@pytest.mark.parametrize("argv, option", [
    (["index-corpus"], "corpus"),
    (["embed-train", "--corpus", "c.txt", "--out-output", "vo.txt"], "out-input"),
    (["embed-train", "--corpus", "c.txt", "--out-input", "vi.txt"], "out-output"),
    (["word-pair", "--y", "wet", "--corpus", "c.txt"], "x"),
    (["word-pair", "--x", "rain", "--corpus", "c.txt"], "y"),
    (["nlp-eval", "--corpus", "c.txt"], "pairs"),
    (["baselines", "--corpus", "c.txt"], "pairs"),
    (["image-pair", "--x", "a.pgm"], "y"),
    (["frames-order"], "dir"),
    (["synth"], "what"),
    (["synth", "--what", "stylized", "--out-x", "x.pgm"], "out-y"),
    (["synth", "--what", "frames"], "out-dir"),
    (["significance", "--n", "40"], "accuracy"),
    (["significance", "--accuracy", "0.75"], "n"),
    (["model", "train", "--out", "m.json"], "data"),
    (["model", "predict", "--model", "m.json"], "sample"),
    (["model", "inspect"], "model"),
    (["image-pair", "--x", "a.pgm", "--y", "b.pgm", "--engine", "model"], "model"),
])
def test_a_missing_required_option_exits_one_and_is_named(capsys, tmp_path, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"--{option}" in err


def test_config_keys_must_name_an_option(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a typo below\np00 = 0.9\n")
    code, out, err = run(capsys, "significance", "--accuracy", "0.75", "--n", "40", "--config", str(cfg))
    assert code == 1 and out == ""
    assert "config line 2" in err and "'p00'" in err
    # a key of another subcommand's options is accepted, so one file can
    # serve several commands
    cfg.write_text("p0 = 0.25\ntrees = 9\n")
    doc, _ = run_json(capsys, "significance", "--accuracy", "0.75", "--n", "40", "--config", str(cfg))
    assert doc["p0"] == 0.25
