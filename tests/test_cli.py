"""Command-line interface: exit codes, precedence, determinism."""

import json
import os
import warnings

import numpy as np
import pytest

from proxycause import cli, experiments, proxy_text
from proxycause.cli import main
from proxycause.core import LabeledScatterDataset, load_scatter, save_dataset, save_scatter
from proxycause.experiments import bundled_data_path, synth_anm_pair
from proxycause.proxy_image import Image, load_image, save_image
from proxycause.rcc import rcc_train, save_model


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


@pytest.fixture()
def index_file(tmp_path, corpus_file):
    """The index index-corpus writes for the tiny corpus."""
    path = str(tmp_path / "index.json")
    proxy_text.save_index(proxy_text.build_index(corpus_file), path)
    return path


@pytest.fixture(scope="module")
def bundled_index(tmp_path_factory):
    """The index index-corpus writes for the bundled corpus."""
    path = str(tmp_path_factory.mktemp("bundled") / "index.json")
    proxy_text.save_index(proxy_text.build_index(bundled_data_path("mini_corpus.txt")), path)
    return path


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


def test_significance_at_ten_thousand_pairs_and_a_p0_of_0_3(capsys):
    """p0 = 0.3 is a ratio over 2**54, whose powers a Fraction sum carries in every term."""
    doc, _ = run_json(capsys, "significance", "--accuracy", "0.3", "--n", "10000", "--p0", "0.3")
    assert doc["p_value"] == 0.5037723775457691 and doc["significant"] is False


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
def test_word_pair_rejects_a_vocab_sample_below_two(capsys, index_file, method):
    for n in ("-1", "0", "1"):
        code, out, err = run(
            capsys,
            "word-pair", "--x", "rain", "--y", "wet", "--kind", "counts", "--index", index_file,
            "--n-vocab", n, "--vocab-method", method,
        )
        assert code == 1 and out == ""
        assert f"error: --n-vocab must be an integer of at least 2, got {n}" in err


def test_embed_train_then_word_pair(tmp_path, capsys, corpus_file, index_file):
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
        "--index", index_file, "--emb-input", vi, "--emb-output", vo,
        "--permutations", "99", "--n-vocab", "20", "--seed", "2",
    )
    assert doc["verdict"] in ("x->y", "y->x")


def test_an_embedding_table_with_a_nan_is_named(tmp_path, capsys, index_file):
    vi, vo = tmp_path / "vi.txt", tmp_path / "vo.txt"
    vi.write_text("2 2\nrain 1.0 2.0\nwet 3.0 4.0\n")
    vo.write_text("2 2\nrain 1.0 nan\nwet 3.0 4.0\n")
    code, out, err = run(capsys, "word-pair", "--x", "rain", "--y", "wet", "--kind", "w2vio", "--index", index_file,
                         "--emb-input", str(vi), "--emb-output", str(vo))
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (f"error: {vo}: embedding vectors must be an array of at least 0 finite numbers, "
                                    "got nan at index (0, 1)") and "Traceback" not in err


def _tables_without(corpus, word, vi, vo):
    """Embedding files for ``corpus`` that lack ``word`` and hold every other word."""
    emb = proxy_text.sgns_train(corpus, d=4, epochs=1)
    keep = [i for i, w in enumerate(emb.words) if w != word]
    kept = proxy_text.EmbeddingModel(tuple(emb.words[i] for i in keep), emb.input_matrix[keep], emb.output_matrix[keep])
    proxy_text.save_embeddings(kept, vi, vo)


def test_an_embedding_table_without_a_proxy_word_is_named(tmp_path, capsys, corpus_file, index_file):
    vi, vo = str(tmp_path / "vi.txt"), str(tmp_path / "vo.txt")
    _tables_without(corpus_file, "the", vi, vo)
    code, out, err = run(capsys, "word-pair", "--x", "rain", "--y", "wet", "--kind", "w2vii", "--index", index_file,
                         "--emb-input", vi, "--emb-output", vo)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: out of the embedding vocabulary: 'the'"


def test_a_training_split_of_one_label_says_so(capsys, bundled_index):
    """At split 0.03 one of the 33 bundled pairs trains each repeat."""
    code, out, err = run(capsys, "nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"), "--index", bundled_index,
                         "--kinds", "counts", "--methods", "distribution", "--split", "0.03")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: training data must contain both labels"


def test_an_evaluation_left_with_too_few_pairs_says_why(tmp_path, capsys, bundled_index):
    """Every pair is excluded for one proxy word the tables lack; the error
    counts the excluded pairs and gives the first one's reason."""
    corpus, pairs = bundled_data_path("mini_corpus.txt"), bundled_data_path("word_pairs.csv")
    top = proxy_text.vocab_sample(proxy_text.load_index(bundled_index), 2).words[0]
    vi, vo = str(tmp_path / "vi.txt"), str(tmp_path / "vo.txt")
    _tables_without(corpus, top, vi, vo)
    filtered = experiments.filter_consensus(experiments.load_word_pairs(pairs), 14)
    first = f"{filtered[0][0].x},{filtered[0][0].y}"
    code, out, err = run(capsys, "nlp-eval", "--pairs", pairs, "--index", bundled_index, "--emb-input", vi,
                         "--emb-output", vo, "--min-votes", "14", "--kinds", "w2vii", "--methods", "distribution")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (
        f"error: need at least 8 labeled pairs, got 0 ({len(filtered)} excluded, first {first}: "
        f"out of the embedding vocabulary: {top!r})"
    )


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


def test_frames_order_names_the_frame_pair_it_cannot_judge(tmp_path, capsys):
    for i in range(3):
        save_image(Image(np.full((32, 32), 0.5)), str(tmp_path / f"frame_{i}.pgm"))
    code, out, err = run(capsys, "frames-order", "--dir", str(tmp_path), "--n", "64", "--k", "4")
    assert code == 1 and out == ""
    assert "error: frames 0 and 1: constant variable" in err


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


def test_word_pair_with_model_engine(tmp_path, capsys, index_file):
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
        "--index", index_file, "--engine", "model", "--model", model_path,
        "--n-vocab", "20",
    )
    assert doc["verdict"] in ("x->y", "y->x")
    _, raw2 = run_json(
        capsys,
        "word-pair", "--x", "rain", "--y", "wet", "--kind", "counts",
        "--index", index_file, "--engine", "model", "--model", model_path,
        "--n-vocab", "20",
    )
    assert raw == raw2


def test_baselines_command(capsys, bundled_index):
    """The count baselines are scored by nlp-eval --methods baselines, one
    accuracy, tie count and pair count each; there is no baselines command."""
    assert main(["baselines", "--pairs", bundled_data_path("word_pairs.csv")]) == 2
    argv = (
        "nlp-eval", "--methods", "baselines",
        "--pairs", bundled_data_path("word_pairs.csv"),
        "--index", bundled_index,
        "--min-votes", "14", "--n-vocab", "100",
    )
    doc, raw = run_json(capsys, *argv)
    assert doc["filtered_pairs"] == 33
    assert list(doc["baselines"]) == sorted(proxy_text.BASELINE_KINDS)
    for block in doc["baselines"].values():
        assert set(block) == {"accuracy", "ties", "count"}
        assert 0.0 <= block["accuracy"] <= 1.0 and 0 <= block["ties"] <= 33 and block["count"] == 33
    _, raw2 = run_json(capsys, *argv)
    assert raw == raw2


def test_nlp_eval_is_job_invariant(capsys, monkeypatch, bundled_index):
    argv = (
        "nlp-eval",
        "--pairs", bundled_data_path("word_pairs.csv"),
        "--index", bundled_index,
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
    # The curve is read off the reported counts run: at threshold 0 it pools
    # every test verdict of its repeats.
    report = doc["distribution"]["counts"]
    n = report["num_pairs"]
    assert doc["confidence_curve"][0]["accuracy"] == pytest.approx(np.mean(report["accuracies"]), abs=1e-12)
    assert doc["confidence_curve"][0]["count"] == 2 * (n - round(0.75 * n))
    for jobs in (2, len(os.sched_getaffinity(0)) + 1):
        _, raw2 = run_json(capsys, *argv, "--jobs", str(jobs))
        assert raw == raw2
    # Nor on the order the tasks run in: here the last task runs first.
    orders = []

    def reversed_map(fn, items, jobs=1):
        orders.append(list(items)[::-1])
        return [fn(item) for item in orders[-1]][::-1]

    monkeypatch.setattr(cli, "parallel_map", reversed_map)
    _, raw2 = run_json(capsys, *argv, "--jobs", "1")
    assert len(orders) == 1 and orders[0][0][0] == "baselines"
    assert raw == raw2


@pytest.fixture()
def nlp_small(bundled_index):
    """A small nlp-eval run on the bundled pairs and index."""
    return (
        "nlp-eval",
        "--pairs", bundled_data_path("word_pairs.csv"),
        "--index", bundled_index,
        "--min-votes", "14", "--trees", "20", "--m", "20", "--repeats", "2", "--n-vocab", "60", "--seed", "7",
    )


def test_a_curve_alone_runs_its_distribution_evaluation_unlisted(capsys, nlp_small):
    """--methods curve evaluates the --curve-kind projection for the curve
    only; the curve is the one a listed run of that kind gives."""
    doc, _ = run_json(capsys, *nlp_small, "--methods", "curve", "--kinds", "pmi", "--curve-kind", "counts")
    assert "distribution" not in doc and "feature" not in doc
    assert doc["curve_kind"] == "counts"
    listed, _ = run_json(
        capsys, *nlp_small, "--methods", "distribution,curve", "--kinds", "counts", "--curve-kind", "counts"
    )
    assert set(listed["distribution"]) == {"counts"}
    assert doc["confidence_curve"] == listed["confidence_curve"]
    accuracies = listed["distribution"]["counts"]["accuracies"]
    assert doc["confidence_curve"][0]["accuracy"] == pytest.approx(np.mean(accuracies), abs=1e-12)


@pytest.mark.parametrize("methods", [("baselines",), ("curve", "--curve-kind", "counts")])
def test_a_run_without_w2v_tasks_needs_no_embeddings(capsys, monkeypatch, nlp_small, methods):
    """At --kinds all, the baselines alone or a counts curve alone project
    through no w2v kind: the index alone serves, no embedding file is read,
    and the output is that of the --kinds counts run."""
    argv = (*nlp_small, "--methods", *methods)
    _, want = run_json(capsys, *argv, "--kinds", "counts")

    def no_tables(*args, **kwargs):
        raise AssertionError("load_embeddings called")

    monkeypatch.setattr(cli, "load_embeddings", no_tables)
    _, out = run_json(capsys, *argv)
    assert out == want


def test_a_repeated_kind_is_evaluated_once(capsys, monkeypatch, nlp_small):
    calls = []
    evaluate = experiments.evaluate_distribution_method

    def counted(*args, **kwargs):
        calls.append(args[1])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(experiments, "evaluate_distribution_method", counted)
    argv = (*nlp_small, "--methods", "distribution", "--jobs", "1")
    _, raw = run_json(capsys, *argv, "--kinds", "counts,counts")
    assert calls == ["counts"]
    _, once = run_json(capsys, *argv, "--kinds", "counts")
    assert raw == once


def test_a_constant_projection_costs_one_pair(tmp_path, capsys, bundled_index):
    """With 'erosion''s input row zeroed, nlp-eval lists its pair as
    excluded and scores the rest; word-pair names the word and the kind."""
    index = proxy_text.load_index(bundled_index)
    rng = np.random.default_rng(0)
    vi = rng.standard_normal((len(index.words), 8))
    vi[index.words.index("erosion")] = 0.0
    emb = proxy_text.EmbeddingModel(index.words, vi, rng.standard_normal(vi.shape))
    paths = str(tmp_path / "vi.txt"), str(tmp_path / "vo.txt")
    proxy_text.save_embeddings(emb, *paths)
    data = ("--index", bundled_index, "--emb-input", paths[0], "--emb-output", paths[1])
    doc, _ = run_json(
        capsys,
        "nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"), *data,
        "--min-votes", "14", "--kinds", "w2vii", "--methods", "distribution",
        "--trees", "10", "--m", "10", "--repeats", "1",
    )
    block = doc["distribution"]["w2vii"]
    assert block["excluded"] == [["erosion,overgrazing", "constant projection of 'erosion' (w2vii)"]]
    assert block["num_pairs"] == 32
    code, out, err = run(capsys, "word-pair", "--x", "erosion", "--y", "overgrazing", "--kind", "w2vii", *data)
    assert code == 1 and out == ""
    assert "error: constant projection of 'erosion' (w2vii)" in err


def test_an_out_of_vocabulary_pair_costs_one_pair_in_every_method(tmp_path, capsys, bundled_index):
    """Each method lists the pair it cannot score under `excluded` and scores
    the rest; a baseline's other figures are those of a run without it."""
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(open(bundled_data_path("word_pairs.csv")).read() + "zzzunknown,rain,20,0,0\n")
    data = ("--index", bundled_index, "--min-votes", "14", "--n-vocab", "60")
    methods = ("--kinds", "counts", "--trees", "5", "--m", "10", "--repeats", "1")
    doc, _ = run_json(capsys, "nlp-eval", "--pairs", str(pairs), *data, *methods,
                      "--methods", "distribution,feature,baselines")
    clean, _ = run_json(capsys, "nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"), *data, *methods,
                        "--methods", "baselines")
    excluded = [["zzzunknown,rain", "out of vocabulary: 'zzzunknown'"]]
    assert doc["filtered_pairs"] == 34
    for method in ("distribution", "feature"):
        assert doc[method]["counts"]["excluded"] == excluded
        assert doc[method]["counts"]["num_pairs"] == 33
    assert len(doc["baselines"]) == 10
    for kind, block in doc["baselines"].items():
        assert block.pop("excluded") == excluded
        assert block == clean["baselines"][kind] and block["count"] == 33


def test_nlp_eval_needs_at_least_one_repeat(capsys, bundled_index):
    argv = ("nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"), "--index", bundled_index,
            "--min-votes", "14", "--kinds", "counts", "--methods", "distribution", "--repeats", "0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and caught == []
    assert err.endswith("error: repeats must be an integer of at least 1, got 0\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--repeats", "0", "repeats must be an integer of at least 1, got 0"),
    ("--split", "1.5", "split must be a finite number in (0, 1), got 1.5"),
], ids=["repeats", "split"])
def test_nlp_eval_checks_repeats_and_split_before_any_work(capsys, monkeypatch, bundled_index, flag, value, message):
    """Both are checked before the index is read, let alone any pair projected."""

    def no_index(*args, **kwargs):
        raise AssertionError("load_index called")

    monkeypatch.setattr(cli, "load_index", no_index)
    code, out, err = run(capsys, "nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"),
                         "--index", bundled_index, flag, value)
    assert code == 1 and out == ""
    assert err.endswith(f"error: {message}\n")


def test_a_version_1_index_is_refused_with_the_rebuild_command(tmp_path, capsys):
    index = tmp_path / "v1.json"
    index.write_text(json.dumps({"format": "corpus-index", "version": 1, "sentence_count": 1, "vocabulary": ["rain"],
                                 "unigram": {"rain": 1}, "cooc": [], "prec": []}))
    code, out, err = run(capsys, "word-pair", "--x", "rain", "--y", "wet", "--kind", "counts", "--index", str(index))
    assert code == 1 and out == ""
    assert f"error: {index}: unsupported index version 1: rebuild it with index-corpus" in err


def test_a_baseline_that_scores_no_pair_is_named(tmp_path, capsys, bundled_index):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("x,y,votes_xy,votes_yx,votes_none\nzzzunknown,rain,20,0,0\n")
    argv = ("nlp-eval", "--pairs", str(pairs), "--index", bundled_index,
            "--methods", "baselines")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "error: baseline frequency: no pair could be scored (out of vocabulary: 'zzzunknown')" in err


@pytest.mark.parametrize("argv, line", [
    (["word-pair", "--x", "rain", "--y", "wet", "--kind", "counts", "--index", "{index}", "--engine", "forest"],
     "unknown engine 'forest' (want one of anm, model)"),
    (["word-pair", "--x", "rain", "--y", "wet"], "--index is required"),
    (["word-pair", "--x", "rain", "--y", "wet", "--kind", "w2vii", "--index", "{index}"],
     "embedding projections need --emb-input/--emb-output"),
    (["nlp-eval", "--pairs", "{pairs}", "--index", "{index}", "--min-votes", "20"],
     "no pairs pass the consensus filter"),
    # A pair of one word twice reads the same with its coordinates swapped,
    # so it supports no verdict.
    (["word-pair", "--x", "rain", "--y", "rain", "--kind", "counts", "--index", "{index}"],
     "a word pair needs two different words, got 'rain' twice"),
    (["nlp-eval", "--pairs", "{twice}", "--index", "{index}", "--methods", "baselines"],
     "{twice}: line 3: a word pair needs two different words, got 'rain' twice"),
    (["frames-order", "--dir", "{dir}"], "found 0 frames matching 'frame_*.pgm' in {dir}"),
    (["synth", "--what", "sound"], "unknown synth target 'sound' (want one of scatter, stylized, frames)"),
], ids=["engine", "no corpus", "no embeddings", "no pairs", "one word twice", "a pair of one word", "no frames",
        "synth target"])
def test_each_data_error_exits_one_with_its_line(tmp_path, capsys, index_file, argv, line):
    pairs, twice = tmp_path / "pairs.csv", tmp_path / "twice.csv"
    pairs.write_text("x,y,votes_xy,votes_yx,votes_none\nrain,wet,12,8,0\n")
    twice.write_text("x,y,votes_xy,votes_yx,votes_none\nrain,wet,12,8,0\nrain,rain,18,2,0\n")
    paths = {"index": index_file, "pairs": str(pairs), "twice": str(twice), "dir": str(tmp_path)}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: " + line.format(**paths)


@pytest.mark.parametrize("command", [("word-pair", "--x", "rain", "--y", "wet"), ("nlp-eval", "--pairs", "p.csv")])
@pytest.mark.parametrize("flag, value", [("--corpus", "c.txt"), ("--d", "8"), ("--epochs", "1")])
def test_the_word_pair_commands_take_no_corpus_or_training_option(capsys, command, flag, value):
    """index-corpus and embed-train alone build an index and embeddings;
    word-pair and nlp-eval read the files they write."""
    code, out, err = run(capsys, *command, "--index", "i.json", flag, value)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: {flag} {value}")


@pytest.mark.parametrize("g", ["cube", "identity"])
def test_synth_stylized_takes_each_nonlinearity(tmp_path, capsys, g):
    x, y = str(tmp_path / "x.pgm"), str(tmp_path / "y.pgm")
    doc, _ = run_json(capsys, "synth", "--what", "stylized", "--size", "40", "--g", g, "--out-x", x, "--out-y", y)
    assert doc["g"] == g and 0.0 <= doc["clipped_fraction"] < 1.0
    assert load_image(x).pixels.shape == load_image(y).pixels.shape == (40, 40)


@pytest.mark.parametrize("command", ["nlp-eval", "frames-order"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_data_error(capsys, tmp_path, bundled_index, command, jobs):
    argv = [command, "--jobs", jobs, "--dir", str(tmp_path)] if command == "frames-order" else [
        command, "--pairs", bundled_data_path("word_pairs.csv"), "--index", bundled_index, "--jobs", jobs,
    ]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"error: --jobs must be an integer of at least 1, got {jobs}" in err


@pytest.mark.parametrize("command, flag, value, what", [
    ("nlp-eval", "--methods", "distributon", "method"),
    ("nlp-eval", "--kinds", "count", "projection kind"),
    ("nlp-eval", "--curve-kind", "w2v", "curve kind"),
])
def test_unknown_names_are_rejected_before_any_work(capsys, command, flag, value, what):
    # Neither input exists, so an error about the name shows that it was
    # checked before either was read.
    code, out, err = run(capsys, command, "--pairs", "/does/not/exist.csv", "--index", "/does/not/exist.json",
                         flag, value)
    assert code == 1 and out == ""
    bad = value.split(",")[-1]
    assert f"error: unknown {what} {bad!r}" in err


@pytest.mark.parametrize("command", [
    ("word-pair", "--x", "cat", "--y", "animal", "--kind", "w2vii"),
    ("nlp-eval", "--pairs", "/does/not/exist.csv"),
])
@pytest.mark.parametrize("given, missing", [("emb-input", "emb-output"), ("emb-output", "emb-input")])
def test_one_embedding_table_without_the_other_is_rejected_before_any_work(capsys, command, given, missing):
    # No input exists, so the error about the flags shows that they were
    # checked before any was read.
    code, out, err = run(capsys, *command, "--index", "/does/not/exist.json", f"--{given}", "/does/not/exist.txt")
    assert code == 1 and out == ""
    assert err == f"error: --{given} needs --{missing}\n"


@pytest.mark.parametrize("argv", [
    ("model", "inspect", "--model"),
    ("word-pair", "--x", "cat", "--y", "animal", "--kind", "counts", "--index"),
    ("model", "train", "--out", "model.json", "--data"),
])
def test_json_nested_too_deeply_is_a_data_error(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.fixture(scope="module")
def good_files(tmp_path_factory, bundled_index):
    """A well-formed model file, image and index, for commands that read one next to the file under test."""
    directory = tmp_path_factory.mktemp("good")
    items = [synth_anm_pair(40, seed=400 + i) for i in range(8)]
    save_model(rcc_train(LabeledScatterDataset(tuple(items)), num_features=5, num_trees=3), directory / "model.json")
    save_image(Image(np.full((12, 12), 0.5)), directory / "image.pgm")
    return {"model": directory / "model.json", "image": directory / "image.pgm", "index": bundled_index}


@pytest.mark.parametrize("content", [b"{", b"\xff\xfe\x00"], ids=["json syntax", "not utf-8"])
@pytest.mark.parametrize("argv", [
    ("model", "inspect", "--model"),
    ("word-pair", "--x", "cat", "--y", "animal", "--kind", "counts", "--index"),
    ("model", "predict", "--model", "{model}", "--sample"),
    ("image-pair", "--y", "{image}", "--x"),
    ("nlp-eval", "--index", "{index}", "--pairs"),
], ids=["model", "index", "sample", "image", "pairs"])
def test_a_malformed_file_is_named_on_the_error_line(capsys, tmp_path, good_files, argv, content):
    path = tmp_path / "bad"
    path.write_bytes(content)
    code, out, err = run(capsys, *(a.format(**good_files) for a in argv), str(path))
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith(f"error: {path}: ") and "Traceback" not in err


def test_word_pair_kind_is_rejected_before_any_work(capsys):
    code, out, err = run(capsys, "word-pair", "--x", "cat", "--y", "animal", "--index", "/does/not/exist.json",
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
    (["word-pair", "--y", "wet", "--index", "i.json"], "x"),
    (["word-pair", "--x", "rain", "--index", "i.json"], "y"),
    (["nlp-eval", "--index", "i.json"], "pairs"),
    (["nlp-eval", "--index", "i.json", "--methods", "baselines"], "pairs"),
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
    (["word-pair", "--x", "rain", "--y", "wet", "--kind", "counts"], "index"),
    (["nlp-eval", "--pairs", "p.csv", "--methods", "baselines"], "index"),
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


def test_a_config_value_that_fails_its_type_names_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 40\njobs=x\n")
    code, out, err = run(capsys, "significance", "--accuracy", "0.75", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: {cfg}: config line 2: jobs takes int, got 'x'\n"


def test_a_seed_from_the_environment_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("PROXYCAUSE_SEED", "abc")
    code, out, err = run(capsys, "synth", "--what", "scatter", "--n", "50")
    assert code == 1 and out == ""
    assert err == "error: PROXYCAUSE_SEED must be an integer, got 'abc'\n"
