"""Argument checks: the one count rule, the one seed rule, the one real
rule, the one name rule, the checks of the public constructors, and that
each entry point checks its arguments before any work."""

import math
import re

import numpy as np
import pytest

from proxycause import cli, experiments, proxy_image, rcc
from proxycause.anm import AnmConfig, Regressor, kernel_ridge_fit, residuals
from proxycause.core import Direction, LabeledScatterDataset, ScatterSample, SeedSpec, Verdict, parallel_map
from proxycause.experiments import (
    ANM_MECHANISMS,
    ANM_NOISES,
    NONLINEARITIES,
    LocalMechanism,
    WordPairRecord,
    _check_evaluation,
    binomial_significance,
    bundled_data_path,
    evaluate_distribution_method,
    evaluate_feature_method,
    filter_consensus,
    random_mechanism,
    synth_anm_pair,
    synth_base_image,
    synth_diffusion_frames,
    synth_stylized_pair,
)
from proxycause.independence import gram_matrix, hsic_pvalue, hsic_statistic, median_heuristic
from proxycause.proxy_image import Image, frames_order, image_pair_scatter
from proxycause.proxy_text import (
    BASELINE_KINDS,
    PROJECTION_KINDS,
    VOCAB_METHODS,
    EmbeddingModel,
    VocabSample,
    baseline_scores,
    build_index,
    projection_vector,
    sgns_train,
    vocab_sample,
)
from proxycause.rcc import Forest, RCCModel, RFFSpec, forest_predict, forest_train, rff_embed


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "c.txt"
    path.write_text("a b c\nb c a\nc a b d\n")
    return path


LEAF = {"feature": np.array([-1]), "threshold": np.array([0.0]), "left": np.array([-1]),
        "right": np.array([-1]), "vote": np.array([0.5])}
X = np.random.default_rng(3).normal(size=(12, 2))
Y = np.where(X[:, 0] > 0, 1, -1)
U = np.arange(10.0)
IMG = Image(np.zeros((6, 6)))

# (argument name, its floor, the call that passes it the value v).
COUNTS = {
    "parallel_map": ("jobs", 1, lambda v, _: parallel_map(abs, [1, 2], v)),
    "AnmConfig": ("num_permutations", 99, lambda v, _: AnmConfig(num_permutations=v)),
    "hsic_pvalue": ("num_permutations", 99, lambda v, _: hsic_pvalue(U, U[::-1], num_permutations=v)),
    "image_pair_scatter-n": ("n", 2, lambda v, _: image_pair_scatter(IMG, IMG, n=v, k=3)),
    "image_pair_scatter-k": ("k", 1, lambda v, _: image_pair_scatter(IMG, IMG, n=4, k=v)),
    "synth_anm_pair": ("n", 20, lambda v, _: synth_anm_pair(v)),
    "LocalMechanism": ("k", 1, lambda v, _: LocalMechanism(v, np.ones((1, 1)), True, "identity", 0.0)),
    "random_mechanism": ("k", 1, lambda v, _: random_mechanism(k=v)),
    "synth_base_image": ("size", 2, lambda v, _: synth_base_image(v)),
    "synth_diffusion_frames-size": ("size", 1, lambda v, _: synth_diffusion_frames(v, num_frames=2)),
    "synth_diffusion_frames-num_frames": ("num_frames", 2, lambda v, _: synth_diffusion_frames(16, num_frames=v)),
    "binomial_significance": ("n", 1, lambda v, _: binomial_significance(0.5, v)),
    "repeats": ("repeats", 1, lambda v, _: _check_evaluation(0.75, v, 1)),
    "evaluation-num_trees": ("num_trees", 1, lambda v, _: _check_evaluation(0.75, 1, v)),
    "evaluation-num_features": ("num_features", 1, lambda v, _: _check_evaluation(0.75, 1, 1, v)),
    "vocab_sample": ("n", 2, lambda v, corpus: vocab_sample(build_index(corpus), v)),
    "sgns_train-d": ("d", 2, lambda v, corpus: sgns_train(corpus, d=v, epochs=1)),
    "sgns_train-epochs": ("epochs", 1, lambda v, corpus: sgns_train(corpus, d=2, epochs=v)),
    "sgns_train-window": ("window", 1, lambda v, corpus: sgns_train(corpus, d=2, epochs=1, window=v)),
    "sgns_train-negatives": ("negatives", 0, lambda v, corpus: sgns_train(corpus, d=2, epochs=1, negatives=v)),
    "RFFSpec-num_features": ("num_features", 1, lambda v, _: RFFSpec(seed=0, num_features=v)),
    "RFFSpec-seed": ("seed", 0, lambda v, _: RFFSpec(seed=v)),
    "SeedSpec": ("seed", 0, lambda v, _: SeedSpec(v)),
    "Forest-num_trees": ("num_trees", 1, lambda v, _: Forest(num_trees=v, trees=(LEAF,), num_features=1)),
    "Forest-num_features": ("num_features", 1, lambda v, _: Forest(num_trees=1, trees=(LEAF,), num_features=v)),
    "forest_train-num_trees": ("num_trees", 1, lambda v, _: forest_train(X, Y, num_trees=v)),
    "forest_train-min_leaf": ("min_leaf", 1, lambda v, _: forest_train(X, Y, num_trees=1, min_leaf=v)),
    "WordPairRecord-votes_xy": ("votes_xy", 0, lambda v, _: WordPairRecord("a", "b", v, 1, 0)),
    "WordPairRecord-votes_yx": ("votes_yx", 0, lambda v, _: WordPairRecord("a", "b", 1, v, 0)),
    "WordPairRecord-votes_none": ("votes_none", 0, lambda v, _: WordPairRecord("a", "b", 1, 0, v)),
    "filter_consensus-min_votes": ("min_votes", 0, lambda v, _: filter_consensus([], v)),
    "filter_consensus-total": ("total", 1, lambda v, _: filter_consensus([], 0, v)),
}


@pytest.mark.parametrize("site", COUNTS)
def test_every_count_takes_the_one_count_rule(site, corpus):
    """A fraction, a bool and one below the floor each raise the one
    message naming the argument; a numpy integer at the floor passes."""
    name, least, call = COUNTS[site]
    for bad in (2.5, True, least - 1):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer of at least {least}, got {bad!r}")):
            call(bad, corpus)
    call(np.int64(least), corpus)


@pytest.mark.parametrize("seed", [2.5, True, "7", -1, None])
def test_a_seed_is_a_whole_number_and_never_truncated(seed):
    for make in (SeedSpec, lambda s: RFFSpec(seed=s), lambda s: synth_anm_pair(30, seed=s)):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer of at least 0, got {seed!r}")):
            make(seed)


# (argument name, its interval as the message writes it, a value outside
# it, a value inside it, the call that passes it the value v).
REALS = {
    "Direction": ("score", "[0, inf]", -0.5, 0.0, lambda v, _: Direction(Verdict.X_TO_Y, v)),
    "RFFSpec": ("bandwidth", "(0, inf)", 0.0, 0.5, lambda v, _: RFFSpec(seed=0, bandwidth=v)),
    "gram_matrix": ("bandwidth", "(0, inf)", -1.0, 0.5, lambda v, _: gram_matrix(U, v)),
    "Regressor": ("bandwidth", "(0, inf)", 0.0, 0.5, lambda v, _: Regressor(U, U, v)),
    "AnmConfig-ridge_lambda": ("ridge_lambda", "(0, inf)", 0.0, 1e-3, lambda v, _: AnmConfig(ridge_lambda=v)),
    "AnmConfig-fit_fraction": ("fit_fraction", "(0, 1)", 1.0, 0.5, lambda v, _: AnmConfig(fit_fraction=v)),
    "LocalMechanism": ("noise_scale", "[0, inf]", -0.1, 0.0,
                       lambda v, _: LocalMechanism(1, np.ones((1, 1)), True, "identity", v)),
    "random_mechanism": ("noise_scale", "[0, inf]", -0.1, 0.0, lambda v, _: random_mechanism(k=2, noise_scale=v)),
    "split": ("split", "(0, 1)", 1.0, 0.5, lambda v, _: _check_evaluation(v, 1, 1)),
    "binomial_significance-accuracy": ("accuracy", "[0, 1]", 1.5, 1.0, lambda v, _: binomial_significance(v, 10)),
    "binomial_significance-p0": ("p0", "(0, 1)", 1.0, 0.25, lambda v, _: binomial_significance(0.5, 10, v)),
    "sgns_train": ("learning_rate", "(0, inf)", 0.0, 0.01,
                   lambda v, corpus: sgns_train(corpus, d=2, epochs=1, learning_rate=v)),
}


@pytest.mark.parametrize("site", REALS)
def test_every_real_takes_the_one_real_rule(site, corpus):
    """A bool, a string, nan, inf, an int too large for a float and a value
    outside the interval each raise the one message naming the argument; a
    numpy float inside passes."""
    name, interval, outside, inside, call = REALS[site]
    for bad in (True, "0.5", math.nan, math.inf, 10**400, outside):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a finite number in {interval}, got {bad!r}")):
            call(bad, corpus)
    call(np.float64(inside), corpus)


REG = kernel_ridge_fit(U, U)
FOREST = forest_train(X, Y, num_trees=1)
OMEGA, PHASE = np.ones((3, 2)), np.zeros(3)


def _vector(rows):
    return np.arange(float(rows))


def _words(rows):
    return tuple(f"w{i}" for i in range(rows))


# (argument name, its floor, the array of r entries make(r), the call that
# passes it the array v, and the error a call at the floor stops at after
# the rule, None when it returns).
ARRAYS = {
    "ScatterSample": ("points", 2, lambda r: np.ones((r, 2)), ScatterSample, None),
    "Image": ("pixels", 1, lambda r: np.zeros((r, 3)), Image, None),
    "median_heuristic": ("values", 2, _vector, median_heuristic, None),
    "gram_matrix": ("values", 1, _vector, lambda v: gram_matrix(v, 1.0), None),
    "hsic_statistic-u": ("u", 5, _vector, lambda v: hsic_statistic(v, U[: len(v)]), None),
    "hsic_pvalue-v": ("v", 5, _vector, lambda v: hsic_pvalue(U[: max(len(v), 5)], v, num_permutations=99), None),
    "kernel_ridge_fit-x": ("x", 10, _vector, lambda v: kernel_ridge_fit(v, U[: len(v)]), None),
    "kernel_ridge_fit-y": ("y", 10, _vector, lambda v: kernel_ridge_fit(U, v), None),
    "residuals-x": ("x", 1, _vector, lambda v: residuals(REG, v, U[: len(v)]), None),
    "residuals-y": ("y", 1, _vector, lambda v: residuals(REG, U[: max(len(v), 1)], v), None),
    "Regressor.predict": ("x", 1, _vector, REG.predict, None),
    "Regressor-x_train": ("x_train", 1, _vector, lambda v: Regressor(v, U[: len(v)], 1.0), None),
    "Regressor-alpha": ("alpha", 1, _vector, lambda v: Regressor(U[: max(len(v), 1)], v, 1.0), None),
    "rff_embed": ("points", 1, lambda r: np.ones((r, 2)), lambda v: rff_embed(v, OMEGA, PHASE), None),
    # A stack of two sets of r points: each set holds at least one.
    "rff_embed-stack": ("points", 1, lambda r: np.ones((2, r, 2)), lambda v: rff_embed(v, OMEGA, PHASE), None),
    "forest_train": ("features", 1, lambda r: X[:r], lambda v: forest_train(v, Y[: len(v)], num_trees=1),
                     "training needs both classes present"),
    "forest_predict": ("features", 0, lambda r: X[:r], lambda v: forest_predict(FOREST, v), None),
    "EmbeddingModel": ("embedding vectors", 0, lambda r: np.ones((r, 2)),
                       lambda v: EmbeddingModel(_words(len(v)), v, np.ones_like(v)), None),
    "LocalMechanism": ("beta", 1, lambda r: np.ones((r, r)), lambda v: LocalMechanism(1, v, True, "identity", 0.0),
                       None),
    "LocalMechanism-not-row-constant": ("beta", 1, lambda r: np.ones((r, r)),
                                        lambda v: LocalMechanism(1, v, False, "identity", 0.0), None),
}


@pytest.mark.parametrize("site", ARRAYS)
def test_every_numeric_array_takes_the_one_array_rule(site):
    """NaN, inf and an array one entry below the floor each raise the one
    message naming the argument, with the first entry not finite and its
    index, or the entry count; an array at the floor passes the rule."""
    name, least, make, call, after = ARRAYS[site]
    rule = f"{name} must be an array of at least {least} finite numbers, got "
    if least:
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}{least - 1}$"):
            call(make(least - 1))
    for bad in (math.nan, math.inf):
        v = make(max(least, 1)).copy()
        v[-1] = bad  # the whole last row: its first entry is the first one not finite
        at = len(v) - 1 if v.ndim == 1 else (len(v) - 1, *[0] * (v.ndim - 1))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{rule}{bad} at index {at}')}$"):
            call(v)
    if after is None:
        call(make(least))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(after)}$"):
            call(make(least))


@pytest.mark.parametrize("call, message", [
    (lambda: median_heuristic([math.nan, 1, 2, 3]),
     "values must be an array of at least 2 finite numbers, got nan at index 0"),
    (lambda: median_heuristic([math.inf, 1, 2, 3]),
     "values must be an array of at least 2 finite numbers, got inf at index 0"),
    (lambda: residuals(REG, [0.0, math.nan], [0.0, 1.0]),
     "x must be an array of at least 1 finite numbers, got nan at index 1"),
    (lambda: REG.predict([math.nan]), "x must be an array of at least 1 finite numbers, got nan at index 0"),
    (lambda: Regressor(np.array([math.nan, 1.0]), np.array([1.0, 1.0]), 1.0).predict([0.0]),
     "x_train must be an array of at least 1 finite numbers, got nan at index 0"),
    (lambda: rff_embed([[0.0, math.nan]], OMEGA, PHASE),
     "points must be an array of at least 1 finite numbers, got nan at index (0, 1)"),
    (lambda: LocalMechanism(2, np.full((4, 4), math.nan), True, "identity", 0.0),
     "beta must be an array of at least 1 finite numbers, got nan at index (0, 0)"),
    (lambda: LocalMechanism(2, np.full((4, 4), math.nan), False, "identity", 0.0),
     "beta must be an array of at least 1 finite numbers, got nan at index (0, 0)"),
], ids=["median_heuristic-nan", "median_heuristic-inf", "residuals-nan", "predict-nan", "regressor-nan", "rff_embed-nan",
        "beta-row-constant", "beta-not-row-constant"])
def test_what_passed_the_array_checks_before_is_refused(call, message):
    """NaN or inf reaching a bandwidth, a regression, an embedding or a
    mechanism raises the rule's message instead of coming out as a number
    or as another check's message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_regressor_takes_lists_as_float_arrays():
    """List fields are stored as the float64 arrays the rule converts them
    to, and predict as those arrays do."""
    listed = Regressor([0.0, 1.0], [1.0, 1.0], 1.0)
    arrays = Regressor(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    assert listed.x_train.dtype == listed.alpha.dtype == np.float64
    assert np.array_equal(listed.predict([0.0, 0.5]), arrays.predict([0.0, 0.5]))


# (the noun of the error, the names it takes, the call that passes it the name v).
CHOICES = {
    "synth_anm_pair-mechanism": ("mechanism", ANM_MECHANISMS, lambda v, _: synth_anm_pair(30, mechanism=v)),
    "synth_anm_pair-noise": ("noise", ANM_NOISES, lambda v, _: synth_anm_pair(30, noise=v)),
    "LocalMechanism": ("nonlinearity", NONLINEARITIES, lambda v, _: LocalMechanism(1, np.ones((1, 1)), True, v, 0.0)),
    "random_mechanism": ("nonlinearity", NONLINEARITIES, lambda v, _: random_mechanism(k=2, g=v)),
    "vocab_sample": ("sampling method", VOCAB_METHODS, lambda v, corpus: vocab_sample(build_index(corpus), 2, v)),
    "projection_vector": ("projection kind", PROJECTION_KINDS,
                          lambda v, corpus: projection_vector(v, "a", VocabSample(("a", "b")), build_index(corpus))),
    "baseline_scores": ("baseline", BASELINE_KINDS,
                        lambda v, corpus: baseline_scores(v, "a", "b", build_index(corpus), VocabSample(("c", "d")))),
}


@pytest.mark.parametrize("site", CHOICES)
def test_every_name_takes_the_one_name_rule(site, corpus):
    """An unknown name and None each raise the one message naming the
    argument and its choices; the last choice passes."""
    what, allowed, call = CHOICES[site]
    want = f"(want one of {', '.join(allowed)})"
    with pytest.raises(ValueError, match=re.escape(f"unknown {what} 'bad' {want}")):
        call("bad", corpus)
    with pytest.raises(ValueError, match=re.escape(f"{what} is required {want}")):
        call(None, corpus)
    call(allowed[-1], corpus)


# A command line that gives each named option the name 'bad', with the noun
# and the names of its error; the files it names cannot be read or written,
# so the error shows the name was checked before any of them.
NAMED_ARGV = {
    "action": (["model", "bad", "--model", "/does/not/exist.json"], *cli._NAMED["action"]),
    "curve-kind": (["nlp-eval", "--pairs", "/does/not/exist.csv", "--index", "/does/not/exist.json",
                    "--curve-kind", "bad"], *cli._NAMED["curve-kind"]),
    "engine": (["image-pair", "--x", "/does/not/exist.pgm", "--y", "/does/not/exist.pgm", "--engine", "bad"],
               *cli._NAMED["engine"]),
    "kind": (["word-pair", "--x", "a", "--y", "b", "--index", "/does/not/exist.json", "--kind", "bad"],
             *cli._NAMED["kind"]),
    "vocab-method": (["nlp-eval", "--pairs", "/does/not/exist.csv", "--index", "/does/not/exist.json",
                      "--vocab-method", "bad"], *cli._NAMED["vocab-method"]),
    "what": (["synth", "--what", "bad"], *cli._NAMED["what"]),
    "mechanism": (["synth", "--what", "scatter", "--mechanism", "bad", "--out", "/does/not/exist/s.jsonl"],
                  "mechanism", ANM_MECHANISMS),
    "noise": (["synth", "--what", "scatter", "--noise", "bad", "--out", "/does/not/exist/s.jsonl"],
              "noise", ANM_NOISES),
    "g": (["synth", "--what", "stylized", "--out-x", "/does/not/exist/x.pgm", "--out-y", "/does/not/exist/y.pgm",
           "--g", "bad"], "nonlinearity", NONLINEARITIES),
}


@pytest.mark.parametrize("option", NAMED_ARGV)
def test_every_named_option_takes_the_one_name_rule(capsys, option):
    assert set(cli._NAMED) < set(NAMED_ARGV)
    argv, what, allowed = NAMED_ARGV[option]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.endswith(f"error: unknown {what} 'bad' (want one of {', '.join(allowed)})\n")


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before the arguments were checked")


@pytest.mark.parametrize("kwargs, message", [
    ({"num_trees": 0}, "num_trees must be an integer of at least 1, got 0"),
    ({"num_features": 0}, "num_features must be an integer of at least 1, got 0"),
], ids=["num_trees", "num_features"])
def test_rcc_train_checks_its_counts_before_any_work(monkeypatch, kwargs, message):
    monkeypatch.setattr(rcc, "_canonical_standardized", _must_not_run)
    data = LabeledScatterDataset(tuple(synth_anm_pair(30, seed=s) for s in range(6)))
    with pytest.raises(ValueError, match=re.escape(message)):
        rcc.rcc_train(data, **kwargs)


@pytest.mark.parametrize("evaluate", [evaluate_distribution_method, evaluate_feature_method])
@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "bad"}, "unknown projection kind 'bad'"),
    ({"kind": "w2vii"}, "projection w2vii needs an embedding model"),
    ({"split": 1.0}, "split must be a finite number in (0, 1), got 1.0"),
    ({"repeats": 0}, "repeats must be an integer of at least 1, got 0"),
    ({"num_trees": 0}, "num_trees must be an integer of at least 1, got 0"),
], ids=["kind", "embedding", "split", "repeats", "num_trees"])
def test_evaluations_check_their_arguments_before_projecting_any_pair(monkeypatch, evaluate, kwargs, message):
    monkeypatch.setattr(experiments, "_project_pairs", _must_not_run)
    index = build_index(bundled_data_path("mini_corpus.txt"))
    pairs = filter_consensus(experiments.load_word_pairs(bundled_data_path("word_pairs.csv")), 14)
    args = {"kind": "counts", "vocab": vocab_sample(index, 20), "index": index, **kwargs}
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate(pairs, **args)


def test_the_distribution_method_checks_its_rff_width_before_projecting_any_pair(monkeypatch):
    monkeypatch.setattr(experiments, "_project_pairs", _must_not_run)
    index = build_index(bundled_data_path("mini_corpus.txt"))
    with pytest.raises(ValueError, match=re.escape("num_features must be an integer of at least 1, got 0")):
        evaluate_distribution_method([], "counts", vocab_sample(index, 20), index, num_features=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 1}, "n must be an integer of at least 2, got 1"),
    ({"k": 0}, "k must be an integer of at least 1, got 0"),
    ({"k": 7}, "patch size 7 exceeds image dimensions 6x6"),
], ids=["n", "k", "patch size"])
def test_frames_order_checks_before_judging_any_pair(monkeypatch, kwargs, message):
    monkeypatch.setattr(proxy_image, "parallel_map", _must_not_run)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        frames_order([IMG, IMG, IMG], **{"k": 3, "jobs": 2, **kwargs})
    assert "frames 0 and 1" not in str(info.value)
    with pytest.raises(TypeError, match="engine must be AnmConfig or RCCModel"):
        frames_order([IMG, IMG, IMG], k=3, engine="anm", jobs=2)


def test_word_pair_checks_the_engine_before_training_embeddings(monkeypatch, capsys):
    """The engine is checked before the index or the embeddings are read."""
    monkeypatch.setattr(cli, "load_index", _must_not_run)
    monkeypatch.setattr(cli, "load_embeddings", _must_not_run)
    code = cli.main(["word-pair", "--index", "index.json", "--emb-input", "vi.txt", "--emb-output", "vo.txt",
                     "--x", "rain", "--y", "flooding", "--engine", "foo"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: unknown engine 'foo' (want one of anm, model)"


@pytest.mark.parametrize("flags, message", [
    (["--n-vocab", "1"], "--n-vocab must be an integer of at least 2, got 1"),
], ids=["n-vocab"])
def test_word_pair_checks_its_counts_before_reading_the_corpus(monkeypatch, capsys, flags, message):
    monkeypatch.setattr(cli, "load_index", _must_not_run)
    code = cli.main(["word-pair", "--index", "index.json", "--x", "rain", "--y", "flooding", "--kind", "counts",
                     *flags])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize("argv", [
    ["word-pair", "--x", "rain", "--y", "flooding", "--kind", "w2vii"],
    ["nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"), "--methods", "baselines,curve"],
], ids=["word-pair", "nlp-eval"])
def test_a_w2v_kind_without_embedding_files_is_refused_before_the_index_is_read(monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "load_index", _must_not_run)
    code = cli.main([*argv, "--index", "index.json"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: embedding projections need --emb-input/--emb-output"


@pytest.mark.parametrize("flags, message", [
    (["--trees", "0"], "num_trees must be an integer of at least 1, got 0"),
    (["--m", "0"], "num_features must be an integer of at least 1, got 0"),
], ids=["trees", "m"])
def test_nlp_eval_checks_the_forest_sizes_before_any_work(monkeypatch, capsys, flags, message):
    monkeypatch.setattr(cli, "load_index", _must_not_run)
    monkeypatch.setattr(experiments, "_project_pairs", _must_not_run)
    code = cli.main(["nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"),
                     "--index", "index.json", "--kinds", "counts",
                     "--methods", "distribution,feature", *flags])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize("build, message", [
    (lambda: Image(np.zeros((0, 4))), "pixels must be an array of at least 1 finite numbers, got 0"),
    (lambda: Image(np.zeros((4, 0))), "image must have at least one pixel"),
    (lambda: VocabSample(("a", "b", "a")), "vocabulary sample has duplicate words"),
    (lambda: VocabSample(("a",)), "vocabulary sample needs at least 2 words"),
    (lambda: EmbeddingModel(("a", "b"), np.zeros((2, 3)), np.zeros((2, 4))),
     "embedding tables must cover the same vocabulary"),
    (lambda: RCCModel(RFFSpec(seed=0, num_features=2), Forest(num_trees=1, trees=(LEAF,), num_features=5)),
     "forest width must be 3x the embedding block size"),
    (lambda: Regressor(np.zeros(4), np.zeros(3), 1.0), "coefficient count must equal training-input count"),
    (lambda: kernel_ridge_fit(np.arange(12.0), np.arange(11.0)), "length mismatch: 12 vs 11"),
    (lambda: residuals(kernel_ridge_fit(U, U), U, U[:9]), "length mismatch: 10 vs 9"),
    (lambda: synth_stylized_pair(Image(np.zeros((4, 4, 3))), random_mechanism(k=2)),
     "stylization expects a grayscale image"),
], ids=["image-no-rows", "image-no-columns", "vocab-duplicate", "vocab-one-word", "embedding-shapes", "rcc-width",
        "regressor-coefficients", "kernel-ridge-lengths", "residuals-lengths", "stylize-color"])
def test_public_constructors_reject_inconsistent_parts(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
