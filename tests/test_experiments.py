"""Generators, annotated-pair handling, evaluation harness, statistics."""

import csv
import io
import zlib
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxycause.anm import AnmConfig, kernel_ridge_fit, residuals
from proxycause.core import Direction, SeedSpec, Verdict
from proxycause.experiments import (
    EvalReport,
    LocalMechanism,
    WordPairRecord,
    binomial_significance,
    bundled_data_path,
    confidence_curve,
    diffusion_step,
    evaluate_distribution_method,
    evaluate_feature_method,
    evaluate_scatter_dataset,
    filter_consensus,
    load_word_pairs,
    random_mechanism,
    save_word_pairs,
    synth_anm_pair,
    synth_base_image,
    synth_diffusion_frames,
    synth_stylized_pair,
)
from proxycause.independence import hsic_pvalue
from proxycause.proxy_text import build_index, vocab_sample


def test_word_pair_record_validation():
    r = WordPairRecord("rain", "wet", 12, 6, 2)
    assert r.total_votes == 20
    assert r.consensus == pytest.approx(0.6)
    with pytest.raises(ValueError, match="non-negative"):
        WordPairRecord("a", "b", -1, 2, 0)
    with pytest.raises(ValueError, match="sum to zero"):
        WordPairRecord("a", "b", 0, 0, 0)


def test_word_pairs_csv_round_trip(tmp_path):
    records = [
        WordPairRecord("rain", "wet", 19, 0, 1),
        WordPairRecord("wind", "waves", 3, 16, 1),
    ]
    path = tmp_path / "pairs.csv"
    save_word_pairs(records, path)
    assert load_word_pairs(path) == records


def test_load_word_pairs_errors(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="bad header"):
        load_word_pairs(path)
    head = "x,y,votes_xy,votes_yx,votes_none\n"
    path.write_text(head + "rain,wet,19,zero,1\n")
    with pytest.raises(ValueError, match="line 2: vote counts must be integers"):
        load_word_pairs(path)
    path.write_text(head + "rain,wet,19,0,1\nrain,wet,1,18,1\n")
    with pytest.raises(ValueError, match="line 3: duplicate pair"):
        load_word_pairs(path)
    path.write_text(head + "rain,wet,19,0\n")
    with pytest.raises(ValueError, match="expected 5 fields"):
        load_word_pairs(path)
    path.write_text(head + "rain,wet,0,0,0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_word_pairs(path)
    for votes in ("1_9,0,1", "19, 0,1", "19,+0,1", "19,0,\u0661", "19,-1,1"):
        path.write_text(head + "rain,wet," + votes + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: vote counts must be integers"):
            load_word_pairs(path)
    path.write_text(head + "a" * 200_000 + ",wet,19,0,1\n")
    with pytest.raises(ValueError, match="malformed CSV"):
        load_word_pairs(path)


csv_fields = st.sampled_from(["rain", "wet", "sun", "19", "0", "", '"a,b"', "\x00"]) | st.text(
    st.characters(exclude_categories=("Cs",)), max_size=5
)
vote_fields = st.sampled_from(["0", "1", "19", "0", "1", "19", "-2", "2.5", " 3", "1_0", "+2", "\u0661", "1e3", ""])


@st.composite
def word_pair_files(draw):
    """Word-pair CSV text: arbitrary text, or the header (mostly intact)
    followed by rows of two words and three vote counts, some broken, or
    of a wrong field count."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=60))
    header = draw(st.sampled_from(["x,y,votes_xy,votes_yx,votes_none"] * 5 + ["x,y,votes", ""]))
    row = st.tuples(csv_fields, csv_fields, vote_fields, vote_fields, vote_fields).map(list)
    rows = draw(st.lists(row | st.lists(csv_fields, min_size=3, max_size=6), max_size=4))
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(text=word_pair_files())
def test_word_pair_loader_gives_records_or_value_error(fuzz_dir, text):
    path = fuzz_dir / "pairs.csv"
    path.write_text(text, encoding="utf-8")
    try:
        records = load_word_pairs(path)
    except ValueError:
        return
    assert len({(r.x, r.y) for r in records}) == len(records)
    for r in records:
        votes = (r.votes_xy, r.votes_yx, r.votes_none)
        assert all(type(v) is int and v >= 0 for v in votes) and sum(votes) > 0
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    assert all(field.isascii() and field.isdigit() for row in rows for field in row[2:])


def test_filter_consensus():
    strong = WordPairRecord("rain", "wet", 19, 0, 1)
    weak = WordPairRecord("wind", "waves", 10, 9, 1)
    reverse = WordPairRecord("smoke", "fire", 0, 20, 0)
    out = filter_consensus([strong, weak, reverse], 18)
    assert out == [(strong, 1), (reverse, -1)]
    # ties break toward the stated order
    tie = WordPairRecord("a", "b", 10, 10, 0)
    assert filter_consensus([tie], 10) == [(tie, 1)]
    with pytest.raises(ValueError, match="cannot exceed"):
        filter_consensus([strong], 21)


def test_synth_anm_pair_identity_no_noise_is_deterministic_map():
    sample, label = synth_anm_pair(50, mechanism="identity", noise="none", seed=5)
    assert label in (1, -1)
    assert abs(np.corrcoef(sample.a, sample.b)[0, 1]) == pytest.approx(1.0)


def test_synth_anm_pair_seeding_and_standardization():
    s1, l1 = synth_anm_pair(200, seed=9)
    s2, l2 = synth_anm_pair(200, seed=9)
    s3, _ = synth_anm_pair(200, seed=10)
    assert l1 == l2 and np.array_equal(s1.points, s2.points)
    assert not np.array_equal(s1.points, s3.points)
    for v in (s1.a, s1.b):
        assert abs(v.mean()) < 1e-12
        assert v.std() == pytest.approx(1.0)


def test_synth_anm_pair_validation():
    with pytest.raises(ValueError, match="n >= 20"):
        synth_anm_pair(10)
    with pytest.raises(ValueError, match="unknown mechanism"):
        synth_anm_pair(50, mechanism="quadratic")
    with pytest.raises(ValueError, match="unknown noise"):
        synth_anm_pair(50, noise="cauchy")


def test_generated_pairs_have_independent_causal_residuals():
    """Regressing effect on cause and testing the residuals should look
    independent for the generator's own output: p > 0.05 in at least 85
    of 100 trials at n=500.

    The fit share is 70% rather than the engine's even split because this
    checks a property of the generator, not of the engine: out-of-sample
    residuals mix the independent noise with regression misfit, and misfit
    is a function of the cause, so an underfit regressor reads as residual
    dependence.  A larger fit half shrinks that contamination."""
    cfg = AnmConfig(num_permutations=99)
    hits = 0
    for t in range(100):
        sample, label = synth_anm_pair(500, mechanism="cubic", seed=t)
        cause, effect = (sample.a, sample.b) if label == 1 else (sample.b, sample.a)
        reg = kernel_ridge_fit(cause[:350], effect[:350], cfg)
        res = residuals(reg, cause[350:], effect[350:])
        p = hsic_pvalue(cause[350:], res, num_permutations=99, seed=t)
        hits += p > 0.05
    assert hits >= 85


def test_local_mechanism_validation():
    eye = np.eye(4)
    with pytest.raises(ValueError, match="beta must be"):
        LocalMechanism(k=2, beta=np.eye(3), row_constant=False, g="identity", noise_scale=0.0)
    with pytest.raises(ValueError, match="constant rows"):
        LocalMechanism(k=2, beta=eye, row_constant=True, g="identity", noise_scale=0.0)
    with pytest.raises(ValueError, match="unknown nonlinearity"):
        LocalMechanism(k=2, beta=eye, row_constant=False, g="relu", noise_scale=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        LocalMechanism(k=2, beta=eye, row_constant=False, g="identity", noise_scale=-0.1)
    mech = LocalMechanism(k=2, beta=eye, row_constant=False, g="identity", noise_scale=0.0)
    with pytest.raises(ValueError):
        mech.beta[0, 0] = 2.0  # stored matrix is frozen


def test_random_mechanism_rows():
    mech = random_mechanism(k=4, seed=3)
    assert mech.row_constant
    beta = mech.beta
    assert np.all(beta == beta[:, :1])
    sums = beta.sum(axis=1)
    assert np.all(sums >= 1.2 - 1e-9) and np.all(sums <= 1.5 + 1e-9)
    cube = random_mechanism(k=4, g="cube", seed=3)
    csums = cube.beta.sum(axis=1)
    assert np.all(csums >= 0.6 - 1e-9) and np.all(csums <= 1.0 + 1e-9)
    again = random_mechanism(k=4, seed=3)
    assert np.array_equal(mech.beta, again.beta)


def test_synth_base_image_spans_requested_range():
    img = synth_base_image(64, seed=2)
    assert img.pixels.shape == (64, 64)
    assert img.pixels.min() == pytest.approx(0.15)
    assert img.pixels.max() == pytest.approx(1.0)
    wide = synth_base_image(32, seed=2, low=0.0, high=0.5)
    assert wide.pixels.max() == pytest.approx(0.5)
    with pytest.raises(ValueError, match="at least 2"):
        synth_base_image(1)
    with pytest.raises(ValueError, match="low < high"):
        synth_base_image(16, low=0.6, high=0.4)


def test_synth_stylized_pair_identity_mechanism_is_identity():
    base = synth_base_image(8, seed=1)
    mech = LocalMechanism(k=2, beta=np.eye(4), row_constant=False, g="identity", noise_scale=0.0)
    styled, clipped = synth_stylized_pair(base, mech, seed=0)
    assert np.array_equal(styled.pixels, base.pixels)
    assert clipped == 0.0


def test_synth_stylized_pair_default_clip_fraction_is_small():
    base = synth_base_image(120, seed=4)
    mech = random_mechanism(seed=4)
    styled, clipped = synth_stylized_pair(base, mech, seed=4)
    assert styled.pixels.shape == base.pixels.shape
    assert clipped < 0.05
    with pytest.raises(ValueError, match="divisible"):
        synth_stylized_pair(synth_base_image(9, seed=0), mech)


def test_diffusion_step_conserves_total():
    rng = np.random.default_rng(0)
    field = rng.random((17, 23))
    stepped = diffusion_step(field, 0.2)
    assert abs(stepped.sum() - field.sum()) < 1e-9
    for bad in (0.0, 0.25, -0.1):
        with pytest.raises(ValueError, match="stencil"):
            diffusion_step(field, bad)


def test_synth_diffusion_frames_variance_decreases_without_noise():
    frames = synth_diffusion_frames(32, num_frames=6, seed=7, noise_scale=0.0)
    assert len(frames) == 6
    variances = [f.pixels.var() for f in frames]
    assert all(a > b for a, b in zip(variances, variances[1:]))
    again = synth_diffusion_frames(32, num_frames=6, seed=7, noise_scale=0.0)
    for f, g in zip(frames, again):
        assert np.array_equal(f.pixels, g.pixels)
    with pytest.raises(ValueError, match="two frames"):
        synth_diffusion_frames(32, num_frames=1)


def _labeled_samples(count, points=24):
    samples, labels = [], []
    for i in range(count):
        s, lab = synth_anm_pair(points, mechanism="cubic", seed=1000 + i)
        samples.append(s)
        labels.append(lab)
    return samples, labels


def _oracle_predictor(samples, labels):
    truth = {s.a.tobytes(): lab for s, lab in zip(samples, labels)}

    def predict(model, sample):
        lab = truth[sample.a.tobytes()]
        return Direction(Verdict.X_TO_Y if lab == 1 else Verdict.Y_TO_X, 1.0)

    return predict


def _coin_predictor(model, sample):
    bit = zlib.crc32(sample.a.tobytes()) & 1
    return Direction(Verdict.X_TO_Y if bit else Verdict.Y_TO_X, 1.0)


def test_evaluate_scatter_dataset_oracle_scores_one():
    samples, labels = _labeled_samples(40)
    report = evaluate_scatter_dataset(
        samples,
        labels,
        trainer=lambda data, spec: None,
        predictor=_oracle_predictor(samples, labels),
        repeats=5,
        seed=0,
    )
    assert report.accuracies == (1.0,) * 5
    assert report.mean == 1.0 and report.std == 0.0
    assert report.num_pairs == 40
    assert report.significance == binomial_significance(1.0, 40)


def test_evaluate_scatter_dataset_coin_flip_is_near_half():
    samples, labels = _labeled_samples(120)
    report = evaluate_scatter_dataset(
        samples,
        labels,
        trainer=lambda data, spec: None,
        predictor=_coin_predictor,
        repeats=10,
        seed=0,
    )
    assert 0.35 <= report.mean <= 0.65


def test_evaluate_scatter_dataset_predictions_recount():
    samples, labels = _labeled_samples(20)
    names = [f"pair{i}" for i in range(20)]
    report = evaluate_scatter_dataset(
        samples,
        labels,
        names=names,
        trainer=lambda data, spec: None,
        predictor=_coin_predictor,
        repeats=4,
        seed=3,
    )
    assert len(report.predictions) == 4
    for acc, preds in zip(report.accuracies, report.predictions):
        assert len(preds) == 5  # 20 pairs, 0.75 split
        recount = sum(ok for _, _, _, ok in preds) / len(preds)
        assert acc == recount
        for name, verdict, label, ok in preds:
            assert name in names
            assert verdict in ("x->y", "y->x")
            assert label in (1, -1)


def test_evaluate_scatter_dataset_validation():
    samples, labels = _labeled_samples(10)
    with pytest.raises(ValueError, match="align"):
        evaluate_scatter_dataset(samples, labels[:-1])
    with pytest.raises(ValueError, match="at least 8"):
        evaluate_scatter_dataset(samples[:4], labels[:4])
    with pytest.raises(ValueError, match="split"):
        evaluate_scatter_dataset(samples, labels, split=1.0)


def _separable_nlp_fixture(tmp_path):
    """16 annotated pairs whose count projections separate the labels: the
    x word of a forward pair shares sentences with the ca* context words,
    the y word with the cb* words, and backward pairs swap the roles."""
    ctx_a = [f"ca{i}" for i in range(5)]
    ctx_b = [f"cb{i}" for i in range(5)]
    lines, records = [], []
    for p in range(16):
        x, y = f"x{p}", f"y{p}"
        forward = p % 2 == 0
        for c in ctx_a if forward else ctx_b:
            lines.append(f"{x} {c}")
        for c in ctx_b if forward else ctx_a:
            lines.append(f"{y} {c}")
        votes = (20, 0, 0) if forward else (0, 20, 0)
        records.append(WordPairRecord(x, y, *votes))
    path = tmp_path / "separable.txt"
    path.write_text("\n".join(lines) + "\n")
    index = build_index(path)
    vocab = vocab_sample(index, 10)
    assert set(vocab.words) == set(ctx_a) | set(ctx_b)
    return filter_consensus(records, 18), vocab, index


def test_evaluate_feature_method_separable_corpus(tmp_path):
    pairs, vocab, index = _separable_nlp_fixture(tmp_path)
    report = evaluate_feature_method(
        pairs, "counts", vocab, index, num_trees=30, repeats=5, seed=1
    )
    assert report.num_pairs == 16
    assert report.excluded == ()
    assert report.mean >= 0.95
    again = evaluate_feature_method(
        pairs, "counts", vocab, index, num_trees=30, repeats=5, seed=1
    )
    assert report.accuracies == again.accuracies


def test_evaluate_distribution_method_reports_exclusions(tmp_path):
    pairs, vocab, index = _separable_nlp_fixture(tmp_path)
    oov = WordPairRecord("zzz", "y0", 20, 0, 0)
    pairs = pairs + [(oov, 1)]
    report = evaluate_distribution_method(
        pairs,
        "counts",
        vocab,
        index,
        trainer=lambda data, spec: None,
        predictor=_coin_predictor,
        repeats=2,
        seed=0,
    )
    assert report.num_pairs == 16
    assert len(report.excluded) == 1
    name, reason = report.excluded[0]
    assert name == "zzz,y0"
    assert "out of vocabulary" in reason


def test_binomial_significance_oracles():
    assert binomial_significance(1.0, 10) == 2.0**-10
    assert binomial_significance(0.5, 10) == 638 / 1024
    # 0.55 * 10 = 5.5 rounds half up to k = 6
    assert binomial_significance(0.55, 10) == 386 / 1024
    assert binomial_significance(0.0, 5) == 1.0


def test_binomial_significance_matches_exact_complement():
    for n in (1, 7, 18, 30):
        for acc in (0.0, 0.3, 0.5, 0.77, 1.0):
            for p0 in (0.5, 0.3):
                k = int(np.floor(acc * n + 0.5))
                p = Fraction(p0)
                head = sum(
                    comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k)
                )
                assert binomial_significance(acc, n, p0) == float(1 - head)


def test_binomial_significance_validation():
    with pytest.raises(ValueError):
        binomial_significance(1.2, 10)
    with pytest.raises(ValueError):
        binomial_significance(0.5, 0)
    with pytest.raises(ValueError):
        binomial_significance(0.5, 10, p0=1.0)


def test_confidence_curve():
    records = [WordPairRecord("a", "b", 20, 0, 0), WordPairRecord("c", "d", 12, 8, 0)]
    correct = [True, False]
    curve = confidence_curve(records, correct, thresholds=(0, 50, 61, 101))
    assert curve == [(0, 0.5, 2), (50, 0.5, 2), (61, 1.0, 1), (101, None, 0)]
    with pytest.raises(ValueError, match="align"):
        confidence_curve(records, [True])


def test_bundled_data_is_consistent():
    pairs_path = bundled_data_path("word_pairs.csv")
    corpus_path = bundled_data_path("mini_corpus.txt")
    records = load_word_pairs(pairs_path)
    assert len(records) == 40
    assert all(r.total_votes == 20 for r in records)
    filtered = filter_consensus(records, 14)
    assert len(filtered) == 33
    labels = {lab for _, lab in filtered}
    assert labels == {1, -1}
    index = build_index(corpus_path)
    for record, _ in filtered:
        assert record.x in index and record.y in index
    with pytest.raises(FileNotFoundError):
        bundled_data_path("nope.bin")
