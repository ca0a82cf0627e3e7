"""Scatterplot embedding, forest classifier, and the trained engine."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxycause import rcc
from proxycause.core import LabeledScatterDataset, ScatterSample, SeedSpec, Verdict
from proxycause.experiments import synth_anm_pair
from proxycause.independence import median_heuristic
from proxycause.rcc import (
    TREE_FIELDS,
    Forest,
    RCCModel,
    RFFSpec,
    _best_splits,
    _canonical_standardized,
    _column_ranks,
    _embed,
    featurize_scatter,
    forest_predict,
    forest_train,
    load_model,
    rcc_predict,
    rcc_train,
    rff_embed,
    save_model,
)


def make_dataset(count, n=150, seed0=0):
    items = []
    for i in range(count):
        sample, label = synth_anm_pair(n, "cubic", "gaussian", seed=SeedSpec(seed0 + i))
        items.append((sample, label))
    return items


def test_rff_spec_validation():
    RFFSpec(seed=0)
    with pytest.raises(ValueError):
        RFFSpec(seed=0, num_features=0)
    with pytest.raises(ValueError):
        RFFSpec(seed=0, bandwidth=0.0)
    for kwargs in ({"seed": 1.5}, {"seed": True}, {"seed": -1}, {"seed": 2**64}, {"seed": "3"}, {"seed": None},
                   {"num_features": 2.5}, {"num_features": True}, {"num_features": -2}, {"num_features": np.float64(3)},
                   {"bandwidth": True}, {"bandwidth": np.nan}, {"bandwidth": np.inf}, {"bandwidth": -0.5},
                   {"bandwidth": "1"}, {"bandwidth": np.bool_(True)}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RFFSpec(**{"seed": 0, **kwargs})
    # Numpy scalars of the right kind are fine, and draw what plain ones do.
    spec = RFFSpec(seed=np.uint64(2**64 - 1), num_features=np.int32(3), bandwidth=np.float32(0.5))
    plain = RFFSpec(seed=2**64 - 1, num_features=3, bandwidth=0.5)
    for block, plain_block in zip(spec.blocks, plain.blocks):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(block, plain_block))
    RFFSpec(seed=0, bandwidth=2)


def test_rff_blocks_are_drawn_once_and_read_only():
    """The cached blocks are bit for bit a fresh draw from the seed, the
    same arrays on every use, and cannot be written."""
    spec = RFFSpec(seed=12, num_features=7, bandwidth=0.3)
    rng_m, rng_j = SeedSpec(12).rng("rff.marginal"), SeedSpec(12).rng("rff.joint")
    want = ((rng_m.standard_normal((7, 1)) / 0.3, rng_m.uniform(0.0, 2.0 * np.pi, 7)),
            (rng_j.standard_normal((7, 2)) / 0.3, rng_j.uniform(0.0, 2.0 * np.pi, 7)))
    got = spec.blocks
    assert spec.blocks is got
    for got_block, want_block in zip(got, want):
        for a, b in zip(got_block, want_block):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
    assert RFFSpec(seed=12, num_features=7, bandwidth=0.3) == spec


def test_rff_embed_matches_direct_cosine_mean():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 2))
    omega = rng.normal(size=(7, 2))
    phase = rng.uniform(0, 2 * np.pi, 7)
    got = rff_embed(pts, omega, phase)
    want = np.sqrt(2.0 / 7) * np.cos(pts @ omega.T + phase).mean(axis=0)
    assert np.allclose(got, want, atol=1e-14)
    with pytest.raises(ValueError):
        rff_embed(np.empty((0, 2)), omega, phase)


def cosine_mean(points, omega, phase):
    """The embedding formula as one expression over one point set."""
    pts = points[:, None] if points.ndim == 1 else points
    return (np.cos(pts @ omega.T + phase) * np.sqrt(2.0 / omega.shape[0])).mean(axis=0)


@pytest.mark.parametrize("m", [1, 2, 7, 100])
def test_embed_equals_rff_embed_of_each_block(m):
    """Both marginal blocks from one stacked call, in place, are bit for bit
    rff_embed of each column, and every block is the one-expression
    formula, at m=1 too (where the mean sums one contiguous run)."""
    rng = np.random.default_rng([41, m])
    samples = [rng.normal(size=(200, 2)), np.round(rng.normal(size=(150, 2)), 1),
               np.column_stack([rng.integers(0, 4, 90), rng.normal(size=90)]), rng.normal(size=(9, 2))]
    spec = RFFSpec(seed=m, num_features=m, bandwidth=0.6)
    (omega_m, phase_m), (omega_j, phase_j) = spec.blocks
    for points in samples:
        pts = _canonical_standardized(ScatterSample(points))
        want = np.concatenate([rff_embed(pts[:, 0], omega_m, phase_m), rff_embed(pts[:, 1], omega_m, phase_m),
                               rff_embed(pts, omega_j, phase_j)])
        got = _embed(pts, spec)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == featurize_scatter(ScatterSample(points), spec).tobytes()
        oracle = np.concatenate([cosine_mean(pts[:, 0], omega_m, phase_m), cosine_mean(pts[:, 1], omega_m, phase_m),
                                 cosine_mean(pts, omega_j, phase_j)])
        assert got.tobytes() == oracle.tobytes()
        stacked = rff_embed(np.stack([pts, pts[::-1]]), omega_j, phase_j)
        assert stacked.shape == (2, m) and stacked[0].tobytes() == want[2 * m :].tobytes()


def test_rcc_train_canonicalizes_each_sample_once(monkeypatch):
    """rcc_train canonicalizes each of its 2N augmented samples once, and
    gets the bandwidth and the forest that per-sample featurize_scatter
    calls on the same samples give."""
    data = LabeledScatterDataset(tuple(make_dataset(6, n=40)))
    calls = []
    real = rcc._canonical_standardized

    def counting(sample):
        calls.append(sample)
        return real(sample)

    monkeypatch.setattr(rcc, "_canonical_standardized", counting)
    model = rcc_train(data, num_features=8, num_trees=5, seed=4)
    monkeypatch.undo()
    augmented = [pair for sample, label in data for pair in ((sample, label), (sample.swapped(), -label))]
    assert len(calls) == 12
    assert all(np.array_equal(got.points, s.points) for got, (s, _) in zip(calls, augmented))
    pooled = np.concatenate([_canonical_standardized(s).ravel() for s, _ in augmented])
    assert model.rff.bandwidth == median_heuristic(pooled)
    X = np.stack([featurize_scatter(s, model.rff) for s, _ in augmented])
    forest = forest_train(X, np.array([label for _, label in augmented]), num_trees=5, seed=SeedSpec(4).child("rcc.forest"))
    assert_same_trees(model.forest.trees, forest.trees)


def test_featurization_is_bitwise_permutation_invariant():
    rng = np.random.default_rng(3)
    sample = ScatterSample(rng.normal(size=(200, 2)))
    spec = RFFSpec(seed=9, num_features=50, bandwidth=0.8)
    base = featurize_scatter(sample, spec)
    for i in range(5):
        perm = np.random.default_rng(i).permutation(200)
        shuffled = ScatterSample(sample.points[perm])
        assert np.array_equal(featurize_scatter(shuffled, spec), base)


def test_swap_exchanges_marginal_blocks():
    """Shared marginal frequencies make swapping exchange the two marginal
    blocks; equality is up to summation order because the canonical sort
    orders the swapped points differently."""
    rng = np.random.default_rng(4)
    sample = ScatterSample(rng.normal(size=(80, 2)))
    spec = RFFSpec(seed=2, num_features=20, bandwidth=1.1)
    f = featurize_scatter(sample, spec)
    g = featurize_scatter(sample.swapped(), spec)
    m = spec.num_features
    assert np.allclose(g[:m], f[m : 2 * m], atol=1e-12, rtol=0)
    assert np.allclose(g[m : 2 * m], f[:m], atol=1e-12, rtol=0)


def test_featurization_rejects_constant_coordinate():
    pts = np.column_stack([np.ones(20), np.arange(20.0)])
    with pytest.raises(ValueError, match="constant"):
        featurize_scatter(ScatterSample(pts), RFFSpec(seed=0))


def test_featurization_rejects_values_too_large_to_standardize():
    """A coordinate scaled by 1e200 has no finite standard deviation: a clear
    ValueError and no overflow warning, not features of an all-zero column."""
    pts = np.random.default_rng(0).normal(size=(40, 2))
    pts[:, 0] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sample in (ScatterSample(pts), ScatterSample(pts).swapped()):
            with pytest.raises(ValueError, match="not finite"):
                featurize_scatter(sample, RFFSpec(seed=0))


def test_canonical_standardization_equals_expression_formula():
    rng = np.random.default_rng(3)
    for pts in (rng.normal(size=(50, 2)), np.round(rng.normal(size=(50, 2)), 1) * 1e150):
        sorted_pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        want = np.empty_like(sorted_pts)
        for j in range(2):
            sd = float(np.std(sorted_pts[:, j]))
            want[:, j] = (sorted_pts[:, j] - float(np.mean(sorted_pts[:, j]))) / sd
        assert np.array_equal(_canonical_standardized(ScatterSample(pts)), want)


def test_forest_learns_separable_rule():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 10))
    y = np.where(X[:, 3] > 0.2, 1, -1)
    forest = forest_train(X, y, num_trees=50, seed=SeedSpec(1))
    frac = forest_predict(forest, X)
    acc = np.mean((frac >= 0.5) == (y == 1))
    assert acc >= 0.95
    X2 = rng.normal(size=(200, 10))
    acc2 = np.mean((forest_predict(forest, X2) >= 0.5) == (X2[:, 3] > 0.2))
    assert acc2 >= 0.9


def test_forest_is_deterministic_and_validates():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 5))
    y = np.where(X[:, 0] > 0, 1, -1)
    if min(np.sum(y == 1), np.sum(y == -1)) < 2:
        raise AssertionError("fixture degenerate")
    f1 = forest_train(X, y, num_trees=10, seed=SeedSpec(3))
    f2 = forest_train(X, y, num_trees=10, seed=SeedSpec(3))
    assert np.array_equal(forest_predict(f1, X), forest_predict(f2, X))
    with pytest.raises(ValueError, match="both classes"):
        forest_train(X, np.ones_like(y), num_trees=5)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        forest_train(X, np.zeros_like(y), num_trees=5)
    with pytest.raises(ValueError, match="2 examples per class"):
        forest_train(X, np.r_[1, -np.ones(39, dtype=int)], num_trees=5)


def test_rcc_end_to_end_beats_chance():
    items = make_dataset(40, seed0=1000)
    model = rcc_train(LabeledScatterDataset(tuple(items)), num_features=40, num_trees=80, seed=SeedSpec(5))
    test_items = make_dataset(30, seed0=5000)
    correct = 0
    for sample, label in test_items:
        d = rcc_predict(model, sample)
        predicted = 1 if d.verdict is Verdict.X_TO_Y else -1
        correct += predicted == label
    assert correct >= 19  # roughly 2/3; the acceptance suite holds the 70% bar


def test_rcc_prediction_antisymmetric_on_swap():
    """The mirror augmentation makes swapped inputs get mirrored votes.

    Leaves with a vote fraction of exactly one half break the exact
    symmetry, so this asserts on samples where the score is clear of zero.
    """
    items = make_dataset(30, seed0=2000)
    model = rcc_train(LabeledScatterDataset(tuple(items)), num_features=30, num_trees=60, seed=SeedSpec(6))
    checked = 0
    for sample, _ in make_dataset(10, seed0=3000):
        d = rcc_predict(model, sample)
        e = rcc_predict(model, sample.swapped())
        if d.score > 0.1 and e.score > 0.1:
            assert e.verdict is d.verdict.flipped()
            checked += 1
    assert checked >= 5


def test_judge_is_rcc_predict():
    model = rcc_train(LabeledScatterDataset(tuple(make_dataset(20, n=80, seed0=2100))), num_features=20,
                      num_trees=30, seed=SeedSpec(8))
    for sample, _ in make_dataset(4, n=80, seed0=3100):
        for s in (sample, sample.swapped()):
            d, want = model.judge(s, SeedSpec(9)), rcc_predict(model, s)
            assert (d.verdict, repr(d.score)) == (want.verdict, repr(want.score))


def test_rcc_train_requires_both_labels():
    items = [(s, 1) for s, _ in make_dataset(6, seed0=4000)]
    with pytest.raises(ValueError, match="both labels"):
        rcc_train(LabeledScatterDataset(tuple(items)), num_features=10, num_trees=5)


def test_model_serialization_round_trip(tmp_path):
    items = make_dataset(16, seed0=6000)
    model = rcc_train(LabeledScatterDataset(tuple(items)), num_features=20, num_trees=20, seed=SeedSpec(7))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.rff == model.rff
    assert back.forest.num_trees == model.forest.num_trees
    for a, b in zip(back.forest.trees, model.forest.trees):
        assert all(np.array_equal(a[name], b[name]) for name in TREE_FIELDS)
    probes = make_dataset(8, seed0=7000)
    for sample, _ in probes:
        assert rcc_predict(back, sample) == rcc_predict(model, sample)


def test_numpy_scalar_spec_saves_and_loads(tmp_path):
    """A spec built from numpy scalars holds plain Python numbers, so
    save_model writes it in full and load_model gives back an equal one."""
    spec = RFFSpec(seed=np.uint64(2**64 - 1), num_features=np.int32(3), bandwidth=np.float32(0.5))
    assert [type(v) for v in (spec.seed, spec.num_features, spec.bandwidth)] == [int, int, float]
    features = np.random.default_rng(3).normal(size=(8, 9))
    model = RCCModel(rff=spec, forest=forest_train(features, [1, -1] * 4, num_trees=3, seed=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.rff == spec and back.rff.seed == 2**64 - 1
    assert forest_predict(back.forest, features).tolist() == forest_predict(model.forest, features).tolist()


def test_load_model_accepts_files_with_tree_seeds(tmp_path):
    """Earlier version-1 files also stored one seed per tree; they still
    load, and the seeds play no part in prediction."""
    items = make_dataset(16, seed0=6000)
    model = rcc_train(LabeledScatterDataset(tuple(items)), num_features=20, num_trees=20, seed=SeedSpec(7))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert "tree_seeds" not in doc["forest"]
    doc["forest"]["tree_seeds"] = [SeedSpec(7).child("rcc.forest").seed(f"forest.tree.{t}") for t in range(20)]
    path.write_text(json.dumps(doc))
    back = load_model(path)
    for sample, _ in make_dataset(8, seed0=7000):
        assert rcc_predict(back, sample) == rcc_predict(model, sample)


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError, match="not a rcc-model"):
        load_model(path)
    path.write_text('{"format": "rcc-model", "version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_forest_split_on_adjacent_floats():
    """A feature whose two distinct values are neighboring floats must not
    produce an empty child: the midpoint of adjacent floats rounds up to
    the larger one, so the threshold has to fall back to the left value."""
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert 0.5 * (a + b) == b  # the rounding that used to break the split
    X = np.array([[a], [a], [a], [b], [b], [b]])
    y = np.array([-1, -1, -1, 1, 1, 1])
    forest = forest_train(X, y, num_trees=10, seed=0)
    fractions = forest_predict(forest, X)
    assert np.all(fractions[:3] < 0.5)
    assert np.all(fractions[3:] > 0.5)


def saved_model_doc(tmp_path):
    items = make_dataset(16, seed0=6000)
    model = rcc_train(LabeledScatterDataset(tuple(items)), num_features=10, num_trees=5, seed=SeedSpec(8))
    path = tmp_path / "model.json"
    save_model(model, path)
    return path, json.loads(path.read_text())


def first_split(tree):
    return next(i for i, f in enumerate(tree["feature"]) if f >= 0)


def break_missing_forest_key(doc):
    del doc["forest"]["num_features"]


def break_missing_tree_key(doc):
    del doc["forest"]["trees"][2]["vote"]


def break_unequal_lengths(doc):
    doc["forest"]["trees"][1]["threshold"].append(0.0)


def break_child_out_of_range(doc):
    tree = doc["forest"]["trees"][0]
    tree["right"][first_split(tree)] = len(tree["feature"])


def break_child_is_itself(doc):
    tree = doc["forest"]["trees"][0]
    node = first_split(tree)
    tree["left"][node] = node


def break_child_before_parent(doc):
    tree = doc["forest"]["trees"][3]
    node = max(i for i, f in enumerate(tree["feature"]) if f >= 0)
    tree["right"][node] = node - 1 if node > 0 else -1


def break_feature_beyond_width(doc):
    tree = doc["forest"]["trees"][4]
    tree["feature"][first_split(tree)] = doc["forest"]["num_features"]


def break_num_trees(doc):
    doc["forest"]["num_trees"] += 1


def break_fractional_feature(doc):
    tree = doc["forest"]["trees"][0]
    tree["feature"][first_split(tree)] += 0.7


def break_fractional_child(doc):
    tree = doc["forest"]["trees"][1]
    tree["left"][first_split(tree)] += 0.5


def break_fractional_right_child(doc):
    tree = doc["forest"]["trees"][1]
    tree["right"][first_split(tree)] = float(tree["right"][first_split(tree)]) + 0.25


def break_string_feature(doc):
    tree = doc["forest"]["trees"][2]
    tree["feature"][first_split(tree)] = str(tree["feature"][first_split(tree)])


def break_boolean_child(doc):
    doc["forest"]["trees"][2]["left"][0] = True


def break_feature_beyond_int64(doc):
    tree = doc["forest"]["trees"][0]
    tree["feature"][first_split(tree)] = 2**70


def break_vote_above_one(doc):
    doc["forest"]["trees"][0]["vote"][-1] = 7.5


def break_negative_vote(doc):
    doc["forest"]["trees"][3]["vote"][0] = -0.25


def break_null_threshold(doc):
    tree = doc["forest"]["trees"][4]
    tree["threshold"][first_split(tree)] = None


def break_infinite_threshold(doc):
    tree = doc["forest"]["trees"][4]
    tree["threshold"][first_split(tree)] = 1e999  # json.dumps writes Infinity


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (break_missing_forest_key, "malformed"),
        (break_missing_tree_key, "malformed"),
        (break_unequal_lengths, "equal length"),
        (break_child_out_of_range, "out of range"),
        (break_child_is_itself, "not after its parent"),
        (break_child_before_parent, "not after its parent"),
        (break_feature_beyond_width, "beyond"),
        (break_num_trees, "num_trees"),
        (break_fractional_feature, "feature entries must be integers"),
        (break_fractional_child, "left entries must be integers"),
        (break_fractional_right_child, "right entries must be integers"),
        (break_string_feature, "feature entries must be integers"),
        (break_boolean_child, "left entries must be integers"),
        (break_feature_beyond_int64, "malformed"),
        (break_vote_above_one, r"votes must lie in \[0, 1\]"),
        (break_negative_vote, r"votes must lie in \[0, 1\]"),
        (break_null_threshold, "threshold entries must be numbers"),
        (break_infinite_threshold, "thresholds must be finite"),
    ],
)
def test_load_model_rejects_malformed_forest(tmp_path, corrupt, message):
    path, doc = saved_model_doc(tmp_path)
    load_model(path)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_forest_check_names_the_first_bad_tree(tmp_path):
    """With several trees broken, the error names the lowest one, and within
    it the first check it fails."""
    path, doc = saved_model_doc(tmp_path)
    break_feature_beyond_width(doc)
    break_negative_vote(doc)
    break_child_before_parent(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="tree 3: right child out of range or not after its parent"):
        load_model(path)
    break_vote_above_one(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"tree 0: votes must lie in \[0, 1\]"):
        load_model(path)


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """A small saved model: its directory, JSON document and one probe."""
    path, doc = saved_model_doc(tmp_path_factory.mktemp("fuzz"))
    return path.parent, doc, make_dataset(1, seed0=7000)[0][0]


def json_paths(doc, prefix=()):
    """Every (key or index) path into a JSON document."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from json_paths(value, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
bad_values = st.sampled_from([0, -1, 1, 2.5, 1.0, True, False, "3", None, [], {}, 2**64, 1e999]) | json_values


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_model_loader_gives_a_model_or_value_error(fuzz_model, data):
    """A saved model with up to three values replaced or deleted either
    loads into a model that predicts, or raises ValueError."""
    directory, doc, probe = fuzz_model
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        named = [p for p in paths if not any(isinstance(k, int) for k in p)]
        path = data.draw(st.sampled_from(named) | st.sampled_from(paths))
        if not path:
            doc = data.draw(bad_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[path[-1]] = data.draw(bad_values)
        elif isinstance(parent, dict):
            del parent[path[-1]]
    target = directory / "fuzzed.json"
    target.write_text(json.dumps(doc))
    try:
        model = load_model(target)
    except ValueError:
        return
    assert type(model.rff.seed) is int and 0 <= model.rff.seed < 2**64
    assert type(model.rff.num_features) is int and model.rff.num_features >= 1
    assert type(model.rff.bandwidth) is float
    assert type(model.forest.num_trees) is int and model.forest.num_trees == len(model.forest.trees)
    assert model.forest.num_features == 3 * model.rff.num_features
    assert rcc_predict(model, probe).verdict in (Verdict.X_TO_Y, Verdict.Y_TO_X)


def loop_best_split(X, y, feat_ids, min_leaf):
    """One feature at a time, keeping a later feature only on a strictly
    lower score: the reference the all-feature search must reproduce."""
    n = y.size
    total_ones = int(y.sum())
    best_score = np.inf
    best = None
    for f in feat_ids:
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        left_ones = np.cumsum(y[order])[:-1]
        n_left = np.arange(1, n)
        n_right = n - n_left
        valid = (xs_sorted[1:] != xs_sorted[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        right_ones = total_ones - left_ones
        gini_left = 1.0 - (left_ones / n_left) ** 2 - ((n_left - left_ones) / n_left) ** 2
        gini_right = 1.0 - (right_ones / n_right) ** 2 - ((n_right - right_ones) / n_right) ** 2
        score = (n_left * gini_left + n_right * gini_right) / n
        score[~valid] = np.inf
        j = int(np.argmin(score))
        if score[j] < best_score:
            best_score = float(score[j])
            threshold = 0.5 * (xs_sorted[j] + xs_sorted[j + 1])
            if threshold >= xs_sorted[j + 1]:
                threshold = float(xs_sorted[j])
            best = (best_score, int(f), float(threshold))
    return best


def _gini_best_split(Xf, y, feat_ids, min_leaf):
    """Best (score, feature, threshold) over the columns of ``Xf``, or None:
    the one-node search the recursive grower used, kept as the oracle."""
    n = y.size
    total_ones = int(y.sum())
    order = np.argsort(Xf, axis=0, kind="stable")
    xs_sorted = np.take_along_axis(Xf, order, axis=0)
    left_ones = np.cumsum(y[order], axis=0)[:-1]
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    valid = xs_sorted[1:] != xs_sorted[:-1]
    valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
    right_ones = total_ones - left_ones
    gini_left = 1.0 - (left_ones / n_left) ** 2 - ((n_left - left_ones) / n_left) ** 2
    gini_right = 1.0 - (right_ones / n_right) ** 2 - ((n_right - right_ones) / n_right) ** 2
    score = (n_left * gini_left + n_right * gini_right) / n
    score[~valid] = np.inf
    rows = np.argmin(score, axis=0)
    col_best = score[rows, np.arange(score.shape[1])]
    c = int(np.argmin(col_best))
    if not col_best[c] < np.inf:
        return None
    j = rows[c]
    lo, hi = xs_sorted[j, c], xs_sorted[j + 1, c]
    threshold = 0.5 * (lo + hi)
    if threshold >= hi:
        threshold = lo
    return float(col_best[c]), int(feat_ids[c]), float(threshold)


def _grow_tree(X, y, rng, max_features, min_leaf):
    """One tree grown by depth-first recursion, one search per node: the
    reference the lock-step grower must reproduce bit for bit."""
    feature, threshold, left, right, vote = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        vote.append(0.0)
        return len(feature) - 1

    def build(idx):
        node = new_node()
        ys = y[idx]
        ones = int(ys.sum())
        vote[node] = ones / idx.size
        if ones == 0 or ones == idx.size or idx.size < 2 * min_leaf:
            return node
        feat_ids = rng.choice(X.shape[1], size=max_features, replace=False)
        split = _gini_best_split(X[np.ix_(idx, feat_ids)], ys, feat_ids, min_leaf)
        if split is None:
            return node
        _, f, thr = split
        mask = X[idx, f] <= thr
        if mask.all() or not mask.any():
            return node
        feature[node] = f
        threshold[node] = thr
        left[node] = build(idx[mask])
        right[node] = build(idx[~mask])
        return node

    build(np.arange(X.shape[0]))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "vote": np.array(vote, dtype=np.float64),
    }


def recursive_forest_trees(X, y, num_trees, seed, min_leaf):
    """The trees of forest_train, grown one at a time by recursion."""
    y01 = (y == 1).astype(np.int64)
    spec = SeedSpec(seed)
    max_features = max(1, int(round(np.sqrt(X.shape[1]))))
    trees = []
    for t in range(num_trees):
        rng = np.random.default_rng(spec.seed(f"forest.tree.{t}"))
        boot = rng.integers(0, X.shape[0], X.shape[0])
        trees.append(_grow_tree(X[boot], y01[boot], rng, max_features, min_leaf))
    return trees


def segmented_splits(X, y, segments, min_leaf):
    """One segmented search over [(rows, feat_ids)], as (score, feature,
    threshold) or None per segment.

    A segment's rows may repeat: the search gets each distinct row once
    with its count, in the order the rows first appear, so rows given out
    of order reach the search out of order.
    """
    ranks, values = _column_ranks(X)
    distinct = []
    for r, _ in segments:
        u, first, c = np.unique(np.asarray(r), return_index=True, return_counts=True)
        order = np.argsort(first)
        distinct.append((u[order], c[order]))
    rows = np.concatenate([u for u, _ in distinct])
    counts = np.concatenate([c for _, c in distinct])
    sizes = np.array([u.size for u, _ in distinct])
    feats = np.array([f for _, f in segments])
    found, score, feature, threshold = _best_splits(ranks, values, rows, y[rows], counts, sizes, feats, min_leaf)
    return [
        (float(score[s]), int(feature[s]), float(threshold[s])) if found[s] else None
        for s in range(len(segments))
    ]


def assert_same_split(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (repr(got[0]), got[1], repr(got[2])) == (repr(want[0]), want[1], repr(want[2]))


def assert_split_matches_loop(X, y, segments, min_leaf):
    """Each (rows, feat_ids) segment searched alone and all of them in one
    call give the per-feature loop's split; so does the one-node oracle."""
    segments = [(np.asarray(rows), np.asarray(feat_ids)) for rows, feat_ids in segments]
    together = segmented_splits(X, y, segments, min_leaf)
    for (rows, feat_ids), got in zip(segments, together):
        want = loop_best_split(X[rows], y[rows], feat_ids, min_leaf)
        assert_same_split(got, want)
        assert_same_split(segmented_splits(X, y, [(rows, feat_ids)], min_leaf)[0], want)
        assert_same_split(_gini_best_split(X[np.ix_(rows, feat_ids)], y[rows], feat_ids, min_leaf), want)
    return together


def test_split_search_equals_per_feature_loop():
    rng = np.random.default_rng(11)
    problems = {}
    for trial in range(200):
        n = int(rng.integers(2, 60))
        X = rng.normal(size=(n, 12))
        if trial % 3 == 0:
            X = np.round(X, 1)  # many tied values within a column
        y = rng.integers(0, 2, n)
        feat_ids = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
        min_leaf = int(rng.integers(1, 4))
        problems.setdefault((feat_ids.size, min_leaf), []).append((X, y, feat_ids))
    # Every problem with the same width of search and min_leaf shares one
    # call: its rows stacked into one matrix, one segment each.
    for (_, min_leaf), group in problems.items():
        X = np.vstack([X for X, _, _ in group])
        y = np.concatenate([y for _, y, _ in group])
        ends = np.cumsum([y.size for _, y, _ in group])
        segments = [(np.arange(end - y.size, end), f) for (_, y, f), end in zip(group, ends)]
        assert_split_matches_loop(X, y, segments, min_leaf)


def test_split_search_edge_cases():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 4))
    y = (X[:, 2] > 0).astype(np.int64)
    every = np.arange(30)
    # Duplicate columns tie exactly: the first in feat_ids order wins.
    dup = np.column_stack([X, X[:, 2]])
    got = assert_split_matches_loop(dup, y, [(every, [4, 0, 2]), (every, [2, 1, 4]), (every[::-1], [0, 4, 2])], 1)
    assert [split[1] for split in got] == [4, 2, 4]
    # Constant columns offer no split.
    const = np.column_stack([np.full(30, 0.5), np.full(30, -2.0)])
    assert assert_split_matches_loop(const, y, [(every, [0, 1])], 1) == [None]
    got = assert_split_matches_loop(np.column_stack([const, X]), y, [(every, [0, 1, 4]), (every[:12], [1, 0, 4])], 1)
    assert [split[1] for split in got] == [4, 4]
    # min_leaf at the boundary: 2 * min_leaf == n leaves one position.
    X4 = np.array([[0.0], [1.0], [2.0], [3.0]])
    y4 = np.array([0, 1, 0, 1])
    got = assert_split_matches_loop(X4, y4, [(np.arange(4), [0]), (np.arange(3), [0]), ([3, 2, 1, 0], [0])], 2)
    assert got[0][2] == got[2][2] == 1.5 and got[1] is None
    assert assert_split_matches_loop(X4, y4, [(np.arange(4), [0])], 3) == [None]
    # Adjacent floats: the threshold falls back to the left value.
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    Xa = np.array([[a, 0.0], [a, 1.0], [b, 0.0], [b, 1.0]])
    ya = np.array([0, 0, 1, 1])
    got = assert_split_matches_loop(Xa, ya, [(np.arange(4), [1, 0]), ([3, 1, 2, 0], [0, 1])], 1)
    assert [split[1:] for split in got] == [(0, a), (0, a)]
    # Signed zeros are one value: a split never falls between them.
    Xz = np.array([[-0.0], [0.0], [0.0], [-0.0], [1.0], [-1.0]])
    yz = np.array([1, 0, 1, 0, 1, 0])
    assert_split_matches_loop(Xz, yz, [(np.arange(6), [0]), (np.arange(4), [0]), ([5, 3, 0, 4], [0])], 1)


def test_split_search_weighs_repeated_rows():
    """Segments whose rows repeat, as in a bootstrap bag: the search on the
    distinct rows with their counts gives the split of the rows written
    out with repeats."""
    # A weight above 1 moves the best split: rows 0-4 once each split best
    # at 0.5; with row 4 three times, at 3.5.
    X5 = np.arange(5.0)[:, None]
    y5 = np.array([0, 1, 1, 1, 0])
    got = assert_split_matches_loop(X5, y5, [([0, 1, 2, 3, 4, 4, 4], [0]), ([4, 0, 4, 3, 2, 1, 4], [0]),
                                             ([0, 1, 2, 3, 4], [0]), ([4, 4, 4, 3, 2, 1, 0], [0])], 1)
    assert [split[2] for split in got] == [3.5, 3.5, 0.5, 3.5]
    # Distinct rows that tie on a column: no split between them, whatever
    # their counts.
    Xt = np.array([[0.5, 1.0], [0.5, 2.0], [1.0, 3.0], [1.0, 4.0]])
    yt = np.array([0, 1, 0, 1])
    got = assert_split_matches_loop(Xt, yt, [([0, 1, 1, 1, 2, 3], [0]), ([1, 0, 0, 3, 3], [0])], 1)
    assert [split[2] for split in got] == [0.75, 0.75]
    assert_split_matches_loop(Xt, yt, [([0, 1, 1, 2, 2, 3], [0, 1]), ([1, 0, 0, 3], [1, 0])], 2)
    # min_leaf met only through a multiplicity: two distinct rows, three
    # copies each, at min_leaf 3; two copies on one side are too few.
    X2 = np.array([[0.0], [1.0]])
    y2 = np.array([0, 1])
    got = assert_split_matches_loop(X2, y2, [([0, 0, 0, 1, 1, 1], [0]), ([0, 1, 0, 1, 1], [0]), ([0, 1], [0])], 3)
    assert got[0] == (0.0, 0, 0.5) and got[1] is None and got[2] is None
    # Random bags over rounded columns: weights above 1 and ties throughout.
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        X = np.round(rng.normal(size=(n, 6)), 1 if trial % 2 else 3)
        y = rng.integers(0, 2, n)
        bags = [rng.integers(0, n, int(rng.integers(2, 2 * n + 2))) for _ in range(3)]
        width = int(rng.integers(1, 4))
        segments = [(bag, rng.choice(6, size=width, replace=False)) for bag in bags if np.unique(bag).size >= 2]
        if segments:
            assert_split_matches_loop(X, y, segments, int(rng.integers(1, 4)))


def test_column_ranks_are_dense_and_give_back_the_values():
    rng = np.random.default_rng(15)
    X = np.column_stack([np.round(rng.normal(size=50), 1), rng.normal(size=50), np.full(50, 2.0),
                         np.where(rng.random(50) < 0.5, -0.0, 0.0)])
    ranks, values = _column_ranks(X)
    for f in range(X.shape[1]):
        distinct = np.unique(X[:, f])
        assert np.array_equal(ranks[f], np.searchsorted(distinct, X[:, f]))
        assert np.array_equal(values[f, ranks[f]], X[:, f])


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name, dtype in TREE_FIELDS.items():
            assert a[name].dtype == b[name].dtype == dtype
            assert np.array_equal(a[name], b[name])
            assert a[name].tobytes() == b[name].tobytes()  # signed zeros too


def forest_fixture(kind, rng):
    X = rng.normal(size=(int(rng.integers(30, 70)), 9))
    if kind == "ties":
        X = np.round(X, 1)
    elif kind == "signed zeros":
        X[:, :3] = np.where(X[:, :3] > 0, 0.0, -0.0)
        X[:, 3] = np.where(rng.random(X.shape[0]) < 0.3, -0.0, X[:, 3])
    elif kind == "constant columns":
        X[:, 1:6] = 0.25
    elif kind == "width 1":
        X = np.round(X[:, :1], 1)
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=X.shape[0]) > 0, 1, -1)
    y[:2], y[2:4] = 1, -1
    return X, y


@pytest.mark.parametrize("kind", ["plain", "ties", "signed zeros", "constant columns", "width 1"])
@pytest.mark.parametrize("min_leaf", [1, 2, 3, 7])
def test_forest_equals_recursive_oracle(kind, min_leaf, monkeypatch):
    rng = np.random.default_rng([16, min_leaf, len(kind)])
    X, y = forest_fixture(kind, rng)
    searched = []
    real = rcc._best_splits

    def recording(*args):
        result = real(*args)
        searched.append(result[0])
        return result

    monkeypatch.setattr(rcc, "_best_splits", recording)
    for num_trees in (1, 31, 32, 33, 70):
        seed = int(rng.integers(1 << 30))
        forest = forest_train(X, y, num_trees=num_trees, seed=seed, min_leaf=min_leaf)
        assert forest.num_trees == num_trees
        assert_same_trees(forest.trees, recursive_forest_trees(X, y, num_trees, seed, min_leaf))
    if min_leaf == 7:
        # Steps where a segment found no split next to segments that did;
        # on tied columns, also as the step's last segment.
        assert any(found.any() and not found.all() for found in searched)
        assert kind == "plain" or any(found.any() and not found[-1] for found in searched)


def test_forest_rejects_non_finite_features():
    X = np.random.default_rng(17).normal(size=(20, 3))
    y = np.where(X[:, 0] > 0, 1, -1)
    for bad in (np.nan, np.inf, -np.inf):
        Xb = X.copy()
        Xb[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            forest_train(Xb, y, num_trees=3)
    # Prediction refuses them too: a NaN row would walk right at every node.
    forest = forest_train(X, y, num_trees=5)
    for bad in (np.nan, np.inf, -np.inf):
        Xb = X[:4].copy()
        Xb[2, 1] = bad
        for probe in (Xb, Xb[2]):
            with pytest.raises(ValueError, match="finite"):
                forest_predict(forest, probe)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"min_leaf": 0}, "min_leaf must be at least 1"),
        ({"min_leaf": -3}, "min_leaf must be at least 1"),
        ({"min_leaf": True}, "must be integers"),
        ({"min_leaf": 1.5}, "must be integers"),
        ({"num_trees": 2.5}, "must be integers"),
        ({"num_trees": "3"}, "must be integers"),
        ({"num_trees": False}, "must be integers"),
        ({"num_trees": np.float64(3.0)}, "must be integers"),
    ],
    ids=lambda v: repr(v) if isinstance(v, dict) else "",
)
def test_forest_rejects_bad_sizes(kwargs, message):
    X = np.random.default_rng(19).normal(size=(40, 4))
    y = np.where(X[:, 0] > 0, 1, -1)
    with pytest.raises(ValueError, match=message):
        forest_train(X, y, **{"num_trees": 3, **kwargs})


def test_forest_accepts_numpy_integer_sizes():
    X = np.random.default_rng(19).normal(size=(40, 4))
    y = np.where(X[:, 0] > 0, 1, -1)
    plain = forest_train(X, y, num_trees=3, seed=5, min_leaf=2)
    numpy = forest_train(X, y, num_trees=np.int64(3), seed=5, min_leaf=np.int32(2))
    assert type(numpy.num_trees) is int and numpy.num_trees == 3
    assert_same_trees(numpy.trees, plain.trees)


def per_tree_votes(forest, X):
    """Class-1 vote fractions from walking each tree on its own."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    votes = np.zeros(X.shape[0])
    for tree in forest.trees:
        for r in range(X.shape[0]):
            node = 0
            while tree["feature"][node] >= 0:
                go_left = X[r, tree["feature"][node]] <= tree["threshold"][node]
                node = tree["left"][node] if go_left else tree["right"][node]
            votes[r] += tree["vote"][node] >= 0.5
    return votes / forest.num_trees


def test_packed_prediction_equals_per_tree_walk():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(120, 9))
    y = np.where(X[:, 1] + 0.5 * X[:, 4] ** 2 + 0.3 * rng.normal(size=120) > 0.4, 1, -1)
    forest = forest_train(X, y, num_trees=40, seed=SeedSpec(2))
    probes = np.vstack([X[:7], rng.normal(size=(30, 9)), np.round(rng.normal(size=(5, 9)), 1)])
    want = per_tree_votes(forest, probes)
    assert np.array_equal(forest_predict(forest, probes), want)
    assert np.array_equal(forest_predict(forest, probes[3]), want[3:4])
    assert forest_predict(forest, np.empty((0, 9))).shape == (0,)
    # A forest of single-leaf trees walks no level at all.
    stumps = Forest(
        num_trees=2,
        trees=tuple(
            {"feature": np.array([-1]), "threshold": np.array([0.0]), "left": np.array([-1]),
             "right": np.array([-1]), "vote": np.array([v])}
            for v in (0.25, 0.5)
        ),
        num_features=9,
    )
    assert np.array_equal(forest_predict(stumps, probes[:4]), np.full(4, 0.5))


def test_forest_rejects_empty_tree_list():
    with pytest.raises(ValueError, match="at least one tree"):
        Forest(num_trees=0, trees=(), num_features=3)
    X = np.random.default_rng(14).normal(size=(20, 3))
    y = np.where(X[:, 0] > 0, 1, -1)
    for num_trees in (0, -4):
        with pytest.raises(ValueError, match="at least one tree"):
            forest_train(X, y, num_trees=num_trees)
