"""Scatterplot embedding, forest classifier, and the trained engine."""

import json

import numpy as np
import pytest

from proxycause.core import LabeledScatterDataset, ScatterSample, SeedSpec, Verdict
from proxycause.experiments import synth_anm_pair
from proxycause.rcc import (
    TREE_FIELDS,
    Forest,
    RFFSpec,
    _gini_best_split,
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


def assert_split_matches_loop(X, y, feat_ids, min_leaf):
    feat_ids = np.asarray(feat_ids)
    want = loop_best_split(X, y, feat_ids, min_leaf)
    got = _gini_best_split(X[:, feat_ids], y, feat_ids, min_leaf)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (repr(got[0]), got[1], repr(got[2])) == (repr(want[0]), want[1], repr(want[2]))
    return got


def test_split_search_equals_per_feature_loop():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        X = rng.normal(size=(n, 12))
        if trial % 3 == 0:
            X = np.round(X, 1)  # many tied values within a column
        y = rng.integers(0, 2, n)
        feat_ids = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
        assert_split_matches_loop(X, y, feat_ids, int(rng.integers(1, 4)))


def test_split_search_edge_cases():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 4))
    y = (X[:, 2] > 0).astype(np.int64)
    # Duplicate columns tie exactly: the first in feat_ids order wins.
    dup = np.column_stack([X, X[:, 2]])
    assert assert_split_matches_loop(dup, y, [4, 0, 2], 1)[1] == 4
    assert assert_split_matches_loop(dup, y, [2, 1, 4], 1)[1] == 2
    # Constant columns offer no split.
    const = np.column_stack([np.full(30, 0.5), np.full(30, -2.0)])
    assert assert_split_matches_loop(const, y, [0, 1], 1) is None
    assert assert_split_matches_loop(np.column_stack([const, X]), y, [0, 1, 4], 1)[1] == 4
    # min_leaf at the boundary: 2 * min_leaf == n leaves one position.
    X4 = np.array([[0.0], [1.0], [2.0], [3.0]])
    y4 = np.array([0, 1, 0, 1])
    assert assert_split_matches_loop(X4, y4, [0], 2)[2] == 1.5
    assert assert_split_matches_loop(X4, y4, [0], 3) is None
    assert assert_split_matches_loop(X4[:3], y4[:3], [0], 2) is None
    # Adjacent floats: the threshold falls back to the left value.
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    Xa = np.array([[a, 0.0], [a, 1.0], [b, 0.0], [b, 1.0]])
    ya = np.array([0, 0, 1, 1])
    assert assert_split_matches_loop(Xa, ya, [1, 0], 1)[1:] == (0, a)


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
