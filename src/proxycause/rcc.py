"""Learning-based direction engine: embed scatterplots, classify with a forest.

A scatterplot is summarized by three kernel mean embeddings (marginal of
each coordinate plus the joint), each approximated with random Fourier
features, and a bagged forest of CART trees maps the 3m-vector to a
direction.  Training data is augmented with coordinate-swapped,
label-flipped copies so the learner always sees a balanced problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Direction, LabeledScatterDataset, ScatterSample, SeedSpec, _is_integer, _standardize, as_spec
from .independence import median_heuristic

__all__ = [
    "RFFSpec",
    "Forest",
    "RCCModel",
    "rff_embed",
    "featurize_scatter",
    "forest_train",
    "forest_predict",
    "rcc_train",
    "rcc_predict",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "rcc-model"
MODEL_VERSION = 1


# ---------------------------------------------------------------------------
# Random Fourier feature embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RFFSpec:
    """Frequencies and phases for the three embedding blocks.

    Only (seed, num_features, bandwidth) are stored; the Gaussian
    frequencies and uniform phases are drawn from them once per spec,
    which keeps serialized models small and exactly reproducible.  The
    two marginal blocks share one set of frequencies so that swapping a
    sample's coordinates exactly exchanges the marginal blocks.
    """

    seed: int
    num_features: int = 100
    bandwidth: float = 1.0

    def __post_init__(self):
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not _is_integer(self.num_features) or self.num_features < 1:
            raise ValueError(f"num_features must be a positive integer, got {self.num_features!r}")
        bandwidth = self.bandwidth
        real = isinstance(bandwidth, (int, float, np.integer, np.floating)) and not isinstance(bandwidth, bool)
        if not (real and 0 < bandwidth < np.inf):
            raise ValueError(f"bandwidth must be a finite positive number, got {bandwidth!r}")
        # Plain Python numbers from here on, as save_model writes them to JSON.
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "num_features", int(self.num_features))
        object.__setattr__(self, "bandwidth", float(bandwidth))

    @cached_property
    def blocks(self):
        """(omega, phase) for the marginal block (d=1) and joint block (d=2),
        drawn on first use and read-only from then on."""
        spec = SeedSpec(self.seed)
        m = self.num_features
        rng_m = spec.rng("rff.marginal")
        omega_m = rng_m.standard_normal((m, 1)) / self.bandwidth
        phase_m = rng_m.uniform(0.0, 2.0 * np.pi, m)
        rng_j = spec.rng("rff.joint")
        omega_j = rng_j.standard_normal((m, 2)) / self.bandwidth
        phase_j = rng_j.uniform(0.0, 2.0 * np.pi, m)
        for array in (omega_m, phase_m, omega_j, phase_j):
            array.flags.writeable = False
        return (omega_m, phase_m), (omega_j, phase_j)


def rff_embed(points, omega, phase) -> np.ndarray:
    """Mean over points of sqrt(2/m) * cos(<omega_k, p> + phase_k).

    Approximates the Gaussian-kernel mean embedding of the point set;
    invariant to point order up to float summation order.  A stack of
    point sets, shape (..., n, d), gives one embedding per set, bit for
    bit those of one call per set.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[-2] == 0:
        raise ValueError("empty input")
    feats = pts @ omega.T
    feats += phase
    np.cos(feats, out=feats)
    feats *= np.sqrt(2.0 / omega.shape[0])
    return feats.mean(axis=-2)


def _canonical_standardized(sample: ScatterSample) -> np.ndarray:
    """Sort points lexicographically and standardize each coordinate.

    Sorting first makes every downstream reduction independent of input
    point order, bit for bit.
    """
    pts = sample.points
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    return np.column_stack([_standardize(pts[:, 0]), _standardize(pts[:, 1])])


def _embed(pts: np.ndarray, spec: RFFSpec) -> np.ndarray:
    """``featurize_scatter`` of canonical standardized points, both marginal
    blocks embedded as one stack of the two columns."""
    (omega_m, phase_m), (omega_j, phase_j) = spec.blocks
    marginal = rff_embed(pts.T[:, :, None], omega_m, phase_m)
    return np.concatenate([marginal.ravel(), rff_embed(pts, omega_j, phase_j)])


def featurize_scatter(sample: ScatterSample, spec: RFFSpec) -> np.ndarray:
    """Concatenated [marginal-A, marginal-B, joint] embedding, length 3m."""
    return _embed(_canonical_standardized(sample), spec)


# ---------------------------------------------------------------------------
# Random forest (axis-aligned CART, Gini, bagging)
# ---------------------------------------------------------------------------


# The parallel node arrays of one tree, and their dtypes.
TREE_FIELDS = {"feature": np.int64, "threshold": np.float64, "left": np.int64, "right": np.int64, "vote": np.float64}


@dataclass(frozen=True)
class Forest:
    """Bagged CART trees in flat-array form.

    Each tree is a dict of parallel arrays (feature, threshold, left,
    right, vote); feature -1 marks a leaf and vote holds its class-1
    fraction.  Children are numbered after their parent, which is what
    makes every root-to-leaf walk terminate.  Prediction is the majority
    vote across trees; the vote fraction doubles as a confidence score.
    """

    num_trees: int
    trees: tuple
    num_features: int

    def __post_init__(self):
        if self.num_trees < 1:
            raise ValueError("a forest needs at least one tree")
        if self.num_trees != len(self.trees):
            raise ValueError("num_trees must match the tree list")
        for t, tree in enumerate(self.trees):
            size = tree["feature"].size
            if size == 0 or any(tree[name].shape != (size,) for name in TREE_FIELDS):
                raise ValueError(f"tree {t}: node arrays must be 1-D, non-empty and of equal length")
        # The node values of all trees are checked at once in the packed
        # table; an error names the first tree that fails any check.
        roots, feature, threshold, left, right, vote = self._packed
        sizes = np.diff(roots, append=feature.size)
        node = np.arange(feature.size)
        end = np.repeat(roots + sizes, sizes)
        split = feature >= 0
        checks = [
            (split & ((left <= node) | (left >= end)), "left child out of range or not after its parent"),
            (split & ((right <= node) | (right >= end)), "right child out of range or not after its parent"),
            (feature >= self.num_features, f"split feature beyond the {self.num_features} inputs"),
            (~np.isfinite(threshold), "thresholds must be finite"),
            (~((vote >= 0.0) & (vote <= 1.0)), "votes must lie in [0, 1]"),
        ]
        tree_of = np.repeat(np.arange(self.num_trees), sizes)
        failed = [(tree_of[np.argmax(bad)], i) for i, (bad, _) in enumerate(checks) if bad.any()]
        if failed:
            t, i = min(failed)
            raise ValueError(f"tree {t}: {checks[i][1]}")

    @cached_property
    def _packed(self):
        """All trees as one node table: one root per tree, then the node
        arrays concatenated, child indices offset into the table."""
        sizes = [tree["feature"].size for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)

        def cat(name):
            return np.concatenate([tree[name] for tree in self.trees])

        return roots, cat("feature"), cat("threshold"), cat("left") + offset, cat("right") + offset, cat("vote")


# Trees grown in lock step per block: enough segments per split search to
# amortize its fixed numpy cost, few enough to keep the packed key arrays
# small.  On a 400 x 300 training set, time was flat from 16 to 128 trees
# per block (20% slower at 8), while peak memory went 51 -> 58 -> 73 MB
# from 16 to 32 to 64.
_TREE_BLOCK = 32


def _column_ranks(X):
    """Dense ranks of each column of ``X`` and the table of its distinct
    values, both one row per column.

    ``ranks[f, i]`` is the position of ``X[i, f]`` among the distinct values
    of column f, and ``values[f, r]`` is that r-th distinct value (entries
    past a column's distinct count are unused).
    """
    cols = np.ascontiguousarray(X.T)
    order = np.argsort(cols, axis=1)
    xs = np.take_along_axis(cols, order, axis=1)
    dense = np.zeros(cols.shape, dtype=np.int64)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    values = np.zeros_like(cols)
    np.put_along_axis(values, dense, xs, axis=1)
    return ranks, values


def _best_splits(ranks, values, rows, y, counts, sizes, feats, min_leaf):
    """Best Gini split of every segment in one search.

    Segment s holds the next ``sizes[s]`` (at least two) distinct ``rows``
    (indices into the ranked features), their 0/1 labels ``y`` and their
    ``counts``, each row weighing as that many copies, and searches the
    columns ``feats[s]``.  Returns arrays (found, score, feature,
    threshold), one entry per segment.  Ties go to the earliest column in
    ``feats[s]`` order, then to the lowest split position within it.
    """
    n_all = ranks.shape[1]
    num = sizes.size
    total = rows.size
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(num), sizes)
    # One sort per candidate column of (segment, rank, label, count) keys:
    # rows of a segment stay together, ordered by value; the order among
    # tied values cannot move a split, since no split falls inside a tie.
    bits = int(counts.max()).bit_length()
    keys = ranks.take(feats.T.take(seg, axis=1) * n_all + rows)
    keys += seg * n_all
    keys <<= bits + 1
    keys += (y << bits) + counts
    keys.sort(axis=1)
    # Weighted counts left of each position, cumulated in float64, which
    # holds each one exactly, so the Gini arithmetic gives the bits it
    # gives on integer counts.
    seg_n = np.add.reduceat(counts, starts)
    seg_ones = np.add.reduceat(counts * y, starts)
    weight = keys & ((1 << bits) - 1)
    size_l = np.cumsum(weight, axis=1, dtype=np.float64)
    size_l -= (np.cumsum(seg_n) - seg_n)[seg]
    weight *= (keys >> bits) & 1
    ones_l = np.cumsum(weight, axis=1, dtype=np.float64)
    ones_l -= (np.cumsum(seg_ones) - seg_ones)[seg]
    del weight
    ranked = np.right_shift(keys, bits + 1, out=keys)
    n = seg_n[seg].astype(np.float64)
    size_r = n - size_l
    ones_r = seg_ones[seg] - ones_l
    lowest = max(min_leaf, 1)
    valid = np.zeros(keys.shape, dtype=bool)
    valid[:, :-1] = ranked[:, 1:] != ranked[:, :-1]
    valid &= (size_l >= lowest) & (size_r >= lowest)
    # The last position of a segment (size_r == 0) divides by zero; it is
    # never valid.
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = 1.0 - (ones_l / size_l) ** 2 - ((size_l - ones_l) / size_l) ** 2
        gini_right = 1.0 - (ones_r / size_r) ** 2 - ((size_r - ones_r) / size_r) ** 2
        score = (size_l * gini_left + size_r * gini_right) / n
    score[~valid] = np.inf
    col_best = np.minimum.reduceat(score, starts, axis=1)
    best = col_best.min(axis=0)
    c = np.argmax(col_best == best, axis=0)
    at = np.arange(total)
    hit = score[c[seg], at] == best[seg]
    j = np.minimum.reduceat(np.where(hit, at, total), starts)
    feature = feats[np.arange(num), c]
    lo = values[feature, ranked[c, j] - seg[j] * n_all]
    hi = values[feature, ranked[c, j + 1] - seg[j] * n_all]
    threshold = 0.5 * (lo + hi)
    # The midpoint of two adjacent floats rounds up to the larger one,
    # which would send every row left under the <= rule; fall back to the
    # left value, which still partitions correctly.
    threshold = np.where(threshold >= hi, lo, threshold)
    return best < np.inf, best, feature, threshold


def _grow_block(X, y, ranks, values, rngs, max_features, min_leaf):
    """Grow one tree per generator, all in lock step.

    Each tree draws its bootstrap, then takes its nodes in pre-order from
    an explicit stack (right child pushed first).  Every step takes one
    node per tree, so each generator makes the draws of a depth-first
    recursion in the same order and nodes are numbered in pre-order.  The
    nodes of a step that need a split share one search and one partition.
    A node holds the distinct rows of its bag (about 1 - 1/e of n) with
    their counts: copies of a row always go to the same side of a split.
    """
    n, width = X.shape
    trees = [{name: [] for name in TREE_FIELDS} for _ in rngs]
    # Per tree: its node arrays as lists, its stack and its generator.  A
    # stack entry is the distinct rows reaching a node (indices into X),
    # their counts, the node's weighted size and class-1 count, and the
    # parent's child field that gets the node's number.
    bags = [np.bincount(rng.integers(0, n, n), minlength=n) for rng in rngs]
    live = [(tree, [(np.flatnonzero(c), c[c > 0], n, int(c @ y), None, None)], rng)
            for tree, rng, c in zip(trees, rngs, bags)]
    while live:
        splits = []
        for tree, stack, rng in live:
            rows, counts, size, ones, parent, side = stack.pop()
            node = len(tree["vote"])
            if parent is not None:
                tree[side][parent] = node
            for name, value in zip(TREE_FIELDS, (-1, 0.0, -1, -1, ones / size)):
                tree[name].append(value)
            if ones == 0 or ones == size or size < 2 * min_leaf:
                continue
            splits.append((tree, stack, node, rows, counts, rng.choice(width, size=max_features, replace=False)))
        if splits:
            _, _, _, parts, weights, feat_sets = zip(*splits)
            stacked, weight = np.concatenate(parts), np.concatenate(weights)
            labels = y[stacked]
            sizes = np.array([rows.size for rows in parts])
            found, _, feature, threshold = _best_splits(
                ranks, values, stacked, labels, weight, sizes, np.stack(feat_sets), min_leaf)
            # One stable partition puts each segment's left rows first.  A found
            # split leaves no side empty; the other segments go unused.
            seg = np.repeat(np.arange(sizes.size), sizes)
            go_left = X[stacked, feature[seg]] <= threshold[seg]
            order = np.lexsort((~go_left, seg))
            stacked, weight = stacked[order], weight[order]
            # A child's (size, class-1 count) is a difference of running totals.
            tally = np.zeros((stacked.size + 1, 2), dtype=np.int64)
            np.cumsum(np.column_stack([weight, weight * labels[order]]), axis=0, out=tally[1:])
            start = np.cumsum(sizes) - sizes
            ends = np.stack([start, start + np.add.reduceat(go_left, start, dtype=np.int64), start + sizes])
            children = np.diff(tally[ends], axis=0).tolist()
            chosen = zip(splits, found, feature.tolist(), threshold.tolist(), ends.T.tolist(), *children)
            for (tree, stack, node, *_), ok, f, thr, (lo, mid, hi), left, right in chosen:
                if ok:
                    tree["feature"][node], tree["threshold"][node] = f, thr
                    stack.append((stacked[mid:hi], weight[mid:hi], *right, node, "right"))
                    stack.append((stacked[lo:mid], weight[lo:mid], *left, node, "left"))
        live = [entry for entry in live if entry[1]]
    return [{name: np.array(tree[name], dtype=dtype) for name, dtype in TREE_FIELDS.items()} for tree in trees]


def forest_train(features, labels, num_trees: int = 500, seed: SeedSpec | int = 0, min_leaf: int = 2) -> Forest:
    """Train a bagged CART forest: sqrt(width) features per split, Gini,
    grown to purity or min-leaf, deterministic given the seed.

    Trees grow in blocks of ``_TREE_BLOCK``, in lock step within a block;
    each comes out as depth-first recursion on its own generator grows it.
    """
    if not (_is_integer(num_trees) and _is_integer(min_leaf)):
        raise ValueError(f"num_trees and min_leaf must be integers, got {num_trees!r} and {min_leaf!r}")
    if num_trees < 1:
        raise ValueError("a forest needs at least one tree")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be at least 1, got {min_leaf}")
    num_trees, min_leaf = int(num_trees), int(min_leaf)
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("features must be (n_examples, width) matching labels")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    if not set(np.unique(y)) <= {-1, 1}:
        raise ValueError("labels must be +1 or -1")
    if np.unique(y).size < 2:
        raise ValueError("training needs both classes present")
    if min(np.sum(y == 1), np.sum(y == -1)) < 2:
        raise ValueError("training needs at least 2 examples per class")
    y01 = (y == 1).astype(np.int64)
    spec = as_spec(seed)
    max_features = max(1, int(round(np.sqrt(X.shape[1]))))
    ranks, values = _column_ranks(X)
    trees = []
    for start in range(0, num_trees, _TREE_BLOCK):
        block = range(start, min(start + _TREE_BLOCK, num_trees))
        rngs = [np.random.default_rng(spec.seed(f"forest.tree.{t}")) for t in block]
        trees.extend(_grow_block(X, y01, ranks, values, rngs, max_features, min_leaf))
    return Forest(num_trees=num_trees, trees=tuple(trees), num_features=X.shape[1])


def forest_predict(forest: Forest, features) -> np.ndarray:
    """Fraction of trees voting class +1 for each row of ``features``.

    Every (row, tree) walk advances one level per step through the packed
    node table, until all of them stand on a leaf.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != forest.num_features:
        raise ValueError(f"expected {forest.num_features} features, got {X.shape[1]}")
    # A NaN fails every <= test and would walk right at every node.
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    roots, feature, threshold, left, right, vote = forest._packed
    node = np.tile(roots, X.shape[0])
    row = np.repeat(np.arange(X.shape[0]), roots.size)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        go_left = X[row[active], feature[at]] <= threshold[at]
        node[active] = np.where(go_left, left[at], right[at])
        active = active[feature[node[active]] >= 0]
    votes = (vote[node] >= 0.5).reshape(X.shape[0], roots.size).sum(axis=1)
    return votes / forest.num_trees


# ---------------------------------------------------------------------------
# The trained engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RCCModel:
    rff: RFFSpec
    forest: Forest

    def __post_init__(self):
        if self.forest.num_features != 3 * self.rff.num_features:
            raise ValueError("forest width must be 3x the embedding block size")

    def judge(self, sample: ScatterSample, spec: SeedSpec | int) -> Direction:
        """This engine's verdict on ``sample``: ``rcc_predict``, which draws
        no randomness, so ``spec`` is unused."""
        return rcc_predict(self, sample)


def rcc_train(
    data: LabeledScatterDataset,
    num_features: int = 100,
    num_trees: int = 500,
    seed: SeedSpec | int = 0,
) -> RCCModel:
    """Train the direction classifier on labeled scatterplots.

    Each (sample, label) also contributes its coordinate-swapped copy with
    the flipped label; the embedding bandwidth is the median heuristic over
    the pooled standardized coordinates of the training samples.
    """
    spec = as_spec(seed)
    labels = {label for _, label in data}
    if labels != {-1, 1}:
        raise ValueError("training data must contain both labels")

    augmented = []
    for sample, label in data:
        augmented.append((sample, label))
        augmented.append((sample.swapped(), -label))

    # One canonicalization per sample serves the bandwidth and its features.
    pooled = np.concatenate([_canonical_standardized(s) for s, _ in augmented])
    bandwidth = median_heuristic(pooled.ravel())
    rff = RFFSpec(seed=spec.seed("rcc.rff"), num_features=num_features, bandwidth=bandwidth)

    ends = np.cumsum([s.n for s, _ in augmented]).tolist()
    X = np.stack([_embed(pooled[lo:hi], rff) for lo, hi in zip([0] + ends, ends)])
    y = np.array([label for _, label in augmented], dtype=np.int64)
    forest = forest_train(X, y, num_trees=num_trees, seed=spec.child("rcc.forest"))
    return RCCModel(rff=rff, forest=forest)


def rcc_predict(model: RCCModel, sample: ScatterSample) -> Direction:
    """Direction of one scatterplot: forest vote on its embedding."""
    feats = featurize_scatter(sample, model.rff)
    return _vote_direction(float(forest_predict(model.forest, feats)[0]))


def _vote_direction(frac: float) -> Direction:
    """The verdict of a class-1 vote fraction: x->y above one half, with
    score 2|frac - 1/2|."""
    return Direction.compare(frac, 0.5, abs(frac - 0.5) * 2.0)


# ---------------------------------------------------------------------------
# Model serialization: one self-describing JSON file, lossless round trip
# ---------------------------------------------------------------------------


def save_model(model: RCCModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "rff": {
            "seed": model.rff.seed,
            "num_features": model.rff.num_features,
            "bandwidth": model.rff.bandwidth,
        },
        "forest": {
            "num_trees": model.forest.num_trees,
            "num_features": model.forest.num_features,
            "trees": [{name: t[name].tolist() for name in TREE_FIELDS} for t in model.forest.trees],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _node_array(values, name, dtype) -> np.ndarray:
    """One node array from its JSON list; integer fields take JSON integers
    only, so a fractional entry is an error and not a silent truncation."""
    allowed, kind = ((int,), "integers") if dtype is np.int64 else ((int, float), "numbers")
    if not isinstance(values, list) or not all(type(v) in allowed for v in values):
        raise ValueError(f"{name} entries must be {kind}")
    return np.array(values, dtype=dtype)


def load_model(path) -> RCCModel:
    """Read a model file; a malformed one raises ValueError.

    Files that still carry the per-tree seeds older versions wrote load
    unchanged: the seeds were never used for prediction.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    try:
        counts = (doc["rff"]["seed"], doc["rff"]["num_features"], doc["forest"]["num_trees"], doc["forest"]["num_features"])
        if any(type(v) is not int or v < 0 for v in counts) or counts[0] >= 2**64:
            raise TypeError("seed, num_features and num_trees must be JSON integers, the seed in [0, 2**64)")
        if type(doc["rff"]["bandwidth"]) not in (int, float):
            raise TypeError("bandwidth must be a JSON number")
        rff = RFFSpec(
            seed=doc["rff"]["seed"],
            num_features=doc["rff"]["num_features"],
            bandwidth=float(doc["rff"]["bandwidth"]),
        )
        trees = tuple(
            {name: _node_array(t[name], name, dtype) for name, dtype in TREE_FIELDS.items()}
            for t in doc["forest"]["trees"]
        )
        forest = Forest(
            num_trees=doc["forest"]["num_trees"],
            trees=trees,
            num_features=doc["forest"]["num_features"],
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {MODEL_FORMAT} file {path}: {exc!r}") from None
    return RCCModel(rff=rff, forest=forest)
