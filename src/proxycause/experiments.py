"""Dataset loading, synthetic generators, and evaluation protocols.

Generators produce ground-truth direction data at three levels: plain
scatter samples from additive-noise mechanisms, stylized image pairs
driven by a local patch mechanism, and diffusion frame sequences.  The
evaluation harness runs repeated 75/25 splits and reports accuracies
with an exact binomial significance.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    ScatterSample, SeedSpec, Verdict, _choice, _count, _finite, _reading, _real, _standardize, as_spec,
)
from .proxy_image import Image
from .proxy_text import _check_projection, projection_vector, word_pair_scatter
# rcc_train is not called here; WRAPS row ("proxycause.experiments", "rcc_train") of perfbench/layers.py names it.
from .rcc import _augmented_features, _augmented_labels, _vote_direction, forest_predict, forest_train, rcc_train

__all__ = [
    "WordPairRecord",
    "LocalMechanism",
    "EvalReport",
    "bundled_data_path",
    "load_word_pairs",
    "filter_consensus",
    "synth_anm_pair",
    "synth_base_image",
    "random_mechanism",
    "synth_stylized_pair",
    "synth_diffusion_frames",
    "evaluate_distribution_method",
    "evaluate_feature_method",
    "binomial_significance",
    "confidence_curve",
]

ANM_MECHANISMS = ("identity", "linear", "cubic", "tanh", "piecewise")
ANM_NOISES = ("gaussian", "uniform", "none")
# Noise standard deviation of synth_anm_pair, relative to the effect's spread.
_ANM_NOISE = 0.2
CONFIDENCE_THRESHOLDS = (0, 20, 40, 50, 60, 70, 80, 90)


def bundled_data_path(name: str) -> str:
    """Absolute path of a data file shipped with the package.

    Ships: mini_corpus.txt (synthetic sentences, one per line) and
    word_pairs.csv (40 annotated pairs).  demos/build_bundled_data.py
    regenerates both.
    """
    path = os.path.join(os.path.dirname(__file__), "data", name)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


# ---------------------------------------------------------------------------
# Word-pair records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordPairRecord:
    """One annotated pair: two different words x, y and the three direction vote counts."""

    x: str
    y: str
    votes_xy: int
    votes_yx: int
    votes_none: int

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError(f"a word pair needs two different words, got {self.x!r} twice")
        for name in ("votes_xy", "votes_yx", "votes_none"):
            _count(name, getattr(self, name), 0)
        if self.total_votes == 0:
            raise ValueError("vote counts sum to zero")

    @property
    def total_votes(self) -> int:
        return self.votes_xy + self.votes_yx + self.votes_none

    @property
    def consensus(self) -> float:
        return max(self.votes_xy, self.votes_yx) / self.total_votes


_WORD_PAIR_FIELDS = ["x", "y", "votes_xy", "votes_yx", "votes_none"]


def load_word_pairs(path) -> list:
    """CSV with header x,y,votes_xy,votes_yx,votes_none; a pair given twice, in either order, is rejected."""
    with open(path, "r", encoding="utf-8", newline="") as fh, _reading(path):
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:
            raise ValueError(f"malformed CSV: {exc}") from None
        if not rows or rows[0] != _WORD_PAIR_FIELDS:
            header = rows[0] if rows else None
            raise ValueError(f"bad header {header!r}, want {','.join(_WORD_PAIR_FIELDS)}")
        records = []
        seen = {}
        for lineno, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"line {lineno}: expected 5 fields, got {len(row)}")
            x, y = row[0], row[1]
            if not all(v.isascii() and v.isdigit() for v in row[2:]):
                raise ValueError(f"line {lineno}: vote counts must be integers written in ASCII digits")
            votes = [int(v) for v in row[2:]]
            line, a, b = seen.setdefault(frozenset((x, y)), (lineno, x, y))
            if line != lineno:
                raise ValueError(f"line {lineno}: duplicate pair ({x}, {y}): line {line} gives it as ({a}, {b})")
            try:
                records.append(WordPairRecord(x, y, *votes))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return records


def filter_consensus(records, min_votes: int, total: int = 20) -> list:
    """Keep records whose majority direction got at least min_votes votes;
    returns (record, label) with label +1 when votes_xy > votes_yx.  A tie
    names no direction, so a tied record is dropped."""
    min_votes, total = _count("min_votes", min_votes, 0), _count("total", total, 1)
    if min_votes > total:
        raise ValueError("min_votes cannot exceed the annotator total")
    kept = []
    for r in records:
        if r.votes_xy != r.votes_yx and max(r.votes_xy, r.votes_yx) >= min_votes:
            kept.append((r, 1 if r.votes_xy > r.votes_yx else -1))
    return kept


# ---------------------------------------------------------------------------
# Synthetic scatter generator
# ---------------------------------------------------------------------------


def synth_anm_pair(
    n: int,
    mechanism: str = "cubic",
    noise: str = "gaussian",
    seed: SeedSpec | int = 0,
):
    """(ScatterSample, true label) from a seeded additive-noise mechanism.

    The cause is a three-component Gaussian mixture, except for the
    linear mechanism where it stays a single Gaussian so the pair is the
    classical non-identifiable control.  A seeded coin decides which
    coordinate is the cause; label +1 means the first coordinate.
    """
    n = _count("n", n, 20)
    _choice("mechanism", mechanism, ANM_MECHANISMS)
    _choice("noise", noise, ANM_NOISES)
    rng = as_spec(seed).rng("synth.anm")

    if mechanism == "linear":
        cause = rng.standard_normal(n)
    else:
        means = rng.uniform(-2.0, 2.0, 3)
        sds = rng.uniform(0.4, 0.8, 3)
        comp = rng.integers(0, 3, n)
        cause = rng.standard_normal(n) * sds[comp] + means[comp]
    cause = _standardize(cause)

    if mechanism == "identity":
        effect = cause.copy()
    elif mechanism == "linear":
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        effect = slope * cause
    elif mechanism == "cubic":
        effect = cause**3
    elif mechanism == "tanh":
        effect = np.tanh(rng.uniform(1.0, 3.0) * cause)
    else:
        kink = rng.uniform(0.2, 0.5)
        effect = np.where(cause < 0.0, cause, kink * cause)

    # Each mechanism is strictly monotone, so the effect of the standardized
    # (non-constant) cause has a positive scale.
    scale = effect.std()
    if noise == "gaussian":
        effect = effect + rng.standard_normal(n) * _ANM_NOISE * scale
    elif noise == "uniform":
        half = _ANM_NOISE * scale * np.sqrt(3.0)
        effect = effect + rng.uniform(-half, half, n)
    effect = _standardize(effect)

    if rng.random() < 0.5:
        return ScatterSample.from_ab(cause, effect), 1
    return ScatterSample.from_ab(effect, cause), -1


# ---------------------------------------------------------------------------
# Stylized image pairs (local patch mechanism)
# ---------------------------------------------------------------------------

# random_mechanism's range of the row gain alpha, the gain on the tile
# mean, for each nonlinearity g.  The [0,1] clip truncates the additive
# noise, and that truncation is itself a dependence signal.  The tanh and
# identity ranges keep outputs clear of it (at most 0.1% and 0.5% of pixels
# clipped at CLI seeds 0-9): tanh(1.5) = 0.905 leaves head room for noise
# while the slope still varies about fourfold across the input range.  The
# cube range does not: cubing takes dark tiles near 0, where the noise
# crosses the lower clip on 3.6-10.7% of pixels at those seeds.
_GAINS = {"identity": (0.7, 1.0), "tanh": (1.2, 1.5), "cube": (0.6, 1.0)}
NONLINEARITIES = tuple(_GAINS)


@dataclass(frozen=True)
class LocalMechanism:
    """Per-tile map y_S = g(beta x_S) + noise over disjoint k-by-k tiles."""

    k: int
    beta: np.ndarray
    row_constant: bool
    g: str
    noise_scale: float

    def __post_init__(self):
        _count("k", self.k, 1)
        beta = _finite("beta", self.beta, 1)
        if beta.shape != (self.k * self.k, self.k * self.k):
            raise ValueError(f"beta must be {self.k * self.k}x{self.k * self.k}")
        if self.row_constant and np.any(beta != beta[:, :1]):
            raise ValueError("row_constant mechanism needs constant rows in beta")
        _choice("nonlinearity", self.g, NONLINEARITIES)
        _real("noise_scale", self.noise_scale, 0.0, closed=True)
        beta = beta.copy()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    def apply(self, flat_tile: np.ndarray) -> np.ndarray:
        z = self.beta @ flat_tile
        if self.g == "tanh":
            return np.tanh(z)
        if self.g == "cube":
            return z**3
        return z


def random_mechanism(
    k: int = 10,
    row_constant: bool = True,
    g: str = "tanh",
    noise_scale: float = 0.05,
    seed: SeedSpec | int = 0,
) -> LocalMechanism:
    """Seeded mechanism whose mixing weights keep g's input in a useful
    range for tile intensities in [0,1] (rows of beta sum to O(1))."""
    kk = _count("k", k, 1) ** 2
    lo, hi = _GAINS[_choice("nonlinearity", g, NONLINEARITIES)]
    rng = as_spec(seed).rng("mechanism.beta")
    if row_constant:
        alpha = rng.uniform(lo, hi, kk)
        beta = np.repeat(alpha[:, None], kk, axis=1) / kk
    else:
        beta = rng.uniform(lo, hi, (kk, kk)) / kk
        beta *= rng.random((kk, kk)) < 0.7
    return LocalMechanism(k=k, beta=beta, row_constant=row_constant, g=g, noise_scale=noise_scale)


def synth_base_image(size: int, seed: SeedSpec | int = 0) -> Image:
    """Smooth random grayscale field: bilinear upsampling of a 2x2 uniform
    grid, normalized to span [0.15, 1].

    The floor of 0.15 keeps pixel values away from the hard clip at zero,
    so additive noise applied downstream is rarely truncated.
    """
    size = _count("size", size, 2)
    rng = as_spec(seed).rng("base.image")
    coarse = rng.random((2, 2))
    src = np.linspace(0.0, 1.0, size)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, 1)
    frac = src - i0
    top = coarse[np.ix_(i0, i0)] * (1 - frac[None, :]) + coarse[np.ix_(i0, i1)] * frac[None, :]
    bot = coarse[np.ix_(i1, i0)] * (1 - frac[None, :]) + coarse[np.ix_(i1, i1)] * frac[None, :]
    field = top * (1 - frac[:, None]) + bot * frac[:, None]
    lo, hi = field.min(), field.max()
    if hi == lo:
        raise ValueError("degenerate base image")
    return Image(0.15 + 0.85 * (field - lo) / (hi - lo))


def synth_stylized_pair(base: Image, mech: LocalMechanism, seed: SeedSpec | int = 0):
    """(stylized Image, clipped fraction): apply the local mechanism to
    every disjoint k-by-k tile of the base image and add tile noise."""
    k = mech.k
    if base.height % k or base.width % k:
        raise ValueError(f"image dimensions must be divisible by {k}")
    if base.channels != 1:
        raise ValueError("stylization expects a grayscale image")
    rng = as_spec(seed).rng("stylize.noise")
    out = np.empty((base.height, base.width))
    for top in range(0, base.height, k):
        for left in range(0, base.width, k):
            tile = base.pixels[top : top + k, left : left + k]
            styled = mech.apply(tile.ravel())
            if mech.noise_scale > 0.0:
                styled = styled + rng.normal(0.0, mech.noise_scale, k * k)
            out[top : top + k, left : left + k] = styled.reshape(k, k)
    clipped = float(np.mean((out < 0.0) | (out > 1.0)))
    return Image(np.clip(out, 0.0, 1.0)), clipped


# ---------------------------------------------------------------------------
# Diffusion frames
# ---------------------------------------------------------------------------


def diffusion_step(field: np.ndarray) -> np.ndarray:
    """One explicit 5-point heat step of size _LAM (stable in (0, 0.25)) with
    zero-flux boundaries; conserves the total exactly (up to float roundoff)."""
    padded = np.pad(field, 1, mode="edge")
    lap = (
        padded[:-2, 1:-1]
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
        - 4.0 * field
    )
    return field + _LAM * lap


def _blur_schedule(r2: float, gaps: int) -> list:
    """Stencil step counts that shrink the blob peak by _BLUR each gap.  A
    gaussian of squared radius r2 stepped m times behaves like one of squared
    radius r2 + 2*_LAM*m, so a constant peak ratio needs step counts that
    grow geometrically with the gap index."""
    steps = []
    for _ in range(gaps):
        m = max(1, int(round(r2 * (1.0 / _BLUR - 1.0) / (2.0 * _LAM))))
        steps.append(m)
        r2 = r2 + 2.0 * _LAM * m
    return steps


# The diffusion stack: _NUM_BLOBS identical blobs of radius _RADIUS at
# least _SEP apart inside a _MARGIN border, amplitude _AMP on a _PEDESTAL,
# each gap shrinking the peaks by _BLUR under heat steps of size _LAM, with
# iid pixel noise of standard deviation _NOISE after every gap.
_NUM_BLOBS = 34
_RADIUS = 8.0
_SEP = 32.0
_AMP = 0.5
_PEDESTAL = 0.3
_MARGIN = 0.12
_BLUR = 0.85
_LAM = 0.2
_LEAD_IN = 3
_NOISE = 0.04


def synth_diffusion_frames(size: int, num_frames: int = 8, seed: SeedSpec | int = 0) -> list:
    """Frames of identical sparse blobs spreading under the heat stencil,
    with iid pixel noise added after every recorded or lead-in gap.

    Identical blob profiles keep the patch-mean relation between any two
    frames single valued, and the equal-blur gap schedule keeps adjacent
    frames equally separated, so the ordering stays recoverable across the
    whole stack.  The _LEAD_IN gaps run before the first recorded frame so
    that every recorded frame carries the same kind of accumulated,
    partially smoothed noise history; without them the first frame is
    statistically special and pairwise verdicts against it degrade.
    """
    size, num_frames = _count("size", size, 1), _count("num_frames", num_frames, 2)
    rng = as_spec(seed).rng("diffusion")
    yy, xx = np.mgrid[0:size, 0:size]
    lo, hi = size * _MARGIN, size * (1.0 - _MARGIN)
    centers = []
    for _ in range(4000):
        if len(centers) == _NUM_BLOBS:
            break
        c = rng.uniform(lo, hi, 2)
        if all((c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2 >= _SEP * _SEP for p in centers):
            centers.append(c)
    # Seed the field _LEAD_IN gaps before the first recorded frame: sharper
    # blobs, higher amplitude, so that after the lead-in it lands on _RADIUS
    # and _AMP.
    r_seed2 = _RADIUS * _RADIUS * _BLUR**_LEAD_IN
    amp_seed = _AMP / _BLUR**_LEAD_IN
    field = np.full((size, size), _PEDESTAL)
    for cy, cx in centers:
        u = (yy - cy) ** 2 + (xx - cx) ** 2
        field += amp_seed * np.exp(-u / (2.0 * r_seed2))
    field = np.clip(field, 0.0, 1.0)
    frames = []
    schedule = _blur_schedule(r_seed2, _LEAD_IN + num_frames - 1)
    for gap, m in enumerate(schedule):
        for _ in range(m):
            field = diffusion_step(field)
        field = field + rng.normal(0.0, _NOISE, field.shape)
        field = np.clip(field, 0.0, 1.0)
        if gap >= _LEAD_IN - 1:
            frames.append(Image(field))
    return frames


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Repeated-split evaluation results."""

    accuracies: tuple
    mean: float
    std: float
    predictions: tuple
    excluded: tuple
    num_pairs: int
    significance: float


def _check_evaluation(split, repeats, num_trees, num_features=None) -> None:
    """The split share, the repeat count and the forest sizes of every evaluation."""
    _real("split", split, 0.0, 1.0)
    _count("repeats", repeats, 1)
    _count("num_trees", num_trees, 1)
    if num_features is not None:
        _count("num_features", num_features, 1)


def _check_pair_count(labels, excluded) -> int:
    """The number of labeled pairs, which must be at least 8."""
    n = len(labels)
    if n < 8:
        why = f" ({len(excluded)} excluded, first {excluded[0][0]}: {excluded[0][1]})" if excluded else ""
        raise ValueError(f"need at least 8 labeled pairs, got {n}{why}")
    return n


def _repeated_splits(labels, names, excluded, judge, split, repeats, seed) -> EvalReport:
    """The repeated-split loop of every evaluation, whose caller has checked its arguments.

    Repeat r shuffles the pairs with the ``eval.shuffle.{r}`` stream and
    calls ``judge(train_idx, test_idx, spec)`` with the first `split` share
    for training, the rest for testing and ``spec`` the child seed
    ``eval.train.{r}``; it returns one Verdict per test index.  Fewer
    than 8 labeled pairs raise a ValueError that counts the excluded pairs
    and gives the first one's reason.
    """
    n = _check_pair_count(labels, excluded)
    spec = as_spec(seed)
    n_train = min(max(int(round(split * n)), 1), n - 1)
    accuracies = []
    all_predictions = []
    for r in range(repeats):
        perm = spec.rng(f"eval.shuffle.{r}").permutation(n)
        test_idx = perm[n_train:]
        verdicts = judge(perm[:n_train], test_idx, spec.child(f"eval.train.{r}"))
        repeat_preds = []
        correct = 0
        for i, verdict in zip(test_idx, verdicts):
            ok = (1 if verdict is Verdict.X_TO_Y else -1) == labels[i]
            correct += ok
            repeat_preds.append((names[i], verdict.value, labels[i], bool(ok)))
        accuracies.append(correct / len(test_idx))
        all_predictions.append(tuple(repeat_preds))

    accs = np.array(accuracies)
    mean = float(accs.mean())
    return EvalReport(
        accuracies=tuple(accuracies),
        mean=mean,
        std=float(accs.std()),
        predictions=tuple(all_predictions),
        excluded=tuple(excluded),
        num_pairs=n,
        significance=binomial_significance(mean, n),
    )


def _project_pairs(pairs, project):
    """(values, labels, names, excluded) of the (record, label) pairs, each
    value ``project(record)``.  A pair whose projection raises a ValueError
    goes to `excluded` as (name, reason) rather than being silently dropped."""
    values, labels, names, excluded = [], [], [], []
    for record, label in pairs:
        name = f"{record.x},{record.y}"
        try:
            values.append(project(record))
        except ValueError as exc:
            excluded.append((name, str(exc)))
            continue
        labels.append(label)
        names.append(name)
    return values, labels, names, excluded


def evaluate_distribution_method(
    pairs,
    kind,
    vocab,
    index,
    emb=None,
    split: float = 0.75,
    repeats: int = 10,
    num_features: int = 100,
    num_trees: int = 500,
    seed: SeedSpec | int = 0,
) -> EvalReport:
    """Score one projection with the scatter-direction engine.

    `pairs` is the (record, label) list from filter_consensus; a pair whose
    scatter fails is listed under the report's `excluded`.

    One RFF draw per study: ``rcc_train``'s on all usable pairs at ``seed``,
    its bandwidth from their standardized scatters (test inputs, never
    labels).  A repeat varies the split and the forest, not the RFF draw.
    """
    _check_projection(kind, emb)
    _check_evaluation(split, repeats, num_trees, num_features)
    samples, labels, names, excluded = _project_pairs(
        pairs, lambda record: word_pair_scatter(record.x, record.y, kind, vocab, index, emb)
    )
    _check_pair_count(labels, excluded)
    _, X = _augmented_features(samples, num_features, seed)

    def judge(train_idx, test_idx, spec):
        y = _augmented_labels([labels[i] for i in train_idx])
        rows = np.stack([2 * train_idx, 2 * train_idx + 1], axis=1).ravel()
        forest = forest_train(X[rows], y, num_trees=num_trees, seed=spec.child("rcc.forest"))
        return [_vote_direction(frac).verdict for frac in forest_predict(forest, X[2 * test_idx])]

    return _repeated_splits(labels, names, excluded, judge, split, repeats, seed)


def evaluate_feature_method(
    pairs,
    kind,
    vocab,
    index,
    emb=None,
    num_trees: int = 500,
    split: float = 0.75,
    repeats: int = 10,
    seed: SeedSpec | int = 0,
) -> EvalReport:
    """Score one projection with a forest on concatenated (x, y) vectors;
    a pair whose projection fails is listed under the report's `excluded`."""
    _check_projection(kind, emb)
    _check_evaluation(split, repeats, num_trees)

    def project(record):
        px = projection_vector(kind, record.x, vocab, index, emb)
        py = projection_vector(kind, record.y, vocab, index, emb)
        return np.concatenate([px, py])

    features, labels, names, excluded = _project_pairs(pairs, project)
    # np.array, not np.stack: with no usable pair, the count check in
    # _repeated_splits reports it.
    X, y = np.array(features), np.array(labels)

    def judge(train_idx, test_idx, spec):
        forest = forest_train(X[train_idx], y[train_idx], num_trees=num_trees, seed=spec)
        return [_vote_direction(frac).verdict for frac in forest_predict(forest, X[test_idx])]

    return _repeated_splits(labels, names, excluded, judge, split, repeats, seed)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def binomial_significance(accuracy: float, n: int, p0: float = 0.5) -> float:
    """One-sided exact binomial tail P[Bin(n, p0) >= round(accuracy n)].

    With p0 = a/d exactly (the float's own ratio) and b = d - a, the tail is
    the integer sum of comb(n, i) a^i b^(n-i) over d^n, rounded to float once
    at the end; the round of accuracy n is half up.
    """
    _real("accuracy", accuracy, 0.0, 1.0, closed=True)
    n = _count("n", n, 1)
    _real("p0", p0, 0.0, 1.0)
    k = int(math.floor(accuracy * n + 0.5))  # in [0, n], as accuracy is in [0, 1]
    a, d = float(p0).as_integer_ratio()
    b = d - a
    total = term = math.comb(n, k) * a**k * b ** (n - k)
    for i in range(k, n):
        term = term * (n - i) * a // ((i + 1) * b)  # exact: the quotient is the next integer term
        total += term
    return total / d**n  # int / int rounds correctly, once


def confidence_curve(records, correct) -> list:
    """Accuracy restricted to pairs with consensus >= each of the
    CONFIDENCE_THRESHOLDS (in percent); empty buckets report accuracy None.

    `records` and `correct` align: one verdict-correctness flag per pair.
    """
    records = list(records)
    correct = list(correct)
    if len(records) != len(correct):
        raise ValueError("records and correctness flags must align")
    curve = []
    for t in CONFIDENCE_THRESHOLDS:
        hits = [c for r, c in zip(records, correct) if r.consensus * 100.0 >= t]
        if hits:
            curve.append((t, sum(hits) / len(hits), len(hits)))
        else:
            curve.append((t, None, 0))
    return curve
