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
from fractions import Fraction

import numpy as np

from .core import LabeledScatterDataset, ScatterSample, SeedSpec, Verdict, _standardize, as_spec
from .proxy_image import Image
from .proxy_text import projection_vector, word_pair_scatter
from .rcc import _vote_direction, forest_predict, forest_train, rcc_predict, rcc_train

__all__ = [
    "WordPairRecord",
    "LocalMechanism",
    "EvalReport",
    "bundled_data_path",
    "load_word_pairs",
    "save_word_pairs",
    "filter_consensus",
    "synth_anm_pair",
    "synth_base_image",
    "random_mechanism",
    "synth_stylized_pair",
    "diffusion_step",
    "synth_diffusion_frames",
    "evaluate_scatter_dataset",
    "evaluate_distribution_method",
    "evaluate_feature_method",
    "binomial_significance",
    "confidence_curve",
]

ANM_MECHANISMS = ("identity", "linear", "cubic", "tanh", "piecewise")
ANM_NOISES = ("gaussian", "uniform", "none")
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
    """One annotated pair: x, y and the three direction vote counts."""

    x: str
    y: str
    votes_xy: int
    votes_yx: int
    votes_none: int

    def __post_init__(self):
        if min(self.votes_xy, self.votes_yx, self.votes_none) < 0:
            raise ValueError("vote counts must be non-negative")
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
    """CSV with header x,y,votes_xy,votes_yx,votes_none; duplicates rejected."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:
            raise ValueError(f"malformed CSV: {exc}") from None
    if not rows or rows[0] != _WORD_PAIR_FIELDS:
        header = rows[0] if rows else None
        raise ValueError(f"bad header {header!r}, want {','.join(_WORD_PAIR_FIELDS)}")
    records = []
    seen = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(row)}")
        x, y = row[0], row[1]
        if not all(v.isascii() and v.isdigit() for v in row[2:]):
            raise ValueError(f"line {lineno}: vote counts must be integers written in ASCII digits")
        votes = [int(v) for v in row[2:]]
        if (x, y) in seen:
            raise ValueError(f"line {lineno}: duplicate pair ({x}, {y})")
        seen.add((x, y))
        try:
            records.append(WordPairRecord(x, y, *votes))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return records


def save_word_pairs(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_WORD_PAIR_FIELDS)
        for r in records:
            writer.writerow([r.x, r.y, r.votes_xy, r.votes_yx, r.votes_none])


def filter_consensus(records, min_votes: int, total: int = 20) -> list:
    """Keep records whose majority direction got at least min_votes votes;
    returns (record, label) with label +1 when votes_xy >= votes_yx."""
    if min_votes > total:
        raise ValueError("min_votes cannot exceed the annotator total")
    kept = []
    for r in records:
        if max(r.votes_xy, r.votes_yx) >= min_votes:
            kept.append((r, 1 if r.votes_xy >= r.votes_yx else -1))
    return kept


# ---------------------------------------------------------------------------
# Synthetic scatter generator
# ---------------------------------------------------------------------------


def synth_anm_pair(
    n: int,
    mechanism: str = "cubic",
    noise: str = "gaussian",
    seed: SeedSpec | int = 0,
    noise_scale: float = 0.2,
):
    """(ScatterSample, true label) from a seeded additive-noise mechanism.

    The cause is a three-component Gaussian mixture, except for the
    linear mechanism where it stays a single Gaussian so the pair is the
    classical non-identifiable control.  A seeded coin decides which
    coordinate is the cause; label +1 means the first coordinate.
    """
    if n < 20:
        raise ValueError("need n >= 20")
    if mechanism not in ANM_MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if noise not in ANM_NOISES:
        raise ValueError(f"unknown noise {noise!r}")
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

    scale = effect.std()
    if scale == 0.0:
        scale = 1.0
    if noise == "gaussian":
        effect = effect + rng.standard_normal(n) * noise_scale * scale
    elif noise == "uniform":
        half = noise_scale * scale * np.sqrt(3.0)
        effect = effect + rng.uniform(-half, half, n)
    effect = _standardize(effect)

    if rng.random() < 0.5:
        return ScatterSample.from_ab(cause, effect), 1
    return ScatterSample.from_ab(effect, cause), -1


# ---------------------------------------------------------------------------
# Stylized image pairs (local patch mechanism)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalMechanism:
    """Per-tile map y_S = g(beta x_S) + noise over disjoint k-by-k tiles."""

    k: int
    beta: np.ndarray
    row_constant: bool
    g: str
    noise_scale: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("tile size must be positive")
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (self.k * self.k, self.k * self.k):
            raise ValueError(f"beta must be {self.k * self.k}x{self.k * self.k}")
        if self.row_constant and np.any(beta != beta[:, :1]):
            raise ValueError("row_constant mechanism needs constant rows in beta")
        if self.g not in ("identity", "tanh", "cube"):
            raise ValueError(f"unknown nonlinearity {self.g!r}")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0.0):
            raise ValueError("noise_scale must be non-negative")
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
    rng = as_spec(seed).rng("mechanism.beta")
    kk = k * k
    # Row weights sum to alpha, so alpha is the gain on the tile mean.  The
    # per-g ranges keep outputs clear of the [0,1] clip (clipping truncates
    # the additive noise and that truncation is itself a dependence signal):
    # tanh(1.5) = 0.905 leaves head room for noise while the slope still
    # varies about fourfold across the input range.
    if g == "cube":
        lo, hi = 0.6, 1.0
    elif g == "tanh":
        lo, hi = 1.2, 1.5
    else:
        lo, hi = 0.7, 1.0
    if row_constant:
        alpha = rng.uniform(lo, hi, kk)
        beta = np.repeat(alpha[:, None], kk, axis=1) / kk
    else:
        beta = rng.uniform(lo, hi, (kk, kk)) / kk
        beta *= rng.random((kk, kk)) < 0.7
    return LocalMechanism(k=k, beta=beta, row_constant=row_constant, g=g, noise_scale=noise_scale)


def synth_base_image(
    size: int,
    seed: SeedSpec | int = 0,
    cells: int = 2,
    low: float = 0.15,
    high: float = 1.0,
) -> Image:
    """Smooth random grayscale field: bilinear upsampling of a coarse
    uniform grid, normalized to span [low, high].

    The default floor of 0.15 keeps pixel values away from the hard clip
    at zero, so additive noise applied downstream is rarely truncated.
    """
    if size < 2 or cells < 2:
        raise ValueError("size and cells must be at least 2")
    if not 0.0 <= low < high <= 1.0:
        raise ValueError("need 0 <= low < high <= 1")
    rng = as_spec(seed).rng("base.image")
    coarse = rng.random((cells, cells))
    src = np.linspace(0.0, cells - 1.0, size)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, cells - 1)
    frac = src - i0
    top = coarse[np.ix_(i0, i0)] * (1 - frac[None, :]) + coarse[np.ix_(i0, i1)] * frac[None, :]
    bot = coarse[np.ix_(i1, i0)] * (1 - frac[None, :]) + coarse[np.ix_(i1, i1)] * frac[None, :]
    field = top * (1 - frac[:, None]) + bot * frac[:, None]
    lo, hi = field.min(), field.max()
    if hi == lo:
        raise ValueError("degenerate base image")
    return Image(low + (high - low) * (field - lo) / (hi - lo))


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


def diffusion_step(field: np.ndarray, lam: float = 0.2) -> np.ndarray:
    """One explicit 5-point heat step with zero-flux boundaries; conserves
    the total exactly (up to float roundoff)."""
    if not 0.0 < lam < 0.25:
        raise ValueError("stable stencil needs 0 < lam < 0.25")
    padded = np.pad(field, 1, mode="edge")
    lap = (
        padded[:-2, 1:-1]
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
        - 4.0 * field
    )
    return field + lam * lap


def _blur_schedule(r2: float, blur: float, gaps: int, lam: float) -> list:
    """Stencil step counts that shrink the blob peak by the same factor each
    gap.  A gaussian of squared radius r2 stepped m times behaves like one of
    squared radius r2 + 2*lam*m, so constant peak ratio `blur` needs step
    counts that grow geometrically with the gap index."""
    steps = []
    for _ in range(gaps):
        m = max(1, int(round(r2 * (1.0 / blur - 1.0) / (2.0 * lam))))
        steps.append(m)
        r2 = r2 + 2.0 * lam * m
    return steps


# The diffusion stack: _NUM_BLOBS identical blobs of radius _RADIUS at
# least _SEP apart inside a _MARGIN border, amplitude _AMP on a _PEDESTAL,
# each gap shrinking the peaks by _BLUR under heat steps of size _LAM.
_NUM_BLOBS = 34
_RADIUS = 8.0
_SEP = 32.0
_AMP = 0.5
_PEDESTAL = 0.3
_MARGIN = 0.12
_BLUR = 0.85
_LAM = 0.2
_LEAD_IN = 3


def synth_diffusion_frames(
    size: int, num_frames: int = 8, seed: SeedSpec | int = 0, noise_scale: float = 0.04
) -> list:
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
    if num_frames < 2:
        raise ValueError("need at least two frames")
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
    schedule = _blur_schedule(r_seed2, _BLUR, _LEAD_IN + num_frames - 1, _LAM)
    for gap, m in enumerate(schedule):
        for _ in range(m):
            field = diffusion_step(field, _LAM)
        if noise_scale > 0.0:
            field = field + rng.normal(0.0, noise_scale, field.shape)
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


def _repeated_splits(labels, names, excluded, judge, split, repeats, seed) -> EvalReport:
    """The repeated-split loop of every evaluation.

    Repeat r shuffles the pairs with the ``eval.shuffle.{r}`` stream and
    calls ``judge(train_idx, test_idx, spec)`` with the first `split` share
    for training, the rest for testing and ``spec`` the child seed
    ``eval.train.{r}``; it returns one Verdict per test index.
    """
    n = len(labels)
    if n < 8:
        raise ValueError("need at least 8 labeled pairs")
    if not 0.0 < split < 1.0:
        raise ValueError("split must be in (0, 1)")
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


def _scatter_judge(samples, labels, trainer, predictor, num_features, num_trees):
    """Train ``trainer`` (the embedding classifier when None) on the
    training scatters and call ``predictor`` on each test scatter."""
    if trainer is None:

        def trainer(data: LabeledScatterDataset, spec: SeedSpec):
            return rcc_train(data, num_features=num_features, num_trees=num_trees, seed=spec)

    def judge(train_idx, test_idx, spec):
        model = trainer(LabeledScatterDataset(tuple((samples[i], labels[i]) for i in train_idx)), spec)
        return [predictor(model, samples[i]).verdict for i in test_idx]

    return judge


def evaluate_scatter_dataset(
    samples,
    labels,
    names=None,
    trainer=None,
    predictor=rcc_predict,
    split: float = 0.75,
    repeats: int = 10,
    num_features: int = 100,
    num_trees: int = 500,
    seed: SeedSpec | int = 0,
) -> EvalReport:
    """Repeated random-split evaluation of a scatter-direction engine.

    Per repeat: seeded shuffle, train on the first `split` share, verdicts
    on the rest.  `trainer(train_data, spec)` and `predictor(model,
    sample)` are injectable so oracle and baseline engines can be scored
    by the same harness; the default is the embedding classifier.
    """
    samples = list(samples)
    labels = list(labels)
    if len(samples) != len(labels):
        raise ValueError("samples and labels must align")
    if names is None:
        names = [str(i) for i in range(len(samples))]
    judge = _scatter_judge(samples, labels, trainer, predictor, num_features, num_trees)
    return _repeated_splits(labels, names, (), judge, split, repeats, seed)


def evaluate_distribution_method(
    pairs,
    kind,
    vocab,
    index,
    emb=None,
    trainer=None,
    predictor=rcc_predict,
    split: float = 0.75,
    repeats: int = 10,
    num_features: int = 100,
    num_trees: int = 500,
    seed: SeedSpec | int = 0,
) -> EvalReport:
    """Score one projection with the scatter-direction engine.

    `pairs` is the (record, label) list from filter_consensus.  Pairs whose
    projection fails (out-of-vocabulary or degenerate) are excluded and
    listed in the report rather than silently dropped.
    """
    samples, labels, names, excluded = [], [], [], []
    for record, label in pairs:
        name = f"{record.x},{record.y}"
        try:
            sample = word_pair_scatter(record.x, record.y, kind, vocab, index, emb)
        except ValueError as exc:
            excluded.append((name, str(exc)))
            continue
        samples.append(sample)
        labels.append(label)
        names.append(name)
    judge = _scatter_judge(samples, labels, trainer, predictor, num_features, num_trees)
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
    """Score one projection with a forest on concatenated (x, y) vectors."""
    features, labels, names, excluded = [], [], [], []
    for record, label in pairs:
        name = f"{record.x},{record.y}"
        try:
            px = projection_vector(kind, record.x, vocab, index, emb)
            py = projection_vector(kind, record.y, vocab, index, emb)
        except ValueError as exc:
            excluded.append((name, str(exc)))
            continue
        features.append(np.concatenate([px, py]))
        labels.append(label)
        names.append(name)
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

    Computed in exact rational arithmetic (round half up), then converted
    to float once at the end.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must be in [0, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must be in (0, 1)")
    k = int(math.floor(accuracy * n + 0.5))
    k = min(max(k, 0), n)
    p = Fraction(p0)
    q = 1 - p
    tail = Fraction(0)
    for i in range(k, n + 1):
        tail += math.comb(n, i) * p**i * q ** (n - i)
    return float(tail)


def confidence_curve(records, correct, thresholds=CONFIDENCE_THRESHOLDS) -> list:
    """Accuracy restricted to pairs with consensus >= each threshold (in
    percent); empty buckets report accuracy None.

    `records` and `correct` align: one verdict-correctness flag per pair.
    """
    records = list(records)
    correct = list(correct)
    if len(records) != len(correct):
        raise ValueError("records and correctness flags must align")
    curve = []
    for t in thresholds:
        hits = [c for r, c in zip(records, correct) if r.consensus * 100.0 >= t]
        if hits:
            curve.append((t, sum(hits) / len(hits), len(hits)))
        else:
            curve.append((t, None, 0))
    return curve
