"""Additive-noise-model direction engine.

Fits y = F(x) + n and x = G(y) + e by kernel ridge regression on one half
of the sample, measures independence between input and residual on the
other half with a permutation HSIC test, and picks the direction whose
residuals look more independent.  Residuals are scored on held-out points
because in-sample residuals are biased toward independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Direction, ScatterSample, SeedSpec, _count, _finite, _real, _standardize, as_spec
from .independence import (
    _gaussian,
    _permutation_pvalue,
    _permutation_schedule,
    gram_matrix,
    median_heuristic,
)

__all__ = ["AnmConfig", "Regressor", "kernel_ridge_fit", "residuals", "anm_direction"]


@dataclass(frozen=True)
class AnmConfig:
    ridge_lambda: float = 1e-3
    num_permutations: int = 499
    fit_fraction: float = 0.5

    def __post_init__(self):
        _real("ridge_lambda", self.ridge_lambda, 0.0)
        _count("num_permutations", self.num_permutations, 99)
        _real("fit_fraction", self.fit_fraction, 0.0, 1.0)

    def judge(self, sample: ScatterSample, spec: SeedSpec | int) -> Direction:
        """This engine's verdict on ``sample``: ``anm_direction`` under ``spec``."""
        return anm_direction(sample, self, seed=spec)


@dataclass(frozen=True)
class Regressor:
    """Kernel ridge regressor in dual form: F(t) = sum_i alpha_i k(t, x_i),
    with k the Gaussian kernel of lengthscale ``bandwidth``."""

    x_train: np.ndarray
    alpha: np.ndarray
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "x_train", _finite("x_train", self.x_train, 1))
        object.__setattr__(self, "alpha", _finite("alpha", self.alpha, 1))
        if self.x_train.shape != self.alpha.shape:
            raise ValueError("coefficient count must equal training-input count")
        _real("bandwidth", self.bandwidth, 0.0)

    def predict(self, x) -> np.ndarray:
        x = _finite("x", np.ravel(x), 1)
        return _gaussian(x, self.x_train, self.bandwidth) @ self.alpha


def kernel_ridge_fit(x, y, cfg: AnmConfig = AnmConfig()) -> Regressor:
    """Fit min_F sum (y - F(x))^2 + lambda ||F||^2 with a Gaussian kernel.

    Bandwidth comes from the median heuristic on x; degenerate x (all
    values equal) falls back to a unit bandwidth, in which case the ridge
    solution is the constant that shrinks toward the mean of y.
    """
    x = _finite("x", np.ravel(x), 10)
    y = _finite("y", np.ravel(y), 10)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    try:
        bandwidth = median_heuristic(x)
    except ValueError:
        bandwidth = 1.0
    K = gram_matrix(x, bandwidth)
    # K + lambda I in place: off the diagonal K_ij + 0.0 is exact, as K >= +0.
    K[np.diag_indices(x.size)] += cfg.ridge_lambda
    alpha = np.linalg.solve(K, y)
    return Regressor(x_train=x, alpha=alpha, bandwidth=bandwidth)


def residuals(reg: Regressor, x, y) -> np.ndarray:
    """r_i = y_i - F(x_i)."""
    x = _finite("x", np.ravel(x), 1)
    y = _finite("y", np.ravel(y), 1)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    return y - reg.predict(x)


def _directional_pvalue(x_fit, y_fit, x_test, y_test, cfg, perms) -> float:
    reg = kernel_ridge_fit(x_fit, y_fit, cfg)
    r = residuals(reg, x_test, y_test)
    return _permutation_pvalue(x_test, r, median_heuristic(x_test), median_heuristic(r), perms)


def anm_direction(sample: ScatterSample, cfg: AnmConfig = AnmConfig(), seed: SeedSpec | int = 0) -> Direction:
    """Decide the causal direction of a scatter sample via the ANM footprint.

    Both coordinates are standardized; a seeded permutation splits the
    sample into a fit half and a test half; each direction is fitted on
    the fit half and its input/residual HSIC p-value is computed on the
    test half.  The verdict is the direction with the larger p-value and
    the score is the absolute log-p gap (p floored at 1/(1+B)).

    Both directional tests share one permutation schedule, which makes the
    engine exactly antisymmetric: swapping the coordinates flips the
    verdict and preserves the score bit for bit.
    """
    if sample.n < 20:
        raise ValueError("direction test needs at least 20 points")
    spec = as_spec(seed)

    a = _standardize(sample.a)
    b = _standardize(sample.b)

    n = sample.n
    n_fit = int(round(n * cfg.fit_fraction))
    n_fit = min(max(n_fit, 10), n - 10)
    order = spec.rng("anm.split").permutation(n)
    fit_idx, test_idx = order[:n_fit], order[n_fit:]

    perms = _permutation_schedule(spec.rng("anm.hsic"), n - n_fit, cfg.num_permutations)

    p_xy = _directional_pvalue(a[fit_idx], b[fit_idx], a[test_idx], b[test_idx], cfg, perms)
    p_yx = _directional_pvalue(b[fit_idx], a[fit_idx], b[test_idx], a[test_idx], cfg, perms)

    floor = 1.0 / (1.0 + cfg.num_permutations)
    score = abs(math.log(max(p_xy, floor)) - math.log(max(p_yx, floor)))
    return Direction.compare(p_xy, p_yx, score)
