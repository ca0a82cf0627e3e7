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

from .core import Direction, ScatterSample, SeedSpec, _standardize, as_spec
from .independence import (
    KernelSpec,
    _check_permutations,
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
        if not (np.isfinite(self.ridge_lambda) and self.ridge_lambda > 0):
            raise ValueError("ridge_lambda must be positive")
        _check_permutations(self.num_permutations)
        if not 0.0 < self.fit_fraction < 1.0:
            raise ValueError("fit_fraction must lie in (0, 1)")

    def judge(self, sample: ScatterSample, spec: SeedSpec | int) -> Direction:
        """This engine's verdict on ``sample``: ``anm_direction`` under ``spec``."""
        return anm_direction(sample, self, seed=spec)


@dataclass(frozen=True)
class Regressor:
    """Kernel ridge regressor in dual form: F(t) = sum_i alpha_i k(t, x_i)."""

    x_train: np.ndarray
    alpha: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        if self.x_train.shape != self.alpha.shape:
            raise ValueError("coefficient count must equal training-input count")

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        return _gaussian(x, self.x_train, self.kernel.bandwidth) @ self.alpha


def kernel_ridge_fit(x, y, cfg: AnmConfig = AnmConfig()) -> Regressor:
    """Fit min_F sum (y - F(x))^2 + lambda ||F||^2 with a Gaussian kernel.

    Bandwidth comes from the median heuristic on x; degenerate x (all
    values equal) falls back to a unit bandwidth, in which case the ridge
    solution is the constant that shrinks toward the mean of y.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 10:
        raise ValueError("kernel ridge fit needs at least 10 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    try:
        bandwidth = median_heuristic(x)
    except ValueError:
        bandwidth = 1.0
    kernel = KernelSpec(bandwidth)
    K = gram_matrix(x, kernel)
    # K + lambda I in place: off the diagonal K_ij + 0.0 is exact, as K >= +0.
    K[np.diag_indices(x.size)] += cfg.ridge_lambda
    alpha = np.linalg.solve(K, y)
    return Regressor(x_train=x, alpha=alpha, kernel=kernel)


def residuals(reg: Regressor, x, y) -> np.ndarray:
    """r_i = y_i - F(x_i)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    return y - reg.predict(x)


def _directional_pvalue(x_fit, y_fit, x_test, y_test, cfg, perms) -> float:
    reg = kernel_ridge_fit(x_fit, y_fit, cfg)
    r = residuals(reg, x_test, y_test)
    ku = KernelSpec(median_heuristic(x_test))
    kv = KernelSpec(median_heuristic(r))
    return _permutation_pvalue(x_test, r, ku, kv, perms)


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
