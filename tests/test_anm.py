"""Additive-noise direction engine: regression, residuals, antisymmetry."""

import warnings

import numpy as np
import pytest

from proxycause.anm import AnmConfig, anm_direction, kernel_ridge_fit, residuals
from proxycause.core import ScatterSample, SeedSpec, Verdict
from proxycause.experiments import synth_anm_pair
from proxycause.independence import gram_matrix

FAST = AnmConfig(num_permutations=99)


def test_anm_config_validation():
    AnmConfig()
    with pytest.raises(ValueError):
        AnmConfig(ridge_lambda=0.0)
    with pytest.raises(ValueError):
        AnmConfig(num_permutations=10)
    for bad in (120.5, 199.0, "199", True):
        with pytest.raises(ValueError, match="integer"):
            AnmConfig(num_permutations=bad)
    AnmConfig(num_permutations=np.int64(199))
    with pytest.raises(ValueError):
        AnmConfig(fit_fraction=1.0)


def test_kernel_ridge_recovers_smooth_function():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, 200)
    y = np.sin(2 * x) + 0.05 * rng.normal(size=200)
    reg = kernel_ridge_fit(x, y)
    grid = np.linspace(-1.8, 1.8, 50)
    err = np.abs(reg.predict(grid) - np.sin(2 * grid))
    assert err.max() < 0.15


def test_kernel_ridge_interpolates_near_training_points():
    x = np.linspace(0, 1, 20)
    y = x**2
    reg = kernel_ridge_fit(x, y, AnmConfig(ridge_lambda=1e-8))
    assert np.abs(residuals(reg, x, y)).max() < 1e-4


def test_kernel_ridge_validation():
    with pytest.raises(ValueError, match="x must be an array of at least 10 finite numbers, got 5$"):
        kernel_ridge_fit(np.arange(5.0), np.arange(5.0))
    with pytest.raises(ValueError, match="length mismatch: 11 vs 10"):
        kernel_ridge_fit(np.arange(11.0), np.arange(10.0))
    with pytest.raises(ValueError, match="x must be an array of at least 10 finite numbers, got nan at index 9$"):
        kernel_ridge_fit(np.r_[np.arange(9.0), np.nan], np.arange(10.0))


def test_kernel_ridge_constant_input_falls_back():
    x = np.full(12, 3.0)
    y = np.arange(12.0)
    reg = kernel_ridge_fit(x, y)
    # ridge on a constant input shrinks toward the mean of y
    assert abs(float(reg.predict([3.0])[0]) - y.mean()) < 0.1


def test_kernel_ridge_fit_and_predict_equal_expression_formulas():
    """The in-place ridge shift and the one-buffer kernel give the bits of
    solve(K + lambda I, y) and exp(-(d * d) / (2 h^2)) @ alpha."""
    rng = np.random.default_rng(8)
    for n in (10, 33, 250):
        for x in (rng.normal(size=n), np.round(rng.normal(size=n), 1), np.full(n, 3.0)):
            y = np.sin(2 * x) + 0.1 * rng.normal(size=n)
            for lam in (1e-8, 1e-3, 0.7):
                reg = kernel_ridge_fit(x, y, AnmConfig(ridge_lambda=lam))
                K = gram_matrix(x, reg.bandwidth)
                assert np.array_equal(reg.alpha, np.linalg.solve(K + lam * np.eye(n), y))
                t = rng.normal(size=n + 5)
                d = t[:, None] - x[None, :]
                want = np.exp(-(d * d) / (2.0 * reg.bandwidth**2)) @ reg.alpha
                assert np.array_equal(reg.predict(t), want)


def test_direction_on_cubic_mechanism():
    hits = 0
    for i in range(6):
        sample, label = synth_anm_pair(400, "cubic", "gaussian", seed=SeedSpec(100 + i))
        d = anm_direction(sample, FAST, seed=SeedSpec(200 + i))
        predicted = 1 if d.verdict is Verdict.X_TO_Y else -1
        hits += predicted == label
    assert hits >= 5


def test_exact_antisymmetry_under_swap():
    for i in range(4):
        sample, _ = synth_anm_pair(300, "tanh", "uniform", seed=SeedSpec(300 + i))
        d = anm_direction(sample, FAST, seed=SeedSpec(400 + i))
        d_swapped = anm_direction(sample.swapped(), FAST, seed=SeedSpec(400 + i))
        assert d_swapped.verdict is not d.verdict
        assert d_swapped.score == d.score  # bit-identical, no tolerance


def test_direction_deterministic_in_seed():
    sample, _ = synth_anm_pair(200, "piecewise", "gaussian", seed=SeedSpec(7))
    a = anm_direction(sample, FAST, seed=SeedSpec(11))
    b = anm_direction(sample, FAST, seed=SeedSpec(11))
    assert a == b


def test_direction_score_floor_and_tie_convention():
    sample, _ = synth_anm_pair(200, "cubic", "gaussian", seed=SeedSpec(70))
    d = anm_direction(sample, FAST, seed=SeedSpec(71))
    assert d.score >= 0.0
    max_gap = np.log(1.0) - np.log(1.0 / (1 + 99))
    assert d.score <= max_gap + 1e-12


def test_direction_rejects_small_and_constant_samples():
    with pytest.raises(ValueError, match="at least 20"):
        anm_direction(ScatterSample(np.random.default_rng(0).normal(size=(10, 2))), FAST)
    pts = np.column_stack([np.ones(30), np.arange(30.0)])
    with pytest.raises(ValueError, match="constant"):
        anm_direction(ScatterSample(pts), FAST)


def test_direction_rejects_values_too_large_to_standardize():
    pts = np.random.default_rng(0).normal(size=(40, 2))
    pts[:, 0] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sample in (ScatterSample(pts), ScatterSample(pts).swapped()):
            with pytest.raises(ValueError, match="not finite"):
                anm_direction(sample, FAST)


def test_linear_gaussian_is_near_chance():
    """Non-identifiable control: accuracy over seeds should hover near 1/2.

    12 trials keep this a smoke check; the acceptance suite runs 100.
    """
    hits = 0
    for i in range(12):
        sample, label = synth_anm_pair(300, "linear", "gaussian", seed=SeedSpec(500 + i))
        d = anm_direction(sample, FAST, seed=SeedSpec(600 + i))
        predicted = 1 if d.verdict is Verdict.X_TO_Y else -1
        hits += predicted == label
    assert 1 <= hits <= 11


def test_judge_is_anm_direction_under_the_given_seed():
    for i, mechanism in enumerate(("cubic", "tanh", "linear")):
        sample, _ = synth_anm_pair(120, mechanism=mechanism, seed=40 + i)
        for s in (sample, sample.swapped()):
            for spec in (SeedSpec(60 + i), 60 + i):
                d, want = FAST.judge(s, spec), anm_direction(s, FAST, seed=spec)
                assert (d.verdict, repr(d.score)) == (want.verdict, repr(want.score))
