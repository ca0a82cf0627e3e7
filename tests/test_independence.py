"""Kernel machinery and the HSIC permutation test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxycause import independence
from proxycause.core import SeedSpec
from proxycause.independence import (
    _SCREEN_STOP,
    _SLACK,
    _center,
    _factor,
    _lead,
    _level,
    _levels,
    _permutation_pvalue,
    _permutation_schedule,
    gram_matrix,
    hsic_pvalue,
    hsic_statistic,
    median_heuristic,
)


def brute_force_hsic(u, v, bu, bv):
    """Double-sum HSIC oracle, no vectorized centering.

    HSIC = 1/n^2 sum K_ij L_ij + 1/n^4 (sum K)(sum L)
         - 2/n^3 sum_i (sum_j K_ij)(sum_j L_ij)
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    n = u.size
    K = np.empty((n, n))
    L = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = np.exp(-((u[i] - u[j]) ** 2) / (2 * bu * bu))
            L[i, j] = np.exp(-((v[i] - v[j]) ** 2) / (2 * bv * bv))
    term1 = sum(K[i, j] * L[i, j] for i in range(n) for j in range(n)) / n**2
    term2 = K.sum() * L.sum() / n**4
    term3 = sum(K[i, :].sum() * L[i, :].sum() for i in range(n)) * 2 / n**3
    return term1 + term2 - term3


def test_hsic_statistic_matches_brute_force_on_8_points():
    u = np.array([0.1, -0.4, 1.3, 2.2, -1.7, 0.8, 0.0, 3.1])
    v = np.array([1.0, 0.2, -0.3, 0.9, 2.5, -1.1, 0.4, 1.8])
    got = hsic_statistic(u, v)
    want = brute_force_hsic(u, v, median_heuristic(u), median_heuristic(v))
    assert abs(got - want) < 1e-10


def test_hsic_statistic_brute_force_across_sizes():
    rng = np.random.default_rng(11)
    for n in (5, 9, 17):
        u = rng.normal(size=n)
        v = 0.5 * u + rng.normal(size=n)
        got = hsic_statistic(u, v)
        want = brute_force_hsic(u, v, median_heuristic(u), median_heuristic(v))
        assert abs(got - want) < 1e-10


def test_gram_matrix_bandwidth_validation():
    gram_matrix([0.0, 1.0], 0.5)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            gram_matrix([0.0, 1.0], bad)


def test_median_heuristic_hand_case():
    # values 0, 1, 3: gaps 1, 3, 2 -> median 2
    assert median_heuristic([0.0, 1.0, 3.0]) == 2.0


def test_median_heuristic_zero_median_falls_back_to_positive_gaps():
    # 0,0,0,5: gaps 0,0,5,0,5,5 -> median 2.5 already; tighten the tie:
    # 0,0,0,0,5 has 10 gaps, six zeros -> median 0 -> positive gaps all 5
    assert median_heuristic([0.0, 0.0, 0.0, 0.0, 5.0]) == 5.0


def test_median_heuristic_errors():
    with pytest.raises(ValueError):
        median_heuristic([1.0])
    with pytest.raises(ValueError, match="identical"):
        median_heuristic([2.0, 2.0, 2.0])


def test_median_heuristic_long_input_is_deterministic():
    rng = np.random.default_rng(0)
    v = rng.normal(size=5000)
    assert median_heuristic(v) == median_heuristic(v)


def lag_median_heuristic(values):
    """The lag formula median_heuristic used before: gaps v[k:] - v[:-k] of
    the sorted values, one slice per lag, joined by concatenate."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size > 1000:
        v = v[np.linspace(0, v.size - 1, 1000).round().astype(int)]
    v = np.sort(v)
    gaps = np.concatenate([v[k:] - v[:-k] for k in range(1, v.size)])
    med = float(np.median(gaps))
    if med > 0:
        return med
    positive = gaps[gaps > 0]
    if positive.size == 0:
        raise ValueError("degenerate sample: all values identical")
    return float(np.median(positive))


def full_matrix_median_heuristic(values):
    """The n x n formula: the median of |v_i - v_j| over the upper triangle,
    after the same thinning, falling back to the positive gaps."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size > 1000:
        v = v[np.linspace(0, v.size - 1, 1000).round().astype(int)]
    gaps = np.abs(v[:, None] - v[None, :])[np.triu_indices(v.size, k=1)]
    med = float(np.median(gaps))
    if med > 0:
        return med
    positive = gaps[gaps > 0]
    if positive.size == 0:
        raise ValueError("degenerate sample: all values identical")
    return float(np.median(positive))


# Sizes around the 64-row blocks of the gap array (63/64/65 rows in the last
# block), the frames and scatter test halves, and the thinning at 1000.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 250, 384, 999, 1000, 1001, 5000])
def test_median_heuristic_equals_full_matrix_formula(n):
    rng = np.random.default_rng(n)
    inputs = [
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),  # heavy ties
        rng.integers(0, 2, n) * 3.0 + (np.arange(n) == 0),  # mostly zero gaps: zero median
        rng.integers(0, 4, n) * 0.25,  # quantized onto four levels
        np.exp(rng.normal(scale=4.0, size=n)),  # wide dynamic range
    ]
    for v in inputs:
        try:
            want = full_matrix_median_heuristic(v)
        except ValueError:
            for heuristic in (lag_median_heuristic, median_heuristic):
                with pytest.raises(ValueError, match="identical"):
                    heuristic(v)
            continue
        assert lag_median_heuristic(v) == want
        assert median_heuristic(v) == want
    for v in (np.full(n, 2.5), np.full(max(n, 1500), -1.0)):
        with pytest.raises(ValueError, match="identical"):
            full_matrix_median_heuristic(v)
        with pytest.raises(ValueError, match="identical"):
            median_heuristic(v)


def test_gram_matrix_values():
    g = gram_matrix([0.0, 2.0], 1.0)
    assert g[0, 0] == 1.0
    assert abs(g[0, 1] - np.exp(-2.0)) < 1e-15
    assert g[0, 1] == g[1, 0]
    with pytest.raises(ValueError):
        gram_matrix([0.0, np.inf], 1.0)


def kernel_inputs():
    rng = np.random.default_rng(21)
    for n in (1, 2, 7, 128, 250):
        for v in (rng.normal(size=n), np.round(rng.normal(size=n), 1), np.exp(rng.normal(scale=4.0, size=n))):
            for bandwidth in (1e-3, 0.37, 1.0, np.float64(2.5), 1e3):
                yield v, bandwidth


def test_gram_matrix_equals_expression_formula():
    """The one-buffer kernel gives the bits of the expression it replaced."""
    for v, bandwidth in kernel_inputs():
        d = v[:, None] - v[None, :]
        want = np.exp(-(d * d) / (2.0 * bandwidth**2))
        assert np.array_equal(gram_matrix(v, bandwidth), want)


def test_center_in_place_equals_expression_formula():
    for v, bandwidth in kernel_inputs():
        K = gram_matrix(v, bandwidth)
        want = K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()
        got = _center(K)
        assert got is K
        assert np.array_equal(got, want)


def test_factor_residual_equals_expression_formula():
    for v, bandwidth in kernel_inputs():
        if v.size < 5:
            continue
        C = _center(gram_matrix(v, bandwidth))
        before = C.copy()
        F, residual = _factor(C)
        assert np.array_equal(C, before)
        assert residual == float(np.linalg.norm(C - F @ F.T))


def test_hsic_statistic_nonnegative_and_scales():
    rng = np.random.default_rng(5)
    u = rng.normal(size=60)
    noise = rng.normal(size=60)
    dependent = hsic_statistic(u, np.sin(3 * u) + 0.1 * noise)
    independent = hsic_statistic(u, noise)
    assert dependent > -1e-12
    assert independent > -1e-12
    assert dependent > independent


def test_hsic_pvalue_bounds_and_floor():
    rng = np.random.default_rng(9)
    u = rng.normal(size=100)
    p_dep = hsic_pvalue(u, u + 0.01 * rng.normal(size=100), num_permutations=99, seed=SeedSpec(1))
    assert p_dep == 1 / 100  # floored at 1/(1+B)
    p_ind = hsic_pvalue(u, rng.normal(size=100), num_permutations=99, seed=SeedSpec(1))
    assert 1 / 100 <= p_ind <= 1.0


def test_hsic_pvalue_deterministic_in_seed():
    rng = np.random.default_rng(21)
    u = rng.normal(size=50)
    v = rng.normal(size=50)
    a = hsic_pvalue(u, v, num_permutations=199, seed=SeedSpec(4))
    b = hsic_pvalue(u, v, num_permutations=199, seed=SeedSpec(4))
    c = hsic_pvalue(u, v, num_permutations=199, seed=SeedSpec(5))
    assert a == b
    assert 1 / 200 <= c <= 1.0


def test_hsic_pvalue_validation():
    u = np.arange(10.0)
    with pytest.raises(ValueError, match="99"):
        hsic_pvalue(u, u, num_permutations=50)
    for bad in (150.5, 199.0, "199", True):
        with pytest.raises(ValueError, match="integer"):
            hsic_pvalue(u, u, num_permutations=bad)
    assert 1 / 100 <= hsic_pvalue(u, u[::-1], num_permutations=np.int64(99)) <= 1.0
    with pytest.raises(ValueError, match="mismatch"):
        hsic_pvalue(u, u[:5])
    with pytest.raises(ValueError):
        hsic_statistic([1.0, 2.0], [1.0, 2.0])  # fewer than 5 points


def test_permutation_pvalue_matches_direct_recomputation():
    """The centering shortcut must equal permuting v before centering."""
    rng = np.random.default_rng(33)
    u = rng.normal(size=30)
    v = rng.normal(size=30)
    observed = hsic_statistic(u, v)
    spec = SeedSpec(12)
    perm_rng = spec.rng("hsic.permutation")
    exceed = 0
    B = 99
    perms = [perm_rng.permutation(30) for _ in range(B)]
    for p in perms:
        if hsic_statistic(u, v[p]) >= observed - 1e-15:
            exceed += 1
    direct = (1 + exceed) / (1 + B)
    got = hsic_pvalue(u, v, num_permutations=B, seed=spec)
    # ties at the observed value can straddle the 1e-15 guard; allow one count
    assert abs(got - direct) <= 1.01 / (1 + B)


def direct_loop_exceed(u, v, ku, kv, perms):
    """Reference count: every permuted statistic summed from the full Grams."""
    n = u.size
    Kc = _center(gram_matrix(u, ku))
    Lc = _center(gram_matrix(v, kv))
    observed = float(np.sum(Kc * Lc)) / (n * n)
    exceed = 0
    for p in perms:
        stat = float(np.sum(Kc * Lc[np.ix_(p, p)])) / (n * n)
        if stat >= observed:
            exceed += 1
    return exceed


def assert_same_count_as_direct_loop(u, v, perms):
    ku = median_heuristic(u)
    kv = median_heuristic(v)
    exceed = direct_loop_exceed(u, v, ku, kv, perms)
    assert _permutation_pvalue(u, v, ku, kv, perms) == (1 + exceed) / (1 + len(perms))
    return exceed


def loop_schedule(rng, n, count):
    """One ``rng.permutation`` call per row: the draw the one-call schedule
    must reproduce."""
    return np.stack([rng.permutation(n) for _ in range(count)])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 128, 250, 384, 1000, 65539])
def test_permutation_schedule_equals_per_row_draws(n):
    for count in (c for c in (1, 2, 3, 5, 99, 4999) if n * c <= 2_000_000):
        spec = SeedSpec(n * 10_000 + count)
        rng, ref = spec.rng("schedule"), spec.rng("schedule")
        got = _permutation_schedule(rng, n, count)
        want = loop_schedule(ref, n, count)
        assert got.dtype == want.dtype and got.shape == (count, n)
        assert np.array_equal(got, want)
        assert rng.random() == ref.random()  # the generator is left in the same state


@pytest.mark.parametrize("n", [20, 50, 128, 250])
@pytest.mark.parametrize("strength", [0.0, 0.3, 1.0])
def test_permutation_pvalue_equals_direct_loop(n, strength):
    rng = np.random.default_rng(1000 + n)
    u = rng.normal(size=n)
    v = strength * np.sin(2 * u) + rng.normal(size=n)
    perms = _permutation_schedule(rng, n, 299)
    assert_same_count_as_direct_loop(u, v, perms)


@pytest.mark.parametrize("strength", [0.0, 0.3, 1.0])
def test_permutation_pvalue_equals_direct_loop_at_frames_depth(strength):
    """The frames test half (n=128) at the frames permutation count (4999)."""
    rng = np.random.default_rng(1500)
    u = rng.normal(size=128)
    v = strength * np.sin(2 * u) + rng.normal(size=128)
    assert_same_count_as_direct_loop(u, v, _permutation_schedule(rng, 128, 4999))


@pytest.mark.parametrize("n", [20, 50, 128, 250])
def test_permutation_pvalue_counts_exact_ties(n, monkeypatch):
    """v on 3 levels makes Lc exactly rank-deficient; identity and
    level-preserving permutations then reproduce the observed statistic bit
    for bit, and each such tie counts as an exceedance.  The ties lie within
    every band, so they pass the float32 screen and the float64 factors and
    reach the direct sum."""
    reached = []

    def spy(G, F, perms, block, target, band):
        count, rest = _level(G, F, perms, block, target, band)
        reached.append((G.dtype, len(perms), len(rest)))
        return count, rest

    monkeypatch.setattr(independence, "_level", spy)
    rng = np.random.default_rng(2000 + n)
    u = rng.normal(size=n)
    v = np.digitize(u + rng.normal(size=n), [-0.5, 0.5]).astype(float)
    levels = [np.flatnonzero(v == level) for level in (0.0, 1.0, 2.0)]
    ties = []
    for _ in range(20):
        p = np.arange(n)
        for idx in levels:
            p[idx] = rng.permutation(idx)
        ties.append(p)
    ties += [np.arange(n)] * 5
    perms = np.concatenate([_permutation_schedule(rng, n, 150), ties, _permutation_schedule(rng, n, 124)])
    assert np.linalg.matrix_rank(_center(gram_matrix(v, median_heuristic(v)))) <= 2
    exceed = assert_same_count_as_direct_loop(u, v, perms)
    assert exceed >= len(ties)
    (screen, screened, to_float64), (factors, factored, to_direct) = reached
    assert (screen, factors, screened) == (np.float32, np.float64, len(perms))
    assert factored == to_float64 >= 1 and to_direct >= len(ties)


def eigh_factor(C):
    """The earlier factor: eigenvalues of C above 1e-12 of the largest, with
    the discarded absolute eigenvalue mass and the spectral norm."""
    w, Q = np.linalg.eigh(C)
    top = float(np.abs(w).max())
    keep = w > 1e-12 * top
    return Q[:, keep] * np.sqrt(w[keep]), float(np.abs(w[~keep]).sum()), top


def eigh_permutation_pvalue(u, v, ku, kv, perms):
    """Oracle: the eigendecomposition factors with their eigenvalue band,
    |<Kc, P Lc P^T> - <Kk, P Lk P^T>| <= disc(Kc) ||Lc||_2 + ||Kc||_2 disc(Lc)."""
    n = u.size
    Kc = _center(gram_matrix(u, ku))
    Lc = _center(gram_matrix(v, kv))
    observed_sum = float(np.sum(Kc * Lc))
    G, disc_k, top_k = eigh_factor(Kc)
    F, disc_l, top_l = eigh_factor(Lc)
    tol = disc_k * top_l + top_k * disc_l + 1e-9 * float(np.linalg.norm(Kc) * np.linalg.norm(Lc))
    exceed = 0
    for start in range(0, len(perms), 32):
        block = perms[start : start + 32]
        M = G.T @ F[block]
        approx = np.einsum("bij,bij->b", M, M)
        exceed += int(np.count_nonzero(approx > observed_sum + tol))
        for p in block[np.abs(approx - observed_sum) <= tol]:
            exceed += int(float(np.sum(Kc * Lc[np.ix_(p, p)])) / (n * n) >= observed_sum / (n * n))
    return (1 + exceed) / (1 + len(perms))


@pytest.mark.parametrize("n, count", [(128, 999), (250, 199), (128, 4999)])
@pytest.mark.parametrize("strength", [0.0, 0.3, 1.0, "ties"])
def test_permutation_pvalue_equals_eigh_oracle(n, count, strength):
    """Frames-shaped (n=128) and scatter-shaped (n=250) inputs give the same
    p-value through the pivoted Cholesky factors as through the earlier
    eigendecomposition factors."""
    rng = np.random.default_rng(3000 + n)
    u = rng.normal(size=n)
    if strength == "ties":  # v on 3 levels, as in the exact-ties test
        v = np.digitize(u + rng.normal(size=n), [-0.5, 0.5]).astype(float)
    else:
        v = strength * np.sin(2 * u) + rng.normal(size=n)
    ku = median_heuristic(u)
    kv = median_heuristic(v)
    perms = _permutation_schedule(rng, n, count)
    assert _permutation_pvalue(u, v, ku, kv, perms) == eigh_permutation_pvalue(u, v, ku, kv, perms)


def samples(n):
    """n values: continuous, quantized onto a few levels, or constant up to
    jitter that leaves the centered Gram at round-off level."""
    values = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    levels = st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n)
    jitter = st.lists(st.floats(-1e-7, 1e-7).map(lambda x: 1.0 + x), min_size=n, max_size=n)
    return st.one_of(values, levels, jitter)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_factored_statistic_lies_within_the_band(data):
    """For any u, v and permutation, the factored sum ||G^T F[p]||^2 is within
    the documented residual-norm band of the direct sum <Kc, P Lc P^T>."""
    n = data.draw(st.integers(5, 60))
    u = np.array(data.draw(samples(n)))
    v = np.array(data.draw(samples(n)))
    ku = data.draw(st.floats(0.05, 5.0))
    kv = data.draw(st.floats(0.05, 5.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    perms = _permutation_schedule(rng, n, 20)
    Kc = _center(gram_matrix(u, ku))
    Lc = _center(gram_matrix(v, kv))
    G, res_k = _factor(Kc)
    F, res_l = _factor(Lc)
    norm_k, norm_l = np.linalg.norm(Kc), np.linalg.norm(Lc)
    tol = res_k * norm_l + (norm_k + res_k) * res_l + _SLACK * norm_k * norm_l
    for p in perms:
        direct = float(np.sum(Kc * Lc[np.ix_(p, p)]))
        M = G.T @ F[p]
        assert abs(float(np.sum(M * M)) - direct) <= tol


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_screened_statistic_lies_within_the_band(data):
    """For any u, v and permutation, the float32 screen's computed sum is
    within its documented band of the direct sum <Kc, P Lc P^T>."""
    n = data.draw(st.integers(5, 400))
    u = np.array(data.draw(samples(n)))
    v = np.array(data.draw(samples(n)))
    ku = data.draw(st.floats(0.05, 5.0))
    kv = data.draw(st.floats(0.05, 5.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    perms = _permutation_schedule(rng, n, 20)
    Kc = _center(gram_matrix(u, ku))
    Lc = _center(gram_matrix(v, kv))
    (G, F, block, band), _ = _levels(Kc, Lc)
    assert G.dtype == F.dtype == np.float32
    for p in perms:
        direct = float(np.sum(Kc * Lc[np.ix_(p, p)]))
        # Centred on the direct sum, the screen passes p on: its sum is within the band.
        count, rest = _level(G, F, p[None], block, direct, band)
        assert count == 0 and np.array_equal(rest, p[None])
        M = G.T @ F[p]
        assert abs(float(np.sum(M * M)) - direct) <= band


def test_screen_keeps_the_leading_columns_of_the_factor():
    """The screen's factor is the float32 copy of the float64 factor's first
    columns, the fewest that leave at most _SCREEN_STOP of the trace, and its
    residual bound holds the explicit residual norm."""
    for v, bandwidth in kernel_inputs():
        if v.size < 5:
            continue
        C = _center(gram_matrix(v, bandwidth))
        full, residual = _factor(C)
        lead, bound = _lead(C, full, residual)
        k = lead.shape[1]
        (G, F, _, _), (G64, F64, _, _) = _levels(C, C)
        assert np.array_equal(lead, full[:, :k]) and np.array_equal(G, lead.astype(np.float32))
        assert np.array_equal(F, G) and np.array_equal(F64, full) and np.array_equal(G64, full)
        trace = np.trace(C)
        assert trace - np.sum(lead * lead) <= _SCREEN_STOP * trace or k == full.shape[1]
        assert k == 0 or trace - np.sum(full[:, : k - 1] ** 2) > _SCREEN_STOP * trace
        assert float(np.linalg.norm(C - lead @ lead.T)) <= bound + _SLACK * np.linalg.norm(C) ** 2


def test_screen_compares_its_float32_scores_in_float64():
    """A float32 score of 9 lies above a target strictly between 9 and the
    float32 value below it.  Compared in float32, the target would round to
    9, and the score would tie it instead of exceeding it."""
    target = 9.0 - 2.0**-30
    assert np.nextafter(np.float32(9.0), np.float32(0.0)) < target < 9.0 == np.float32(target)
    G, F = np.ones((1, 1), np.float32), np.full((1, 1), 3.0, np.float32)
    count, rest = _level(G, F, np.zeros((1, 1), dtype=int), 128, target, 0.0)
    assert count == 1 and rest.size == 0


def test_constant_u_under_its_kernel_gives_p_one():
    """Constant u makes Kc exactly zero: both of its factors have rank 0,
    every permuted statistic ties the observed 0, and p = 1."""
    rng = np.random.default_rng(5)
    u = np.full(60, -1.5)
    v = rng.normal(size=60)
    Kc = _center(gram_matrix(u, 1.0))
    assert not Kc.any()
    (Gs, _, _, _), (G, _, _, _) = _levels(Kc, _center(gram_matrix(v, 1.0)))
    assert Gs.shape == G.shape == (60, 0)
    perms = _permutation_schedule(rng, 60, 99)
    assert _permutation_pvalue(u, v, 1.0, 1.0, perms) == 1.0


def test_constant_v_under_its_kernel_gives_p_one():
    """Constant v makes Lc exactly zero: its factor has rank 0, every
    permuted statistic ties the observed 0, and p = 1."""
    rng = np.random.default_rng(4)
    u = rng.normal(size=60)
    v = np.full(60, 2.5)
    Lc = _center(gram_matrix(v, 1.0))
    assert not Lc.any()
    F, residual = _factor(Lc)
    assert F.shape == (60, 0) and residual == 0.0
    perms = _permutation_schedule(rng, 60, 99)
    assert _permutation_pvalue(u, v, 1.0, 1.0, perms) == 1.0
