"""Gaussian-kernel machinery and the HSIC dependence test.

HSIC supplies the residual-independence footprint the additive-noise
engine relies on: in the causal direction the input is independent of the
regression residual, in the anti-causal direction it is not.
"""

from __future__ import annotations

import numpy as np

from .core import SeedSpec, _count, _finite, _real, as_spec

__all__ = [
    "median_heuristic",
    "gram_matrix",
    "hsic_statistic",
    "hsic_pvalue",
]

_MEDIAN_SUBSAMPLE = 1000
# Rows of the sorted difference matrix that median_heuristic fills per step.
_GAP_ROWS = 64


def median_heuristic(values) -> float:
    """Median of pairwise absolute differences, the standard bandwidth choice.

    Inputs longer than 1000 points are thinned to 1000 evenly spaced entries
    before forming pairs, which keeps the cost bounded and the result
    deterministic.  If the median is zero (more than half the pairs
    coincide) the median of the strictly positive differences is used
    instead, so the returned bandwidth is always positive.
    """
    v = _finite("values", np.ravel(values), 2)
    if v.size > _MEDIAN_SUBSAMPLE:
        idx = np.linspace(0, v.size - 1, _MEDIAN_SUBSAMPLE).round().astype(int)
        v = v[idx]
    # On sorted values v_j - v_i over i < j is the same multiset as
    # |v_i - v_j|, so the median has the same bits.  Each block of rows
    # writes its triangle (masked) and the rectangle right of it straight
    # into one array, without the n x n matrix.
    v = np.sort(v)
    n = v.size
    gaps = np.empty(n * (n - 1) // 2)
    upper = np.triu(np.ones((_GAP_ROWS, _GAP_ROWS), dtype=bool), 1)
    pos = 0
    for s in range(0, n, _GAP_ROWS):
        e = min(s + _GAP_ROWS, n)
        tri = (v[s:e] - v[s:e, None])[upper[: e - s, : e - s]]
        gaps[pos : pos + tri.size] = tri
        pos += tri.size
        rect = gaps[pos : pos + (e - s) * (n - e)].reshape(e - s, n - e)
        np.subtract(v[e:], v[s:e, None], out=rect)
        pos += rect.size
    # The gaps are a scratch array, so the median may reorder them in place.
    med = float(np.median(gaps, overwrite_input=True))
    if med > 0:
        return med
    positive = gaps[gaps > 0]
    if positive.size == 0:
        raise ValueError("degenerate sample: all values identical")
    return float(np.median(positive))


def gram_matrix(values, bandwidth: float) -> np.ndarray:
    """Gaussian (RBF) Gram matrix k(u, v) = exp(-(u - v)^2 / (2 bandwidth^2))."""
    bandwidth = _real("bandwidth", bandwidth, 0.0)
    v = _finite("values", np.ravel(values), 1)
    return _gaussian(v, v, bandwidth)


def _gaussian(u: np.ndarray, v: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-(u_i - v_j)^2 / (2 bandwidth^2)) for every i, j, in the one array
    it returns: the IEEE operations of np.exp(-(d * d) / (2 h^2)), in order."""
    k = np.subtract.outer(u, v)
    np.multiply(k, k, out=k)
    np.negative(k, out=k)
    k /= 2.0 * bandwidth**2
    return np.exp(k, out=k)


def _center(K: np.ndarray) -> np.ndarray:
    """H K H with H = I - J/n by row/column mean subtraction, overwriting K.

    The three means come first; the updates then keep the association of
    K - row - col + mean.
    """
    row = K.mean(axis=0, keepdims=True)
    col = K.mean(axis=1, keepdims=True)
    mean = K.mean()
    K -= row
    K -= col
    K += mean
    return K


def _inputs(u, v):
    """u, v as float vectors of one length >= 5, with their median-heuristic bandwidths."""
    u = _finite("u", np.ravel(u), 5)
    v = _finite("v", np.ravel(v), 5)
    if u.size != v.size:
        raise ValueError(f"length mismatch: {u.size} vs {v.size}")
    return u, v, median_heuristic(u), median_heuristic(v)


def hsic_statistic(u, v) -> float:
    """Biased V-statistic HSIC = trace(K H L H) / n^2.

    Kernel bandwidths are the median heuristic on each argument.
    Non-negative up to floating-point round-off.
    """
    u, v, hu, hv = _inputs(u, v)
    K = gram_matrix(u, hu)
    L = gram_matrix(v, hv)
    n = u.size
    return float(np.sum(_center(K) * L)) / (n * n)


def hsic_pvalue(u, v, num_permutations: int = 499, seed: SeedSpec | int = 0) -> float:
    """Permutation p-value for HSIC independence under median-heuristic kernels, permuting ``v`` only.

    p = (1 + #{permuted statistic >= observed}) / (1 + num_permutations).
    The permutation schedule is drawn up front from the seed, so the result
    does not depend on evaluation order.

    The permuted statistics are scored in blocks on pivoted Cholesky factors
    of the two centered Gram matrices: float32 copies of their leading
    columns first, then the float64 factors, then directly.  Each factored
    level passes on only the permutations within its proven error band of
    the observed statistic, so the count, and with it the p-value, equals
    the one from computing every permuted statistic directly.
    """
    _count("num_permutations", num_permutations, 99)
    u, v, hu, hv = _inputs(u, v)
    perms = _permutation_schedule(as_spec(seed).rng("hsic.permutation"), u.size, num_permutations)
    return _permutation_pvalue(u, v, hu, hv, perms)


def _permutation_schedule(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` permutations of ``range(n)``, one per row: the same rows,
    and the same generator state after, as ``count`` calls of
    ``rng.permutation(n)``, drawn in one call and shuffled in place."""
    perms = np.tile(np.arange(n), (count, 1))
    return rng.permuted(perms, axis=1, out=perms)


# Permutations scored per batched product on the float64 factors and by the
# float32 screen.  Larger float64 blocks were no faster at the test-half sizes
# in use and raise peak memory through the gathered (block, n, rank) array.
_BLOCK, _SCREEN_BLOCK = 32, 128
# The pivoted Cholesky factors stop once the residual diagonal sums to at
# most this fraction of the trace; the guard band accounts for the rest.  The
# float32 screen keeps their leading columns, down to the larger fraction.
_STOP, _SCREEN_STOP = 1e-6, 1e-4
# Floating-point slack of the guard band, relative to ||Kc||_F ||Lc||_F: it
# covers the round-off of the factors, of their residuals, of the factored
# products and of the direct sums, all far smaller at any practical n.
_SLACK = 1e-9
_U = 2.0**-24  # unit round-off of float32


def _factor(C: np.ndarray):
    """(F, ||C - F F^T||_F) by greedy pivoted Cholesky of the PSD C, with F^T
    C-contiguous: each step pivots on the largest residual diagonal entry,
    until that diagonal sums to at most ``_STOP`` of the trace (rank 0 for C = 0)."""
    n = C.shape[0]
    d = np.diagonal(C).copy()
    stop = _STOP * d.sum()
    Ft = np.empty((n, n))
    k = 0
    while k < n and d.sum() > stop:
        i = int(np.argmax(d))
        Ft[k] = (C[i] - Ft[:k, i] @ Ft[:k]) / np.sqrt(d[i])
        d -= Ft[k] * Ft[k]
        k += 1
    R = Ft[:k].T @ Ft[:k]
    np.subtract(C, R, out=R)
    return Ft[:k].T, float(np.linalg.norm(R))


def _lead(C: np.ndarray, F: np.ndarray, residual: float):
    """The fewest leading columns of C's factor F leaving at most ``_SCREEN_STOP`` of
    the trace, and their residual norm bound: dropping columns Y adds ||Y^T Y||_F."""
    trace = np.trace(C)
    k = 1 + int(np.count_nonzero(trace - np.cumsum(np.einsum("ij,ij->j", F, F)) > _SCREEN_STOP * trace))
    return F[:, :k], residual + float(np.linalg.norm(F[:, k:].T @ F[:, k:]))


def _levels(Kc: np.ndarray, Lc: np.ndarray):
    """(G, F, block, band) of the float32 screen, then of the float64 factors:
    the computed ||G^T F[p]||_F^2 is within ``band`` of <Kc, P Lc P^T>."""
    norm_k, norm_l = float(np.linalg.norm(Kc)), float(np.linalg.norm(Lc))
    (G, res_k), (F, res_l) = _factor(Kc), _factor(Lc)
    (Gs, res_ks), (Fs, res_ls) = _lead(Kc, G, res_k), _lead(Lc, F, res_l)
    bands = [rk * norm_l + (norm_k + rk) * rl + _SLACK * norm_k * norm_l for rk, rl in ((res_ks, res_ls), (res_k, res_l))]
    n, r = G.shape[0], Gs.shape[1] * Fs.shape[1]
    g, f = (float(np.linalg.norm(X)) + 2.0**-126 * np.sqrt(X.size) for X in (Gs, Fs))
    gamma_n, gamma_r = (k * _U / (1 - k * _U) if k * _U < 1 else np.inf for k in (n, r + 1))
    e = (gamma_n * (1 + _U) ** 2 + 2 * _U + _U**2) * g * f + n * np.sqrt(r) * 2.0**-149
    bands[0] += (2 * g * f + e) * e + gamma_r * (g * f + e) ** 2 + r * 2.0**-149
    return [(Gs.astype(np.float32), Fs.astype(np.float32), _SCREEN_BLOCK, bands[0]), (G, F, _BLOCK, bands[1])]


def _level(G: np.ndarray, F: np.ndarray, perms: np.ndarray, block: int, target: float, band: float):
    """Score ||G^T F[p]||_F^2 for each row p of ``perms``, ``block`` rows per
    batched product in the dtype of G and F, and compare the scores with
    ``target`` in float64: (#scores above target + band, rows within band)."""
    sums = np.empty(len(perms))
    for start in range(0, len(perms), block):
        M = G.T @ np.take(F, perms[start : start + block], axis=0)
        sums[start : start + block] = np.einsum("bij,bij->b", M, M)
    return int(np.count_nonzero(sums > target + band)), perms[np.abs(sums - target) <= band]


def _permutation_pvalue(u, v, hu: float, hv: float, perms: np.ndarray) -> float:
    """HSIC permutation p-value of (u, v) under Gaussian bandwidths hu and hv,
    over a drawn schedule of v-permutations.

    H commutes with permutation matrices, so centering and permuting v can
    be swapped: the permuted statistic is <Kc, P Lc P^T> / n^2.  With
    Kc = G G^T + Rk and Lc = F F^T + Rl, the factored sum ||G^T F[p]||_F^2
    is off by <Rk, P Lc P^T> + <Kc - Rk, P Rl P^T>, which by Cauchy-Schwarz,
    as permuting keeps the Frobenius norm, is at most
    ||Rk|| ||Lc|| + (||Kc|| + ||Rk||) ||Rl||, plus slack.

    Three levels decide the permutations, each passing on only those within
    its band of the observed sum:

    1. The screen: float32 copies of the leading columns of G and F
       (``_lead``).  With u = 2^-24 and gamma_k = k u / (1 - k u) (Higham
       2002, 3.1: any summation order), rounding moves each copy by at most
       u of its norm and the product by gamma_n |G|^T |F[p]|, so the
       computed M is within e = (gamma_n (1 + u)^2 + 2u + u^2) ||G|| ||F||
       of G^T F[p]; its squared norm moves by at most (2 ||G|| ||F|| + e) e,
       and the float32 sum of its r = r_k r_l squares by
       gamma_{r+1} (||G|| ||F|| + e)^2.  Underflow adds at most 2^-150 to a
       rounding: 2^-126 sqrt(size) on each norm, and the 2^-149 terms.
    2. The float64 factors (``_STOP``), with the residual band alone.
    3. The direct sum.
    """
    n = u.size
    Kc = _center(gram_matrix(u, hu))
    Lc = _center(gram_matrix(v, hv))
    observed_sum = float(np.sum(Kc * Lc))
    observed = observed_sum / (n * n)

    exceed, total = 0, len(perms)
    for G, F, block, band in _levels(Kc, Lc):
        count, perms = _level(G, F, perms, block, observed_sum, band)
        exceed += count
    for p in perms:
        exceed += int(float(np.sum(Kc * Lc[np.ix_(p, p)])) / (n * n) >= observed)
    return (1 + exceed) / (1 + total)
