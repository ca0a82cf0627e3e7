"""Gaussian-kernel machinery and the HSIC dependence test.

HSIC supplies the residual-independence footprint the additive-noise
engine relies on: in the causal direction the input is independent of the
regression residual, in the anti-causal direction it is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeedSpec, _is_integer, as_spec

__all__ = [
    "KernelSpec",
    "median_heuristic",
    "gram_matrix",
    "hsic_statistic",
    "hsic_pvalue",
]

_MEDIAN_SUBSAMPLE = 1000
# Rows of the sorted difference matrix that median_heuristic fills per step.
_GAP_ROWS = 64


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian (RBF) kernel with lengthscale ``bandwidth``."""

    bandwidth: float

    def __post_init__(self):
        if not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")


def median_heuristic(values) -> float:
    """Median of pairwise absolute differences, the standard bandwidth choice.

    Inputs longer than 1000 points are thinned to 1000 evenly spaced entries
    before forming pairs, which keeps the cost bounded and the result
    deterministic.  If the median is zero (more than half the pairs
    coincide) the median of the strictly positive differences is used
    instead, so the returned bandwidth is always positive.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError("median heuristic needs at least 2 values")
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


def gram_matrix(values, kernel: KernelSpec) -> np.ndarray:
    """Gram matrix k(u, v) = exp(-(u - v)^2 / (2 bandwidth^2))."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return _gaussian(v, v, kernel.bandwidth)


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


def _inputs(u, v, ku: KernelSpec | None, kv: KernelSpec | None):
    """u, v as float vectors of one length >= 5, kernels median-heuristic by default."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.size != v.size:
        raise ValueError(f"length mismatch: {u.size} vs {v.size}")
    if u.size < 5:
        raise ValueError("HSIC needs at least 5 points")
    return u, v, ku or KernelSpec(median_heuristic(u)), kv or KernelSpec(median_heuristic(v))


def hsic_statistic(u, v, ku: KernelSpec | None = None, kv: KernelSpec | None = None) -> float:
    """Biased V-statistic HSIC = trace(K H L H) / n^2.

    Kernel bandwidths default to the median heuristic on each argument.
    Non-negative up to floating-point round-off.
    """
    u, v, ku, kv = _inputs(u, v, ku, kv)
    K = gram_matrix(u, ku)
    L = gram_matrix(v, kv)
    n = u.size
    return float(np.sum(_center(K) * L)) / (n * n)


def hsic_pvalue(
    u,
    v,
    num_permutations: int = 499,
    seed: SeedSpec | int = 0,
    ku: KernelSpec | None = None,
    kv: KernelSpec | None = None,
) -> float:
    """Permutation p-value for HSIC independence, permuting ``v`` only.

    p = (1 + #{permuted statistic >= observed}) / (1 + num_permutations).
    The permutation schedule is drawn up front from the seed, so the result
    does not depend on evaluation order.

    The permuted statistics are scored in blocks on pivoted Cholesky factors
    of the two centered Gram matrices.  A permutation whose factored
    statistic lies within a guard band of the observed one (the error bound
    from the Frobenius norms of the factor residuals, plus slack) is
    recomputed directly, so the count, and with it the p-value, equals the
    one from computing every permuted statistic directly.
    """
    _check_permutations(num_permutations)
    u, v, ku, kv = _inputs(u, v, ku, kv)
    perms = _permutation_schedule(as_spec(seed).rng("hsic.permutation"), u.size, num_permutations)
    return _permutation_pvalue(u, v, ku, kv, perms)


def _check_permutations(num_permutations) -> None:
    """Reject a permutation count that is not an integer of at least 99."""
    if not _is_integer(num_permutations):
        raise ValueError(f"num_permutations must be an integer, got {num_permutations!r}")
    if num_permutations < 99:
        raise ValueError("use at least 99 permutations")


def _permutation_schedule(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` permutations of ``range(n)``, one per row: the same rows,
    and the same generator state after, as ``count`` calls of
    ``rng.permutation(n)``, drawn in one call and shuffled in place."""
    perms = np.tile(np.arange(n), (count, 1))
    return rng.permuted(perms, axis=1, out=perms)


# Permutations scored per batched product.  Larger blocks were no faster at
# the test-half sizes in use and raise peak memory through the gathered
# (block, n, rank) array.
_BLOCK = 32
# The pivoted Cholesky factors stop once the residual diagonal sums to at
# most this fraction of the trace; the guard band accounts for the rest.
_STOP = 1e-6
# Floating-point slack of the guard band, relative to ||Kc||_F ||Lc||_F: it
# covers the round-off of the factors, of their residuals, of the factored
# products and of the direct sums, all far smaller at any practical n.
_SLACK = 1e-9


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


def _permutation_pvalue(u, v, ku: KernelSpec, kv: KernelSpec, perms: np.ndarray) -> float:
    """HSIC permutation p-value of (u, v) over a drawn schedule of v-permutations.

    H commutes with permutation matrices, so centering and permuting v can
    be swapped: the permuted statistic is <Kc, P Lc P^T> / n^2.  With
    Kc = G G^T + Rk and Lc = F F^T + Rl, the factored sum ||G^T F[p]||_F^2
    is off by <Rk, P Lc P^T> + <Kc - Rk, P Rl P^T>, which by Cauchy-Schwarz,
    as permuting keeps the Frobenius norm, is at most
    ||Rk|| ||Lc|| + (||Kc|| + ||Rk||) ||Rl||.  A factored statistic further
    than that (plus slack) from the observed one decides its permutation;
    the rest are recomputed directly.
    """
    n = u.size
    Kc = _center(gram_matrix(u, ku))
    Lc = _center(gram_matrix(v, kv))
    observed_sum = float(np.sum(Kc * Lc))
    observed = observed_sum / (n * n)

    G, res_k = _factor(Kc)
    F, res_l = _factor(Lc)
    norm_k, norm_l = float(np.linalg.norm(Kc)), float(np.linalg.norm(Lc))
    tol = res_k * norm_l + (norm_k + res_k) * res_l + _SLACK * norm_k * norm_l

    exceed = 0
    for start in range(0, len(perms), _BLOCK):
        block = perms[start : start + _BLOCK]
        M = G.T @ np.take(F, block, axis=0)
        approx = np.einsum("bij,bij->b", M, M)
        exceed += int(np.count_nonzero(approx > observed_sum + tol))
        for p in block[np.abs(approx - observed_sum) <= tol]:
            exceed += int(float(np.sum(Kc * Lc[np.ix_(p, p)])) / (n * n) >= observed)
    return (1 + exceed) / (1 + len(perms))
