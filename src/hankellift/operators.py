"""Truncated Hankel and Toeplitz matrices and the shared numerical primitives.

A Hankel section has entries phi_hat(m+n), a Toeplitz section phi_hat(m-n);
both are built on the analytic section of order N.  Rank decisions go
through a singular-value gap rule: without a factor-100 gap around the cut
the operation refuses instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousRank, NoConvergence
from .fourier import Symbol

# Full SVD is used up to this dimension; beyond it a power iteration
# computes the norm (desk-scale correctness beats asymptotic speed).
FULL_SVD_LIMIT = 1024

GAP_FACTOR = 100.0
RANK_TOL_FACTOR = 1e-8


def _coefficients(phi: Symbol, lo: int, hi: int) -> np.ndarray:
    """phi_hat(lo..hi), lo <= 0 <= hi: a zero-padded slice of a Laurent window."""
    c = np.zeros(hi - lo + 1, dtype=complex)
    a, b = max(lo, -phi.window), min(hi, phi.window)
    c[a - lo : b - lo + 1] = phi.laurent[a + phi.window : b + phi.window + 1]
    return c


def hankel_matrix(phi: Symbol, n: int) -> np.ndarray:
    """Order-n section with entry(m, k) = phi_hat(m + k); depends only on P_+ phi."""
    c = _coefficients(phi, 0, 2 * n)
    idx = np.arange(n + 1)
    return c[idx[:, None] + idx[None, :]]


def toeplitz_matrix(phi: Symbol, n: int) -> np.ndarray:
    """Order-n section with entry(m, k) = phi_hat(m - k)."""
    c = _coefficients(phi, -n, n)
    idx = np.arange(n + 1)
    return c[idx[:, None] - idx[None, :] + n]


def hilbert_generator():
    """The Hilbert Hankel coefficient rule k -> 1/(k+1), for ``materialize`` on a window."""
    return lambda k: 1.0 / (k + 1)


def hilbert_hankel(n: int) -> np.ndarray:
    """Order-n section with entries 1/(m + k + 1): real symmetric positive definite.

    It stays ``float64``, so ``operator_norm`` takes its norm in real arithmetic.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    idx = np.arange(n + 1, dtype=float)
    return 1.0 / (idx[:, None] + idx[None, :] + 1.0)


def hilbert_log10_minors(n: int) -> list:
    """log10 det H_m of the leading minors, m = 1..n+1, of the order-n Hilbert section.

    Each H_m is a Cauchy matrix, so det H_m = c_m^4 / c_{2m} with
    c_m = prod_{i<m} i!: a ratio of positive products, summed here from
    lgamma.  Every minor is therefore positive, which is Sylvester's
    criterion for a positive definite section.
    """
    log_c = [0.0]  # ln c_m for m = 0..2n+2
    for i in range(2 * n + 2):
        log_c.append(log_c[-1] + math.lgamma(i + 1))
    return [(4 * log_c[m] - log_c[2 * m]) / math.log(10) for m in range(1, n + 2)]


def shift_matrix(n: int) -> np.ndarray:
    """Section of multiplication by z: entry (k+1, k) = 1."""
    s = np.zeros((n + 1, n + 1), dtype=complex)
    rows = np.arange(1, n + 1)
    s[rows, rows - 1] = 1.0
    return s


def operator_norm(m) -> float:
    """Largest singular value; power iteration above the full-SVD limit.

    A complex input is taken in complex128, any other in float64: a real
    input stays real on both paths (a real SVD, a real start vector).
    """
    a = np.asarray(m)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.size == 0:
        return 0.0
    if max(a.shape) <= FULL_SVD_LIMIT + 1:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    return _power_norm(a)


def _power_norm(a, max_iter=10_000, rel_tol=1e-12):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[1])
    if np.iscomplexobj(a):
        v = v + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(max_iter):
        w = a.conj().T @ (a @ v)  # conj() of a real array is the array itself
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        estimate = math.sqrt(norm_w)
        if abs(estimate - last) <= rel_tol * max(estimate, 1e-300):
            return float(estimate)
        last = estimate
    raise NoConvergence("power iteration hit its cap; conditioning is pathological")


@dataclass(frozen=True)
class RankGapReport:
    """Where the singular values straddle the rank cut."""

    dim: int
    cut: float
    sv_below: float  # largest singular value counted into the kernel (0 if none)
    sv_above: float  # smallest singular value kept out of it (inf if none)
    gap: float


def null_space(m, rank_tol=RANK_TOL_FACTOR):
    """Orthonormal basis of the numerical kernel plus a gap report.

    ``rank_tol`` is relative: the singular-value cut is
    ``rank_tol * max(largest singular value, 1)``.  Raises AmbiguousRank
    when the values around the cut are separated by less than GAP_FACTOR.
    """
    a = np.asarray(m, dtype=complex)
    n_cols = a.shape[1]
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    s_full = np.concatenate([s, np.zeros(n_cols - s.size)])
    s_max = float(s_full[0]) if s_full.size else 0.0
    cut = rank_tol * max(s_max, 1.0)
    below = s_full[s_full <= cut]
    above = s_full[s_full > cut]
    dim = below.size
    sv_below = float(below.max()) if dim else 0.0
    sv_above = float(above.min()) if above.size else math.inf
    if dim == 0:
        gap = sv_above / cut
    elif not above.size or sv_below == 0.0:
        gap = math.inf
    else:
        gap = sv_above / sv_below
    report = RankGapReport(dim=dim, cut=cut, sv_below=sv_below, sv_above=sv_above, gap=gap)
    if gap < GAP_FACTOR:
        raise AmbiguousRank(
            f"no factor-{GAP_FACTOR:.0f} gap around cut {cut:.3e}: "
            f"sv_below={sv_below:.3e}, sv_above={sv_above:.3e}"
        )
    basis = vh[n_cols - dim :, :].conj().T if dim else np.zeros((n_cols, 0), dtype=complex)
    return basis, report
