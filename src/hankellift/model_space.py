"""Model spaces of finite Blaschke products at finite truncation order.

The orthonormal basis of Q_u is the Takenaka-Malmquist system
e_k = sqrt(1-|a_k|^2)/(1 - conj(a_k) z) * prod_{j<k} (z - a_j)/(1 - conj(a_j) z),
which is triangular in the (canonically sorted) zero ordering and reduces
to the monomials when every zero vanishes.  The Beurling subspace u*H^2
is the complement of Q_u: at the working order I - BB* projects onto it
to within the basis tail.  ``beurling_basis`` spans the same section by
the truncated shifts u*z^k, re-orthonormalized.  No command calls it: it
is the test reference for the complement blocks of ``verify_block_lift``,
and the benchmark tracer wraps it and ``shifted_inner_columns`` by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, series_tail_bound, taylor_coefficients
from .errors import OrderMismatch, TailBoundExceeded
from .operators import shift_matrix

TAIL_TARGET = 1e-10
ORDER_CAP = 1 << 14


@dataclass(frozen=True)
class ModelSpaceBasis:
    """Orthonormal coefficient columns spanning Q_u at the given order."""

    columns: np.ndarray  # (order+1, degree)
    order: int
    column_tails: np.ndarray  # certified l1 tail of each column beyond the order

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    @property
    def tail_bound(self) -> float:
        return float(self.column_tails.max(initial=0.0))


def tm_column_tails(u: BlaschkeProduct, order: int) -> np.ndarray:
    """Certified l1 tail of each Takenaka-Malmquist column beyond the order."""
    return np.array(
        [
            series_tail_bound(
                u.zeros[:k],
                order,
                szego_alpha=a,
                scale=np.sqrt(1.0 - abs(a) ** 2),
            )
            for k, a in enumerate(u.zeros)
        ]
    )


def tm_columns(u: BlaschkeProduct, order: int) -> np.ndarray:
    """The Takenaka-Malmquist columns of Q_u cut to the order, with no tail certified.

    They give the inner products <f, e_k> exactly for every f of degree <= order.
    """
    cols = np.zeros((order + 1, u.degree), dtype=complex)
    partial = np.zeros(order + 1, dtype=complex)
    partial[0] = 1.0
    powers = np.arange(order + 1)
    for k, a in enumerate(u.zeros):
        szego = np.sqrt(1.0 - abs(a) ** 2) * np.conj(a) ** powers
        cols[:, k] = np.convolve(partial, szego)[: order + 1]
        # factor (z - a)/(1 - conj(a) z): constant -a, then (1-|a|^2) conj(a)^{k-1}
        factor = np.zeros(order + 1, dtype=complex)
        factor[0] = -a
        factor[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** powers[:-1]
        partial = np.convolve(partial, factor)[: order + 1]
    return cols


def tm_basis(u: BlaschkeProduct, n: int) -> ModelSpaceBasis:
    """Takenaka-Malmquist basis of Q_u, doubling the order up to ORDER_CAP for TAIL_TARGET."""
    order = n
    tails = tm_column_tails(u, order)
    while tails.max(initial=0.0) > TAIL_TARGET and order < ORDER_CAP:
        order = min(2 * order, ORDER_CAP)
        tails = tm_column_tails(u, order)
    if tails.max(initial=0.0) > TAIL_TARGET:
        raise TailBoundExceeded(
            f"basis tail at the order cap {ORDER_CAP} still exceeds {TAIL_TARGET:.1e} "
            f"for {u.text()}"
        )
    return ModelSpaceBasis(columns=tm_columns(u, order), order=order, column_tails=tails)


def lower_toeplitz(coeffs, columns=None) -> np.ndarray:
    """The shifts z^k f, k = 0..columns-1, of the series f = coeffs, cut to its length.

    With the default ``columns`` this is the lower-triangular Toeplitz
    matrix of f: multiplication by f on the section of its order.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    columns = coeffs.size if columns is None else columns
    lag = np.arange(coeffs.size)[:, None] - np.arange(columns)[None, :]
    return np.where(lag >= 0, coeffs[np.maximum(lag, 0)], 0)


def shifted_inner_columns(u: BlaschkeProduct, n: int, k_max=None):
    """Raw truncated expansions of u*z^k for k = 0..k_max, with per-column tails.

    k_max = -1 gives no columns: at order deg(u) - 1, Q_u fills the section.
    """
    if k_max is None:
        k_max = n - u.degree
    if k_max < -1:
        raise ValueError("order too small for any shifted column")
    coeffs, _ = taylor_coefficients(u, n)
    tails = np.array([series_tail_bound(u.zeros, n - k) for k in range(k_max + 1)])
    return lower_toeplitz(coeffs, k_max + 1), tails


def beurling_basis(u: BlaschkeProduct, n: int) -> np.ndarray:
    """Orthonormalized truncated shifts of u spanning the Beurling block.

    The raw shifts are orthonormal in the full inner product; truncation
    perturbs the Gram matrix by tail products, so a QR pass (with positive
    diagonal) restores orthonormality without changing the span.
    """
    raw, _ = shifted_inner_columns(u, n)
    q, r = np.linalg.qr(raw)
    signs = np.sign(np.real(np.diag(r)))
    signs[signs == 0] = 1.0
    return q * signs


def compressed_shift(basis: ModelSpaceBasis) -> np.ndarray:
    """S = B* (shift section) B, the model operator on Q_u."""
    return basis.columns.conj().T @ shift_matrix(basis.order) @ basis.columns


def compress(m, basis: ModelSpaceBasis) -> np.ndarray:
    """B* M B for an operator on the analytic section of the same order."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (basis.order + 1, basis.order + 1):
        raise OrderMismatch(
            f"operator shape {a.shape} does not match the section of order {basis.order}"
        )
    return basis.columns.conj().T @ a @ basis.columns

