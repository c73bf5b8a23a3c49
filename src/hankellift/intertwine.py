"""Intertwiners of the compressed shift with its adjoint, and their Hankel lifts.

The machinery here constructs theta = gcd{u, reflected u}, the lifting
symbol phi = backshift(theta), the compression X = H_phi restricted to
Q_u, the full solution space of S* X = X S by vectorization, the block
form check of the lift, and the fixed-point triviality S* X S = X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blaschke import BlaschkeProduct, conj_reflect, gcd_inner, taylor_coefficients
from .errors import OrderMismatch
from .fourier import Symbol, analytic_symbol
from .model_space import ModelSpaceBasis, compress, compressed_shift, tm_basis
from .operators import RANK_TOL_FACTOR, RankGapReport, hankel_matrix, null_space, operator_norm


def gcd_symbol_theta(u: BlaschkeProduct) -> BlaschkeProduct:
    """theta = gcd of u with its coefficient-conjugated reflection.

    Degree 0 means no nonzero intertwiner of the compressed shift with its
    adjoint exists on Q_u.
    """
    return gcd_inner(u, conj_reflect(u))


def lifting_symbol(u: BlaschkeProduct, n: int, j: int = 1) -> Optional[Symbol]:
    """theta backshifted j times, on window n, or None if theta = 1.

    At j = 1 this is (theta - theta(0))/z, whose sup on the circle is at most
    1 + |theta(0)|; the symbols for j < deg(theta) are distinct and nonzero.
    """
    return _backshift(gcd_symbol_theta(u), n, j)


def _backshift(theta: BlaschkeProduct, n: int, j: int = 1) -> Optional[Symbol]:
    if theta.degree == 0:
        return None
    coeffs, tail = taylor_coefficients(theta, n + j)
    return analytic_symbol(coeffs[j:], tail_l1=tail)


def _section(phi: Symbol, basis: ModelSpaceBasis) -> np.ndarray:
    """H_phi at the order of the basis; refuses a window the section cannot hold."""
    if phi.window > 2 * basis.order:
        raise OrderMismatch(f"symbol window {phi.window} exceeds 2x basis order {basis.order}")
    return hankel_matrix(phi, basis.order)


def intertwiner_from_symbol(basis: ModelSpaceBasis, phi: Symbol) -> np.ndarray:
    """X = H_phi compressed to Q_u at the order of the basis."""
    return compress(_section(phi, basis), basis)


def _lift_blocks(phi: Symbol, basis: ModelSpaceBasis):
    """h = H_phi at the order of the basis, bh = B* h and the Q_u block x = bh B."""
    h = _section(phi, basis)
    bh = basis.columns.conj().T @ h
    return h, bh, bh @ basis.columns


@dataclass(frozen=True)
class BlockLiftRecord:
    """Residuals of the block decomposition of H_phi against diag(X, 0)."""

    x: np.ndarray  # X = B* H_phi B, the Q_u block
    block_qb_norm: float  # Q_u rows against u H^2 columns
    block_bq_norm: float
    block_bb_norm: float
    norm_h: float
    norm_x: float
    norm_gap: float
    order: int

    @property
    def off_diagonal_max(self) -> float:
        return max(self.block_qb_norm, self.block_bq_norm, self.block_bb_norm)


def verify_block_lift(phi: Symbol, basis: ModelSpaceBasis) -> BlockLiftRecord:
    """Split H_phi along Q_u + u H^2 and compare it with diag(X, 0).

    X is the Q_u block itself, so the lift holds when the three blocks that
    touch u H^2 vanish and the norms of H_phi and X agree.  The u H^2
    blocks come from the complement I - BB*, which is the projection onto
    u H^2 to within the basis tail.
    """
    h, bh, x = _lift_blocks(phi, basis)
    b, b_adj = basis.columns, basis.columns.conj().T
    g_qb = bh - x @ b_adj
    g_bq = h @ b - b @ x
    g_bb = h - b @ bh - g_bq @ b_adj
    norm_h, norm_x = operator_norm(h), operator_norm(x)
    return BlockLiftRecord(
        x=x,
        block_qb_norm=operator_norm(g_qb),
        block_bq_norm=operator_norm(g_bq),
        block_bb_norm=operator_norm(g_bb),
        norm_h=norm_h,
        norm_x=norm_x,
        norm_gap=abs(norm_h - norm_x),
        order=basis.order,
    )


@dataclass(frozen=True)
class IntertwinerReport:
    """Solution space of S* X = X S on Q_u with its consistency checks."""

    u: BlaschkeProduct
    theta: BlaschkeProduct
    solution_dim: int
    basis: list  # d x d matrices, orthonormal under the Frobenius pairing
    residuals: list  # per-solution norm of S* X - X S
    gap: RankGapReport
    hankel_structure_dev: float
    gcd_solution_residual: Optional[float]
    x: Optional[np.ndarray]  # B* H_phi B for the lifting symbol; None when theta = 1
    norm_x: float  # ||x||, and ||H_phi|| taken as ||B* H_phi||; both 0 when theta = 1
    norm_h: float
    order: int

    @property
    def residual_max(self) -> float:
        return max(self.residuals, default=0.0)


def _hankel_structure_deviation(a: np.ndarray) -> float:
    """Largest deviation of an entry from the mean of its antidiagonal; 0 if a is Hankel."""
    k = np.add.outer(np.arange(a.shape[0]), np.arange(a.shape[1])).ravel()
    f, counts = a.ravel(), np.bincount(k)
    mean = (np.bincount(k, f.real) + 1j * np.bincount(k, f.imag)) / counts
    # equal entries have spread 0, though their mean may round
    varies = np.bincount(k, f != np.concatenate([a[0], a[1:, -1]])[k]) > 0
    return float((np.abs(f - mean[k]) * varies[k]).max())


def solve_intertwiner_space(u: BlaschkeProduct, n: int, rank_tol=RANK_TOL_FACTOR) -> IntertwinerReport:
    """Numerical kernel of the vectorized map X -> S* X - X S, with cross-checks.

    ``rank_tol`` is relative to the largest singular value of the
    vectorized map.  Column-major stacking is used throughout so kernel
    bases are reproducible.
    """
    if u.degree < 1:
        raise ValueError("u must be nonconstant")
    basis = tm_basis(u, n)
    d = basis.dim
    s = compressed_shift(basis)
    eye = np.eye(d)
    a = np.kron(eye, s.conj().T) - np.kron(s.T, eye)
    kernel, gap = null_space(a, rank_tol)
    solutions = [kernel[:, j].reshape(d, d, order="F") for j in range(kernel.shape[1])]
    residuals = [float(operator_norm(s.conj().T @ x - x @ s)) for x in solutions]
    b = basis.columns
    structure_dev = max((_hankel_structure_deviation(b @ x @ b.conj().T) for x in solutions), default=0.0)

    theta = gcd_symbol_theta(u)
    gcd_residual, x, norm_x, norm_h = None, None, 0.0, 0.0
    if theta.degree > 0:
        # Kronecker: H_phi maps into K_theta, inside Q_u as theta | u, so its
        # section has range in span B and ||H_phi|| = ||B* H_phi||
        _, bh, x = _lift_blocks(_backshift(theta, 2 * basis.order), basis)
        norm_x, norm_h = operator_norm(x), operator_norm(bh)
        vec = x.flatten(order="F")
        scale = np.linalg.norm(vec)
        if scale > 0 and kernel.shape[1]:
            gcd_residual = float(np.linalg.norm(vec - kernel @ (kernel.conj().T @ vec)) / scale)
        else:
            gcd_residual = float(scale)
    return IntertwinerReport(
        u=u,
        theta=theta,
        solution_dim=kernel.shape[1],
        basis=solutions,
        residuals=residuals,
        gap=gap,
        hankel_structure_dev=structure_dev,
        gcd_solution_residual=gcd_residual,
        x=x,
        norm_x=norm_x,
        norm_h=norm_h,
        order=basis.order,
    )


@dataclass(frozen=True)
class ToeplitzFixedReport:
    u: BlaschkeProduct
    solution_dim: int
    gap: RankGapReport
    order: int


def solve_toeplitz_fixed_space(u: BlaschkeProduct, n: int, rank_tol=RANK_TOL_FACTOR) -> ToeplitzFixedReport:
    """Numerical kernel of X -> S* X S - X; trivial for every nonconstant u."""
    if u.degree < 1:
        raise ValueError("u must be nonconstant")
    basis = tm_basis(u, n)
    d = basis.dim
    s = compressed_shift(basis)
    a = np.kron(s.T, s.conj().T) - np.eye(d * d)
    kernel, gap = null_space(a, rank_tol)
    return ToeplitzFixedReport(u=u, solution_dim=kernel.shape[1], gap=gap, order=basis.order)
