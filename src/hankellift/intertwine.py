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
from .model_space import ModelSpaceBasis, beurling_basis, compress, compressed_shift, tm_basis
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
    theta = gcd_symbol_theta(u)
    if theta.degree == 0:
        return None
    coeffs, tail = taylor_coefficients(theta, n + j)
    return analytic_symbol(coeffs[j:], tail_l1=tail, name=f"backshift^{j} gcd")


def _section(phi: Symbol, basis: ModelSpaceBasis) -> np.ndarray:
    """H_phi at the order of the basis; refuses a window the section cannot hold."""
    phi.require_laurent()
    if phi.window > 2 * basis.order:
        raise OrderMismatch(
            f"symbol window {phi.window} exceeds 2x basis order {basis.order}"
        )
    return hankel_matrix(phi, basis.order)


def intertwiner_from_symbol(basis: ModelSpaceBasis, phi: Symbol) -> np.ndarray:
    """X = H_phi compressed to Q_u at the order of the basis."""
    return compress(_section(phi, basis), basis)


@dataclass(frozen=True)
class BlockLiftRecord:
    """Residuals of the block decomposition of H_phi against diag(X, 0)."""

    x: np.ndarray  # X = B* H_phi B, the Q_u block
    block_qb_norm: float  # Q_u rows against Beurling columns
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
    """Change basis to [Q_u | u H^2] and compare H_phi with diag(X, 0).

    X is the Q_u block itself, so the lift holds when the three blocks that
    touch u H^2 vanish and the norms of H_phi and X agree.
    """
    h = _section(phi, basis)
    bq = basis.columns
    bb = beurling_basis(basis.u, basis.order).columns
    x = bq.conj().T @ h @ bq
    g_qb = bq.conj().T @ h @ bb
    g_bq = bb.conj().T @ h @ bq
    g_bb = bb.conj().T @ h @ bb
    norm_h = operator_norm(h)
    norm_x = operator_norm(x)
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
    lift_check: Optional[BlockLiftRecord]
    order: int

    @property
    def residual_max(self) -> float:
        return max(self.residuals, default=0.0)


def _hankel_structure_deviation(a: np.ndarray) -> float:
    """Max spread of the entries on each antidiagonal."""
    n = a.shape[0]
    dev = 0.0
    for k in range(2 * n - 1):
        vals = [a[m, k - m] for m in range(max(0, k - n + 1), min(k, n - 1) + 1)]
        if len(vals) > 1:
            mean = sum(vals) / len(vals)
            dev = max(dev, max(abs(v - mean) for v in vals))
    return float(dev)


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
    residuals = [
        float(operator_norm(s.conj().T @ x - x @ s)) for x in solutions
    ]
    structure_dev = 0.0
    for x in solutions:
        embedded = basis.columns @ x @ basis.columns.conj().T
        structure_dev = max(structure_dev, _hankel_structure_deviation(embedded))

    theta = gcd_symbol_theta(u)
    gcd_residual = None
    lift_check = None
    if theta.degree > 0:
        lift_check = verify_block_lift(lifting_symbol(u, 2 * basis.order), basis)
        vec = lift_check.x.flatten(order="F")
        scale = np.linalg.norm(vec)
        if scale > 0 and kernel.shape[1]:
            proj = kernel @ (kernel.conj().T @ vec)
            gcd_residual = float(np.linalg.norm(vec - proj) / scale)
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
        lift_check=lift_check,
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
    return ToeplitzFixedReport(
        u=u, solution_dim=kernel.shape[1], gap=gap, order=basis.order
    )
