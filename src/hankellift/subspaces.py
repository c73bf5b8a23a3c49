"""Beurling-type invariant and reducing subspace checks and Hankel kernel identities.

Every residual here is judged against an effective tolerance built from the
certified truncation tails involved, never against bare machine epsilon.
A verdict is decisive when the residual sits outside [0.1 tol, 10 tol];
indecisive trials are meant to be re-run at a doubled order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    conj_reflect,
    divide,
    make_blaschke,
    series_tail_bound,
    taylor_coefficients,
)
from .errors import KernelNotBeurling, WindowTooSmall, ZeroOutsideDisk
from .fourier import Symbol, analytic_symbol, conj_flip_symbol, symbol_from_laurent
from .intertwine import gcd_symbol_theta
from .model_space import (
    beurling_basis,
    shifted_inner_columns,
    tm_basis,
    tm_column_tails,
)
from .operators import (
    RANK_TOL_FACTOR,
    hankel_matrix,
    null_space,
    shift_matrix,
    toeplitz_matrix,
)

RESIDUAL_TOL = 1e-8
TAIL_SAFETY = 10.0


@dataclass(frozen=True)
class ConditionResult:
    """One residual check with the tolerance that judged it."""

    name: str
    residual: float
    tolerance: float
    holds: bool
    decisive: bool


def _condition(name, residual, tolerance) -> ConditionResult:
    residual = float(residual)
    tolerance = float(tolerance)
    return ConditionResult(
        name=name,
        residual=residual,
        tolerance=tolerance,
        holds=residual <= tolerance,
        decisive=residual <= 0.1 * tolerance or residual >= 10.0 * tolerance,
    )


def _and_conditions(c1: ConditionResult, c2: ConditionResult):
    holds = c1.holds and c2.holds
    decisive = (
        (c1.decisive and c2.decisive)
        or (c1.decisive and not c1.holds)
        or (c2.decisive and not c2.holds)
    )
    return holds, decisive


@dataclass(frozen=True)
class InvarianceReport:
    """The three equivalent invariance conditions, checked independently."""

    u: BlaschkeProduct
    symbol_window: int
    order: int
    k_range: tuple
    invariant: ConditionResult  # (I - P_{uH2}) H_phi (u z^k) stays small
    kernel: ConditionResult  # H_phi (u z^k) itself stays small
    symbol: ConditionResult  # P_+ phi lies in the model space of the reflection

    @property
    def conditions(self):
        return (self.invariant, self.kernel, self.symbol)

    @property
    def decisive(self) -> bool:
        return all(c.decisive for c in self.conditions)

    @property
    def agreement(self) -> bool:
        return self.invariant.holds == self.kernel.holds == self.symbol.holds

    @property
    def verdict(self) -> bool:
        return self.invariant.holds


def check_invariance(u: BlaschkeProduct, phi: Symbol, n: int, residual_tol=RESIDUAL_TOL) -> InvarianceReport:
    """Evaluate the three invariance conditions for u H^2 under H_phi at order n."""
    if u.degree < 1:
        raise ValueError("u must be nonconstant")
    phi.require_laurent()
    w = phi.window
    if n < 4 * u.degree + w:
        raise WindowTooSmall(
            f"order {n} < 4*deg(u) + window = {4 * u.degree + w}"
        )
    h = hankel_matrix(phi, n).entries
    k_max = n - u.degree - w
    cols, _ = shifted_inner_columns(u, n, k_max=k_max)
    images = h @ cols
    kernel_res = float(np.linalg.norm(images, axis=0).max())
    bb = beurling_basis(u, n)
    outside = images - bb.columns @ (bb.columns.conj().T @ images)
    invariant_res = float(np.linalg.norm(outside, axis=0).max())

    basis_refl = tm_basis(conj_reflect(u), n, tail_target=math.inf)
    phi_plus = np.array([phi.coefficient(k) for k in range(n + 1)])
    symbol_res = float(
        np.linalg.norm(
            phi_plus - basis_refl.columns @ (basis_refl.columns.conj().T @ phi_plus)
        )
    )

    acc_action = phi.tail_l1
    acc_symbol = phi.tail_l1 + 2.0 * basis_refl.tail_bound * float(np.linalg.norm(phi_plus))
    tol_action = residual_tol + TAIL_SAFETY * acc_action
    tol_symbol = residual_tol + TAIL_SAFETY * acc_symbol
    return InvarianceReport(
        u=u,
        symbol_window=w,
        order=n,
        k_range=(0, k_max),
        invariant=_condition("invariant", invariant_res, tol_action),
        kernel=_condition("kernel", kernel_res, tol_action),
        symbol=_condition("symbol", symbol_res, tol_symbol),
    )


@dataclass(frozen=True)
class ReducingReport:
    """Reducing-subspace conditions: both invariances, double kernel, gcd orthogonality."""

    u: BlaschkeProduct
    theta: BlaschkeProduct
    forward: InvarianceReport
    adjoint: InvarianceReport
    gcd_membership: ConditionResult
    both_invariant: bool
    double_kernel: bool
    gcd_orthogonal: bool
    decisive: bool

    @property
    def verdicts(self):
        return (self.both_invariant, self.double_kernel, self.gcd_orthogonal)

    @property
    def agreement(self) -> bool:
        return self.both_invariant == self.double_kernel == self.gcd_orthogonal

    @property
    def verdict(self) -> bool:
        return self.both_invariant


def check_reducing(u: BlaschkeProduct, phi: Symbol, n: int, residual_tol=RESIDUAL_TOL) -> ReducingReport:
    """Reducing check: invariance for phi and for its adjoint symbol, plus gcd test.

    The adjoint path uses the fact that the adjoint of a Hankel operator is
    the Hankel operator of the coefficient-conjugated symbol.
    """
    forward = check_invariance(u, phi, n, residual_tol)
    adjoint = check_invariance(u, conj_flip_symbol(phi), n, residual_tol)
    theta = gcd_symbol_theta(u)
    bb_theta = beurling_basis(theta, n)
    phi_plus = np.array([phi.coefficient(k) for k in range(n + 1)])
    gcd_res = float(np.linalg.norm(bb_theta.columns.conj().T @ phi_plus))
    tol = residual_tol + TAIL_SAFETY * phi.tail_l1
    gcd_cond = _condition("gcd-orthogonal", gcd_res, tol)
    v1, d1 = _and_conditions(forward.invariant, adjoint.invariant)
    v2, d2 = _and_conditions(forward.kernel, adjoint.kernel)
    return ReducingReport(
        u=u,
        theta=theta,
        forward=forward,
        adjoint=adjoint,
        gcd_membership=gcd_cond,
        both_invariant=v1,
        double_kernel=v2,
        gcd_orthogonal=gcd_cond.holds,
        decisive=d1 and d2 and gcd_cond.decisive,
    )


@dataclass(frozen=True)
class TrialOutcome:
    report: object
    doublings: int
    resolved: bool


def resolve_trial(check: Callable, u, phi_at: Callable, n0: int, residual_tol=RESIDUAL_TOL, max_doublings=2) -> TrialOutcome:
    """Run a check, doubling the order until its verdicts are decisive.

    ``phi_at`` materializes the symbol consistently for each order, so a
    doubled run tests the same underlying function at a wider window.
    """
    n = n0
    report = None
    for i in range(max_doublings + 1):
        report = check(u, phi_at(n), n, residual_tol)
        if report.decisive:
            return TrialOutcome(report=report, doublings=i, resolved=True)
        n *= 2
    return TrialOutcome(report=report, doublings=max_doublings, resolved=False)


def kernel_symbol(u: BlaschkeProduct, n: int) -> Symbol:
    """The symbol z-bar times the expansion of the coefficient-conjugated u.

    Its Hankel operator has kernel exactly u H^2; coefficients occupy
    indices -1..n-1.
    """
    if u.degree < 1:
        raise ValueError("u must be nonconstant")
    coeffs, tail = taylor_coefficients(conj_reflect(u), n)
    return symbol_from_laurent(
        [(k - 1, c) for k, c in enumerate(coeffs)],
        window=max(n - 1, 1),
        tail_l1=tail,
        name="kernel symbol",
    )


@dataclass(frozen=True)
class KernelIdentityReport:
    u: BlaschkeProduct
    order: int
    k_range: tuple
    inclusion_residual: float
    inclusion_tolerance: float
    restricted_sigma_min: float
    inclusion_holds: bool

    @property
    def verdict(self) -> bool:
        return self.inclusion_holds and self.restricted_sigma_min > 0.0


def verify_kernel_identity(u: BlaschkeProduct, n: int, inclusion_target=1e-9) -> KernelIdentityReport:
    """Check ker H = u H^2 for the kernel symbol of u on the order-n section.

    (a) every tested shifted column of u is annihilated within the target;
    (b) the section restricted to Q_u columns has smallest singular value
    bounded away from zero, so no extra kernel hides inside the model space.
    """
    if u.degree < 1:
        raise ValueError("u must be nonconstant")
    phi = kernel_symbol(u, 2 * n + 1)
    h = hankel_matrix(phi, n).entries
    l1_phi = float(np.abs(phi.laurent).sum())
    # keep only shifts whose input truncation cannot spoil the target
    k_max = 0
    for k in range(n - u.degree + 1):
        if series_tail_bound(u.zeros, n - k) * l1_phi + phi.tail_l1 <= 0.1 * inclusion_target:
            k_max = k
        else:
            break
    cols, _ = shifted_inner_columns(u, n, k_max=k_max)
    inclusion = float(np.linalg.norm(h @ cols, axis=0).max())
    basis = tm_basis(u, n, tail_target=math.inf)
    restricted = h @ basis.columns
    sigma_min = float(np.linalg.svd(restricted, compute_uv=False)[-1])
    return KernelIdentityReport(
        u=u,
        order=n,
        k_range=(0, k_max),
        inclusion_residual=inclusion,
        inclusion_tolerance=float(inclusion_target),
        restricted_sigma_min=sigma_min,
        inclusion_holds=inclusion <= inclusion_target,
    )


@dataclass(frozen=True)
class DivisorCheckReport:
    u: BlaschkeProduct
    w: BlaschkeProduct
    w_inferred: bool
    alignment_residual: float
    invariant_expected: bool
    invariant_observed: bool
    observed_residual: float

    @property
    def agree(self) -> bool:
        return self.invariant_expected == self.invariant_observed


def kernel_divisor_check(
    phi: Symbol,
    u: BlaschkeProduct,
    n: int,
    w: Optional[BlaschkeProduct] = None,
    rank_tol=RANK_TOL_FACTOR,
    align_tol=1e-6,
    residual_tol=RESIDUAL_TOL,
) -> DivisorCheckReport:
    """Confirm that u H^2 is invariant under H_phi exactly when w divides u.

    ``w`` is the Beurling inner function of ker H_phi; when omitted it is
    inferred from the section: the zeros of w are the eigenvalues of the
    shift compressed to the orthogonal complement of the numerical kernel.
    Raises KernelNotBeurling when the kernel does not align with w H^2.
    """
    phi.require_laurent()
    h = hankel_matrix(phi, n).entries
    kernel, _ = null_space(h, rank_tol)
    dim_kernel = kernel.shape[1]
    inferred = w is None
    if inferred:
        d_w = n + 1 - dim_kernel
        if d_w == 0:
            w = make_blaschke([])
        else:
            _, _, vh = np.linalg.svd(h)
            complement = vh[:d_w, :].conj().T
            s_c = complement.conj().T @ shift_matrix(n) @ complement
            eigs = np.linalg.eigvals(s_c)
            try:
                w = make_blaschke(eigs)
            except ZeroOutsideDisk as exc:
                raise KernelNotBeurling(
                    f"inferred kernel zeros are not inside the disk: {exc}"
                )
    if dim_kernel != n + 1 - w.degree:
        raise KernelNotBeurling(
            f"kernel dimension {dim_kernel} does not match n+1-deg(w) = {n + 1 - w.degree}"
        )
    if dim_kernel:
        bw = beurling_basis(w, n)
        misaligned = kernel - bw.columns @ (bw.columns.conj().T @ kernel)
        alignment = float(np.linalg.norm(misaligned, ord=2))
    else:
        alignment = 0.0
    if alignment > align_tol:
        raise KernelNotBeurling(
            f"kernel misaligned with w H^2 by {alignment:.3e} (tol {align_tol:.1e})"
        )
    expected = divide(u, w) is not None
    k_max = max(n - u.degree - min(phi.window, n), 0)
    cols, _ = shifted_inner_columns(u, n, k_max=k_max)
    observed_res = float(np.linalg.norm(h @ cols, axis=0).max())
    tol = residual_tol + TAIL_SAFETY * phi.tail_l1
    return DivisorCheckReport(
        u=u,
        w=w,
        w_inferred=inferred,
        alignment_residual=alignment,
        invariant_expected=expected,
        invariant_observed=observed_res <= tol,
        observed_residual=observed_res,
    )


def random_symbol_in_model(v: BlaschkeProduct, seed: int, n: int) -> Symbol:
    """Unit-norm random combination of the model-space basis of v, window n.

    The combination coefficients depend only on the seed and the exact
    orthonormality of the full basis, so materializations at different
    orders extend one another coefficient by coefficient.
    """
    if v.degree < 1:
        raise ValueError("v must be nonconstant")
    basis = tm_basis(v, n, tail_target=math.inf)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(v.degree) + 1j * rng.standard_normal(v.degree)
    c /= np.linalg.norm(c)
    coeffs = basis.columns @ c
    tails = tm_column_tails(v, n)
    return analytic_symbol(
        coeffs,
        tail_l1=float(np.abs(c) @ tails),
        name=f"model sample(seed={seed})",
    )


def random_symbol_outside_model(
    v: BlaschkeProduct, seed: int, n: int, window=8, min_component=0.1
) -> Symbol:
    """Seeded random analytic polynomial with a guaranteed component off Q_v."""
    basis = tm_basis(v, max(n, 4 * window), tail_target=math.inf)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        coeffs = rng.standard_normal(window + 1) + 1j * rng.standard_normal(window + 1)
        coeffs /= np.linalg.norm(coeffs)
        vec = np.zeros(basis.order + 1, dtype=complex)
        vec[: window + 1] = coeffs
        off = vec - basis.columns @ (basis.columns.conj().T @ vec)
        if np.linalg.norm(off) >= min_component:
            return analytic_symbol(coeffs, name=f"off-model sample(seed={seed})")
    raise RuntimeError("failed to draw a symbol with an off-model component")


def coburn_intersection_dim(phi: Symbol, n: int, rank_tol=RANK_TOL_FACTOR) -> int:
    """Dimension of ker T_phi intersected with ker T_phi* on the section."""
    t = toeplitz_matrix(phi, n).entries
    stacked = np.vstack([t, t.conj().T])
    kernel, _ = null_space(stacked, rank_tol)
    return kernel.shape[1]
