"""Beurling-type invariant and reducing subspace checks and Hankel kernel identities.

Every residual here is judged against an effective tolerance built from the
certified truncation tails involved, never against bare machine epsilon.
A verdict is decisive when the residual sits outside [0.1 tol, 10 tol];
indecisive trials are meant to be re-run at a doubled order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    conj_reflect,
    series_tail_bound,  # noqa: F401  unused; bench/test_bench.py asserts this binding is traced
    taylor_coefficients,
)
from .errors import TailBoundExceeded, WindowTooSmall
from .fourier import Symbol, analytic_symbol, conj_flip_symbol, symbol_from_laurent
from .intertwine import gcd_symbol_theta
from .model_space import lower_toeplitz, tm_column_tails, tm_columns
from .operators import (
    hankel_matrix,
    null_space,  # noqa: F401  unused; bench/test_bench.py asserts this binding is traced
)

RESIDUAL_TOL = 1e-8
TAIL_SAFETY = 10.0
# resolve_trial doubles the order at most this many times.
MAX_DOUBLINGS = 2
# verify_kernel_identity's bound on the inclusion residual.
INCLUSION_TARGET = 1e-9
# random_symbol_outside_model draws polynomials of this degree whose
# component off the model space has at least this norm.
OFF_MODEL_WINDOW = 8
MIN_OFF_COMPONENT = 0.1


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


def _shift_images(u: BlaschkeProduct, phi: Symbol):
    """H_phi (u z^j) and the shifts u z^j cut to degree W, for j = 0..W.

    W is the symbol window: H_phi reads and writes only coefficients 0..W,
    so the images are exact on the (W+1)^2 block, and u z^j vanishes under
    H_phi for every j > W.  The images H_W U_W form the Hankel matrix of
    g_s = sum_i phi_{s+i} u_i, built here from one convolution: unlike a
    threaded matrix product, its rounding does not depend on the BLAS
    thread count, so the reports stay byte-deterministic.
    """
    w = phi.window
    coeffs, _ = taylor_coefficients(u, w)
    g = np.convolve(phi.laurent[w:], coeffs[::-1])[w:]
    return hankel_matrix(analytic_symbol(g), w), lower_toeplitz(coeffs)


def check_invariance(u: BlaschkeProduct, phi: Symbol, n: int, residual_tol=RESIDUAL_TOL) -> InvarianceReport:
    """Evaluate the three invariance conditions for u H^2 under H_phi.

    Each is an exact finite sum over every shift u z^j; the order n only
    bounds the work, so a window beyond it is refused.
    """
    if u.degree < 1:
        raise ValueError("u must be nonconstant")
    w = phi.window
    if w > n:
        raise WindowTooSmall(f"symbol window {w} exceeds the order {n}")
    images, shifts = _shift_images(u, phi)
    # the images have degree <= W, so the first W+1 coefficients of the
    # orthonormal TM columns give their Q_u = (I - P_{uH^2}) component exactly
    model = tm_columns(u, w)
    tol = residual_tol + TAIL_SAFETY * phi.tail_l1
    return InvarianceReport(
        u=u,
        symbol_window=w,
        order=n,
        k_range=(0, w),
        invariant=_condition("invariant", np.linalg.norm(model.conj().T @ images, axis=0).max(), tol),
        kernel=_condition("kernel", np.linalg.norm(images, axis=0).max(), tol),
        # the shifts of the reflection are the conjugated shifts of u
        symbol=_condition("symbol", np.linalg.norm(shifts.T @ phi.laurent[w:]), tol),
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
    theta_coeffs, _ = taylor_coefficients(theta, phi.window)
    gcd_res = np.linalg.norm(lower_toeplitz(theta_coeffs).conj().T @ phi.laurent[phi.window :])
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


def resolve_trial(check: Callable, u, phi_at: Callable, n0: int) -> TrialOutcome:
    """Run a check, doubling the order up to MAX_DOUBLINGS times until its verdicts are decisive.

    ``phi_at`` materializes the symbol consistently for each order, so a
    doubled run tests the same underlying function at a wider window.
    """
    n = n0
    report = None
    for i in range(MAX_DOUBLINGS + 1):
        report = check(u, phi_at(n), n)
        if report.decisive:
            return TrialOutcome(report=report, doublings=i, resolved=True)
        n *= 2
    return TrialOutcome(report=report, doublings=MAX_DOUBLINGS, resolved=False)


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


def verify_kernel_identity(u: BlaschkeProduct, n: int) -> KernelIdentityReport:
    """Check ker H = u H^2 for the kernel symbol of u, of window 2n.

    (a) every shift of u is annihilated within INCLUSION_TARGET;
    (b) the order-n section restricted to Q_u columns has smallest singular
    value bounded away from zero, so no extra kernel hides inside the model
    space.  Refuses when the symbol's truncation tail could spoil (a).
    """
    if u.degree < 1:
        raise ValueError("u must be nonconstant")
    phi = kernel_symbol(u, 2 * n + 1)
    if phi.tail_l1 > 0.1 * INCLUSION_TARGET:
        raise TailBoundExceeded(
            f"kernel symbol tail {phi.tail_l1:.3e} at order {n} exceeds "
            f"{0.1 * INCLUSION_TARGET:.1e}; raise the order above {n}"
        )
    images, _ = _shift_images(u, phi)
    inclusion = float(np.linalg.norm(images, axis=0).max())
    restricted = hankel_matrix(phi, n) @ tm_columns(u, n)
    sigma_min = float(np.linalg.svd(restricted, compute_uv=False)[-1])
    return KernelIdentityReport(
        u=u,
        order=n,
        k_range=(0, phi.window),
        inclusion_residual=inclusion,
        inclusion_tolerance=INCLUSION_TARGET,
        restricted_sigma_min=sigma_min,
        inclusion_holds=inclusion <= INCLUSION_TARGET,
    )


def random_symbol_in_model(v: BlaschkeProduct, seed: int, n: int) -> Symbol:
    """Unit-norm random combination of the model-space basis of v, window n.

    The combination coefficients depend only on the seed and the exact
    orthonormality of the full basis, so materializations at different
    orders extend one another coefficient by coefficient.
    """
    if v.degree < 1:
        raise ValueError("v must be nonconstant")
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(v.degree) + 1j * rng.standard_normal(v.degree)
    c /= np.linalg.norm(c)
    return analytic_symbol(tm_columns(v, n) @ c, tail_l1=float(np.abs(c) @ tm_column_tails(v, n)))


def random_symbol_outside_model(v: BlaschkeProduct, seed: int, n: int) -> Symbol:
    """Seeded random analytic polynomial with a guaranteed component off Q_v."""
    w = OFF_MODEL_WINDOW
    order = max(n, 4 * w)
    columns = tm_columns(v, order)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        coeffs = rng.standard_normal(w + 1) + 1j * rng.standard_normal(w + 1)
        coeffs /= np.linalg.norm(coeffs)
        vec = np.zeros(order + 1, dtype=complex)
        vec[: w + 1] = coeffs
        off = vec - columns @ (columns.conj().T @ vec)
        if np.linalg.norm(off) >= MIN_OFF_COMPONENT:
            return analytic_symbol(coeffs)
    raise RuntimeError("failed to draw a symbol with an off-model component")
