"""The verification battery: each proved claim as one pass/fail criterion.

Criteria are deterministic (seeded), report one line each, and are shared
between the test suite and the ``suite`` CLI command.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .blaschke import conj_reflect, make_blaschke, monomial, random_blaschke
from .fourier import analytic_symbol, conj_flip_symbol, materialize, symbol_from_laurent
from .intertwine import (
    gcd_symbol_theta,
    intertwiner_from_symbol,
    lifting_symbol,
    solve_intertwiner_space,
    solve_toeplitz_fixed_space,
    verify_block_lift,
)
from .model_space import tm_basis
from .operators import (
    hankel_intertwine_residual,
    hankel_matrix,
    hilbert_generator,
    hilbert_hankel,
    operator_norm,
    shift_matrix,
    toeplitz_matrix,
)
from .subspaces import (
    check_invariance,
    check_reducing,
    random_symbol_in_model,
    random_symbol_outside_model,
    resolve_trial,
    verify_kernel_identity,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index} ({self.name}): {self.details} [{self.seconds:.1f}s]"


def criterion_existence_dichotomy() -> tuple[bool, str]:
    """The intertwiners form a space of dimension deg(gcd{u, reflected u})."""
    t0 = time.perf_counter()
    failures = []
    min_gap = math.inf
    for i in range(50):
        u = random_blaschke(1000 + i, max_degree=5, radius=0.8)
        rep = solve_intertwiner_space(u, 64)
        min_gap = min(min_gap, rep.gap.gap)
        if rep.solution_dim != rep.theta.degree or rep.gap.gap < 100.0:
            failures.append(i)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    return ok, (
        f"50 random products: dim = deg(theta), "
        f"min gap {min_gap:.1e}, runtime under 30s: {elapsed < 30.0}"
        + (f", failures at {failures}" if failures else "")
    )


def criterion_conjugate_pair() -> tuple[bool, str]:
    """A single zero i/2 admits none; the pair {i/2, -i/2} admits two independent ones."""
    rep0 = solve_intertwiner_space(make_blaschke([0.5j]), 64)
    u = make_blaschke([0.5j, -0.5j])
    rep = solve_intertwiner_space(u, 64)
    basis = tm_basis(u, 64)
    xs = [
        intertwiner_from_symbol(basis, lifting_symbol(u, 2 * basis.order, j))
        for j in (1, 2)
    ]
    vecs = np.stack([x.flatten(order="F") for x in xs], axis=1)
    sing = np.linalg.svd(vecs, compute_uv=False)
    kernel = np.stack([x.flatten(order="F") for x in rep.basis], axis=1)
    span_res = max(
        float(np.linalg.norm(v - kernel @ (kernel.conj().T @ v)) / np.linalg.norm(v))
        for v in vecs.T
    )
    ok = (
        rep0.solution_dim == 0
        and rep.solution_dim >= 2
        and sing[1] > 1e-6
        and span_res <= 1e-6
    )
    return ok, (
        f"dim(b_i/2)={rep0.solution_dim}, dim(pair)={rep.solution_dim}, "
        f"independence sv {sing[1]:.2f}, span residual {span_res:.1e}"
    )


def criterion_block_lifting() -> tuple[bool, str]:
    """H_phi is diag(X, 0) in the [Q_u | uH^2] basis and the norms coincide."""
    basis1 = tm_basis(monomial(2), 64)
    basis2 = tm_basis(make_blaschke([0.5j, -0.5j]), 64)
    cases = [
        (basis1, analytic_symbol([0.0, 1.0])),
        (basis2, lifting_symbol(basis2.u, 2 * basis2.order)),
    ]
    worst = 0.0
    for basis, phi in cases:
        rec = verify_block_lift(phi, basis)
        worst = max(worst, rec.off_diagonal_max, rec.norm_gap)
    ok = worst <= 1e-8
    return ok, f"2 cases at order 64: worst block/norm residual {worst:.1e}"


def criterion_invariance_equivalence() -> tuple[bool, str]:
    """The three invariance conditions agree on every decisive trial."""
    unresolved, disagreements, doublings = 0, 0, 0
    for i in range(100):
        u = random_blaschke(4000 + i, max_degree=4, radius=0.7)
        v = conj_reflect(u)
        if i % 2 == 0:
            def phi_at(n, v=v, s=24000 + i):
                return random_symbol_in_model(v, s, n // 2)
        else:
            phi0 = random_symbol_outside_model(v, 24000 + i, 64)

            def phi_at(n, p=phi0):
                return p
        out = resolve_trial(check_invariance, u, phi_at, 64)
        doublings = max(doublings, out.doublings)
        if not out.resolved:
            unresolved += 1
        elif not out.report.agreement:
            disagreements += 1
    ok = unresolved == 0 and disagreements == 0
    return ok, (
        f"100 trials: {disagreements} disagreements, {unresolved} unresolved, "
        f"max doublings {doublings}"
    )


def criterion_reducing_equivalence() -> tuple[bool, str]:
    """Both-invariance, double kernel inclusion, and gcd orthogonality agree."""
    unresolved, disagreements, doublings = 0, 0, 0
    for i in range(50):
        kind = i % 3
        if kind in (0, 1):
            u = random_blaschke(5000 + i, max_degree=4, radius=0.7, plant_pair=True)
        else:
            u = random_blaschke(5000 + i, max_degree=4, radius=0.7, plant_pair=False)
        theta = gcd_symbol_theta(u)
        if kind == 0:
            def phi_at(n, v=theta, s=25000 + i):
                return random_symbol_in_model(v, s, n // 2)
        else:
            phi0 = random_symbol_outside_model(theta, 25000 + i, 64)

            def phi_at(n, p=phi0):
                return p
        out = resolve_trial(check_reducing, u, phi_at, 64)
        doublings = max(doublings, out.doublings)
        if not out.resolved:
            unresolved += 1
        elif not out.report.agreement:
            disagreements += 1
    ok = unresolved == 0 and disagreements == 0
    return ok, (
        f"50 trials (adjoint path included): {disagreements} disagreements, "
        f"{unresolved} unresolved, max doublings {doublings}"
    )


def criterion_kernel_identity() -> tuple[bool, str]:
    """ker H = u H^2 for the kernel symbol: inclusion plus no hidden kernel in Q_u."""
    worst_incl, worst_sigma = 0.0, math.inf
    for u in (monomial(2), make_blaschke([0.5]), make_blaschke([0.5j, -0.5j])):
        rep = verify_kernel_identity(u, 64)
        worst_incl = max(worst_incl, rep.inclusion_residual)
        worst_sigma = min(worst_sigma, rep.restricted_sigma_min)
    ok = worst_incl < 1e-9 and worst_sigma > 0.05
    return ok, (
        f"3 inner functions at order 64: inclusion residual {worst_incl:.1e}, "
        f"restricted sigma_min {worst_sigma:.3f}"
    )


def criterion_toeplitz_triviality() -> tuple[bool, str]:
    """S* X S = X has only the zero solution on every model space."""
    dims = []
    for i in range(20):
        u = random_blaschke(7000 + i, max_degree=6, radius=0.8)
        dims.append(solve_toeplitz_fixed_space(u, 64).solution_dim)
    ok = all(d == 0 for d in dims)
    return ok, f"20 random products: solution dimensions {sorted(set(dims))}"


def criterion_hilbert_matrix() -> tuple[bool, str]:
    """Norm ladder below pi, exact 2x2 norm, and no model space reduces the operator."""
    t0 = time.perf_counter()
    norms = [operator_norm(hilbert_hankel(m)) for m in (8, 32, 128, 512)]
    monotone = all(b >= a for a, b in zip(norms, norms[1:]))
    below_pi = all(v < math.pi for v in norms)
    exact = abs(operator_norm(hilbert_hankel(1)) - (4.0 + math.sqrt(13.0)) / 6.0) <= 1e-12
    phi32 = materialize(hilbert_generator(), 32)
    all_false = True
    for u in (monomial(2), make_blaschke([0.5])):
        rep = check_invariance(u, phi32, 64)
        all_false = all_false and not any(c.holds for c in rep.conditions)
    u = monomial(2)
    rec = verify_block_lift(materialize(hilbert_generator(), 128), tm_basis(u, 64))
    lift_fails = rec.off_diagonal_max > 0.1
    elapsed = time.perf_counter() - t0
    ok = monotone and below_pi and exact and all_false and lift_fails and elapsed < 60.0
    return ok, (
        f"norms {', '.join(f'{v:.6f}' for v in norms)} < pi, 2x2 exact, "
        f"invariance all-false {all_false}, off-diagonal {rec.off_diagonal_max:.3f} > 0.1, "
        f"runtime under 60s: {elapsed < 60.0}"
    )


def _random_symbol(seed: int):
    rng = np.random.default_rng(seed)
    window = int(rng.integers(1, 9))
    pairs = [
        (k, complex(rng.standard_normal(), rng.standard_normal()))
        for k in range(-window, window + 1)
    ]
    return symbol_from_laurent(pairs, window=window)


def criterion_structural_identities() -> tuple[bool, str]:
    """Section identities that must hold to rounding: intertwining, shifts, adjoints."""
    worst = 0.0
    exact_bh, exact_adj = True, True
    for i in range(20):
        phi = _random_symbol(9000 + i)
        worst = max(worst, hankel_intertwine_residual(phi, 32))
        n = 16
        t_big = toeplitz_matrix(phi, n + 1)
        s = shift_matrix(n + 1)
        squeezed = (s.conj().T @ t_big @ s)[: n + 1, : n + 1]
        exact_bh = exact_bh and np.array_equal(squeezed, toeplitz_matrix(phi, n))
        exact_adj = exact_adj and np.array_equal(
            hankel_matrix(conj_flip_symbol(phi), n), hankel_matrix(phi, n).conj().T
        )
    worst = max(worst, hankel_intertwine_residual(hilbert_generator(), 16))
    ok = worst <= 1e-13 and exact_bh and exact_adj
    return ok, (
        f"intertwine residual {worst:.1e}, shift-squeeze exact {exact_bh}, "
        f"adjoint symbol exact {exact_adj}"
    )


CRITERIA = [
    (1, "existence dichotomy", criterion_existence_dichotomy),
    (2, "conjugate-pair criterion", criterion_conjugate_pair),
    (3, "block lifting", criterion_block_lifting),
    (4, "invariance equivalence", criterion_invariance_equivalence),
    (5, "reducing equivalence", criterion_reducing_equivalence),
    (6, "kernel identity", criterion_kernel_identity),
    (7, "fixed-point triviality", criterion_toeplitz_triviality),
    (8, "Hilbert matrix", criterion_hilbert_matrix),
    (9, "structural identities", criterion_structural_identities),
]


def run_criterion(index: int) -> CriterionResult:
    idx, name, fn = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        passed, details = fn()
    except Exception as exc:  # a refusal or defect scores as a failure, not a crash
        passed, details = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(
        index=idx, name=name, passed=passed, details=details,
        seconds=time.perf_counter() - t0,
    )


def run_suite() -> list[CriterionResult]:
    return [run_criterion(idx) for idx, _, _ in CRITERIA]
