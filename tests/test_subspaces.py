import numpy as np
import pytest

from hankellift.blaschke import (
    conj_reflect,
    make_blaschke,
    monomial,
    random_blaschke,
    taylor_coefficients,
)
from hankellift.errors import TailBoundExceeded, WindowTooSmall
from hankellift.fourier import analytic_symbol, materialize
from hankellift.intertwine import gcd_symbol_theta
from hankellift.operators import hankel_matrix, hilbert_generator, operator_norm, toeplitz_matrix
from hankellift.subspaces import (
    check_invariance,
    check_reducing,
    kernel_symbol,
    random_symbol_in_model,
    random_symbol_outside_model,
    resolve_trial,
    verify_kernel_identity,
)

Z_SYMBOL = analytic_symbol([0.0, 1.0])


def test_invariance_monomial_shift_symbol_all_true():
    rep = check_invariance(monomial(2), Z_SYMBOL, 64)
    assert all(c.holds for c in rep.conditions)
    assert rep.decisive and rep.agreement
    # H_z annihilates z^2 H^2 outright
    assert rep.kernel.residual == 0.0


def test_invariance_hilbert_all_false():
    phi = materialize(hilbert_generator(), 32)
    for u in (monomial(2), make_blaschke([0.5])):
        rep = check_invariance(u, phi, 64)
        assert not any(c.holds for c in rep.conditions)
        assert rep.decisive and rep.agreement


def test_invariance_zero_symbol_all_true():
    phi = analytic_symbol([0.0])
    for seed in range(3):
        u = random_blaschke(seed, max_degree=4, radius=0.6)
        rep = check_invariance(u, phi, 64)
        assert all(c.holds for c in rep.conditions)


def test_invariance_window_too_small():
    # the exact block needs only window <= order
    rep = check_invariance(monomial(2), analytic_symbol(np.ones(60)), 64)
    assert rep.decisive and rep.k_range == (0, 59)
    with pytest.raises(WindowTooSmall):
        check_invariance(monomial(2), analytic_symbol(np.ones(66)), 64)


def _truncated_shifts(u, n):
    coeffs, _ = taylor_coefficients(u, n)
    cols = np.zeros((n + 1, n + 1 - u.degree), dtype=complex)
    for k in range(n + 1 - u.degree):
        cols[k:, k] = coeffs[: n + 1 - k]
    return cols


def test_exact_residuals_match_an_order_512_beurling_projection():
    # oracle: project onto QR-orthonormalized shifts of u (and of its
    # reflection) at order 512, over the same shifts j = 0..W
    n = 512
    for i in range(10):
        u = random_blaschke(4000 + i, max_degree=4, radius=0.7)
        v = conj_reflect(u)
        if i % 2 == 0:
            phi = random_symbol_in_model(v, 24000 + i, 32)
        else:
            phi = random_symbol_outside_model(v, 24000 + i, 64)
        rep = check_invariance(u, phi, 64)
        shifts = _truncated_shifts(u, n)
        q, _ = np.linalg.qr(shifts)
        images = hankel_matrix(phi, n) @ shifts[:, : phi.window + 1]
        q_refl, _ = np.linalg.qr(_truncated_shifts(v, n))
        phi_plus = np.array([phi.coefficient(k) for k in range(n + 1)])
        oracle = (
            np.linalg.norm(images - q @ (q.conj().T @ images), axis=0).max(),
            np.linalg.norm(images, axis=0).max(),
            np.linalg.norm(q_refl.conj().T @ phi_plus),
        )
        for cond, expected in zip(rep.conditions, oracle):
            assert abs(cond.residual - expected) <= 1e-3 * expected + 1e-12, (i, cond.name)


def test_reducing_monomial_shift_symbol():
    rep = check_reducing(monomial(2), Z_SYMBOL, 64)
    assert rep.verdicts == (True, True, True)
    assert rep.decisive and rep.agreement


def test_reducing_fails_when_gcd_trivial():
    # u = b_{i/2}: theta = 1, so no nonzero symbol can reduce u H^2
    u = make_blaschke([0.5j])
    rep = check_reducing(u, analytic_symbol([0.7, 0.2]), 64)
    assert rep.verdicts == (False, False, False)
    assert rep.agreement


def test_reducing_zero_symbol_everywhere():
    phi = analytic_symbol([0.0])
    for seed in range(3):
        u = random_blaschke(seed, max_degree=3, radius=0.6)
        rep = check_reducing(u, phi, 64)
        assert rep.verdicts == (True, True, True)


def test_kernel_symbol_of_z_squared_is_z():
    phi = kernel_symbol(monomial(2), 8)
    assert phi.coefficient(1) == 1.0
    others = [phi.coefficient(k) for k in range(-1, 8) if k != 1]
    assert all(abs(v) == 0.0 for v in others)


def test_kernel_symbol_of_z_is_constant():
    phi = kernel_symbol(monomial(1), 8)
    assert phi.coefficient(0) == 1.0
    assert phi.coefficient(-1) == 0.0 and phi.coefficient(1) == 0.0


def test_kernel_symbol_single_real_zero_pipeline():
    u = make_blaschke([0.5])
    n = 16
    phi = kernel_symbol(u, n)
    coeffs, _ = taylor_coefficients(u, n)  # real zeros: reflection acts trivially
    for k in range(-1, n - 1):
        assert abs(phi.coefficient(k) - coeffs[k + 1]) < 1e-15


def test_kernel_identity_monomial_exact():
    rep = verify_kernel_identity(monomial(2), 32)
    assert rep.inclusion_residual == 0.0
    assert abs(rep.restricted_sigma_min - 1.0) < 1e-12


def test_kernel_identity_single_factor():
    rep = verify_kernel_identity(make_blaschke([0.5]), 64)
    assert rep.inclusion_residual < 1e-9
    assert rep.restricted_sigma_min > 0.1
    assert rep.k_range[1] >= 1


def test_kernel_identity_tests_every_shift():
    rep = verify_kernel_identity(make_blaschke([0.3 + 0.5j, 0.3 - 0.5j, 0.6]), 64)
    assert rep.k_range == (0, 128)
    assert rep.inclusion_holds


def test_kernel_identity_refuses_an_uncertified_symbol_tail():
    with pytest.raises(TailBoundExceeded):
        verify_kernel_identity(make_blaschke([0.9]), 64)


def test_kernel_identity_rejects_constants():
    with pytest.raises(ValueError):
        verify_kernel_identity(make_blaschke([]), 32)


def test_random_symbol_in_model_is_low_degree_polynomial():
    phi = random_symbol_in_model(monomial(2), 5, 32)
    coeffs = np.array([phi.coefficient(k) for k in range(33)])
    assert np.abs(coeffs[2:]).max() == 0.0  # Q_{z^2} = span{1, z}
    assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-12


def test_random_symbol_in_model_membership_and_determinism():
    v = make_blaschke([0.4j, -0.2])
    phi1 = random_symbol_in_model(v, 9, 48)
    phi2 = random_symbol_in_model(v, 9, 48)
    assert np.array_equal(phi1.laurent, phi2.laurent)
    rep = check_invariance(conj_reflect(v), phi1, 4 * 48 + 2 * 48)
    assert rep.symbol.holds


def test_random_symbol_in_model_extends_across_orders():
    v = make_blaschke([0.4j, -0.2])
    phi_small = random_symbol_in_model(v, 9, 24)
    phi_big = random_symbol_in_model(v, 9, 48)
    for k in range(25):
        assert phi_small.coefficient(k) == phi_big.coefficient(k)


def test_random_symbol_outside_model_has_component():
    v = make_blaschke([0.4j, -0.2])
    phi = random_symbol_outside_model(v, 3, 64)
    rep = check_invariance(v, phi, 64)
    assert not rep.symbol.holds


def test_three_way_equivalence_sample():
    agreements = 0
    for i in range(20):
        u = random_blaschke(300 + i, max_degree=4, radius=0.7)
        v = conj_reflect(u)
        if i % 2 == 0:
            def phi_at(n, v=v, s=700 + i):
                return random_symbol_in_model(v, s, n // 2)
        else:
            phi0 = random_symbol_outside_model(v, 700 + i, 64)

            def phi_at(n, p=phi0):
                return p
        out = resolve_trial(check_invariance, u, phi_at, 64)
        assert out.resolved
        assert out.report.agreement
        agreements += 1
    assert agreements == 20


def test_reducing_equivalence_sample():
    for i in range(12):
        kind = i % 3
        u = random_blaschke(400 + i, max_degree=4, radius=0.7, plant_pair=kind != 2)
        theta = gcd_symbol_theta(u)
        if kind == 0:
            def phi_at(n, v=theta, s=800 + i):
                return random_symbol_in_model(v, s, n // 2)
        else:
            phi0 = random_symbol_outside_model(theta, 800 + i, 64)

            def phi_at(n, p=phi0):
                return p
        out = resolve_trial(check_reducing, u, phi_at, 64)
        assert out.resolved and out.report.agreement
        if kind == 0:
            assert out.report.verdict
        else:
            assert not out.report.verdict


def test_kernel_condition_matches_operator_formulation():
    # the inclusion u H^2 <= ker H_phi is the same as H_phi T_u = 0 on sections
    cases = [
        (monomial(2), Z_SYMBOL, True),
        (monomial(2), materialize(hilbert_generator(), 16), False),
        (make_blaschke([0.5]), Z_SYMBOL, False),
        # ker H_z = z^2 H^2 holds z^3 H^2 but not z H^2
        (monomial(1), Z_SYMBOL, False),
        (monomial(3), Z_SYMBOL, True),
    ]
    for u, phi, expected in cases:
        rep = check_invariance(u, phi, 64)
        coeffs, tail = taylor_coefficients(u, 64)
        t_u = toeplitz_matrix(analytic_symbol(coeffs, tail_l1=tail), 64)
        product = operator_norm(hankel_matrix(phi, 64) @ t_u)
        assert rep.kernel.holds == expected
        assert (product <= rep.kernel.tolerance + 1e-6) == expected
    # H_z z = 1, so the kernel residual of z H^2 under H_z is exactly 1
    assert check_invariance(monomial(1), Z_SYMBOL, 64).kernel.residual == 1.0
