import cmath

import numpy as np
import pytest

from hankellift.blaschke import (
    conj_reflect,
    divide,
    evaluate,
    gcd_inner,
    make_blaschke,
    monomial,
    random_blaschke,
    series_tail_bound,
    taylor_coefficients,
)
from hankellift.errors import AmbiguousMatching, NonUnimodularConstant, ZeroOutsideDisk


def circle_points(n=64):
    return [cmath.exp(2j * cmath.pi * j / n) for j in range(n)]


def test_empty_product_is_one():
    one = make_blaschke([], 1.0)
    assert one.degree == 0
    for z in (0.0, 0.3 + 0.4j, 1.0):
        assert evaluate(one, z) == 1.0


def test_double_zero_at_origin_is_z_squared():
    u = make_blaschke([0.0, 0.0], 1.0)
    for z in (0.25, -0.3 + 0.1j, 0.9j):
        assert abs(evaluate(u, z) - z**2) < 1e-15


def test_conjugate_pair_construction():
    u = make_blaschke([0.5j, -0.5j])
    assert u.degree == 2
    assert u.zeros == (-0.5j, 0.5j)


def test_zero_outside_disk_rejected():
    with pytest.raises(ZeroOutsideDisk):
        make_blaschke([0.96])


def test_non_unimodular_constant_rejected():
    with pytest.raises(NonUnimodularConstant):
        make_blaschke([0.1], 2.0)


def test_evaluate_factor_at_origin_is_its_zero():
    assert evaluate(make_blaschke([0.5]), 0.0) == 0.5


def test_evaluate_origin_factor():
    assert evaluate(make_blaschke([0.0]), 0.5) == -0.5


def test_unit_modulus_on_circle_single_factor():
    u = make_blaschke([0.5j])
    z = cmath.exp(1j * cmath.pi / 3)
    assert abs(abs(evaluate(u, z)) - 1.0) < 1e-12


def test_unit_modulus_on_circle_random_products():
    for seed in range(8):
        u = random_blaschke(seed, max_degree=5, radius=0.8)
        for z in circle_points():
            assert 1.0 - 1e-10 <= abs(evaluate(u, z)) <= 1.0 + 1e-10


def test_conj_reflect_examples():
    assert conj_reflect(make_blaschke([0.5j])).zeros == (-0.5j,)
    assert conj_reflect(make_blaschke([1 / 3])).zeros == (1 / 3 + 0j,)
    u = make_blaschke([0.5j, -0.5j])
    assert conj_reflect(u).zeros == u.zeros


def test_conj_reflect_involution():
    for seed in range(10):
        u = random_blaschke(seed, max_degree=6, radius=0.8)
        assert conj_reflect(conj_reflect(u)).zeros == u.zeros


def test_gcd_multiset_intersection():
    g = gcd_inner(make_blaschke([0.5j, 1 / 3]), make_blaschke([-0.5j, 1 / 3]))
    assert g.zeros == (1 / 3 + 0j,)
    assert g.constant == 1.0


def test_gcd_idempotent():
    u = make_blaschke([0.2 + 0.1j, 0.2 + 0.1j, -0.4])
    assert gcd_inner(u, u).zeros == u.zeros


def test_gcd_of_factor_and_its_reflection_is_trivial():
    # the single zero i/2 has no conjugate partner
    assert gcd_inner(make_blaschke([0.5j]), make_blaschke([-0.5j])).degree == 0


def test_gcd_divides_both_inputs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        common = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(rng.integers(0, 3))]
        extra1 = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(rng.integers(0, 3))]
        extra2 = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(rng.integers(0, 3))]
        b1 = make_blaschke(common + extra1)
        b2 = make_blaschke(common + extra2)
        g = gcd_inner(b1, b2)
        # brute-force multiset check: the planted common zeros must be matched
        assert g.degree >= len(common)
        assert divide(b1, g) is not None
        assert divide(b2, g) is not None


def test_gcd_ambiguous_matching_raises():
    b1 = make_blaschke([0.5])
    b2 = make_blaschke([0.5 + 2e-10, 0.5 - 2e-10])
    with pytest.raises(AmbiguousMatching):
        gcd_inner(b1, b2)


def test_divide_monomials():
    w = divide(monomial(2), monomial(1))
    assert w is not None and w.degree == 1
    for z in (0.3, -0.2 + 0.4j):
        assert abs(evaluate(w, z) - z) < 1e-15


def test_divide_disjoint_zeros_not_divisible():
    assert divide(make_blaschke([0.5j]), make_blaschke([1 / 3])) is None


def test_divide_recomposition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        wz = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(rng.integers(1, 4))]
        uz = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(rng.integers(1, 4))]
        v = make_blaschke(wz + uz)
        w = divide(v, make_blaschke(uz))
        assert w is not None
        assert w.zeros == make_blaschke(wz).zeros


def test_taylor_origin_factor_is_polynomial():
    coeffs, tail = taylor_coefficients(make_blaschke([0.0]), 6)
    assert tail == 0.0
    expected = np.zeros(7)
    expected[1] = -1.0
    assert np.array_equal(coeffs, expected.astype(complex))


def test_taylor_b_half_geometric_series():
    # closed form: c_0 = 1/2, c_k = -(3/4) (1/2)^(k-1)
    coeffs, _ = taylor_coefficients(make_blaschke([0.5]), 10)
    expected = np.array([0.5] + [-(0.75) * 0.5 ** (k - 1) for k in range(1, 11)])
    assert np.allclose(coeffs, expected, atol=1e-15)


def dft_oracle(u, n_samples=64):
    """Independent expansion oracle: DFT of circle samples (aliasing ~ rho^n)."""
    samples = np.array([evaluate(u, z) for z in circle_points(n_samples)])
    return np.fft.fft(samples) / n_samples


def test_taylor_b_half_matches_sampling_oracle():
    coeffs, _ = taylor_coefficients(make_blaschke([0.5]), 15)
    assert np.allclose(coeffs, dft_oracle(make_blaschke([0.5]))[:16], atol=1e-10)


def test_taylor_conjugate_pair_matches_sampling_oracle():
    u = make_blaschke([0.5j, -0.5j])
    coeffs, _ = taylor_coefficients(u, 31)
    assert np.allclose(coeffs, dft_oracle(u)[:32], atol=1e-10)


def test_taylor_reproduces_evaluation_within_certified_tail():
    for seed in range(6):
        u = random_blaschke(seed, max_degree=4, radius=0.7)
        coeffs, tail = taylor_coefficients(u, 48)
        for z in circle_points():
            partial = np.polyval(coeffs[::-1], z)
            assert abs(partial - evaluate(u, z)) <= tail + 1e-10


def test_certified_tail_dominates_true_tail():
    # true tail of b_1/2 beyond n: sum_{k>n} (3/4)(1/2)^(k-1) = (3/2) 2^(-n)
    u = make_blaschke([0.5])
    for n in (4, 8, 16, 32):
        _, tail = taylor_coefficients(u, n)
        assert tail >= 1.5 * 2.0 ** (-n)


def test_tail_bound_stays_positive_for_small_zeros():
    # for small |a| the radius grid reaches 1/|a|, where r^(n+1) would
    # overflow to inf and certify a bound of 0; the exact tail of b_a is
    # (1 - |a|^2) |a|^n / (1 - |a|), compared here in log10
    for a in (1.3e-3, 4e-3, 0.05):
        for n in (64, 129, 257):
            bound = series_tail_bound([a], n)
            exact_log10 = np.log10(1 - a * a) + n * np.log10(a) - np.log10(1 - a)
            assert 0.0 < bound < 1.0 and np.log10(bound) >= exact_log10, (a, n)


def test_reflection_gcd_detects_conjugate_pairs():
    no_pair = make_blaschke([0.3 + 0.2j, -0.1 + 0.5j])
    assert gcd_inner(no_pair, conj_reflect(no_pair)).degree == 0
    with_pair = make_blaschke([0.3 + 0.2j, 0.3 - 0.2j, 0.1 + 0.4j])
    assert gcd_inner(with_pair, conj_reflect(with_pair)).degree == 2
    real_zero = make_blaschke([0.25, 0.1 + 0.4j])
    assert gcd_inner(real_zero, conj_reflect(real_zero)).degree == 1


def test_random_blaschke_plant_control():
    planted = random_blaschke(3, max_degree=5, radius=0.8, plant_pair=True)
    assert gcd_inner(planted, conj_reflect(planted)).degree >= 2
    free = random_blaschke(3, max_degree=5, radius=0.8, plant_pair=False)
    assert gcd_inner(free, conj_reflect(free)).degree == 0


def test_text_form():
    u = make_blaschke([0.5, 0.5, -0.25j])
    text = u.text()
    assert text.startswith("B[(1,0); ")
    assert "(0.5,0)x2" in text
