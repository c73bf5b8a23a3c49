import cmath

import numpy as np

from hankellift.blaschke import evaluate, make_blaschke, monomial, random_blaschke
from hankellift.fourier import analytic_symbol, symbol_from_laurent
from hankellift.intertwine import (
    gcd_symbol_theta,
    intertwiner_from_symbol,
    lifting_symbol,
    solve_intertwiner_space,
    solve_toeplitz_fixed_space,
    verify_block_lift,
)
from hankellift.fourier import materialize
from hankellift.model_space import compress, compressed_shift, tm_basis
from hankellift.operators import hilbert_generator, hilbert_hankel


def test_gcd_theta_self_conjugate_monomial():
    theta = gcd_symbol_theta(monomial(2))
    assert theta.degree == 2 and theta.zeros == (0j, 0j)


def test_gcd_theta_trivial_for_single_complex_zero():
    assert gcd_symbol_theta(make_blaschke([0.5j])).degree == 0


def test_gcd_theta_conjugate_pair_returns_u():
    u = make_blaschke([0.5j, -0.5j])
    assert gcd_symbol_theta(u).zeros == u.zeros


def test_lifting_symbol_monomial():
    phi = lifting_symbol(monomial(2), 8)
    # backshift of z^2 is z
    expected = np.zeros(9, dtype=complex)
    expected[1] = 1.0
    assert np.array_equal([phi.coefficient(k) for k in range(9)], expected)


def test_lifting_symbol_trivial_gcd_returns_none():
    assert lifting_symbol(make_blaschke([0.5j]), 16) is None


def test_lifting_symbol_sup_bound():
    u = make_blaschke([0.5j, -0.5j])
    phi = lifting_symbol(u, 128)
    theta = gcd_symbol_theta(u)
    cap = 1.0 + abs(evaluate(theta, 0.0))
    for j in range(64):
        w = cmath.exp(2j * cmath.pi * j / 64)
        value = sum(phi.coefficient(k) * w**k for k in range(phi.window + 1))
        assert abs(value) <= cap + 1e-9


def test_intertwiner_monomial_shift_symbol():
    basis = tm_basis(monomial(2), 16)
    x = intertwiner_from_symbol(basis, analytic_symbol([0.0, 1.0]))
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=complex))
    s = compressed_shift(basis)
    lhs = s.conj().T @ x
    rhs = x @ s
    hand = np.array([[1, 0], [0, 0]], dtype=complex)
    assert np.array_equal(lhs, hand) and np.array_equal(rhs, hand)


def test_intertwiner_vanishes_without_analytic_part():
    basis = tm_basis(monomial(2), 16)
    x = intertwiner_from_symbol(basis, symbol_from_laurent([(-1, 1.0)]))
    assert not x.any()


def test_intertwiner_constant_symbol():
    basis = tm_basis(monomial(2), 16)
    x = intertwiner_from_symbol(basis, analytic_symbol([1.0]))
    assert np.array_equal(x, np.array([[1, 0], [0, 0]], dtype=complex))
    s = compressed_shift(basis)
    assert np.array_equal(s.conj().T @ x, x @ s)


def test_solve_single_conjugate_free_zero_has_no_solutions():
    assert solve_intertwiner_space(make_blaschke([0.5j]), 64).solution_dim == 0


def vectorized_map_oracle(s):
    """Build the map X -> S*X - XS column by column on the matrix units."""
    d = s.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    col = 0
    for j in range(d):
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            image = s.conj().T @ e - e @ s
            out[:, col] = image.flatten(order="F")
            col += 1
    return out


def test_solve_monomial_square_matches_brute_force():
    u = monomial(2)
    rep = solve_intertwiner_space(u, 16)
    assert rep.solution_dim == 2
    # brute-force oracle: explicit null space of the loop-built 4x4 map
    s = compressed_shift(tm_basis(u, 16))
    oracle = vectorized_map_oracle(s)
    svals = np.linalg.svd(oracle, compute_uv=False)
    assert int((svals <= 1e-10).sum()) == 2
    # the solutions carry the antidiagonal structure [[a, b], [b, 0]]
    for x in rep.basis:
        assert abs(x[1, 1]) <= 1e-10
        assert abs(x[0, 1] - x[1, 0]) <= 1e-10
    assert all(r <= 1e-10 for r in rep.residuals)


def test_solve_conjugate_pair_contains_both_constructions():
    u = make_blaschke([0.5j, -0.5j])
    rep = solve_intertwiner_space(u, 64)
    assert rep.solution_dim >= 2
    basis = tm_basis(u, 64)
    kernel = np.stack([x.flatten(order="F") for x in rep.basis], axis=1)
    vecs = []
    for j in (1, 2):
        phi = lifting_symbol(u, 2 * basis.order, j)
        x = intertwiner_from_symbol(basis, phi)
        v = x.flatten(order="F")
        vecs.append(v)
        assert np.linalg.norm(v - kernel @ (kernel.conj().T @ v)) <= 1e-8 * np.linalg.norm(v)
    stacked = np.stack(vecs, axis=1)
    assert np.linalg.svd(stacked, compute_uv=False)[1] > 1e-6


def test_solutions_embed_with_hankel_structure():
    for seed in (1, 4, 7):
        u = random_blaschke(seed, max_degree=4, radius=0.7, plant_pair=True)
        rep = solve_intertwiner_space(u, 64)
        assert rep.solution_dim > 0
        assert rep.hankel_structure_dev <= 1e-8


def test_existence_dichotomy_sample():
    for seed in range(15):
        u = random_blaschke(100 + seed, max_degree=5, radius=0.8)
        rep = solve_intertwiner_space(u, 64)
        assert rep.solution_dim == rep.theta.degree
        assert rep.gap.gap >= 100


def test_gcd_solution_is_nonzero_and_in_span():
    for seed in (2, 5):
        u = random_blaschke(seed, max_degree=5, radius=0.7, plant_pair=True)
        rep = solve_intertwiner_space(u, 64)
        assert rep.lift_check.norm_x > 1e-6
        assert rep.gcd_solution_residual <= 1e-8


def test_block_lift_monomial_shift_symbol():
    u = monomial(2)
    phi = analytic_symbol([0.0, 1.0])
    basis = tm_basis(u, 64)
    rec = verify_block_lift(phi, basis)
    assert rec.off_diagonal_max == 0.0
    assert np.array_equal(rec.x, intertwiner_from_symbol(basis, phi))
    assert abs(rec.norm_h - 1.0) < 1e-14 and abs(rec.norm_x - 1.0) < 1e-14


def test_block_lift_conjugate_pair():
    u = make_blaschke([0.5j, -0.5j])
    basis = tm_basis(u, 64)
    phi = lifting_symbol(u, 2 * basis.order)
    rec = verify_block_lift(phi, basis)
    assert np.array_equal(rec.x, intertwiner_from_symbol(basis, phi))
    assert rec.off_diagonal_max < 1e-8
    assert rec.norm_gap < 1e-8


def test_block_lift_fails_for_hilbert_symbol():
    u = monomial(2)
    basis = tm_basis(u, 64)
    rec = verify_block_lift(materialize(hilbert_generator(), 2 * basis.order), basis)
    assert np.array_equal(rec.x, compress(hilbert_hankel(basis.order), basis))
    assert rec.off_diagonal_max > 0.1


def toeplitz_map_oracle(s):
    d = s.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    col = 0
    for j in range(d):
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            image = s.conj().T @ e @ s - e
            out[:, col] = image.flatten(order="F")
            col += 1
    return out


def test_toeplitz_fixed_monomial_is_invertible():
    u = monomial(2)
    assert solve_toeplitz_fixed_space(u, 16).solution_dim == 0
    oracle = toeplitz_map_oracle(compressed_shift(tm_basis(u, 16)))
    assert abs(np.linalg.det(oracle)) > 0.3


def test_toeplitz_fixed_single_factor():
    assert solve_toeplitz_fixed_space(make_blaschke([0.5]), 32).solution_dim == 0


def test_toeplitz_fixed_triple_product():
    u = make_blaschke([0.5j, -0.5j, 1 / 3])
    assert solve_toeplitz_fixed_space(u, 64).solution_dim == 0
