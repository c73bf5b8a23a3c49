import cmath

import numpy as np
import pytest

from hankellift import intertwine
from hankellift.blaschke import (
    DELTA_MIN,
    conj_reflect,
    make_blaschke,
    monomial,
    random_blaschke,
    taylor_coefficients,
)
from hankellift.fourier import analytic_symbol, symbol_from_laurent
from hankellift.intertwine import (
    _hankel_structure_deviation,
    gcd_symbol_theta,
    intertwiner_from_symbol,
    lifting_symbol,
    solve_intertwiner_space,
    solve_toeplitz_fixed_space,
    verify_block_lift,
)
from hankellift.fourier import materialize
from hankellift.model_space import beurling_basis, compress, compressed_shift, tm_basis
from hankellift.operators import hankel_matrix, hilbert_generator, hilbert_hankel, operator_norm
from hankellift.subspaces import random_symbol_outside_model


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
    cap = 1.0 + abs(taylor_coefficients(theta, 0)[0][0])
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


def antidiagonal_spread_oracle(a):
    """Reference: the spread about the mean, one antidiagonal list at a time."""
    n = a.shape[0]
    dev = 0.0
    for k in range(2 * n - 1):
        vals = [a[m, k - m] for m in range(max(0, k - n + 1), min(k, n - 1) + 1)]
        if len(vals) > 1:
            mean = sum(vals) / len(vals)
            dev = max(dev, max(abs(v - mean) for v in vals))
    return float(dev)


def test_antidiagonal_spread_matches_the_loop():
    # the means are summed in another order, so the two agree to rounding
    rng = np.random.default_rng(3)
    for n in range(1, 71):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tol = 4 * np.finfo(float).eps * np.abs(a).max()
        assert abs(_hankel_structure_deviation(a) - antidiagonal_spread_oracle(a)) <= tol


def test_antidiagonal_spread_on_hankel_sections_and_one_perturbed_entry():
    eps = np.finfo(float).eps
    for n in (0, 1, 8, 64):
        # integer coefficients: every antidiagonal sum and mean is exact
        exact = [(k, complex(k % 5 - 2, 3 - k % 7)) for k in range(-3, 2 * n + 2)]
        h = hankel_matrix(symbol_from_laurent(exact), n)
        assert _hankel_structure_deviation(h) == 0.0
        # other coefficients: the mean of n + 1 equal entries may round
        generic = [(k, complex(np.cos(k + 0.1), np.sin(3 * k))) for k in range(-3, 2 * n + 2)]
        g = hankel_matrix(symbol_from_laurent(generic), n)
        assert _hankel_structure_deviation(g) <= (n + 1) * eps * np.abs(g).max()
        if n:
            h[n, 0] += 1e-9  # on the longest antidiagonal, of n + 1 entries
            assert _hankel_structure_deviation(h) >= 0.5e-9


def test_solutions_embed_with_hankel_structure():
    for seed in (1, 4, 7):
        u = random_blaschke(seed, max_degree=4, radius=0.7, plant_pair=True)
        rep = solve_intertwiner_space(u, 64)
        assert rep.solution_dim > 0
        assert rep.hankel_structure_dev <= 1e-13


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
        assert rep.norm_x > 1e-6
        assert rep.gcd_solution_residual <= 1e-8


EPS = np.finfo(float).eps

# three conjugate pairs and six free zeros in |z| <= 0.6, none the conjugate
# of another: the shape of the benchmark's high-degree products
DEGREE_12 = [
    0.3 + 0.4j, 0.3 - 0.4j, -0.5 + 0.2j, -0.5 - 0.2j, 0.1 + 0.55j, 0.1 - 0.55j,
    0.5 + 0.25j, -0.3 + 0.35j, -0.1 - 0.45j, 0.35 - 0.2j, 0.05 + 0.15j, -0.55 - 0.1j,
]


def planted_products():
    """Criterion-1 draws with theta != 1, a triple zero, a pair at the edge of the disk, degree 12."""
    draws = (random_blaschke(1000 + i, max_degree=5, radius=0.8) for i in range(50))
    edge = (1 - DELTA_MIN - 1e-7) * cmath.exp(1.95j)  # the basis doubles to order 1024
    return [u for u in draws if gcd_symbol_theta(u).degree > 0] + [
        make_blaschke([0.5] * 3),
        make_blaschke([edge, edge.conjugate()]),
        make_blaschke(DEGREE_12),
    ]


def test_norm_h_taken_on_the_model_rows_is_the_section_norm():
    # theta | u and Kronecker's theorem put the range of H_phi in K_theta,
    # inside Q_u, so the section's columns lie in span B and ||B* H_phi||
    # is its norm; the range residual is the rounding of length-(n+1) sums
    for u in planted_products():
        rep = solve_intertwiner_space(u, 64)
        basis = tm_basis(u, 64)
        n, b = basis.order, basis.columns
        phi = lifting_symbol(u, 2 * n)
        h = hankel_matrix(phi, n)
        norm_h = operator_norm(h)
        assert abs(rep.norm_h - norm_h) <= 8 * EPS * norm_h, u.text()
        assert operator_norm(h - b @ (b.conj().T @ h)) <= np.sqrt(n + 1) * EPS * norm_h, u.text()
        assert np.array_equal(rep.x, intertwiner_from_symbol(basis, phi))
        assert rep.norm_x == operator_norm(rep.x)


def test_planted_solve_decomposes_no_section_sized_matrix(monkeypatch):
    # the solve's SVDs are the Kronecker system's and those of matrices with
    # deg u rows; wrapped here at the bindings intertwine calls
    shapes = {"operator_norm": [], "null_space": []}

    def recording(name):
        inner = getattr(intertwine, name)

        def wrapped(m, *args, **kwargs):
            shapes[name].append(np.shape(m))
            return inner(m, *args, **kwargs)

        return wrapped

    for name in shapes:
        monkeypatch.setattr(intertwine, name, recording(name))
    monkeypatch.setattr(intertwine, "verify_block_lift", lambda *a: pytest.fail("verify_block_lift called"))
    u = random_blaschke(2, max_degree=5, radius=0.7, plant_pair=True)
    rep = solve_intertwiner_space(u, 64)
    d = u.degree
    assert rep.theta.degree > 0 and rep.norm_h > 0.0
    assert shapes["null_space"] == [(d * d, d * d)]
    assert shapes["operator_norm"] and all(min(shape) <= d for shape in shapes["operator_norm"])


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
    # its section has columns off Q_u, so ||B* H|| is not its norm, which is
    # why verify_block_lift takes the norm of the full section
    h, b = hilbert_hankel(basis.order), basis.columns
    assert operator_norm(h - b @ (b.conj().T @ h)) > 0.1 * operator_norm(h)


def test_block_lift_complement_matches_beurling_qr_blocks():
    # the u H^2 blocks taken from I - BB* agree with those against the
    # re-orthonormalized shifts of u, off the model space and on the lift
    for seed in range(30):
        u = random_blaschke(1000 + seed, max_degree=5, radius=0.8)
        basis = tm_basis(u, 64)
        b, bb = basis.columns, beurling_basis(u, basis.order)
        symbols = [random_symbol_outside_model(conj_reflect(u), seed, 64)]
        if gcd_symbol_theta(u).degree > 0:
            symbols.append(lifting_symbol(u, 2 * basis.order))
        for phi in symbols:
            h = hankel_matrix(phi, basis.order)
            rec = verify_block_lift(phi, basis)
            reference = (
                (rec.block_qb_norm, b.conj().T @ h @ bb),
                (rec.block_bq_norm, bb.conj().T @ h @ b),
                (rec.block_bb_norm, bb.conj().T @ h @ bb),
            )
            for norm, block in reference:
                assert abs(norm - operator_norm(block)) <= 1e-12 + 10 * basis.tail_bound


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
