import numpy as np
import pytest

from hankellift.blaschke import gcd_inner, make_blaschke, monomial, random_blaschke
from hankellift.errors import AmbiguousRank, OrderMismatch, TailBoundExceeded
from hankellift import model_space
from hankellift.fourier import symbol_from_laurent
from hankellift.model_space import (
    beurling_basis,
    compress,
    compressed_shift,
    shifted_inner_columns,
    tm_basis,
    tm_columns,
)
from hankellift.operators import GAP_FACTOR, hankel_matrix, operator_norm, shift_matrix


def subspace_intersection_dim(b1, b2, tol=1e-6) -> int:
    """Dimension of span(b1) intersect span(b2) via the stacked-basis spectrum.

    Squared singular values of [b1 b2] equal 1 +- cos(principal angles);
    an intersection direction contributes a value at 2.  The factor-100
    gap rule guards the count.
    """
    s = np.linalg.svd(np.hstack([b1, b2]), compute_uv=False)
    defects = np.sort(np.abs(2.0 - s**2))
    hits = defects[defects <= tol]
    rest = defects[defects > tol]
    if hits.size and rest.size:
        top = hits.max()
        if top > 0 and rest.min() / top < GAP_FACTOR:
            raise AmbiguousRank(
                f"intersection count ambiguous: defects {top:.3e} vs {rest.min():.3e}"
            )
    return int(hits.size)


def test_tm_basis_monomial_case():
    basis = tm_basis(monomial(2), 8)
    expected = np.zeros((basis.order + 1, 2), dtype=complex)
    expected[0, 0] = expected[1, 1] = 1.0
    assert np.array_equal(basis.columns, expected)
    assert basis.tail_bound == 0.0


def test_tm_basis_szego_column():
    # single zero at 1/2: the normalized reproducing kernel sqrt(3)/2 * (1/2)^k
    basis = tm_basis(make_blaschke([0.5]), 64)
    expected = (np.sqrt(3) / 2) * 0.5 ** np.arange(basis.order + 1)
    assert np.allclose(basis.columns[:, 0], expected, atol=1e-15)
    gram = basis.columns.conj().T @ basis.columns
    assert abs(gram[0, 0] - 1.0) <= 1e-10 + basis.tail_bound


def test_tm_basis_dimension_matches_degree():
    for seed in range(8):
        u = random_blaschke(seed, max_degree=6, radius=0.8)
        assert tm_basis(u, 32).dim == u.degree


def test_tm_basis_orthonormal_within_tail():
    for seed in range(6):
        u = random_blaschke(seed, max_degree=5, radius=0.7)
        basis = tm_basis(u, 64)
        gram = basis.columns.conj().T @ basis.columns
        assert np.abs(gram - np.eye(u.degree)).max() <= 1e-10 + basis.tail_bound


def test_tm_basis_auto_raises_order():
    u = make_blaschke([0.8, -0.8j, 0.75])
    basis = tm_basis(u, 16)
    assert basis.order > 16
    assert basis.tail_bound <= 1e-10
    # tm_columns builds at the order it is given; tm_basis at the order it certified
    assert tm_columns(u, 16).shape == (17, 3)
    assert np.array_equal(basis.columns, tm_columns(u, basis.order))


def test_tm_basis_raises_at_order_cap(monkeypatch):
    monkeypatch.setattr(model_space, "ORDER_CAP", 32)
    u = make_blaschke([0.8, -0.8j, 0.75])
    with pytest.raises(TailBoundExceeded):
        tm_basis(u, 16)


def test_beurling_monomial_case():
    basis = beurling_basis(monomial(1), 3)
    expected = np.zeros((4, 3), dtype=complex)
    expected[1, 0] = expected[2, 1] = expected[3, 2] = 1.0
    assert np.allclose(basis, expected, atol=1e-15)


def test_beurling_orthogonal_to_model_space():
    for seed in range(5):
        u = random_blaschke(seed, max_degree=4, radius=0.6)
        q = tm_basis(u, 48)
        b = beurling_basis(u, q.order)
        cross = np.abs(q.columns.conj().T @ b).max()
        assert cross <= 1e-9


def test_beurling_gram_identity():
    basis = beurling_basis(make_blaschke([0.5]), 64)
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-10


def test_shifted_columns_carry_tails():
    cols, tails = shifted_inner_columns(make_blaschke([0.5]), 16)
    assert cols.shape == (17, 16)
    assert tails[0] < tails[-1]  # later shifts keep fewer coefficients


def test_compressed_shift_monomial():
    s = compressed_shift(tm_basis(monomial(2), 8))
    assert np.array_equal(s, np.array([[0, 0], [1, 0]], dtype=complex))


def test_compressed_shift_nilpotent():
    for d in (2, 3, 4):
        s = compressed_shift(tm_basis(monomial(d), 12))
        assert operator_norm(np.linalg.matrix_power(s, d)) <= 1e-10


def test_compressed_shift_contractive():
    for seed in range(8):
        u = random_blaschke(seed, max_degree=6, radius=0.8)
        s = compressed_shift(tm_basis(u, 32))
        assert operator_norm(s) <= 1.0 + 1e-10


def test_compress_identity():
    basis = tm_basis(make_blaschke([0.3, -0.2j]), 32)
    eye = np.eye(basis.order + 1, dtype=complex)
    out = compress(eye, basis)
    assert np.allclose(out, np.eye(2), atol=1e-10 + basis.tail_bound)


def test_compress_shift_agrees_with_compressed_shift():
    basis = tm_basis(make_blaschke([0.4j, 0.1]), 32)
    out = compress(shift_matrix(basis.order), basis)
    assert np.allclose(out, compressed_shift(basis), atol=1e-14)


def test_compress_hankel_shift_on_monomials():
    basis = tm_basis(monomial(2), 16)
    h = hankel_matrix(symbol_from_laurent([(1, 1.0)]), basis.order)
    out = compress(h, basis)
    assert np.array_equal(out, np.array([[0, 1], [1, 0]], dtype=complex))


def test_compress_order_mismatch():
    basis = tm_basis(monomial(2), 16)
    h = hankel_matrix(symbol_from_laurent([(1, 1.0)]), basis.order + 1)
    with pytest.raises(OrderMismatch):
        compress(h, basis)


def test_projectors_split_the_section():
    for seed in range(4):
        u = random_blaschke(seed, max_degree=4, radius=0.6)
        q = tm_basis(u, 48)
        b = beurling_basis(u, q.order)
        p_q = q.columns @ q.columns.conj().T
        p_b = b @ b.conj().T
        tol = 1e-10 + 10 * q.tail_bound
        assert np.abs(p_q @ p_q - p_q).max() <= tol
        assert np.abs(p_q - p_q.conj().T).max() <= tol
        assert np.abs(p_q + p_b - np.eye(q.order + 1)).max() <= 1e-8


def test_intersection_dimension_realizes_gcd():
    rng = np.random.default_rng(23)
    for _ in range(8):
        common = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(rng.integers(0, 3))]
        z1 = common + [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(rng.integers(1, 3))]
        z2 = common + [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(rng.integers(1, 3))]
        u1, u2 = make_blaschke(z1), make_blaschke(z2)
        if len(z1) > 4 or len(z2) > 4:
            continue
        n = 96
        b1 = tm_columns(u1, n)
        b2 = tm_columns(u2, n)
        assert subspace_intersection_dim(b1, b2) == gcd_inner(u1, u2).degree


def test_adjoint_shift_restricts_to_model_space():
    # backshift maps Q_u into itself: (I - P) T_z* B is tail-small
    for seed in range(5):
        u = random_blaschke(seed, max_degree=5, radius=0.7)
        basis = tm_basis(u, 64)
        backshifted = shift_matrix(basis.order).conj().T @ basis.columns
        outside = backshifted - basis.columns @ (basis.columns.conj().T @ backshifted)
        assert np.linalg.norm(outside) <= 1e-8


def test_compress_is_norm_nonincreasing():
    rng = np.random.default_rng(5)
    for seed in range(4):
        u = random_blaschke(seed, max_degree=4, radius=0.7)
        basis = tm_basis(u, 32)
        m = rng.standard_normal((basis.order + 1, basis.order + 1)) + 1j * rng.standard_normal(
            (basis.order + 1, basis.order + 1)
        )
        assert operator_norm(compress(m, basis)) <= operator_norm(m) + 1e-10
