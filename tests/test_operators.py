import math
from fractions import Fraction

import numpy as np
import pytest

from hankellift.errors import AmbiguousRank, NoConvergence
from hankellift.fourier import conj_flip_symbol, materialize, symbol_from_laurent
from hankellift.operators import (
    hankel_matrix,
    hilbert_generator,
    hilbert_hankel,
    hilbert_log10_minors,
    null_space,
    operator_norm,
    shift_matrix,
    toeplitz_matrix,
)


def random_symbol(seed, window=None):
    rng = np.random.default_rng(seed)
    m = window if window is not None else int(rng.integers(1, 6))
    pairs = [(k, complex(*rng.standard_normal(2))) for k in range(-m, m + 1)]
    return symbol_from_laurent(pairs, window=m)


def test_hankel_hilbert_small_section():
    h = hankel_matrix(materialize(hilbert_generator(), 4), 2)
    expected = np.array(
        [[1, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4], [1 / 3, 1 / 4, 1 / 5]]
    )
    assert np.allclose(h, expected, atol=0)


def test_hankel_ignores_antianalytic_part():
    phi = symbol_from_laurent([(-1, 1.0), (-3, 2.0)])
    assert not hankel_matrix(phi, 3).any()


def test_hankel_shift_symbol():
    h = hankel_matrix(symbol_from_laurent([(1, 1.0)]), 1)
    assert np.array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))


def hankel_column_oracle(phi, n, col):
    """Apply the definition to the monomial z^col: P_+ (phi * J z^col)."""
    flipped = np.zeros(col + 1, dtype=complex)
    flipped[0] = 1.0  # J z^col = z^(-col), stored on indices -col..0
    product = np.convolve(phi.laurent, flipped)  # indices -(window + col)..window
    analytic = product[phi.window + col :]  # P_+: indices 0..window
    column = np.zeros(n + 1, dtype=complex)
    column[: min(n + 1, analytic.size)] = analytic[: n + 1]
    return column


def test_hankel_matches_definition_on_monomials():
    for seed in range(5):
        phi = random_symbol(seed)
        n = 10
        h = hankel_matrix(phi, n)
        for col in range(n + 1):
            assert np.allclose(h[:, col], hankel_column_oracle(phi, n, col), atol=1e-14)


def test_toeplitz_identity_symbol():
    t = toeplitz_matrix(symbol_from_laurent([(0, 1.0)]), 4)
    assert np.array_equal(t, np.eye(5, dtype=complex))


def test_toeplitz_shift_symbol():
    t = toeplitz_matrix(symbol_from_laurent([(1, 1.0)]), 3)
    assert np.array_equal(t, shift_matrix(3))


def test_toeplitz_real_part_symbol():
    t = toeplitz_matrix(symbol_from_laurent([(1, 1.0), (-1, 1.0)]), 3)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        expected[i + 1, i] = expected[i, i + 1] = 1.0
    assert np.array_equal(t, expected)


@pytest.mark.parametrize("window", [3, 16, 40], ids=["window<2n", "window=2n", "window>2n"])
def test_sections_match_the_per_coefficient_build(window):
    # the sections slice a Laurent window in one step; the reference reads
    # phi.coefficient one index at a time
    n = 8
    for phi in (random_symbol(window, window), materialize(hilbert_generator(), window)):
        hankel = np.array([[phi.coefficient(m + k) for k in range(n + 1)] for m in range(n + 1)])
        toeplitz = np.array([[phi.coefficient(m - k) for k in range(n + 1)] for m in range(n + 1)])
        assert np.array_equal(hankel_matrix(phi, n), hankel)
        assert np.array_equal(toeplitz_matrix(phi, n), toeplitz)
        assert hankel_matrix(phi, n).dtype == toeplitz_matrix(phi, n).dtype == complex


def test_hilbert_hankel_small_orders():
    assert np.array_equal(hilbert_hankel(0), np.array([[1.0]], dtype=complex))
    assert np.allclose(
        hilbert_hankel(1), np.array([[1, 1 / 2], [1 / 2, 1 / 3]]), atol=0
    )


def test_hilbert_hankel_is_real_and_symmetric():
    for n in (0, 1, 8, 129):
        h = hilbert_hankel(n)
        assert h.dtype == np.float64 and h.shape == (n + 1, n + 1)
        assert np.array_equal(h, h.T)


def test_real_hilbert_norm_matches_the_complex_svd():
    # a real section is normed by the real SVD, which agrees with the complex
    # SVD of the same section
    for n in (0, 1, 2, 8, 32, 41, 128, 451, 512):
        h = hilbert_hankel(n)
        norm = operator_norm(h)
        assert norm == float(np.linalg.svd(h, compute_uv=False)[0])
        reference = float(np.linalg.svd(h.astype(complex), compute_uv=False)[0])
        assert abs(norm - reference) <= 4 * np.spacing(reference)


def quadratic_eigenvalues(a, b, c, d):
    """Oracle: eigenvalues of [[a, b], [c, d]] from the characteristic polynomial."""
    tr, det = a + d, a * d - b * c
    disc = math.sqrt(tr * tr - 4 * det)
    return (tr - disc) / 2, (tr + disc) / 2


def test_hilbert_two_by_two_eigenvalues():
    lo, hi = quadratic_eigenvalues(1.0, 0.5, 0.5, 1 / 3)
    assert abs(lo - (4 - math.sqrt(13)) / 6) < 1e-15
    assert abs(hi - (4 + math.sqrt(13)) / 6) < 1e-15
    svals = np.linalg.svd(hilbert_hankel(1), compute_uv=False)
    assert abs(svals[-1] - lo) < 1e-14
    assert abs(svals[0] - hi) < 1e-14


def test_operator_norm_examples():
    assert operator_norm(np.eye(3, dtype=complex)) == 1.0
    assert abs(operator_norm(np.array([[0, 1], [1, 0]], dtype=complex)) - 1.0) < 1e-15
    assert abs(operator_norm(hilbert_hankel(1)) - (4 + math.sqrt(13)) / 6) < 1e-12


def test_operator_norm_power_iteration_path():
    rng = np.random.default_rng(0)
    n = 1100  # above the full-SVD limit
    diag = np.concatenate([[2.0], rng.uniform(0.0, 1.0, n - 1)])
    a = np.diag(diag).astype(complex)
    assert abs(operator_norm(a) - 2.0) < 1e-9
    # complex input keeps its complex start vector and iteration bit for bit
    assert operator_norm(a) == 1.999999999999898


def test_operator_norm_real_power_iteration_path():
    rng = np.random.default_rng(0)
    n = 1100  # above the full-SVD limit
    diag = np.concatenate([[2.0], rng.uniform(0.0, 1.0, n - 1)])
    assert abs(operator_norm(np.diag(diag)) - 2.0) <= 1e-12


def test_null_space_invertible():
    basis, report = null_space(np.array([[0, 1], [1, 0]], dtype=complex))
    assert basis.shape == (2, 0) and report.dim == 0


def test_null_space_hankel_shift():
    h = hankel_matrix(symbol_from_laurent([(1, 1.0)]), 3)
    basis, report = null_space(h)
    assert report.dim == 2
    expected = np.zeros((4, 2))
    expected[2, 0] = expected[3, 1] = 1.0
    # compare spans via projectors
    assert np.allclose(
        basis @ basis.conj().T, expected @ expected.T, atol=1e-14
    )


def test_null_space_zero_matrix():
    basis, report = null_space(np.zeros((5, 5), dtype=complex))
    assert report.dim == 5
    assert np.allclose(basis.conj().T @ basis, np.eye(5), atol=1e-14)


def test_null_space_contract():
    rng = np.random.default_rng(17)
    for _ in range(6):
        m, n, r = 12, 10, int(rng.integers(1, 6))
        a = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        )
        basis, report = null_space(a)
        assert report.dim == n - r
        assert np.allclose(basis.conj().T @ basis, np.eye(n - r), atol=1e-12)
        assert np.linalg.norm(a @ basis) <= report.cut * (1 + operator_norm(a))


def test_null_space_cut_is_relative():
    # the cut scales with the largest singular value, but never below rank_tol
    _, report = null_space(np.diag([1e6, 1e-6]).astype(complex), rank_tol=1e-8)
    assert report.dim == 1 and report.cut == pytest.approx(1e-2, rel=1e-12)
    _, report = null_space(np.diag([0.5, 0.0]).astype(complex))
    assert report.dim == 1 and report.cut == 1e-8


def test_null_space_ambiguous_rank():
    with pytest.raises(AmbiguousRank):
        null_space(np.diag([1.0, 1e-7]).astype(complex), rank_tol=1e-8)


def test_hankel_adjoint_is_conjugate_symbol():
    for seed in range(5):
        phi = random_symbol(seed)
        h = hankel_matrix(phi, 12)
        h_adj = hankel_matrix(conj_flip_symbol(phi), 12)
        assert np.array_equal(h_adj, h.conj().T)


def test_brown_halmos_on_sections():
    for seed in range(5):
        phi = random_symbol(seed)
        n = 14
        t_big = toeplitz_matrix(phi, n + 1)
        s = shift_matrix(n + 1)
        squeezed = (s.conj().T @ t_big @ s)[: n + 1, : n + 1]
        assert np.array_equal(squeezed, toeplitz_matrix(phi, n))


def test_hilbert_norm_ladder():
    norms = [operator_norm(hilbert_hankel(m)) for m in (8, 32, 128, 512)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    assert all(v < math.pi for v in norms)


def test_hilbert_sections_positive():
    for m in (8, 64, 256):
        svals = np.linalg.svd(hilbert_hankel(m), compute_uv=False)
        assert svals[-1] > 0.0


def exact_det(rows):
    """Oracle: determinant of a Fraction matrix by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for i in range(len(rows)):
        pivot = rows[i][i]
        det *= pivot
        for r in rows[i + 1 :]:
            factor = r[i] / pivot
            r[i:] = [x - factor * y for x, y in zip(r[i:], rows[i][i:])]
    return det


def test_hilbert_minors_match_exact_determinants():
    minors = hilbert_log10_minors(7)
    assert len(minors) == 8
    for m, value in enumerate(minors, start=1):
        det = exact_det([[Fraction(1, i + j + 1) for j in range(m)] for i in range(m)])
        assert det > 0
        assert abs(value - math.log10(det)) < 1e-12


def test_power_iteration_cap():
    from hankellift.operators import _power_norm

    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8)).astype(complex)
    with pytest.raises(NoConvergence):
        _power_norm(a, max_iter=1)
