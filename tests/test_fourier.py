import numpy as np

from hankellift.fourier import analytic_symbol, conj_flip_symbol, materialize, symbol_from_laurent
from hankellift.operators import hilbert_generator


def conjugate_function(pairs):
    """Oracle for pointwise conjugation on the circle: c_k -> conj(c_{-k})."""
    return {k: np.conj(v) for k, v in ((-k, v) for k, v in pairs)}


def test_conj_flip_two_step_oracle():
    pairs = [(1, 1j)]
    phi = symbol_from_laurent(pairs)
    result = conj_flip_symbol(phi)
    # independent two-step computation: flip the indices, then conjugate pointwise
    flipped = [(-k, v) for k, v in pairs]
    expected = conjugate_function(flipped)
    for k in range(-1, 2):
        assert result.coefficient(k) == expected.get(k, 0.0)
    assert result.coefficient(1) == -1j


def test_conj_flip_fixes_real_symbols():
    phi = symbol_from_laurent([(-2, 1.5), (0, -0.5), (3, 2.0)])
    out = conj_flip_symbol(phi)
    assert np.array_equal(out.laurent, phi.laurent)


def test_conj_flip_involution():
    rng = np.random.default_rng(2)
    pairs = [(k, complex(*rng.standard_normal(2))) for k in range(-4, 5)]
    phi = symbol_from_laurent(pairs)
    assert np.array_equal(conj_flip_symbol(conj_flip_symbol(phi)).laurent, phi.laurent)


def test_materialize_hilbert():
    phi = materialize(hilbert_generator(), 5)
    assert phi.window == 5 and phi.laurent.size == 11
    for k in range(-5, 6):
        expected = 1.0 / (k + 1) if k >= 0 else 0.0
        assert phi.coefficient(k) == expected


def test_analytic_symbol_layout():
    phi = analytic_symbol([1.0, 0.0, 2.0])
    assert phi.window == 2
    assert phi.coefficient(2) == 2.0 and phi.coefficient(-1) == 0.0
