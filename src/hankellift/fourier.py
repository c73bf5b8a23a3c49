"""Truncated Fourier symbols on the unit circle.

Symbol realizes an L-infinity multiplier as a Laurent polynomial on a
finite window; a coefficient rule becomes one by ``materialize``.  All
operations are pure; a symbol materialized from an underlying function
carries its certified l1 tail next to the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Symbol:
    """L-infinity symbol: the Laurent polynomial with coefficients on -window..window.

    The symbol IS that Laurent polynomial; ``tail_l1`` carries the certified
    l1 mass by which it differs from an underlying function it was
    materialized from (0 for genuine polynomials).
    """

    laurent: np.ndarray  # odd length 2 * window + 1, index k at k + window
    tail_l1: float = 0.0

    @property
    def window(self) -> int:
        return (self.laurent.size - 1) // 2

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.window:
            return 0.0 + 0.0j
        return complex(self.laurent[k + self.window])


def symbol_from_laurent(pairs, window=None, tail_l1=0.0) -> Symbol:
    """Build a Laurent symbol from (index, coefficient) pairs."""
    pairs = [(int(k), complex(v)) for k, v in pairs]
    if window is None:
        window = max((abs(k) for k, _ in pairs), default=0)
    c = np.zeros(2 * window + 1, dtype=complex)
    for k, v in pairs:
        if abs(k) > window:
            raise ValueError(f"index {k} outside window -{window}..{window}")
        c[k + window] = v
    return Symbol(laurent=c, tail_l1=float(tail_l1))


def analytic_symbol(coeffs, tail_l1=0.0) -> Symbol:
    """Laurent symbol with coefficients c_0..c_M at indices 0..M."""
    coeffs = np.asarray(coeffs, dtype=complex)
    window = max(coeffs.size - 1, 0)
    c = np.zeros(2 * window + 1, dtype=complex)
    c[window : window + coeffs.size] = coeffs
    return Symbol(laurent=c, tail_l1=float(tail_l1))


def materialize(rule: Callable[[int], complex], window: int) -> Symbol:
    """The analytic Laurent symbol with coefficients rule(0)..rule(window).

    The result is exact as a Laurent symbol in its own right (tail_l1 = 0).
    """
    return analytic_symbol([rule(k) for k in range(window + 1)])


def conj_flip_symbol(phi: Symbol) -> Symbol:
    """Conjugate every coefficient in place (the composite conjugate-of-flip law)."""
    return replace(phi, laurent=np.conj(phi.laurent))
