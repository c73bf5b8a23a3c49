"""Truncated Fourier symbols on the unit circle.

Symbol realizes an L-infinity multiplier either as a Laurent polynomial on
a finite window or as a coefficient generator rule.  All operations are
pure; a symbol materialized from an underlying function carries its
certified l1 tail next to the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import GeneratorNotMaterialized


@dataclass(frozen=True)
class Symbol:
    """L-infinity symbol: Laurent window or coefficient generator rule.

    Laurent form stores coefficients on -window..window and is exact (the
    symbol IS that Laurent polynomial); ``tail_l1`` carries the certified
    l1 mass by which it differs from an underlying function it was
    materialized from (0 for genuine polynomials).  Generator form carries
    the rule k -> coefficient for k >= 0.
    """

    laurent: Optional[np.ndarray] = None
    window: Optional[int] = None
    generator: Optional[Callable[[int], complex]] = field(default=None, repr=False)
    tail_l1: float = 0.0
    name: str = ""

    @property
    def is_laurent(self) -> bool:
        return self.laurent is not None

    def coefficient(self, k: int) -> complex:
        if self.is_laurent:
            if abs(k) > self.window:
                return 0.0 + 0.0j
            return complex(self.laurent[k + self.window])
        if k < 0:
            return 0.0 + 0.0j
        return complex(self.generator(k))

    def require_laurent(self) -> None:
        if not self.is_laurent:
            raise GeneratorNotMaterialized(
                f"symbol '{self.name}' is in generator form; materialize it first"
            )


def symbol_from_laurent(pairs, window=None, tail_l1=0.0, name="") -> Symbol:
    """Build a Laurent symbol from (index, coefficient) pairs."""
    pairs = [(int(k), complex(v)) for k, v in pairs]
    if window is None:
        window = max((abs(k) for k, _ in pairs), default=0)
    c = np.zeros(2 * window + 1, dtype=complex)
    for k, v in pairs:
        if abs(k) > window:
            raise ValueError(f"index {k} outside window -{window}..{window}")
        c[k + window] = v
    return Symbol(laurent=c, window=window, tail_l1=float(tail_l1), name=name)


def analytic_symbol(coeffs, tail_l1=0.0, name="") -> Symbol:
    """Laurent symbol with coefficients c_0..c_M at indices 0..M."""
    coeffs = np.asarray(coeffs, dtype=complex)
    window = max(coeffs.size - 1, 0)
    c = np.zeros(2 * window + 1, dtype=complex)
    c[window : window + coeffs.size] = coeffs
    return Symbol(laurent=c, window=window, tail_l1=float(tail_l1), name=name)


def generator_symbol(rule, name="") -> Symbol:
    return Symbol(generator=rule, name=name)


def materialize(phi: Symbol, window: int) -> Symbol:
    """Instantiate a generator symbol as the Laurent polynomial on -window..window.

    The result is exact as a Laurent symbol in its own right (tail_l1 = 0).
    """
    if phi.is_laurent:
        if phi.window <= window:
            return phi
        c = phi.laurent[phi.window - window : phi.window + window + 1]
        return replace(phi, laurent=np.array(c), window=window)
    c = np.zeros(2 * window + 1, dtype=complex)
    for k in range(window + 1):
        c[k + window] = phi.coefficient(k)
    return Symbol(laurent=c, window=window, name=phi.name)


def conj_flip_symbol(phi: Symbol) -> Symbol:
    """Conjugate every coefficient in place (the composite conjugate-of-flip law)."""
    phi.require_laurent()
    return replace(phi, laurent=np.conj(phi.laurent))
