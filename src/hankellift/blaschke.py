"""Finite Blaschke products: zero-level arithmetic and analytic expansion.

A finite Blaschke product is stored as a unimodular constant together with
the multiset of its zeros in the open unit disk.  Products, gcd, and
division are multiset operations on the zeros; the analytic Taylor
expansion is computed by serial convolution of the factor series and comes
with a certified bound on the discarded tail mass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMatching, NonUnimodularConstant, ZeroOutsideDisk

# Zeros with |alpha| >= 1 - DELTA_MIN are rejected: the coefficient decay
# rate max|alpha| governs every truncation cost downstream.
DELTA_MIN = 0.05

# Matching tolerance for gcd / divisibility of floating zeros.
GCD_TOL = 1e-9

UNIMODULAR_TOL = 1e-12

# random_blaschke resamples near-conjugate near-misses closer than this.
MIN_SEP = 1e-3

# Number of expansion radii series_tail_bound minimizes over.
TAIL_GRID = 64
_GRID_STEPS = np.arange(TAIL_GRID, dtype=float)


@dataclass(frozen=True)
class BlaschkeProduct:
    """constant * prod_i (alpha_i - z) / (1 - conj(alpha_i) z)."""

    constant: complex
    zeros: tuple  # complex zeros with multiplicity, canonically sorted

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def text(self) -> str:
        """Canonical text form ``B[(re,im); (re,im)xmult, ...]``."""
        c = complex(self.constant)
        # the zeros are canonically sorted, and a Counter keeps their order
        parts = [f"({z.real:.12g},{z.imag:.12g})x{m}" for z, m in Counter(self.zeros).items()]
        return f"B[({c.real:.12g},{c.imag:.12g}); " + ", ".join(parts) + "]"

    def __str__(self) -> str:
        return self.text()


def _canonical_zeros(zeros):
    return tuple(sorted((complex(z) for z in zeros), key=lambda z: (z.real, z.imag)))


def make_blaschke(zeros, constant=1.0) -> BlaschkeProduct:
    """Build constant * prod b_{alpha_i}; zeros kept with multiplicity."""
    constant = complex(constant)
    # both guards are written so that a NaN fails them
    if not abs(abs(constant) - 1.0) <= UNIMODULAR_TOL:
        raise NonUnimodularConstant(f"|constant| = {abs(constant)!r} is not 1")
    zs = _canonical_zeros(zeros)
    for z in zs:
        if not abs(z) < 1.0 - DELTA_MIN:
            raise ZeroOutsideDisk(
                f"zero {z} has |z| = {abs(z):.6g}, not below {1 - DELTA_MIN}; "
                "truncation would be ill conditioned"
            )
    return BlaschkeProduct(constant=constant, zeros=zs)


def monomial(n: int) -> BlaschkeProduct:
    """The inner function z^n (all zeros at the origin, sign absorbed)."""
    return make_blaschke([0.0] * n, (-1.0) ** n)


def conj_reflect(b: BlaschkeProduct) -> BlaschkeProduct:
    """The inner function whose Taylor coefficients are conjugated.

    For a Blaschke product this conjugates every zero and the constant;
    the operation is involutive.
    """
    return BlaschkeProduct(
        constant=np.conj(b.constant),
        zeros=_canonical_zeros(np.conj(z) for z in b.zeros),
    )


def _check_matching_ambiguity(z1, z2):
    """Raise if several distinct zeros compete for one match slot."""
    c1, c2 = Counter(z1), Counter(z2)
    for left, right in ((c1, c2), (c2, c1)):
        for a, mult in left.items():
            close = [w for w in right if abs(w - a) < GCD_TOL]
            if len(close) >= 2 and mult < sum(right[w] for w in close):
                raise AmbiguousMatching(
                    f"{len(close)} distinct zeros lie within {GCD_TOL} of {a} "
                    f"but only {mult} slot(s) are available; tolerance too coarse"
                )


def _greedy_match(z1, z2):
    """Minimum-distance greedy pairing of two zero lists; returns index pairs."""
    pairs = sorted(
        (abs(a - w), i, j)
        for i, a in enumerate(z1)
        for j, w in enumerate(z2)
        if abs(a - w) < GCD_TOL
    )
    used1, used2, matches = set(), set(), []
    for _, i, j in pairs:
        if i not in used1 and j not in used2:
            used1.add(i)
            used2.add(j)
            matches.append((i, j))
    return matches


def gcd_inner(b1: BlaschkeProduct, b2: BlaschkeProduct) -> BlaschkeProduct:
    """Multiset intersection of the zeros under GCD_TOL-matching; constant 1.

    The representative of a matched pair is taken from ``b1`` so that the
    result divides both inputs under the same tolerance.
    """
    _check_matching_ambiguity(b1.zeros, b2.zeros)
    matches = _greedy_match(b1.zeros, b2.zeros)
    return BlaschkeProduct(
        constant=1.0 + 0.0j,
        zeros=_canonical_zeros(b1.zeros[i] for i, _ in matches),
    )


def divide(v: BlaschkeProduct, u: BlaschkeProduct):
    """Return w with v = w*u when u's zeros embed in v's, else None."""
    matches = _greedy_match(v.zeros, u.zeros)
    if len(matches) < u.degree:
        return None
    matched = {i for i, _ in matches}
    return BlaschkeProduct(
        constant=complex(v.constant) / complex(u.constant),
        zeros=_canonical_zeros(z for i, z in enumerate(v.zeros) if i not in matched),
    )


def _factor_series(alpha, n):
    """Coefficients 0..n of b_alpha(z) = alpha + (|alpha|^2 - 1) sum conj(alpha)^{k-1} z^k."""
    c = np.zeros(n + 1, dtype=complex)
    c[0] = alpha
    if n >= 1:
        c[1:] = (abs(alpha) ** 2 - 1.0) * np.conj(alpha) ** np.arange(n)
    return c


def _factor_weight(alpha_abs, r):
    # sum_k |c_k| r^k for one Blaschke factor; requires alpha_abs * r < 1
    return alpha_abs + (1.0 - alpha_abs**2) * r / (1.0 - alpha_abs * r)


def series_tail_bound(zeros, n, szego_alpha=None, scale=1.0):
    """Certified bound on sum_{k>n} |c_k| for a product of Blaschke factors.

    Optionally multiplied by a normalized Szego kernel 1/(1 - conj(a) z).
    Uses the submultiplicative weighted-l1 norm W_r = sum |c_k| r^k on a
    grid of radii 1 < r < 1/rho, all at once: tail <= min_r W_r / r^(n+1).
    The grid stops where r^(n+1) reaches 1e300, so the power never
    overflows to inf (which would certify a bound of 0).
    Exact polynomials (all zeros at the origin, no kernel factor) get 0.
    """
    moduli = [abs(a) for a in zeros]
    rho = max(moduli, default=0.0)
    if szego_alpha is not None:
        rho = max(rho, abs(szego_alpha))
    if rho == 0.0:
        return 0.0 if n >= len(moduli) else float(abs(scale))
    top = min((1.0 / rho) * (1.0 - 1e-9), 10.0 ** (300.0 / (n + 1)))
    # np.geomspace(1 + 1e-6, top, TAIL_GRID) step by step, so the same doubles
    lo = np.log10(1.0 + 1e-6)
    radii = 10.0 ** (_GRID_STEPS * ((np.log10(top) - lo) / (TAIL_GRID - 1)) + lo)
    radii[0], radii[-1] = 1.0 + 1e-6, top
    w = np.full(TAIL_GRID, float(abs(scale)))
    for aa in moduli:
        w *= _factor_weight(aa, radii)
    if szego_alpha is not None:
        w /= 1.0 - abs(szego_alpha) * radii
    # libm pow per radius: numpy's vectorized pow can differ in the last bit
    return float(np.min(w / np.array([r ** (n + 1) for r in radii.tolist()])))


def taylor_coefficients(b: BlaschkeProduct, n: int):
    """Coefficients c_0..c_n of the power series at 0, plus a certified tail bound.

    Computed by serial convolution of the factor series; coefficients up to
    index ``n`` are exact in floating arithmetic.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = b.constant
    for a in b.zeros:
        coeffs = np.convolve(coeffs, _factor_series(a, n))[: n + 1]
    return coeffs, series_tail_bound(b.zeros, n)


def random_blaschke(seed, max_degree=5, radius=0.8, plant_pair=None):
    """Seeded random product for property tests and the verification suite.

    Draws ``degree`` zeros with |alpha| <= radius.  With ``plant_pair`` (or a
    coin flip when None) one zero is duplicated as its exact conjugate so
    that gcd{u, reflected u} is nontrivial.  Configurations with any
    near-conjugate near-miss |conj(a_p) - a_q| in (GCD_TOL, MIN_SEP) are
    resampled so the gcd decision stays unambiguous.
    """
    rng = np.random.default_rng(seed)
    plant = bool(rng.random() < 0.5) if plant_pair is None else bool(plant_pair)
    degree = int(rng.integers(2 if plant else 1, max_degree + 1))
    for _ in range(256):
        n_free = degree - 2 if plant else degree
        zeros = []
        while len(zeros) < n_free:
            z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            if abs(z) <= radius:
                zeros.append(z)
        if plant:
            while True:
                z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
                if abs(z) <= radius and abs(z.imag) > 0.05:
                    break
            zeros += [z, np.conj(z)]
        gaps = [abs(np.conj(p) - q) for p in zeros for q in zeros]
        if all(g <= GCD_TOL or g >= MIN_SEP for g in gaps):
            return make_blaschke(zeros)
    raise RuntimeError("random_blaschke failed to find an unambiguous configuration")
