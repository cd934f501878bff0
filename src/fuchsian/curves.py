"""Hyperelliptic curve bookkeeping for y^2 = z^n +- 1, n in 5..8.

Genus and parity from the degree, singularities as roots of unity, the
integer-shifted root representation, the polynomial product, monic expansion.
Arithmetic is plain Python; Poly.roots hands np.roots's companion matrix to eigvals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .hyperbolic import Tessellation, _integer


@dataclass(frozen=True)
class CurveSpec:
    """y^2 = z^degree + sign (sign -1 gives z^n - 1), for the paper's degrees 5..8."""

    degree: int
    sign: int

    def __post_init__(self):
        n, sign = _integer(self.degree, "degree"), _integer(self.sign, "sign")
        if n < 5:
            raise ValueError(f"degree {n} < 5")
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if n > 8:
            raise ValueError(f"degree {n} not in 5..8")
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "sign", sign)

    @property
    def genus(self) -> int:
        return (self.degree - 1) // 2

    @property
    def parity(self) -> str:
        return "odd" if self.degree % 2 else "even"

    @property
    def singularities(self) -> tuple:
        """Roots of z^n = -sign: the curve's branch points, all unit modulus."""
        n = self.degree
        if self.sign == -1:
            return (*(cmath.exp(2j * math.pi * k / n) for k in range(n)),)
        return (*(cmath.exp(1j * math.pi * (2 * k + 1) / n) for k in range(n)),)


def curve_from_degree(n: int, sign: int = -1) -> CurveSpec:
    return CurveSpec(n, sign)


def tessellation_for_curve(c: CurveSpec) -> Tessellation:
    """{4g,4g} for odd degree, {4g+2, 2g+1} for even degree."""
    g = c.genus
    if c.degree % 2:
        return Tessellation(4 * g, 4 * g)
    return Tessellation(4 * g + 2, 2 * g + 1)


def integer_roots(n: int) -> list:
    """n consecutive integers standing in for the n roots of unity, n in 5..8.

    Odd n: symmetric about 0.  Even n: one extra on the positive side.
    """
    n = curve_from_degree(n).degree
    lo = -((n - 1) // 2)
    return list(range(lo, lo + n))


@dataclass(frozen=True, slots=True)
class Poly:
    """Dense polynomial, coefficients lowest degree first."""

    coeffs: tuple

    def __post_init__(self):
        # built at its exact length, and trailing (high-order) zeros cut off
        # in one slice that keeps one entry, not one tuple per zero (README,
        # Memory)
        cs = (*map(complex, self.coeffs),) or (0j,)
        end = len(cs)
        while end > 1 and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    @property
    def degree(self) -> int:
        return -1 if self.coeffs == (0j,) else len(self.coeffs) - 1  # zero reports -1

    @property
    def is_zero(self) -> bool:
        return self.degree == -1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def scaled(self, s: complex) -> "Poly":
        return Poly([s * c for c in self.coeffs])

    def roots(self) -> tuple:
        """np.roots's companion-matrix eigenvalues, then its 0j roots: bit for bit."""
        if self.degree < 1:
            return ()
        import numpy as np
        k = next(i for i, c in enumerate(self.coeffs) if c != 0)
        if k == self.degree:
            return (0j,) * k
        p = np.array(self.coeffs[k:][::-1])
        a = np.eye(len(p) - 1, k=-1, dtype=complex)
        # an overflowing coefficient ratio leaves inf or nan in the companion
        # matrix, which eigvals rejects; the warnings would only repeat that
        with np.errstate(all="ignore"):
            a[0] = -p[1:] / p[0]
        try:
            found = np.linalg.eigvals(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"root finding failed: {exc}") from exc
        return (*found.tolist(), *(0j,) * k)


def _product(a, b) -> list:
    """Coefficients of the product of two coefficient sequences (lowest first):
    the one general polynomial product, each entry summed from 0j by row of a."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b, i):
            out[k] += x * y
    return out


def expand_poly(roots) -> Poly:
    """Monic product of (z - r) over the root list; empty list gives 1.

    Multiplies by each factor in place, highest coefficient first, so one
    list holds the product until the end."""
    out = [1 + 0j]
    for r in roots:
        nr = -complex(r)
        out.append(out[-1])
        for k in range(len(out) - 2, 0, -1):
            out[k] = out[k - 1] + out[k] * nr
        out[0] *= nr
    return Poly(out)
