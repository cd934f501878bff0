"""Whittaker's equation for z^n - 1 is the (n, 2, r) triangle equation pulled back.

The triangle equation with local exponent differences lambda, mu, nu at
xi = 0, 1, infinity has the normal form y'' + Q(xi) y = 0 with
Q = A/xi^2 + B/(xi-1)^2 + C/(xi(xi-1)), A = (1 - lambda^2)/4,
B = (1 - mu^2)/4 and C = (lambda^2 + mu^2 - nu^2 - 1)/4.  Under xi = z^n the
normal form picks up Q(xi) xi'^2 + {xi, z}/2, and {z^n, z} = (1 - n^2)/(2 z^2).
With f = z^n - 1 and lambda, mu, nu = 1/n, 1/2, 1/r (r = 2n for odd n, n for
even n) that is (3/16)(f'^2 - ratio f'' f)/f^2 with ratio = (2g+2)/(2g+1):
cleared of denominators, 3 z^2 (f'^2 - ratio f'' f) = 16 z^2 f^2 Q(z).
"""

from fractions import Fraction

import pytest

from fuchsian.curves import Poly
from fuchsian.fode import whittaker_equation


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _add(*polys):
    out = [Fraction(0)] * max(map(len, polys))
    for p in polys:
        for i, x in enumerate(p):
            out[i] += x
    return out


def _scale(s, p):
    return [s * x for x in p]


def _trim(p):
    """p without its high-order zeros."""
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _monomial(k):
    return [Fraction(0)] * k + [Fraction(1)]


def _whittaker_bracket(n):
    """f'^2 - ratio f'' f over Fractions, f = z^n - 1, lowest degree first."""
    g = (n - 1) // 2
    ratio = Fraction(2 * g + 2, 2 * g + 1)
    f = _add(_scale(-1, _monomial(0)), _monomial(n))
    df = _scale(n, _monomial(n - 1))
    d2f = _scale(n * (n - 1), _monomial(n - 2))
    return f, _add(_mul(df, df), _scale(-ratio, _mul(d2f, f)))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_whittaker_bracket_is_the_pulled_back_triangle_equation(n):
    f, bracket = _whittaker_bracket(n)
    r = 2 * n if n % 2 else n
    lam, mu, nu = Fraction(1, n), Fraction(1, 2), Fraction(1, r)
    a = (1 - lam ** 2) / 4
    b = (1 - mu ** 2) / 4
    c = (lam ** 2 + mu ** 2 - nu ** 2 - 1) / 4
    f2 = _mul(f, f)
    lhs = _scale(3, _mul(_monomial(2), bracket))
    rhs = _add(_scale(16 * a * n * n, f2),
               _scale(16 * b * n * n, _monomial(2 * n)),
               _scale(16 * c * n * n, _mul(_monomial(n), f)),
               _scale(4 * (1 - n * n), f2))
    assert _trim(lhs) == _trim(rhs)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_whittaker_numerator_is_the_exact_bracket(n):
    _, bracket = _whittaker_bracket(n)
    got = whittaker_equation(Poly((-1.0, *[0.0] * (n - 1), 1.0))).p2.num.coeffs
    assert [Fraction(c.real) for c in got] == _trim([Fraction(3, 16) * x for x in bracket])
    assert all(c.imag == 0 for c in got)
