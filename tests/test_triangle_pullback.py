"""Whittaker's equation for z^n - 1 is the (n, 2, r) triangle equation pulled back.

The triangle equation with local exponent differences lambda, mu, nu at
xi = 0, 1, infinity has the normal form y'' + Q(xi) y = 0 with
Q = A/xi^2 + B/(xi-1)^2 + C/(xi(xi-1)), A = (1 - lambda^2)/4,
B = (1 - mu^2)/4 and C = (lambda^2 + mu^2 - nu^2 - 1)/4.  Under xi = z^n the
normal form picks up Q(xi) xi'^2 + {xi, z}/2, and {z^n, z} = (1 - n^2)/(2 z^2).
With f = z^n - 1 and lambda, mu, nu = 1/n, 1/2, 1/r (r = 2n for odd n, n for
even n) that is (3/16)(f'^2 - ratio f'' f)/f^2 with ratio = (2g+2)/(2g+1):
cleared of denominators, 3 z^2 (f'^2 - ratio f'' f) = 16 z^2 f^2 Q(z).

Its Schwarz map s(xi) = xi^(1/n) F(a+1/n, b+1/n; 1+1/n; xi) / F(a, b; c; xi),
with c = 1 - 1/n, a = (1/2 - 1/n + 1/r)/2 and b = (1/2 - 1/n - 1/r)/2, sends
the triangle's vertices to 0, B = s(1) and a point C of argument pi/n, and
Gamma functions give both B and |C| in closed form.  So the ODE alone places
the half-turn centers at radius rho = tanh(d/2), cosh d = cos(pi/r)/sin(pi/n).
"""

import math
from fractions import Fraction

import pytest

from fuchsian.curves import Poly, curve_from_degree
from fuchsian.fode import whittaker_equation
from fuchsian.uniformize import fixed_point_radius, uniformize


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


def _gauss_sum(a, b, c):
    """F(a, b; c; 1) by Gauss's summation theorem, for c - a - b > 0."""
    return math.gamma(c) * math.gamma(c - a - b) / (math.gamma(c - a) * math.gamma(c - b))


def _connection(a, b, c):
    """The coefficient of (-xi)^-b in F(a, b; c; xi) as xi -> -infinity, for a > b."""
    return math.gamma(c) * math.gamma(a - b) / (math.gamma(a) * math.gamma(c - b))


def _schwarz_radius(n):
    """B / |C| and rho from the Schwarz map's vertices B = s(1) and |C| = |s(infinity)|.

    The absolute circle is the circle about 0 orthogonal to the arc through B
    and C = |C| e^(i pi/n) that meets the real axis at a right angle, centered
    at x0 with radius R1; its own radius is R0, and B sits at rho = B / R0.
    """
    r = 2 * n if n % 2 else n
    a, b, c = (0.5 - 1 / n + 1 / r) / 2, (0.5 - 1 / n - 1 / r) / 2, 1 - 1 / n
    shifted = (a + 1 / n, b + 1 / n, 1 + 1 / n)  # c - a - b = 1/2 and a - b = 1/r for both
    big_b = _gauss_sum(*shifted) / _gauss_sum(a, b, c)
    abs_c = _connection(*shifted) / _connection(a, b, c)
    x0 = (abs_c ** 2 - big_b ** 2) / (2 * (abs_c * math.cos(math.pi / n) - big_b))
    r1 = abs(x0 - big_b)
    return big_b / abs_c, big_b / math.sqrt(x0 ** 2 - r1 ** 2)


# B / |C| in closed form where it has one: 1/phi, sqrt3 - 1 and sqrt(2 - sqrt2)
SCALE_FREE = {5: 2 / (1 + math.sqrt(5)), 6: math.sqrt(3) - 1, 8: math.sqrt(2 - math.sqrt(2))}


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_schwarz_map_places_the_fixed_points_of_the_triangle_group(n):
    # the right triangle with angles pi/n at 0, pi/2 at B and pi/r at C
    r = 2 * n if n % 2 else n
    ab = math.acosh(math.cos(math.pi / r) / math.sin(math.pi / n))
    ac = math.acosh(1 / (math.tan(math.pi / n) * math.tan(math.pi / r)))
    ratio, rho = _schwarz_radius(n)
    assert abs(rho - math.tanh(ab / 2)) <= 1e-14
    assert abs(ratio - math.tanh(ab / 2) / math.tanh(ac / 2)) <= 1e-14
    if n in SCALE_FREE:
        assert abs(ratio - SCALE_FREE[n]) <= 1e-14


# printed (Mursi) radius minus the ODE's, as tests/test_golden.py pins its bands
PRINTED_MINUS_ODE = {6: 0.0461325, 7: -0.3536347, 8: -0.2790274}


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_printed_radius_is_the_odes_only_at_degree_5(n):
    printed = fixed_point_radius(uniformize(curve_from_degree(n)).params)
    deviation = printed - _schwarz_radius(n)[1]
    if n == 5:
        assert abs(deviation) <= 1e-12
    else:
        assert abs(deviation - PRINTED_MINUS_ODE[n]) <= 1e-6
