"""Monodromy oracle: the paper's Fuchsian equations, integrated around their
singular points, against the group data they should carry.

Classic RK4 carries the fundamental matrix of y'' + p1 y' + p2 y = 0 along a
polygon, evaluating the coefficients through RationalFn.__call__; the result
is the monodromy matrix in the basis with (y, y') = (1, 0) and (0, 1) at the
start.  Stdlib only.
"""

import cmath
import math

import pytest

from fuchsian.curves import Poly, curve_from_degree
from fuchsian.fode import named_equation, whittaker_equation
from fuchsian.uniformize import mursi_parameters, side_transformations


def _transport(ode, points, steps):
    """(a, b, c, d) of the monodromy [[a, b], [c, d]] along the polygon through
    points, with steps RK4 steps on each edge."""
    p1, p2 = ode.p1, ode.p2
    cols = [(1 + 0j, 0j), (0j, 1 + 0j)]  # (y, y') of each basis solution
    for za, zb in zip(points, points[1:]):
        h = (zb - za) / steps
        qb = p1(za), p2(za)
        for k in range(steps):
            z = za + k * h
            # both columns share the coefficients at z, z + h/2 and z + h
            qa, qm, qb = qb, (p1(z + h / 2), p2(z + h / 2)), (p1(z + h), p2(z + h))
            new = []
            for y, dy in cols:
                k1y, k1d = dy, -qa[0] * dy - qa[1] * y
                y2, d2 = y + h / 2 * k1y, dy + h / 2 * k1d
                k2y, k2d = d2, -qm[0] * d2 - qm[1] * y2
                y3, d3 = y + h / 2 * k2y, dy + h / 2 * k2d
                k3y, k3d = d3, -qm[0] * d3 - qm[1] * y3
                y4, d4 = y + h * k3y, dy + h * k3d
                k4y, k4d = d4, -qb[0] * d4 - qb[1] * y4
                new.append((y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y),
                            dy + h / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)))
            cols = new
    (a, c), (b, d) = cols
    return a, b, c, d


def _circle(center, radius, start, chords):
    """The closed polygon of chords inscribed in a circle, from angle start."""
    return [center + cmath.rect(radius, start + 2 * math.pi * k / chords)
            for k in range(chords + 1)]


def _product_trace(m, n):
    return m[0] * n[0] + m[1] * n[2] + m[2] * n[1] + m[3] * n[3]


def test_whittaker_degree5_monodromy_is_the_printed_group():
    # y^2 = z^5 - 1: one loop L_0 about the root 1 from the base point 0; the
    # equation is invariant under z -> w z, which acts on the basis at 0 as
    # D = diag(1, w), so the loop about w^k is L_k = D^-k L_0 D^k
    ode = whittaker_equation(Poly((-1.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
    a, b, c, d = _transport(ode, [0j, *_circle(1.0, 0.3, math.pi, 24), 0j], 200)
    assert abs(a + d) < 1e-8  # a half-turn
    w = cmath.exp(2j * math.pi / 5)
    loops = [(a, b * w ** k, c * w ** -k, d) for k in range(5)]
    monodromy = sorted(abs(_product_trace(loops[i], loops[j]))
                       for i in range(5) for j in range(i + 1, 5))

    sides = side_transformations(mursi_parameters(curve_from_degree(5)))
    printed = sorted(abs(_product_trace((si.a, si.b, si.c, si.d), (sj.a, sj.b, sj.c, sj.d))
                         / cmath.sqrt(si.det * sj.det))
                     for i, si in enumerate(sides) for sj in sides[i + 1:])

    exact = sorted([2 + math.sqrt(5)] * 5 + [(9 + 3 * math.sqrt(5)) / 2] * 5)
    assert max(abs(x - y) for x, y in zip(monodromy, exact)) < 1e-8
    assert max(abs(x - y) for x, y in zip(printed, exact)) < 1e-8


def test_whittaker_hypergeometric_is_the_555_triangle_equation():
    # a = 2/5, b = 1/5, c = 4/5: exponent difference 1/5 at 0, 1 and infinity,
    # so each local monodromy is a rotation by 2 pi / 5 up to scale
    ode = named_equation("WhittakerHypergeometric")
    for center, radius in ((0.0, 0.5), (1.0, 0.5), (0.5, 1.5)):  # the last about infinity
        a, b, c, d = _transport(ode, _circle(center, radius, 0.0, 24), 100)
        got = abs(a + d) / math.sqrt(abs(a * d - b * c))
        assert abs(got - 2 * math.cos(math.pi / 5)) < 1e-10


@pytest.mark.parametrize("n", range(5, 9))
def test_triangle_equation_local_monodromies(n):
    # the (n, 2, r) triangle equation, r = 2n for odd n and n for even n, has
    # exponent differences 1 - c = 1/n at 0, c - a - b = 1/2 at 1 and
    # a - b = 1/r at infinity, so the local monodromy there is, up to scale,
    # a rotation by 2 pi/m for m = n, 2 and r
    r = 2 * n if n % 2 else n
    a, b = (0.5 - 1 / n + 1 / r) / 2, (0.5 - 1 / n - 1 / r) / 2
    ode = named_equation("Hypergeometric", [a, b, 1 - 1 / n])
    for (center, radius), m in zip(((0.0, 0.5), (1.0, 0.5), (0.5, 1.5)), (n, 2, r)):
        ta, tb, tc, td = _transport(ode, _circle(center, radius, 0.0, 24), 50)
        got = abs(ta + td) / math.sqrt(abs(ta * td - tb * tc))
        assert abs(got - 2 * math.cos(math.pi / m)) < 1e-10
