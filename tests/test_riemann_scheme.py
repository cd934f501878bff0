"""The Riemann scheme of every equation the package prints, and Fuchs's relation.

At a finite point s, a0 = lim (z-s) p1 and b0 = lim (z-s)^2 p2; at infinity,
a0 = 2 - lim z p1 and b0 = lim z^2 p2 (in t = 1/z).  The local exponents are
the roots of rho(rho-1) + a0 rho + b0 = 0, and Fuchs's relation says that the
exponents over all m non-ordinary points, infinity included, sum to m - 2
(E. L. Ince, Ordinary Differential Equations, 1926, ch. XV).  Every limit is
read off RationalFn's factored form: num over den_lead times the den_roots.
"""

import cmath
import math

import pytest

from fuchsian.curves import Poly, curve_from_degree, expand_poly, integer_roots
from fuchsian.fode import (
    PointKind,
    curve_ode,
    named_equation,
    singular_points,
    whittaker_equation,
)
from fuchsian.moebius import INFINITY

TOL = 1e-9


def _finite_limit(p, s, k):
    """lim (z-s)^k p at a point where p has a pole of order at most k."""
    order = p.den_roots.count(s)
    if p.is_zero or order < k:
        return 0j
    assert order == k, (s, order)
    rest = p.den_lead
    for r in p.den_roots:
        if r != s:
            rest *= s - r
    return p.num(s) / rest


def _infinity_limit(p, k):
    """lim z^k p where p decays at least like z^-k."""
    excess = p.num.degree - len(p.den_roots) + k
    if p.is_zero or excess < 0:
        return 0j
    assert excess == 0, excess
    return p.num.coeffs[-1] / p.den_lead


def riemann_scheme(ode):
    """{location: (rho1, rho2)} over the equation's non-ordinary points."""
    scheme = {}
    for point in singular_points(ode):
        if point.kind is PointKind.ORDINARY:
            continue
        assert point.kind is PointKind.REGULAR_SINGULAR, point
        s = point.location
        if s is INFINITY:
            a0, b0 = 2 - _infinity_limit(ode.p1, 1), _infinity_limit(ode.p2, 2)
        else:
            a0, b0 = _finite_limit(ode.p1, s, 1), _finite_limit(ode.p2, s, 2)
        root = cmath.sqrt((1 - a0) ** 2 - 4 * b0)
        scheme[s] = ((1 - a0 + root) / 2, (1 - a0 - root) / 2)
    return scheme


def _z_n_minus_1(n):
    return Poly((-1.0, *(0.0,) * (n - 1), 1.0))


EQUATIONS = {
    **{f"whittaker-z^{n}-1": (lambda n=n: whittaker_equation(_z_n_minus_1(n)))
       for n in range(5, 9)},
    **{f"whittaker-integer-roots-{n}":
       (lambda n=n: whittaker_equation(expand_poly(integer_roots(n))))
       for n in range(5, 9)},
    **{f"curve_ode-{n}": (lambda n=n: curve_ode(curve_from_degree(n)))
       for n in range(5, 9)},
    "hypergeometric": lambda: named_equation("Hypergeometric", [0.2, 0.3, 0.7]),
    "whittaker-hypergeometric": lambda: named_equation("WhittakerHypergeometric"),
    "heun": lambda: named_equation("Heun", [1, 2, 0.5, 1.5, 2, 3, 0.25]),
    "legendre": lambda: named_equation("Legendre", [2]),
    "tchebychev": lambda: named_equation("Tchebychev", [2]),
}


def _differences(scheme):
    return {s: abs(r1 - r2) for s, (r1, r2) in scheme.items()}


@pytest.mark.parametrize("name", EQUATIONS)
def test_fuchs_relation(name):
    scheme = riemann_scheme(EQUATIONS[name]())
    total = sum(r1 + r2 for r1, r2 in scheme.values())
    assert abs(total - (len(scheme) - 2)) < TOL, (total, len(scheme))


@pytest.mark.parametrize("n", range(5, 9))
@pytest.mark.parametrize("f", [_z_n_minus_1, lambda n: expand_poly(integer_roots(n))],
                         ids=["z^n-1", "integer-roots"])
def test_whittaker_branches_at_every_root(f, n):
    # 1/2 at each of the n roots; infinity is a branch point only for odd n
    diffs = _differences(riemann_scheme(whittaker_equation(f(n))))
    at_infinity = diffs.pop(INFINITY)
    assert len(diffs) == n
    assert all(abs(d - 0.5) < TOL for d in diffs.values()), diffs
    assert abs(at_infinity - (0.5 if n % 2 else 1.0)) < TOL


@pytest.mark.parametrize("n", range(5, 9))
def test_curve_ode_exponents(n):
    # y'' + 2/(z-s) y' = 0 is solved by 1 and 1/(z-s); infinity is ordinary
    s = -1.0 if n % 2 else 1.0
    scheme = riemann_scheme(curve_ode(curve_from_degree(n)))
    assert list(scheme) == [s]
    r1, r2 = scheme[s]
    assert abs(r1) < TOL and abs(r2 + 1) < TOL


@pytest.mark.parametrize("name, expected", [
    ("hypergeometric", {0: 0.3, 1: 0.2, INFINITY: 0.1}),
    ("whittaker-hypergeometric", {0: 0.2, 1: 0.2, INFINITY: 0.2}),
    ("heun", {0: 0.5, 1: 0.5, 3: 1.0, INFINITY: 1.0}),
    ("legendre", {1: 2.0, -1: 2.0, INFINITY: math.sqrt(33)}),
    ("tchebychev", {1: 1.5, -1: 1.5, INFINITY: math.sqrt(20)}),
])
def test_catalog_exponent_differences(name, expected):
    diffs = _differences(riemann_scheme(EQUATIONS[name]()))
    assert diffs.keys() == expected.keys()
    assert all(abs(diffs[s] - d) < TOL for s, d in expected.items()), diffs
