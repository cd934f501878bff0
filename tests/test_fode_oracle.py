"""Exact pole orders from sympy as an independent oracle for fode's
classification of singular points.

Each equation is restated here from its printed formula, in exact rationals,
so a wrong cancellation or a lost pole in fode shows as a disagreement.
"""

import math
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from fuchsian import curves
from fuchsian.curves import expand_poly
from fuchsian.fode import named_equation, singular_points, whittaker_equation
from fuchsian.moebius import is_infinity

from helpers import reference_kind, reference_pole_order

# rational functions over QQ: arithmetic cancels common factors exactly
_, Z = sp.field("z", sp.QQ)
_, W = sp.field("w", sp.QQ)


def _poles(f):
    """{pole: order} of a reduced rational function, read off the linear
    factors of its denominator (every case here has rational poles)."""
    if not f.numer:
        return {}
    poles = {}
    for factor, order in f.denom.factor_list()[1]:
        b, a = factor.coeff(1), factor.coeff(factor.ring.gens[0])
        assert factor == a * factor.ring.gens[0] + b, "pole off the rationals"
        poles[-b / a] = poles.get(-b / a, 0) + order
    return poles


def oracle_points(p1, p2):
    """{finite pole: (order in p1, order in p2)} and the kind at infinity,
    where P1 = 2/w - p1(1/w)/w^2 and P2 = p2(1/w)/w^4 at w = 0.  p1 and p2
    are functions of one field element, so the same formula serves z and 1/w."""
    poles1, poles2 = _poles(p1(Z)), _poles(p2(Z))
    finite = {s: (poles1.get(s, 0), poles2.get(s, 0)) for s in {*poles1, *poles2}}
    at_inf = (_poles(2 / W - p1(1 / W) / W**2).get(0, 0),
              _poles(p2(1 / W) / W**4).get(0, 0))
    return finite, reference_kind(*at_inf)


def named_exact(name, params):
    """p1, p2 exactly as named_equation's docstring prints them."""
    q = [sp.QQ(p.numerator, p.denominator) for p in map(Fraction, params)]
    if name == "Legendre":
        lam, = q
        return lambda x: 2 * x / (1 - x**2), lambda x: lam * (lam + 1) / (1 - x**2)
    if name == "Tchebychev":
        lam, = q
        return lambda x: x / (1 - x**2), lambda x: lam**2 / (1 - x**2)
    if name == "Heun":
        al, be, ga, de, ep, a, qq = q
        return (lambda x: ga / x + de / (x - 1) + ep / (x - a),
                lambda x: (al * be * x - qq) / (x * (x - 1) * (x - a)))
    if name == "Hypergeometric":
        a, b, c = q
        return (lambda x: (c - (1 + a + b) * x) / (x * (1 - x)),
                lambda x: -a * b / (x * (1 - x)))
    # WhittakerHypergeometric: 25z(z-1) y'' + 20(2z-1) y' + 2 y = 0
    return (lambda x: 20 * (2 * x - 1) / (25 * x * (x - 1)),
            lambda x: 2 / (25 * x * (x - 1)))


def assert_agrees(ode, p1, p2):
    finite, kind_at_inf = oracle_points(p1, p2)
    found = singular_points(ode)
    assert is_infinity(found[-1].location) and found[-1].kind is kind_at_inf
    assert len(found) - 1 == len(finite)
    for pc in found[:-1]:
        s = min(finite, key=lambda s: abs(float(s) - pc.location))
        assert abs(float(s) - pc.location) <= 1e-9
        o1, o2 = finite[s]
        assert (reference_pole_order(ode.p1, pc.location),
                reference_pole_order(ode.p2, pc.location)) == (o1, o2)
        assert pc.kind is reference_kind(o1, o2)


NAMED_CASES = [
    ("Legendre", ["1/2"]),
    ("Legendre", ["3"]),
    ("Legendre", ["-1"]),  # p2 = 0
    ("Tchebychev", ["1/3"]),
    ("Tchebychev", ["0"]),  # p2 = 0
    ("Heun", ["1", "2", "1/2", "1/2", "1", "3", "1/4"]),
    ("Heun", ["1", "2", "0", "4", "5", "3", "0"]),  # 0 ordinary: both poles cancel
    ("Heun", ["1", "2", "3", "4", "0", "-2", "-4"]),  # a = -2 ordinary
    ("Heun", ["1", "1", "1", "1", "1", "-2", "0"]),
    # a far pole: gamma + delta + epsilon = 39/20 is the residue at infinity
    ("Heun", ["0", "2", "1", "1/2", "9/20", "100000000000", "0"]),
    ("Heun", ["0", "2", "1", "1/2", "9/20", "1000000000000", "0"]),
    # gamma + delta + epsilon = 2 beside a far pole: infinity is ordinary
    ("Heun", ["0", "2", "1", "1/2", "1/2", "2000000000000", "0"]),
    # epsilon = 1e-20 keeps the pole at 3, and gamma + delta + epsilon != 2 infinity's
    ("Heun", ["0", "2", "1", "1", "1e-20", "3", "0"]),
    # a = 1e-10 is a fourth point beside 0
    ("Heun", ["1", "2", "3", "4", "5", "1e-10", "1/2"]),
    ("Hypergeometric", ["1/2", "1/2", "1"]),
    ("Hypergeometric", ["1/3", "2/5", "7/4"]),
    ("Hypergeometric", ["0", "1", "0"]),  # p1 pole at 0 cancels, p2 = 0
    ("Hypergeometric", ["0", "1", "10000000000000"]),  # 1 + a + b = 2: infinity ordinary
    ("Hypergeometric", ["0", "1", "2e-12"]),  # a small residue c at 0 keeps its pole
    ("Hypergeometric", ["0", "1", "-1e-12"]),
    ("Hypergeometric", ["1/10", "1/5", "13/10"]),  # c = 1 + a + b in decimals
    ("WhittakerHypergeometric", []),
]


@pytest.mark.parametrize("name,params", NAMED_CASES,
                         ids=[f"{n}({','.join(p)})" for n, p in NAMED_CASES])
def test_named_equations_match_exact_pole_orders(name, params):
    ode = named_equation(name, [float(Fraction(p)) for p in params])
    assert_agrees(ode, *named_exact(name, params))


# the integer-root polynomials of degrees 5..8, and one of degree 8 whose
# two far roots make its top coefficient tiny beside the others
WHITTAKER_ROOTS = {str(n): curves.integer_roots(n) for n in range(5, 9)}
WHITTAKER_ROOTS["far-pair-degree-8"] = [-2, -1, 0, 1, 2, 3, 10**6, -10**6]


@pytest.mark.parametrize("roots", WHITTAKER_ROOTS.values(), ids=WHITTAKER_ROOTS)
def test_whittaker_matches_exact_pole_orders(roots):
    g = math.ceil(len(roots) / 2) - 1
    ratio = sp.QQ(2 * g + 2, 2 * g + 1)

    def p2(x):
        # f, f', f'' at x from the product rule over the roots
        f, fp, fpp = 1, 0, 0
        for r in roots:
            f, fp, fpp = f * (x - r), fp * (x - r) + f, fpp * (x - r) + 2 * fp
        return sp.QQ(3, 16) * (fp**2 - ratio * fpp * f) / f**2

    assert_agrees(whittaker_equation(expand_poly(roots)), lambda x: 0 * x, p2)
