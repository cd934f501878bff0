"""Property tests: canonical JSON, Moebius maps, half-turns, disk isometries,
geodesic midpoints, genus bounds, polynomial expansion and roots, the
Whittaker numerator, the catalog's exact pole decisions, singular-point
classification."""

import cmath
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from fuchsian.curves import Poly, _product, expand_poly
from fuchsian.embed import genus_range
from fuchsian.fode import (
    ZERO_RATIONAL, PointKind, RationalFn, SecondOrderODE, _infinity_pole_orders,
    is_fuchsian, named_equation, singular_points, whittaker_equation)
from fuchsian.hyperbolic import ModelPoint, distance, geodesic_midpoint, half_turn
from fuchsian.moebius import (
    INFINITY, MoebiusMap, apply, compose, is_infinity, is_projectively_identity)
from fuchsian.report import canonical_json

from helpers import (
    oracle_json, reference_infinity_pole, reference_pole_order, reference_singular_points)

PROPERTY = settings(max_examples=200, deadline=None)

SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308,
     1.7976931348623157e308])
LEAVES = (st.floats() | SPECIAL_FLOATS | st.complex_numbers() | st.fractions()
          | st.integers() | st.text() | st.booleans() | st.none())
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10)

# finite roots of modulus up to 10
ROOTS = st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                    allow_infinity=False) | st.integers(-10, 10),
                 max_size=12)

ANGLES = st.floats(0.0, 2.0 * math.pi)
SCALARS = st.builds(cmath.rect, st.floats(0.5, 2.0), ANGLES)

# points of the disk within hyperbolic distance 2 atanh(0.99), about 5.3,
# of the origin; the paper's fixed points sit at radius 0.3 to 0.6
DISK_POINTS = st.builds(
    lambda r, t: ModelPoint.disk(cmath.rect(r, t)),
    st.floats(0.0, 0.99), st.floats(0.0, 2.0 * math.pi))


@PROPERTY
@given(DOCUMENTS, st.integers(1, 17))
def test_canonical_json_round_trips(doc, precision):
    text = canonical_json(doc, precision)
    assert canonical_json(json.loads(text), precision) == text


@PROPERTY
@given(st.floats() | SPECIAL_FLOATS | st.floats(-1e-300, 1e-300), st.integers(1, 17))
def test_canonical_json_prints_every_float_as_the_oracle(x, precision):
    assert canonical_json(x, precision) == oracle_json(x, precision)


@PROPERTY
@given(DISK_POINTS, DISK_POINTS, DISK_POINTS)
def test_half_turn_is_an_involutive_isometry(p, x, y):
    m = half_turn(p)
    assert is_projectively_identity(compose(m, m))
    hx, hy = (ModelPoint.disk(apply(m, w.z)) for w in (x, y))
    assert math.isclose(distance(hx, hy), distance(x, y), rel_tol=1e-9, abs_tol=1e-9)


# a, b, c and det of modulus 0.5 to 2, so |d| <= 12: every map and its
# inverse moves points of the sphere by a bounded factor
MAPS = st.builds(lambda a, b, c, det: MoebiusMap(a, b, c, (det + b * c) / a),
                 SCALARS, SCALARS, SCALARS, SCALARS)
EXTENDED_POINTS = (st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                      allow_infinity=False)
                   | st.just(INFINITY))
# rotation by t after the translation z -> (z + p)/(conj(p) z + 1), |p| <= 0.9
DISK_ISOMETRIES = st.builds(
    lambda p, t: compose(MoebiusMap(cmath.exp(0.5j * t), 0j, 0j, cmath.exp(-0.5j * t)),
                         MoebiusMap(1.0, p, p.conjugate(), 1.0)),
    st.builds(cmath.rect, st.floats(0.0, 0.9), ANGLES), ANGLES)


def chordal(z, w):
    """Chordal distance on the Riemann sphere, infinity included."""
    if is_infinity(z):
        z, w = w, z
    if is_infinity(z):
        return 0.0
    if is_infinity(w):
        return 2.0 / math.hypot(1.0, abs(z))
    return 2.0 * abs(z - w) / (math.hypot(1.0, abs(z)) * math.hypot(1.0, abs(w)))


def _entries(m):
    return (m.a, m.b, m.c, m.d)


@PROPERTY
@given(MAPS, MAPS, MAPS)
def test_compose_is_associative(m1, m2, m3):
    left = compose(compose(m1, m2), m3)
    right = compose(m1, compose(m2, m3))
    # the two products round apart by a few ulps of |m1| |m2| |m3|, entrywise
    moduli = [MoebiusMap(*map(abs, _entries(m))) for m in (m1, m2, m3)]
    size = compose(compose(moduli[0], moduli[1]), moduli[2])
    for x, y, s in zip(_entries(left), _entries(right), _entries(size)):
        assert abs(x - y) <= 1e-14 * abs(s)


@PROPERTY
@given(MAPS, EXTENDED_POINTS)
@example(MoebiusMap(1.0, 2.0, 1.0, -1.0), 1.0)  # the pole: 1 -> infinity -> 1
def test_inverse_and_apply_round_trip_on_the_sphere(m, z):
    inv = m.inverse()
    assert chordal(apply(inv, apply(m, z)), z) <= 1e-12
    assert chordal(apply(m, apply(inv, z)), z) <= 1e-12


@PROPERTY
@given(DISK_ISOMETRIES, DISK_POINTS, DISK_POINTS)
def test_distance_is_invariant_under_disk_isometries(m, x, y):
    assert m.is_disk_isometry()
    mx, my = (ModelPoint.disk(apply(m, w.z)) for w in (x, y))
    assert math.isclose(distance(mx, my), distance(x, y), rel_tol=1e-9, abs_tol=1e-9)


@PROPERTY
@given(DISK_POINTS, DISK_POINTS)
def test_geodesic_midpoint_is_equidistant(x, y):
    assume(x.z != y.z)
    mid = geodesic_midpoint(x, y)
    assert math.isclose(distance(x, mid), distance(mid, y), rel_tol=1e-9, abs_tol=1e-9)


@PROPERTY
@given(st.integers(2, 10**6), st.integers(2, 10**6))
def test_genus_range_is_symmetric_and_ordered(m, n):
    r = genus_range(m, n)
    assert r == genus_range(n, m)
    assert r.g_min <= r.g_max


@PROPERTY
@given(ROOTS)
def test_expand_poly_equals_the_repeated_product(roots):
    reference = [1 + 0j]
    for r in roots:
        reference = _product(reference, (-complex(r), 1.0))
    assert expand_poly(roots) == Poly(reference)


def test_expand_poly_of_no_roots_is_one():
    assert expand_poly([]) == Poly((1.0,))


# 5 to 12 roots, one in each of as many equal angular sectors, at radius 0.5
# to 2 and at most 0.4 of a sector from its middle: any two are over 0.05 apart
SECTOR_ROOTS = st.integers(5, 12).flatmap(lambda n: st.lists(
    st.tuples(st.floats(0.5, 2.0), st.floats(-0.4, 0.4)), min_size=n, max_size=n).map(
    lambda draws: [cmath.rect(rho, 2.0 * math.pi * (k + t) / n)
                   for k, (rho, t) in enumerate(draws)]))


@PROPERTY
@given(SECTOR_ROOTS, SCALARS)
@example([1.0, 1j, -1.0, -1j, 0.5 + 0.5j, -0.5 - 0.5j], 1.0)  # even: the top two cancel
def test_whittaker_numerator_is_the_poly_expression(roots, lead):
    f = expand_poly(roots).scaled(lead)
    n = len(roots)
    g = (n - 1) // 2
    df = [k * c for k, c in enumerate(f.coeffs) if k]
    ddf = [k * c for k, c in enumerate(df) if k]
    q = float(Fraction(2 * g + 2, 2 * g + 1))
    want = [x + -1.0 * (q * y) for x, y in zip(_product(df, df), _product(ddf, f.coeffs))]
    # degree 2n - 2 for odd n; for even n the top two coefficients are 0
    size = 2 * n - 1 if n % 2 else 2 * n - 3
    assert repr(whittaker_equation(f).p2.num) == repr(Poly([3 / 16 * c for c in want[:size]]))


# short decimals, as typed at the CLI: each float's repr gives its decimal back
DECIMALS = st.decimals(-20, 20, places=2)
COMPLEX_DECIMALS = st.tuples(DECIMALS, DECIMALS)


def _floats(*pairs):
    return [complex(float(x), float(y)) for x, y in pairs]


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _exact_poles(poles, residues):
    """The poles whose exact residue, a (real, imaginary) pair, is not 0."""
    return [complex(s) for s, r in zip(poles, residues) if r != (0, 0)]


@settings(max_examples=50, deadline=None)
@given(st.lists(COMPLEX_DECIMALS, min_size=3, max_size=3),
       st.sampled_from(["free", "c = 0", "c = 1 + a + b", "a + b = 1",
                        "re c = re(1 + a + b)", "re(a + b) = 1"]))
@example([(Decimal("0.1"), 0), (Decimal("0.2"), 0), (Decimal("1.3"), 0)], "free")
# the real parts of c = 1 + a + b and of a + b = 1 hold, the imaginary ones do not
@example([(Decimal("0.5"), 1), (Decimal("0.25"), 2), (Decimal("1.75"), 0)], "free")
@example([(Decimal("0.5"), 1), (Decimal("0.5"), 2), (Decimal(3), 0)], "free")
def test_hypergeometric_poles_follow_the_exact_residues(params, shape):
    (ar, ai), (br, bi), (cr, ci) = params
    if shape == "c = 0":
        cr, ci = 0, 0
    elif shape == "c = 1 + a + b":
        cr, ci = 1 + ar + br, ai + bi
    elif shape == "a + b = 1":
        br, bi = 1 - ar, -ai
    elif shape == "re c = re(1 + a + b)":  # the imaginary parts decide
        cr = 1 + ar + br
    elif shape == "re(a + b) = 1":
        br = 1 - ar
    ode = named_equation("Hypergeometric", _floats((ar, ai), (br, bi), (cr, ci)))
    # p1 = [c - (1 + a + b) z] / (z (1 - z)) and p2 = -ab / (z (1 - z))
    if (cr, ci, 1 + ar + br, ai + bi) == (0, 0, 0, 0):
        assert ode.p1.is_zero
    else:
        assert list(ode.p1.den_roots) == _exact_poles(
            (0, 1), ((cr, ci), (cr - 1 - ar - br, ci - ai - bi)))
    assert _infinity_pole_orders(ode)[0] == (0 if (ar + br, ai + bi) == (1, 0) else 1)
    ab_zero = (ar, ai) == (0, 0) or (br, bi) == (0, 0)
    assert list(ode.p2.den_roots) == ([] if ab_zero else [0j, 1 + 0j])


@settings(max_examples=50, deadline=None)
@given(st.lists(COMPLEX_DECIMALS, min_size=7, max_size=7),
       st.sampled_from(["free", "gamma = 0", "delta = 0", "epsilon = 0",
                        "gamma + delta + epsilon = 2", "re(gamma + delta + epsilon) = 2"]),
       st.sampled_from(["free", "q = 0", "q = alpha beta", "q = alpha beta a",
                        "re q = re(alpha beta)", "re q = re(alpha beta a)"]))
@example([(Decimal(0), 0), (Decimal(2), 0), (Decimal(1), 0), (Decimal(1), 0),
          (Decimal("1e-20"), 0), (Decimal(3), 0), (Decimal(0), 0)], "free", "free")
# alpha beta = 2 + 3i and alpha beta a = 4 + 6i; q and gamma + delta + epsilon
# match them, and 2, in the real part only
@example([(Decimal(1), 1), (Decimal("2.5"), Decimal("0.5")), (Decimal(1), 1), (Decimal(1), 0),
          (Decimal(0), 0), (Decimal(2), 0), (Decimal(2), 0)], "free", "free")
@example([(Decimal(1), 1), (Decimal("2.5"), Decimal("0.5")), (Decimal(1), 0), (Decimal(1), 0),
          (Decimal(0), 0), (Decimal(2), 0), (Decimal(4), 0)], "free", "free")
def test_heun_poles_follow_the_exact_residues(params, p1_shape, p2_shape):
    al, be, g, d, e, a, q = params
    assume(a not in ((0, 0), (1, 0)))
    if p1_shape == "gamma + delta + epsilon = 2":
        e = (2 - g[0] - d[0], -g[1] - d[1])
    elif p1_shape.startswith("re("):  # the imaginary parts decide
        e = (2 - g[0] - d[0], e[1])
    elif p1_shape != "free":
        g, d, e = ((0, 0) if p1_shape.startswith(name) else x
                   for name, x in (("gamma", g), ("delta", d), ("epsilon", e)))
    ab = _mul(al, be)
    q = {"free": q, "q = 0": (0, 0), "q = alpha beta": ab,
         "q = alpha beta a": _mul(ab, a), "re q = re(alpha beta)": (ab[0], q[1]),
         "re q = re(alpha beta a)": (_mul(ab, a)[0], q[1])}[p2_shape]
    ode = named_equation("Heun", _floats(al, be, g, d, e, a, q))
    poles = (0, 1, _floats(a)[0])
    # p1 = gamma/z + delta/(z-1) + epsilon/(z-a), p2 = (alpha beta z - q)/(z(z-1)(z-a))
    if g == d == e == (0, 0):
        assert ode.p1.is_zero
    else:
        assert list(ode.p1.den_roots) == _exact_poles(poles, (g, d, e))
    three = (g[0] + d[0] + e[0], g[1] + d[1] + e[1])
    assert _infinity_pole_orders(ode)[0] == (0 if three == (2, 0) else 1)
    # p1's top coefficient is that exact sum rounded once, moved one float
    # step up where it rounds onto 2 without being 2 (the 1e-20 example);
    # each cancelled pole lowers its index by one
    top = complex(*map(float, three))
    if top == 2 and three != (2, 0):
        top = complex(math.nextafter(2.0, math.inf))
    if not ode.p1.is_zero:
        assert (*ode.p1.num.coeffs, 0j, 0j)[len(ode.p1.den_roots) - 1] == top
    if ab == q == (0, 0):
        assert ode.p2.is_zero
    else:
        assert list(ode.p2.den_roots) == _exact_poles(
            poles, (q, _sub(ab, q), _sub(_mul(ab, a), q)))


RESIDUES = st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False,
                              allow_infinity=False)
# a third Heun pole of modulus 10^0.5 to 1e300, and sample points within
# |z| <= 2 and at least 0.5 from 0 and 1, so at least 1.1 from a
FAR_POLES = st.builds(lambda e, t: cmath.rect(10.0 ** e, t), st.floats(0.5, 300.0), ANGLES)
SAMPLE_POINTS = (0.5 + 0.5j, -0.7 + 0.2j, 1.3 - 0.6j, 2j)


@settings(max_examples=50, deadline=None)
@given(st.lists(RESIDUES, min_size=3, max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3), FAR_POLES)
@example([1, 1, 1], [True, True, False], 1e16)  # 2z - 1 over z(z-1), not 2z
@example([0.1, 0.7, 1], [True, True, False], 1e16)
@example([3, 4, 5], [True, True, False], 1.5e308 + 1.5e308j)  # |a| past the float range
def test_heun_p1_is_the_sum_of_its_kept_residue_terms(residues, kept, a):
    residues = [r if k else 0 for r, k in zip(residues, kept)]
    p1 = named_equation("Heun", [1, 1, *residues, a, 0.5]).p1
    for z in SAMPLE_POINTS:
        terms = [r / (z - s) for r, s in zip(residues, (0, 1, a))]
        assert abs(p1(z) - sum(terms)) <= 1e-12 * sum(map(abs, terms))


# poles drawn from a small pool (exact duplicates, and -0.0 next to 0.0),
# moved by up to 4e-9 (near but distinct poles, which stay apart), or
# anywhere in |z| <= 4
POLE_POOL = (0j, complex(-0.0, -0.0), complex(0.0, -0.0), 1 + 0j, -1 + 0j, 2 + 1j, 0.5j)
POLES = st.lists(
    st.sampled_from(POLE_POOL)
    | st.builds(lambda z, d, t: z + cmath.rect(d, t),
                st.sampled_from(POLE_POOL), st.floats(0.0, 4e-9), ANGLES)
    | st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    max_size=6)
# 2 lead past the float range never equals a finite top coefficient: infinity keeps its pole
LEADS = SCALARS | st.just(complex(1.5e308, 1.5e308))


@st.composite
def rational_specs(draw):
    """(numerator coefficients, or None for the zero function; den_lead; poles).
    "e1=-1" gives deg num = #poles - 1, where infinity needs the residue test;
    "cancel" also sets num's top coefficient to 2 lead, which cancels there,
    or to a rounding step or two off it, or further off."""
    poles = draw(POLES)
    lead = draw(LEADS)
    shape = draw(st.sampled_from(["zero", "any", "e1=-1", "cancel"]))
    if shape == "zero":
        return None, lead, poles
    if shape == "any":
        degree = draw(st.integers(0, len(poles) + 3))
    else:
        poles = poles or [draw(st.sampled_from(POLE_POOL))]
        degree = len(poles) - 1
    coeffs = draw(st.lists(SCALARS, min_size=degree + 1, max_size=degree + 1))
    if shape == "cancel":
        coeffs[-1] = 2 * lead * (1.0 + draw(st.sampled_from([0.0, 1e-14, 1e-6])))
    return coeffs, lead, poles


def _rational(spec):
    coeffs, lead, poles = spec
    return ZERO_RATIONAL if coeffs is None else RationalFn(Poly(coeffs), lead, tuple(poles))


@settings(max_examples=60, deadline=None)
@given(rational_specs(), rational_specs())
@example(([1.0], 1.0, [complex(-0.0, -0.0), 0j, 5e-10]),
         ([1.0], 1.0, [complex(0.0, -0.0), 1 + 0j, 1 + 0j]))
@example(([1.0], 1.0, [0j]), ([1.0], 1.0, [5e-10 + 0j]))  # two points, not one
@example(([1.0, 2.0], 1.0, [0j, 1 + 0j]), (None, 1.0, []))  # residue 2 at infinity
@example(([1.0, 2.0 + 4e-15], 1.0, [0j, 1 + 0j]), (None, 1.0, []))  # residue 2 + 4e-15
@example(([2.0 + 2e-14], 1.0, [0j]), (None, 1.0, []))  # the same, with no other term
@example(([0.0, 3.0], 1.0, [1e13 + 0j, 1 + 0j]), (None, 1.0, []))  # residue 3, far pole
@example(([1.0], complex(1.5e308, 1.5e308), [1 + 0j]), (None, 1.0, []))  # overflow
@example(([complex(1.5e308, 1.5e308), 1.0], 1.0, [1 + 0j, 2 + 0j]), (None, 1.0, []))
def test_classification_agrees_with_the_reference_scan(spec1, spec2):
    ode = SecondOrderODE(_rational(spec1), _rational(spec2))
    want = reference_singular_points(ode)
    assert repr(singular_points(ode)) == repr(want)  # repr tells -0.0 from 0.0
    assert is_fuchsian(ode) is all(pc.kind is not PointKind.IRREGULAR_SINGULAR for pc in want)


# complex coefficients with moduli from 1e-150 to 1e150, and exact zeros
WIDE_COEFFS = st.lists(
    st.builds(lambda e, t: cmath.rect(10.0 ** e, t), st.floats(-150.0, 150.0), ANGLES)
    | st.sampled_from([0j, complex(-0.0, -0.0)]),
    min_size=1, max_size=10)


@PROPERTY
@given(st.integers(0, 4), WIDE_COEFFS)
@example(0, [1.0, 2.0])  # degree 1
@example(0, [-3.0 + 1j, 1e150])  # degree 1, widely scaled
@example(3, [2.5])  # the monomial 2.5 z^3
@example(2, [complex(-0.0, -0.0), 1e-150, 0j, 1j])  # a signed zero inside the run
def test_roots_equal_numpy_roots_bit_for_bit(zeros, cs):
    cs = [0j] * zeros + cs
    try:
        want = tuple(map(complex, np.roots(cs[::-1])))
    except np.linalg.LinAlgError:
        with pytest.raises(ValueError, match="root finding failed"):
            Poly(cs).roots()
    else:
        assert repr(Poly(cs).roots()) == repr(want)  # repr tells -0.0 from 0.0


# coefficients of every size: signed zeros, values near 1e-12, the smallest
# subnormal, moduli 1e-150 to 1e150, overflow
RESIDUE_COEFFS = st.lists(
    st.sampled_from([0j, complex(-0.0, -0.0), complex(0.0, -0.0), 1.0, -1j,
                     1e-12, 1.0000001e-12, 9.999999e-13, 5e-324,
                     math.inf, math.nan, complex(1.5e308, 1.5e308)])
    | st.builds(lambda s, z: s * z, st.sampled_from([1.0, 1e-12, 1e-150, 1e150]), SCALARS),
    min_size=1, max_size=8)
# P1's pole at infinity cancels when num's top coefficient is 2 den_lead
CANCEL_OFFSETS = st.sampled_from([None, 0.0, 1e-14, 1e-6])


@PROPERTY
@given(RESIDUE_COEFFS, LEADS, st.lists(st.sampled_from(POLE_POOL), min_size=8, max_size=8),
       CANCEL_OFFSETS)
@example([1e-13, 1.0, -1e-13j], 1.0, [0j] * 8, None)  # a tiny top: P1 keeps 2/w
@example([2.0, 1.0], 1.0, [1 + 0j] * 8, 0.0)  # residue 2 at infinity
@example([1.0, math.inf], 1.0, [0j] * 8, None)  # overflow: infinity keeps its pole
def test_residue_decisions_at_infinity_agree_with_the_reference(cs, lead, poles, offset):
    if offset is not None:
        cs = cs[:-1] + [2 * lead * (1.0 + offset)]
    p = Poly(cs)
    if p.is_zero:
        return
    # deg den - deg num = 1: infinity reads p1's residue there
    p1 = RationalFn(p, lead, tuple(poles[:p.degree + 1]))
    assert _infinity_pole_orders(SecondOrderODE(p1, ZERO_RATIONAL))[0] == reference_infinity_pole(p1)
