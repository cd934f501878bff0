import cmath
import dataclasses
import gc
import inspect
import math
import random
import sys

import numpy as np
import pytest

from fuchsian import curves, fode, report
from fuchsian.curves import Poly, curve_from_degree, expand_poly
from fuchsian.fode import (
    ZERO_RATIONAL,
    PointClass,
    PointKind,
    RationalFn,
    SecondOrderODE,
    _build_rational,
    curve_ode,
    is_fuchsian,
    named_equation,
    singular_points,
    whittaker_equation,
)
from fuchsian.moebius import INFINITY, is_infinity

from helpers import reference_pole_order, reference_whittaker_numerator, separated_f


def finite_locations(ode):
    return sorted(p.location.real for p in singular_points(ode)
                  if not is_infinity(p.location))


def assert_ordinary(ode, z):
    """z is not listed as a singular point and neither coefficient has a pole there."""
    assert all(is_infinity(p.location) or abs(p.location - z) > 1e-9 * (1 + abs(z))
               for p in singular_points(ode))
    assert reference_pole_order(ode.p1, z) == reference_pole_order(ode.p2, z) == 0


def test_build_rational_keeps_every_pole_it_is_given():
    # the caller writes num over the poles that stay; nothing is divided out,
    # even where num vanishes at a pole
    f = _build_rational(expand_poly([1.0, -1.0]), 2, [1.0])  # (z^2-1)/(2(z-1))
    assert (f.num.coeffs, f.den_lead, f.den_roots) == ((-1, 0, 1), 2 + 0j, (1 + 0j,))
    assert reference_pole_order(f, 1.0) == 1
    assert [*inspect.signature(_build_rational).parameters] == ["num", "den_lead", "den_roots"]


def test_rational_fn_pole_orders():
    f = RationalFn(Poly((1.0,)), 1.0, (1.0, 3.0))  # 1/((z-1)(z-3))
    assert reference_pole_order(f, 1.0) == 1
    assert reference_pole_order(f, 3.0) == 1
    assert reference_pole_order(f, 0.0) == 0
    # multiplicities live in the stored root list, not in re-factoring
    g = RationalFn(Poly((1.0,)), 1.0, (1.0, 1.0))
    assert reference_pole_order(g, 1.0) == 2


def test_rational_fn_evaluation():
    rng = np.random.RandomState(51)
    num = Poly((1.0, 2.0, 1.0))
    den = expand_poly([2.0, -3.0])
    f = RationalFn(num, 1.0, (2.0, -3.0))
    for _ in range(20):
        z = complex(*rng.uniform(-5, 5, 2))
        ref = num(z) / den(z)
        assert abs(f(z) - ref) < 1e-9 * max(1.0, abs(ref))


def test_zero_rational():
    assert ZERO_RATIONAL.is_zero
    assert reference_pole_order(ZERO_RATIONAL, 0.7) == 0
    assert ZERO_RATIONAL(2.0) == 0
    assert ZERO_RATIONAL.num.is_zero and ZERO_RATIONAL.den.coeffs == (1,)
    assert _build_rational(Poly((0.0,)), 1.0, [1.0]) is ZERO_RATIONAL


def test_rational_fn_stores_an_expanded_numerator():
    assert [f.name for f in dataclasses.fields(RationalFn)] == \
        ["num", "den_lead", "den_roots"]


def _rational_samples():
    yield RationalFn(Poly((1.0, 2.0, 1.0)), 1.0, (2.0, -3.0))
    yield RationalFn(expand_poly([0.5j, 4.0]).scaled(2.0 - 1.0j), 0.5, (1.0, -1.0, 2.0j))
    for name, count in (("Legendre", 1), ("Tchebychev", 1), ("Heun", 7),
                        ("Hypergeometric", 3), ("WhittakerHypergeometric", 0)):
        # Heun's sixth parameter, 0.5+1.25j, is its third pole besides 0 and 1
        params = [0.5 + 0.25j * k for k in range(count)]
        ode = named_equation(name, params)
        yield ode.p1
        yield ode.p2
    for n in range(5, 11):
        roots = [cmath.exp(2j * math.pi * (k + 0.3) / n) for k in range(n)]
        yield whittaker_equation(expand_poly(roots).scaled(1.5 - 0.5j)).p2


def test_expanded_forms_agree_with_factored_evaluation():
    rng = np.random.RandomState(53)
    for rf in _rational_samples():
        num, den = rf.num, rf.den
        for _ in range(10):
            z = complex(*rng.uniform(-3, 3, 2))
            ref = rf(z)
            assert abs(num(z) / den(z) - ref) <= 1e-9 * max(1.0, abs(ref))


def test_legendre():
    ode = named_equation("Legendre", [2.0])
    locs = finite_locations(ode)
    assert locs == [-1.0, 1.0]
    assert all(p.kind is PointKind.REGULAR_SINGULAR for p in singular_points(ode))
    assert is_fuchsian(ode)
    assert ode.name == "Legendre"


def test_ode_record_is_frozen_and_hashable():
    ode = named_equation("legendre", [2])
    assert [f.name for f in dataclasses.fields(SecondOrderODE)] == ["p1", "p2", "name"]
    assert ode == named_equation("Legendre", [2])
    assert hash(ode) == hash(named_equation("Legendre", [2]))
    assert curve_ode(curve_from_degree(5)).name is None
    for field, value in (("p1", ZERO_RATIONAL), ("p2", ZERO_RATIONAL), ("name", "Heun")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ode, field, value)


def test_tchebychev():
    ode = named_equation("tchebychev", [3.0])  # case-insensitive lookup
    assert finite_locations(ode) == [-1.0, 1.0]
    assert is_fuchsian(ode)
    assert singular_points(ode)[-1].kind is PointKind.REGULAR_SINGULAR  # infinity


@pytest.mark.parametrize("name, poly, residual", [
    # P_2 = (3z^2 - 1)/2 and T_2 = 2z^2 - 1, both with lambda = 2
    # at z = 0.3, 12z^2/(1-z^2) = 1.18681... and 8z^2/(1-z^2) = 0.79120...
    ("Legendre", lambda z: (1.5 * z * z - 0.5, 3 * z, 3.0), 12 * 0.09 / 0.91),
    ("Tchebychev", lambda z: (2 * z * z - 1, 4 * z, 4.0), 8 * 0.09 / 0.91),
])
def test_catalog_p1_is_the_negated_classical_sign(name, poly, residual):
    # the catalog's p1 = 2z/(1-z^2) and z/(1-z^2) are the negatives of the
    # classical -2z/(1-z^2) and -z/(1-z^2): the degree-2 polynomial solution
    # leaves 12z^2/(1-z^2) and 8z^2/(1-z^2), and solves the equation once p1 is negated
    ode = named_equation(name, [2.0])
    y, dy, d2y = poly(0.3)
    assert d2y + ode.p1(0.3) * dy + ode.p2(0.3) * y == pytest.approx(residual, abs=5e-16)
    assert abs(d2y - ode.p1(0.3) * dy + ode.p2(0.3) * y) <= 5e-16


def test_hypergeometric():
    ode = named_equation("Hypergeometric", [0.5, 0.5, 1.0])
    assert finite_locations(ode) == [0.0, 1.0]
    assert is_fuchsian(ode)
    assert singular_points(ode)[-1].kind is PointKind.REGULAR_SINGULAR  # infinity


def test_hypergeometric_p1_has_the_correctly_rounded_1_plus_a_plus_b():
    # the float sum 1 + 0.1 + 0.2 is 1.3000000000000003; rounded once it is 1.3
    assert named_equation("Hypergeometric", [0.1, 0.2, 2]).p1.num.coeffs == (2, -1.3)
    # 1 + 1e20 - 1e20 is exactly 1 = c, while the float sum cancels to 0: the
    # pole at 1 goes and p1 = -1/(-z) = 1/z, not 0
    ode = named_equation("Hypergeometric", [1e20, -1e20, 1])
    assert ode.p1.num.coeffs == (-1,)
    assert (ode.p1.den_lead, ode.p1.den_roots) == (-1, (0,))
    assert [(p.location, p.kind) for p in singular_points(ode)] == [
        (0j, PointKind.REGULAR_SINGULAR), (1 + 0j, PointKind.REGULAR_SINGULAR),
        (INFINITY, PointKind.REGULAR_SINGULAR)]
    # a refused numerator is reported as built with the float sum, here 0
    with pytest.raises(ValueError, match=r"overflow: \[\(1\.5e\+308\+1\.5e\+308j\)\]$"):
        named_equation("Hypergeometric", [1e20, -1e20, 1.5e308 + 1.5e308j])


def test_heun():
    ode = named_equation("Heun", [1.0, 2.0, 0.5, 0.5, 1.0, 3.0, 0.25])
    assert finite_locations(ode) == [0.0, 1.0, 3.0]
    assert all(p.kind is PointKind.REGULAR_SINGULAR for p in singular_points(ode))
    assert is_fuchsian(ode)


@pytest.mark.parametrize("a", [0.0, 1.0, 1e-12, 1.0 + 1e-12j, 1e-9, 1.0 - 2e-9j,
                               1e-10 - 1j, -1e-10 + 1j])
def test_heun_third_pole_must_differ_from_0_and_1(a):
    # a merged pole would leave a three-point equation labelled Heun; any other
    # a, however near 0 or 1, is a fourth regular singular point
    params = [1.0, 2.0, 3.0, 4.0, 5.0, a, 1.0]
    if a in (0, 1):
        with pytest.raises(ValueError, match="coincides with 0 or 1"):
            named_equation("Heun", params)
        return
    ode = named_equation("Heun", params)
    # points sort by exact real, then imaginary part, so 1e-10 - 1j comes
    # after 0, since its real part is larger, and -1e-10 + 1j before it,
    # however near both real parts are to 0's
    locations = [p.location for p in singular_points(ode)[:-1]]
    assert locations == sorted([0j, 1 + 0j, complex(a)], key=lambda z: (z.real, z.imag))
    assert locations == {1e-10 - 1j: [0j, a, 1 + 0j],
                         -1e-10 + 1j: [a, 0j, 1 + 0j]}.get(a, locations)
    assert all(p.kind is PointKind.REGULAR_SINGULAR for p in singular_points(ode))


@pytest.mark.parametrize("a", [1.0000000000000003e-9, -1.0000000000000003e-9])
def test_heun_pole_near_0_is_its_own_regular_point(a):
    ode = named_equation("Heun", [1.0, 2.0, 3.0, 4.0, 5.0, a, 0.5])
    assert finite_locations(ode) == sorted([0.0, a, 1.0])
    assert all(p.kind is PointKind.REGULAR_SINGULAR for p in singular_points(ode))
    assert is_fuchsian(ode)
    assert (reference_pole_order(ode.p1, a), reference_pole_order(ode.p2, a)) == (1, 1)


def test_whittaker_hypergeometric():
    # 25x(x-1) y'' + 20(2x-1) y' + 2 y = 0
    ode = named_equation("WhittakerHypergeometric")
    assert finite_locations(ode) == [0.0, 1.0]
    assert is_fuchsian(ode)
    assert abs(ode.p1(3.0) - 100.0 / 150.0) < 1e-12
    assert abs(ode.p2(3.0) - 2.0 / 150.0) < 1e-12


def test_named_equation_errors():
    with pytest.raises(ValueError, match="no equation named 'Bessel'"):
        named_equation("Bessel")
    with pytest.raises(ValueError, match=r"Legendre takes 1 parameter\(s\), got 2"):
        named_equation("Legendre", [1.0, 2.0])
    with pytest.raises(ValueError, match=r"Heun takes 7 parameter\(s\), got 1"):
        named_equation("Heun", [1.0])


def test_airy_type_is_irregular():
    ode = SecondOrderODE(ZERO_RATIONAL, RationalFn(Poly((0.0, -1.0)), 1.0, ()))
    pts = singular_points(ode)
    assert len(pts) == 1
    assert is_infinity(pts[0].location)
    assert pts[0].kind is PointKind.IRREGULAR_SINGULAR
    assert not is_fuchsian(ode)


def test_trivial_equation_regular_at_infinity():
    ode = SecondOrderODE(ZERO_RATIONAL, ZERO_RATIONAL)  # y'' = 0
    pts = singular_points(ode)
    assert len(pts) == 1
    assert pts[0].kind is PointKind.REGULAR_SINGULAR


def test_first_coefficient_cancellation_at_infinity():
    # p1 = 2/z makes the transformed first coefficient vanish at infinity
    ode = SecondOrderODE(RationalFn(Poly((2.0,)), 1.0, (0j,)), ZERO_RATIONAL)
    assert singular_points(ode) == [PointClass(0j, PointKind.REGULAR_SINGULAR),
                                    PointClass(INFINITY, PointKind.ORDINARY)]


def test_whittaker_z5():
    f = Poly((-1.0, 0.0, 0.0, 0.0, 0.0, 1.0))  # z^5 - 1
    ode = whittaker_equation(f)
    # (3/16)(z^8 + 24 z^3): the 24 is (2g+2)/(2g+1) = 6/5 times f'' f's 20
    assert ode.p2.num.coeffs == (0, 0, 0, 4.5, 0, 0, 0, 0, 0.1875)
    assert is_fuchsian(ode)
    pts = singular_points(ode)
    assert len(pts) == 6  # five roots of unity plus infinity
    assert all(p.kind is PointKind.REGULAR_SINGULAR for p in pts)
    # numerator reduces to (3/16)(z^8 + 24 z^3)
    z = 1.7 - 0.4j
    expect = 3.0 / 16.0 * (z ** 8 + 24 * z ** 3) / (z ** 5 - 1) ** 2
    assert abs(ode.p2(z) - expect) < 1e-9 * abs(expect)


def test_whittaker_pole_structure():
    f = Poly((-1.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    ode = whittaker_equation(f)
    assert reference_pole_order(ode.p2, 1.0) == 2  # double pole at each root of f
    assert ode.p1.is_zero


@pytest.mark.parametrize("f", [
    expand_poly([0, 1e-3, 2e-3, 3e-3, 4e-3]),  # p2 numerator terms 1e-22..6e-16
    Poly((-1e-14, 0, 0, 0, 0, 0, 0, 1)),  # roots of unity of radius 0.01
    # f is taken as given, however small its top coefficient is beside the others
    Poly((-1e15, 0, 0, 0, 0, 1)),  # z^5 - 1 under z -> 1000 z
    Poly((-3.2e11, 0, 0, 0, 0, 1)),  # N = (3/16)(z^8 + 24 * 3.2e11 z^3)
    Poly((1e13, 0, -1, 0, 0, 0, -1e13, 0, 1)),  # (z^2 - 1e13)(z^6 - 1): genus 3
    # roots are distinct relative to their size, however small they are
    Poly((-1e-32, 0, 0, 0, 0, 1)),  # radius 4.0e-7
    Poly((-1e-40, 0, 0, 0, 0, 1)),  # radius 1e-8
], ids=["clustered-at-0", "radius-0.01", "radius-1000", "z5-3.2e11", "far-pair-degree-8",
        "radius-4e-7", "radius-1e-8"])
def test_whittaker_keeps_a_double_pole_at_every_root(f):
    ode = whittaker_equation(f)
    n = f.degree
    assert repr(ode.p2.num) == repr(reference_whittaker_numerator(f))
    # N keeps degree 2n - 2 for odd n and 2n - 4 for even n
    assert ode.p2.num.degree == (2 * n - 2 if n % 2 else 2 * n - 4)
    roots = f.roots()
    pts = singular_points(ode)
    assert len(pts) == n + 1
    for r in roots:
        assert reference_pole_order(ode.p2, r) == 2
        near = [p.kind for p in pts[:-1] if abs(p.location - r) <= 1e-9]
        assert near == [PointKind.REGULAR_SINGULAR]
    assert is_fuchsian(ode)


@pytest.mark.parametrize("lead", [1e-150, 1e-155, 1e-160])
def test_whittaker_denominator_prints_finite_or_is_refused(lead):
    # the roots of lead z^5 - 1 have modulus |lead|^(-1/5); doubled and
    # expanded they overflow below about lead 1e-155, though the verdicts hold
    ode = whittaker_equation(Poly((-1, 0, 0, 0, 0, lead)))
    assert len(singular_points(ode)) == 6 and is_fuchsian(ode)
    if lead == 1e-150:
        text = report.canonical_json(report.ode_report(ode))
        assert "NaN" not in text and "Infinity" not in text
    else:
        with pytest.raises(ValueError, match=r"^coefficient overflow: \["):
            report.ode_report(ode)


def test_whittaker_refuses_a_lead_whose_square_underflows():
    # lead^2 = 0j would leave p2 with a zero denominator
    with pytest.raises(ValueError, match=r"leading coefficient \(1e-162\+0j\) squares to 0"):
        whittaker_equation(Poly((-1, 0, 0, 0, 0, 1e-162)))
    assert whittaker_equation(Poly((-1, 0, 0, 0, 0, 1e-150))).p2.den_lead == 1e-300


@pytest.mark.parametrize("name, params", [
    ("Heun", [1e-200, 1e-200, 0, 0, 0, 3, 0]),  # p2 = alpha beta / ((z - 1)(z - 3))
    ("Heun", [1e-200, 1e-200, 0, 0, 0, 3, 1]),  # p2 = (alpha beta z - 1) / (...)
    ("Heun", [1e-200j, 1e-200j, 1, 1, 1, 3, 0]),  # alpha beta = -1e-400
    ("Hypergeometric", [1e-200, 1e-200, 1]),
    ("Hypergeometric", [1e-200j, 1e-200, 1]),  # a b = 1e-400 i
])
def test_product_that_underflows_is_refused(name, params):
    # the exact product is not 0, so p2 is not 0 either; its float is 0
    with pytest.raises(ValueError, match=r"^coefficient underflow: "):
        named_equation(name, params)


@pytest.mark.parametrize("name, params, poles", [
    ("Heun", [0, 1e-200, 0, 0, 0, 3, 0], []),  # alpha beta = q = 0: p2 = 0
    ("Heun", [1e-160, 1e-160, 0, 0, 0, 3, 0], [1, 3]),  # alpha beta = 1e-320, subnormal
    ("Hypergeometric", [0, 1e-200, 1], []),  # a b = 0: p2 = 0
    ("Hypergeometric", [1e-160, 1e-160, 1], [0, 1]),
])
def test_product_decides_p2_exactly(name, params, poles):
    ode = named_equation(name, params)
    assert ode.p2.is_zero == (not poles)
    assert list(ode.p2.den_roots) == poles
    assert all(p in [pc.location for pc in singular_points(ode)] for p in poles)


@pytest.mark.parametrize("roots, finite", [
    ((1.5e308 + 1.5e308j,), True),  # finite parts, modulus past the float range
    ((1e200, -1e200, 1e200j), False),  # the z coefficient is -1e400
])
def test_denominator_is_refused_only_for_a_non_finite_part(roots, finite):
    rf = RationalFn(Poly((1.0,)), 1.0, roots)
    if finite:
        assert rf.den.coeffs == (-roots[0], 1)
    else:
        with pytest.raises(ValueError, match="coefficient overflow"):
            rf.den


def test_whittaker_degrees_and_errors():
    for f in (expand_poly([0, 1, 2, 3, 4, 5]), expand_poly([0, 1, 2, 3, 4, 5, 6])):
        assert repr(whittaker_equation(f).p2.num) == repr(reference_whittaker_numerator(f))
    with pytest.raises(ValueError, match="deg f = 2 < 5"):
        whittaker_equation(expand_poly([0.0, 1.0]))
    # a double root coincides wherever it lies, at 0 (found exactly) or near it
    for roots in ([0, 1, 1, 2, 3], [0, 0, 1, 2, 3], [1e-3, 1e-3, 1, 2, 3]):
        with pytest.raises(ValueError, match="roots .* coincide"):
            whittaker_equation(expand_poly(roots))


def test_whittaker_fuchsian_on_unit_circle_roots():
    rng = np.random.RandomState(52)
    for n in range(5, 13):
        roots = [cmath.exp(2j * math.pi * t) for t in rng.uniform(0, 1, n)]
        gap = min(abs(u - v) for i, u in enumerate(roots) for v in roots[:i])
        assert gap > 1e-3  # seed keeps the sampled roots well separated
        ode = whittaker_equation(expand_poly(roots))
        assert is_fuchsian(ode)
        assert len(singular_points(ode)) == n + 1


def test_whittaker_builds_leave_the_tuple_free_lists_as_they_were():
    # a tuple built from an iterator without a length hint is freed onto the
    # free list of another length than it was taken from, so the lists fill
    # (README, Memory); a full collection empties them, so gc stays off. About
    # 100 blocks remain on 3.11: it frees 20-tuples, the poles of deg f = 10,
    # onto a list it never takes from
    fs = [separated_f(random.Random(k), 5 + k % 6) for k in range(30)]

    def build(rounds):
        for _ in range(rounds):
            for f in fs:
                singular_points(whittaker_equation(f))

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        build(3)  # refill the lists the collection emptied
        before = sys.getallocatedblocks()
        build(20)
        grew = sys.getallocatedblocks() - before
    finally:
        if enabled:
            gc.enable()
    assert grew < 300, grew


@pytest.fixture
def root_calls(monkeypatch):
    """The polynomials Poly.roots is called on, in call order."""
    calls = []
    roots = Poly.roots

    def counted(self):
        calls.append(self)
        return roots(self)

    monkeypatch.setattr(Poly, "roots", counted)
    return calls


A = 2 + 1j


@pytest.mark.parametrize("name, params, p1, p2", [
    # p1 = gamma/z + delta/(z-1) + epsilon/(z-a): a zero residue drops its term
    ("Heun", [1, 2, 3, 4, 5, A, 0.5], ((3 * A, -(3 * (1 + A) + 4 * A + 5), 12), (0, 1, A)),
     ((-0.5, 2), (0, 1, A))),
    ("Heun", [1, 2, 0, 4, 5, A, 0.5], ((-(4 * A + 5), 9), (1, A)), ((-0.5, 2), (0, 1, A))),
    ("Heun", [1, 2, 3, 0, 5, A, 0.5], ((-3 * A, 8), (0, A)), ((-0.5, 2), (0, 1, A))),
    ("Heun", [1, 2, 3, 4, 0, A, 0.5], ((-3, 7), (0, 1)), ((-0.5, 2), (0, 1, A))),
    ("Heun", [1, 2, 0, 0, 5, A, 0.5], ((5,), (A,)), ((-0.5, 2), (0, 1, A))),
    ("Heun", [1, 2, 0, 0, 0, A, 0.5], None, ((-0.5, 2), (0, 1, A))),
    # p2 = (alpha beta z - q)/(z(z-1)(z-a)) is alpha beta over the two poles left
    ("Heun", [1, 2, 3, 4, 5, A, 0], ((3 * A, -(3 * (1 + A) + 4 * A + 5), 12), (0, 1, A)),
     ((2,), (1, A))),
    ("Heun", [1, 2, 3, 4, 0, A, 2], ((-3, 7), (0, 1)), ((2,), (0, A))),
    ("Heun", [1, 2, 3, 4, 0, A, 2 * A], ((-3, 7), (0, 1)), ((2,), (0, 1))),
    ("Heun", [0, 2, 3, 4, 0, A, 0], ((-3, 7), (0, 1)), None),
    # p1 = [c - (1 + a + b) z]/(z(1 - z)) keeps -(1 + a + b) when a pole goes
    ("Hypergeometric", [0.5, 0.25, 1.5], ((1.5, -1.75), (0, 1)), ((-0.125,), (0, 1))),
    ("Hypergeometric", [0.5, 0.25, 0], ((-1.75,), (1,)), ((-0.125,), (0, 1))),
    ("Hypergeometric", [0.5, 0.25, 1.75], ((-1.75,), (0,)), ((-0.125,), (0, 1))),
    ("Hypergeometric", [0.5, -1.5, 0], None, ((0.75,), (0, 1))),
])
def test_each_coefficient_is_written_over_the_poles_it_keeps(root_calls, name, params, p1, p2):
    # the residues are decided exactly first, so a pole that goes is never
    # built, and no root finding is needed
    ode = named_equation(name, params)
    for rf, want in ((ode.p1, p1), (ode.p2, p2)):
        if want is None:
            assert rf is ZERO_RATIONAL
        else:
            assert (rf.num.coeffs, rf.den_roots) == tuple(tuple(map(complex, w)) for w in want)
    assert root_calls == []


def test_whittaker_finds_roots_once(root_calls):
    ode = whittaker_equation(expand_poly(curves.integer_roots(8)))
    singular_points(ode)
    assert root_calls == [expand_poly(curves.integer_roots(8))]  # f, not N


def test_named_and_curve_equations_find_no_roots(root_calls):
    # no numerator vanishes at a pole, so no pole can cancel
    for name, count in (("Legendre", 1), ("Tchebychev", 1), ("Heun", 7),
                        ("Hypergeometric", 3), ("WhittakerHypergeometric", 0)):
        params = [0.5 + 0.25j * k for k in range(count)]
        ode = named_equation(name, params)
        assert is_fuchsian(ode) and len(singular_points(ode)) == 3 + (name == "Heun")
    # a pole whose residue is exactly 0 is never built, and needs no roots;
    # ab = 0 and alpha = q = 0 make p2 = 0, so only p1's poles are singular
    for name, params, want in (
            ("Hypergeometric", [0.5 + 0.25j, 0, 0], [1]),  # c = 0
            ("Hypergeometric", [0.5 + 0.25j, 0, 1.5 + 0.25j], [0]),  # c = 1 + a + b
            ("Heun", [0, 2, 0, 4, 5, 2 + 1j, 0], [1, 2 + 1j]),  # gamma = 0
            ("Heun", [0, 2, 3, 0, 5, 2 + 1j, 0], [0, 2 + 1j]),  # delta = 0
            ("Heun", [0, 2, 3, 4, 0, 2 + 1j, 0], [0, 1])):  # epsilon = 0
        ode = named_equation(name, params)
        assert ode.p1.den_roots == tuple(map(complex, want))
        assert [p.location for p in singular_points(ode)] == [*ode.p1.den_roots, INFINITY]
        assert is_fuchsian(ode)
    for n, k1, k2 in ((5, 0j, 0j), (6, 0j, 0j), (7, 0.5 + 0.25j, 1j), (8, 2.0, 0j)):
        ode = curve_ode(curve_from_degree(n), k1, k2)
        assert is_fuchsian(ode) is (k1 == 0 and k2 == 0)
    assert root_calls == []


def test_whittaker_numerator_is_exact():
    # (3/16)(f'^2 - (6/5) f'' f) for f = z^5 - 1 is (3/16)(z^8 + 24 z^3)
    ode = whittaker_equation(Poly((-1.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
    assert ode.p2.num.coeffs == (0, 0, 0, 4.5, 0, 0, 0, 0, 0.1875)


@pytest.mark.parametrize("build", [
    # num(1) overflows to inf
    lambda: named_equation("Hypergeometric", [-1e308 - 1e308j, 0, 1e308 + 1e308j]),
    # num(1) is finite but |num(1)| is past the float range
    lambda: named_equation("Hypergeometric", [0, -1e306 - 1e306j, 1.27e308 + 1.27e308j]),
], ids=["hypergeometric-inf", "hypergeometric-modulus"])
def test_coefficient_ratio_overflow_keeps_the_poles(build):
    # an overflowing num(s) cannot show that the pole cancels, so it stays
    assert [(p.location, p.kind) for p in singular_points(build())] == [
        (0j, PointKind.REGULAR_SINGULAR), (1 + 0j, PointKind.REGULAR_SINGULAR),
        (INFINITY, PointKind.REGULAR_SINGULAR)]


@pytest.mark.parametrize("name, params", [
    ("Hypergeometric", [math.inf, -math.inf, 1]),
    ("Hypergeometric", [math.nan, 1, 1]),
    ("Heun", [1, 2, math.inf, -math.inf, 5, 3, 1]),
    ("Heun", [math.inf, 0, 1, 1, 1, 3, 1]),
    ("Heun", [1, 2, 3, 4, 5, math.nan, 1]),
], ids=["hypergeometric-inf-minus-inf", "hypergeometric-nan", "heun-inf-minus-inf",
        "heun-inf-times-0", "heun-a-nan"])
def test_non_finite_params_are_refused_before_any_residue_is_decided(name, params):
    # the exact residues would read inf - inf or inf * 0; the numerators are refused first
    with pytest.raises(ValueError, match="coefficient overflow"):
        named_equation(name, params)


@pytest.mark.parametrize("a", [math.inf, math.nan, complex(1, math.inf)])
def test_non_finite_heun_pole_is_refused_when_p1_has_no_term_in_it(a):
    # epsilon = 0 keeps a out of p1's numerator, but p2's residue at a reads it
    with pytest.raises(ValueError, match=r"^Heun pole a = .* is not finite$"):
        named_equation("Heun", [1, 2, 3, 4, 0, a, 1])


def test_curve_ode_all_degrees():
    for n in (5, 6, 7, 8):
        ode = curve_ode(curve_from_degree(n))
        s = 1.0 if n % 2 == 0 else -1.0
        assert ode.p1.den_roots == (s,)
        assert reference_pole_order(ode.p1, s) == 1
        assert finite_locations(ode) == [s]
        assert is_fuchsian(ode)
    with pytest.raises(ValueError, match=r"degree 9 not in 5\.\.8"):
        curve_ode(curve_from_degree(9))
    for n in (5, 6, 7, 8):  # y^2 = z^n + 1 would get the equation of z^n - 1
        with pytest.raises(ValueError, match=r"^sign \+1: the catalog covers y\^2 = z\^n - 1"):
            curve_ode(curve_from_degree(n, 1))


@pytest.mark.parametrize("k1, k2", [
    (complex("inf"), 0j), (complex(0, math.inf), 0j), (complex("nan"), 0j),
    (0j, complex("nan")), (0j, complex(-math.inf, 1)), (math.inf, math.nan)])
def test_curve_ode_refuses_a_non_finite_k1_or_k2(k1, k2):
    # else p1's numerator 2 - k1 s would print Infinity or NaN in the report
    with pytest.raises(ValueError, match=r"^k1 = .* and k2 = .* must be finite$"):
        curve_ode(curve_from_degree(5), k1, k2)


@pytest.mark.parametrize("k1", [2e12, 1e13, 1e308 + 1e308j])
def test_curve_ode_keeps_its_pole_for_large_k1(k1):
    # the residue 2 at s = -1 is tiny beside |k1| but never cancels
    ode = curve_ode(curve_from_degree(5), k1)
    assert [(p.location, p.kind) for p in singular_points(ode)] == [
        (-1.0, PointKind.REGULAR_SINGULAR), (INFINITY, PointKind.IRREGULAR_SINGULAR)]
    assert not is_fuchsian(ode)


@pytest.mark.parametrize("k1", [1e-13, 2e-12, 1e-300j])
def test_curve_ode_keeps_a_tiny_k1(k1):
    # p1 = 2/(z + 1) + k1: any nonzero k1 leaves a double pole of P1 at infinity
    ode = curve_ode(curve_from_degree(5), k1)
    assert ode.p1.num.coeffs == (2 + k1, k1)
    assert singular_points(ode)[-1] == PointClass(INFINITY, PointKind.IRREGULAR_SINGULAR)
    assert not is_fuchsian(ode)


def test_curve_ode_coefficients():
    ode = curve_ode(curve_from_degree(6), k1=1.0 + 0j, k2=2.0 + 0j)
    z = 4.0
    assert abs(ode.p1(z) - (2.0 / (z - 1) + 1.0)) < 1e-12
    assert abs(ode.p2(z) - 2.0) < 1e-12
    assert ode.p1.num.coeffs == (2 - 1.0 * 1.0, 1.0)  # (2 - k1 s, k1) at s = 1
    assert ode.p2.num.coeffs == (2.0,)
    # nonzero k1 forces an irregular point at infinity
    assert singular_points(ode)[-1].kind is PointKind.IRREGULAR_SINGULAR  # infinity
    assert not is_fuchsian(ode)


def test_infinity_ordinary_with_finite_poles():
    # p1 = 1/z + 1/(z-1), p2 = 1/z^2 + 2/z + 1/(z-1)^2 - 2/(z-1) = 1/(z^2 (z-1)^2):
    # residues that meet the four Fuchsian restrictions push the decay at
    # infinity to fourth order, and p1's residue 2 there cancels the P1 pole
    ode = SecondOrderODE(RationalFn(Poly((-1.0, 2.0)), 1.0, (0j, 1 + 0j)),
                         RationalFn(Poly((1.0,)), 1.0, (0j, 0j, 1 + 0j, 1 + 0j)))
    assert is_fuchsian(ode)
    assert finite_locations(ode) == [0.0, 1.0]
    assert singular_points(ode)[-1].kind is PointKind.ORDINARY  # infinity


@pytest.mark.parametrize("num, poles, kind", [
    # residue 3; the far pole's size does not enter the residue test
    ((0.0, 3.0), (1e13 + 0j, 1 + 0j), PointKind.REGULAR_SINGULAR),
    ((2.0 + 2e-14,), (0j,), PointKind.REGULAR_SINGULAR),  # residue 2 + 2e-14 is not 2
    ((2.0 + 1e-10,), (0j,), PointKind.REGULAR_SINGULAR),
    ((2.0,), (0j,), PointKind.ORDINARY),  # residue exactly 2
])
def test_residue_of_p1_at_infinity_decides_its_simple_pole(num, poles, kind):
    ode = SecondOrderODE(RationalFn(Poly(num), 1.0, poles), ZERO_RATIONAL)
    assert singular_points(ode)[-1] == PointClass(INFINITY, kind)


def test_infinity_irregular_from_a_constant_p1():
    # no finite singular point; p1 = 1 leaves a double pole of P1 at infinity
    ode = SecondOrderODE(RationalFn(Poly((1.0,)), 1.0, ()), ZERO_RATIONAL)
    pts = singular_points(ode)
    assert len(pts) == 1 and is_infinity(pts[0].location)
    assert pts[0].kind is PointKind.IRREGULAR_SINGULAR


def test_singular_points_sorted_and_deduplicated():
    ode = named_equation("Heun", [1.0, 1.0, 1.0, 1.0, 1.0, -2.0, 0.0])
    locs = finite_locations(ode)
    assert locs == sorted(locs)
    assert len(locs) == len(set(locs))


def test_singular_points_returns_a_new_list_each_call():
    ode = named_equation("Heun", [1.0, 1.0, 1.0, 1.0, 1.0, -2.0, 0.0])
    first, second = singular_points(ode), singular_points(ode)
    assert first == second and first is not second
    first.append(PointClass(INFINITY, PointKind.IRREGULAR_SINGULAR))
    assert singular_points(ode) == second
    assert is_fuchsian(ode)


# a Whittaker, a Heun and an irregular curve equation, with their verdicts
# and numbers of finite singular points
CACHED_CASES = {
    "whittaker": (lambda: whittaker_equation(expand_poly(curves.integer_roots(5))),
                  True, 5),
    "heun": (lambda: named_equation("Heun", [1, 2, 3, 4, 5, 2 + 1j, 0.5]), True, 3),
    "irregular-curve": (lambda: curve_ode(curve_from_degree(7), 0.5 + 0.25j),
                        False, 1),
}


@pytest.mark.parametrize("case", CACHED_CASES)
def test_cached_classification_matches_a_fresh_equation(case):
    make, fuchsian, _ = CACHED_CASES[case]
    ode = make()
    cached = singular_points(ode)
    assert is_fuchsian(ode) is fuchsian
    fresh = dataclasses.replace(ode)
    assert singular_points(fresh) == cached
    assert is_fuchsian(fresh) is fuchsian


@pytest.mark.parametrize("case", CACHED_CASES)
def test_ode_report_classifies_each_point_once(monkeypatch, case):
    make, _, finite = CACHED_CASES[case]
    ode = make()
    calls = []
    kind = fode._kind

    def counted(o1, o2):
        calls.append((o1, o2))
        return kind(o1, o2)

    monkeypatch.setattr(fode, "_kind", counted)
    doc = report.ode_report(ode)
    assert len(doc["singular_points"]) == finite + 1
    assert len(calls) == finite + 1


def test_classify_ordinary_point():
    ode = named_equation("Legendre", [2.0])
    assert_ordinary(ode, 0.5)
    assert str(PointKind.ORDINARY) == "Ordinary"
