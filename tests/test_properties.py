"""Property tests: canonical JSON, half-turns, geodesic midpoints, genus bounds,
polynomial expansion, rational-function cancellation, singular-point
classification."""

import cmath
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from fuchsian.curves import Poly, expand_poly
from fuchsian.embed import genus_range
from fuchsian.fode import (
    ZERO_RATIONAL, PointKind, RationalFn, SecondOrderODE, is_fuchsian, rational_fn,
    singular_points)
from fuchsian.hyperbolic import ModelPoint, distance, geodesic_midpoint, half_turn
from fuchsian.moebius import apply, compose, is_projectively_identity
from fuchsian.report import canonical_json

from helpers import (
    oracle_json, reference_pole_order, reference_singular_points)

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

# up to 6 roots on distinct cells of a 0.75-spaced 5x5 grid, each moved by at
# most 0.1, so any two are at least 0.55 apart; each is tagged for the
# numerator only (A), the denominator only (B) or both (C)
TAGGED_ROOTS = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2),
              st.floats(-0.1, 0.1), st.floats(-0.1, 0.1), st.sampled_from("ABC")),
    unique_by=lambda t: t[:2], max_size=6)
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
    reference = Poly.one()
    for r in roots:
        reference = reference * Poly((-complex(r), 1.0))
    assert expand_poly(roots) == reference


def test_expand_poly_of_no_roots_is_one():
    assert expand_poly([]) == Poly.one()


@PROPERTY
@given(TAGGED_ROOTS, SCALARS, SCALARS, ANGLES)
# a pole at 1e-12j: trimming den's 7.5e-13 constant would move the common root
@example([(0, 0, 0.0, 1e-12, "B"), (0, 1, 0.0, 0.0, "A"), (0, -1, 0.0, 0.0, "C")],
         1, 1, 0.0)
def test_rational_fn_cancels_exactly_the_common_roots(tagged, l1, l2, angle):
    roots = {tag: [complex(0.75 * i + dx, 0.75 * j + dy)
                   for i, j, dx, dy, t in tagged if t == tag] for tag in "ABC"}
    num = expand_poly(roots["C"] + roots["A"]).scaled(l1)
    den = expand_poly(roots["C"] + roots["B"]).scaled(l2)
    rf = rational_fn(num, den)
    assert all(rf.pole_order(b) == 1 for b in roots["B"])
    assert all(rf.pole_order(c) == 0 for c in roots["C"])
    # |z| = 3 keeps z at least 0.75 from every root, which lie within 1.6 * sqrt(2)
    z = cmath.rect(3.0, angle)
    # Horner's error on num(z)/den(z) scales with sum |c_k| |z|^k / |den(z)|
    scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(num.coeffs)) / abs(den(z))
    assert abs(rf(z) - num(z) / den(z)) <= 1e-9 * max(1.0, scale)


# poles drawn from a small pool (exact duplicates, and -0.0 next to 0.0),
# moved by up to 4e-9 (inside and outside the 1e-9 (1 + |z|) match
# tolerance, so near-duplicates chain), or anywhere in |z| <= 4
POLE_POOL = (0j, complex(-0.0, -0.0), complex(0.0, -0.0), 1 + 0j, -1 + 0j, 2 + 1j, 0.5j)
POLES = st.lists(
    st.sampled_from(POLE_POOL)
    | st.builds(lambda z, d, t: z + cmath.rect(d, t),
                st.sampled_from(POLE_POOL), st.floats(0.0, 4e-9), ANGLES)
    | st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
    max_size=6)
# |lead| past the float range overflows 2 D - N at infinity
LEADS = SCALARS | st.just(complex(1.5e308, 1.5e308))


@st.composite
def rational_specs(draw):
    """(numerator coefficients, or None for the zero function; den_lead; poles).
    "e1=-1" gives deg num = #poles - 1, where infinity needs the 2 D - N check;
    "cancel" also sets num's top coefficient to 2 lead, which cancels there,
    or to within float noise of it, or just off it."""
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
@example(([1.0, 2.0], 1.0, [0j, 1 + 0j]), (None, 1.0, []))  # 2 D - N cancels
@example(([1.0, 2.0 + 4e-15], 1.0, [0j, 1 + 0j]), (None, 1.0, []))  # noise at w^0
@example(([1.0], complex(1.5e308, 1.5e308), [1 + 0j]), (None, 1.0, []))  # overflow
@example(([complex(1.5e308, 1.5e308), 1.0], 1.0, [1 + 0j, 2 + 0j]), (None, 1.0, []))
def test_classification_agrees_with_the_reference_scan(spec1, spec2):
    ode = SecondOrderODE(_rational(spec1), _rational(spec2))
    try:
        want = reference_singular_points(ode)
    except ValueError:  # an overflowed coefficient at infinity
        with pytest.raises(ValueError):
            singular_points(ode)
        with pytest.raises(ValueError):
            is_fuchsian(ode)
    else:
        assert repr(singular_points(ode)) == repr(want)  # repr tells -0.0 from 0.0
        assert is_fuchsian(ode) is all(
            pc.kind is not PointKind.IRREGULAR_SINGULAR for pc in want)
    for rf in (ode.p1, ode.p2):
        for pole in spec1[2] + spec2[2] + [0j, complex(-0.0, -0.0), 3 - 1j]:
            for z in (pole, pole + 5e-10, pole - 3e-9j):
                assert rf.pole_order(z) == reference_pole_order(rf, z)
