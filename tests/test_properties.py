"""Property tests: canonical JSON, half-turns, geodesic midpoints, genus bounds."""

import cmath
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from fuchsian.embed import genus_range
from fuchsian.hyperbolic import ModelPoint, distance, geodesic_midpoint, half_turn
from fuchsian.moebius import apply, compose, is_projectively_identity
from fuchsian.report import canonical_json

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
