import cmath
import math

import numpy as np
import pytest

from fuchsian.hyperbolic import (
    Model,
    ModelPoint,
    NotHyperbolic,
    Tessellation,
    distance,
    geodesic_midpoint,
    half_turn,
    regular_polygon_area,
    tessellation_topology,
)
from fuchsian.moebius import apply, compose, is_projectively_identity, normalize
from fuchsian.report import canonical_json, tessellation_report


def test_point_validation():
    ModelPoint.disk(0.99j)
    ModelPoint.half_plane(2 + 0.01j)
    with pytest.raises(ValueError, match="is not inside the disk"):
        ModelPoint.disk(1.0)
    with pytest.raises(ValueError, match="is not in the upper half-plane"):
        ModelPoint.half_plane(1.0 - 0.1j)
    # a non-finite point is refused before either model's test can pass it
    for make, z in ((ModelPoint.disk, complex("nan")),
                    (ModelPoint.half_plane, complex(math.nan, 1)),
                    (ModelPoint.half_plane, complex(0, math.inf))):
        with pytest.raises(ValueError, match="is not a finite point"):
            make(z)


def test_known_distances():
    d = distance(ModelPoint.disk(0), ModelPoint.disk(0.5))
    assert abs(d - math.log(3)) < 1e-12  # 2 atanh(1/2)
    d = distance(ModelPoint.half_plane(1j), ModelPoint.half_plane(2j))
    assert abs(d - math.log(2)) < 1e-12
    assert distance(ModelPoint.disk(0.3j), ModelPoint.disk(0.3j)) == 0.0
    # 2 sqrt(Im u) sqrt(Im v) is past the float range here; log(1.5) is not
    d = distance(ModelPoint.half_plane(1e308j), ModelPoint.half_plane(1.5e308j))
    assert math.isclose(d, math.log(1.5), rel_tol=1e-12)


def test_model_mixing_rejected():
    with pytest.raises(ValueError, match="disk vs half_plane"):
        distance(ModelPoint.disk(0), ModelPoint.half_plane(1j))
    with pytest.raises(ValueError, match="disk vs half_plane"):
        geodesic_midpoint(ModelPoint.disk(0), ModelPoint.half_plane(1j))


def test_distance_cayley_invariance():
    rng = np.random.RandomState(31)
    for _ in range(100):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        d_hp = distance(ModelPoint.half_plane(z1), ModelPoint.half_plane(z2))
        c = lambda z: (z - 1j) / (z + 1j)
        d_disk = distance(ModelPoint.disk(c(z1)), ModelPoint.disk(c(z2)))
        assert abs(d_hp - d_disk) < 1e-9


def test_distance_rotation_invariance():
    rng = np.random.RandomState(32)
    for _ in range(50):
        z1 = complex(*rng.uniform(-0.7, 0.7, 2))
        z2 = complex(*rng.uniform(-0.7, 0.7, 2))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        d1 = distance(ModelPoint.disk(z1), ModelPoint.disk(z2))
        d2 = distance(ModelPoint.disk(w * z1), ModelPoint.disk(w * z2))
        assert abs(d1 - d2) < 1e-12


def test_midpoint():
    mid = geodesic_midpoint(ModelPoint.disk(0), ModelPoint.disk(0.8))
    assert abs(mid.z - 0.5) < 1e-12  # tanh(atanh(0.8)/2) = 1/2
    with pytest.raises(ValueError, match="midpoint of a single point"):
        geodesic_midpoint(ModelPoint.disk(0.1), ModelPoint.disk(0.1))


def test_midpoint_equidistant():
    rng = np.random.RandomState(33)
    for _ in range(60):
        x = ModelPoint.disk(complex(*rng.uniform(-0.7, 0.7, 2)))
        y = ModelPoint.disk(complex(*rng.uniform(-0.7, 0.7, 2)))
        if abs(x.z - y.z) < 1e-9:
            continue
        mid = geodesic_midpoint(x, y)
        dx, dy = distance(x, mid), distance(mid, y)
        assert abs(dx - dy) < 1e-9
        assert abs(dx + dy - distance(x, y)) < 1e-9
    # half-plane route goes through the disk and back
    mid = geodesic_midpoint(ModelPoint.half_plane(1j), ModelPoint.half_plane(4j))
    assert mid.model is Model.HALF_PLANE
    assert abs(mid.z - 2j) < 1e-9  # geometric mean of the heights


@pytest.mark.parametrize("height", [1e200, 1e-200])
def test_half_plane_points_far_apart_in_height(height):
    # log(1e200) apart, and the midpoint at the geometric mean of the heights,
    # though |u - v|^2 passes the float range at 1e200 and the Cayley image of
    # the far point rounds onto the unit circle
    x, y = ModelPoint.half_plane(complex(0, height)), ModelPoint.half_plane(1j)
    d = math.log(1e200)
    assert math.isclose(distance(x, y), d, rel_tol=1e-12)
    assert math.isclose(distance(y, x), d, rel_tol=1e-12)
    for mid in (geodesic_midpoint(x, y), geodesic_midpoint(y, x)):
        assert mid.model is Model.HALF_PLANE
        assert mid.z.real == 0.0
        assert math.isclose(mid.z.imag, math.sqrt(height), rel_tol=1e-12)


def test_half_plane_midpoint_keeps_a_shared_real_part():
    # a vertical geodesic's midpoint stays on it, however small the heights
    # are beside a float step of the real part
    x, y = ModelPoint.half_plane(-85.54064913705668 + 1e-130j), ModelPoint.half_plane(
        -85.54064913705668 + 1e-127j)
    mid = geodesic_midpoint(x, y)
    assert mid.z.real == x.z.real
    assert math.isclose(distance(x, mid), distance(x, y) / 2, rel_tol=1e-12)


def test_half_plane_points_at_the_top_of_the_float_range():
    # y1 + y2, 2 sqrt(y1 y2) and x1 - x2 pass the float range here, while the
    # distance and both midpoints are finite
    x, y = ModelPoint.half_plane(1e308j), ModelPoint.half_plane(1.5e308j)
    mid = geodesic_midpoint(x, y)
    assert mid.z.real == 0.0
    assert math.isclose(mid.z.imag, math.sqrt(1.5) * 1e308, rel_tol=1e-12)
    x, y = ModelPoint.half_plane(1e308 + 1j), ModelPoint.half_plane(-1e308 + 1j)
    assert math.isclose(distance(x, y), 2 * math.asinh(1e308), rel_tol=1e-12)
    mid = geodesic_midpoint(x, y)
    assert mid.z.real == 0.0
    assert math.isclose(mid.z.imag, 1e308, rel_tol=1e-12)


@pytest.mark.parametrize("height, gap", [(5e-324, 1.0), (1.5e-323, 1.0), (1e-320, 1e-300)])
def test_half_plane_midpoint_at_subnormal_heights(height, gap):
    # two points at one subnormal height, gap apart: the geodesic is a half-circle
    # of radius about gap/2, so the midpoint is about (1 + i) gap/2; halving such
    # a height loses its bits, and r hypot(2r, gap) underflows
    x, y = ModelPoint.half_plane(complex(0, height)), ModelPoint.half_plane(complex(gap, height))
    mid = geodesic_midpoint(x, y)
    assert math.isclose(mid.z.real, gap / 2, rel_tol=1e-12)
    assert math.isclose(mid.z.imag, gap / 2, rel_tol=1e-12)


def test_half_turn():
    m = half_turn(ModelPoint.disk(0))
    assert abs(apply(m, 0.3j) + 0.3j) < 1e-12  # z -> -z at the origin
    rng = np.random.RandomState(35)
    for _ in range(50):
        p = ModelPoint.disk(complex(*rng.uniform(-0.6, 0.6, 2)))
        m = half_turn(p)
        assert abs(apply(m, p.z) - p.z) < 1e-10
        assert is_projectively_identity(compose(m, m))
        assert normalize(m).is_disk_isometry()
    with pytest.raises(ValueError, match="half_turn is defined on disk points"):
        half_turn(ModelPoint.half_plane(1j))


def test_half_turn_swaps_endpoints():
    rng = np.random.RandomState(36)
    for _ in range(30):
        x = complex(*rng.uniform(-0.5, 0.5, 2))
        y = complex(*rng.uniform(-0.5, 0.5, 2))
        if abs(x - y) < 1e-6:
            continue
        mid = geodesic_midpoint(ModelPoint.disk(x), ModelPoint.disk(y))
        m = half_turn(mid)
        assert abs(apply(m, x) - y) < 1e-8
        assert abs(apply(m, y) - x) < 1e-8


def test_tessellation_validity():
    assert Tessellation(7, 3).is_hyperbolic
    assert not Tessellation(4, 4).is_hyperbolic  # Euclidean
    assert not Tessellation(3, 5).is_hyperbolic  # spherical
    with pytest.raises(ValueError):
        Tessellation(2, 7)


@pytest.mark.parametrize("p, q", [(8.5, 8), (3.5, 7), (8.0, 8), (8, np.float64(8))])
def test_tessellation_refuses_non_integers(p, q):
    with pytest.raises(ValueError, match="both entries must be integers"):
        Tessellation(p, q)


def test_tessellation_stores_python_ints():
    t = Tessellation(np.int64(8), np.int32(8))
    assert (t.p, t.q) == (8, 8) and type(t.p) is int and type(t.q) is int
    text = canonical_json(tessellation_report(t))
    assert '"p": 8,' in text and '"genus": 2' in text


def test_polygon_areas():
    two_pi = 2 * math.pi
    for (p, q), expect in (((8, 8), 4 * math.pi), ((10, 5), 4 * math.pi),
                           ((12, 12), 8 * math.pi), ((14, 7), 8 * math.pi),
                           ((5, 4), 0.5 * math.pi)):
        area = regular_polygon_area(Tessellation(p, q))
        assert abs(area - expect) < 1e-12
        assert abs(area - ((p - 2) * math.pi - p * two_pi / q)) < 1e-12
    # Euclidean boundary (p-2)(q-2) = 4: area degenerates to exactly zero
    assert regular_polygon_area(Tessellation(4, 4)) == 0.0
    assert regular_polygon_area(Tessellation(3, 6)) == 0.0
    with pytest.raises(NotHyperbolic):
        regular_polygon_area(Tessellation(3, 5))


@pytest.mark.parametrize("p, q", [
    (10 ** 400, 4),  # p does not convert to float
    (4, 10 ** 400),  # nor does q
    (10 ** 308, 10 ** 308),  # (p-2) pi is inf
    (10 ** 308, 3),  # inf - inf is nan
], ids=["p-int", "q-int", "inf", "nan"])
def test_polygon_area_overflow_is_a_value_error(p, q):
    with pytest.raises(ValueError, match="area overflows float arithmetic"):
        regular_polygon_area(Tessellation(p, q))


def test_area_families_agree():
    # both tessellation families carry the same area 4 pi (g - 1)
    for g in range(2, 11):
        a1 = regular_polygon_area(Tessellation(4 * g, 4 * g))
        a2 = regular_polygon_area(Tessellation(4 * g + 2, 2 * g + 1))
        expect = 4 * math.pi * (g - 1)
        assert abs(a1 - expect) < 1e-9
        assert abs(a2 - expect) < 1e-9


def test_topology_tuples():
    cases = {
        (8, 8): (1, 4, 1, -2, 2),
        (10, 5): (2, 5, 1, -2, 2),
        (12, 12): (1, 6, 1, -4, 3),
        (14, 7): (2, 7, 1, -4, 3),
    }
    for (p, q), (v, e, f, chi, g) in cases.items():
        t = tessellation_topology(Tessellation(p, q))
        assert (t.V, t.E, t.F, t.chi, t.genus) == (v, e, f, chi, g)
        assert t.chi == 2 - 2 * t.genus


def test_topology_rejections():
    with pytest.raises(ValueError, match="sides cannot pair up"):
        tessellation_topology(Tessellation(9, 3))
    with pytest.raises(ValueError, match="q = 3 does not divide p = 8"):
        tessellation_topology(Tessellation(8, 3))
    with pytest.raises(ValueError):
        tessellation_topology(Tessellation(12, 6))  # chi = -3 is not 2 - 2g
