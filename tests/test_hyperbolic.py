import cmath
import math

import numpy as np
import pytest

from fuchsian.hyperbolic import (
    AngleSumExceedsPi,
    CoincidentEndpoints,
    CoincidentPoints,
    InvalidPoint,
    Model,
    ModelMismatch,
    ModelPoint,
    NonIntegerVertexCycle,
    NotHyperbolic,
    OddSides,
    Tessellation,
    boundary_geodesic_apex,
    distance,
    geodesic_midpoint,
    half_turn,
    regular_polygon_area,
    tessellation_topology,
    triangle_area,
)
from fuchsian.moebius import apply, compose, is_projectively_identity, normalize


def test_point_validation():
    ModelPoint.disk(0.99j)
    ModelPoint.half_plane(2 + 0.01j)
    with pytest.raises(InvalidPoint):
        ModelPoint.disk(1.0)
    with pytest.raises(InvalidPoint):
        ModelPoint.half_plane(1.0 - 0.1j)


def test_known_distances():
    d = distance(ModelPoint.disk(0), ModelPoint.disk(0.5))
    assert abs(d - math.log(3)) < 1e-12  # 2 atanh(1/2)
    d = distance(ModelPoint.half_plane(1j), ModelPoint.half_plane(2j))
    assert abs(d - math.log(2)) < 1e-12
    assert distance(ModelPoint.disk(0.3j), ModelPoint.disk(0.3j)) == 0.0


def test_model_mixing_rejected():
    with pytest.raises(ModelMismatch):
        distance(ModelPoint.disk(0), ModelPoint.half_plane(1j))
    with pytest.raises(ModelMismatch):
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
    with pytest.raises(CoincidentPoints):
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


def test_apex_quarter_circle():
    p = boundary_geodesic_apex(1.0, 1j)
    assert abs(p.z - (math.sqrt(2) - 1) * cmath.exp(0.25j * math.pi)) < 1e-12


def test_apex_consecutive_fifth_roots():
    u, v = 1.0, cmath.exp(0.4j * math.pi)
    p = boundary_geodesic_apex(u, v)
    half = math.pi / 5
    expected = (1 - math.sin(half)) / math.cos(half)
    assert abs(abs(p.z) - expected) < 1e-12
    assert abs(cmath.phase(p.z) - half) < 1e-12


def test_apex_edge_cases():
    assert boundary_geodesic_apex(1.0, -1.0).z == 0  # diameter
    with pytest.raises(CoincidentEndpoints):
        boundary_geodesic_apex(1j, 1j)
    with pytest.raises(InvalidPoint):
        boundary_geodesic_apex(0.5, 1.0)


def test_apex_is_closest_point():
    # every other point of the geodesic arc lies further from the origin
    rng = np.random.RandomState(34)
    o = ModelPoint.disk(0)
    for _ in range(20):
        t1, t2 = rng.uniform(0, 2 * math.pi, 2)
        u, v = cmath.exp(1j * t1), cmath.exp(1j * t2)
        if abs(u - v) < 0.1 or abs(u + v) < 0.1:
            continue
        apex = boundary_geodesic_apex(u, v)
        d0 = distance(o, apex)
        # the geodesic is an arc of the circle centered at c orthogonal
        # to the unit circle
        cos_half = abs(u + v) / 2.0
        sin_half = abs(u - v) / 2.0
        c = (u + v) / abs(u + v) / cos_half
        radius = sin_half / cos_half
        span = math.pi - 2 * math.asin(sin_half)
        phi0 = cmath.phase(-c)
        for s in np.linspace(-0.9, 0.9, 9):
            z = c + radius * cmath.exp(1j * (phi0 + s * span / 2))
            assert abs(z) < 1.0
            assert distance(o, ModelPoint.disk(z)) >= d0 - 1e-9


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
    with pytest.raises(ModelMismatch):
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


def test_triangle_area():
    assert abs(triangle_area(0.2, 0.3, 0.4) - (math.pi - 0.9)) < 1e-15
    assert triangle_area(math.pi / 2, math.pi / 4, math.pi / 4) == 0.0
    with pytest.raises(ValueError):
        triangle_area(-0.1, 0.2, 0.3)
    with pytest.raises(AngleSumExceedsPi):
        triangle_area(2.0, 1.0, 1.0)


def test_tessellation_validity():
    assert Tessellation(7, 3).is_hyperbolic
    assert not Tessellation(4, 4).is_hyperbolic  # Euclidean
    assert not Tessellation(3, 5).is_hyperbolic  # spherical
    with pytest.raises(ValueError):
        Tessellation(2, 7)


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
    with pytest.raises(OddSides):
        tessellation_topology(Tessellation(9, 3))
    with pytest.raises(NonIntegerVertexCycle):
        tessellation_topology(Tessellation(8, 3))
    with pytest.raises(ValueError):
        tessellation_topology(Tessellation(12, 6))  # chi = -3 is not 2 - 2g
