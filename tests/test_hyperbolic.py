import cmath
import math
import re

import numpy as np
import pytest

from fuchsian.curves import curve_from_degree
from fuchsian.embed import GenusRange, genus_range
from fuchsian.hyperbolic import (
    NotHyperbolic,
    Tessellation,
    distance,
    half_turn,
    regular_polygon_area,
    tessellation_topology,
)
from fuchsian.moebius import apply, compose, is_projectively_identity, normalize
from fuchsian.report import canonical_json, tessellation_report, uniformization_report
from fuchsian.uniformize import uniformize


def test_point_validation():
    assert distance(0.99j, 0.99j) == 0.0
    for z in (1.0, -0.6 + 0.8j, 2j):
        with pytest.raises(ValueError, match="is not inside the disk"):
            distance(0, z)
        with pytest.raises(ValueError, match="is not inside the disk"):
            half_turn(z)
    # a non-finite point is refused before the disk test can pass it
    for z in (complex("nan"), complex(math.nan, 0.5), complex(0, math.inf)):
        with pytest.raises(ValueError, match="is not a finite point"):
            distance(z, 0)
        with pytest.raises(ValueError, match="is not a finite point"):
            half_turn(z)


def test_known_distances():
    d = distance(0, 0.5)
    assert abs(d - math.log(3)) < 1e-12  # 2 atanh(1/2)
    assert distance(0.3j, 0.3j) == 0.0


def test_distance_cayley_invariance():
    # the half-plane distance acosh(1 + |z1 - z2|^2 / (2 y1 y2)), the classical
    # closed form, of the preimages under the Cayley map
    rng = np.random.RandomState(31)
    c = lambda z: (z - 1j) / (z + 1j)
    for _ in range(100):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        d_hp = math.acosh(1 + abs(z1 - z2) ** 2 / (2 * z1.imag * z2.imag))
        assert abs(distance(c(z1), c(z2)) - d_hp) < 1e-9


def test_distance_rotation_invariance():
    rng = np.random.RandomState(32)
    for _ in range(50):
        z1 = complex(*rng.uniform(-0.7, 0.7, 2))
        z2 = complex(*rng.uniform(-0.7, 0.7, 2))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        d1 = distance(z1, z2)
        d2 = distance(w * z1, w * z2)
        assert abs(d1 - d2) < 1e-12


def test_half_turn():
    m = half_turn(0)
    assert abs(apply(m, 0.3j) + 0.3j) < 1e-12  # z -> -z at the origin
    rng = np.random.RandomState(35)
    for _ in range(50):
        p = complex(*rng.uniform(-0.6, 0.6, 2))
        m = half_turn(p)
        assert abs(apply(m, p) - p) < 1e-10
        assert is_projectively_identity(compose(m, m))
        assert normalize(m).is_disk_isometry()


def test_half_turn_swaps_endpoints():
    # the half-turn about p swaps x with its image y, and p is the midpoint of
    # the geodesic segment from x to y: d(x, p) = d(p, y) = d(x, y) / 2
    rng = np.random.RandomState(36)
    for _ in range(30):
        p = complex(*rng.uniform(-0.5, 0.5, 2))
        x = complex(*rng.uniform(-0.5, 0.5, 2))
        m = half_turn(p)
        y = apply(m, x)
        assert abs(apply(m, y) - x) < 1e-8
        assert abs(distance(x, p) - distance(p, y)) < 1e-9
        assert abs(distance(x, p) + distance(p, y) - distance(x, y)) < 1e-9


def test_tessellation_validity():
    assert Tessellation(7, 3).is_hyperbolic
    assert not Tessellation(4, 4).is_hyperbolic  # Euclidean
    assert not Tessellation(3, 5).is_hyperbolic  # spherical
    with pytest.raises(ValueError):
        Tessellation(2, 7)


ARG_NAMES = {curve_from_degree: ("degree", "sign"), Tessellation: ("p", "q"),
             genus_range: ("m", "n")}
# (entry point, arguments, the argument refused); a float degree would give a
# float genus, which Fraction refuses in uniformize, and float sizes float
# bounds, such as g_min = -0.0 for K_{2,8.0}
NON_INTEGERS = [
    (curve_from_degree, (5.5, -1), "degree"),
    (curve_from_degree, (6.0, -1), "degree"),
    (curve_from_degree, (np.float64(6), 1), "degree"),
    (curve_from_degree, (5, -1.0), "sign"),
    (Tessellation, (8.5, 8), "p"),
    (Tessellation, (3.5, 7), "p"),
    (Tessellation, (8.0, 8), "p"),
    (Tessellation, (8, np.float64(8)), "q"),
    (genus_range, (2, 8.0), "n"),
    (genus_range, (2.5, 8), "m"),
    (genus_range, (np.float64(2), 8), "m"),
]


@pytest.mark.parametrize("entry, args, name", NON_INTEGERS, ids=[
    "-".join(map(str, (entry.__name__, *args))) for entry, args, _ in NON_INTEGERS])
def test_entry_points_refuse_non_integers(entry, args, name):
    # all three read their integers through hyperbolic._integer
    value = args[ARG_NAMES[entry].index(name)]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {value!r}')} is not an integer$"):
        entry(*args)


# (entry point, numpy integer arguments, the equal result of Python ints, the
# fields that must hold a Python int)
NUMPY_INTEGERS = [
    (curve_from_degree, (np.int64(6), np.int32(1)), curve_from_degree(6, 1), ("degree", "sign")),
    (Tessellation, (np.int64(8), np.int32(8)), Tessellation(8, 8), ("p", "q")),
    (genus_range, (np.int64(2), np.int32(8)), GenusRange(0, 3), ("g_min", "g_max")),
]


@pytest.mark.parametrize("entry, args, expect, fields", NUMPY_INTEGERS,
                         ids=[entry.__name__ for entry, *_ in NUMPY_INTEGERS])
def test_entry_points_store_numpy_integers_as_python_ints(entry, args, expect, fields):
    result = entry(*args)
    assert result == expect
    assert [type(getattr(result, field)) for field in fields] == [int] * len(fields)


def test_numpy_integer_inputs_serialize():
    c = curve_from_degree(np.int64(6), np.int32(1))
    text = canonical_json(uniformization_report(c, uniformize(c)))
    assert '"degree": 6,' in text and '"sign": 1' in text
    text = canonical_json(tessellation_report(Tessellation(np.int64(8), np.int32(8))))
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
