import cmath

import numpy as np
import pytest

from fuchsian.moebius import (
    INFINITY,
    AllPointsFixed,
    DegenerateMap,
    IndexOutOfRange,
    MoebiusMap,
    TransformClass,
    apply,
    classify,
    compose,
    disk_point_to_halfplane,
    evaluate_word,
    fixed_points,
    halfplane_point_to_disk,
    is_infinity,
    is_projectively_identity,
    normalize,
    projective_distance,
    to_disk_model,
    to_halfplane_model,
)


def random_map(rng, scale=2.0):
    while True:
        a, b, c, d = (complex(x, y) for x, y in rng.uniform(-scale, scale, (4, 2)))
        m = MoebiusMap(a, b, c, d)
        if abs(m.det) > 1e-2:
            return m


def as_array(m):
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=complex)


def test_identity_action():
    e = MoebiusMap.identity()
    for z in (0.0, 1.5 - 0.5j, -3j):
        assert apply(e, z) == z
    assert is_infinity(apply(e, INFINITY))
    assert classify(e) is TransformClass.IDENTITY
    with pytest.raises(AllPointsFixed):
        fixed_points(e)


def test_apply_matches_fraction():
    rng = np.random.RandomState(11)
    for _ in range(200):
        m = random_map(rng)
        z = complex(*rng.uniform(-2, 2, 2))
        den = m.c * z + m.d
        if abs(den) < 1e-6:
            continue
        assert abs(m(z) - (m.a * z + m.b) / den) < 1e-9


def test_apply_extended_plane():
    m = MoebiusMap(2, 1, 1, 1)
    assert abs(apply(m, INFINITY) - 2.0) < 1e-15
    assert is_infinity(apply(m, -1.0))  # pole of the map
    assert is_infinity(apply(MoebiusMap(1, 1, 0, 1), INFINITY))


def test_compose_is_matrix_product():
    rng = np.random.RandomState(12)
    for _ in range(100):
        m1, m2 = random_map(rng), random_map(rng)
        prod = as_array(compose(m1, m2))
        ref = as_array(m1) @ as_array(m2)
        assert np.max(np.abs(prod - ref)) < 1e-12


def test_compose_action_agrees():
    rng = np.random.RandomState(13)
    for _ in range(100):
        m1, m2 = random_map(rng), random_map(rng)
        z = complex(*rng.uniform(-1, 1, 2))
        w = apply(m2, z)
        if is_infinity(w) or abs(w) > 50:
            continue
        lhs = apply(compose(m1, m2), z)
        rhs = apply(m1, w)
        if is_infinity(lhs) or is_infinity(rhs):
            continue
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_degenerate_map_rejected():
    bad = MoebiusMap(1, 1, 1, 1)
    with pytest.raises(DegenerateMap):
        bad.inverse()
    with pytest.raises(DegenerateMap):
        apply(bad, 0.5)


def test_inverse_and_normalize():
    rng = np.random.RandomState(14)
    for _ in range(100):
        m = random_map(rng)
        assert is_projectively_identity(compose(m, m.inverse()))
        assert abs(normalize(m).det - 1.0) < 1e-12


def test_projective_distance_scale_invariance():
    rng = np.random.RandomState(15)
    m = random_map(rng)
    for s in (2.0, -1.0, 1j, 0.3 - 0.7j):
        assert projective_distance(m, m.scaled(s)) < 1e-12
    # distinct maps stay apart
    assert projective_distance(m, MoebiusMap.identity()) > 1e-3


def numpy_projective_distance(m1, m2):
    """Reference: the same comparison on numpy arrays of the normalized maps."""
    n1, n2 = as_array(normalize(m1)), as_array(normalize(m2))
    return min(float(np.abs(n1 - s * n2).max()) for s in (1, -1, 1j, -1j))


def test_projective_distance_property():
    rng = np.random.RandomState(21)
    for _ in range(300):
        m1, m2 = random_map(rng), random_map(rng)
        d = projective_distance(m1, m2)
        assert abs(d - numpy_projective_distance(m1, m2)) <= 1e-15 * max(1.0, d)
        s1, s2 = (cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(-cmath.pi, cmath.pi))
                  for _ in range(2))
        assert abs(projective_distance(m1.scaled(s1), m2) - d) < 1e-12
        assert abs(projective_distance(m1, m2.scaled(s2)) - d) < 1e-12
        assert projective_distance(m1, m1.scaled(s1)) < 1e-12


def test_classification_cases():
    rot = MoebiusMap(cmath.exp(0.3j), 0, 0, cmath.exp(-0.3j))
    assert classify(rot) is TransformClass.ELLIPTIC
    assert classify(MoebiusMap(1, 1, 0, 1)) is TransformClass.PARABOLIC
    assert classify(MoebiusMap(2, 0, 0, 0.5)) is TransformClass.HYPERBOLIC
    lox = MoebiusMap(1 + 1j, 0, 0, 1 / (1 + 1j))
    assert classify(lox) is TransformClass.LOXODROMIC
    # scale invariance of the classification
    assert classify(rot.scaled(5.0)) is TransformClass.ELLIPTIC
    assert str(TransformClass.HYPERBOLIC) == "Hyperbolic"


def test_near_parabolic_tolerance():
    eps = 1e-12
    m = MoebiusMap(1 + eps, 1, 0, 1 / (1 + eps))
    assert classify(m) is TransformClass.PARABOLIC


def test_fixed_points_known():
    fp = fixed_points(MoebiusMap(0, 1, 1, 0))  # z -> 1/z
    assert fp == [1 + 0j, -1 + 0j]
    assert fixed_points(MoebiusMap(1, 1, 0, 1)) == [INFINITY]
    fp = fixed_points(MoebiusMap(2, 0, 0, 1))
    assert abs(fp[0]) < 1e-15 and is_infinity(fp[1])
    fp = fixed_points(MoebiusMap(1, 0, 1, 1))  # parabolic, c != 0
    assert len(fp) == 1 and abs(fp[0]) < 1e-15


def test_fixed_points_are_fixed():
    rng = np.random.RandomState(16)
    checked = 0
    while checked < 50:
        m = random_map(rng)
        if classify(m) is TransformClass.PARABOLIC:
            continue
        for fp in fixed_points(m):
            if is_infinity(fp) or abs(fp) > 20:
                continue
            img = apply(m, fp)
            assert not is_infinity(img)
            assert abs(img - fp) < 1e-6 * max(1.0, abs(fp))
        checked += 1


def test_evaluate_word():
    rng = np.random.RandomState(17)
    a, b = random_map(rng), random_map(rng)
    w = evaluate_word([a, b], ((1, 1), (2, -1), (1, 2)))
    ref = compose(compose(a, b.inverse()), compose(a, a))
    assert projective_distance(w, ref) < 1e-9
    assert is_projectively_identity(evaluate_word([a, b], ()))
    with pytest.raises(IndexOutOfRange):
        evaluate_word([a, b], ((3, 1),))
    with pytest.raises(IndexOutOfRange):
        evaluate_word([a, b], ((0, 1),))
    with pytest.raises(ValueError):
        evaluate_word([a, b], ((1, 0),))


def test_cayley_points():
    assert abs(halfplane_point_to_disk(1j)) < 1e-15
    rng = np.random.RandomState(18)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        w = halfplane_point_to_disk(z)
        assert abs(w) < 1.0
        assert abs(disk_point_to_halfplane(w) - z) < 1e-10


def test_cayley_conjugation_of_maps():
    rng = np.random.RandomState(19)
    for _ in range(50):
        # real entries keep the half-plane invariant
        vals = rng.uniform(-2, 2, 4)
        m = MoebiusMap(*(complex(v) for v in vals))
        if abs(m.det) < 1e-2:
            continue
        md = to_disk_model(m)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.2, 2))
        lhs = apply(md, halfplane_point_to_disk(z))
        rhs_hp = apply(m, z)
        if is_infinity(rhs_hp):
            continue
        assert abs(lhs - halfplane_point_to_disk(rhs_hp)) < 1e-8
        back = to_halfplane_model(md)
        assert projective_distance(back, m) < 1e-9


def test_disk_isometry_shape():
    m = MoebiusMap(1.2 + 0.1j, 0.3 - 0.4j, 0.3 + 0.4j, 1.2 - 0.1j)
    assert m.is_disk_isometry()
    assert not MoebiusMap(1, 1, 0, 1).is_disk_isometry()
    # disk isometries map the disk to itself
    rng = np.random.RandomState(20)
    for _ in range(50):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        assert abs(apply(m, z)) < 1.0
