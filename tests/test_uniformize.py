import cmath
import collections
import math
from fractions import Fraction

import pytest

from fuchsian.curves import CurveSpec, curve_from_degree
from fuchsian.moebius import (
    TransformClass,
    apply,
    classify,
    compose,
    is_projectively_identity,
    normalize,
    projective_distance,
)
from fuchsian.hyperbolic import half_turn
from fuchsian.uniformize import (
    PRESENTATION_WORDS,
    GenusTooSmall,
    fixed_point_radius,
    generator_labels,
    group_generators,
    mursi_parameters,
    side_transformations,
    uniformize,
)
from fuchsian.moebius import IndexOutOfRange

# reference values computed from alpha = (g-1)/n, a = (2 cos(pi alpha) - 1)^(-1/2)
FROZEN = {
    5: dict(alpha=Fraction(1, 5), a=1.2720196, rho=0.4858683,
            tr2=(17.944272, 61.686918, 61.686918, 17.944272)),
    6: dict(alpha=Fraction(1, 6), a=1.1687709, rho=0.5637706,
            tr2=(22.392305, 103.961524, 167.138439, 103.961524, 22.392305)),
    7: dict(alpha=Fraction(2, 7), a=2.0121922, rho=0.2660772,
            tr2=(7.850855, 10.542877, 5.048917, 5.048917, 10.542877, 7.850855)),
    8: dict(alpha=Fraction(1, 4), a=1.5537740, rho=0.3645669,
            tr2=(11.656854, 23.313708, 11.656854, 4.000000,
                 11.656854, 23.313708, 11.656854)),
}


@pytest.fixture(scope="module", params=(5, 6, 7, 8))
def result(request):
    return uniformize(curve_from_degree(request.param))


def test_parameters_frozen():
    for n, ref in FROZEN.items():
        p = mursi_parameters(curve_from_degree(n))
        assert p.alpha == ref["alpha"]
        assert abs(p.a - ref["a"]) < 1e-6
        assert abs(fixed_point_radius(p) - ref["rho"]) < 1e-6
        assert len(p.thetas) == n
        # thetas advance by 2 pi alpha starting at pi alpha / 2
        assert abs(p.thetas[0] - math.pi * float(p.alpha) / 2) < 1e-15


def test_alpha_below_one_third_accepted():
    p = mursi_parameters(curve_from_degree(10))
    assert p.alpha == Fraction(3, 10)
    assert abs(p.a - (2 * math.cos(0.3 * math.pi) - 1) ** -0.5) < 1e-12


def test_genus_too_small():
    c = CurveSpec(degree=3, sign=-1)
    with pytest.raises(GenusTooSmall):
        mursi_parameters(c)


def test_side_transformations_shape(result):
    p = result.params
    sides = result.side_transforms
    assert len(sides) == p.degree
    a2m1 = p.a * p.a - 1.0
    for s in sides:
        assert s.trace == 0  # a and -a cancel exactly
        # raw form has d = -conj(a); the unit-det representative has the shape
        assert not s.is_disk_isometry()
        assert normalize(s).is_disk_isometry()
        assert classify(s) is TransformClass.ELLIPTIC
        sq = compose(s, s)
        # S^2 = (a^2 - 1) I entrywise, not merely projectively
        assert abs(sq.a - a2m1) < 1e-12 and abs(sq.d - a2m1) < 1e-12
        assert abs(sq.b) < 1e-12 and abs(sq.c) < 1e-12


def test_generator_products(result):
    p = result.params
    n = p.degree
    assert len(result.generators_raw) == n - 1
    assert result.generator_labels == tuple(range(2, n + 1))
    sides = result.side_transforms
    for lbl, m in zip(result.generator_labels, result.generators_raw):
        ref = compose(sides[0], sides[lbl - 1])
        assert projective_distance(m, ref) < 1e-12
    for m in result.generators_normalized:
        assert abs(m.det - 1.0) < 1e-10


def test_trace_squares(result):
    p = result.params
    for m, ref in zip(result.generators_raw, FROZEN[p.degree]["tr2"]):
        t2 = m.trace ** 2 / m.det
        assert abs(t2 - ref) < 1e-6
        assert abs(t2.imag) < 1e-12


def test_fixed_points_of_sides(result):
    p = result.params
    rho = fixed_point_radius(p)
    assert abs(rho - (p.a - math.sqrt(p.a * p.a - 1.0))) < 1e-15
    for th, s, fp in zip(p.thetas, result.side_transforms, result.fixed_points):
        assert abs(fp - rho * cmath.exp(1j * th)) < 1e-12
        assert abs(apply(s, fp) - fp) < 1e-12


def test_half_turn_recovers_sides(result):
    for s, fp in zip(result.side_transforms, result.fixed_points):
        h = half_turn(fp)
        assert projective_distance(normalize(h), normalize(s)) < 1e-7


def test_verification_classes(result):
    rep = result.verification
    assert rep.all_sides_involutive
    assert rep.side_involution_residual < 1e-9
    n = result.params.degree
    if n < 8:
        assert all(c is TransformClass.HYPERBOLIC for c in rep.classes)
        assert rep.identity_indices == ()
        assert rep.duplicate_pairs == ()
    else:
        assert rep.identity_indices == (5,)
        assert rep.duplicate_pairs == ((2, 6), (3, 7), (4, 8))
        for lbl, cls in zip(result.generator_labels, rep.classes):
            want = TransformClass.IDENTITY if lbl == 5 else TransformClass.HYPERBOLIC
            assert cls is want


def test_degree8_degeneracy_values():
    res = uniformize(curve_from_degree(8))
    gens = dict(zip(res.generator_labels, res.generators_normalized))
    assert is_projectively_identity(gens[5])
    for r1, r2 in ((2, 6), (3, 7), (4, 8)):
        assert projective_distance(gens[r1], gens[r2]) < 1e-9


def test_duplicate_tolerance_is_respected():
    res = uniformize(curve_from_degree(8), duplicate_tol=1e-30)
    assert res.verification.duplicate_pairs == ()
    assert res.verification.identity_indices == (5,)


def test_relation_residuals(result):
    n = result.params.degree
    rep = result.verification
    assert set(rep.relation_residuals) == set(PRESENTATION_WORDS[n])
    for value in rep.relation_residuals.values():
        assert math.isfinite(value)
    # rerun: the computation is deterministic
    again = uniformize(curve_from_degree(n)).verification.relation_residuals
    assert again == rep.relation_residuals


def test_relation_residual_magnitudes():
    # degrees 5, 7, 8: the printed relation words evaluate to the identity.
    # Degree 6: both printed words miss by an O(1) amount; recorded as is.
    r5 = uniformize(curve_from_degree(5)).verification.relation_residuals
    assert r5["gamma8"] < 1e-10
    r6 = uniformize(curve_from_degree(6)).verification.relation_residuals
    assert 1.0 < r6["gamma10_a"] < 10.0
    assert 1.0 < r6["gamma10_b"] < 10.0
    r7 = uniformize(curve_from_degree(7)).verification.relation_residuals
    assert r7["gamma12"] < 1e-10
    r8 = uniformize(curve_from_degree(8)).verification.relation_residuals
    assert r8["gamma14_a"] < 1e-10 and r8["gamma14_b"] < 1e-10


def test_alternate_base():
    res = uniformize(curve_from_degree(5), base=2)
    assert res.base_index == 2
    assert res.generator_labels == (1, 3, 4, 5)
    sides = res.side_transforms
    for lbl, m in zip(res.generator_labels, res.generators_raw):
        ref = compose(sides[1], sides[lbl - 1])
        assert projective_distance(m, ref) < 1e-12
    with pytest.raises(IndexOutOfRange):
        uniformize(curve_from_degree(5), base=0)
    with pytest.raises(IndexOutOfRange):
        uniformize(curve_from_degree(5), base=6)


def test_component_functions_match_pipeline():
    c = curve_from_degree(6)
    p = mursi_parameters(c)
    res = uniformize(c)
    assert tuple(side_transformations(p)) == res.side_transforms
    assert tuple(generator_labels(p)) == res.generator_labels
    assert tuple(group_generators(p)) == res.generators_raw


def test_normalize_output_selects_generators():
    raw = uniformize(curve_from_degree(6))
    norm = uniformize(curve_from_degree(6), normalize_output=True)
    assert raw.generators == raw.generators_raw
    assert norm.generators == norm.generators_normalized
    assert not raw.normalized_output and norm.normalized_output


def test_area_and_tessellation(result):
    p = result.params
    assert abs(result.area - 4 * math.pi * (p.genus - 1)) < 1e-9
    expected = {5: (8, 8), 6: (10, 5), 7: (12, 12), 8: (14, 7)}[p.degree]
    assert (result.tessellation.p, result.tessellation.q) == expected


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _short_words(gens, length):
    """{word: matrix} for every word of length 1..length in the det-1
    4-tuples gens and their inverses with no letter next to its inverse;
    a letter (i, s) is gens[i] to the power s = +-1."""
    letters = {}
    for i, (a, b, c, d) in enumerate(gens):
        letters[i, 1], letters[i, -1] = (a, b, c, d), (d, -b, -c, a)
    words = {(letter,): m for letter, m in letters.items()}
    frontier = dict(words)
    for _ in range(length - 1):
        frontier = {word + (letter,): _mul(m, letters[letter])
                    for word, m in frontier.items() for letter in letters
                    if letter != (word[-1][0], -word[-1][1])}
        words.update(frontier)
    return words


# {order: number of words} of the elliptic words of length <= 3 in the
# printed T_i = M_1 M_{i+1}; a surface group has none, and `verify` does
# not test for them
TORSION = {5: {}, 6: {}, 7: {7: 96}, 8: {2: 96}}


def test_torsion_of_the_printed_generators(result):
    n = result.params.degree
    words = _short_words([(m.a, m.b, m.c, m.d) for m in result.generators_normalized], 3)
    orders = collections.Counter()
    for a, _, _, d in words.values():
        if abs(a + d) < 2 - 1e-9:
            order = math.pi / math.acos(abs(a + d) / 2)
            assert abs(order - round(order)) < 1e-9
            orders[round(order)] += 1
    assert orders == TORSION[n]
    if n == 7:  # T1 T3 T2^-1, the witness the README names
        a, _, _, d = words[(0, 1), (2, 1), (1, -1)]
        assert abs(abs(a + d) - 2 * math.cos(math.pi / 7)) < 1e-12
