import cmath
import math
import warnings

import numpy as np
import pytest

from fuchsian.curves import (
    Poly,
    _product,
    curve_from_degree,
    expand_poly,
    integer_roots,
    paper_curve,
    tessellation_for_curve,
)
from fuchsian.fode import curve_ode, named_equation, whittaker_equation
from fuchsian.report import canonical_json, uniformization_report, verification_checks
from fuchsian.uniformize import uniformize

# integer-root expansions, coefficients lowest first
EXPANSIONS = {
    5: (0, 4, 0, -5, 0, 1),
    6: (0, -12, 4, 15, -5, -3, 1),
    7: (0, -36, 0, 49, 0, -14, 0, 1),
    8: (0, 144, -36, -196, 49, 56, -14, -4, 1),
}


def test_curve_genus_and_parity():
    expected = {5: (2, "odd"), 6: (2, "even"), 7: (3, "odd"), 8: (3, "even")}
    for n, (g, par) in expected.items():
        c = curve_from_degree(n)
        assert (c.degree, c.genus, c.parity, c.sign) == (n, g, par, -1)


def test_degree_and_sign_validation():
    with pytest.raises(ValueError, match="degree 4 < 5"):
        curve_from_degree(4)
    with pytest.raises(ValueError):
        curve_from_degree(5, 2)


# each consumer whose answer is defined only for the paper's degrees asks
# paper_curve; the library uniformize() itself still accepts 9, 10 and 12
PAPER_ONLY = {
    "paper_curve": paper_curve,
    "curve_ode": lambda n: curve_ode(curve_from_degree(n)),
    "integer_roots": integer_roots,
    "verification_checks": lambda n: verification_checks(uniformize(curve_from_degree(n))),
}


@pytest.mark.parametrize("n", [9, 10, 12])
@pytest.mark.parametrize("consumer", PAPER_ONLY)
def test_consumers_refuse_degrees_above_8(consumer, n):
    with pytest.raises(ValueError, match=rf"^degree {n} not in 5\.\.8$"):
        PAPER_ONLY[consumer](n)


@pytest.mark.parametrize("n, sign", [(5.5, -1), (6.0, -1), (np.float64(6), 1), (5, -1.0)])
def test_degree_and_sign_must_be_integers(n, sign):
    # a float degree would give a float genus, which Fraction refuses in uniformize
    with pytest.raises(ValueError, match="is not an integer"):
        curve_from_degree(n, sign)


def test_numpy_integer_degree_gives_python_ints_that_serialize():
    c = curve_from_degree(np.int64(6), np.int32(1))
    assert c == curve_from_degree(6, 1)
    assert type(c.degree) is int and type(c.sign) is int
    text = canonical_json(uniformization_report(c, uniformize(c)))
    assert '"degree": 6,' in text and '"sign": 1' in text


def test_singularities_are_roots():
    for n in range(5, 9):
        for sign in (-1, 1):
            c = curve_from_degree(n, sign)
            sing = c.singularities
            assert len(sing) == n
            for z in sing:
                # roots of z^n + sign = 0
                assert abs(z ** n + sign) < 1e-12
            # counterclockwise order starting closest to the positive axis
            phases = [cmath.phase(z) % (2 * math.pi) for z in sing]
            assert all(b > a for a, b in zip(phases, phases[1:]))


def test_tessellation_for_curve():
    expected = {5: (8, 8), 6: (10, 5), 7: (12, 12), 8: (14, 7)}
    for n, (p, q) in expected.items():
        t = tessellation_for_curve(curve_from_degree(n))
        assert (t.p, t.q) == (p, q)


def test_tessellation_genus_matches_curve():
    from fuchsian.hyperbolic import tessellation_topology
    for n in range(5, 21):
        c = curve_from_degree(n)
        t = tessellation_topology(tessellation_for_curve(c))
        assert t.genus == c.genus


def test_integer_roots():
    assert integer_roots(5) == [-2, -1, 0, 1, 2]
    assert integer_roots(6) == [-2, -1, 0, 1, 2, 3]
    assert integer_roots(7) == [-3, -2, -1, 0, 1, 2, 3]
    assert integer_roots(8) == [-3, -2, -1, 0, 1, 2, 3, 4]
    assert integer_roots(np.int64(5)) == [-2, -1, 0, 1, 2]
    with pytest.raises(ValueError, match="degree 5.5 is not an integer"):
        integer_roots(5.5)


def test_expansions_exact():
    for n, coeffs in EXPANSIONS.items():
        p = expand_poly(integer_roots(n))
        assert len(p.coeffs) == n + 1
        for got, want in zip(p.coeffs, coeffs):
            assert got == want  # small-integer arithmetic is exact in floats
        for r in integer_roots(n):
            assert p(r) == 0


def test_poly_evaluation():
    rng = np.random.RandomState(41)
    for _ in range(50):
        coeffs = rng.uniform(-2, 2, rng.randint(1, 7))
        p = Poly(tuple(coeffs))
        z = complex(*rng.uniform(-2, 2, 2))
        ref = complex(np.polyval(coeffs[::-1], z))
        assert abs(p(z) - ref) < 1e-9 * max(1.0, abs(ref))


def test_poly_arithmetic():
    p = Poly((1, 2))       # 1 + 2z
    assert p.scaled(2).coeffs == (2, 4)
    assert Poly((0.0,)).is_zero
    assert Poly((1.0,)).degree == 0


def test_poly_product_matches_numpy_convolve():
    rng = np.random.RandomState(42)
    for _ in range(300):
        a, b = (rng.uniform(-1, 1, (rng.randint(1, 21), 2)) @ (1, 1j)
                for _ in range(2))
        got = _product(a, b)
        ref = np.convolve(a, b)
        assert len(got) == len(ref)
        assert np.max(np.abs(np.array(got) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_poly_trailing_zeros_stripped():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == (0,)


def test_poly_roots():
    p = expand_poly([1.0, 2.0])
    roots = sorted(p.roots(), key=lambda z: z.real)
    assert abs(roots[0] - 1) < 1e-9 and abs(roots[1] - 2) < 1e-9
    assert type(p.roots()) is tuple
    assert all(type(r) is complex for r in p.roots())
    assert Poly((3.0,)).roots() == ()


def test_poly_roots_overflow_is_a_value_error():
    # -coeffs / lead overflows to inf and nan in the companion matrix
    p = Poly((1e308 + 1e308j, 1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes either
        with pytest.raises(ValueError, match="root finding failed"):
            p.roots()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 complex(0.0, math.inf), 1.5e308 + 1.5e308j])
def test_coefficient_overflow_is_refused(bad):
    # named_equation refuses a numerator it cannot size (here bad is c, p1's
    # constant term) before any residue is decided, and whittaker_equation an f
    with pytest.raises(ValueError, match="coefficient overflow"):
        named_equation("Hypergeometric", [0.0, 0.0, bad])
    with pytest.raises(ValueError, match="coefficient overflow"):
        whittaker_equation(Poly((-1.0, bad, 0.0, 0.0, 0.0, 1.0)))


def test_curve_spec_is_frozen():
    c = curve_from_degree(5)
    with pytest.raises(AttributeError):
        c.degree = 6
