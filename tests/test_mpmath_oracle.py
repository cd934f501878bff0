"""50-digit oracle for the uniformization data of y^2 = z^n - 1, n = 5..8.

Recomputes a, the side angles, the side matrices M_r and the raw and
normalized generators M_1 M_r from the formulas in the `uniformize` module
docstring, in mpmath at 50 significant digits, and pins the float64 error
of every matrix the library computes, as its largest entry error over its
largest entry.  The published tables deviate from the library by 1.7e-6,
8.7e-6 and 3.1e-6 (see README); an error near 1e-15 here places those
deviations in the tables.
"""

import math

import pytest

mpmath = pytest.importorskip("mpmath")

from fuchsian.curves import curve_from_degree
from fuchsian.uniformize import uniformize

from helpers import golden_matrices, max_table_deviation

DIGITS = 50
# measured at most 2.2e-15 (degree 6, normalized); in absolute terms that
# entry is off by 1.4e-14, as dividing by sqrt(det) with a^2 - 1 = 0.37
# scales up the rounding of the raw determinant
FLOAT64_ERROR_BOUND = 1e-14


def exact_data(n, genus):
    """a, thetas, side matrices, raw and normalized generators in mpmath."""
    mp = mpmath.mp
    alpha = mpmath.mpf(genus - 1) / n
    a = (2 * mpmath.cos(mp.pi * alpha) - 1) ** mpmath.mpf(-0.5)
    thetas = [(4 * (r - 1) + 1) * mp.pi * alpha / 2 for r in range(1, n + 1)]
    sides = []
    for th in thetas:
        e = mpmath.expj(th)
        sides.append((a, -e, mpmath.conj(e), -a))
    m1 = sides[0]
    raw = [(m1[0] * m[0] + m1[1] * m[2], m1[0] * m[1] + m1[1] * m[3],
            m1[2] * m[0] + m1[3] * m[2], m1[2] * m[1] + m1[3] * m[3])
           for m in sides[1:]]
    # det M_1 M_r = (1 - a^2)^2, whose principal square root is a^2 - 1
    normalized = [tuple(x / (a * a - 1) for x in m) for m in raw]
    return a, thetas, sides, raw, normalized


def entries(m):
    return (m.a, m.b, m.c, m.d)


def max_error(got, want):
    """Largest entry error over the largest exact entry."""
    return float(max(abs(mpmath.mpc(g) - w) for g, w in zip(got, want))
                 / max(abs(w) for w in want))


@pytest.fixture(scope="module")
def errors():
    """{degree: {quantity: largest relative float64 error}} for sign minus,
    base 1; a matrix quantity takes the worst of its matrices."""
    out = {}
    with mpmath.workdps(DIGITS):
        for n in range(5, 9):
            result = uniformize(curve_from_degree(n, -1), base=1)
            a, thetas, sides, raw, normalized = exact_data(n, result.params.genus)
            matrices = {"sides": (result.side_transforms, sides),
                        "raw": (result.generators_raw, raw),
                        "normalized": (result.generators_normalized, normalized)}
            out[n] = {"a": max_error([result.params.a], [a]),
                      "thetas": max_error(result.params.thetas, thetas)}
            for name, (got, want) in matrices.items():
                out[n][name] = max(max_error(entries(m), w) for m, w in zip(got, want))
    return out


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_float64_data_matches_fifty_digits(errors, n):
    assert max(errors[n].values()) <= FLOAT64_ERROR_BOUND, errors[n]


@pytest.mark.parametrize("n, convention, published", [
    (5, "raw", 1.7e-6), (5, "normalized", 8.7e-6), (6, "normalized", 3.1e-6)])
def test_published_deviations_are_in_the_tables(n, convention, published):
    # the 50-digit values sit as far from the table as the library does
    result = uniformize(curve_from_degree(n, -1), base=1)
    generators = (result.generators_raw if convention == "raw"
                  else result.generators_normalized)
    library = max_table_deviation(n, convention, generators, result.generator_labels)
    table = golden_matrices(n, convention)
    with mpmath.workdps(DIGITS):
        _, _, _, raw, normalized = exact_data(n, result.params.genus)
        exact = raw if convention == "raw" else normalized
        oracle = max(float(abs(mpmath.mpc(t) - w))
                     for r, m in zip(result.generator_labels, exact)
                     for t, w in zip(table[f"S1S{r}"], m))
    assert round(oracle, 7) == published
    # the library moves the deviation by its own float64 error, 8 digits down
    assert math.isclose(oracle, library, rel_tol=1e-7)
