"""Byte pins for the ODE documents.

The sha256 of the stdout of every `ode` call in the benchmark's CLI menu, at
the default precision and at --precision 17, and of the precision-17 JSON of
the Whittaker equation of each integer-root curve polynomial.  Any change to
a printed coefficient, location, kind or verdict, down to the last digit
the CLI prints, shows here.  The Whittaker pins hold digits of numerically
found roots, so they are tied to the numpy/LAPACK build as well; besides the
integer-root curves they cover seeded f with complex roots and a complex
leading coefficient, the shape of the benchmark's separated-roots entries.  A
printed polynomial keeps every coefficient it was built with, so its length
is its degree plus one, however large its coefficients are.  One more pin
holds the repr of every classification over seeded cycles of the
benchmark's ODE mix, so the order, locations and kinds of the singular
points stay as they are, bit for bit.
"""

import cmath
import hashlib
import json
import math
import random

import pytest

from fuchsian.cli import run
from fuchsian.curves import Poly, curve_from_degree, expand_poly, integer_roots
from fuchsian.fode import (
    curve_ode,
    is_fuchsian,
    named_equation,
    singular_points,
    whittaker_equation,
)
from fuchsian.report import canonical_json, ode_report

# `ode` argv of the benchmark's CLI menu; both precisions print the same bytes
CLI_PINS = {
    "ode build --degree 5":
        "f2320abc53d520ff0f854aafd1a28d0ed3e09a78428bd8dec0bb4ba7a81185fd",
    "ode build --degree 6":
        "4d2590efa020aab893d3c25ba00b571a376ad35bc36df2491a0a1e2ba8a0b205",
    "ode build --degree 7":
        "e639fc4670b444f76474aa1b3cd216b951277b283a6e8ebd0f3db718a49957f0",
    "ode build --degree 8":
        "174a85d642ffd981aa0bd4c6023c43afc7fd1ba73fd969f609515a58e35ef3c3",
    "ode build --degree 7 --k1 0.5,0.25":
        "fe6ab773c6a2c5b0fbd1c65094f114f4b8f422f7c7b54ba0a49b49e304bb964e",
    "ode build --degree 6 --k2 0,1":
        "20f3c1b7fad155abc99536f1077538017acfcb51847629f75f36776a90085e46",
    "ode classify --named Legendre --params 0.5":
        "8658004e2f92a2ccab28b3e85d5ca3128c42a8680d0c54784224534992b13395",
    "ode classify --named Tchebychev --params 2,0.5":
        "72d6c871ae729f7cfaadd7308b6c5a88b71f747f00098af474e1a931f8edfed2",
    "ode classify --named Heun --params 1 2 3 4 5 2,1 0.5":
        "a3be9afdb3c8358b1b492a11bacd8684f3e28ed0dc3397d3706973291120db0b",
    "ode classify --named Hypergeometric --params 0.5 0.25 1.5":
        "435113713b804e2d66e6af49548b0be3df2ff85798c1d1791916da1f3fe63bf3",
    "ode classify --named WhittakerHypergeometric":
        "b9b8ac15409868d35ab8c5cfbd5d02d4774a0eaa61d40e3d86ce08bdaed6e898",
}

# canonical_json(ode_report(whittaker_equation(pinned_f(key))), 17)
WHITTAKER_PINS = {
    5: "e379b6cdca8bd8991c4e4568c1c82e50b5d416977201fcc9509df3e81fcd865e",
    6: "943bc23194374186454886ca10eca069b00c1cbf20d60dfb6eb40ac24e6bd038",
    7: "d634a8edb206132c6d6e523809a3c87348dbe2b044ab89b0c5290684f1dcf1d4",
    8: "cd5b93433279ee41df1a40ac3dfdd1a1c94b583278a589f141883ab310d69b9c",
    "complex-5":
        "fe36ce1e2f2c73c491a5ea758080f7b408cb2b6453feb99cced20163b066ad5d",
    "complex-6":
        "7fe01eac5aa1f0640e5c2b98dc8a547e96d2eefec5a3835caa1015c1fe074f76",
    "complex-7":
        "303b36f34cc01cfb5121f4150bf7e80efecb9de9b7af9b4763f4b4c07eb9f493",
    "complex-8":
        "5cdcb06efd9983d24b29aab69af1679e58573ea6c8304077cc42ee050ef559eb",
    "complex-9":
        "0d09d42b55169096cfd0efea0d506f49ee5b0b9f9b2236f36157f16c1b401eb7",
    "complex-10":
        "cac0b5cc5a3528b558e3dfb6a1ca70ec1297a0209d7335a968d99f14de5514a5",
}

# sha256 of the reprs of (singular_points, is_fuchsian), one line per
# equation, over batch_equations(random.Random(seed)) for seeds 0..19
CLASSIFICATION_PIN = "9622ca201accd3a71319a3da8ca53c6759e772010b24fb8d16ff739b45661d7b"


def pinned_f(key):
    """expand_poly(integer_roots(n)) for an int key n; for "complex-n", n
    roots at least 0.5 apart in the disk of radius 2 and a leading
    coefficient of modulus 0.5..2, drawn from random.Random(key)."""
    if isinstance(key, int):
        return expand_poly(integer_roots(key))
    return separated_f(random.Random(key), int(key.split("-")[1]))


def _unit_scale(rng):
    return cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))


def separated_f(rng, n):
    """n roots at least 0.5 apart in the disk of radius 2, then a leading
    coefficient of modulus 0.5..2, drawn from rng."""
    roots = []
    while len(roots) < n:
        z = cmath.rect(2.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
        if all(abs(z - r) >= 0.5 for r in roots):
            roots.append(z)
    return expand_poly(roots).scaled(_unit_scale(rng))


def batch_equations(rng):
    """One cycle of the benchmark's ODE mix, parameters drawn from rng: each
    curve equation with k1 = k2 = 0 and with drawn k1, k2; every catalog
    equation; the Whittaker equation of each integer-root curve polynomial
    and of a separated-root f of each degree 5..10."""
    c = lambda: _unit_scale(rng)  # noqa: E731
    for n in range(5, 9):
        yield curve_ode(curve_from_degree(n))
        yield curve_ode(curve_from_degree(n), c(), c())
    a = 0.5 + cmath.rect(2.0, rng.uniform(0.0, 2.0 * math.pi))  # |a|, |a - 1| >= 1.5
    yield named_equation("Legendre", [c()])
    yield named_equation("Tchebychev", [c()])
    yield named_equation("Heun", [c(), c(), c(), c(), c(), a, c()])
    yield named_equation("Hypergeometric", [c(), c(), c()])
    yield named_equation("WhittakerHypergeometric")
    for n in range(5, 9):
        yield whittaker_equation(pinned_f(n))
    for n in range(5, 11):
        yield whittaker_equation(separated_f(rng, n))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_batch_classification_is_pinned():
    text = "\n".join(repr((singular_points(ode), is_fuchsian(ode)))
                     for seed in range(20) for ode in batch_equations(random.Random(seed)))
    assert sha256(text) == CLASSIFICATION_PIN


@pytest.mark.parametrize("precision", [[], ["--precision", "17"]], ids=["default", "17"])
@pytest.mark.parametrize("command", CLI_PINS)
def test_ode_cli_output_is_pinned(capsys, command, precision):
    assert run(command.split() + precision) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha256(captured.out) == CLI_PINS[command], captured.out


@pytest.mark.parametrize("n", WHITTAKER_PINS)
def test_whittaker_document_is_pinned(n):
    text = canonical_json(ode_report(whittaker_equation(pinned_f(n))), 17)
    assert sha256(text) == WHITTAKER_PINS[n], text


def test_printed_denominators_keep_their_degree(capsys):
    # z(z - 1)(z - a) with a = 1e12: the leading 1 is far below the other two
    assert run("ode classify --named Heun --params 0 2 1 0.5 0.45 1e12 0".split()) == 0
    assert len(json.loads(capsys.readouterr().out)["p1"]["denominator"]) == 4
    # a double pole at each root of f: 2n + 1 coefficients; N has degree
    # 2n - 2 for odd n, and for even n its top two coefficients are 0; f has
    # integer_roots's n consecutive integers, which it gives only for n <= 8
    for n in range(5, 16):
        lo = -((n - 1) // 2)
        p2 = ode_report(whittaker_equation(expand_poly(range(lo, lo + n))))["p2"]
        assert len(p2["denominator"]) == 2 * n + 1, n
        assert len(p2["numerator"]) == (2 * n - 1 if n % 2 else 2 * n - 3), n
    # f = z^5 - 3.2e11 is taken as given: N = (3/16)(z^8 + 24 * 3.2e11 z^3)
    p2 = ode_report(whittaker_equation(Poly((-3.2e11, 0, 0, 0, 0, 1))))["p2"]
    assert p2["numerator"] == [0, 0, 0, 1.44e12, 0, 0, 0, 0, 0.1875]
