import dataclasses
import json
import math
import sys
from collections import OrderedDict, namedtuple
from enum import Enum, IntEnum
from fractions import Fraction

import pytest

from fuchsian import cli
from fuchsian.curves import curve_from_degree
from fuchsian.hyperbolic import Tessellation, half_turn, tessellation_topology
from fuchsian.report import (
    CHECK_TOL,
    canonical_json,
    round_sig,
    uniformization_report,
    verification_checks,
)
from fuchsian.uniformize import uniformize, verify_generators

from helpers import oracle_json


def test_round_sig():
    assert round_sig(1.23456789, 3) == 1.23
    assert round_sig(-1.23456789e-7, 4) == -1.235e-7
    assert round_sig(0.0, 5) == 0.0
    assert round_sig(123456.0, 2) == 120000.0


def test_canonical_json_scalar_handling():
    doc = {
        "z": 1.5 - 0.25j,
        "frac": Fraction(2, 7),
        "flag": True,
        "n": 3,
        "xs": [0.1234567891, 2],
    }
    text = canonical_json(doc, 7)
    parsed = json.loads(text)
    assert parsed["z"] == [1.5, -0.25]
    assert parsed["frac"] == [2, 7]
    assert parsed["flag"] is True   # bool survives, not coerced to a float
    assert parsed["n"] == 3
    assert parsed["xs"][0] == 0.1234568


def test_canonical_json_idempotent():
    res = uniformize(curve_from_degree(7))
    doc = uniformization_report(curve_from_degree(7), res)
    text = canonical_json(doc, 7)
    assert canonical_json(json.loads(text), 7) == text
    # keys come out sorted
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


def test_uniformization_report_contents():
    c = curve_from_degree(5)
    res = uniformize(c)
    doc = uniformization_report(
        c, res,
        topology=tessellation_topology(Tessellation(8, 8)),
    )
    assert doc["curve"] == {"degree": 5, "sign": -1, "genus": 2, "parity": "odd"}
    assert doc["convention"] == "raw"
    assert doc["parameters"]["alpha"] == Fraction(1, 5)
    assert abs(doc["parameters"]["fixed_point_radius"] - 0.4858683) < 1e-6
    assert set(doc["matrices"]["generators"]) == {"S1S2", "S1S3", "S1S4", "S1S5"}
    assert set(doc["matrices"]["sides"]) == {"S1", "S2", "S3", "S4", "S5"}
    m = doc["matrices"]["generators"]["S1S2"]
    assert len(m) == 2 and len(m[0]) == 2
    assert doc["tessellation"] == {"p": 8, "q": 8}
    assert abs(doc["area"] - 4 * math.pi) < 1e-9
    assert doc["topology"]["genus"] == 2
    assert doc["verification"]["all_sides_involutive"] is True
    assert doc["verification"]["classes"] == ["Hyperbolic"] * 4
    assert "gamma8" in doc["verification"]["relation_residuals"]


def _verified(res, **matrices):
    """res with the given matrix fields replaced and its verification redone."""
    moved = dataclasses.replace(res, **matrices)
    return dataclasses.replace(moved, verification=verify_generators(moved))


def test_verification_checks_hold_every_residual_to_check_tol():
    assert CHECK_TOL == 1e-9
    res = uniformize(curve_from_degree(7))
    for residual, passes in ((CHECK_TOL / 2, True), (CHECK_TOL, False)):
        moved = dataclasses.replace(res.verification, side_involution_residual=residual,
                                    relation_residuals={"gamma12": residual})
        ok = {name: ok for name, ok, _ in verification_checks(
            dataclasses.replace(res, verification=moved))}
        assert ok["side involutions"] is ok["relation gamma12"] is passes

    # every record reads a matrix: each one that passes fails once a side or
    # a generator moves
    for n in (5, 6, 7, 8):
        res = uniformize(curve_from_degree(n))
        sides = list(res.side_transforms)
        sides[0] = dataclasses.replace(sides[0], d=sides[0].d + 1e-6)
        gens = list(res.generators_normalized)
        i = next(i for i, r in enumerate(res.generator_labels)
                 if r not in res.verification.identity_indices)
        gens[i] = half_turn(0.3)
        perturbed = [verification_checks(_verified(res, side_transforms=tuple(sides))),
                     verification_checks(_verified(res, generators_normalized=tuple(gens)))]
        for k, (name, ok, _) in enumerate(verification_checks(res)):
            assert name in ("side involutions", "generators hyperbolic") or (
                name.startswith("relation ")), name
            assert [checks[k][0] for checks in perturbed] == [name, name]
            if ok:
                assert not all(checks[k][1] for checks in perturbed), (n, name)


def test_report_normalized_convention():
    c = curve_from_degree(8)
    res = uniformize(c, normalize_output=True)
    doc = uniformization_report(c, res)
    assert doc["convention"] == "normalized"
    assert doc["verification"]["identity_indices"] == [5]
    assert doc["verification"]["duplicate_pairs"] == [[2, 6], [3, 7], [4, 8]]


def test_canonical_json_matches_oracle_on_every_report():
    for n in (5, 6, 7, 8):
        for sign in (-1, 1):
            curve = curve_from_degree(n, sign)
            for base in range(1, n + 1):
                for normalized in (False, True):
                    res = uniformize(curve, normalize_output=normalized, base=base)
                    doc = uniformization_report(
                        curve, res, topology=tessellation_topology(res.tessellation))
                    assert canonical_json(doc) == oracle_json(doc)


@pytest.mark.parametrize("argv", [
    ["tessellation", "--degree", "6"],
    ["tessellation", "--pq", "3,5"],  # spherical: area and topology are null
    ["tessellation", "--pq", "9,3"],
    ["tessellation", "--pq", "4,4", "--precision", "3"],
    ["ode", "build", "--degree", "5"],
    ["ode", "build", "--degree", "7", "--k1", "0.5,0.25", "--k2=-1,2"],
    ["ode", "classify", "--named", "Heun", "--params",
     "1", "2", "3", "4", "5", "2,1", "0.5", "--precision", "15"],
    ["ode", "classify", "--named", "legendre", "--params", "2"],
    ["uniformize", "--degree", "8", "--normalize"],
])
def test_canonical_json_matches_oracle_on_cli_documents(monkeypatch, capsys, argv):
    docs = []  # what the CLI hands to canonical_json

    def record(doc, precision=7):
        docs.append((doc, precision))
        return canonical_json(doc, precision)

    monkeypatch.setattr(cli, "canonical_json", record)
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert len(docs) == 1
    doc, precision = docs[0]
    assert canonical_json(doc, precision) == oracle_json(doc, precision)


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class _Tag(str, Enum):
    A = "a"


class _Float(float):
    pass


_Pair = namedtuple("_Pair", "re im")

EDGE_DOC = {
    "empty_dict": {},
    "empty_list": [],
    "nested_empty": {"a": [{}, [], [[]]], "b": {"c": {}}, "t": ()},
    "same_str_key": {1: "int one", "1": "str one"},
    "specials": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -2.5e300],
    "complex": [complex(-0.0, math.nan), 1 / 3 + 2j, complex(math.inf, -1e-9)],
    "fractions": [Fraction(-3, 7), Fraction(5), Fraction(0)],
    "bools": [True, False, None, 0, 1, -12345678901234567890],
    "text": "héllo ✓ \"quoted\"\n\ttab \U0001d11e",
    3: "int key",
    "3.5": 3.5,
    (1, 2): "tuple key",
    None: "none key",
    "pi": math.pi,
    # subnormal, or rounded to a subnormal at precision 1: the .Ng text is not the repr
    "tiny": [5e-324, -1e-310, 7.1195e-320, sys.float_info.min, -sys.float_info.min],
    # round up to a power of ten: 1e+07 (printed as the repr) and 0.0001
    "round_up": [9.9999995e6, 0.000099999995, -9.9999995e6],
    # integer-valued: the .Ng text lacks the ".0" or has an "e+" exponent
    "integral": [3.0, -3.0, 1e15, 1e16, 123456.0],
    "subclasses": [_Level.LOW, _Float(0.1), _Tag.A, _Pair(_Float(1e-7), _Level.HIGH),
                   OrderedDict([("b", _Float(2.5)), ("a", 0.1)])],
    _Tag.A: "str enum key",
}


@pytest.mark.parametrize("precision", [1, 3, 7, 15, 16, 17])
def test_canonical_json_matches_oracle_on_edge_values(precision):
    assert canonical_json(EDGE_DOC, precision) == oracle_json(EDGE_DOC, precision)
    for leaf in ([], {}, (), "", "ü", None, True, 7, -0.0, math.nan, 2 - 1j,
                 Fraction(1, 3), 0.1, 5e-324, _Float(1 / 3), _Level.HIGH):
        assert canonical_json(leaf, precision) == oracle_json(leaf, precision)


def test_canonical_json_rejects_unknown_types():
    for bad in (object(), {1, 2}, b"bytes", {"k": [range(3)]}):
        with pytest.raises(TypeError):
            oracle_json(bad)
        with pytest.raises(TypeError):
            canonical_json(bad)
