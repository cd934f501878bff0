"""Correctness checks for benchmark ops, kept apart from the timing code.

Uniformize output is checked against references stored with the benchmark:
the paper payload of a report (parameters, side and generator matrices,
fixed points, tessellation, area, topology and generator classes) must
render byte-identically.  Relation residuals, the verify text, the schema
version and any new report block are deliberately not compared, since
planned correctness and observability work changes them.

ODE ops are checked against expectations derived from their own input: the
finite singular points are the constructed poles, every one of them a
regular singular point, and the kind at infinity follows from the degrees of
the coefficients (see `OdeCase`).
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass

REFERENCES = pathlib.Path(__file__).resolve().parent / "references.json"
PAYLOAD_KEYS = ("parameters", "matrices", "fixed_points", "tessellation",
                "area", "topology")
POLE_TOL = 1e-9
# CLI documents round to 7 significant digits
CLI_POLE_TOL = 1e-6

REGULAR = "RegularSingular"
IRREGULAR = "IrregularSingular"
ORDINARY = "Ordinary"


def load_references():
    return json.loads(REFERENCES.read_text())


def uniformize_key(degree, sign, base, normalized) -> str:
    return f"{degree} {sign:+d} {base} {'normalized' if normalized else 'raw'}"


def render(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def paper_payload(doc: dict) -> str:
    """The compared part of a parsed uniformize report, rendered canonically."""
    payload = {k: doc[k] for k in PAYLOAD_KEYS}
    payload["classes"] = doc["verification"]["classes"]
    return render(payload)


def payload_matches(text: str, reference: str) -> bool:
    try:
        return paper_payload(json.loads(text)) == reference
    except (ValueError, KeyError, TypeError):
        return False


@dataclass(frozen=True)
class OdeCase:
    """One generated equation and what its classification must be.

    `poles` are the finite points at which the construction puts a pole;
    each must be found within POLE_TOL and be regular singular.  Infinity is
    regular singular for the catalog and Whittaker equations, ordinary for
    the bare curve equation 2/(z - s), and irregular once k1 or k2 is
    nonzero (p1 -> k1 or p2 = k2 gives a pole of order 2 resp. 4 at w = 0).
    """

    kind: str  # curve_ode | named | whittaker
    args: tuple
    poles: tuple
    at_infinity: str

    @property
    def fuchsian(self) -> bool:
        return self.at_infinity != IRREGULAR


def _poles_match(found, expected, tol) -> bool:
    if len(found) != len(expected):
        return False
    left = list(found)
    for z in expected:
        best = min(range(len(left)), key=lambda i: abs(left[i] - z))
        if abs(left[best] - z) > tol * (1.0 + abs(z)):
            return False
        left.pop(best)
    return True


def ode_matches(case: OdeCase, points, fuchsian, tol=POLE_TOL) -> bool:
    """points: [(location or None for infinity, kind string)], infinity last."""
    if not points or points[-1][0] is not None or fuchsian is not case.fuchsian:
        return False
    finite = points[:-1]
    return (points[-1][1] == case.at_infinity
            and all(kind == REGULAR for _, kind in finite)
            and _poles_match([z for z, _ in finite], case.poles, tol))


def library_points(points):
    """fode.singular_points output in the (location, kind) form above."""
    return [(None if not isinstance(p.location, complex) else p.location,
             str(p.kind)) for p in points]


def cli_points(doc):
    out = []
    for entry in doc["singular_points"]:
        loc = entry["location"]
        out.append((None if loc == "infinity" else complex(*loc), entry["kind"]))
    return out


def genus_range_text(m: int, n: int) -> str:
    """Independent oracle for `genus-range`."""
    return (f"g_min={math.ceil((m - 2) * (n - 2) / 4)} "
            f"g_max={(m - 1) * (n - 1) // 2}\n")
