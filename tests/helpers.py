"""Shared test utilities: reference-table loading, numeric parsing, the
reference JSON encoder and a reference classification of singular points."""

import json
import math
import pathlib
from fractions import Fraction

from fuchsian.fode import PointClass, PointKind
from fuchsian.moebius import INFINITY

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"


def parse_printed(text):
    """Parse one printed numeric field; accepts Fortran D exponents."""
    return float(text.strip().replace("D", "E").replace("d", "e"))


def parse_entry(pair):
    return complex(parse_printed(pair[0]), parse_printed(pair[1]))


def load_golden(name):
    doc = json.loads((GOLDEN_DIR / name).read_text())
    matrices = {label: tuple(parse_entry(e) for e in rows)
                for label, rows in doc["matrices"].items()}
    return doc, matrices


def golden_matrices(degree, convention):
    _, matrices = load_golden(f"degree{degree}_{convention}.json")
    return matrices


def max_table_deviation(degree, convention, generators, labels, base=1):
    """Largest per-entry absolute deviation of computed matrices from a table."""
    table = golden_matrices(degree, convention)
    worst = 0.0
    for lbl, m in zip(labels, generators):
        ref = table[f"S{base}S{lbl}"]
        got = (m.a, m.b, m.c, m.d)
        worst = max(worst, max(abs(g - r) for g, r in zip(got, ref)))
    return worst


def _round(x, precision):
    """x to `precision` significant digits, an exact zero as 0.0; restated
    here so that the encoder oracle shares no code with the report module."""
    return float(f"{x:.{precision}g}") if x else 0.0


def _walk(obj, precision):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, complex):
        return [_round(obj.real, precision), _round(obj.imag, precision)]
    if isinstance(obj, float):
        return _round(obj, precision)
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, dict):
        return {str(k): _walk(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_walk(v, precision) for v in obj]
    return obj


def oracle_json(obj, precision=7):
    """Reference for canonical_json: a rounded copy through the stdlib encoder."""
    return json.dumps(_walk(obj, precision), sort_keys=True, indent=2)


# --- reference classification -------------------------------------------------
# The classification restated the plain way: every pole scanned once per
# point, every pole of p1 and p2 deduplicated in turn, and infinity read
# from degrees and p1's residue there.


def reference_pole_order(rf, point):
    """Number of denominator roots equal to point."""
    if rf.is_zero:
        return 0
    return sum(1 for r in rf.den_roots if r == point)


def reference_infinity_orders(ode):
    """Pole orders at w = 0 of P1 = 2/w - p1(1/w)/w^2 and P2 = p2(1/w)/w^4."""
    p1, p2 = ode.p1, ode.p2
    o2 = 0 if p2.is_zero else max(0, p2.num.degree + 4 - len(p2.den_roots))
    if p1.is_zero:
        return 1, o2
    e1 = len(p1.den_roots) - p1.num.degree - 2
    if e1 >= 0:
        return 1, o2
    if e1 < -1:
        return -e1, o2
    return reference_infinity_pole(p1), o2


def reference_infinity_pole(p1):
    """1 if P1 keeps its simple pole at infinity when deg den - deg num = 1.
    There p1 ~ r/z with r = num lead / den_lead, so P1 ~ (2 - r)/w, and the
    pole goes only when num lead is exactly 2 den_lead: every part finite and
    equal as an exact rational (so a doubled lead past the float range keeps it)."""
    lead, top = complex(p1.den_lead), complex(p1.num.coeffs[-1])
    parts = (lead.real, lead.imag, top.real, top.imag)
    if not all(map(math.isfinite, parts)):
        return 1
    lr, li, tr, ti = map(Fraction, parts)
    return 0 if (2 * lr, 2 * li) == (tr, ti) else 1


def reference_kind(o1, o2):
    if o1 == 0 and o2 == 0:
        return PointKind.ORDINARY
    if o1 <= 1 and o2 <= 2:
        return PointKind.REGULAR_SINGULAR
    return PointKind.IRREGULAR_SINGULAR


def reference_singular_points(ode):
    """Finite poles of p1 then p2, deduplicated by == in order (the first
    seen stays) and sorted, plus infinity, each classified from its pole
    orders."""
    finite = []
    for r in ode.p1.den_roots + ode.p2.den_roots:
        if r not in finite:
            finite.append(r)
    finite.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    points = [PointClass(z, reference_kind(reference_pole_order(ode.p1, z),
                                           reference_pole_order(ode.p2, z)))
              for z in finite]
    return points + [PointClass(INFINITY, reference_kind(*reference_infinity_orders(ode)))]
