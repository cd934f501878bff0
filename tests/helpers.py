"""Shared test utilities: reference-table loading, numeric parsing and the
reference JSON encoder."""

import json
import pathlib
from fractions import Fraction

from fuchsian.report import round_sig

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


def _walk(obj, precision):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, complex):
        return [round_sig(obj.real, precision), round_sig(obj.imag, precision)]
    if isinstance(obj, float):
        return round_sig(obj, precision)
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
