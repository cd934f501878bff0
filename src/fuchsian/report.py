"""Report documents and canonical serialization.

Complex numbers serialize as [re, im] pairs, exact rationals as [num, den]
integer pairs.  Floats are rounded to a configurable number of significant
digits before JSON encoding; since rounding is idempotent, parsing the
output and re-serializing it reproduces the bytes exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .curves import CurveSpec
from .uniformize import UniformizationResult, fixed_point_radius

SCHEMA_VERSION = "1"
DEFAULT_PRECISION = 7
_INDENT = "  "


def round_sig(x: float, precision: int = DEFAULT_PRECISION) -> float:
    """Round to `precision` significant digits; exact zero stays 0.0."""
    if x == 0:
        return 0.0
    return float(f"{x:.{precision}g}")


def _float_text(x: float, precision: int) -> str:
    x = round_sig(x, precision)
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode_items(items, precision: int, newline: str, out: list) -> None:
    if not items:
        out.append("[]")
        return
    inner = newline + _INDENT
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _encode(item, precision, inner, out)
        sep = "," + inner
    out.append(newline + "]")


def _encode(obj, precision: int, newline: str, out: list) -> None:
    """Append the JSON text of obj; newline is a line break plus the current indent."""
    # bool is tested before int; the other branches are disjoint types,
    # ordered by how often reports hold them
    if isinstance(obj, float):
        out.append(_float_text(obj, precision))
    elif isinstance(obj, complex):
        inner = newline + _INDENT
        out.append(f"[{inner}{_float_text(obj.real, precision)},"
                   f"{inner}{_float_text(obj.imag, precision)}{newline}]")
    elif isinstance(obj, (list, tuple)):
        _encode_items(obj, precision, newline, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        # later keys win when two keys have the same str, as in a dict display
        doc = {str(k): v for k, v in obj.items()}
        inner = newline + _INDENT
        sep = "{" + inner
        for key in sorted(doc):
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _encode(doc[key], precision, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, Fraction):
        _encode_items((obj.numerator, obj.denominator), precision, newline, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj, precision: int = DEFAULT_PRECISION) -> str:
    """Sorted keys, two-space indent, floats pre-rounded.  No trailing newline.

    The bytes equal json.dumps(doc, sort_keys=True, indent=2) of the document
    with every float passed through round_sig, complex numbers as [re, im]
    and fractions as [num, den]; one pass here avoids building that copy and
    the pure-Python encoder an indent selects.
    """
    out = []
    _encode(obj, precision, "\n", out)
    return "".join(out)


def matrix_entry(m) -> list:
    """2x2 nested list of complex entries, ready for canonical_json."""
    return [[m.a, m.b], [m.c, m.d]]


def curve_summary(c: CurveSpec) -> dict:
    return {
        "degree": c.degree,
        "sign": c.sign,
        "genus": c.genus,
        "parity": c.parity.value,
    }


def uniformization_report(curve: CurveSpec, result: UniformizationResult, *,
                          topology=None, genus_range=None) -> dict:
    """Assemble the full pipeline document (plain dicts, unrounded)."""
    params = result.params
    base = result.base_index
    rep = result.verification
    doc = {
        "schema_version": SCHEMA_VERSION,
        "curve": curve_summary(curve),
        "parameters": {
            "alpha": params.alpha,
            "a": params.a,
            "fixed_point_radius": fixed_point_radius(params),
        },
        "base_index": base,
        "convention": "normalized" if result.normalized_output else "raw",
        "matrices": {
            "sides": {f"S{r}": matrix_entry(m)
                      for r, m in enumerate(result.side_transforms, start=1)},
            "generators": {f"S{base}S{r}": matrix_entry(m)
                           for r, m in zip(result.generator_labels,
                                           result.generators)},
        },
        "fixed_points": list(result.fixed_points),
        "tessellation": {"p": result.tessellation.p, "q": result.tessellation.q},
        "area": result.area,
        "verification": {
            "all_sides_involutive": rep.all_sides_involutive,
            "side_involution_residual": rep.side_involution_residual,
            "classes": [str(c) for c in rep.classes],
            "identity_indices": list(rep.identity_indices),
            "duplicate_pairs": [list(p) for p in rep.duplicate_pairs],
            "relation_residuals": dict(rep.relation_residuals),
        },
    }
    if topology is not None:
        doc["topology"] = {"V": topology.V, "E": topology.E, "F": topology.F,
                           "chi": topology.chi, "genus": topology.genus}
    if genus_range is not None:
        doc["genus_range"] = {"g_min": genus_range.g_min,
                              "g_max": genus_range.g_max}
    return doc
