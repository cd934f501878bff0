"""Report documents, verification checks and canonical serialization.

Every JSON document the CLI prints is built here: the uniformization
report, the tessellation document and the ODE document of `ode build` and
`ode classify`.  So are the check records `verify` prints
(`verification_checks`), whose residuals share the one bound CHECK_TOL.

Complex numbers serialize as [re, im] pairs, exact rationals as [num, den]
integer pairs.  Floats are rounded to a configurable number of significant
digits before JSON encoding; since rounding is idempotent, parsing the
output and re-serializing it reproduces the bytes exactly.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .curves import CurveSpec, paper_curve
from .fode import SecondOrderODE, is_fuchsian, singular_points
from .hyperbolic import (
    NotHyperbolic,
    Tessellation,
    regular_polygon_area,
    tessellation_topology,
)
from .moebius import TransformClass, is_infinity
from .uniformize import UniformizationResult, fixed_point_radius

SCHEMA_VERSION = "1"
DEFAULT_PRECISION = 7
CHECK_TOL = 1e-9
_INDENT = "  "
# Formats of at most DBL_DIG = 15 significant digits.  For a normal float x no
# shorter decimal than format(x, spec) parses to the same double, so that text
# is already repr(round_sig(x)) unless the layouts differ: repr writes "3.0"
# for "3" and "12300.0" for "1.23e+04"
_DIRECT_SPECS = frozenset(f".{p}g" for p in range(1, sys.float_info.dig + 1))
_MIN_NORMAL = sys.float_info.min


def round_sig(x: float, precision: int = DEFAULT_PRECISION) -> float:
    """Round to `precision` significant digits; exact zero stays 0.0."""
    if x == 0:
        return 0.0
    return float(f"{x:.{precision}g}")


def _float_text(x: float, spec: str) -> str:
    """JSON text of round_sig(x, precision), given spec = f".{precision}g"."""
    text = format(x, spec)
    if (abs(x) >= _MIN_NORMAL and "e+" not in text and ("." in text or "e" in text)
            and spec in _DIRECT_SPECS):
        return text
    x = float(text) if x else 0.0  # round_sig
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode_items(items, spec: str, newline: str, out: list) -> None:
    if not items:
        out.append("[]")
        return
    inner = newline + _INDENT
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _encode(item, spec, inner, out)
        sep = "," + inner
    out.append(newline + "]")


def _encode(obj, spec: str, newline: str, out: list) -> None:
    """Append the JSON text of obj; newline is a line break plus the current indent."""
    # bool is tested before int; the other branches are disjoint types,
    # ordered by how often reports hold them
    if isinstance(obj, float):
        out.append(_float_text(obj, spec))
    elif isinstance(obj, complex):
        inner = newline + _INDENT
        out.append(f"[{inner}{_float_text(obj.real, spec)},"
                   f"{inner}{_float_text(obj.imag, spec)}{newline}]")
    elif isinstance(obj, (list, tuple)):
        _encode_items(obj, spec, newline, out)
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
            _encode(doc[key], spec, inner, out)
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
        _encode_items((obj.numerator, obj.denominator), spec, newline, out)
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
    _encode(obj, f".{precision}g", "\n", out)
    return "".join(out)


def _topology_entry(topo) -> dict:
    return {"V": topo.V, "E": topo.E, "F": topo.F, "chi": topo.chi,
            "genus": topo.genus}


def uniformization_report(curve: CurveSpec, result: UniformizationResult, *,
                          topology=None) -> dict:
    """Assemble the full pipeline document (plain dicts, unrounded)."""
    params = result.params
    base = result.base_index
    rep = result.verification
    doc = {
        "schema_version": SCHEMA_VERSION,
        "curve": {
            "degree": curve.degree,
            "sign": curve.sign,
            "genus": curve.genus,
            "parity": curve.parity,
        },
        "parameters": {
            "alpha": params.alpha,
            "a": params.a,
            "fixed_point_radius": fixed_point_radius(params),
        },
        "base_index": base,
        "convention": "normalized" if result.normalized_output else "raw",
        "matrices": {
            "sides": {f"S{r}": [[m.a, m.b], [m.c, m.d]]
                      for r, m in enumerate(result.side_transforms, start=1)},
            "generators": {f"S{base}S{r}": [[m.a, m.b], [m.c, m.d]]
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
        doc["topology"] = _topology_entry(topology)
    return doc


def verification_checks(result: UniformizationResult) -> list:
    """One (name, ok, detail) record per line `verify` prints, in that order.

    Each record reads the matrices: the side-involution residual and every
    relation residual are held to CHECK_TOL, and every generator that is not
    a projective identity must be hyperbolic.
    """
    paper_curve(result.params.degree)  # refused above 8, where no relation is checked
    rep = result.verification
    return [
        ("side involutions", rep.side_involution_residual < CHECK_TOL,
         f"residual {rep.side_involution_residual:.3e}"),
        ("generators hyperbolic",
         all(c is TransformClass.HYPERBOLIC
             for r, c in zip(result.generator_labels, rep.classes)
             if r not in rep.identity_indices),
         ", ".join(str(c) for c in rep.classes)),
    ] + [(f"relation {name}", residual < CHECK_TOL, f"residual {residual:.3e}")
         for name, residual in sorted(rep.relation_residuals.items())]


def tessellation_report(tess: Tessellation) -> dict:
    """The `tessellation` document.  area is null for a spherical {p,q};
    topology is null, with a note, when the sides cannot pair into a surface."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tessellation": {"p": tess.p, "q": tess.q},
        "hyperbolic": tess.is_hyperbolic,
    }
    try:
        doc["area"] = regular_polygon_area(tess)
    except NotHyperbolic:
        doc["area"] = None
    try:
        doc["topology"] = _topology_entry(tessellation_topology(tess))
    except ValueError as exc:
        doc["topology"] = None
        doc["topology_note"] = str(exc)
    return doc


def ode_report(ode: SecondOrderODE, **header) -> dict:
    """The `ode build` / `ode classify` document: the header fields, the
    rational coefficients, the singular points and the Fuchsian verdict."""
    def rational(rf):
        return {"numerator": list(rf.num.coeffs),
                "denominator": list(rf.den.coeffs)}

    return {
        "schema_version": SCHEMA_VERSION,
        **header,
        "p1": rational(ode.p1),
        "p2": rational(ode.p2),
        "singular_points": [
            {"location": "infinity" if is_infinity(pc.location) else pc.location,
             "kind": str(pc.kind)}
            for pc in singular_points(ode)],
        "fuchsian": is_fuchsian(ode),
    }
