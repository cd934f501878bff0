"""Command-line interface.

Subcommands: uniformize, genus-range, tessellation, ode (build | classify),
verify.  Output goes to stdout as canonical JSON, an aligned text table, or
a static SVG figure.  Exit codes: 0 success, 1 verification failure,
2 usage error, 141 (128 + SIGPIPE) when the reader of stdout goes away.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys

from . import curves, embed, fode, hyperbolic
from .moebius import IndexOutOfRange
from .uniformize import uniformize
from .report import (
    DEFAULT_PRECISION,
    canonical_json,
    ode_report,
    round_sig,
    tessellation_report,
    uniformization_report,
    verification_checks,
)

_SVG_SIZE = 480


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with -<digit>, so -1,2 and -1e-3 are RE,IM values;
        # a private argparse attribute (Python 3.10-3.13) that matches only
        # plain decimals such as -1 and -.5 unless replaced
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # raise instead of exiting so run() can own the exit code
    def error(self, message):
        raise ValueError(message)


def _complex_arg(text: str) -> complex:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        values = []
    if not 1 <= len(values) <= 2:
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return complex(*values)


def _precision_arg(text: str) -> int:
    # '.0g' formats like '.1g' and a negative precision is no format at all
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_pair_arg(text: str):
    try:
        p, q = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two integers P,Q, got {text!r}") from None
    return p, q


def _build_parser() -> _Parser:
    parser = _Parser(prog="fuchsian",
                     description="Uniformization of y^2 = z^n - 1 and friends.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_uni = sub.add_parser("uniformize", help="side pairings and generators")
    p_uni.add_argument("--degree", type=int, required=True)
    p_uni.add_argument("--sign", choices=("plus", "minus"), default="minus")
    # None marks --base and --precision as not given, which --format svg needs
    p_uni.add_argument("--base", type=int)
    p_uni.add_argument("--normalize", action="store_true",
                       help="emit det-1 generators instead of raw products")
    p_uni.add_argument("--format", choices=("json", "table", "svg"),
                       default="json")
    p_uni.add_argument("--precision", type=_precision_arg)
    p_uni.set_defaults(run=_cmd_uniformize)

    p_gr = sub.add_parser("genus-range", help="K_{m,n} embedding genus bounds")
    p_gr.add_argument("m", type=int)
    p_gr.add_argument("n", type=int)
    p_gr.set_defaults(run=_cmd_genus_range)

    p_tess = sub.add_parser("tessellation", help="tessellation data")
    grp = p_tess.add_mutually_exclusive_group(required=True)
    grp.add_argument("--degree", type=int)
    grp.add_argument("--pq", type=_int_pair_arg, metavar="P,Q")
    p_tess.add_argument("--precision", type=_precision_arg, default=DEFAULT_PRECISION)
    p_tess.set_defaults(run=_cmd_tessellation)

    p_ode = sub.add_parser("ode", help="differential equations")
    ode_sub = p_ode.add_subparsers(dest="ode_command", required=True,
                                   parser_class=_Parser)
    p_build = ode_sub.add_parser("build", help="curve equation for degree 5..8")
    p_build.add_argument("--degree", type=int, required=True)
    p_build.add_argument("--k1", type=_complex_arg, default=0j, metavar="RE,IM")
    p_build.add_argument("--k2", type=_complex_arg, default=0j, metavar="RE,IM")
    p_build.add_argument("--precision", type=_precision_arg, default=DEFAULT_PRECISION)
    p_build.set_defaults(run=_cmd_ode_build)
    p_cls = ode_sub.add_parser("classify", help="classify a named equation")
    p_cls.add_argument("--named", required=True)
    p_cls.add_argument("--params", type=_complex_arg, nargs="*", default=[],
                       metavar="RE,IM")
    p_cls.add_argument("--precision", type=_precision_arg, default=DEFAULT_PRECISION)
    p_cls.set_defaults(run=_cmd_ode_classify)

    p_ver = sub.add_parser("verify", help="run the verification checks")
    p_ver.add_argument("--degree", type=int, required=True)
    p_ver.set_defaults(run=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (IndexOutOfRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _fmt_complex(z: complex, precision: int) -> str:
    re = round_sig(z.real, precision)
    im = round_sig(z.imag, precision)
    return f"{re:.{precision}g}{im:+.{precision}g}i"


def _cmd_uniformize(args) -> int:
    if args.format == "svg":
        # the figure draws neither generators nor numbers, so these would be lost
        given = [opt for opt, passed in (("--normalize", args.normalize),
                                         ("--base", args.base is not None),
                                         ("--precision", args.precision is not None))
                 if passed]
        if given:
            raise ValueError(f"--format svg takes no {', '.join(given)}")
    sign = -1 if args.sign == "minus" else 1
    curve = curves.paper_curve(args.degree, sign)
    base = 1 if args.base is None else args.base
    precision = DEFAULT_PRECISION if args.precision is None else args.precision
    result = uniformize(curve, normalize_output=args.normalize, base=base)
    if args.format == "json":
        topology = hyperbolic.tessellation_topology(result.tessellation)
        doc = uniformization_report(curve, result, topology=topology)
        print(canonical_json(doc, precision))
    elif args.format == "table":
        print("\n".join(_render_table(curve, result, precision)))
    else:
        print(_render_svg(curve, result))
    return 0


def _render_table(curve, result, precision):
    p = result.params
    yield (f"degree {p.degree}  curve y^2 = z^{p.degree} "
           f"{'-' if curve.sign == -1 else '+'} 1  genus {p.genus}")
    yield (f"alpha = {p.alpha.numerator}/{p.alpha.denominator}  "
           f"a = {round_sig(p.a, precision):.{precision}g}  "
           f"tessellation {{{result.tessellation.p},{result.tessellation.q}}}  "
           f"area = {round_sig(result.area, precision):.{precision}g}")
    yield f"convention: {'normalized' if result.normalized_output else 'raw'}"
    yield ""
    rows = [("generator", "(1,1)", "(1,2)", "(2,1)", "(2,2)", "class")]
    base = result.base_index
    for r, m, cls in zip(result.generator_labels, result.generators,
                         result.verification.classes):
        rows.append((f"S{base}S{r}",
                     _fmt_complex(m.a, precision), _fmt_complex(m.b, precision),
                     _fmt_complex(m.c, precision), _fmt_complex(m.d, precision),
                     str(cls)))
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    for row in rows:
        yield "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()


def _render_svg(curve, result) -> str:
    """Unit disk, ideal vertices, side geodesics, interior fixed points."""
    half = _SVG_SIZE / 2.0
    scale = half / 1.15

    def pt(z):
        # flip the imaginary axis so the figure reads in math orientation
        return half + scale * z.real, half - scale * z.imag

    roots = curve.singularities
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<circle cx="{half}" cy="{half}" r="{scale}" fill="none" '
        f'stroke="black" stroke-width="1.5"/>',
    ]
    # n vertices 2 pi/n apart: each side is a clockwise arc (sweep 1) of radius tan(pi/n)
    radius = math.tan(math.pi / len(roots)) * scale
    for u, v in zip(roots, roots[1:] + roots[:1]):
        ux, uy = pt(u)
        vx, vy = pt(v)
        parts.append(
            f'<path d="M {ux:.2f} {uy:.2f} A {radius:.2f} {radius:.2f} 0 0 '
            f'1 {vx:.2f} {vy:.2f}" fill="none" stroke="steelblue" '
            f'stroke-width="1.2"/>')
    for z in roots:
        x, y = pt(z)
        parts.append(f'<circle class="vertex" cx="{x:.2f}" cy="{y:.2f}" r="4" '
                     f'fill="black"/>')
    for z in result.fixed_points:
        x, y = pt(z)
        parts.append(f'<circle class="fixed-point" cx="{x:.2f}" cy="{y:.2f}" '
                     f'r="3" fill="crimson"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_genus_range(args) -> int:
    r = embed.genus_range(args.m, args.n)
    print(f"g_min={r.g_min} g_max={r.g_max}")
    return 0


def _cmd_tessellation(args) -> int:
    if args.degree is not None:
        tess = curves.tessellation_for_curve(curves.curve_from_degree(args.degree))
    else:
        tess = hyperbolic.Tessellation(*args.pq)
    print(canonical_json(tessellation_report(tess), args.precision))
    return 0


def _cmd_ode_build(args) -> int:
    ode = fode.curve_ode(curves.paper_curve(args.degree), args.k1, args.k2)
    poly = curves.expand_poly(curves.integer_roots(args.degree))
    doc = ode_report(ode, degree=args.degree, curve_polynomial=list(poly.coeffs),
                     k1=args.k1, k2=args.k2)
    print(canonical_json(doc, args.precision))
    return 0


def _cmd_ode_classify(args) -> int:
    ode = fode.named_equation(args.named, args.params)
    doc = ode_report(ode, name=ode.name, params=list(args.params))
    print(canonical_json(doc, args.precision))
    return 0


def _cmd_verify(args) -> int:
    result = uniformize(curves.paper_curve(args.degree))
    checks = verification_checks(result)
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    rep = result.verification
    if rep.identity_indices or rep.duplicate_pairs:
        base = result.base_index
        print("warning: degenerate generator set")
        for r in rep.identity_indices:
            print(f"  projective identity: S{base}S{r}")
        for r1, r2 in rep.duplicate_pairs:
            print(f"  duplicate pair: S{base}S{r1} ~ S{base}S{r2}")

    return 0 if all(ok for _, ok, _ in checks) else 1


def main() -> None:
    # move every object the imports made (numpy's and the package's) to the
    # permanent generation, so the collections at interpreter shutdown skip
    # them; run() leaves the collector alone for library and test callers
    gc.freeze()
    try:
        code = run()
        # flush here so a closed pipe raises inside the try, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
