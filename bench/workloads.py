"""The three workloads: seeded op sequences, how one op runs, how it is checked.

Every workload draws its ops in cycles.  A cycle holds each entry of the
workload's fixed menu exactly once, in an order (and, for `ode_batch`, with
parameters) drawn from `random.Random(f"{workload}:{seed}")`.  So every seed
runs the same mix and two seeds differ only in order and parameters, which
keeps run-to-run spread down and makes per-cycle call counts exact.  A run
does a whole number of cycles fixed by its length (`cycle_count`), so two
runs of one length do the same ops; `op_key` names an op's menu entry.

- `cli_cold`: one fresh `python -m fuchsian.cli ...` process per op, the cost
  a shell user pays per call; interpreter start and imports dominate it.
- `uniformize_batch`: the scripted library path, curve -> uniformize ->
  topology -> report -> canonical JSON over all 104 (degree, sign, base,
  convention) inputs; verification and serialization dominate it, and it
  does no import and no ODE work.
- `ode_batch`: build an equation, then `singular_points` and `is_fuchsian`;
  it exercises `fode` and `curves` (np.roots, np.convolve), calls no
  `uniformize` or `report`, and of `moebius` only `is_infinity` (through
  `fode.classify_point`), never `normalize` or `projective_distance`.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

from checks import (
    CLI_POLE_TOL,
    IRREGULAR,
    ORDINARY,
    REGULAR,
    OdeCase,
    cli_points,
    genus_range_text,
    library_points,
    ode_matches,
    payload_matches,
    render,
    uniformize_key,
)

DEGREES = range(5, 9)


# seconds of a run's length that one cycle stands for: the wall time of a
# cycle, checks included, on the 2-vCPU Xeon host the benchmark was built on,
# except for cli_cold, whose 13.5 s cycle counts as 10 s so that a 30 s run
# tries each CLI entry three times
CYCLE_SECONDS = {"cli_cold": 10.0, "uniformize_batch": 0.22, "ode_batch": 0.016}


def cycle_count(workload: str, seconds: float) -> int:
    """Cycles in a run of `seconds`: fixed by the length, not by the clock."""
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def cycles(workload: str, seed: int, make_cycle):
    """Endless stream of cycles; make_cycle(rng) returns one shuffled cycle."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make_cycle(rng)


# --- uniformize_batch --------------------------------------------------------

UNIFORMIZE_MENU = tuple((n, sign, base, normalized)
                        for n in DEGREES for sign in (-1, 1)
                        for base in range(1, n + 1) for normalized in (False, True))


def uniformize_cycle(rng):
    cycle = list(UNIFORMIZE_MENU)
    rng.shuffle(cycle)
    return cycle


def run_uniformize(fz, item):
    n, sign, base, normalized = item
    curve = fz.curve_from_degree(n, sign)
    result = fz.uniformize(curve, normalize_output=normalized, base=base)
    topology = fz.tessellation_topology(result.tessellation)
    return fz.canonical_json(fz.uniformization_report(curve, result, topology=topology))


def check_uniformize(refs, item, text) -> bool:
    return payload_matches(text, refs["uniformize"][uniformize_key(*item)])


# --- ode_batch ---------------------------------------------------------------

def _complex(rng, lo=0.5, hi=2.0) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))


def _separated_roots(rng, n, radius=2.0, gap=0.5):
    roots = []
    while len(roots) < n:
        z = cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))
        if all(abs(z - r) >= gap for r in roots):
            roots.append(z)
    return tuple(roots)


def _integer_roots(n):
    # integer_roots(n) of the curves module, restated so inputs do not
    # depend on the code under test
    lo = -((n - 1) // 2)
    return tuple(complex(r) for r in range(lo, lo + n))


def ode_cycle(rng):
    c = lambda: _complex(rng)  # noqa: E731
    cases = []
    for n in DEGREES:
        s = -1.0 if n % 2 else 1.0
        cases.append(OdeCase("curve_ode", (n, 0j, 0j), (s,), ORDINARY))
        cases.append(OdeCase("curve_ode", (n, c(), c()), (s,), IRREGULAR))
    a = 0.5 + cmath.rect(2.0, rng.uniform(0.0, 2.0 * math.pi))  # |a|, |a-1| >= 1.5
    cases += [
        OdeCase("named", ("Legendre", (c(),)), (1, -1), REGULAR),
        OdeCase("named", ("Tchebychev", (c(),)), (1, -1), REGULAR),
        OdeCase("named", ("Heun", (c(), c(), c(), c(), c(), a, c())), (0, 1, a), REGULAR),
        OdeCase("named", ("Hypergeometric", (c(), c(), c())), (0, 1), REGULAR),
        OdeCase("named", ("WhittakerHypergeometric", ()), (0, 1), REGULAR),
    ]
    for n in DEGREES:
        roots = _integer_roots(n)
        cases.append(OdeCase("whittaker", (roots, 1.0), roots, REGULAR))
    for n in range(5, 11):
        roots = _separated_roots(rng, n)
        cases.append(OdeCase("whittaker", (roots, c()), roots, REGULAR))
    rng.shuffle(cases)
    return cases


def run_ode(fz, case: OdeCase):
    if case.kind == "curve_ode":
        n, k1, k2 = case.args
        ode = fz.curve_ode(fz.curve_from_degree(n), k1, k2)
    elif case.kind == "named":
        ode = fz.named_equation(*case.args)
    else:
        roots, lead = case.args
        ode = fz.whittaker_equation(fz.expand_poly(roots).scaled(lead))
    return fz.singular_points(ode), fz.is_fuchsian(ode)


def check_ode(refs, case, out) -> bool:
    points, fuchsian = out
    return ode_matches(case, library_points(points), fuchsian)


# --- cli_cold ----------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    """argv for the CLI plus how its outcome is judged.

    check: payload (uniformize json vs stored payload), text (stdout vs
    stored stdout), doc (JSON minus schema_version vs stored), verify (exit
    0 or 1, no traceback), genus (oracle text), ode (derived OdeCase),
    usage (exit 2, no traceback, nothing on stdout).
    """

    argv: tuple
    check: str
    expect: object = None

    @property
    def probe(self) -> bool:
        """Invalid input: the outcome checked is the exit-2 contract."""
        return self.check == "usage"


def _uniformize_argv(n, sign=-1, base=1, normalized=False, fmt="json"):
    argv = ["uniformize", "--degree", str(n)]
    if sign == 1:
        argv += ["--sign", "plus"]
    if base != 1:
        argv += ["--base", str(base)]
    if normalized:
        argv.append("--normalize")
    if fmt != "json":
        argv += ["--format", fmt]
    return tuple(argv)


def _cli_menu():
    menu = []
    for n in DEGREES:
        s = -1.0 if n % 2 else 1.0
        for sign in (-1, 1):
            for normalized in (False, True):
                menu.append(CliOp(_uniformize_argv(n, sign, 1, normalized), "payload",
                                  uniformize_key(n, sign, 1, normalized)))
            menu.append(CliOp(_uniformize_argv(n, sign, 1, sign == 1, "table"), "text"))
            menu.append(CliOp(_uniformize_argv(n, sign, 1, False, "svg"), "text"))
        menu.append(CliOp(_uniformize_argv(n, -1, n, True), "payload",
                          uniformize_key(n, -1, n, True)))
        menu.append(CliOp(("verify", "--degree", str(n)), "verify"))
        menu.append(CliOp(("tessellation", "--degree", str(n)), "doc"))
        menu.append(CliOp(("ode", "build", "--degree", str(n)), "ode",
                          OdeCase("curve_ode", (n, 0j, 0j), (s,), ORDINARY)))
    for p, q in ((8, 8), (10, 5), (7, 3), (6, 4), (5, 5)):
        menu.append(CliOp(("tessellation", "--pq", f"{p},{q}"), "doc"))
    for m, n in ((2, 8), (3, 3), (5, 7), (4, 6)):
        menu.append(CliOp(("genus-range", str(m), str(n)), "genus", (m, n)))
    menu += [
        CliOp(("ode", "build", "--degree", "7", "--k1", "0.5,0.25"), "ode",
              OdeCase("curve_ode", (7, 0.5 + 0.25j, 0j), (-1.0,), IRREGULAR)),
        CliOp(("ode", "build", "--degree", "6", "--k2", "0,1"), "ode",
              OdeCase("curve_ode", (6, 0j, 1j), (1.0,), IRREGULAR)),
        CliOp(("ode", "classify", "--named", "Legendre", "--params", "0.5"), "ode",
              OdeCase("named", (), (1, -1), REGULAR)),
        CliOp(("ode", "classify", "--named", "Tchebychev", "--params", "2,0.5"), "ode",
              OdeCase("named", (), (1, -1), REGULAR)),
        CliOp(("ode", "classify", "--named", "Heun", "--params",
               "1", "2", "3", "4", "5", "2,1", "0.5"), "ode",
              OdeCase("named", (), (0, 1, 2 + 1j), REGULAR)),
        CliOp(("ode", "classify", "--named", "Hypergeometric", "--params",
               "0.5", "0.25", "1.5"), "ode",
              OdeCase("named", (), (0, 1), REGULAR)),
        CliOp(("ode", "classify", "--named", "WhittakerHypergeometric"), "ode",
              OdeCase("named", (), (0, 1), REGULAR)),
        CliOp(("uniformize", "--degree", "4"), "usage"),
        CliOp(("uniformize", "--degree", "9"), "usage"),
        CliOp(("uniformize", "--degree", "5", "--base", "0"), "usage"),
    ]
    return tuple(menu)


CLI_MENU = _cli_menu()


def cli_cycle(rng):
    cycle = list(CLI_MENU)
    rng.shuffle(cycle)
    return cycle


def op_key(item):
    """The menu entry an op was drawn from.

    `ode_batch` redraws random parameters every cycle, so its entries are
    told apart by kind, name or degree, and whether the parameters are the
    fixed ones (k1 = 0 for `curve_ode`, leading coefficient 1 for
    `whittaker`).
    """
    if isinstance(item, CliOp):
        return item.argv
    if isinstance(item, OdeCase):
        if item.kind == "named":
            return item.kind, item.args[0]
        if item.kind == "curve_ode":
            return item.kind, item.args[0], item.args[1] == 0
        return item.kind, len(item.poles), item.args[1] == 1.0
    return item


def cli_text_key(argv) -> str:
    return " ".join(argv)


def strip_schema(doc: dict) -> str:
    return render({k: v for k, v in doc.items() if k != "schema_version"})


def check_cli(refs, op: CliOp, rc: int, out: str, err: str) -> bool:
    if "Traceback" in err:
        return False
    if op.check == "usage":
        return rc == 2 and out == "" and err != ""
    if op.check == "verify":
        return rc in (0, 1) and out != ""
    if rc != 0:
        return False
    try:
        if op.check == "payload":
            return payload_matches(out, refs["uniformize"][op.expect])
        if op.check == "text":
            return out == refs["cli"][cli_text_key(op.argv)]
        if op.check == "doc":
            return strip_schema(json.loads(out)) == refs["cli"][cli_text_key(op.argv)]
        if op.check == "genus":
            return out == genus_range_text(*op.expect)
        doc = json.loads(out)
        return ode_matches(op.expect, cli_points(doc), doc["fuchsian"], CLI_POLE_TOL)
    except (ValueError, KeyError, TypeError):
        return False
