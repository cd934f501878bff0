"""Regenerate bench/references.json from the library as it stands.

Usage: PYTHONPATH=src python3 bench/make_references.py

The stored references are the seed-commit outputs; regenerate them only when
a change is meant to alter the paper payload, and say so.  Before writing,
every stored generator matrix is cross-checked against the published tables
in golden/ within the deviation bands tests/test_golden.py pins.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib

import fuchsian
from fuchsian import cli

from checks import REFERENCES, paper_payload, uniformize_key
import workloads as wl

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"
# largest per-entry deviation tests/test_golden.py allows per table
GOLDEN_BANDS = {(5, "raw"): 3e-6, (5, "normalized"): 2e-5, (6, "normalized"): 5e-6}
GOLDEN_BAND = 1e-6


def _half_unit(x: float, digits: int = 7) -> float:
    """Half a unit in the last place of x rounded to `digits` significant digits."""
    return 0.0 if x == 0 else 0.5 * 10 ** (math.floor(math.log10(abs(x))) - digits + 1)


def _printed(text: str) -> float:
    return float(text.replace("D", "E").replace("d", "e"))


def golden_excess(refs) -> dict:
    """Per golden table: worst deviation minus what band and rounding allow.

    A table agrees with the stored references when its value is <= 0.
    """
    out = {}
    for path in sorted(GOLDEN.glob("degree*_*.json")):
        table = json.loads(path.read_text())
        n, convention = table["degree"], table["convention"]
        payload = json.loads(refs["uniformize"][uniformize_key(n, -1, 1, convention == "normalized")])
        band = GOLDEN_BANDS.get((n, convention), GOLDEN_BAND)
        worst = -math.inf
        for label, rows in table["matrices"].items():
            got = [complex(*e) for row in payload["matrices"]["generators"][label] for e in row]
            for (re, im), z in zip(rows, got):
                allowed = band + _half_unit(z.real) + _half_unit(z.imag)
                worst = max(worst, abs(complex(_printed(re), _printed(im)) - z) - allowed)
        out[path.name] = worst
    return out


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(list(argv))
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return buf.getvalue()


def build() -> dict:
    refs = {"precision": 7, "uniformize": {}, "cli": {}}
    for item in wl.UNIFORMIZE_MENU:
        text = wl.run_uniformize(fuchsian, item)
        refs["uniformize"][uniformize_key(*item)] = paper_payload(json.loads(text))
    for op in wl.CLI_MENU:
        if op.check == "payload":
            got = paper_payload(json.loads(cli_stdout(op.argv)))
            if got != refs["uniformize"][op.expect]:
                raise RuntimeError(f"CLI and library payloads differ for {op.argv}")
        elif op.check == "text":
            refs["cli"][wl.cli_text_key(op.argv)] = cli_stdout(op.argv)
        elif op.check == "doc":
            refs["cli"][wl.cli_text_key(op.argv)] = wl.strip_schema(json.loads(cli_stdout(op.argv)))
    return refs


def main():
    refs = build()
    excess = golden_excess(refs)
    for name, value in excess.items():
        print(f"{name}: {'ok' if value <= 0 else 'OUT OF BAND'} ({value:+.2e})")
    if any(v > 0 for v in excess.values()):
        raise SystemExit("references disagree with golden/; not written")
    REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=0) + "\n")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
