import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import fuchsian
from fuchsian.cli import run
from fuchsian.curves import curve_from_degree
from fuchsian.report import canonical_json
from fuchsian.uniformize import uniformize

from helpers import golden_matrices


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_genus_range_command(capsys):
    rc, out, err = invoke(capsys, "genus-range", "2", "8")
    assert rc == 0
    assert out.strip() == "g_min=0 g_max=3"


def test_genus_range_usage_errors(capsys):
    rc, _, err = invoke(capsys, "genus-range", "2")
    assert rc == 2 and err
    rc, _, err = invoke(capsys, "genus-range", "1", "5")
    assert rc == 2 and err


def test_unknown_command(capsys):
    rc, _, err = invoke(capsys, "frobnicate")
    assert rc == 2


def test_help_exits_cleanly(capsys):
    rc, out, _ = invoke(capsys, "--help")
    assert rc == 0
    assert "uniformize" in out


def test_uniformize_json_document(capsys):
    rc, out, _ = invoke(capsys, "uniformize", "--degree", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["curve"]["degree"] == 5
    assert doc["convention"] == "raw"
    assert doc["parameters"]["alpha"] == [1, 5]
    assert set(doc["matrices"]["generators"]) == {"S1S2", "S1S3", "S1S4", "S1S5"}
    assert doc["topology"]["genus"] == 2
    entry = doc["matrices"]["generators"]["S1S2"][0][0]
    assert abs(entry[0] - 1.309017) < 1e-6 and abs(entry[1] - 0.9510565) < 1e-6


def test_uniformize_json_round_trips_byte_identical(capsys):
    rc, out, _ = invoke(capsys, "uniformize", "--degree", "6")
    text = out.rstrip("\n")
    assert canonical_json(json.loads(text), 7) == text


def test_uniformize_json_matches_library(capsys):
    # nine significant digits keep the serialization error below 1e-8
    for degree in (5, 6, 7, 8):
        for flag in ([], ["--normalize"]):
            rc, out, _ = invoke(capsys, "uniformize", "--degree", str(degree),
                                "--precision", "9", *flag)
            assert rc == 0
            doc = json.loads(out)
            res = uniformize(curve_from_degree(degree),
                             normalize_output=bool(flag))
            for lbl, m in zip(res.generator_labels, res.generators):
                rows = doc["matrices"]["generators"][f"S1S{lbl}"]
                flat = [complex(*rows[0][0]), complex(*rows[0][1]),
                        complex(*rows[1][0]), complex(*rows[1][1])]
                ref = (m.a, m.b, m.c, m.d)
                assert max(abs(x - y) for x, y in zip(flat, ref)) < 1e-7


def test_uniformize_table_format(capsys):
    rc, out, _ = invoke(capsys, "uniformize", "--degree", "5", "--format", "table")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("degree 5")
    row = next(l for l in lines if l.startswith("S1S2"))
    assert "1.309017+0.9510565i" in row
    assert "Hyperbolic" in row


def test_uniformize_svg_format(capsys):
    rc, out, _ = invoke(capsys, "uniformize", "--degree", "7", "--format", "svg")
    assert rc == 0
    assert out.startswith("<svg")
    assert out.count('class="vertex"') == 7
    assert out.count("<path") == 7
    assert out.count('class="fixed-point"') == 7


def test_uniformize_base_and_sign(capsys):
    rc, out, _ = invoke(capsys, "uniformize", "--degree", "5", "--base", "3",
                        "--sign", "plus")
    doc = json.loads(out)
    assert doc["base_index"] == 3
    assert doc["curve"]["sign"] == 1
    assert "S3S1" in doc["matrices"]["generators"]


def test_uniformize_rejects_bad_degree(capsys):
    rc, _, err = invoke(capsys, "uniformize", "--degree", "4")
    assert rc == 2 and "degree" in err


@pytest.mark.parametrize("base", ["0", "99"])
def test_uniformize_rejects_base_out_of_range(capsys, base):
    rc, out, err = invoke(capsys, "uniformize", "--degree", "5", "--base", base)
    assert (rc, out, err) == (2, "", f"error: base {base} not in 1..5\n")


@pytest.mark.parametrize("command", ["uniformize", "verify"])
def test_degree_with_alpha_one_third_is_a_usage_error(capsys, command):
    rc, out, err = invoke(capsys, command, "--degree", "9")
    assert rc == 2 and out == ""
    assert err.startswith("error: alpha = 1/3") and err.count("\n") == 1


@pytest.mark.parametrize("option,value", [
    ("--k1", "nan"), ("--k1", "inf,0"), ("--k2", "0,-inf"), ("--k2", "1e400"),
    ("--params", "nan"), ("--params", "2,inf"),
])
def test_non_finite_numbers_are_usage_errors(capsys, option, value):
    if option == "--params":
        argv = ["ode", "classify", "--named", "legendre", option, value]
    else:
        argv = ["ode", "build", "--degree", "5", option, value]
    rc, out, err = invoke(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: argument {option}: expected finite numbers, got {value!r}\n"


@pytest.mark.parametrize("precision", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["uniformize", "--degree", "5"],
    ["tessellation", "--degree", "5"],
    ["ode", "build", "--degree", "5"],
    ["ode", "classify", "--named", "legendre", "--params", "2"],
])
def test_precision_below_one_is_a_usage_error(capsys, argv, precision):
    rc, out, err = invoke(capsys, *argv, "--precision", precision)
    assert (rc, out) == (2, "")
    assert err == f"error: argument --precision: must be at least 1, got {precision}\n"


def test_closed_stdout_exits_without_traceback():
    src = pathlib.Path(fuchsian.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fuchsian.cli", "uniformize", "--degree", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # the reader goes away before the child, still importing, writes a byte
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_tessellation_by_degree(capsys):
    rc, out, _ = invoke(capsys, "tessellation", "--degree", "7")
    doc = json.loads(out)
    assert doc["tessellation"] == {"p": 12, "q": 12}
    assert doc["hyperbolic"] is True
    assert abs(doc["area"] - 8 * math.pi) < 1e-5
    assert doc["topology"]["genus"] == 3


def test_tessellation_by_pq(capsys):
    rc, out, _ = invoke(capsys, "tessellation", "--pq", "9,3")
    doc = json.loads(out)
    assert doc["topology"] is None
    assert "odd" in doc["topology_note"]
    rc, out, _ = invoke(capsys, "tessellation", "--pq", "4,4")
    doc = json.loads(out)
    assert doc["hyperbolic"] is False and doc["area"] == 0.0  # Euclidean boundary
    rc, out, _ = invoke(capsys, "tessellation", "--pq", "3,5")
    doc = json.loads(out)
    assert doc["hyperbolic"] is False and doc["area"] is None  # spherical


def test_ode_build(capsys):
    rc, out, _ = invoke(capsys, "ode", "build", "--degree", "6")
    doc = json.loads(out)
    assert rc == 0
    assert doc["fuchsian"] is True
    # x^6 - 3x^5 - 5x^4 + 15x^3 + 4x^2 - 12x, lowest coefficient first
    coeffs = [c[0] for c in doc["curve_polynomial"]]
    assert coeffs == [0.0, -12.0, 4.0, 15.0, -5.0, -3.0, 1.0]
    locs = [p["location"] for p in doc["singular_points"]]
    assert [1.0, 0.0] in locs and "infinity" in locs


def test_ode_build_with_k1(capsys):
    rc, out, _ = invoke(capsys, "ode", "build", "--degree", "5",
                        "--k1", "0.5,1.5")
    doc = json.loads(out)
    assert doc["k1"] == [0.5, 1.5]
    assert doc["fuchsian"] is False  # k1 != 0 makes infinity irregular


def test_ode_classify_named(capsys):
    rc, out, _ = invoke(capsys, "ode", "classify", "--named", "legendre",
                        "--params", "2")
    doc = json.loads(out)
    assert rc == 0
    assert doc["name"] == "Legendre"
    assert doc["fuchsian"] is True
    kinds = {str(p["location"]): p["kind"] for p in doc["singular_points"]}
    assert kinds == {"[-1.0, 0.0]": "RegularSingular",
                     "[1.0, 0.0]": "RegularSingular",
                     "infinity": "RegularSingular"}


def test_ode_classify_unknown_name(capsys):
    rc, _, err = invoke(capsys, "ode", "classify", "--named", "bessel")
    assert rc == 2 and "bessel" in err


def test_ode_classify_bad_param_count(capsys):
    rc, _, err = invoke(capsys, "ode", "classify", "--named", "heun",
                        "--params", "1")
    assert rc == 2


def test_verify_clean_degrees(capsys):
    for degree in ("5", "6", "7"):
        rc, out, _ = invoke(capsys, "verify", "--degree", degree)
        assert rc == 0
        assert "FAIL" not in out
        assert "warning" not in out


def test_verify_degree8_warns_but_passes(capsys):
    rc, out, _ = invoke(capsys, "verify", "--degree", "8")
    assert rc == 0
    assert "warning: degenerate generator set" in out
    assert "projective identity: S1S5" in out
    assert out.count("duplicate pair") == 3
    assert "FAIL" not in out


def test_verify_bad_degree(capsys):
    rc, _, err = invoke(capsys, "verify", "--degree", "3")
    assert rc == 2


def test_cli_raw_output_matches_golden_tables_where_consistent(capsys):
    # degree 7 stays inside the 1e-6 band end to end through the CLI
    rc, out, _ = invoke(capsys, "uniformize", "--degree", "7",
                        "--precision", "9")
    doc = json.loads(out)
    table = golden_matrices(7, "raw")
    worst = 0.0
    for label, ref in table.items():
        rows = doc["matrices"]["generators"][label]
        flat = [complex(*rows[0][0]), complex(*rows[0][1]),
                complex(*rows[1][0]), complex(*rows[1][1])]
        worst = max(worst, max(abs(x - y) for x, y in zip(flat, ref)))
    assert worst < 1e-6
