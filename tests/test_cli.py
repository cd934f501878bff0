import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest.mock import ANY

import pytest

import fuchsian
from fuchsian.cli import run
from fuchsian.curves import curve_from_degree
from fuchsian.report import canonical_json, verification_checks
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


def readme_commands():
    """(argv, expected stdout or None) for each command of the README's
    `Command line` block; a `# -> text` comment is the stdout it prints, any
    other comment and a `> file` redirect are dropped."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in filter(str.strip, block.splitlines()):
        command, _, comment = line.partition("#")
        argv = command.partition(">")[0].split()
        assert argv[0] == "fuchsian", line
        expect = comment.strip()[3:] + "\n" if comment.strip().startswith("-> ") else None
        commands.append((argv[1:], expect))
    return commands


def test_readme_command_line_block_runs(capsys):
    commands = readme_commands()
    assert len(commands) == 10
    assert (["genus-range", "2", "8"], "g_min=0 g_max=3\n") in commands
    for argv, expect in commands:
        rc, out, err = invoke(capsys, *argv)
        assert (rc, err) == (0, "") and out, argv
        assert expect is None or out == expect, argv


HEUN = "ode classify --named Heun --params"
BIG = 10 ** 400
# every usage or domain error exits 2 with nothing on stdout and one line
# on stderr, `error: ` and the row's message; a row's argv is split at spaces
REFUSALS = [
    pytest.param("genus-range 2", "the following arguments are required: n",
                 id="genus-range-one-size"),
    pytest.param("genus-range 1 5", "need m, n >= 2, got 1, 5", id="genus-range-1-5"),
    pytest.param("uniformize --degree 4", "degree 4 < 5", id="uniformize-4"),
    # degree 9 is the first with alpha = (g-1)/n = 1/3, where the float in
    # mursi_parameters would still pass; the paper's range stops at 8
    pytest.param("uniformize --degree 9", "degree 9 not in 5..8", id="uniformize-9"),
    pytest.param("uniformize --degree 10", "degree 10 not in 5..8", id="uniformize-10"),
    pytest.param("uniformize --degree 10 --format svg", "degree 10 not in 5..8",
                 id="uniformize-10-svg"),
    pytest.param("uniformize --degree 5 --base 0", "base 0 not in 1..5", id="base-0"),
    pytest.param("uniformize --degree 5 --base 99", "base 99 not in 1..5", id="base-99"),
    pytest.param("uniformize --degree 5 --format svg --normalize",
                 "--format svg takes no --normalize", id="svg-normalize"),
    pytest.param("uniformize --degree 5 --format svg --base 3",
                 "--format svg takes no --base", id="svg-base-3"),
    pytest.param("uniformize --degree 5 --format svg --base 1",
                 "--format svg takes no --base", id="svg-base-1"),
    pytest.param("uniformize --degree 5 --format svg --precision 3",
                 "--format svg takes no --precision", id="svg-precision"),
    pytest.param("uniformize --degree 5 --format svg --precision 3 --normalize --base 3",
                 "--format svg takes no --normalize, --base, --precision", id="svg-all-three"),
    pytest.param("uniformize --degree 5 --genus-range 2,8",
                 "unrecognized arguments: --genus-range 2,8", id="uniformize-genus-range"),
    pytest.param("verify --degree 3", "degree 3 < 5", id="verify-3"),
    pytest.param("verify --degree 9", "degree 9 not in 5..8", id="verify-9"),
    pytest.param("verify --degree 10", "degree 10 not in 5..8", id="verify-10"),
    pytest.param("tessellation --degree 4", "degree 4 < 5", id="tessellation-4"),
    pytest.param(f"tessellation --pq {BIG},4",
                 f"{{{BIG},4}}: area overflows float arithmetic", id="area-overflow-pq"),
    pytest.param("tessellation --degree 9", "degree 9 not in 5..8", id="tessellation-9"),
    # the curve refuses this degree before any {p,q} area is computed
    pytest.param(f"tessellation --degree {BIG}", f"degree {BIG} not in 5..8",
                 id="area-overflow-degree"),
    *(pytest.param(f"{command} --precision {precision}",
                   f"argument --precision: must be at least 1, got {precision}",
                   id=f"{command.split(' --')[0].split()[-1]}-precision-{precision}")
      for command in ("uniformize --degree 5", "tessellation --degree 5",
                      "ode build --degree 5", "ode classify --named legendre --params 2")
      for precision in ("0", "-1")),
    pytest.param("ode build --degree 4", "degree 4 < 5", id="build-4"),
    pytest.param("ode build --degree 9", "degree 9 not in 5..8", id="build-9"),
    *(pytest.param(f"ode build --degree 5 {option} {value}",
                   f"argument {option}: expected finite numbers, got {value!r}",
                   id=f"build{option}-{value}")
      for option, value in (("--k1", "nan"), ("--k1", "inf,0"), ("--k2", "0,-inf"),
                            ("--k2", "1e400"))),
    *(pytest.param(f"ode classify --named legendre --params {value}",
                   f"argument --params: expected finite numbers, got {value!r}",
                   id=f"classify--params-{value}")
      for value in ("nan", "2,inf")),
    pytest.param("ode classify --named Foo", "no equation named 'Foo'", id="named-Foo"),
    pytest.param("ode classify --named bessel", "no equation named 'bessel'",
                 id="named-bessel"),
    pytest.param(f"{HEUN} 1", "Heun takes 7 parameter(s), got 1", id="heun-1-param"),
    pytest.param("ode classify --named heun --params 1", "Heun takes 7 parameter(s), got 1",
                 id="heun-lowercase-1-param"),
    pytest.param(f"{HEUN} 1 2 3 4 5 0 1", "Heun pole a = 0j coincides with 0 or 1",
                 id="heun-a-0"),
    pytest.param(f"{HEUN} 1 2 3 4 5 1 1", "Heun pole a = (1+0j) coincides with 0 or 1",
                 id="heun-a-1"),
    # a coefficient past the float range is refused, never classified
    pytest.param("ode classify --named Tchebychev --params 1e200",
                 "coefficient overflow: [(inf+0j)]", id="overflow-tchebychev"),
    # finite, modulus past the float range
    pytest.param("ode classify --named Tchebychev --params 1.2526e154,0.5188e154",
                 "coefficient overflow: [(1.29985332e+308+1.2996977599999999e+308j)]",
                 id="overflow-tchebychev-modulus"),
    pytest.param("ode classify --named Legendre --params 1e308",
                 "coefficient overflow: [(inf+0j)]", id="overflow-legendre"),
    pytest.param("ode classify --named Hypergeometric --params 1e200 1e200 1",
                 "coefficient overflow: [(-inf-0j)]", id="overflow-hypergeometric"),
    # a = 1.5e308,1.5e308 has finite parts but a modulus past the float
    # range, and gamma a and the other products with a overflow p1's numerator
    pytest.param(f"{HEUN} 1 2 3 4 5 1.5e308,1.5e308 1",
                 "coefficient overflow: [(inf+infj), (-inf-infj), (12+0j)]",
                 id="overflow-heun-a-modulus"),
    # the float sum gamma + delta + epsilon rounds to the largest float, but
    # the exact sum 1.7976931348623157e308 + 1.5e292 rounds past it
    pytest.param(f"{HEUN} 1 2 1.7976931348623157e308 -1e292 2.5e292 -0.5 1",
                 "coefficient overflow: [(-8.988465674311579e+307+0j), "
                 "(-8.988465674311582e+307-0j), (inf+0j)]", id="overflow-heun-top"),
    # alpha beta or a b is 1e-400, not 0, though its float is 0
    pytest.param(f"{HEUN} 1e-200 1e-200 0 0 0 3 0",
                 "coefficient underflow: alpha beta = (1e-200+0j) * (1e-200+0j) is not 0",
                 id="underflow-heun"),
    pytest.param("ode classify --named Hypergeometric --params 1e-200 1e-200 1",
                 "coefficient underflow: a b = (1e-200+0j) * (1e-200+0j) is not 0",
                 id="underflow-hypergeometric"),
]


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_refusal_is_one_error_line(capsys, argv, message):
    assert invoke(capsys, *argv.split(" ")) == (2, "", f"error: {message}\n")


def test_unknown_command(capsys):
    # argparse words the list of choices, which may change between versions
    rc, out, err = invoke(capsys, "frobnicate")
    assert (rc, out) == (2, "")
    assert err.startswith("error: argument command: invalid choice: 'frobnicate'")
    assert err.endswith("\n") and err.count("\n") == 1


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


@pytest.mark.parametrize("sign", ["minus", "plus"])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_uniformize_svg_sides_join_consecutive_vertices(capsys, n, sign):
    # each side of the regular ideal n-gon is the geodesic between neighbouring
    # vertices: an arc of radius tan(pi/n) in disk units (240/1.15 pixels each),
    # turning clockwise on screen
    rc, out, _ = invoke(capsys, "uniformize", "--degree", str(n), "--sign", sign,
                        "--format", "svg")
    assert rc == 0
    vertices = re.findall(r'class="vertex" cx="([^"]+)" cy="([^"]+)"', out)
    paths = re.findall(r'<path d="M (\S+) (\S+) A (\S+) (\S+) 0 0 (\S+) (\S+) (\S+)"', out)
    assert len(vertices) == len(paths) == n == out.count("<path")
    radius = f"{math.tan(math.pi / n) * 240 / 1.15:.2f}"
    for k, (ux, uy, rx, ry, sweep, vx, vy) in enumerate(paths):
        assert (ux, uy) == vertices[k] and (vx, vy) == vertices[(k + 1) % n]
        assert (rx, ry, sweep) == (radius, radius, "1")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_uniformize_base_and_precision_defaults(capsys, fmt):
    _, plain, _ = invoke(capsys, "uniformize", "--degree", "5", "--format", fmt)
    rc, explicit, _ = invoke(capsys, "uniformize", "--degree", "5", "--format", fmt,
                             "--base", "1", "--precision", "7")
    assert rc == 0 and explicit == plain


def test_uniformize_base_and_sign(capsys):
    rc, out, _ = invoke(capsys, "uniformize", "--degree", "5", "--base", "3",
                        "--sign", "plus")
    doc = json.loads(out)
    assert doc["base_index"] == 3
    assert doc["curve"]["sign"] == 1
    assert "S3S1" in doc["matrices"]["generators"]


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


# a `fuchsian ARGV...` call through main(), with an exit hook that reports on
# file descriptor FD whether main froze the heap, leaving stdout and stderr alone
MAIN_WITH_FREEZE_PROBE = """
import atexit, gc, os, sys
fd = int(sys.argv.pop(1))
atexit.register(lambda: os.write(fd, b"frozen" if gc.get_freeze_count() > 0 else b"none"))
from fuchsian.cli import main
main()
"""


def test_main_prints_what_run_prints(capsys):
    # main freezes the import-time heap to speed up the interpreter's shutdown;
    # the output and the exit code stay those of run(), a refusal's exit 2 and
    # error line too. The three cold processes run at once, so the test waits
    # for about one interpreter start; without numpy's idle OpenBLAS worker
    # (README, cold-call timings) three cost a 2-vCPU host what two did with it.
    src = pathlib.Path(fuchsian.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    uniformize_8 = ["uniformize", "--degree", "8", "--precision", "17"]  # the largest document
    verify_6 = ["verify", "--degree", "6"]
    uniformize_4 = ["uniformize", "--degree", "4"]
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as probe:
        try:
            probed = subprocess.Popen(
                [sys.executable, "-c", MAIN_WITH_FREEZE_PROBE, str(write_fd), *uniformize_8],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
        plain, refused = (subprocess.Popen([sys.executable, "-m", "fuchsian.cli", *argv],
                                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                           text=True, env=env)
                          for argv in (verify_6, uniformize_4))
        for proc, argv, code in ((probed, uniformize_8, 0), (plain, verify_6, 1),
                                 (refused, uniformize_4, 2)):
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, out, err) == invoke(capsys, *argv)
            assert proc.returncode == code
        # the refusal, read last: nothing on stdout and one error line
        assert (out, err) == ("", "error: degree 4 < 5\n")
        assert probe.read() == b"frozen"


def test_run_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    rc, out, _ = invoke(capsys, "genus-range", "2", "8")
    assert (rc, out) == (0, "g_min=0 g_max=3\n")
    assert gc.get_freeze_count() == frozen


def test_params_near_the_float_range_classify_without_root_finding(capsys):
    # finite --params whose coefficient ratio used to overflow the root finder;
    # the residue c - 1 - a - b at 1 is exactly -1, although the float sum
    # 1 + a + b rounds onto c, so the pole at 1 stays
    rc, out, err = invoke(capsys, "ode", "classify", "--named", "Hypergeometric",
                          "--params", "1e308,1e308", "0", "1e308,1e308")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert [(p["location"], p["kind"]) for p in doc["singular_points"]] == [
        ([0.0, 0.0], "RegularSingular"), ([1.0, 0.0], "RegularSingular"),
        ("infinity", "RegularSingular")]


def test_cancelled_heun_pole_leaves_an_exact_numerator(capsys):
    # gamma/z + delta/(z-1) with epsilon = 0: the pole a = 2+i divides out exactly
    rc, out, _ = invoke(capsys, "ode", "classify", "--named", "Heun", "--params",
                        "1", "2", "3", "4", "0", "2,1", "0.5", "--precision", "17")
    doc = json.loads(out)
    assert rc == 0
    assert doc["p1"]["numerator"] == [[-3.0, 0.0], [7.0, 0.0]]


@pytest.mark.parametrize("params, numerator", [
    # p1 = 1/z + 1/(z-1) = (2z - 1)/(z(z-1)); gamma (1 + a) rounds at a = 1e16,
    # so a numerator built over a and divided by (z - a) read 2z
    (["1", "1", "1", "1", "0", "1e16", "1e16"], [[-1.0, 0.0], [2.0, 0.0]]),
    (["1", "1", "0.1", "0.7", "0", "1e16", "1e16"], [[-0.1, 0.0], [0.8, 0.0]]),
])
def test_heun_numerator_is_written_over_the_poles_it_keeps(capsys, params, numerator):
    rc, out, err = invoke(capsys, "ode", "classify", "--named", "Heun", "--params",
                          *params, "--precision", "17")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["p1"] == {"numerator": numerator,
                         "denominator": [[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]}


def test_heun_pole_a_past_the_float_range_is_kept_when_p1_has_no_term_in_it(capsys):
    # epsilon = 0 leaves p1 = 3/z + 4/(z-1) with no product with a, and p2
    # keeps a as a simple pole: nothing is refused for a pole p1 does not keep
    rc, out, err = invoke(capsys, "ode", "classify", "--named", "Heun", "--params",
                          "1", "2", "3", "4", "0", "1.5e308,1.5e308", "1", "--precision", "17")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["p1"]["numerator"] == [[-3.0, 0.0], [7.0, 0.0]]
    assert doc["singular_points"] == [
        {"kind": "RegularSingular", "location": loc}
        for loc in ([0.0, 0.0], [1.0, 0.0], [1.5e308, 1.5e308], "infinity")]
    assert doc["fuchsian"] is True


@pytest.mark.parametrize("pq, note", [
    ("5,5", "p = 5 is odd; sides cannot pair up"),
    ("6,4", "q = 4 does not divide p = 6"),
])
def test_tessellation_topology_note_names_the_failed_rule(capsys, pq, note):
    rc, out, _ = invoke(capsys, "tessellation", "--pq", pq)
    doc = json.loads(out)
    assert rc == 0 and doc["topology"] is None and doc["topology_note"] == note


@pytest.mark.parametrize("argv, field, value", [
    (["classify", "--named", "Legendre", "--params", "-1,2"], "params", [[-1.0, 2.0]]),
    (["classify", "--named", "Legendre", "--params", "-1e-3"], "params", [[-0.001, 0.0]]),
    (["classify", "--named", "Hypergeometric", "--params", "0.5", "-1,1", "2"],
     "params", [[0.5, 0.0], [-1.0, 1.0], [2.0, 0.0]]),
    (["build", "--degree", "5", "--k1", "-1,2"], "k1", [-1.0, 2.0]),
], ids=["re-im", "exponent", "middle-param", "k1"])
def test_negative_real_parts_are_values_not_options(capsys, argv, field, value):
    rc, out, err = invoke(capsys, "ode", *argv)
    assert (rc, err) == (0, "")
    assert json.loads(out)[field] == value


@pytest.mark.parametrize("a", ["1.0000000000000003e-9", "-1.0000000000000003e-9"])
def test_heun_pole_near_0_is_regular(capsys, a):
    # a is its own point; its pole orders count only the poles equal to a
    rc, out, err = invoke(capsys, "ode", "classify", "--named", "Heun", "--params",
                          "1", "2", "3", "4", "5", a, "0.5", "--precision", "17")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert [p["location"] for p in doc["singular_points"]] == [
        *sorted([[0.0, 0.0], [float(a), 0.0], [1.0, 0.0]]), "infinity"]
    assert [p["kind"] for p in doc["singular_points"]] == ["RegularSingular"] * 4
    assert doc["fuchsian"] is True


@pytest.mark.parametrize("k1, numerator", [
    ("1e-13", [[2.0000000000001, 0.0], [1e-13, 0.0]]),
    # finite parts, modulus past the float range: nothing needs the modulus
    ("1.5e308,1.5e308", [[1.5e308, 1.5e308], [1.5e308, 1.5e308]]),
])
def test_printed_numerator_is_the_one_classified(capsys, k1, numerator):
    # p1 = 2/(z + 1) + k1 keeps any nonzero k1, which makes infinity irregular
    rc, out, err = invoke(capsys, "ode", "build", "--degree", "5", "--k1", k1,
                          "--precision", "17")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["p1"]["numerator"] == numerator
    assert doc["singular_points"][-1] == {"kind": "IrregularSingular",
                                          "location": "infinity"}
    assert doc["fuchsian"] is False


def test_printed_p2_numerator_is_the_one_classified(capsys):
    # p2 = k2 is built as given, and nothing needs its modulus (finite
    # parts, modulus past the float range); any nonzero k2 leaves a pole of
    # order 4 of P2 at infinity
    rc, out, err = invoke(capsys, "ode", "build", "--degree", "5", "--k2", "1.5e308,1.5e308",
                          "--precision", "17")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["p2"]["numerator"] == [[1.5e308, 1.5e308]]
    assert doc["singular_points"][-1] == {"kind": "IrregularSingular",
                                          "location": "infinity"}
    assert doc["fuchsian"] is False


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


def test_ode_classify_keeps_a_pole_with_a_small_residue(capsys):
    assert_hypergeometric_pole_at_0_kept(capsys, "1e-11")


@pytest.mark.parametrize("c", ["2e-12", "-1e-12"])
def test_ode_classify_keeps_a_pole_with_a_residue_of_order_1e_12(capsys, c):
    assert_hypergeometric_pole_at_0_kept(capsys, c)


def assert_hypergeometric_pole_at_0_kept(capsys, c):
    # p1 = (c - 2z)/(z(1-z)): residue c at 0, which is not 0 however small
    rc, out, _ = invoke(capsys, "ode", "classify", "--named", "Hypergeometric",
                        "--params", "0", "1", c)
    doc = json.loads(out)
    assert rc == 0
    kinds = {str(p["location"]): p["kind"] for p in doc["singular_points"]}
    assert kinds == {"[0.0, 0.0]": "RegularSingular",
                     "[1.0, 0.0]": "RegularSingular",
                     "infinity": "Ordinary"}
    assert doc["p1"]["numerator"] == [[float(c), 0.0], [-2.0, 0.0]]


@pytest.mark.parametrize("argv, locations", [
    # epsilon = 1e-20 is the residue at 3, and gamma + delta + epsilon is not 2
    (["Heun", "0", "2", "1", "1", "1e-20", "3", "0"], [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]),
    # a = 1e-10 differs from 0, so it is a fourth singular point
    (["Heun", "1", "2", "3", "4", "5", "1e-10", "0.5"],
     [[0.0, 0.0], [1e-10, 0.0], [1.0, 0.0]]),
], ids=["heun-epsilon-1e-20", "heun-a-1e-10"])
def test_ode_classify_keeps_every_pole_whose_residue_is_not_0(capsys, argv, locations):
    rc, out, err = invoke(capsys, "ode", "classify", "--named", argv[0], "--params", *argv[1:])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["singular_points"] == [{"kind": "RegularSingular", "location": z}
                                      for z in [*locations, "infinity"]]
    assert doc["fuchsian"] is True


def test_ode_classify_reads_params_as_their_decimal_text(capsys):
    # c = 1 + a + b holds for the typed decimals, not for the float sum
    # 1.3000000000000003, so the pole at 1 cancels and p1 = -1.3/(-z)
    rc, out, err = invoke(capsys, "ode", "classify", "--named", "Hypergeometric",
                          "--params", "0.1", "0.2", "1.3")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["p1"] == {"numerator": [[-1.3, 0.0]], "denominator": [[0.0, 0.0], [-1.0, 0.0]]}
    assert [p["location"] for p in doc["singular_points"]] == [[0.0, 0.0], [1.0, 0.0], "infinity"]


def test_ode_classify_hypergeometric_p1_survives_a_cancelling_float_sum(capsys):
    # 1 + a + b is exactly 1 = c, but the float sum 1 + 1e20 - 1e20 is 0; the
    # pole at 1 cancels and p1 = -1/(-z), not 0
    rc, out, err = invoke(capsys, "ode", "classify", "--named", "Hypergeometric",
                          "--params", "1e20", "-1e20", "1")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["p1"] == {"numerator": [[-1.0, 0.0]], "denominator": [[0.0, 0.0], [-1.0, 0.0]]}
    assert doc["singular_points"] == [{"kind": "RegularSingular", "location": z}
                                      for z in ([0.0, 0.0], [1.0, 0.0], "infinity")]


def test_ode_classify_heun_prints_the_exact_sum_at_infinity(capsys):
    # gamma + delta + epsilon = 0.1 + 0.2 - 0.3 is exactly 0, while the float
    # sum is 5.551115e-17: p1's numerator is 0.3 - 0.7 z, with no z^2 term
    rc, out, err = invoke(capsys, "ode", "classify", "--named", "Heun",
                          "--params", "1", "2", "0.1", "0.2", "-0.3", "3", "1")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["p1"]["numerator"] == [[0.3, 0.0], [-0.7, 0.0]]
    assert doc["singular_points"] == [{"kind": "RegularSingular", "location": z}
                                      for z in ([0.0, 0.0], [1.0, 0.0], [3.0, 0.0], "infinity")]
    assert doc["fuchsian"] is True


def test_ode_classify_hypergeometric_prints_the_exact_1_plus_a_plus_b(capsys):
    # 1 + 1.38 - 2.561 is exactly -0.181; the binary values of the three
    # floats sum to -0.18100000000000005.  c = 0 cancels the pole at 0
    rc, out, err = invoke(capsys, "ode", "classify", "--named", "Hypergeometric",
                          "--params", "1.38", "-2.561,-0.948", "0", "--precision", "17")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["p1"] == {"numerator": [[0.181, 0.948]], "denominator": [[1.0, 0.0], [-1.0, 0.0]]}


H = "Hyperbolic"
# verify's contract, one row per degree: the exit code, every record's
# (verdict, name, detail) in order, ANY for a detail that is rounding noise,
# and the warning lines printed after the records. The degree-6 words reduce
# to M_1...M_6, an elliptic involution, not 1; degree 8 passes with a
# degenerate generator set
VERIFY = {
    5: (0, [("ok", "side involutions", ANY),
            ("ok", "generators hyperbolic", ", ".join([H] * 4)),
            ("ok", "relation gamma8", ANY)], []),
    6: (1, [("ok", "side involutions", ANY),
            ("ok", "generators hyperbolic", ", ".join([H] * 5)),
            ("FAIL", "relation gamma10_a", "residual 6.541e+00"),
            ("FAIL", "relation gamma10_b", "residual 6.541e+00")], []),
    7: (0, [("ok", "side involutions", ANY),
            ("ok", "generators hyperbolic", ", ".join([H] * 6)),
            ("ok", "relation gamma12", ANY)], []),
    8: (0, [("ok", "side involutions", ANY),
            ("ok", "generators hyperbolic", ", ".join([H, H, H, "Identity", H, H, H])),
            ("ok", "relation gamma14_a", ANY),
            ("ok", "relation gamma14_b", ANY)],
        ["warning: degenerate generator set",
         "  projective identity: S1S5",
         "  duplicate pair: S1S2 ~ S1S6",
         "  duplicate pair: S1S3 ~ S1S7",
         "  duplicate pair: S1S4 ~ S1S8"]),
}


@pytest.mark.parametrize("degree", VERIFY)
def test_verify_contract(capsys, degree):
    code, records, warnings = VERIFY[degree]
    # a row with no relation record would let verify exit 0 with no relation behind it
    assert any(name.startswith("relation ") for _, name, _ in records)
    rc, out, err = invoke(capsys, "verify", "--degree", str(degree))
    checks = verification_checks(uniformize(curve_from_degree(degree)))
    rendered = [f"{'ok  ' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks]
    assert out == "".join(f"{line}\n" for line in rendered + warnings)
    assert [("ok" if ok else "FAIL", name, detail) for name, ok, detail in checks] == records
    assert (rc, err) == (code, "")


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
