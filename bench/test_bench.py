"""Tests of the benchmark itself: tracing, seeding, call counts, reference checks.

Run with: PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import hashlib
import inspect
import json
import pathlib
import sys
from collections import Counter

import pytest

import fuchsian
from fuchsian.moebius import MoebiusMap

import workloads as wl
from checks import load_references
from make_references import golden_excess
from spans import Tracer
from worker import CliCold

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fuchsian"
# sha256 of moebius.py and uniformize.py at the commit the counts were taken
SEED_SOURCES = {
    "moebius.py": "0a847f6d3eadb6c34cf5570f1178b16d854511e019acb43637578e7b7679f3ad",
    "uniformize.py": "ca734806610b1c2ddbb4fa960b574b29edb7eecdc72cdd9c17b1e3796c00b45f",
}
# calls per uniformize() at the seed commit: normalize, projective_distance,
# compose, classify
SEED_CALLS = {5: (36, 16, 17, 4), 8: (71, 32, 29, 7)}
COUNTED = ("normalize", "projective_distance", "compose", "classify")


@pytest.fixture(scope="module")
def refs():
    return load_references()


def _package_bindings():
    for name, module in list(sys.modules.items()):
        if name == "fuchsian" or name.startswith("fuchsian."):
            for attr, obj in vars(module).items():
                yield module, attr, obj
                if inspect.isclass(obj):
                    for cattr, cobj in vars(obj).items():
                        yield obj, cattr, cobj


def test_tracer_restores_every_binding(refs):
    before = {(id(owner), attr): obj for owner, attr, obj in _package_bindings()}
    tracer = Tracer().install()
    try:
        wrapped = tracer.wrapped()
        for item in wl.UNIFORMIZE_MENU[:6]:
            assert wl.check_uniformize(refs, item, wl.run_uniformize(fuchsian, item))
        for case in next(wl.cycles("ode_batch", 1, wl.ode_cycle)):
            assert wl.check_ode(refs, case, wl.run_ode(fuchsian, case))
    finally:
        tracer.uninstall()
    owners = {(owner.__name__, attr) for owner, attr, _ in wrapped}
    # imported names are wrapped where they are bound, not only where defined
    assert ("fuchsian.uniformize", "projective_distance") in owners
    assert ("fuchsian", "uniformize") in owners
    assert ("Poly", "roots") in owners
    assert {s[0] for s in tracer.spans} >= {"uniformize.uniformize", "moebius.normalize",
                                             "fode.whittaker_equation", "curves.Poly.roots"}
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original
    after = {(id(owner), attr): obj for owner, attr, obj in _package_bindings()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload,make_cycle", [
    ("uniformize_batch", wl.uniformize_cycle),
    ("ode_batch", wl.ode_cycle),
    ("cli_cold", wl.cli_cycle),
])
def test_seed_fixes_the_sequence(workload, make_cycle):
    def first(seed, n=2):
        stream = wl.cycles(workload, seed, make_cycle)
        return [next(stream) for _ in range(n)]

    def shape(item):
        return (item.kind, len(item.poles)) if isinstance(item, wl.OdeCase) else item

    a, b, c = first(1), first(1), first(2)
    assert a == b
    assert a != c
    for cycle in a + c:  # every cycle draws the whole menu once
        assert Counter(map(shape, cycle)) == Counter(map(shape, a[0]))
        keys = [wl.op_key(item) for item in cycle]  # one per menu entry
        assert len(set(keys)) == len(keys) == len(a[0])
        assert set(keys) == {wl.op_key(item) for item in a[0]}


def _profiled_counts(fn):
    codes = {getattr(fuchsian.moebius, name).__code__: name for name in COUNTED}
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return tuple(counts[name] for name in COUNTED)


def _traced_counts(fn):
    tracer = Tracer().install()
    try:
        fn()
    finally:
        tracer.uninstall()
    counts = Counter(s[0] for s in tracer.spans)
    return tuple(counts[f"moebius.{name}"] for name in COUNTED)


@pytest.mark.parametrize("degree", [5, 6, 7, 8])
def test_traced_call_counts_match_an_independent_count(degree):
    curve = fuchsian.curve_from_degree(degree)
    call = lambda: fuchsian.uniformize(curve)  # noqa: E731
    assert _traced_counts(call) == _profiled_counts(call)


def _seed_sources():
    return all(hashlib.sha256((SRC / name).read_bytes()).hexdigest() == digest
               for name, digest in SEED_SOURCES.items())


@pytest.mark.skipif(not _seed_sources(),
                    reason="moebius.py or uniformize.py differ from the seed commit")
@pytest.mark.parametrize("degree", sorted(SEED_CALLS))
def test_seed_commit_call_counts(degree):
    curve = fuchsian.curve_from_degree(degree)
    assert _traced_counts(lambda: fuchsian.uniformize(curve)) == SEED_CALLS[degree]


def test_reference_check_rejects_a_perturbed_matrix_entry(refs):
    item = (6, -1, 2, True)
    curve = fuchsian.curve_from_degree(6)
    result = fuchsian.uniformize(curve, normalize_output=True, base=2)
    topology = fuchsian.tessellation_topology(result.tessellation)

    def report(res):
        return fuchsian.canonical_json(
            fuchsian.uniformization_report(curve, res, topology=topology))

    assert wl.check_uniformize(refs, item, report(result))
    m = result.generators_normalized[0]
    bumped = MoebiusMap(m.a + 2e-6, m.b, m.c, m.d)
    perturbed = dataclasses.replace(
        result, generators_normalized=(bumped,) + result.generators_normalized[1:])
    assert not wl.check_uniformize(refs, item, report(perturbed))
    # relation residuals are deliberately outside the compared payload
    doc = json.loads(report(result))
    doc["verification"]["relation_residuals"] = {"anything": 1.0}
    assert wl.check_uniformize(refs, item, json.dumps(doc))


def test_references_agree_with_golden_tables(refs):
    excess = golden_excess(refs)
    assert len(excess) == 8
    assert all(v <= 0 for v in excess.values()), excess


def test_references_cover_the_menus(refs):
    assert len(refs["uniformize"]) == len(wl.UNIFORMIZE_MENU) == 104
    for op in wl.CLI_MENU:
        if op.check in ("text", "doc"):
            assert wl.cli_text_key(op.argv) in refs["cli"]
        if op.check == "payload":
            assert op.expect in refs["uniformize"]
    payload = json.loads(refs["uniformize"]["8 -1 1 raw"])
    assert set(payload) == {"parameters", "matrices", "fixed_points", "tessellation",
                            "area", "topology", "classes"}


def test_library_ops_pass_their_checks_across_seeds(refs):
    for item in wl.UNIFORMIZE_MENU:
        assert wl.check_uniformize(refs, item, wl.run_uniformize(fuchsian, item)), item
    for seed in range(20):
        for case in next(wl.cycles("ode_batch", seed, wl.ode_cycle)):
            assert wl.check_ode(refs, case, wl.run_ode(fuchsian, case)), case


def test_cli_checks_and_traced_entry_point():
    cli = CliCold(seed=1)
    cli.refs = load_references()
    table = next(op for op in wl.CLI_MENU if op.check == "text")
    took, ok, probe, record = cli._traced_op(table)
    assert ok and not probe and took > 0
    assert record["numpy_loaded"] and record["import_ms"] > 0
    assert record["spans"][0][0] == "cli.run"
    # an error-path probe hands its spans back whatever its exit code
    base0 = next(op for op in wl.CLI_MENU if "--base" in op.argv and "0" in op.argv)
    _, _, probe, record = cli._traced_op(base0)
    assert probe and record["spans"]
    assert wl.check_cli(cli.refs, base0, 2, "", "error: base 0 not in 1..5\n")
    assert not wl.check_cli(cli.refs, base0, 2, "", "Traceback (most recent call last):\n")
