import ast
import builtins
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import fuchsian
from fuchsian.curves import CurveSpec, Poly
from fuchsian.fode import RationalFn
from fuchsian.hyperbolic import SurfaceTopology

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
MODULES = sorted((ROOT / "src" / "fuchsian").glob("*.py"))


def test_pyproject_names_the_package_and_its_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "fuchsian"
    assert project["version"] == fuchsian.__version__


def test_every_public_name_resolves():
    # `from fuchsian import *` fails on a name left in __all__ after a deletion
    missing = [name for name in fuchsian.__all__ if not hasattr(fuchsian, name)]
    assert missing == []


def test_public_names_are_listed_once():
    assert len(fuchsian.__all__) == len(set(fuchsian.__all__))


# the pipeline's entry points, by defining module: curve, generators,
# tessellation and topology, ODE and singular points, genus range
EXPORTED = {
    "curves": ["curve_from_degree", "expand_poly"],
    "embed": ["genus_range"],
    "fode": ["curve_ode", "named_equation", "whittaker_equation", "singular_points",
             "is_fuchsian"],
    "hyperbolic": ["tessellation_topology"],
    "report": ["uniformization_report", "canonical_json"],
    "uniformize": ["uniformize"],
}


def test_package_exports_the_module_objects_of_the_entry_points():
    exported = {name: module for module, names in EXPORTED.items() for name in names}
    assert sorted(fuchsian.__all__) == sorted(exported)
    for name, module in exported.items():
        assert getattr(fuchsian, name) is getattr(
            importlib.import_module(f"fuchsian.{module}"), name), name


# public names that each have one import path, their defining module
MODULE_ONLY = [
    *(("curves", n) for n in ("CurveSpec", "integer_roots", "paper_curve", "Poly")),
    ("embed", "GenusRange"),
    *(("fode", n) for n in ("PointKind", "SecondOrderODE")),
    *(("hyperbolic", n) for n in (
        "SurfaceTopology", "Tessellation", "distance", "half_turn",
        "regular_polygon_area")),
    *(("moebius", n) for n in (
        "INFINITY", "MoebiusMap", "TransformClass", "classify", "compose",
        "evaluate_word", "fixed_points", "normalize", "projective_distance",
        "to_disk_model", "to_halfplane_model")),
    *(("uniformize", n) for n in (
        "MursiParams", "UniformizationResult", "VerificationReport",
        "fixed_point_radius", "group_generators", "mursi_parameters",
        "side_transformations", "verify_generators")),
]


@pytest.mark.parametrize("module, name", MODULE_ONLY, ids=[n for _, n in MODULE_ONLY])
def test_name_is_imported_from_its_module_only(module, name):
    assert not hasattr(fuchsian, name)
    assert name not in fuchsian.__all__
    assert hasattr(importlib.import_module(f"fuchsian.{module}"), name)


def test_import_loads_every_module_but_the_cli():
    # bench's tracer wraps only the modules loaded when it is installed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, fuchsian; "
            "print(*sorted(m for m in sys.modules if m.startswith('fuchsian.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == [f"fuchsian.{m}" for m in (
        "curves", "embed", "fode", "hyperbolic", "moebius", "report", "uniformize")]


# library API deleted because no paper claim, CLI path or acceptance test reaches it
DELETED = [
    ("hyperbolic", "boundary_geodesic_apex"),
    ("hyperbolic", "CoincidentEndpoints"),
    ("hyperbolic", "BOUNDARY_TOL"),
    ("hyperbolic", "triangle_area"),
    ("hyperbolic", "AngleSumExceedsPi"),
    ("hyperbolic", "ANGLE_TOL"),
    ("fode", "classify_point"),
    # marker exceptions no caller caught; their raise sites raise ValueError
    ("curves", "DegreeTooSmall"),
    ("curves", "RootFindingFailure"),
    ("embed", "BadDimensions"),
    ("fode", "DuplicateXi"),
    ("fode", "UnknownName"),
    ("fode", "BadParamCount"),
    ("fode", "RepeatedRoots"),
    ("fode", "UnsupportedDegree"),
    ("hyperbolic", "ModelMismatch"),
    ("hyperbolic", "InvalidPoint"),
    ("hyperbolic", "CoincidentPoints"),
    ("hyperbolic", "NonIntegerVertexCycle"),
    ("hyperbolic", "OddSides"),
    # the paper draws in the disk alone: distance and half_turn take complex points
    ("hyperbolic", "Model"),
    ("hyperbolic", "ModelPoint"),
    ("hyperbolic", "geodesic_midpoint"),
    ("cli", "_UsageError"),
    # every pole is known exactly, so nothing needs a denominator's roots found
    ("fode", "rational_fn"),
    # poles are compared exactly, so nothing clusters them within a radius
    ("fode", "_tally_order"),
    ("fode", "_match_tol"),
    # no coefficient is cut: the Whittaker numerator's length follows the
    # parity of deg f, and only an overflow is refused
    ("curves", "COEFF_TRIM_TOL"),
    ("curves", "_size_scan"),
    ("fode", "COEFF_TRIM_TOL"),
    ("fode", "_size_scan"),
    ("fode", "_top_trimmed"),
    # every catalog pole is decided by its exact residue, and a Heun a is
    # refused only when it equals 0 or 1
    ("fode", "_vanishes"),
    ("fode", "VANISH_TOL"),
    ("fode", "HEUN_POLE_GAP"),
    # p1's top coefficient is the exact sum the verdict reads, rounded once
    ("fode", "_pin_top"),
    # the report prints the parity string CurveSpec.parity returns
    ("curves", "Parity"),
]


# a name's id is the name; a second module that lost the same name adds its own
@pytest.mark.parametrize("module, name", DELETED, ids=[
    f"{m}.{n}" if n in [k for _, k in DELETED[:i]] else n for i, (m, n) in enumerate(DELETED)])
def test_deleted_api_is_gone(module, name):
    assert not hasattr(fuchsian, name)
    assert name not in fuchsian.__all__
    assert not hasattr(importlib.import_module(f"fuchsian.{module}"), name)


# members deleted from a class that stays; tests count poles with
# helpers.reference_pole_order, and _product is the one polynomial product
DELETED_MEMBERS = [
    (Poly, "variable"),
    (Poly, "trimmed"),
    (RationalFn, "pole_order"),
    (Poly, "__add__"),
    (Poly, "__sub__"),
    (Poly, "__mul__"),
    (Poly, "derivative"),
    (Poly, "one"),
    (Poly, "zero"),
]


@pytest.mark.parametrize("cls, name", DELETED_MEMBERS,
                         ids=[f"{c.__name__}.{n}" for c, n in DELETED_MEMBERS])
def test_deleted_method_is_gone(cls, name):
    assert not hasattr(cls, name)


def test_records_store_no_derived_fields():
    # genus, parity and chi are properties, so no record contradicts its degree or V, E, F
    fields = [[f.name for f in dataclasses.fields(cls)]
              for cls in (CurveSpec, SurfaceTopology)]
    assert fields == [["degree", "sign"], ["V", "E", "F"]]


def _unused_imports(tree):
    """Names bound by an import statement that no Name node of the module reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


# imported only to be re-exported: the package's public names
REEXPORTED = {"__init__": set(fuchsian.__all__)}


@pytest.mark.parametrize("path", MODULES, ids=[m.stem for m in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert sorted(unused - REEXPORTED.get(path.stem, set())) == []


def _exception_classes(tree):
    """Classes whose base is a builtin exception, is named like one, or is
    an exception class defined earlier in the same module."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            name = getattr(base, "id", getattr(base, "attr", ""))
            builtin = getattr(builtins, name, None)
            if (name in found or name.endswith(("Error", "Exception", "Warning"))
                    or isinstance(builtin, type) and issubclass(builtin, BaseException)):
                found.add(node.name)
    return found


# the only exception classes a module may define: NotHyperbolic, which
# report tells apart to print a null area for a spherical {p,q}, and those of
# moebius and uniformize, which wait for ROADMAP item 4 to unpin the two modules
ALLOWED_EXCEPTIONS = {
    "hyperbolic": {"NotHyperbolic"},
    "moebius": {"DegenerateMap", "AllPointsFixed", "IndexOutOfRange"},
    "uniformize": {"GenusTooSmall"},
}


@pytest.mark.parametrize("path", MODULES, ids=[m.stem for m in MODULES])
def test_no_module_defines_an_exception_class_outside_the_allow_list(path):
    found = _exception_classes(ast.parse(path.read_text(), str(path)))
    assert sorted(found - ALLOWED_EXCEPTIONS.get(path.stem, set())) == []
