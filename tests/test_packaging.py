import importlib
import pathlib

import pytest

import fuchsian

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


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


# library API deleted because no paper claim, CLI path or acceptance test reaches it
DELETED = [
    ("hyperbolic", "boundary_geodesic_apex"),
    ("hyperbolic", "CoincidentEndpoints"),
    ("hyperbolic", "BOUNDARY_TOL"),
    ("hyperbolic", "triangle_area"),
    ("hyperbolic", "AngleSumExceedsPi"),
    ("hyperbolic", "ANGLE_TOL"),
    ("fode", "classify_point"),
]


@pytest.mark.parametrize("module, name", DELETED, ids=[n for _, n in DELETED])
def test_deleted_api_is_gone(module, name):
    assert not hasattr(fuchsian, name)
    assert name not in fuchsian.__all__
    assert not hasattr(importlib.import_module(f"fuchsian.{module}"), name)


def test_poly_variable_is_gone():
    assert not hasattr(fuchsian.Poly, "variable")
