import pathlib

import pytest

import fuchsian

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_names_the_package_and_its_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "fuchsian"
    assert project["version"] == fuchsian.__version__
