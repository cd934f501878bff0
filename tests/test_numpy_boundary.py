"""curves and fode use numpy for polynomial roots and nothing else."""

import ast
import pathlib

import fuchsian

PACKAGE = pathlib.Path(fuchsian.__file__).resolve().parent


def numpy_imports(source):
    """(enclosing scope, line) of every import of numpy in the source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(n.partition(".")[0] == "numpy" for n in names):
                found.append((".".join(scope), child.lineno))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_numpy_only_inside_poly_roots():
    curves = numpy_imports((PACKAGE / "curves.py").read_text())
    assert [scope for scope, _ in curves] == ["Poly.roots"]
    assert numpy_imports((PACKAGE / "fode.py").read_text()) == []


def test_guard_sees_module_level_and_nested_imports():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigvals\n"
              "class A:\n"
              "    def f(self):\n"
              "        if True:\n"
              "            import numpy\n")
    assert numpy_imports(source) == [("", 1), ("", 2), ("A.f", 6)]
