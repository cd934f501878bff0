"""Outside moebius, the package uses numpy for polynomial roots and nothing else."""

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


# moebius still compares 2x2 matrices with numpy
NUMPY_MODULES = {"moebius.py"}


def test_numpy_only_inside_poly_roots():
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert {"__init__.py", "cli.py", "curves.py", "embed.py", "fode.py",
            "hyperbolic.py", "report.py", "uniformize.py"} <= set(modules)
    found = {name: [scope for scope, _ in numpy_imports((PACKAGE / name).read_text())]
             for name in modules if name not in NUMPY_MODULES}
    assert found == {name: ["Poly.roots"] if name == "curves.py" else []
                     for name in found}


def test_guard_sees_module_level_and_nested_imports():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigvals\n"
              "class A:\n"
              "    def f(self):\n"
              "        if True:\n"
              "            import numpy\n")
    assert numpy_imports(source) == [("", 1), ("", 2), ("A.f", 6)]
