"""Every exported name resolves, so a stale `__all__` entry fails here
rather than at a user's `from adjointgp import *`; every module-level
import is used; each solver module offers its solves through its system
object only; and importing the package for ODE work does not pull in
`scipy.sparse`."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import adjointgp

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(adjointgp.__path__))


def test_package_exports_resolve():
    missing = [name for name in adjointgp.__all__ if not hasattr(adjointgp, name)]
    assert missing == []
    assert len(set(adjointgp.__all__)) == len(adjointgp.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"adjointgp.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from adjointgp import *", namespace)
    assert set(adjointgp.__all__) <= set(namespace)


def _unused_imports(path, exported=()):
    """Module-level imports of a source file that it never reads by name and
    does not list in `exported`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported)
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) and (
                getattr(stmt, "module", None) != "__future__"):
            bound = [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
            unused += [f"{os.path.basename(path)}: {b}" for b in bound if b not in read]
    return unused


def test_module_imports_are_used():
    # an import a deletion left behind fails here: every module-level import
    # of the package is read by name or re-exported through `__all__`, and
    # every module-level import of a test file is read by name
    unused = []
    for name in ["__init__", *SUBMODULES]:
        module = importlib.import_module("adjointgp" + ("" if name == "__init__" else f".{name}"))
        unused += _unused_imports(os.path.join(adjointgp.__path__[0], f"{name}.py"),
                                  getattr(module, "__all__", ()))
    tests = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(tests)):
        if name.endswith(".py"):
            unused += _unused_imports(os.path.join(tests, name))
    assert unused == []


@pytest.mark.parametrize("module, system", [("ode", "OdeSystem"), ("pde", "PdeSystem"),
                                            ("shift", "ShiftSystem")])
def test_solves_live_on_the_system_only(module, system):
    # one solve path per system: no free forward/adjoint functions beside it,
    # and forward and adjoint_march are its only public solves
    mod = importlib.import_module(f"adjointgp.{module}")
    free = [name for name, obj in vars(mod).items() if callable(obj)
            and name.endswith(("_forward", "_adjoint", "_adjoint_bank"))]
    assert free == []
    cls = getattr(mod, system)
    public = {name for name in vars(cls) if not name.startswith("_")}
    assert public == {"grid", "forward", "adjoint_march"}


def test_ode_solves_leave_scipy_sparse_unimported():
    # only PdeSystem builds a sparse step operator, and it imports
    # scipy.sparse there; a fresh interpreter keeps ODE-only runs free of it
    script = "\n".join([
        "import sys",
        "import adjointgp as ag",
        "grid = ag.Grid.regular(((0.0, 10.0),), (200,))",
        "system = ag.OdeSystem(ag.OdeParams(5.0, 1.0, 0.5, 10.0), grid)",
        "system.forward(ag.Field.full(grid, 1.0))",
        "system.adjoint_march([ag.window_indicator(grid, [2.0], [3.0])] * 2)",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))",
    ])
    src = os.path.dirname(os.path.dirname(adjointgp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
