"""Every exported name resolves, so a stale `__all__` entry fails here
rather than at a user's `from adjointgp import *`, and every public name
is exported; the retired posterior JSON helpers stay gone; every module-level
import is used; each solver module offers its solves through its system
object only; a `Field` is values on a grid and no more; an MCMC chain is
kept as its states, never as a steps x M array; and the package is
numpy alone: no module imports scipy, anywhere, and neither a whole ODE run
(simulate, infer, scan, mcmc) nor a PDE run loads a scipy module."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
import warnings

import pytest

import adjointgp

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(adjointgp.__path__))


def test_package_exports_resolve():
    missing = [name for name in adjointgp.__all__ if not hasattr(adjointgp, name)]
    assert missing == []
    assert len(set(adjointgp.__all__)) == len(adjointgp.__all__)


def test_all_lists_every_public_name():
    # `__all__` is every public non-module name the package binds, and the
    # version; a name bound after it was built, or a module, fails here
    public = {name for name, value in vars(adjointgp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(adjointgp.__all__) == sorted(public | {"__version__"})


def test_retired_posterior_and_basis_helpers_are_gone():
    # the posterior is written as an .npy and read with np.load, and the dense
    # feature matrix is a test oracle: the package keeps neither route
    from adjointgp import features, inference
    gone = [(adjointgp, "posterior_to_json"), (adjointgp, "posterior_from_json"),
            (adjointgp, "eval_basis"), (inference, "posterior_to_json"),
            (inference, "posterior_from_json"), (inference, "_indented"),
            (inference, "json"), (features, "eval_basis"), (features, "_eval_at")]
    assert [f"{m.__name__}.{n}" for m, n in gone if hasattr(m, n)] == []


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


def test_adjoint_bank_has_one_constructor():
    # every system builds its bank from its live cells and a slab source;
    # the counts follow from the live cells, so no mode passes them in
    params = list(inspect.signature(adjointgp.AdjointBank).parameters)
    assert params == ["grid", "live", "march", "groups"]
    methods = {name for name, obj in vars(adjointgp.AdjointBank).items()
               if callable(obj) or isinstance(obj, (classmethod, staticmethod))}
    assert methods == {"__init__", "slabs", "kept"}


def test_field_is_values_on_a_grid():
    # a cell a solve leaves undefined holds 0, so a field carries no mask
    assert list(inspect.signature(adjointgp.Field).parameters) == ["grid", "values"]
    assert adjointgp.Field.__slots__ == ("grid", "values")
    field = adjointgp.Field.zeros(adjointgp.Grid.regular(((0.0, 1.0),), (2,)))
    assert not hasattr(field, "mask") and not hasattr(field, "mask_flat")


def test_mcmc_keeps_the_chain_as_its_states(tmp_path):
    # a chain is its start and accepted states; the package has no way to
    # build the steps x M chain, which only the tests' oracles rebuild
    fields = [f.name for f in dataclasses.fields(adjointgp.ChainResult)]
    assert fields == ["config", "states", "log_targets", "accepted_flags", "drift"]
    assert not hasattr(adjointgp.ChainResult, "chain")
    assert not hasattr(adjointgp.ChainResult, "kept")
    data = adjointgp.simulate_data(adjointgp.parse_config(TINY_ODE))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", adjointgp.MisspecificationWarning)
        outcome = adjointgp.run_mcmc(data)
    adjointgp.save_mcmc(outcome, data, tmp_path / "mcmc")
    assert outcome.result.states.shape[0] == outcome.result.accepted + 1
    assert (tmp_path / "mcmc" / "trace.csv").exists()


def test_files_are_written_as_bytes():
    # every file goes through fields.write_hashed, in binary mode; the one
    # text-mode writer left, the sweep's flushed append, fixes its line end.
    # No write_text and no text-mode "w"/"a" open without newline="\n", so
    # no output's bytes depend on the platform's newline translation
    found = []
    for name in ["__init__", *SUBMODULES]:
        path = os.path.join(adjointgp.__path__[0], f"{name}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, where = node.func, f"{name}.py:{node.lineno}"
            if isinstance(func, ast.Attribute) and func.attr == "write_text":
                found.append(f"{where}: write_text")
            elif isinstance(func, ast.Name) and func.id == "open":
                keywords = {k.arg: k.value for k in node.keywords}
                mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
                # a mode that is not a literal counts as a text-mode write
                mode = "r" if mode is None else getattr(mode, "value", "w")
                newline = getattr(keywords.get("newline"), "value", None)
                if set(mode) & set("wa") and "b" not in mode and newline != "\n":
                    found.append(f"{where}: open(..., {mode!r}) without newline='\\n'")
    assert found == []


def _fresh_modules(*lines, prefixes=("scipy",)):
    """The sorted modules under `prefixes` (a package and its submodules)
    that a fresh interpreter has loaded after running `lines`, with the
    package importable."""
    script = "\n".join(["import sys", "import adjointgp as ag", *lines,
                        f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.')"
                        f" for p in {tuple(prefixes)!r})))"])
    src = os.path.dirname(os.path.dirname(adjointgp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True).stdout
    return ast.literal_eval(out.strip())


def test_ode_solves_leave_scipy_sparse_unimported():
    # the ODE solves alone, in a fresh interpreter, load no scipy module
    loaded = _fresh_modules(
        "grid = ag.Grid.regular(((0.0, 10.0),), (200,))",
        "system = ag.OdeSystem(ag.OdeParams(5.0, 1.0, 0.5, 10.0), grid)",
        "system.forward(ag.Field.full(grid, 1.0))",
        "system.adjoint_march([ag.window_indicator(grid, [2.0], [3.0])] * 2)")
    assert loaded == []


TINY_ODE = ("[system]\nkind = ode\np0 = 5.0\np1 = 1.0\np2 = 0.5\nT = 10.0\n"
            "[grid]\ncells = 100\n[kernel]\nlengthscale = 0.7\nvariance = 4.0\n"
            "[features]\ncount = 6\n[sensors]\nrule = tile\ncount = 10\n"
            "heldout_count = 2\n[noise]\nsigma = 0.05\n"
            "[mcmc]\nsteps = 60\nburn_in = 10\nseed = 1\n"
            "[scan]\nlengthscale = 0.5,1.0,2\nvariance = 4.0,4.0,1\nsamples = 4\n")

TINY_PDE = ("[system]\nkind = pde\nvelocity_x = 0.4\nvelocity_y = 0.4\n"
            "diffusivity = 0.01\nx_min = 0.0\nx_max = 10.0\ny_min = 0.0\ny_max = 10.0\n"
            "T = 10.0\n[grid]\ncells_t = 10\ncells_y = 6\ncells_x = 6\n"
            "[kernel]\nlengthscale = 2.0\nvariance = 2.0\n[features]\ncount = 6\n"
            "[sensors]\nrule = grid\ncount = 4\ntime_windows = 2\nheldout_count = 1\n"
            "[noise]\nsigma = 0.05\n")


def test_ode_run_loads_no_scipy():
    # the posterior is numpy alone: simulate, infer, scan and mcmc on an ODE
    # config leave every scipy module unloaded, and numpy.ma too (np.union1d
    # and np.unique without an inverse import it)
    assert _fresh_modules(
        f"data = ag.simulate_data(ag.parse_config({TINY_ODE!r}))",
        "ag.run_inference(data), ag.scan_hyper(data), ag.run_mcmc(data)",
        prefixes=("scipy", "numpy.ma")) == []


def test_pde_run_loads_no_scipy():
    # the PDE steps a numpy stencil: simulate and infer on a PDE config
    # leave every scipy module and numpy.ma unloaded
    assert _fresh_modules(
        f"data = ag.simulate_data(ag.parse_config({TINY_PDE!r}))",
        "ag.run_inference(data)", prefixes=("scipy", "numpy.ma")) == []


def test_the_package_imports_no_scipy():
    # no scipy import anywhere in the package, at module level or inside a
    # function, so no command can load it
    found = []
    for name in ["__init__", *SUBMODULES]:
        with open(os.path.join(adjointgp.__path__[0], f"{name}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        owner = {}  # node -> name of its innermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [(name, owner.get(id(node)), m) for m in mods if m.split(".")[0] == "scipy"]
    assert found == []
