"""Every exported name resolves, so a stale `__all__` entry fails here
rather than at a user's `from adjointgp import *`."""

import importlib
import pkgutil

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
