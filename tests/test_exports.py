"""Every exported name resolves, so a deletion cannot leave a stale export
for a user's import to find."""

import ast
import importlib
import pkgutil

import pytest

import sedes

MODULES = sorted(m.name for m in pkgutil.iter_modules(sedes.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    mod = importlib.import_module("sedes." + name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == [], name
    exec("from sedes.%s import *" % name, {})


def test_every_name_the_package_imports_resolves():
    with open(sedes.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        mod = importlib.import_module("sedes." + module)
        assert hasattr(mod, name), (module, name)
        assert getattr(sedes, name) is getattr(mod, name), (module, name)
