"""Every name the package exports resolves: each module's ``__all__``, the names ``lspectra/__init__.py``
imports, and ``from lspectra.<module> import *``, which fails on a stale ``__all__`` entry."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lspectra

EXPORTING = [info.name for info in pkgutil.iter_modules(lspectra.__path__)
             if hasattr(importlib.import_module(f"lspectra.{info.name}"), "__all__")]


def test_the_modules_with_a_public_list_are_found():
    assert {"abelian", "chain", "forms", "graded", "ltables", "poincare"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"lspectra.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from lspectra.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(lspectra.__file__).read_text())
    imported = [(node.module, alias) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, alias in imported:
        assert hasattr(importlib.import_module(f"lspectra.{module}"), alias.name), (module, alias.name)
        assert hasattr(lspectra, alias.asname or alias.name), alias.name
