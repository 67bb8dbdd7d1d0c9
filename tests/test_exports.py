import ast
import importlib
import pkgutil
from pathlib import Path

import hopfvar


def test_every_exported_name_resolves():
    # a deleted name must leave __all__ too
    missing, exported = [], 0
    for info in pkgutil.iter_modules(hopfvar.__path__):
        module = importlib.import_module(f"hopfvar.{info.name}")
        for name in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert exported and not missing, missing


def test_package_reexports_are_listed():
    # every name hopfvar/__init__ imports from a module with an __all__ is listed there
    tree = ast.parse(Path(hopfvar.__file__).read_text())
    unlisted, checked = [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        module = importlib.import_module(f"hopfvar.{node.module}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        for alias in node.names:
            checked += 1
            if alias.name not in listed:
                unlisted.append(f"{module.__name__}.{alias.name}")
    assert checked and not unlisted, unlisted
