import importlib
import pkgutil

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
