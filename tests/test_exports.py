from __future__ import annotations

import importlib
import pkgutil

import magicsets


def test_every_exported_name_resolves():
    # A deleted function or class must leave ``__all__`` too: the package's
    # list and every submodule's that has one.
    modules = [magicsets] + [
        importlib.import_module(f"magicsets.{info.name}") for info in pkgutil.iter_modules(magicsets.__path__)
    ]
    checked = 0
    for module in modules:
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
        checked += 1
    assert checked >= 11
