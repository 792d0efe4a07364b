"""The package's public names."""

import importlib
import pkgutil

import misnet


def test_public_names_resolve():
    """Every name listed in ``misnet.__all__`` and in each module's ``__all__``
    exists, so ``from misnet.<module> import *`` cannot fail on a stale entry."""
    names = [info.name for info in pkgutil.iter_modules(misnet.__path__)]
    modules = [misnet] + [importlib.import_module(f"misnet.{name}") for name in names]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"
