import importlib
import pkgutil

import pytest

import gatecnn

MODULES = ["gatecnn"] + [f"gatecnn.{m.name}" for m in pkgutil.iter_modules(gatecnn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """Every name in a module's ``__all__`` is defined there, so that
    deleting a function cannot leave a stale export behind (``from ...
    import *`` would then fail).  The package's other public names are
    plain imports, which fail at import time when stale."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_the_modules_with_a_public_api_declare_it():
    declared = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert {f"gatecnn.{m}" for m in ("cnn", "demo", "error_analysis", "fhe_core", "fixedpoint",
                                     "gates", "model_io", "serialize")} <= declared
