import importlib
import pkgutil
from pathlib import Path

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


def test_the_layer_walk_checks_ranges_only_through_the_integer_forms():
    """cnn reaches every range check through fixedpoint's integer forms
    (``int_mul``, ``int_sum``, ``int_relu``, ``int_max``), the ones the
    fp ops' clear-backend branches call, so each op's overflow policy is
    written once."""
    cnn = importlib.import_module("gatecnn.cnn")
    assert not hasattr(cnn, "guard_range")
    assert "guard_range" not in Path(cnn.__file__).read_text()
