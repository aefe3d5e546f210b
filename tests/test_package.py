import ast
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


def _module_privates(tree: ast.Module) -> list:
    """(name, first line, last line) of each module-level statement that
    binds a ``_private`` name (not a dunder): defs, classes, assignments."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        found += [(name, node.lineno, node.end_lineno) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def test_every_private_helper_has_a_caller():
    """Every module-level ``_private`` name of the package is read
    somewhere in its source outside its own definition, so that removing
    a hook or a helper's last caller cannot leave the helper behind."""
    source = Path(gatecnn.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}
    reads = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            reads.setdefault(name, []).append((module, node.lineno))
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name, first, last in _module_privates(tree)
            if all(where == module and first <= line <= last
                   for where, line in reads.get(name, []))]
    assert dead == []


def test_no_bit_is_nanded_with_itself():
    """No NAND call in the package repeats an operand: NOT is
    ``gates.not_gate``, NAND(public 1, x), which multiplies no two
    ciphertexts, so it has one definition."""
    source = Path(gatecnn.__file__).parent
    found = []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and len(node.args) == 2
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "nand"
                    and ast.dump(node.args[0]) == ast.dump(node.args[1])):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
