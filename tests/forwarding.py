"""The forwarding spec, read off the frozen importers: ``tests/test_acceptance.py``
and the benchmark's scripts under ``perfbench/``, which stay as they are.  A
module of the package forwards (serves through its PEP 562 ``__getattr__``
without defining) exactly the names they import from it that it does not
define."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import singskein

ROOT = Path(__file__).resolve().parents[1]


def frozen_imports():
    """(module, name) for every singskein name that the acceptance tests and
    the benchmark's scripts import: from-imports, and attributes read off a
    singskein module they from-import (``markov.pairing_matrix``)."""
    out = set()
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the singskein module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("singskein"):
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    if node.module == "singskein" and importlib.util.find_spec(full):
                        modules[alias.asname or alias.name] = full
                    else:
                        out.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    out.add((modules[node.value.id], node.attr))
    return out


def forwarding():
    """module name -> (forwarded, expected) for the package and each of its
    modules: the names defined anywhere in the package that the module
    resolves without defining them, and the frozen imports from it that it
    does not define."""
    frozen = frozen_imports()
    names = ["singskein"] + [f"singskein.{info.name}" for info in pkgutil.iter_modules(singskein.__path__)]
    modules = {name: importlib.import_module(name) for name in names}
    defined = {name for module in modules.values() for name in vars(module) if not name.startswith("__")}
    return {
        module_name: (
            {name for name in defined - set(vars(module)) if hasattr(module, name)},
            {name for home, name in frozen if home == module_name and name not in vars(module)},
        )
        for module_name, module in modules.items()
    }
