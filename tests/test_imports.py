"""Source hygiene: every name a package module imports is used in it, every
module-level private function and private method is used somewhere in the
package, the CLI imports no private name, no module uses floating point, and
none memoises."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mijacobi"


def unused_imports(source):
    """(line, name) of each imported name that the module never mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert found and {name: u for name, u in found.items() if u} == {}


def _mentions(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _functions(tree):
    """The module-level functions of tree and the methods of its classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node


def unused_private_functions(sources):
    """(module, name) of each module-level _private function or _private
    method of a module-level class that no module of sources {module: source}
    mentions outside the function's own def."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    total = sum((_mentions(tree) for tree in trees.values()), Counter())
    return sorted((name, node.name) for name, tree in trees.items()
                  for node in _functions(tree) if node.name.startswith("_")
                  and not node.name.startswith("__")
                  and total[node.name] == _mentions(node)[node.name])


def test_unused_private_functions_found():
    sources = {"a": "def _used():\n    return _used()\n\n"
                    "def _dead(x):\n    return _dead(x - 1)\n\n"
                    "class C:\n    def _gone(self):\n        return self._gone()\n",
               "b": "from a import _used\nprint(_used)\n"}
    assert unused_private_functions(sources) == [("a", "_dead"), ("a", "_gone")]


def test_no_unused_private_functions():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and unused_private_functions(sources) == []


def private_imports(source):
    """(line, name) of each _private name that source imports from a module
    of the package, by a relative or a mijacobi import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "mijacobi"):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    return sorted(found)


def test_private_imports_found():
    source = ("from __future__ import annotations\n"
              "from .spectral import (\n    permitted_spectrum,\n    _eigen_identity,\n)\n"
              "from mijacobi.states import _params as p, StateType\n"
              "from fractions import _gcd\nfrom . import __version__\n")
    assert private_imports(source) == [(2, "_eigen_identity"), (6, "_params")]


def test_cli_imports_no_private_names():
    assert private_imports((SRC / "cli.py").read_text()) == []


FLOAT_NAMES = {"float", "sqrt", "log", "exp"}


def float_uses(source):
    """(line, text) of each float literal in source and of each name,
    attribute or imported name that is one of FLOAT_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in FLOAT_NAMES:
            found.append((node.lineno, node.name))
    return sorted(found)


def test_float_uses_found():
    source = ("from math import isqrt, sqrt\n"
              "y = sqrt(2) * 0.5 + float(isqrt(4)) + math.log(exp_s) + 1e3  # exp\n")
    assert float_uses(source) == [(1, "sqrt"), (2, "0.5"), (2, "1000.0"),
                                  (2, "float"), (2, "log"), (2, "sqrt")]


def test_no_floats_in_engine():
    found = {path.name: float_uses(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert found and {name: u for name, u in found.items() if u} == {}


CACHE_NAMES = {"cache", "lru_cache", "cached_property"}


def cache_uses(source):
    """(line, name) of each import from functools and each attribute that is
    one of CACHE_NAMES: a memo kept across calls would let a benchmark that
    repeats its ops time the repeats instead of the engine."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in CACHE_NAMES or a.name == "*"]
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_cache_uses_found():
    source = ("from functools import lru_cache as memo, reduce\n"
              "f = functools.cache(g) or ft.cached_property(h)\n")
    assert cache_uses(source) == [(1, "lru_cache"), (2, "cache"), (2, "cached_property")]


def test_no_memoisation_in_engine():
    found = {path.name: cache_uses(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert found and {name: u for name, u in found.items() if u} == {}
