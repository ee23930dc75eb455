"""Source hygiene: every name a package module imports is used in it, and
every module-level private function is used somewhere in the package."""

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


def unused_private_functions(sources):
    """(module, name) of each module-level _private function that no module
    of sources {module: source} mentions outside the function's own def."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    total = sum((_mentions(tree) for tree in trees.values()), Counter())
    return sorted((name, node.name) for name, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and total[node.name] == _mentions(node)[node.name])


def test_unused_private_functions_found():
    sources = {"a": "def _used():\n    return _used()\n\n"
                    "def _dead(x):\n    return _dead(x - 1)\n",
               "b": "from a import _used\nprint(_used)\n"}
    assert unused_private_functions(sources) == [("a", "_dead")]


def test_no_unused_private_functions():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and unused_private_functions(sources) == []
