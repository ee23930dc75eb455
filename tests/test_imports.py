"""Source hygiene: the package exports exactly its public API, every name a
package module imports is used in it, every module-level private function
and private method is used somewhere in the package, the CLI imports no
private name, no module uses floating point, none memoises, no chain of
imports between modules leads back to where it began, and the Wronskian
kernel has one entry: one place calls it, its stop has no default, and no
function takes a determinant as a parameter."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mijacobi"


# what the paper, the CLI and the benchmark use; oracles stay in their modules
PUBLIC_API = (
    "AffineExp", "EtaPoly", "ParamPoly", "ParamRat", "ZeroPolynomialError",
    "DEFAULT_GENERIC_POINT", "DuplicateStatesError", "NonGenericParametersError",
    "QuasiPoly", "State", "StateTuple", "StateType", "as_state_tuple", "eigenvalue",
    "is_generic", "jacobi_poly", "make_state", "pairing", "parse_state",
    "require_generic",
    "WronskianZeroError", "wronskian",
    "DiagramPair", "Ledger", "MayaDiagram", "ProportionalityReport", "ReductionTarget",
    "canonical_form", "dbar", "diagrams_to_tuple", "move_division", "reduce_tuple",
    "render_diagram", "tuple_to_diagrams", "verify_move_identity", "verify_reduction",
    "QuasiRat", "SpectrumLabel", "apply_hamiltonian", "check_nonsingular",
    "deformed_potential", "extra_eigenstate", "permitted_spectrum", "potential",
    "verify_eigenfunction", "verify_spectrum",
)


def test_public_api():
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for a in node.names]
    assert len(PUBLIC_API) == 46 and sorted(names) == sorted(PUBLIC_API)


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


def relative_imports(source):
    """The sibling modules that source imports by a relative import, at
    module level or inside a function: `from .m import x` and
    `from . import m` both name m."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return found


def import_cycles(sources):
    """The modules of sources {module: source} that import themselves through
    a chain of relative imports, sorted."""
    graph = {name: relative_imports(src) & sources.keys() for name, src in sources.items()}

    def reached(start):
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += graph[name]
        return seen

    return sorted(name for name in graph if name in reached(name))


def test_import_cycles_found():
    sources = {"a": "from .b import f\n",
               "b": "def g():\n    from .a import h\n    return h\n",
               "c": "from .a import f\nfrom . import b, __version__\n",
               "d": "import c\nfrom mijacobi import d\n"}
    assert import_cycles(sources) == ["a", "b"]


def test_no_import_cycles():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources and import_cycles(sources) == []


def mentions_by_place(sources, name):
    """(module, place) of each mention of name in sources {module: source},
    one entry per mention: place is the module-level function or
    Class.method that holds it, the class elsewhere in a class body, and
    None at module level."""
    found = []
    for module, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, ast.ClassDef):
                owners = [("%s.%s" % (node.name, n.name) if isinstance(n, ast.FunctionDef)
                           else node.name, n) for n in node.body]
            else:
                owners = [(node.name if isinstance(node, ast.FunctionDef) else None, node)]
            found += [(module, owner) for owner, n in owners for _ in range(_mentions(n)[name])]
    return sorted(found, key=str)


def parameters(sources):
    """(module, function, parameter, has a default) of each parameter of each
    function, method, nested function or lambda of sources {module: source}."""
    found = []
    for module, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found += [(module, getattr(node, "name", "<lambda>"), a.arg, a in defaulted)
                          for a in positional + args.kwonlyargs
                          + [a for a in (args.vararg, args.kwarg) if a]]
    return found


def test_kernel_rules_found():
    sources = {"w": "def _lazy_det(cols, big, stop=None):\n    return _lazy_det\n\n"
                    "def _int_wronskian(states, q, det=None):\n"
                    "    return (det or _lazy_det)(states, q)\n\n"
                    "class K:\n    \"\"\"Doc.\"\"\"\n    kernel = _lazy_det\n\n"
                    "    def run(self):\n        return m._lazy_det(1, 2, 3)\n\n"
                    "alias = _lazy_det\n",
               "s": "f = lambda a, *det, k=1: a\n"}
    assert mentions_by_place(sources, "_lazy_det") == [
        ("w", "K"), ("w", "K.run"), ("w", "_int_wronskian"), ("w", "_lazy_det"), ("w", None)]
    assert sorted(parameters(sources)) == [
        ("s", "<lambda>", "a", False), ("s", "<lambda>", "det", False),
        ("s", "<lambda>", "k", True), ("w", "_int_wronskian", "det", True),
        ("w", "_int_wronskian", "q", False), ("w", "_int_wronskian", "states", False),
        ("w", "_lazy_det", "big", False), ("w", "_lazy_det", "cols", False),
        ("w", "_lazy_det", "stop", True), ("w", "run", "self", False)]


def test_one_kernel_entry():
    # every Wronskian is a stopped run of the lazy-row determinant, entered
    # from _bordered_wronskians alone: a second entry, a default stop or a
    # determinant passed in as a parameter would fork the kernel again
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert mentions_by_place(sources, "_lazy_det") == [("wronskian.py", "_bordered_wronskians")]
    params = parameters(sources)
    assert [(p, d) for m, f, p, d in params if f == "_lazy_det"] == [
        ("cols", False), ("big", False), ("stop", False)]
    assert [(m, f) for m, f, p, _ in params if p == "det"] == []
