"""The benchmark's traced run wraps engine functions by name, so each name in
bench/tracer.py must resolve in the engine; a rename would otherwise surface
only when `bench/run.py --trace 1` runs."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_resolve():
    # run_path compiles the source without writing bytecode next to it
    tracer = runpy.run_path(str(TRACER))
    names = ["%s.%s" % pair for pair in tracer["TRACED"]] + [tracer["QUASIRAT_MAKE"]]
    assert len(names) > 1
    for name in names:
        mod, *attrs = name.split(".")
        obj = importlib.import_module("mijacobi." + mod)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        assert callable(obj), name
