"""Paths shared by the benchmark's scripts, and the engine import."""

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = BENCH_DIR / "out"


class MissingEngineError(RuntimeError):
    pass


def import_engine():
    """Import mijacobi fresh from this checkout's src/, compiling from source.

    Any previously imported copy is dropped first, so each call pays the
    full import cost.  Nothing is written under src/.
    """
    if not (SRC / "mijacobi" / "__init__.py").is_file():
        raise MissingEngineError("no mijacobi sources under %s" % SRC)
    sys.dont_write_bytecode = True
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "mijacobi" or m.startswith("mijacobi.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mj = importlib.import_module("mijacobi")
    if Path(mj.__file__).resolve().parent != SRC / "mijacobi":
        raise MissingEngineError("imported mijacobi from %s, not from %s"
                                 % (mj.__file__, SRC))
    return mj
