"""Span tracer for the benchmark's traced run.

The tracer wraps the engine's public functions from outside: every module
binding of a listed function (names are imported by name between modules,
e.g. `wronskian` into `maya` and `spectral`) is replaced by a wrapper, and
`QuasiRat.make` is wrapped on its class.  Nothing under src/ changes.

Each call records a span (name, parent span, start, end) in flat in-memory
arrays; spans are written out once, when the run ends.  A span's self time
is its duration minus the durations of its direct children.
"""

import functools
import gzip
import json
import sys
import time
from array import array
from fractions import Fraction

# (module, function) of every traced public function; spans are named
# "<module>.<function>".
TRACED = (
    ("states", "make_state"),
    ("wronskian", "wronskian"),
    ("wronskian", "differentiate"),
    ("wronskian", "det_poly_matrix"),
    ("wronskian", "canonicalize"),
    ("wronskian", "compare_quasi"),
    ("wronskian", "shift_quasi"),
    ("algebra", "extract_edge_factors"),
    ("algebra", "proportional"),
    ("algebra", "parampoly_gcd"),
    ("algebra", "sturm_count"),
    ("maya", "reduce_tuple"),
    ("maya", "move_division"),
    ("spectral", "differentiate_rat"),
    ("spectral", "apply_hamiltonian"),
    ("spectral", "check_nonsingular"),
)
QUASIRAT_MAKE = "spectral.QuasiRat.make"
ROOT = "op"


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Records spans of the wrapped engine functions while installed."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def root(self, fn):
        """fn wrapped in an "op" span; every span of one op descends from it."""
        return self._wrap(ROOT, fn)

    def _count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _observe_det(self, args, result):
        self._peak("wronskian.det_poly_matrix.max_n", len(args[0]))

    def _observe_wronskian(self, args, result):
        terms = bits = 0
        for c in result.poly.coeffs:
            if isinstance(c, Fraction):
                bits = max(bits, _bits(c))
                continue
            for p in (c.num, c.den) if hasattr(c, "den") else (c,):
                terms += len(p.terms)
                bits = max([bits] + [_bits(v) for v in p.terms.values()])
        self._count("wronskian.result.param_terms", terms)
        self._peak("wronskian.result.max_coeff_bits", bits)

    def _observe_make(self, args, result):
        # args = (cls, expS, expC, num, den)
        if result.den.degree < args[4].degree:
            self._count(QUASIRAT_MAKE + ".reduced")

    def _observe_nonsingular(self, args, result):
        if result:
            self._count("spectral.check_nonsingular.true")

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every traced function at every binding in the engine."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mijacobi" or name.startswith("mijacobi.")]
        observers = {"det_poly_matrix": self._observe_det,
                     "wronskian": self._observe_wronskian,
                     "check_nonsingular": self._observe_nonsingular}
        for mod, attr in TRACED:
            orig = getattr(sys.modules["mijacobi." + mod], attr)
            wrapped = self._wrap("%s.%s" % (mod, attr), orig, observers.get(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)
        cls = sys.modules["mijacobi.spectral"].QuasiRat
        orig = cls.__dict__["make"]
        self._patches.append((cls, "make", orig))
        cls.make = classmethod(self._wrap(QUASIRAT_MAKE, orig.__func__,
                                          self._observe_make))

    def uninstall(self):
        while self._patches:
            obj, key, orig = self._patches.pop()
            setattr(obj, key, orig)

    # -- results --------------------------------------------------------------

    def span_stats(self):
        """Per span name: {"calls": n, "total_s": sum of durations,
        "self_s": sum of durations minus direct children}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_id[i]]]
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
        return stats

    def metric(self, name, stats):
        """Value of a per-layer metric named "<span>.<stat>" or a counter."""
        span, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            return stats.get(span, {}).get(stat, 0)
        if name == QUASIRAT_MAKE + ".reduced_ratio":
            calls = stats.get(QUASIRAT_MAKE, {}).get("calls", 0)
            return self.counts.get(QUASIRAT_MAKE + ".reduced", 0) / calls if calls else 0.0
        if name == "spectral.check_nonsingular.true_ratio":
            calls = stats.get("spectral.check_nonsingular", {}).get("calls", 0)
            return self.counts.get("spectral.check_nonsingular.true", 0) / calls if calls else 0.0
        return self.counts.get(name, 0)

    def write(self, path):
        """All spans as gzipped JSON lines: [id, parent, name, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            for i in range(len(self.start)):
                f.write(json.dumps([i, self.parent[i], self.names[self.name_id[i]],
                                    self.start[i], self.end[i]]) + "\n")
