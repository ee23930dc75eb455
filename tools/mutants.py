#!/usr/bin/env python3
"""Mutation checks: does the test suite catch deliberate faults in src/?

    python3 tools/mutants.py [NAME ...]

Run from anywhere; the checkout is the parent of this file's directory.
Each mutation replaces one exact snippet of one source file.  For each
mutation named (all by default) the script copies src/, tests/,
bench/golden/ (which tests/test_spectral.py reads) and pyproject.toml into
a fresh temporary directory, applies the mutation there, runs the
mutation's pytest subset on the copy and reports:

    killed    the subset failed, as it should
    SURVIVED  the subset passed: no test there notices the fault
    timeout   the subset ran past TIMEOUT seconds (counted as killed, but a
              fault should make a test fail, not hang)

The checkout's own files are only read.  Each pytest run has its address
space capped at MEMORY_CAP bytes, since a wrong packing width can make a
symbolic test fill memory.  Exit status: 0 when no mutation survived, 1
when one did, 2 when a mutation's snippet does not occur exactly once in
its file (the mutation is stale and must be rewritten).
"""

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP = 2_500_000_000
TIMEOUT = 300  # seconds per pytest run


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple  # pytest arguments, relative to the checkout

    def apply(self, text):
        if text.count(self.old) != 1:
            raise LookupError("%s: snippet occurs %d times in %s"
                              % (self.name, text.count(self.old), self.path))
        return text.replace(self.old, self.new)


MAYA = "src/mijacobi/maya.py"
WRONSKIAN = "src/mijacobi/wronskian.py"
SPECTRAL = "src/mijacobi/spectral.py"
SPECTRAL_TESTS = ("tests/test_spectral.py", "tests/test_cli.py")

MUTANTS = (
    # The move identity's right side is W[after] at (g + dg, h + dh).
    Mutant("right-side-drops-dh", MAYA,
           "(g + ledger.dg, h + ledger.dh)", "(g + ledger.dg, h)",
           ("tests/test_maya.py",)),
    Mutant("prefactor-unevaluated-at-point", MAYA,
           "pref_s, pref_c = pref_s.eval_at(*point), pref_c.eval_at(*point)",
           "pass",
           ("tests/test_maya.py",)),
    Mutant("lc-factor-sign", MAYA,
           "(cg, ch, c0 + v - 1 + i)", "(cg, ch, c0 + v + 1 + i)",
           ("tests/test_maya.py",)),
    # The lazy-row determinant (_lazy_det).
    Mutant("lazy-explicit-route", WRONSKIAN,
           "return _wronskian(quasis, _lazy_det)",
           "return _wronskian(quasis, lambda cols, big: det_poly_matrix(_matrix(cols, big)))",
           ("tests/test_wronskian.py",)),
    Mutant("lazy-permutation-sign", WRONSKIAN,
           "sign = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])",
           "sign = 1",
           ("tests/test_wronskian.py",)),
    Mutant("lazy-zero-pivot", WRONSKIAN,
           "        if not u[k]:\n            return EtaPoly()\n", "",
           ("tests/test_wronskian.py",)),
    Mutant("lazy-combine-sign", WRONSKIAN,
           "_int_combine(u[k], _step(u[j], *cs[j], big), lead, u[j])",
           "_int_combine(lead, u[j], u[k], _step(u[j], *cs[j], big))",
           ("tests/test_wronskian.py",)),
    # The eigen identity and the checks of spectrum --verify.
    Mutant("eigen-cross-term-sign", SPECTRAL,
           "n = n + (y1 * w1).scale(2 * k * by * bw)",
           "n = n - (y1 * w1).scale(2 * k * by * bw)",
           SPECTRAL_TESTS),
    Mutant("spectrum-deletes-first-type-iii", SPECTRAL,
           "i = t.states.index(State(StateType.III, lab.index))",
           "i = [s.type for s in t].index(StateType.III)",
           SPECTRAL_TESTS),
    Mutant("spectrum-bound-over-w-t", SPECTRAL,
           'name, top = "eigenfunction ", t.with_state(State(StateType.N, lab.index))',
           'name, top = "eigenfunction ", t',
           SPECTRAL_TESTS),
)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(mutant):
    """(verdict, seconds) of one mutation, run in a temporary copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests", "bench/golden"):
            shutil.copytree(ROOT / name, tmp / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / mutant.path
        target.write_text(mutant.apply(target.read_text()))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *mutant.tests],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT, preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return "timeout", time.monotonic() - start
        verdict = "SURVIVED" if proc.returncode == 0 else "killed"
        return verdict, time.monotonic() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutations to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error("unknown mutation(s): %s; known: %s"
                     % (", ".join(unknown), ", ".join(by_name)))
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    for m in chosen:  # fail fast on a stale snippet, before any run
        try:
            m.apply((ROOT / m.path).read_text())
        except LookupError as e:
            print("stale mutation: %s" % e, file=sys.stderr)
            return 2
    survivors = []
    for m in chosen:
        verdict, seconds = run(m)
        print("%-32s %-9s %6.1f s  %s" % (m.name, verdict, seconds, " ".join(m.tests)),
              flush=True)
        if verdict == "SURVIVED":
            survivors.append(m.name)
    print("%d mutation(s), %d survived%s" % (len(chosen), len(survivors),
                                           ": " + ", ".join(survivors) if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
