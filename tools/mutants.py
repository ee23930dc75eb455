#!/usr/bin/env python3
"""Mutation checks: does the test suite catch deliberate faults in src/?

    python3 tools/mutants.py [NAME ...]

Run from anywhere; the checkout is the parent of this file's directory.
Each mutation replaces one exact snippet of one source file.  Each pytest
run works on a fresh temporary copy of src/, tests/, bench/golden/ (which
tests/test_spectral.py reads) and pyproject.toml.  First, as a control,
each distinct pytest subset of the mutations named (all by default) runs
once on an unmutated copy.  Then each mutation is applied to its own copy,
its subset is run there, and the script reports:

    killed          the subset failed, as it should
    SURVIVED        the subset passed: no test there notices the fault
    timeout         the subset ran past TIMEOUT seconds (counted as killed,
                    but a fault should make a test fail, not hang)
    control failed  the subset already fails or hangs unmutated, so its
                    failure would show nothing; the mutation is not run

The checkout's own files are only read.  Each pytest run has its address
space capped at MEMORY_CAP bytes, since a wrong packing width can make a
symbolic test fill memory.  Exit status: 0 when every control passed and
no mutation survived, 1 when one survived, 2 when a mutation's snippet
does not occur exactly once in its file (the mutation is stale and must
be rewritten), 3 when a control failed (this wins over 1).
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


ALGEBRA = "src/mijacobi/algebra.py"
MAYA = "src/mijacobi/maya.py"
WRONSKIAN = "src/mijacobi/wronskian.py"
SPECTRAL = "src/mijacobi/spectral.py"
STATES = "src/mijacobi/states.py"
SPECTRAL_TESTS = ("tests/test_spectral.py", "tests/test_cli.py")
QUOTIENT_TESTS = ("tests/test_spectral.py", "tests/test_quotient_route.py")
WRONSKIAN_TESTS = ("tests/test_wronskian.py", "tests/test_properties.py")
FAMILY_TESTS = ("tests/test_maya.py", "tests/test_states.py", "tests/test_spectral.py")
ROOT_TESTS = ("tests/test_algebra.py", "tests/test_properties.py")

MUTANTS = (
    # The move identity's right side is W[after] at (g + dg, h + dh).
    Mutant("right-side-drops-dh", MAYA,
           "(g + ledger.dg * q, h + ledger.dh * q, q)", "(g + ledger.dg * q, h, q)",
           ("tests/test_maya.py",)),
    Mutant("prefactor-unevaluated-at-point", MAYA,
           "e.c0 * q", "e.c0",
           ("tests/test_maya.py",)),
    Mutant("lc-factor-sign", MAYA,
           "(cg, ch, c0 + v - 1 + i)", "(cg, ch, c0 + v + 1 + i)",
           ("tests/test_maya.py",)),
    # The one proof of a move identity, a*(den*s_r) == b*(num*s_l), for the
    # constant num/den predicted from the closed-form factors.
    Mutant("identity-scales-swapped", MAYA,
           "_products_equal(_rows(a, l_slots), den * s_r, _rows(b, r_slots), num * s_l)",
           "_products_equal(_rows(a, l_slots), den * s_l, _rows(b, r_slots), num * s_r)",
           ("tests/test_maya.py",)),
    Mutant("identity-drops-den", MAYA,
           "den * s_r", "s_r",
           ("tests/test_maya.py",)),
    # A constant of two constant leading coefficients is a Fraction in either
    # mode (W[()] = 1 symbolically).
    Mutant("empty-constant-read-as-paramrat", MAYA,
           "(c, 1) if type(c) is Fraction else", "(c, 1) if point is not None else",
           ("tests/test_maya.py",)),
    # Exact stays exact: no float read as its binary fraction, no memo kept
    # across calls.
    Mutant("exact-accepts-float", ALGEBRA,
           "if not isinstance(v, int):", "if not isinstance(v, (int, float)):",
           ("tests/test_algebra.py",)),
    Mutant("int-state-memoised", STATES,
           "\ndef _int_state(", '\n@__import__("functools").lru_cache(maxsize=None)\ndef _int_state(',
           ("tests/test_imports.py",)),
    # The family rule: one move formula from the sign of each step, and one
    # eigenvalue formula from the sign pair.
    Mutant("second-division-h-step-sign", MAYA,
           'sh = sg if which == "first" else -sg', 'sh = sg if which == "first" else sg',
           FAMILY_TESTS),
    Mutant("step-down-adds-x-not-one-minus-x", MAYA,
           "step * d0 + (step < 0)", "step * d0",
           FAMILY_TESTS),
    Mutant("moved-drops-new-bead-at-0", MAYA,
           "lw = [p + 1 for p in lw] + ([] if 0 in rb else [0])", "lw = [p + 1 for p in lw]",
           FAMILY_TESTS),
    Mutant("eigenvalue-drops-2v", STATES,
           "(sh < 0) + 2 * s.v) * q", "(sh < 0)) * q",
           FAMILY_TESTS),
    # The lazy-row determinant (_lazy_det) on edge-stripped minors: each step
    # shifts (c0, c1) by the minor's edge powers, and the next minor's powers
    # are u_k's and u_j's less the pivot's.
    Mutant("lazy-explicit-route", WRONSKIAN,
           "k_minus, k_plus, core = (det or _lazy_det)(cols, big)",
           "k_minus, k_plus, core = (det or (lambda cols, big: _edge_split(det_poly_matrix("
           "[[EtaPoly(e) for e in row] for row in zip(*(_column(p, c0, c1, len(cols), big)"
           " for p, _, c0, c1 in cols))]).coeffs)))(cols, big)",
           ("tests/test_wronskian.py",)),
    Mutant("lazy-permutation-sign", WRONSKIAN,
           "sign = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])",
           "sign = 1",
           ("tests/test_wronskian.py",)),
    Mutant("lazy-zero-pivot", WRONSKIAN,
           "        if not pk:\n            return 0, 0, []\n", "",
           ("tests/test_wronskian.py",)),
    Mutant("lazy-combine-sign", WRONSKIAN,
           "_int_combine(pk, step(j), lead, u[j][2])",
           "_int_combine(lead, u[j][2], pk, step(j))",
           ("tests/test_wronskian.py",)),
    Mutant("lazy-minor-shift-dropped", WRONSKIAN,
           "_step(p, cs[j][0] + big * (a - b), cs[j][1] + big * (a + b), big)",
           "_step(p, *cs[j], big)",
           WRONSKIAN_TESTS),
    Mutant("lazy-prev-exponents-kept", WRONSKIAN,
           "u[j] = ak + u[j][0] - prev[0] + a, bk + u[j][1] - prev[1] + b, core",
           "u[j] = ak + u[j][0] + a, bk + u[j][1] + b, core",
           WRONSKIAN_TESTS),
    # Karatsuba over eta for the packed entries of symbolic minors: the
    # middle term, and the empty high half of a short factor.
    Mutant("karatsuba-middle-term-keeps-a1b1", ALGEBRA,
           "(m, z0, -1), (m, z2, -1))", "(m, z0, -1))",
           ("tests/test_algebra.py",)),
    Mutant("karatsuba-empty-half-unguarded", ALGEBRA,
           "return [b[0] * c for c in a] if b else []", "return [b[0] * c for c in a]",
           ("tests/test_algebra.py",)),
    # The symbolic packing bound: c1 drops by big with each derivative.
    Mutant("column-bounds-c1-unshifted", WRONSKIAN,
           "x, k1 = nxt, k1 - big", "x, k1 = nxt, k1",
           WRONSKIAN_TESTS),
    # The integer derivative rule: -big*(1-eta^2)*P' lowers eta by one.
    Mutant("step-derivative-sign", WRONSKIAN,
           "nxt[k - 1] -= big * k * c", "nxt[k - 1] += big * k * c",
           WRONSKIAN_TESTS),
    # The one slot width: the Hadamard bits, 2 more for the sign and a spare,
    # and e more for the edge step; (1-eta)^k = (-1)^k (eta-1)^k, and the
    # edge test reads p(-1) as the alternating sum.
    Mutant("width-hadamard-margin-dropped", WRONSKIAN,
           "width = (h2.bit_length() + 1) // 2 + 2 + e", "width = (h2.bit_length() + 1) // 2 + e",
           WRONSKIAN_TESTS),
    Mutant("width-edge-headroom-dropped", WRONSKIAN,
           "width = (h2.bit_length() + 1) // 2 + 2 + e", "width = (h2.bit_length() + 1) // 2 + 2",
           WRONSKIAN_TESTS),
    Mutant("edge-odd-k-minus-sign", ALGEBRA,
           "return ks[0], ks[1], cs if ks[0] % 2 == 0 else [-c for c in cs]",
           "return ks[0], ks[1], cs",
           ("tests/test_algebra.py", "tests/test_wronskian.py")),
    Mutant("edge-value-at-minus-one-sign", ALGEBRA,
           "sum(cs[::2]) - sum(cs[1::2])", "sum(cs[::2]) + sum(cs[1::2])",
           ("tests/test_algebra.py", "tests/test_wronskian.py")),
    # Symbolic states as ints at a Kronecker point: the provisional slots hold
    # every digit with a 2-bit margin, the content comes off the digits (the
    # gcd of the divisor and the packed values can exceed it), the exponents
    # carry the edge step's change, and the identity re-slots each h-row.
    Mutant("provisional-width-margin-dropped", STATES,
           "width = bound.bit_length() + 2", "width = bound.bit_length()",
           ("tests/test_properties.py",)),
    Mutant("content-from-packed-values", STATES,
           "k = gcd(den, *(d for ds in digits for d in ds))", "k = gcd(den, *p)",
           ("tests/test_properties.py",)),
    Mutant("kronecker-edge-change-dropped", WRONSKIAN,
           "(0, 0, e - sum(st[i] for st in states))", "(0, 0, 0)",
           WRONSKIAN_TESTS),
    Mutant("products-h-row-offset", ALGEBRA,
           "at, chunk = ng * (nh * k + j // lg), r[j:j + step]",
           "at, chunk = ng * (nh * k + j), r[j:j + step]",
           ("tests/test_maya.py", "tests/test_quotient_route.py")),
    # The integer Jacobi sum of the states.
    Mutant("jacobi-wrong-term", STATES,
           "head = head * (s + d * (n + k))", "head = head * (s + d * (n + k + 1))",
           ("tests/test_states.py", "tests/test_wronskian.py")),
    # The one clearing rule and the integer columns built with it.
    Mutant("clear-scales-by-lcm", ALGEBRA,
           "if type(v) is dict else v.numerator * (d // v.denominator) for v in values], d",
           "if type(v) is dict else v.numerator * d for v in values], d",
           WRONSKIAN_TESTS),
    Mutant("columns-big-is-lcm", WRONSKIAN,
           "return 2 * den, [", "return den, [",
           WRONSKIAN_TESTS),
    # The eigen identity, one packed int, and the one numerator rule of every
    # eigen level.
    Mutant("eigen-cross-term-sign", SPECTRAL,
           "+ 2 * k * by * bw * y1 * w1", "- 2 * k * by * bw * y1 * w1",
           SPECTRAL_TESTS),
    Mutant("eigen-cross-term-halved", SPECTRAL,
           "+ 2 * k * by * bw * y1 * w1", "+ k * by * bw * y1 * w1",
           SPECTRAL_TESTS),
    Mutant("eigen-w2-term-by-unsquared", SPECTRAL,
           "- k * by2 * r * w2)", "- k * by * r * w2)",
           SPECTRAL_TESTS),
    Mutant("eigen-potential-eta-sign", SPECTRAL,
           "ug - uh", "uh - ug",
           SPECTRAL_TESTS),
    Mutant("eigen-eigenvalue-subtracted", SPECTRAL,
           "(g + h) * (g + h) + e", "(g + h) * (g + h) - e",
           SPECTRAL_TESTS),
    Mutant("eigen-y2-unscaled", SPECTRAL,
           "- k * y2)", "- y2)",
           SPECTRAL_TESTS),
    Mutant("packed-zero-shared-factor", SPECTRAL,
           "k * by2 * r * w2)", "k * by2 * r * w1)",
           SPECTRAL_TESTS),
    Mutant("packed-zero-term-sign", SPECTRAL,
           "(v * r * by2 - k * y2)", "(v * r * by2 + k * y2)",
           SPECTRAL_TESTS),
    Mutant("spectrum-deletes-first-type-iii", SPECTRAL,
           "i = t.states.index(s)",
           "i = [x.type for x in t].index(StateType.III)",
           SPECTRAL_TESTS),
    Mutant("spectrum-bound-over-w-t", SPECTRAL,
           "return states + [s if pt is None else _int_state(s, pt)]", "return states",
           SPECTRAL_TESTS),
    # The quotient route on ints: -2 (log W)'' has big^2 in its denominator,
    # the higher exponent's side folds (1 -/+ eta) into its numerator and the
    # 2 of sin^2 and cos^2 into its denominator, and the derivative's scale
    # moves into the denominator.
    Mutant("deformed-potential-big-unsquared", SPECTRAL,
           "(p * p).scale(big * big)", "(p * p).scale(big)",
           QUOTIENT_TESTS),
    Mutant("aligned-fold-sides-swapped", SPECTRAL,
           "                if d > 0:\n                    na, da",
           "                if d < 0:\n                    na, da",
           QUOTIENT_TESTS),
    Mutant("aligned-half-dropped", SPECTRAL,
           "for i in range(k + 1)]), 1 << k", "for i in range(k + 1)]), 1",
           QUOTIENT_TESTS),
    Mutant("derivative-scale-dropped", SPECTRAL,
           "return _rat(d.expS, d.expC, num, den.scale(s) * den)",
           "return _rat(d.expS, d.expC, num, den * den)",
           QUOTIENT_TESTS),
    # The integer point (G, H, Q): exponents, Jacobi sums and eigenvalues
    # carry Q wherever a constant stands for a multiple of 1.
    Mutant("exponent-offset-unscaled", WRONSKIAN,
           "(2 * k_minus - off) * q", "2 * k_minus * q - off",
           WRONSKIAN_TESTS),
    Mutant("flipped-exponent-unscaled", STATES,
           "x if sign > 0 else q - x", "x if sign > 0 else 1 - x",
           ("tests/test_states.py", "tests/test_wronskian.py")),
    Mutant("eigenvalue-constant-unscaled", STATES,
           "((sg < 0) + (sh < 0) + 2 * s.v) * q", "((sg < 0) + (sh < 0) + 2 * s.v)",
           SPECTRAL_TESTS),
    Mutant("eigen-potential-unscaled", SPECTRAL,
           "ug, uh, us = 2 * g * (g - q)", "ug, uh, us = 2 * g * (g - 1)",
           SPECTRAL_TESTS),
    # The root decision on integer cores and the packing of long lists.
    Mutant("descartes-parity-flipped", ALGEBRA,
           "    if changes % 2:\n", "    if changes % 2 == 0:\n",
           ROOT_TESTS),
    Mutant("sturm-sign-correction-dropped", ALGEBRA,
           "if lb > 0 or (len(a) - db) % 2 == 0:", "if True:",
           ROOT_TESTS),
    Mutant("end-root-deflation-sign", ALGEBRA,
           "_int_exact_div(p, [-u, v])", "_int_exact_div(p, [u, v])",
           ROOT_TESTS),
    # The kernel's carries: a slot of exactly 2^(width-1) is negative and
    # carries 1, by shifts and by bytes (d >= half read as d > half in both).
    Mutant("digits-half-slot-unsigned", ALGEBRA,
           "half, mask = 1 << (width - 1), (1 << width) - 1",
           "half, mask = (1 << (width - 1)) + 1, (1 << width) - 1",
           ("tests/test_algebra.py",)),
    Mutant("pack-list-split-offset", ALGEBRA,
           "<< width * mid)", "<< width * (mid - 1))",
           ("tests/test_algebra.py",)),
)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(tests, mutant=None):
    """(outcome, seconds) of the pytest subset tests on a temporary copy of
    the checkout, with mutant applied if given: "passed", "failed" or
    "timeout"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests", "bench/golden"):
            shutil.copytree(ROOT / name, tmp / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            target = tmp / mutant.path
            target.write_text(mutant.apply(target.read_text()))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT, preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return "timeout", time.monotonic() - start
        return "passed" if proc.returncode == 0 else "failed", time.monotonic() - start


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
    control = {}
    for tests in dict.fromkeys(m.tests for m in chosen):
        outcome, seconds = run(tests)
        control[tests] = outcome == "passed"
        print("%-32s %-14s %6.1f s  %s" % ("(control)", outcome, seconds, " ".join(tests)),
              flush=True)
    survivors, uncontrolled = [], []
    for m in chosen:
        if not control[m.tests]:
            verdict, seconds = "control failed", 0.0
            uncontrolled.append(m.name)
        else:
            outcome, seconds = run(m.tests, m)
            verdict = {"passed": "SURVIVED", "failed": "killed"}.get(outcome, outcome)
            if verdict == "SURVIVED":
                survivors.append(m.name)
        print("%-32s %-14s %6.1f s  %s" % (m.name, verdict, seconds, " ".join(m.tests)),
              flush=True)
    print("%d mutation(s), %d survived%s" % (len(chosen), len(survivors),
                                           ": " + ", ".join(survivors) if survivors else ""))
    if uncontrolled:
        print("%d not run, their control failed: %s"
              % (len(uncontrolled), ", ".join(uncontrolled)))
        return 3
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
