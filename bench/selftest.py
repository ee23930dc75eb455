#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the golden-value check catches a wrong constant, that every
traced span fires on exactly the workloads the per-module map predicts, that
the benchmark leaves src/ byte-identical, and that run.py fails without
printing a result in a directory that holds only the benchmark.  Takes about
half a minute.
"""

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402
from common import BENCH_DIR, OUT_DIR, ROOT, SRC, import_engine  # noqa: E402
from run import Run, load_pool  # noqa: E402
from tracer import TRACED, QUASIRAT_MAKE, Tracer  # noqa: E402

PR, SM, SP = workloads.WORKLOADS
ALL = {PR, SM, SP}

# Workloads on which each span must fire; on the others it must not.
PREDICTED = {
    "states.make_state": ALL,
    "wronskian.wronskian": ALL,
    "wronskian.differentiate": ALL,
    "wronskian.det_poly_matrix": ALL,
    "wronskian.canonicalize": ALL,
    "wronskian.compare_quasi": {PR, SM},
    "wronskian.shift_quasi": {SM},
    "algebra.extract_edge_factors": ALL,
    "algebra.proportional": {PR, SM},
    "algebra.parampoly_gcd": {SM},
    "algebra.sturm_count": {SP},
    "maya.reduce_tuple": {PR},
    "maya.move_division": {PR, SM},
    "spectral.differentiate_rat": {SP},
    "spectral.apply_hamiltonian": {SP},
    "spectral.check_nonsingular": {SP},
    QUASIRAT_MAKE: {SP},
}


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        h.update(str(path.relative_to(SRC)).encode())
        if path.is_file():
            h.update(path.read_bytes())
    return h.hexdigest()


def cheap_ops(mj, workload, count=25):
    """A spread of ops from the cheaper half of the pool."""
    pool = load_pool(workload)
    half = pool[len(pool) // 2:]
    picked = half[::max(1, len(half) // count)][:count]
    return [(workloads.parse_spec(mj, op["spec"]), op["result"]) for op in picked]


def scaled(constant, factor_num, factor_den):
    """An encoded constant with num and den scaled by the given factors."""
    def scale(terms, k):
        return [[i, j, str(Fraction(c) * k)] for i, j, c in terms]
    return {"num": scale(constant["num"], factor_num),
            "den": scale(constant["den"], factor_den)}


def check_golden(mj, problems):
    for workload in (PR, SM):
        args, golden = cheap_ops(mj, workload, 1)[0]
        ok, got = workloads.run_op(mj, workload, args)
        if not (ok and workloads.same_result(mj, workload, got, golden)):
            problems.append("%s: correct op does not match its golden value" % workload)
        rescaled = dict(golden, constant=scaled(golden["constant"], 3, 3))
        if not workloads.same_result(mj, workload, got, rescaled):
            problems.append("%s: same constant in another form rejected" % workload)
        wrong = dict(golden, constant=scaled(golden["constant"], 2, 1))
        if workloads.same_result(mj, workload, got, wrong):
            problems.append("%s: wrong golden constant not caught" % workload)

        def corrupt(mj_, workload_, args_):
            ok_, res = workloads.run_op(mj_, workload_, args_)
            return ok_, dict(res, constant=scaled(res["constant"], 2, 1))

        run = Run(mj, workload, [(args, golden)])
        run.one_pass(corrupt)
        if run.failed != 1:
            problems.append("%s: run with a wrong constant not counted failed" % workload)


def check_spans(mj, problems):
    for workload in workloads.WORKLOADS:
        run = Run(mj, workload, cheap_ops(mj, workload))
        tracer = Tracer()
        tracer.install()
        try:
            run.one_pass(tracer.root(workloads.run_op))
        finally:
            tracer.uninstall()
        if run.failed:
            problems.append("%s: %s" % (workload, run.errors))
        stats = tracer.span_stats()
        traced = {"%s.%s" % pair for pair in TRACED} | {QUASIRAT_MAKE}
        if traced != set(PREDICTED):
            problems.append("span map and traced functions disagree")
        for span, expected in PREDICTED.items():
            calls = stats.get(span, {}).get("calls", 0)
            if (calls > 0) != (workload in expected):
                problems.append("%s: %s fired %d times, predicted %s"
                                % (workload, span, calls,
                                   "some" if workload in expected else "none"))
        terms = tracer.metric("wronskian.result.param_terms", stats)
        if (terms > 0) != (workload == SM):
            problems.append("%s: param_terms = %d" % (workload, terms))


def check_bare_directory(problems):
    """run.py in a directory holding only BENCHMARK.json and bench/."""
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", PR, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("bare directory: exit %d, stdout %r"
                        % (proc.returncode, proc.stdout[-200:]))


def main():
    warnings.simplefilter("ignore", RuntimeWarning)
    before = src_digest()
    mj = import_engine()
    problems = []
    for check in (check_golden, check_spans):
        check(mj, problems)
    check_bare_directory(problems)
    if src_digest() != before:
        problems.append("src/ changed during the benchmark")
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    print(json.dumps({"problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
