#!/usr/bin/env python3
"""Benchmark of the mijacobi engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--out FILE]

Run from the root of a checkout.  One workload runs in this process,
single-threaded, through the public `mijacobi` functions the CLI commands
call; `all` runs every workload in a fresh process of its own, traced and
untraced, one after another, and can write the results as a BENCH_*.json.

A run selects a seeded sample of ops from the workload's golden pool
(bench/golden/) and sets up SETUP_REPEATS times (fresh import, input
selection, one warm-up op), reporting the median set-up time.  It then
times passes over the ops: always one, and more while another fits in
--seconds.  Before each op it times a fixed reference loop, which measures
how fast the shared machine runs at that moment.  Every op's result is
checked against its golden value.

With --trace 0 the run reports the end-to-end metrics: op time relative to
reference-loop time, in total (wall_rel) and per op (op_p50_rel,
op_p90_rel), set-up time and peak memory.  With --trace 1 it times
UNTRACED_PASSES untraced passes, whose raw times give the op.* metrics,
then one traced pass, and reports the per-layer metrics of the traced pass
plus the tracing overhead.  The spans of the traced pass are written to
bench/out/.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402
from common import GOLDEN_DIR, OUT_DIR, MissingEngineError, import_engine  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 21
UNTRACED_PASSES = 3  # before the traced pass of a traced run

END_TO_END = (
    ("wall_rel", "x"),
    ("op_p50_rel", "x"),
    ("op_p90_rel", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Raw times come from the untraced passes of the traced run.  They are not
# end-to-end metrics: on a shared 2-core machine their run-to-run spread (up
# to a quarter of the median) exceeds any usable bound.
PER_LAYER = (
    ("op.samples", "count"),
    ("op.p50_ms", "ms"),
    ("op.p90_ms", "ms"),
    ("op.pass_s", "s"),
    ("reference.ms", "ms"),
    ("wronskian.det_poly_matrix.calls", "count"),
    ("wronskian.det_poly_matrix.self_s", "s"),
    ("wronskian.det_poly_matrix.max_n", "rows"),
    ("wronskian.result.max_coeff_bits", "bits"),
    ("wronskian.result.param_terms", "count"),
    ("wronskian.wronskian.calls", "count"),
    ("wronskian.wronskian.total_s", "s"),
    ("wronskian.differentiate.self_s", "s"),
    ("wronskian.canonicalize.self_s", "s"),
    ("wronskian.compare_quasi.self_s", "s"),
    ("wronskian.shift_quasi.self_s", "s"),
    ("algebra.extract_edge_factors.self_s", "s"),
    ("algebra.proportional.self_s", "s"),
    ("algebra.parampoly_gcd.calls", "count"),
    ("algebra.parampoly_gcd.self_s", "s"),
    ("algebra.sturm_count.calls", "count"),
    ("algebra.sturm_count.self_s", "s"),
    ("spectral.QuasiRat.make.calls", "count"),
    ("spectral.QuasiRat.make.self_s", "s"),
    ("spectral.QuasiRat.make.reduced_ratio", "ratio"),
    ("spectral.differentiate_rat.self_s", "s"),
    ("spectral.apply_hamiltonian.total_s", "s"),
    ("spectral.check_nonsingular.calls", "count"),
    ("spectral.check_nonsingular.true_ratio", "ratio"),
    ("states.make_state.calls", "count"),
    ("states.make_state.self_s", "s"),
    ("maya.reduce_tuple.self_s", "s"),
    ("maya.move_division.calls", "count"),
    ("maya.move_division.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Operands of the reference loop, fixed once and for all.
_REF = random.Random(7)
REF_A = [Fraction(_REF.randint(-999, 999), _REF.randint(1, 99)) for _ in range(12)]
REF_B = [Fraction(_REF.randint(-999, 999), _REF.randint(1, 99)) for _ in range(12)]


def reference_loop():
    """Fixed pure-Python Fraction work, about 3 ms: four products of two
    degree-11 polynomials.  Timed before every op, it measures how fast the
    machine runs at that moment; the relative metrics divide by it."""
    for _ in range(4):
        out = [Fraction(0)] * (len(REF_A) + len(REF_B) - 1)
        for i, a in enumerate(REF_A):
            for j, b in enumerate(REF_B):
                out[i + j] += a * b


def load_pool(workload):
    with open(GOLDEN_DIR / ("%s.json" % workload)) as f:
        return json.load(f)["ops"]


def setup(workload, seed):
    """Import the engine, build the op list and run one warm-up op."""
    mj = import_engine()
    chosen = workloads.select_ops(load_pool(workload), random.Random(seed))
    ops = [(workloads.parse_spec(mj, op["spec"]), op["result"]) for op in chosen]
    cheapest = min(range(len(chosen)), key=lambda i: chosen[i]["ms"])
    workloads.run_op(mj, workload, ops[cheapest][0])
    return mj, ops


class Run:
    """Op and reference-loop times and failure counts of one workload run."""

    def __init__(self, mj, workload, ops):
        self.mj, self.workload, self.ops = mj, workload, ops
        self.latencies, self.reference = [], []
        self.attempted = self.failed = 0
        self.errors = []

    def one_pass(self, call=workloads.run_op):
        """Time every op once, each after one reference loop; check the
        results after the clock stops.  Returns (op time, loop time)."""
        clock = time.perf_counter
        latencies, reference, outcomes = [], [], []
        for args, _ in self.ops:
            t0 = clock()
            reference_loop()
            t1 = clock()
            try:
                outcome = call(self.mj, self.workload, args)
            except Exception as exc:  # an op that raises counts as failed
                outcome = exc
            latencies.append(clock() - t1)
            reference.append(t1 - t0)
            outcomes.append(outcome)
        self.latencies += latencies
        self.reference += reference
        for (args, golden), outcome in zip(self.ops, outcomes):
            self.attempted += 1
            if isinstance(outcome, Exception):
                problem = "raised %r" % outcome
            elif not outcome[0]:
                problem = "identity failed or wrong mode"
            elif not workloads.same_result(self.mj, self.workload, outcome[1], golden):
                problem = "result differs from golden value"
            else:
                continue
            self.failed += 1
            self.errors.append("%s: %s" % (args["tuple"], problem))
        return sum(latencies), sum(reference)


def measure(workload, seed, seconds, trace):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mj, ops = setup(workload, seed)
        setups.append(time.perf_counter() - t0)
    run = Run(mj, workload, ops)
    start = time.perf_counter()
    if not trace:
        passes = 1
        run.one_pass()
        while (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
            run.one_pass()
            passes += 1
        ref = statistics.mean(run.reference)
        metrics = {
            "wall_rel": sum(run.latencies) / sum(run.reference),
            "op_p50_rel": statistics.median(run.latencies) / ref,
            "op_p90_rel": statistics.quantiles(run.latencies, n=10)[8] / ref,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        notes = ["samples: %d op runs in %d passes" % (len(run.latencies), passes)]
    else:
        untraced = [run.one_pass() for _ in range(UNTRACED_PASSES)]
        metrics = {
            "op.samples": len(run.latencies),
            "op.p50_ms": statistics.median(run.latencies) * 1e3,
            "op.p90_ms": statistics.quantiles(run.latencies, n=10)[8] * 1e3,
            "op.pass_s": statistics.median(ops_s for ops_s, _ in untraced),
            "reference.ms": statistics.mean(run.reference) * 1e3,
        }
        tracer = Tracer()
        tracer.install()
        try:
            traced_ops, traced_ref = run.one_pass(tracer.root(workloads.run_op))
        finally:
            tracer.uninstall()
        stats = tracer.span_stats()
        metrics.update((name, tracer.metric(name, stats)) for name, _ in PER_LAYER
                       if name not in metrics and name != "trace.overhead_ratio")
        untraced_rel = sum(o for o, _ in untraced) / sum(r for _, r in untraced)
        metrics["trace.overhead_ratio"] = traced_ops / traced_ref / untraced_rel
        units = dict(PER_LAYER)
        path = OUT_DIR / ("spans-%s-seed%d.jsonl.gz" % (workload, seed))
        tracer.write(path)
        notes = ["spans: %d written to %s" % (len(tracer.start), path)]
    notes.append("fail_ratio: %d/%d" % (run.failed, run.attempted))
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, notes


def run_one(args):
    warnings.simplefilter("ignore", RuntimeWarning)
    try:
        run, metrics, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    except (MissingEngineError, FileNotFoundError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    for err in run.errors[:10]:
        print("FAILED %s" % err, file=sys.stderr)
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for name, m in metrics.items():
        print("  %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    for note in notes:
        print("  " + note)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    report = {"seed": args.seed, "seconds": args.seconds,
              "python": sys.version.split()[0], "workloads": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        entry = report["workloads"][workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status = status or (0 if result["correct"] else 1)
            entry["per_layer" if trace else "end_to_end"] = result
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        print("wrote %s" % args.out)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the results here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
