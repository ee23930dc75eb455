"""Build the golden op pools of the benchmark.

    python3 bench/make_golden.py [WORKLOAD ...]

For each workload, draws distinct op specs from a fixed pool seed, runs
every op through the public API, keeps the first POOL_SIZE[workload] ops
under MAX_OP_MS and writes their specs and results to
bench/golden/<workload>.json, costliest op first.  The stored
results are the golden values each benchmark run is checked against, so
regenerate the pools only on a commit whose results are trusted.  Each op
also keeps its cost in milliseconds, the fastest of ROUNDS runs; the cost
order sets the strata of workloads.select_ops.
"""

import json
import random
import sys
import time
import warnings

from common import GOLDEN_DIR, import_engine
import workloads

POOL_SEED = 20131115
ROUNDS = 3
SPARE = 10  # drawn beyond POOL_SIZE, to replace ops over MAX_OP_MS


def build_pool(mj, workload):
    rng = random.Random("%s/%d" % (workload, POOL_SEED))
    specs, seen = [], set()
    while len(specs) < workloads.POOL_SIZE[workload] + SPARE:
        spec = workloads.gen_spec(mj, workload, rng)
        key = json.dumps(spec, sort_keys=True)
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    # An op's cost is its fastest of ROUNDS runs, a pool apart in time, so
    # that a slow spell of a shared machine does not misplace it in the
    # cost order.  Every round must give the same result.
    best, results = [float("inf")] * len(specs), [None] * len(specs)
    for _ in range(ROUNDS):
        for i, spec in enumerate(specs):
            args = workloads.parse_spec(mj, spec)
            t0 = time.perf_counter()
            ok, result = workloads.run_op(mj, workload, args)
            best[i] = min(best[i], time.perf_counter() - t0)
            if not ok or results[i] not in (None, result):
                raise SystemExit("op failed while building the pool: %s" % spec)
            results[i] = result
    kept = [i for i in range(len(specs)) if best[i] * 1e3 <= workloads.MAX_OP_MS]
    kept = kept[:workloads.POOL_SIZE[workload]]
    if len(kept) < workloads.POOL_SIZE[workload]:
        raise SystemExit("%s: too few ops under %d ms" % (workload, workloads.MAX_OP_MS))
    kept.sort(key=lambda i: -best[i])
    return {"workload": workload, "pool_seed": POOL_SEED,
            "ops": [{"spec": specs[i], "result": results[i],
                     "ms": round(best[i] * 1e3, 1)} for i in kept]}


def main(argv):
    sys.dont_write_bytecode = True
    warnings.simplefilter("ignore", RuntimeWarning)
    mj = import_engine()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        t0 = time.perf_counter()
        pool = build_pool(mj, workload)
        path = GOLDEN_DIR / ("%s.json" % workload)
        path.write_text(json.dumps(pool, indent=None, separators=(",", ":")) + "\n")
        print("%s: %d ops in %.1f s -> %s"
              % (workload, len(pool["ops"]), time.perf_counter() - t0, path))


if __name__ == "__main__":
    main(sys.argv[1:])
