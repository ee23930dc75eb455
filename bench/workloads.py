"""Workloads of the mijacobi benchmark.

Each workload is a list of ops.  An op is a JSON-able spec (tuple as a
comma-separated state list, rationals as "p/q" strings) that is parsed into
engine objects before timing starts, so the engine only ever receives the
generated inputs.  Every op's result is encoded in a plain form that can be
stored as a golden value and compared by value later.
"""

from fractions import Fraction

WORKLOADS = ("point-reduce", "symbolic-move", "spectral-point")
TARGETS = ("IN", "I3", "2N", "23")

# Expected verification mode of each workload's reports.
MODE = {"point-reduce": "instantiated", "symbolic-move": "symbolic"}

# Largest reduced tuple drawn for point-reduce.  Tuples reducing past this
# are redrawn: at a point, 9-state reductions take about 1.3 s each and
# 10-state ones up to 7 s, near or over MAX_OP_MS.
MAX_REDUCED = 8

# Stratified sampling of a golden pool (see select_ops): POOL_SIZE ops per
# pool, the ALWAYS costliest in every sample, one of each GROUP of the rest,
# so a sample has ALWAYS + (POOL_SIZE - ALWAYS) // GROUP ops, 7-10 s of work
# at commit 438fb44.
POOL_SIZE = {"point-reduce": 200, "symbolic-move": 200, "spectral-point": 400}
ALWAYS = 1
GROUP = 5

# Ops slower than this at pool build are left out of the pools: a run times
# 3-4 passes of about 10 s, and I2,II2,III2 alone (11 s) would fill a pass.
MAX_OP_MS = 1500


# -- input generation -------------------------------------------------------


def gen_point(mj, rng):
    """A seeded generic rational point of small height."""
    while True:
        g = Fraction(rng.randint(3, 40), rng.randint(2, 7))
        h = Fraction(rng.randint(3, 40), rng.randint(2, 7))
        if mj.is_generic(g, h):
            return g, h


def gen_tuple(mj, rng, lo, hi, imax):
    """Distinct states of all four types, lo..hi of them, indices 0..imax."""
    size = rng.randint(lo, hi)
    types = list(mj.StateType)
    states = set()
    while len(states) < size:
        states.add(mj.State(rng.choice(types), rng.randint(0, imax)))
    return mj.StateTuple(sorted(states, key=mj.State.sort_key))


def gen_spec(mj, workload, rng):
    """One random op spec for the workload."""
    if workload == "point-reduce":
        while True:
            t = gen_tuple(mj, rng, 4, 7, 4)
            target = rng.choice(TARGETS)
            if len(mj.reduce_tuple(t, target)[0]) <= MAX_REDUCED:
                break
        return {"tuple": t.spec(), "target": target,
                "point": point_spec(gen_point(mj, rng))}
    if workload == "symbolic-move":
        # Indices stop at 2: with 3, moves of 3-state tuples give 4-state
        # symbolic identities of up to 5 s each, and a 100-op run takes 50 s.
        t = gen_tuple(mj, rng, 1, 3, 2)
        return {"tuple": t.spec(), "which": rng.choice(["first", "second"]),
                "dir": rng.choice(["left", "right"])}
    if workload == "spectral-point":
        t = gen_tuple(mj, rng, 1, 3, 2)
        return {"tuple": t.spec(), "point": point_spec(gen_point(mj, rng))}
    raise ValueError("unknown workload %r" % workload)


def point_spec(p):
    return [str(p[0]), str(p[1])]


def parse_spec(mj, spec):
    """Engine arguments of an op: the spec with tuple and point parsed."""
    args = dict(spec)
    args["tuple"] = mj.StateTuple(mj.parse_state(tok)
                                  for tok in spec["tuple"].split(","))
    if "point" in spec:
        args["point"] = tuple(Fraction(v) for v in spec["point"])
    return args


# -- running one op -----------------------------------------------------------


def run_op(mj, workload, args):
    """Run one op through the public API; returns (ok, encoded result).

    ok is False when the engine reports a failed identity or ran in another
    mode than the workload's.  Exceptions propagate to the caller.
    """
    t = args["tuple"]
    if workload == "spectral-point":
        return _spectral_checks(mj, t, args["point"])
    if workload == "point-reduce":
        rep = mj.verify_reduction(t, args["target"], instantiate=args["point"])
    else:
        rep = mj.verify_move_identity(t, args["which"], args["dir"])
    ok = bool(rep.proportional) and rep.mode == MODE[workload]
    return ok, {"tuple_after": rep.tuple_after.spec(),
                "ledger": _ledger_enc(rep.ledger),
                "constant": _constant_enc(mj, rep.constant)}


def _spectral_checks(mj, t, point):
    """The checks `spectrum T --up-to 2 --verify --g --h` performs.

    A singular potential is a recorded result, not a failure.
    """
    g, h = point
    nonsingular = mj.check_nonsingular(t, g, h)
    pot = mj.deformed_potential(t, inst=point)
    checks = {}
    for lab, _ in mj.permitted_spectrum(t, 2):
        if lab.kind == "bound":
            ok, _ = mj.verify_eigenfunction(t, lab.index, inst=point)
            checks["eigenfunction " + lab.label()] = ok
            continue
        for i, s in enumerate(t):
            if s.type is mj.StateType.III and s.v == lab.index:
                f, ev = mj.extra_eigenstate(t, i, inst=point)
                res = mj.apply_hamiltonian(pot, f).sub(f.scale(ev.eval_at(g, h)))
                checks["extra state " + lab.label()] = res.is_zero()
    return all(checks.values()), {"nonsingular": nonsingular, "checks": checks}


# -- result encoding and golden comparison ----------------------------------


def _affine_enc(a):
    return [a.cg, a.ch, str(a.c0)]


def _ledger_enc(led):
    return [led.dg, led.dh, _affine_enc(led.prefS), _affine_enc(led.prefC)]


def _parampoly_enc(p):
    return [[i, j, str(c)] for (i, j), c in sorted(p.terms.items())]


def _constant_enc(mj, c):
    """A proportionality constant as {"num", "den"} ParamPoly term lists."""
    if c is None:
        return None
    if isinstance(c, mj.ParamRat):
        num, den = c.num, c.den
    elif isinstance(c, mj.ParamPoly):
        num, den = c, mj.ParamPoly.const(1)
    else:
        num, den = mj.ParamPoly.const(c), mj.ParamPoly.const(1)
    return {"num": _parampoly_enc(num), "den": _parampoly_enc(den)}


def _parampoly_dec(mj, terms):
    return mj.ParamPoly({(i, j): Fraction(c) for i, j, c in terms})


def same_constant(mj, a, b):
    """Value equality of two encoded constants: num*den' == num'*den.

    Deliberately not a comparison of normal forms, which may change.
    """
    if a is None or b is None:
        return a is b
    return (_parampoly_dec(mj, a["num"]) * _parampoly_dec(mj, b["den"])
            == _parampoly_dec(mj, b["num"]) * _parampoly_dec(mj, a["den"]))


def same_result(mj, workload, got, want):
    """True iff an op's encoded result equals its golden value."""
    if workload == "spectral-point":
        return got == want
    return (got["tuple_after"] == want["tuple_after"]
            and got["ledger"] == want["ledger"]
            and same_constant(mj, got["constant"], want["constant"]))


# -- seeded selection from the golden pool -----------------------------------


def select_ops(pool, rng):
    """Stratified seeded sample of a golden pool.

    The pool is ordered by cost, costliest first.  Its first ALWAYS ops run
    in every sample; the rest is cut into consecutive strata of GROUP ops
    and one op is drawn from each.  Every seed then sees the same cost
    profile, while the inputs themselves differ from seed to seed.
    """
    rest = pool[ALWAYS:]
    chosen = pool[:ALWAYS] + [rest[k + rng.randrange(GROUP)]
                              for k in range(0, len(rest) - GROUP + 1, GROUP)]
    rng.shuffle(chosen)
    return chosen
