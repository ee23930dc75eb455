"""Command-line front end.

Commands
--------
poly TUPLE            exponents, degree, and coefficients of the Wronskian's
                      polynomial part
maya TUPLE            ASCII rendering of both Maya diagrams plus the bead sets
reduce TUPLE          reduction to a two-family normal form with the ledger
spectrum TUPLE        permitted energy labels with symbolic eigenvalues
verify-identity TUPLE single division-move identity check
equivalent T1 T2      compare canonical forms of two tuples

Tuples are comma-separated states like "I1,II2,III1" (types I, II, III, N
with nonnegative indices); the empty string is the empty tuple.  A tuple has
at most MAX_STATES = 12 states, and every state index and --up-to is at most
MAX_INDEX = 40; larger input is a parse error (exit 2).  The work grows
steeply with both: symbolic poly I40 takes about 0.7 s, the symbolic Wronskian
of I80 (past the limit, through the API) about 30 s, and poly I99999 does
not finish in minutes.  verify-identity --random K checks at most
MAX_RANDOM = 1000 identities: a symbolic one takes 0.05-0.1 s on average
(200 seed-0 draws, at most 2.5 s for one), so K = 1000 runs one to two
minutes, and K above it is a parse error (exit 2).  Times are CPU time on
Python 3.11 in a 2-core container.  The limits
hold for the command line only; the API takes any size.  Rationals on the
command line are "p/q" or decimals; a negative one is written --g=-7/3, since
argparse reads --g -7/3 as a flag without its value (exit 2).  The options
--json, --latex, --g, --h and --seed come before the command (mijacobi --g
37/10 --h 52/7 spectrum T --verify); after it they are a parse error (exit
2), and no option may be abbreviated.  A point --g/--h must be generic; maya
and equivalent read none and reject one.  Output is UTF-8 text on stdout (JSON
with --json, LaTeX with --latex where supported); errors go to stderr.

Exit codes: 0 success, 2 parse error, 3 invalid tuple, 4 internal identity
failure, 5 non-generic parameters.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import warnings
from fractions import Fraction

from .algebra import ParamPoly, ParamRat
from .maya import (
    ReductionTarget,
    canonical_form,
    reduce_tuple,
    render_diagram,
    tuple_to_diagrams,
    verify_move_identity,
    verify_reduction,
)
from .spectral import permitted_spectrum, verify_spectrum
from .states import (
    DuplicateStatesError,
    NonGenericParametersError,
    as_state_tuple,
    random_tuple,
    require_generic,
)
from .wronskian import wronskian


MAX_STATES = 12
MAX_INDEX = 40
MAX_RANDOM = 1000


class TupleParseError(ValueError):
    pass


class IdentityMismatchError(RuntimeError):
    pass


def parse_tuple_spec(text):
    try:
        t = as_state_tuple(text)
    except DuplicateStatesError:
        raise
    except ValueError as e:
        raise TupleParseError(str(e)) from None
    if len(t) > MAX_STATES:
        raise TupleParseError("a tuple has at most %d states, got %d" % (MAX_STATES, len(t)))
    for s in t:
        if s.v > MAX_INDEX:
            raise TupleParseError("state indices are at most %d, got %s" % (MAX_INDEX, s))
    return t


def parse_rational(text):
    """A signed "p/q", integer or decimal; not Fraction's exponents, where
    "1e5000" overflows the int conversion limit and larger ones run long."""
    if not re.fullmatch(r"\s*[-+]?(\d+(/\d+)?|\d*\.\d+|\d+\.)\s*", text):
        raise TupleParseError("bad rational %r: expected p/q or a decimal" % text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise TupleParseError("bad rational %r: %s" % (text, e)) from None


# -- JSON encoding ----------------------------------------------------------
# rationals: "p/q" strings; ParamPoly: [[i, j, "p/q"], ...] sorted by (i, j);
# AffineExp: {"g": int, "h": int, "c": "p/q"}; EtaPoly: [[k, quotient], ...] by
# ascending power; quotient: {"num": ParamPoly, "den": ParamPoly}, which holds a
# Fraction or ParamPoly coefficient (den 1) or a Fraction or ParamRat constant.


def rational_json(q):
    return str(Fraction(q))


def parampoly_json(p):
    return [[i, j, rational_json(c)] for (i, j), c in sorted(p.terms.items())]


def paramrat_json(r):
    if not isinstance(r, ParamRat):
        r = ParamRat(r)
    return {"num": parampoly_json(r.num), "den": parampoly_json(r.den)}


def affine_json(a):
    return {"g": a.cg, "h": a.ch, "c": rational_json(a.c0)}


def etapoly_json(p):
    return [[k, {"num": parampoly_json(ParamPoly._coerce(c)), "den": [[0, 0, "1"]]}]
            for k, c in enumerate(p.coeffs) if c]


def ledger_json(led):
    return {"dg": led.dg, "dh": led.dh,
            "prefS": affine_json(led.prefS), "prefC": affine_json(led.prefC)}


def constant_json(c):
    if c is None:
        return None
    return paramrat_json(c)


def coeff_latex(c):
    return c.latex() if hasattr(c, "latex") else str(c)


def quasi_latex(q):
    terms = []
    for k in range(q.poly.degree, -1, -1):
        c = q.poly.coeff(k)
        if not c:
            continue
        mono = "" if k == 0 else (r"\eta" if k == 1 else r"\eta^{%d}" % k)
        terms.append(r"\left(%s\right)%s" % (coeff_latex(c), mono))
    return r"(\sin x)^{%s}\,(\cos x)^{%s}\left[%s\right]" % (
        q.expS.latex(), q.expC.latex(), " + ".join(terms))


def tuple_latex(t):
    return r"\,".join(s.latex() for s in t)


def _emit(args, report, lines, latex=None):
    """Print the format args asks for, built alone: report() as JSON,
    latex() where the command has one, or the text lines()."""
    if getattr(args, "json", False):
        print(json.dumps(report()))
    elif getattr(args, "latex", False) and latex is not None:
        print(latex())
    else:
        for line in lines():
            print(line)
    return 0


def _instantiation(args):
    """The generic point given by --g/--h, or None when neither is given."""
    if args.g is None and args.h is None:
        return None
    if args.command in ("maya", "equivalent"):  # they read no point
        raise TupleParseError("%s takes no --g/--h" % args.command)
    if args.g is None or args.h is None:
        raise TupleParseError("--g and --h must be given together")
    return require_generic(parse_rational(args.g), parse_rational(args.h))


# -- commands ---------------------------------------------------------------


def cmd_poly(args):
    t = parse_tuple_spec(args.tuple)
    inst = args.inst
    w = wronskian(t, inst=inst)
    return _emit(args, lambda: {
        "command": "poly",
        "tuple": [str(s) for s in t],
        "expS": affine_json(w.expS),
        "expC": affine_json(w.expC),
        "degree": w.poly.degree,
        "coefficients": etapoly_json(w.poly),
        **({} if inst is None else {"g": rational_json(inst[0]), "h": rational_json(inst[1])}),
    }, lambda: [
        "tuple  : %s" % t,
        "expS   : %s" % w.expS,
        "expC   : %s" % w.expC,
        "degree : %d" % w.poly.degree,
    ] + ["eta^%-2d : %s" % (k, c) for k, c in enumerate(w.poly.coeffs) if c],
        lambda: r"W\left[%s\right] = %s" % (tuple_latex(t), quasi_latex(w)))


def cmd_maya(args):
    t = parse_tuple_spec(args.tuple)
    pair = tuple_to_diagrams(t)
    return _emit(args, lambda: {
        "command": "maya",
        "tuple": [str(s) for s in t],
        "first": {"leftWhite": list(pair.first.left_white),
                  "rightBlack": list(pair.first.right_black),
                  "render": render_diagram(pair.first)},
        "second": {"leftWhite": list(pair.second.left_white),
                   "rightBlack": list(pair.second.right_black),
                   "render": render_diagram(pair.second)},
    }, lambda: [
        "tuple : %s" % t,
        "first : %s   (left white: III %s | right black: N %s)" % (
            render_diagram(pair.first), list(pair.first.left_white),
            list(pair.first.right_black)),
        "second: %s   (left white: II %s | right black: I %s)" % (
            render_diagram(pair.second), list(pair.second.left_white),
            list(pair.second.right_black)),
    ])


def cmd_reduce(args):
    t = parse_tuple_spec(args.tuple)
    target = ReductionTarget(args.target)
    reduced, ledger = reduce_tuple(t, target)
    rep = verify_reduction(t, target, instantiate=args.inst) if args.verify else None
    if rep is not None and not rep.proportional:
        raise IdentityMismatchError(
            "reduction identity failed for %s -> %s: %s" % (t, reduced, rep.detail))
    return _emit(args, lambda: {
        "command": "reduce",
        "tuple": [str(s) for s in t],
        "target": target.value,
        "reduced": [str(s) for s in reduced],
        "ledger": ledger_json(ledger),
        **({} if rep is None else {"verify": {
            "mode": rep.mode, "proportional": rep.proportional,
            "constant": constant_json(rep.constant),
            **({} if rep.point is None else {"point": [rational_json(v) for v in rep.point]}),
        }}),
    }, lambda: [
        "input   : %s" % t,
        "target  : %s" % target.value,
        "reduced : %s" % reduced,
        "shift   : dg=%+d dh=%+d" % (ledger.dg, ledger.dh),
        "prefS   : %s" % ledger.prefS,
        "prefC   : %s" % ledger.prefC,
    ] + ([] if rep is None else
         ["verify  : proportional, constant = %s (%s)" % (rep.constant, rep.mode)]),
        lambda: (r"W\left[%s\right](x;g,h) \propto (\sin x)^{%s}(\cos x)^{%s}\,"
                 r"W\left[%s\right](x;g%+d,h%+d)"
                 % (tuple_latex(t), ledger.prefS.latex(), ledger.prefC.latex(),
                    tuple_latex(reduced), ledger.dg, ledger.dh)))


def cmd_spectrum(args):
    t = parse_tuple_spec(args.tuple)
    if args.up_to < 0:
        raise TupleParseError("--up-to must be nonnegative, got %d" % args.up_to)
    if args.up_to > MAX_INDEX:
        raise TupleParseError("--up-to is at most %d, got %d" % (MAX_INDEX, args.up_to))
    spectrum = permitted_spectrum(t, args.up_to)
    nonsingular, checks = None, {}
    if args.verify:
        inst = args.inst
        if inst is None:
            raise TupleParseError("--verify for spectrum needs --g and --h")
        # a singular potential is a property of the tuple at this point,
        # not a failed identity, so only the eigenfunction checks gate exit 4;
        # bound levels are checked up to E_2
        nonsingular, checks = verify_spectrum(t, min(args.up_to, 2), *inst)
        if not all(checks.values()):
            raise IdentityMismatchError("spectrum verification failed: %s" % checks)
    return _emit(args, lambda: {
        "command": "spectrum",
        "tuple": [str(s) for s in t],
        "upTo": args.up_to,
        "levels": [{"label": lab.label(), "kind": lab.kind, "index": lab.index,
                    "energy": parampoly_json(ev)} for lab, ev in spectrum],
        **({"verify": {"nonsingular": nonsingular, **checks}} if args.verify else {}),
    }, lambda: ["tuple : %s" % t] + [
        "%-6s (%s, index %d)  E = %s" % (lab.label(), lab.kind, lab.index, ev)
        for lab, ev in spectrum
    ] + ([] if not args.verify else
         ["%-28s: %s" % ("nonsingular", "yes" if nonsingular else "no")]
         + ["check %-22s: pass" % name for name in checks]))


def cmd_verify_identity(args):
    if args.random < 0:
        raise TupleParseError("--random must be nonnegative, got %d" % args.random)
    if args.random > MAX_RANDOM:
        raise TupleParseError("--random is at most %d, got %d" % (MAX_RANDOM, args.random))
    if args.random:
        return _verify_random(args)
    t = parse_tuple_spec(args.tuple)
    rep = verify_move_identity(t, args.which, args.dir, instantiate=args.inst)
    if not rep.proportional:
        raise IdentityMismatchError("move identity failed: %s" % rep.detail)
    return _emit(args, lambda: {
        "command": "verify-identity",
        "tuple": [str(s) for s in t],
        "move": {"which": args.which, "dir": args.dir},
        "moved": [str(s) for s in rep.tuple_after],
        "ledger": ledger_json(rep.ledger),
        "mode": rep.mode,
        "proportional": rep.proportional,
        "constant": constant_json(rep.constant),
    }, lambda: [
        "tuple : %s" % t,
        "move  : %s division, %s" % (args.which, args.dir),
        "moved : %s" % rep.tuple_after,
        "shift : dg=%+d dh=%+d   prefS: %s   prefC: %s" % (
            rep.ledger.dg, rep.ledger.dh, rep.ledger.prefS, rep.ledger.prefC),
        "result: proportional (constant = %s, %s)" % (rep.constant, rep.mode),
    ])


def _verify_random(args):
    rng = random.Random(args.seed)
    results = []
    for _ in range(args.random):
        t = random_tuple(rng, 4, 4)
        which = rng.choice(["first", "second"])
        direction = rng.choice(["left", "right"])
        rep = verify_move_identity(t, which, direction, instantiate=args.inst)
        if not rep.proportional:
            raise IdentityMismatchError("random move identity failed on %s" % t)
        results.append((t, which, direction, rep))
    return _emit(args, lambda: {
        "command": "verify-identity", "random": args.random, "seed": args.seed,
        "results": [{"tuple": [str(s) for s in t], "move": {"which": which, "dir": direction},
                     "mode": rep.mode, "proportional": rep.proportional}
                    for t, which, direction, rep in results],
    }, lambda: ["%3d/%d random move identities verified" % (len(results), args.random)])


def cmd_equivalent(args):
    t1 = parse_tuple_spec(args.tuple)
    t2 = parse_tuple_spec(args.tuple2)
    r1, l1 = canonical_form(t1)
    r2, l2 = canonical_form(t2)
    same = r1 == r2
    return _emit(args, lambda: {
        "command": "equivalent",
        "tuple1": [str(s) for s in t1],
        "tuple2": [str(s) for s in t2],
        "canonical1": [str(s) for s in r1],
        "canonical2": [str(s) for s in r2],
        "ledger1": ledger_json(l1),
        "ledger2": ledger_json(l2),
        "equivalent": same,
    }, lambda: [
        "tuple 1    : %s  ->  %s" % (t1, r1),
        "tuple 2    : %s  ->  %s" % (t2, r2),
        "canonical forms %s" % ("AGREE (same two-family normal form)" if same else "differ"),
    ] + (["net shift 1: dg=%+d dh=%+d; net shift 2: dg=%+d dh=%+d"
          % (l1.dg, l1.dh, l2.dg, l2.dh)] if same else []))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mijacobi", allow_abbrev=False,
        description="Exact multi-indexed Jacobi polynomial engine")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--latex", action="store_true", help="emit LaTeX")
    parser.add_argument("--g", help="instantiate g at this rational (p/q)")
    parser.add_argument("--h", help="instantiate h at this rational (p/q)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", allow_abbrev=False, help="Wronskian polynomial part of a tuple")
    p.add_argument("tuple")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("maya", allow_abbrev=False, help="Maya diagrams of a tuple")
    p.add_argument("tuple")
    p.set_defaults(func=cmd_maya)

    p = sub.add_parser("reduce", allow_abbrev=False, help="reduce to a two-family normal form")
    p.add_argument("tuple")
    p.add_argument("--target", default="IN", choices=[t.value for t in ReductionTarget])
    p.add_argument("--verify", action="store_true",
                   help="verify the reduction identity end to end")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("spectrum", allow_abbrev=False, help="permitted energy labels")
    p.add_argument("tuple")
    p.add_argument("--up-to", type=int, default=6, dest="up_to")
    p.add_argument("--verify", action="store_true",
                   help="verify eigenfunctions at the instantiation")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify-identity", allow_abbrev=False,
                       help="check one division-move identity")
    p.add_argument("tuple", nargs="?", default="")
    p.add_argument("--which", default="second", choices=["first", "second"])
    p.add_argument("--dir", default="left", choices=["left", "right"])
    p.add_argument("--random", type=int, default=0, metavar="K",
                   help="instead verify K random tuples and moves")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("equivalent", allow_abbrev=False,
                       help="compare canonical forms of two tuples")
    p.add_argument("tuple")
    p.add_argument("tuple2")
    p.set_defaults(func=cmd_equivalent)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # each warning as one line: its message
        warnings.showwarning = lambda message, *_: print("warning: %s" % message,
                                                         file=sys.stderr)
        try:
            args.inst = _instantiation(args)  # checked once, for every command
            return args.func(args)
        except TupleParseError as e:
            print("parse error: %s" % e, file=sys.stderr)
            return 2
        except DuplicateStatesError as e:
            print("invalid tuple: %s" % e, file=sys.stderr)
            return 3
        except IdentityMismatchError as e:
            print("identity failure: %s" % e, file=sys.stderr)
            return 4
        except NonGenericParametersError as e:
            print("non-generic parameters: %s" % e, file=sys.stderr)
            return 5


if __name__ == "__main__":
    sys.exit(main())
