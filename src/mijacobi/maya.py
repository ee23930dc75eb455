"""Maya-diagram encoding of state tuples and division-move reductions.

A Maya diagram here is a bi-infinite row of beads, black far to the left and
white far to the right, carrying a movable division.  Positions count outward
from the division on both sides, starting at 0.  A tuple of states is encoded
by a pair of diagrams:

    first diagram   left white beads  = type III indices
                    right black beads = type N indices
    second diagram  left white beads  = type II indices
                    right black beads = type I indices

Moving a division one step re-indexes the beads and corresponds to an exact
Wronskian identity: the original Wronskian is proportional to a sin/cos
prefactor times the Wronskian of the moved tuple at shifted parameters.  The
accumulated bookkeeping lives in a Ledger (dg, dh, prefS, prefC) whose
meaning is fixed once and for all:

    W[original](x; g, h)  ~  (sin x)^prefS (cos x)^prefC
                              * W[current](x; g + dg, h + dh)

with prefS, prefC affine expressions in the *original* (g, h).  With
sigma = +1 for a right move and -1 for a left one, a move of the first
division shifts (g, h) by (sigma, sigma) and a move of the second by
(sigma, -sigma).  Each parameter x' = x + d0, at its pre-move shift d0,
adds x' to its prefactor exponent if it steps up and 1 - x' if it steps
down: a left move of the second division contributes shift (-1, +1) and
exponents (1 - g', h'), and the right move is its exact inverse.  The
verifiers build W[current] directly at the shifted parameters
(g + dg, h + dh), symbols or a point, on one path in both modes: each
side is one run of the Wronskian kernel over its whole tuple.  They
predict the constant of proportionality in closed form, from the known
factors of both leading coefficients, and prove the identity and that
constant together by one comparison of packed integer products, which
re-slots the digits of symbolic cores that stay packed from the kernel on.

Iterating left moves of the second division until no type II state remains,
and of the first division until no type III state remains, reduces any tuple
to one built from type I states and bound states only; the other three
two-family reductions use right moves instead on one or both diagrams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AffineExp, ParamPoly, _factored_ratio, _products_equal, _rows
from .states import (
    State,
    StateTuple,
    StateType,
    as_state_tuple,
    _params,
    _quasi,
    _resolve_point,
)
from .wronskian import _core, _tuple_wronskians, _unpacked


@dataclass(frozen=True)
class MayaDiagram:
    """One diagram: white bead positions left of the division, black right."""

    left_white: tuple
    right_black: tuple

    def __post_init__(self):
        for name in ("left_white", "right_black"):
            val = tuple(sorted(getattr(self, name)))
            if any(p < 0 for p in val):
                raise ValueError("bead positions must be nonnegative")
            if len(set(val)) != len(val):
                raise ValueError("duplicate bead position in %s" % name)
            object.__setattr__(self, name, val)

    def moved(self, direction):
        """Diagram with the division moved one step left or right; a left
        move is the right move with the two sides swapped."""
        mirror = _sigma(direction) < 0
        lw, rb = self.left_white, self.right_black
        if mirror:
            lw, rb = rb, lw
        lw = [p + 1 for p in lw] + ([] if 0 in rb else [0])
        rb = [p - 1 for p in rb if p]
        return MayaDiagram(rb, lw) if mirror else MayaDiagram(lw, rb)


@dataclass(frozen=True)
class Ledger:
    """Accumulated parameter shift and prefactor exponents of a move chain."""

    dg: int = 0
    dh: int = 0
    prefS: AffineExp = AffineExp()
    prefC: AffineExp = AffineExp()

    def is_fresh(self):
        return (self.dg, self.dh) == (0, 0) and self.prefS == AffineExp() \
            and self.prefC == AffineExp()


@dataclass(frozen=True)
class DiagramPair:
    first: MayaDiagram
    second: MayaDiagram
    ledger: Ledger


def tuple_to_diagrams(t):
    """Encode a tuple of states as a fresh pair of diagrams."""
    t = as_state_tuple(t)
    return DiagramPair(
        MayaDiagram(tuple(t.indices(StateType.III)), tuple(t.indices(StateType.N))),
        MayaDiagram(tuple(t.indices(StateType.II)), tuple(t.indices(StateType.I))),
        Ledger(),
    )


def diagrams_to_tuple(pair):
    """Decode back to a tuple of states, in canonical order."""
    states = [State(StateType.I, v) for v in pair.second.right_black]
    states += [State(StateType.II, v) for v in pair.second.left_white]
    states += [State(StateType.III, v) for v in pair.first.left_white]
    states += [State(StateType.N, v) for v in pair.first.right_black]
    return StateTuple(states)


def _sigma(direction):
    """+1 for a right move, -1 for a left one."""
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    return 1 if direction == "right" else -1


def move_division(pair, which, direction):
    """Move one division one step and update the ledger.

    With sigma = +1 for right and -1 for left, the first division steps
    (g, h) by (sigma, sigma) and the second by (sigma, -sigma).  A parameter
    x' = x + d0 (d0 its shift before the move) that steps up adds x' to its
    prefactor exponent (prefS for g, prefC for h), and one that steps down
    adds 1 - x'; both are affine in the original (g, h).
    """
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    sg = _sigma(direction)
    sh = sg if which == "first" else -sg
    led = pair.ledger
    cs, cc = (step * d0 + (step < 0) for step, d0 in ((sg, led.dg), (sh, led.dh)))
    moved = getattr(pair, which).moved(direction)
    first, second = (moved, pair.second) if which == "first" else (pair.first, moved)
    return DiagramPair(first, second, Ledger(
        led.dg + sg, led.dh + sh,
        led.prefS + AffineExp(sg, 0, cs), led.prefC + AffineExp(0, sh, cc)))


def dbar(indices):
    """Complemented-reflected index set {0..max} minus {max - d}.

    Left moves that consume every state of one family leave behind exactly
    these indices in the partner family; the empty set maps to itself.
    """
    idx = sorted(indices)
    if not idx:
        return []
    if idx[0] < 0 or len(set(idx)) != len(idx):
        raise ValueError("need an increasing set of nonnegative integers")
    top = idx[-1]
    removed = {top - d for d in idx}
    return [k for k in range(top + 1) if k not in removed]


class ReductionTarget(enum.Enum):
    """The four two-family normal forms."""

    I_N = "IN"
    I_III = "I3"
    II_N = "2N"
    II_III = "23"

    @property
    def keeps_type_i(self):
        return self in (ReductionTarget.I_N, ReductionTarget.I_III)

    @property
    def keeps_type_n(self):
        return self in (ReductionTarget.I_N, ReductionTarget.II_N)


def reduce_tuple(t, target):
    """Reduce a tuple to the target two-family form by division moves.

    Returns (reduced tuple, ledger).  The second division moves left
    max(type II indices)+1 times when type I survives (consuming every type
    II state), or right max(type I)+1 times otherwise; the first division
    moves left max(type III)+1 times when bound states survive, or right
    max(type N)+1 times otherwise.  Families absent from the tuple cost no
    moves.
    """
    t = as_state_tuple(t)
    target = ReductionTarget(target)
    pair = tuple_to_diagrams(t)
    for which, keeps_black in (("second", target.keeps_type_i),
                               ("first", target.keeps_type_n)):
        diagram = getattr(pair, which)
        direction, gone = (("left", diagram.left_white) if keeps_black
                           else ("right", diagram.right_black))
        for _ in range(max(gone, default=-1) + 1):
            pair = move_division(pair, which, direction)
    return diagrams_to_tuple(pair), pair.ledger


def canonical_form(t):
    """Canonical representative: the type I + bound-state reduction."""
    return reduce_tuple(t, ReductionTarget.I_N)


@dataclass
class ProportionalityReport:
    proportional: bool
    constant: object
    tuple_before: StateTuple
    tuple_after: StateTuple
    ledger: Ledger
    mode: str
    point: tuple = None
    detail: str = ""


# larger tuples go to a point: the symbolic 5-state W[I2,II0,II2,III4,N4] takes
# 0.22 s, the 6-state W[I2,II0,II2,III4,N4,N2] 1.4 s (CPU time, best of 3,
# alternated rounds, Python 3.11, 2-core container)
SYMBOLIC_SIZE_CAP = 5


def _lc_factors(t, dg=0, dh=0):
    """Affine forms (cg, ch, c0) = cg*g + ch*h + c0 in (g, h) whose product is
    lc(W[t]) at (g + dg, h + dh) up to a nonzero rational constant, for
    symbolic t.

    A state s^a c^b P_v^(alpha, beta) has a = g or 1 - g and b = h or 1 - h
    (states.make_state) and alpha + beta = a + b - 1 for all four types, so
    lc(P_v) = (v + alpha + beta + 1)_v / (2^v v!) contributes a + b - 1 + v + i
    for i = 1..v; the determinant contributes mu_k - mu_j for j < k,
    mu = (a + b)/2 + v (doubled here; see the closed form checked in
    tests/test_properties.py).
    """
    sums = []
    for s in t:
        cg, ch = s.type.signs
        sums.append((cg, ch, (2 - cg - ch) // 2 + cg * dg + ch * dh, s.v))
    out = []
    for j, (cg, ch, c0, v) in enumerate(sums):
        out += [(cg, ch, c0 + v - 1 + i) for i in range(1, v + 1)]
        out += [(cg_k - cg, ch_k - ch, c0_k - c0 + 2 * (v_k - v))
                for cg_k, ch_k, c0_k, v_k in sums[j + 1:]]
    return out


def _check_ledger_identity(t_before, t_after, ledger, instantiate):
    """Compare W[t_before](g, h) against prefactor * W[t_after](g + dg, h + dh),
    on one path: (g, h) = (G/Q, H/Q) is the symbols or the point of
    states._resolve_point as an integer point (states._params), and the
    right side is built at (G + dg*Q, H + dh*Q)/Q.  Both sides are integer
    states at Q, each from a kernel run over the whole tuple
    (wronskian._tuple_wronskians with stop its length): exponents over Q, to
    which the right side adds each prefactor exponent read at the integer
    point, cg*G + ch*H + c0*Q, and integer cores a and b, packed
    symbolically, over scales s_l and s_r.  Once the exponents and the
    degrees agree, algebra._factored_ratio predicts the constant c = num/den
    = la*s_r/(s_l*lb) from the leading coefficients la and lb, the only ones
    unpacked: a Fraction when both are constants (at a point, or
    symbolically for two empty tuples), else the reduced ParamRat read off
    the closed-form factors of both leading coefficients (_lc_factors), with
    no gcd.  One packed comparison of the cores' rows, a*(den*s_r) ==
    b*(num*s_l) (algebra._products_equal), then proves both that W[t_before]
    is c times the prefactor times W[t_after] and that c is the reported
    constant.
    """
    point = _resolve_point(max(len(t_before), len(t_after)), SYMBOLIC_SIZE_CAP,
                           instantiate)
    g, h, q = pt = _params(point)
    shifted = (g + ledger.dg * q, h + ledger.dh * q, q)
    [lhs] = _tuple_wronskians(t_before, pt, len(t_before))
    [(es, ec, b, s_r, r_slots)] = _tuple_wronskians(t_after, shifted, len(t_after))
    ps, pc = (e.cg * g + e.ch * h + e.c0 * q for e in (ledger.prefS, ledger.prefC))
    rhs = es + ps, ec + pc, b, s_r, r_slots
    _, _, a, s_l, l_slots = lhs
    const = None
    if lhs[:2] == rhs[:2] and len(a) == len(b):
        la, lb = _core(a[-1:], l_slots)[0], _core(b[-1:], r_slots)[0]
        # the factor lists are read only for a ParamPoly leading coefficient
        factors = ((_lc_factors(t_before), _lc_factors(t_after, ledger.dg, ledger.dh))
                   if ParamPoly in (type(la), type(lb)) else ((), ()))
        c = _factored_ratio(la * s_r, lb * s_l, *factors)
        num, den = (c, 1) if type(c) is Fraction else (c.num, c.den)
        if _products_equal(_rows(a, l_slots), den * s_r, _rows(b, r_slots), num * s_l):
            const = c
    detail = "" if const is not None else (
        "exponent or polynomial mismatch: lhs %s / rhs %s"
        % tuple(w.scale_poly(Fraction(1, d))
                for w, d in (_quasi(_unpacked(x), q) for x in (lhs, rhs))))
    mode = "symbolic" if point is None else "instantiated"
    return ProportionalityReport(const is not None, const, t_before, t_after,
                                 ledger, mode, point, detail)


def verify_move_identity(t, which, direction, instantiate=None):
    """Verify the single-move Wronskian identity for the given tuple.

    Symbolic in (g, h) when both tuples have at most SYMBOLIC_SIZE_CAP states
    and no instantiation is requested; otherwise exact at the given (or
    default) generic rational point.
    """
    t = as_state_tuple(t)
    pair = move_division(tuple_to_diagrams(t), which, direction)
    return _check_ledger_identity(t, diagrams_to_tuple(pair), pair.ledger,
                                  instantiate)


def verify_reduction(t, target, instantiate=None):
    """Verify the full reduction identity produced by reduce_tuple."""
    t = as_state_tuple(t)
    reduced, ledger = reduce_tuple(t, target)
    return _check_ledger_identity(t, reduced, ledger, instantiate)


def render_diagram(diagram, min_beads=5):
    """ASCII form: black '*', white 'o', division '|'.

    Each side shows at least min_beads beads and always covers the last
    nontrivial position (white on the left, black on the right).
    """
    lw, rb = set(diagram.left_white), set(diagram.right_black)
    n_left = max(max(lw) + 1 if lw else 0, min_beads)
    n_right = max(max(rb) + 1 if rb else 0, min_beads)
    left = "".join("o" if p in lw else "*" for p in range(n_left - 1, -1, -1))
    right = "".join("*" if p in rb else "o" for p in range(n_right))
    return "..." + left + "|" + right + "..."
