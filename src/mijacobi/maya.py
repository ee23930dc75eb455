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

with prefS, prefC affine expressions in the *original* (g, h).  One left move
of the second division contributes shift (-1, +1) and prefactor exponents
(1 - g', h') evaluated at the pre-move shifted parameters; one left move of
the first division contributes (-1, -1) and (1 - g', 1 - h').  Right moves
are the exact inverses: (+1, -1) with (g', 1 - h'), and (+1, +1) with
(g', h').

Iterating left moves of the second division until no type II state remains,
and of the first division until no type III state remains, reduces any tuple
to one built from type I states and bound states only; the other three
two-family reductions use right moves instead on one or both diagrams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AffineExp
from .states import (
    DEFAULT_GENERIC_POINT,
    State,
    StateTuple,
    StateType,
    QuasiPoly,
    as_state_tuple,
    require_generic,
)
from .wronskian import compare_quasi, shift_quasi, wronskian


@dataclass(frozen=True)
class MayaDiagram:
    """One diagram: white bead positions left of the division, black right."""

    left_white: tuple
    right_black: tuple
    offset: int = 0

    def __post_init__(self):
        for name in ("left_white", "right_black"):
            val = tuple(sorted(getattr(self, name)))
            if any(p < 0 for p in val):
                raise ValueError("bead positions must be nonnegative")
            if len(set(val)) != len(val):
                raise ValueError("duplicate bead position in %s" % name)
            object.__setattr__(self, name, val)

    def moved(self, direction):
        """Diagram with the division moved one step left or right."""
        lw, rb = set(self.left_white), set(self.right_black)
        if direction == "left":
            crossing_white = 0 in lw
            new_lw = {p - 1 for p in lw if p >= 1}
            new_rb = {p + 1 for p in rb}
            if not crossing_white:
                new_rb.add(0)
            return MayaDiagram(tuple(sorted(new_lw)), tuple(sorted(new_rb)),
                               self.offset - 1)
        if direction == "right":
            crossing_black = 0 in rb
            new_rb = {p - 1 for p in rb if p >= 1}
            new_lw = {p + 1 for p in lw}
            if not crossing_black:
                new_lw.add(0)
            return MayaDiagram(tuple(sorted(new_lw)), tuple(sorted(new_rb)),
                               self.offset + 1)
        raise ValueError("direction must be 'left' or 'right'")


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


def move_division(pair, which, direction):
    """Move one division one step and update the ledger.

    The prefactor increment is the move's exponent pair evaluated at the
    pre-move shifted parameters (g + dg, h + dh), re-expressed in the
    original (g, h).
    """
    led = pair.ledger
    dg0, dh0 = led.dg, led.dh
    if which == "second":
        if direction == "left":
            step, inc_s, inc_c = (-1, 1), AffineExp(-1, 0, 1 - dg0), AffineExp(0, 1, Fraction(dh0))
        else:
            step, inc_s, inc_c = (1, -1), AffineExp(1, 0, Fraction(dg0)), AffineExp(0, -1, 1 - dh0)
        first, second = pair.first, pair.second.moved(direction)
    elif which == "first":
        if direction == "left":
            step, inc_s, inc_c = (-1, -1), AffineExp(-1, 0, 1 - dg0), AffineExp(0, -1, 1 - dh0)
        else:
            step, inc_s, inc_c = (1, 1), AffineExp(1, 0, Fraction(dg0)), AffineExp(0, 1, Fraction(dh0))
        first, second = pair.first.moved(direction), pair.second
    else:
        raise ValueError("which must be 'first' or 'second'")
    ledger = Ledger(dg0 + step[0], dh0 + step[1], led.prefS + inc_s, led.prefC + inc_c)
    return DiagramPair(first, second, ledger)


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
    if target.keeps_type_i:
        gone = t.indices(StateType.II)
        second_moves, second_dir = (max(gone) + 1 if gone else 0), "left"
    else:
        gone = t.indices(StateType.I)
        second_moves, second_dir = (max(gone) + 1 if gone else 0), "right"
    if target.keeps_type_n:
        gone = t.indices(StateType.III)
        first_moves, first_dir = (max(gone) + 1 if gone else 0), "left"
    else:
        gone = t.indices(StateType.N)
        first_moves, first_dir = (max(gone) + 1 if gone else 0), "right"
    for _ in range(second_moves):
        pair = move_division(pair, "second", second_dir)
    for _ in range(first_moves):
        pair = move_division(pair, "first", first_dir)
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
# 0.6-0.9 s, the 6-state W[I2,II0,II2,III4,N4,N2] 5.9-6.9 s (CPU time, Python
# 3.11, 2-core container)
SYMBOLIC_SIZE_CAP = 5


def _check_ledger_identity(t_before, t_after, ledger, instantiate):
    """Compare W[t_before](g,h) against prefactor * W[t_after](g+dg, h+dh)."""
    symbolic = instantiate is None and max(len(t_before), len(t_after)) <= SYMBOLIC_SIZE_CAP
    if symbolic:
        lhs = wronskian(t_before)
        moved = shift_quasi(wronskian(t_after), ledger.dg, ledger.dh)
        rhs = QuasiPoly(moved.expS + ledger.prefS, moved.expC + ledger.prefC,
                        moved.poly)
        point = None
        mode = "symbolic"
    else:
        gv, hv = point = require_generic(
            *(DEFAULT_GENERIC_POINT if instantiate is None else instantiate))
        lhs = wronskian(t_before, inst=(gv, hv))
        moved = wronskian(t_after, inst=(gv + ledger.dg, hv + ledger.dh))
        rhs = QuasiPoly(moved.expS + ledger.prefS.eval_at(gv, hv),
                        moved.expC + ledger.prefC.eval_at(gv, hv),
                        moved.poly)
        mode = "instantiated"
    const = compare_quasi(lhs, rhs)
    detail = "" if const is not None else (
        "exponent or polynomial mismatch: lhs %s / rhs %s" % (lhs, rhs))
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
