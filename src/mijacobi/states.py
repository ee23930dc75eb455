"""States of the trigonometric double-singular well and its formal solutions.

The well on (0, pi/2) is

    U(x; g, h) = g(g-1)/sin^2(x) + h(h-1)/cos^2(x) - (g+h)^2 .

Every bound state and every formal (non-normalizable) polynomial solution has
the shape (sin x)^A (cos x)^B P(eta) with eta = cos(2x), A and B affine in
(g, h), and P a Jacobi polynomial.  Four families appear, distinguished by
which of the two exponents is flipped (g -> 1-g, h -> 1-h):

    type N (bound states)  A = g,   B = h,   P = P_n^(g-1/2,  h-1/2)
    type I                 A = g,   B = 1-h, P = P_v^(g-1/2,  1/2-h)
    type II                A = 1-g, B = h,   P = P_v^(1/2-g,  h-1/2)
    type III               A = 1-g, B = 1-h, P = P_v^(1/2-g,  1/2-h)

with energies E_n = 4n(n+g+h) for type N and

    type I    -4(g+v+1/2)(h-v-1/2)
    type II   -4(g-v-1/2)(h+v+1/2)
    type III  -4(v+1)(g+h-v-1).

States are built unnormalized, exactly in the form above.  Throughout we work
either fully symbolically in (g, h) or at an instantiated rational point; the
generic-parameter assumption (g +/- h not an integer, g and h not half-odd
integers) is validated only at instantiation time.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .algebra import (
    AffineExp,
    ETA_ONE,
    EtaPoly,
    ONE_MINUS_ETA,
    ONE_PLUS_ETA,
    ParamPoly,
    P_G,
    P_H,
    _F0,
    _F1,
)


class DuplicateStatesError(ValueError):
    """Raised when a tuple of states contains a repeated state."""


class NonGenericParametersError(ValueError):
    """Raised for parameter values excluded by the genericity assumption."""


#: Generic rational point used by verification routines when none is given.
DEFAULT_GENERIC_POINT = (Fraction(37, 10), Fraction(52, 7))


def is_generic(gv, hv):
    gv, hv = Fraction(gv), Fraction(hv)
    if (gv + hv).denominator == 1 or (gv - hv).denominator == 1:
        return False
    if (gv - Fraction(1, 2)).denominator == 1 or (hv - Fraction(1, 2)).denominator == 1:
        return False
    return True


def require_generic(gv, hv):
    if not is_generic(gv, hv):
        raise NonGenericParametersError(
            "excluded parameter values: need g +/- h not integral and g, h "
            "not half-odd integers, got g=%s h=%s" % (gv, hv))
    return Fraction(gv), Fraction(hv)


class StateType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    N = "N"

    def __str__(self):
        return self.value


_TYPE_ORDER = {StateType.I: 0, StateType.II: 1, StateType.III: 2, StateType.N: 3}


@dataclass(frozen=True, order=False)
class State:
    """One state: a family tag and a nonnegative index."""

    type: StateType
    v: int

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("state index must be nonnegative")

    def sort_key(self):
        return (_TYPE_ORDER[self.type], self.v)

    def __str__(self):
        return "%s%d" % (self.type.value, self.v)

    def latex(self):
        if self.type is StateType.N:
            return r"\phi_{%d}" % self.v
        return r"\tilde{\phi}^{\mathrm{%s}}_{%d}" % (self.type.value, self.v)


class StateTuple:
    """Ordered tuple of distinct states."""

    __slots__ = ("states",)

    def __init__(self, states=()):
        sts = tuple(states)
        if len(set(sts)) != len(sts):
            raise DuplicateStatesError("states must be distinct")
        self.states = sts

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def __eq__(self, other):
        if not isinstance(other, StateTuple):
            return NotImplemented
        return self.states == other.states

    def __hash__(self):
        return hash(self.states)

    def indices(self, state_type):
        """Sorted index list of the given family."""
        return sorted(s.v for s in self.states if s.type is state_type)

    def sorted(self):
        """Canonical order: types I, II, III, N, each with ascending index."""
        return StateTuple(sorted(self.states, key=State.sort_key))

    def with_state(self, s):
        return StateTuple(self.states + (s,))

    def without_index(self, i):
        return StateTuple(self.states[:i] + self.states[i + 1:])

    def spec(self):
        return ",".join(str(s) for s in self.states)

    def __str__(self):
        return self.spec() if self.states else "(empty)"

    def __repr__(self):
        return "StateTuple(%s)" % self.spec()


_STATE_TOKEN = re.compile(r"^(III|II|I|N)([0-9]+)$")


def parse_state(token):
    m = _STATE_TOKEN.match(token.strip())
    if not m:
        raise ValueError("cannot parse state %r (expected e.g. I1, II2, N0)" % token)
    return State(StateType(m.group(1)), int(m.group(2)))


def as_state_tuple(t):
    if isinstance(t, StateTuple):
        return t
    return StateTuple(t)


def random_tuple(rng, max_size, max_index, min_size=0):
    """Random tuple in canonical order: min_size..max_size distinct states of
    any type with indices 0..max_index, drawn from the random.Random rng."""
    size = rng.randint(min_size, max_size)
    seen = set()
    while len(seen) < size:
        seen.add(State(rng.choice(tuple(StateType)), rng.randint(0, max_index)))
    return StateTuple(sorted(seen, key=State.sort_key))


def pochhammer(base, k):
    """Rising factorial base*(base+1)*...*(base+k-1); the empty product is 1."""
    if k < 0:
        raise ValueError("pochhammer length must be nonnegative")
    out = ParamPoly.const(1) if isinstance(base, ParamPoly) else _F1
    for i in range(k):
        out = out * (base + i)
    return out


def jacobi_poly(n, alpha, beta):
    """Jacobi polynomial P_n^(alpha, beta) in eta.

    Computed from the cancelled hypergeometric sum: the coefficient of
    ((1-eta)/2)^k is (-1)^k (alpha+k+1)_{n-k} (n+alpha+beta+1)_k / ((n-k)! k!),
    which keeps the coefficients polynomial in (alpha, beta).  alpha and beta
    may be ParamPolys (symbolic) or Fractions (instantiated).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = [_F0] * (n + 1)
    for k in range(n + 1):
        ck = pochhammer(alpha + k + 1, n - k) * pochhammer(n + alpha + beta + 1, k)
        ck = ck * Fraction((-1) ** k, factorial(n - k) * factorial(k))
        scale = Fraction(1, 2 ** k)
        for m in range(k + 1):
            # ((1-eta)/2)^k contributes (-1)^m C(k,m)/2^k at eta^m
            c = ck * (scale * Fraction((-1) ** m) * comb(k, m))
            coeffs[m] = coeffs[m] + c
    return EtaPoly(coeffs)


@dataclass(frozen=True)
class QuasiPoly:
    """(sin x)^expS (cos x)^expC * poly(eta), with poly in canonical form.

    Canonical means poly is nonzero and divisible by neither (1 - eta) nor
    (1 + eta); those factors are always folded into the exponents via
    1 - eta = 2 sin^2 x and 1 + eta = 2 cos^2 x.
    """

    expS: AffineExp
    expC: AffineExp
    poly: EtaPoly

    def scale_poly(self, c):
        return QuasiPoly(self.expS, self.expC, self.poly.scale(c))

    def mul(self, other):
        """Pointwise product; canonical since the edge factors are prime."""
        return QuasiPoly(self.expS + other.expS, self.expC + other.expC,
                         self.poly * other.poly)

    def __str__(self):
        return "s^(%s) c^(%s) [%s]" % (self.expS, self.expC, self.poly)


def _exponents(state_type, inst):
    one = _F1
    if inst is None:
        eg, eh = AffineExp(1, 0, _F0), AffineExp(0, 1, _F0)
        g, h = P_G, P_H
    else:
        gv, hv = inst
        eg, eh = AffineExp.const(gv), AffineExp.const(hv)
        g, h = Fraction(gv), Fraction(hv)
    half = Fraction(1, 2)
    if state_type is StateType.N:
        return eg, eh, g - half, h - half
    if state_type is StateType.I:
        return eg, (one - eh), g - half, half - h
    if state_type is StateType.II:
        return (one - eg), eh, half - g, h - half
    return (one - eg), (one - eh), half - g, half - h


def make_state(s, inst=None):
    """Build the state as a QuasiPoly, symbolic or at instantiated (g, h).

    Instantiated states carry constant exponents and Fraction coefficients,
    so the same downstream machinery serves both modes.
    """
    expS, expC, alpha, beta = _exponents(s.type, inst)
    poly = jacobi_poly(s.v, alpha, beta)
    return QuasiPoly(expS, expC, poly)


def eigenvalue(s):
    """Exact eigenvalue as a ParamPoly in (g, h)."""
    v = s.v
    if s.type is StateType.N:
        # 4v(v + g + h)
        return ParamPoly({(1, 0): 4 * v, (0, 1): 4 * v, (0, 0): 4 * v * v})
    half = Fraction(1, 2)
    if s.type is StateType.I:
        return ((P_G + (v + half)) * (P_H - (v + half))).scale(-4)
    if s.type is StateType.II:
        return ((P_G - (v + half)) * (P_H + (v + half))).scale(-4)
    return ((P_G + P_H - (v + 1)) * Fraction(v + 1)).scale(-4)


def pairing(j, jp):
    """Index-shift pairing of the four families.

    1 on the diagonal, -1 for {I, II} and {III, N}, 0 otherwise.  Prepending
    the index-0 state of family J0 to a Wronskian shifts every index n of a
    family-J state to n - pairing(J0, J) after the parameter step.
    """
    if j is jp:
        return 1
    pair = {j, jp}
    if pair == {StateType.I, StateType.II} or pair == {StateType.III, StateType.N}:
        return -1
    return 0


def potential(inst=None):
    """The undeformed well as a quotient of eta-polynomials.

    Using sin^2 x = (1-eta)/2 and cos^2 x = (1+eta)/2,

        U = 2g(g-1)/(1-eta) + 2h(h-1)/(1+eta) - (g+h)^2

    with zero sin/cos prefactor exponents.  The terms are summed as
    quotients, so a vanishing g(g-1) or h(h-1) drops its pole.
    """
    from .spectral import QuasiRat
    if inst is None:
        g, h = P_G, P_H
    else:
        g, h = Fraction(inst[0]), Fraction(inst[1])

    def term(c, den):
        return QuasiRat.make(AffineExp(), AffineExp(), EtaPoly((c,)), den)

    return (term((g * (g - 1)) * 2, ONE_MINUS_ETA)
            .add(term((h * (h - 1)) * 2, ONE_PLUS_ETA))
            .add(term(-((g + h) * (g + h)), ETA_ONE)))
