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

Both modes build states on integers, from one integer point (G, H, Q) with
(g, h) = (G/Q, H/Q) (_params): at a point G and H are ints over the common
denominator Q, and for the symbols they are g and h as int-coefficient
ParamPolys over Q = 1.  A state's exponents are then a/Q and b/Q with
a = G or Q - G and b = H or Q - H, and its Jacobi polynomial is the integer
sum at the common denominator 2Q over its divisor in lowest terms
(_int_state); the Wronskians take these integer states as they are, and
only the public values (make_state) divide.  A symbolic Wronskian builds its
states on ints too, at a Kronecker point g = 2^w, h = 2^(w*lg), Q = 1
(_kronecker_sum), where evaluation packs each (g, h)-polynomial in slots of
w bits; their contents and norms are read off the digits at a provisional
point (_sum_norms).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, prod

from .algebra import (
    AffineExp,
    EtaPoly,
    P_G,
    P_H,
    ParamPoly,
    _clear,
    _digits,
    _exact_point,
    _lowest,
    _raw_parampoly,
)


class DuplicateStatesError(ValueError):
    """Raised when a tuple of states contains a repeated state."""


class NonGenericParametersError(ValueError):
    """Raised for parameter values excluded by the genericity assumption."""


#: Generic rational point used by verification routines when none is given.
DEFAULT_GENERIC_POINT = (Fraction(37, 10), Fraction(52, 7))


def is_generic(gv, hv):
    """Whether g +/- h is not an integer and g, h are not half-odd integers,
    for ints or Fractions (a float raises TypeError).  It is decided on the
    integer point (G, H, Q) of (g, h) = (G/Q, H/Q): Q divides neither G + H
    nor G - H, and 2Q divides neither 2G - Q nor 2H - Q."""
    (g, h), q = _clear(_exact_point(gv, hv))
    return bool((g + h) % q and (g - h) % q and (2 * g - q) % (2 * q) and (2 * h - q) % (2 * q))


def require_generic(gv, hv):
    if not is_generic(gv, hv):
        raise NonGenericParametersError(
            "excluded parameter values: need g +/- h not integral and g, h "
            "not half-odd integers, got g=%s h=%s" % (gv, hv))
    return _exact_point(gv, hv)


class StateType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    N = "N"

    def __str__(self):
        return self.value

    @property
    def signs(self):
        """(sigma_g, sigma_h): the family's exponents are a = g and b = h
        where the sign is +1, a = 1 - g and b = 1 - h where it is -1.  N is
        (+, +), I (+, -), II (-, +) and III (-, -)."""
        return (1 if self in (StateType.N, StateType.I) else -1,
                1 if self in (StateType.N, StateType.II) else -1)


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
        """The tuple without the state at position i, read as Python indexing
        (-1 is the last; IndexError out of range)."""
        i = range(len(self.states))[i]
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
    """t as a StateTuple: t itself, an iterable of States, or a spec string
    of comma-separated states like "I1,II2" (blank for the empty tuple).

    ValueError for a bad token, TypeError for an item that is not a State.
    """
    if isinstance(t, StateTuple):
        return t
    if isinstance(t, str):
        t = [parse_state(tok) for tok in t.split(",")] if t.strip() else []
    t = tuple(t)
    for s in t:
        if not isinstance(s, State):
            raise TypeError("expected State items, got %r" % (s,))
    return StateTuple(t)


def random_tuple(rng, max_size, max_index, min_size=0):
    """Random tuple in canonical order: min_size..max_size distinct states of
    any type with indices 0..max_index, drawn from the random.Random rng."""
    size = rng.randint(min_size, max_size)
    seen = set()
    while len(seen) < size:
        seen.add(State(rng.choice(tuple(StateType)), rng.randint(0, max_index)))
    return StateTuple(sorted(seen, key=State.sort_key))


def _jacobi_sum(n, a, s, d):
    """(coeffs, D): the integer sum and the divisor of jacobi_poly(n, alpha,
    beta) = coeffs / D, for a = d*alpha and s = d*(alpha + beta) both ints
    or both int-coefficient ParamPolys, and d a positive int."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    one = 1 if type(a) is int else _raw_parampoly({(0, 0): 1})
    tail = [one] * (n + 1)  # tail[k] = prod_{i=k+1..n} (a + d*i)
    for k in range(n - 1, -1, -1):
        tail[k] = tail[k + 1] * (a + d * (k + 1))
    coeffs, head = [0] * (n + 1), one  # head = prod_{i=1..k} (s + d*(n+i))
    for k in range(n + 1):
        if k:
            head = head * (s + d * (n + k))
        t = tail[k] * head * ((-1) ** k * comb(n, k) * 2 ** (n - k))
        for m in range(k + 1):
            # (1-eta)^k contributes (-1)^m C(k,m) at eta^m
            coeffs[m] = coeffs[m] + t * ((-1) ** m * comb(k, m))
    return coeffs, d ** n * factorial(n) * 2 ** n


def jacobi_poly(n, alpha, beta):
    """Jacobi polynomial P_n^(alpha, beta) in eta.

    With d the lcm of the denominators of alpha and alpha+beta (that is, of
    alpha and beta), a = d*alpha and s = d*(alpha+beta), the cancelled
    hypergeometric sum is

        P = sum_k (-1)^k C(n,k) 2^(n-k) prod_{i=k+1..n} (a + d*i)
                * prod_{i=1..k} (s + d*(n+i)) * (1-eta)^k / D,   D = d^n n! 2^n.

    The sum (_jacobi_sum) is an integer at an instantiated point and an
    integer-coefficient ParamPoly in symbolic mode, and this public value
    divides it by D once: Fractions, or Fraction-valued ParamPolys.  The
    Wronskian pipeline never divides: it takes the sum at any common d of
    its integer point, over D in lowest terms, as its integer state
    (_int_state).  alpha and beta may be ParamPolys (symbolic) or ints and
    Fractions (instantiated).
    """
    if isinstance(alpha, ParamPoly) or isinstance(beta, ParamPoly):
        alpha, beta = (ParamPoly._coerce(x) for x in (alpha, beta))
    else:
        alpha, beta = _exact_point(alpha, beta)
    (a, s), d = _clear((alpha, alpha + beta))
    coeffs, den = _jacobi_sum(n, a, s, d)
    inv = Fraction(1, den)
    return EtaPoly(tuple(inv * c for c in coeffs))


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


def _params(inst):
    """The integer point (G, H, Q) of inst: its parameters (g, h) = (G/Q, H/Q)
    over one denominator Q, the lcm of theirs (_clear).  G and H are ints
    for a rational point (ints or Fractions, else TypeError) and
    int-coefficient ParamPolys over Q = 1 for the symbols (inst None); a
    pair of AffineExps such as (g + dg, h + dh) is read as either."""
    if inst is None:
        g, h = P_G, P_H
    else:
        g, h = inst
        if isinstance(g, AffineExp) and isinstance(h, AffineExp):
            g, h = _value(g), _value(h)
        else:
            g, h = _exact_point(g, h)
    (g, h), q = _clear((g, h))
    return g, h, q


def _value(x):
    """The AffineExp x as a Fraction if constant, else as a ParamPoly."""
    return x.c0 if x.is_constant else x.as_parampoly()


def _affine(n, q):
    """The AffineExp n/q for n rational or a ParamPoly of degree at most 1
    whose g and h coefficients q divides."""
    if type(n) is not ParamPoly:
        return AffineExp(0, 0, Fraction(n, q))
    t = n.terms
    return AffineExp(t.get((1, 0), 0) // q, t.get((0, 1), 0) // q, Fraction(t.get((0, 0), 0), q))


def _quasi(st, q):
    """(w, d): the integer state st = (a, b, p, d) at denominator q as the
    QuasiPoly w = s^(a/q) c^(b/q) p, with its integer p, and d, so that the
    state is w divided by d."""
    a, b, p, d = st
    return QuasiPoly(_affine(a, q), _affine(b, q), EtaPoly(p)), d


def _resolve_point(n, cap, inst):
    """The verifiers' mode: None (symbolic) if inst is None and n <= cap for
    n the largest tuple size, else inst or DEFAULT_GENERIC_POINT, generic."""
    if inst is None and n <= cap:
        return None
    return require_generic(*(DEFAULT_GENERIC_POINT if inst is None else inst))


def _int_state(s, pt):
    """(a, b, p, d): make_state's s^A c^B P at the integer point pt = (G, H, Q)
    of _params, all on ints: the exponents A = a/Q and B = b/Q, with
    a = G or Q - G and b = H or Q - H by the family's signs, and P = p/d,
    p a list of ints or int-coefficient ParamPolys.  P is the Jacobi sum
    (_jacobi_sum) at the common denominator 2Q of alpha = (2a - Q)/2Q and
    alpha + beta = (a + b - Q)/Q, over its divisor in lowest terms
    (_lowest): what clearing make_state's Fractions gives, with no
    Fraction built."""
    g, h, q = pt
    a, b = (x if sign > 0 else q - x for x, sign in zip((g, h), s.type.signs))
    p, den = _jacobi_sum(s.v, 2 * a - q, 2 * (a + b - q), 2 * q)
    while p and not p[-1]:
        p.pop()
    p, d = _lowest(p, den)
    return a, b, p, d


def _symbols(pt):
    """The symbols G, H of _params over Q = 1 as int triples (cg, ch, c0) of
    cg*g + ch*h + c0 (ValueError for Q > 1, where a Kronecker point fails)."""
    if pt[2] != 1:
        raise ValueError("symbolic parameters need integral constants, got Q = %d" % pt[2])
    return [(0, 0, x) if type(x) is int else
            tuple(x.terms.get(k, 0) for k in ((1, 0), (0, 1), (0, 0))) for x in pt[:2]]


def _kronecker_sum(s, sym, width, lg):
    """(a, b, p, den): _int_state of s at the symbols sym (_symbols) before its
    division, at g = 2^width, h = 2^(width*lg), where evaluation packs each
    (g, h)-polynomial in slots (width, lg) (algebra._pack)."""
    g, h = 1 << width, 1 << width * lg
    a, b = (x if sign > 0 else 1 - x for x, sign in
            zip((cg * g + ch * h + c0 for cg, ch, c0 in sym), s.type.signs))
    return (a, b, *_jacobi_sum(s.v, 2 * a - 1, 2 * (a + b - 1), 2))


def _sum_norms(s, sym):
    """(a, b, x, deg, k): the exponents of s at the symbols sym as int triples,
    and of its Jacobi sum the content k (the gcd of the divisor and every
    integer coefficient; the packed values' gcd can exceed it), the l1 norms
    x of the eta-coefficients over k and their largest g-degree, read off
    the digits at a provisional Kronecker point.  Its slots hold each digit:
    _jacobi_sum run on l1 norms (|x*y|_1 <= |x|_1 |y|_1, |x + c|_1 <= |x|_1
    + |c|, (1-eta)^k has coefficients of at most 2^k) bounds it by B <
    2^(width-2), and v affine factors make a g-degree below v + 1."""
    n = s.v
    a, b = ((cg, ch, c0) if sign > 0 else (-cg, -ch, 1 - c0)
            for (cg, ch, c0), sign in zip(sym, s.type.signs))
    na = 2 * abs(a[0]) + 2 * abs(a[1]) + abs(2 * a[2] - 1)
    ns = 2 * (abs(a[0] + b[0]) + abs(a[1] + b[1]) + abs(a[2] + b[2] - 1))
    bound = sum(comb(n, k) * prod(na + 2 * i for i in range(k + 1, n + 1))
                * prod(ns + 2 * (n + i) for i in range(1, k + 1)) for k in range(n + 1)) << n
    width = bound.bit_length() + 2
    _, _, p, den = _kronecker_sum(s, sym, width, n + 1)
    digits = [_digits(c, width) for c in p]
    k = gcd(den, *(d for ds in digits for d in ds))
    deg = max((i % (n + 1) for ds in digits for i, d in enumerate(ds) if d), default=0)
    return a, b, [sum(map(abs, ds)) // k for ds in digits], deg, k


def make_state(s, inst=None):
    """The state s^a c^b P_v^(a - 1/2, b - 1/2) as a QuasiPoly, with a = g or
    1 - g and b = h or 1 - h at the parameters (g, h) of inst: the symbols
    for None, a rational point (gv, hv) of ints or Fractions (a float
    raises TypeError), or a pair of AffineExps such as (g + dg, h + dh).
    At a point the exponents are constant and the coefficients Fractions.
    It is _int_state divided once by its d.
    """
    pt = _params(inst)
    w, d = _quasi(_int_state(s, pt), pt[2])
    return w.scale_poly(Fraction(1, d))


def eigenvalue(s):
    """Exact eigenvalue as a ParamPoly in (g, h) of Fractions, read off
    _int_eigenvalue at the Kronecker point (2^w, 2^(2w), 1): its terms g*h,
    g, h and 1 have coefficients of at most (2v + 2)^2 < 2^(w-2)."""
    w = ((2 * s.v + 2) ** 2).bit_length() + 2
    digits = _digits(_int_eigenvalue(s, (1 << w, 1 << 2 * w, 1)), w)
    return ParamPoly({(i % 2, i // 2): d for i, d in enumerate(digits) if d})


def _int_eigenvalue(s, pt):
    """Q^2 E at the integer point pt = (G, H, Q) of _params, for the
    eigenvalue E = (a + b + 2v)^2 - (g + h)^2 of the exponents
    a = sg*g + [sg < 0] and b = sh*h + [sh < 0] of the sign pair (sg, sh):
    r^2 - (G + H)^2 with r = sg*G + sh*H + c*Q and c = [sg < 0] + [sh < 0]
    + 2v, an int at a point and an int-coefficient ParamPoly for the
    symbols."""
    g, h, q = pt
    sg, sh = s.type.signs
    r = sg * g + sh * h + ((sg < 0) + (sh < 0) + 2 * s.v) * q
    return r * r - (g + h) * (g + h)


def pairing(j, jp):
    """Index-shift pairing of the four families.

    1 on the diagonal, -1 for {I, II} and {III, N}, 0 otherwise: half the
    dot product of the two sign pairs.  Prepending the index-0 state of
    family J0 to a Wronskian shifts every index n of a family-J state to
    n - pairing(J0, J) after the parameter step.
    """
    (sg, sh), (tg, th) = j.signs, jp.signs
    return (sg * tg + sh * th) // 2
