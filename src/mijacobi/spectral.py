"""Deformed Hamiltonians, exact eigenfunction checks, and permitted spectra.

Deleting nothing, the well U has bound states phi_n with E_n = 4n(n+g+h).
A tuple T of states deforms it to

    U_T = U - 2 (log W[T])'' ,

a quotient of eta-polynomials once (log W)'' is expressed through the
canonical form W = s^a c^b P(eta):

    (log W)'' = 4 (P2 P - P1^2) / ((1-eta^2) P^2),

where P1 and P2 are the eta-parts of W' and W'' by the exact differentiation
rule used for Wronskians.  The ratios W[T, phi_n]/W[T] remain eigenfunctions
with unchanged eigenvalue E_n, and deleting a type III member with index m
from the numerator instead produces an extra eigenstate with
E_{-m-1} = -4(m+1)(g+h-m-1).  Which labels survive is read off the first
Maya diagram: left white beads give the extra levels, right black beads the
deleted bound levels.

Every eigenfunction check takes one path: two Wronskians, W = W[T] and the
numerator Y = W[T, phi_n] or W[T without III_m], go to _eigen_identity,
which does not form H_T f as a quotient: for f = Y/W, W^2 (H_T - E) f is
built from Y, W and their first two derivatives and leaves one polynomial
in eta, which is zero exactly when the eigen-equation holds.  The
derivatives are one integer column per side from the Wronskian's own
derivative rule (wronskian._state_column), ints at a point and
int-coefficient ParamPolys in symbolic mode, so the identity is an integer
polynomial, scaled by a known nonzero integer instead of divided.  It is
decided as one packed int in both modes: each of its seven columns is
packed once, over eta alone at a point and over (eta, g, h) in symbolic
mode, in slots proven wider than any coefficient of the identity
(_pack_columns), and one sum of products of those ints is tested against
0; no EtaPoly product is formed.  It reads the integer point (G, H, Q) of
states._params throughout: both Wronskians are integer states at Q, the
potential enters as Q^2 times itself and the eigenvalue as Q^2 E
(states._int_eigenvalue).  verify_eigenfunction runs it for one bound
level; verify_spectrum, the checks of spectrum --verify, builds W[T] once
and runs it for every permitted level (_numerator picks Y).

QuasiRat, potential, apply_hamiltonian and deformed_potential keep the
quotient route as public API, on ints inside: each operand is cleared once
to an integer numerator and denominator (_ints), the arithmetic runs on
those, and every public result holds Fractions (Fraction-coefficient
ParamPolys in symbolic mode), each coefficient made once by Fraction(int),
which takes no gcd (_rat).  deformed_potential reads W[T]'s integer column
too.

Nonsingularity (check_nonsingular, verify_spectrum) is decided on the
integer core of W[T] at the point, never divided by its scale: Descartes'
rule of signs on the core mapped from (-1, 1) to (0, oo) settles no root
and an odd count, and an integer Sturm chain the rest
(algebra._root_free).

Everything here is exact; no tolerances appear anywhere.  Eigenfunction
checks are symbolic in (g, h) for tuples of at most SYMBOLIC_SIZE_CAP states
and run at an instantiated generic rational point otherwise, because the
(g, h)-coefficients of the identity grow quickly with the tuple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .algebra import (
    AffineExp,
    EtaPoly,
    ParamPoly,
    _F1,
    _clear,
    _exact,
    _pack_list,
    _pack_rows,
    _root_free,
    _rows,
)
from .states import (
    State,
    StateType,
    as_state_tuple,
    eigenvalue,
    require_generic,
    _int_eigenvalue,
    _int_state,
    _params,
    _quasi,
    _resolve_point,
)
from .maya import tuple_to_diagrams
from .wronskian import (RawQuasi, _int_wronskian, _state_column, _tuple_wronskian, _unpacked,
                        differentiate)


@dataclass(frozen=True, eq=False)
class QuasiRat:
    """(sin x)^expS (cos x)^expC * num(eta)/den(eta), an exact quotient.

    num and den are kept as computed, with no common factor cancelled, so
    symbolic coefficients stay ParamPolys; the results of the arithmetic
    hold Fractions (ParamPolys of Fractions in symbolic mode).  The
    arithmetic runs on ints: each operand is cleared once to an integer
    numerator and denominator (_ints), and each coefficient of a result is
    made a Fraction once (_rat).  Equality is equality of values, decided by
    cross-multiplication; there is no normal form to
    hash, so QuasiRats are unhashable.
    """

    expS: AffineExp
    expC: AffineExp
    num: EtaPoly
    den: EtaPoly

    @classmethod
    def make(cls, expS, expC, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls(expS, expC, EtaPoly.zero(), EtaPoly.const(_F1))
        return cls(expS, expC, num, den)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, QuasiRat):
            return NotImplemented
        try:
            return self.sub(other).is_zero()
        except ValueError:  # exponents that cannot be aligned
            return False

    # -- exponent alignment --------------------------------------------------
    # Sums only make sense when the exponents differ by even integers; the
    # higher side then folds sin^2 = (1-eta)/2 or cos^2 = (1+eta)/2 factors
    # in: (1-/+eta) into its integer numerator and the 2 into its integer
    # denominator.

    def _aligned(self, other):
        """((na, da), (nb, db), expS, expC): self and other as integer
        quotients (_ints) over the lower exponents expS, expC."""
        ds = self.expS - other.expS
        dc = self.expC - other.expC
        if not (ds.is_constant and dc.is_constant):
            raise ValueError("incompatible exponents: %s vs %s" % (self.expS, other.expS))
        ds, dc = ds.c0, dc.c0
        if ds.denominator != 1 or dc.denominator != 1 or ds % 2 or dc % 2:
            raise ValueError("exponent difference must be even integers")
        (na, da), (nb, db) = _ints(self), _ints(other)
        for d, sign in ((ds, -1), (dc, 1)):
            k = abs(int(d)) // 2
            if k:  # (sin^2 or cos^2)^k = (1 -/+ eta)^k / 2^k on the higher side
                edge, two = EtaPoly([comb(k, i) * sign ** i for i in range(k + 1)]), 1 << k
                if d > 0:
                    na, da = na * edge, da.scale(two)
                else:
                    nb, db = nb * edge, db.scale(two)
        expS = self.expS if ds <= 0 else other.expS
        expC = self.expC if dc <= 0 else other.expC
        return (na, da), (nb, db), expS, expC

    def add(self, other):
        (na, da), (nb, db), expS, expC = self._aligned(other)
        return _rat(expS, expC, na * db + nb * da, da * db)

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        (na, da), (nb, db) = _ints(self), _ints(other)
        return _rat(self.expS + other.expS, self.expC + other.expC, na * nb, da * db)

    def scale(self, c):
        """self times c: a rational c = p/q multiplies the integer numerator
        by p and the denominator by q; a ParamPoly scales num."""
        if type(c) is ParamPoly:
            return QuasiRat.make(self.expS, self.expC, self.num.scale(c), self.den)
        n, d = _ints(self)
        c = _exact(c)
        return _rat(self.expS, self.expC, n.scale(c.numerator), d.scale(c.denominator))

    def __str__(self):
        return "s^(%s) c^(%s) [%s] / [%s]" % (self.expS, self.expC, self.num, self.den)


def _ints(f):
    """(num, den): f's num and den as EtaPolys of ints or int-coefficient
    ParamPolys, both times the lcm of all their denominators."""
    ns, _ = _clear(f.num.coeffs + f.den.coeffs)
    k = len(f.num.coeffs)
    return EtaPoly(ns[:k]), EtaPoly(ns[k:])


def _rat(expS, expC, num, den):
    """The QuasiRat of integer num and den (_ints), each coefficient (each
    ParamPoly term) made a Fraction by Fraction(int)."""
    num, den = ([Fraction(c) if type(c) is int else ParamPoly(c.terms) for c in p.coeffs]
                for p in (num, den))
    return QuasiRat.make(expS, expC, EtaPoly(num), EtaPoly(den))


def differentiate_rat(f):
    """One x-derivative of a QuasiRat f = s^a c^b N/D: with s^(a-1) c^(b-1) N1
    the derivative of s^a c^b N by differentiate, the quotient rule adds one
    term, f' = s^(a-1) c^(b-1) [N1 D + (1-eta^2) N D'] / D^2.  N and D are
    f's integer quotient (_ints); N1 comes over the scale s of
    differentiate's one division, and s moves into the denominator:
    f' = s^(a-1) c^(b-1) [s N1 D + s (1-eta^2) N D'] / (s D^2)."""
    num, den = _ints(f)
    d = differentiate(RawQuasi(f.expS, f.expC, num))
    n1, s = _clear(d.poly.coeffs)
    num = EtaPoly(n1) * den + (EtaPoly((1, 0, -1)) * (num * den.deriv())).scale(s)
    return _rat(d.expS, d.expC, num, den.scale(s) * den)


def potential(inst=None):
    """The undeformed well as a quotient of eta-polynomials.

    Using sin^2 x = (1-eta)/2 and cos^2 x = (1+eta)/2,

        U = 2g(g-1)/(1-eta) + 2h(h-1)/(1+eta) - (g+h)^2

    with zero sin/cos prefactor exponents, built on the integer point
    (G, H, Q) of states._params as Q^2 U = 2G(G-Q)/(1-eta) + 2H(H-Q)/(1+eta)
    - (G+H)^2 over Q^2.  Only nonzero poles are folded into num/den, so a
    vanishing g(g-1) or h(h-1), which is 2G(G-Q) or 2H(H-Q), drops its pole.
    """
    g, h, q = _params(inst)
    num, den = EtaPoly((-((g + h) * (g + h)),)), EtaPoly((1,))
    for c, pole in ((2 * g * (g - q), (1, -1)), (2 * h * (h - q), (1, 1))):
        if c:
            num, den = num * EtaPoly(pole) + den.scale(c), den * EtaPoly(pole)
    return _rat(AffineExp(), AffineExp(), num, den.scale(q * q))


def deformed_potential(t, inst=None):
    """U - 2 (log W[t])'' as a QuasiRat (symbolic or instantiated), read off
    the integer column of W = W[t] that _eigen_identity reads: rows p, w1,
    w2 are d, big d and big^2 d times the eta-parts P, P1, P2 of W, W', W''
    (wronskian._state_column), and (log W)'' = 4 (P2 P - P1^2) /
    ((1-eta^2) P^2) gives -8 (w2 p - w1^2) / (big^2 (1-eta^2) p^2)."""
    pt = _params(inst)
    wt = _unpacked(_tuple_wronskian(as_state_tuple(t), pt))
    big, (p, w1, w2), _ = _state_column(wt, pt[2], 3)
    p, w1, w2 = map(EtaPoly, (p, w1, w2))
    return potential(inst).add(QuasiRat.make(
        AffineExp(), AffineExp(), (w2 * p - w1 * w1).scale(-8),
        EtaPoly((1, 0, -1)) * (p * p).scale(big * big)))


def apply_hamiltonian(pot, f):
    """(-d^2/dx^2 + pot) applied to f, exactly."""
    fpp = differentiate_rat(differentiate_rat(f))
    return pot.mul(f).sub(fpp)


def _eigen_identity(w, y, e, pt):
    """Whether f = y/w solves H_T f = ev f, decided as one integer polynomial
    identity in eta: no quotient is formed and nothing is divided.

    pt = (G, H, Q) is the integer point of states._params, (g, h) =
    (G/Q, H/Q), and e = Q^2 ev (states._int_eigenvalue).  w = s^a c^b P
    is the canonical W[T] and y = s^a' c^b' R the canonical numerator
    Wronskian (W[T, phi_n] or W[T without III_m]), both integer states at
    Q (wronskian._int_wronskian) read as their integer cores P and R; a
    constant factor does not change whether y/w is an eigenfunction.
    U_T = U - 2 (log w)'' gives

        w^2 (H_T - ev) f = -y'' w + 2 y' w' - y w'' + (U - ev) y w.

    Each term is s^(a+a'-2) c^(b+b'-2) times an eta-polynomial; with Y1,
    Y2, W1, W2 the eta-parts of y', y'', w', w'' and v = (U - ev) s^2 c^2,
    their sum is N = (v R - Y2) P + 2 Y1 W1 - R W2, of degree at most
    deg R + deg P + 2, and f is an eigenfunction iff N = 0.

    N is decided on integers: one derivative column per side
    (wronskian._state_column) gives P, W1' = b_w W1, W2' = b_w^2 W2 and
    likewise R, Y1', Y2' with b_y, all ints at a point and int-coefficient
    ParamPolys in symbolic mode, and k v with k = 4Q^2 is

        v' = 2G(G - Q)(1 + eta) + 2H(H - Q)(1 - eta)
             - ((G + H)^2 + e)(1 - eta^2).

    Then

        (v' R b_y^2 - k Y2') P b_w^2 + 2 k b_y b_w Y1' W1' - k b_y^2 R W2'
            = K N,   K = k b_y^2 b_w^2,

    and K is not zero, so the integer left side is zero exactly when N is.
    It is decided as one packed int (_pack_columns): each of the seven
    columns v', P, W1', W2', R, Y1', Y2' is packed once, by one ring
    homomorphism that is injective on the left side, so that side is zero
    exactly when its image, the same sum of products of packed ints, is.
    """
    g, h, q = pt
    bw, (p, w1, w2), _ = _state_column(w, q, 3)
    by, (r, y1, y2), _ = _state_column(y, q, 3)
    ug, uh, us = 2 * g * (g - q), 2 * h * (h - q), (g + h) * (g + h) + e
    k, by2, bw2 = 4 * q * q, by * by, bw * bw
    cols = [ug + uh - us, ug - uh, us], p, w1, w2, r, y1, y2
    # the left side's terms as (|scalar|, indices of their factors in cols)
    terms = ((by2 * bw2, 0, 4, 1), (k * bw2, 6, 1), (2 * k * by * bw, 5, 2), (k * by2, 4, 3))
    v, p, w1, w2, r, y1, y2 = _pack_columns(cols, terms)
    return not ((v * r * by2 - k * y2) * p * bw2 + 2 * k * by * bw * y1 * w1 - k * by2 * r * w2)


def _pack_columns(cols, terms):
    """The coefficient lists cols over eta, of ints or int-coefficient
    ParamPolys, each packed once, with eta outermost, in slots that hold
    every coefficient of S = sum_t +/-s_t prod_i cols[i] for the terms
    t = (s_t, i, ...): at a point by _pack_list, the layout being eta alone,
    and in symbolic mode by algebra._pack_rows.

    A coefficient of a product F_1 ... F_m sums one term of each factor, and
    once the terms of F_1 ... F_(m-1) are chosen at most one term of F_m
    completes a given monomial, so it is at most |F_1|_1 ... |F_(m-1)|_1
    |F_m|_inf, l1 norm and largest |coefficient| over (eta, g, h); a term
    with an empty factor is zero and adds nothing.  Every coefficient of S
    is then at most B = sum_t s_t |...|_1 |...|_inf < 2^(width-1) for width
    = bits(B) + 1, and S has g-degree below ng and h-degree below nh, the
    largest sums of its terms' factors' degrees plus one.  On such
    polynomials the packing eta^k g^i h^j -> 2^(width*(i + ng*(j + nh*k)))
    is injective: the top nonzero slot, at least 2^(width*m) in size,
    exceeds all lower ones together, at most (2^(width-1) - 1)(2^(width*m)
    - 1)/(2^width - 1).  Being a ring homomorphism, it maps S to the same
    sum of products of the packed columns.
    """
    if all(type(c) is int for cs in cols for c in cs):
        rows, ng, nh = None, 1, 1
        sizes = [(sum(map(abs, cs)), max(map(abs, cs), default=0)) for cs in cols]
    else:
        rows = [_rows(cs) for cs in cols]
        sizes = [(sum(abs(x) for r in rs for x in r),
                  max((abs(x) for r in rs for x in r), default=0)) for rs, _ in rows]
        degs = [(lg - 1, max(((len(r) - 1) // lg for r in rs), default=0)) for rs, lg in rows]
        ng, nh = (1 + max(sum(degs[i][a] for i in fs) for _, *fs in terms) for a in (0, 1))
    bound = sum(s * prod(sizes[i][0] for i in fs[:-1]) * sizes[fs[-1]][1] for s, *fs in terms)
    width = bound.bit_length() + 1
    if rows is None:
        return [_pack_list(cs, width) for cs in cols]
    return [_pack_rows(rs, lg, ng, nh, width) for rs, lg in rows]


def _numerator(t, states, s, pt):
    """The integer states at pt (States for pt None) of the level s's
    numerator Wronskian, from those of t: W[t, phi_n] for s = phi_n,
    W[t without s] for s = III_m."""
    if s.type is StateType.N:
        return states + [s if pt is None else _int_state(s, pt)]
    i = t.states.index(s)
    return states[:i] + states[i + 1:]


def _wronskians(t, s, inst):
    """(pt, w, y): the point pt of inst and, as integer states at it, W[t] and
    the level s's numerator Wronskian: on t's states built once at a point,
    unpacked from a Kronecker point each for the symbols."""
    pt = _params(inst)
    if inst is None:
        return (pt, *(_unpacked(_tuple_wronskian(x, pt))
                      for x in (t, _numerator(t, list(t), s, None))))
    states = [_int_state(x, pt) for x in t]
    return pt, _int_wronskian(states, pt[2]), _int_wronskian(_numerator(t, states, s, pt), pt[2])


def _warn_if_small(w, y, q, stacklevel):
    """Warn if an exponent of y/w is below 3/2, for integer states w and y at
    the denominator q of a point; stacklevel is that of a warnings.warn call
    made by the caller."""
    ds, dc = y[0] - w[0], y[1] - w[1]
    if 2 * ds < 3 * q or 2 * dc < 3 * q:
        warnings.warn(
            "eigenfunction exponents (%s, %s) are below 3/2; the parameters "
            "may be too small for the full transformation chain"
            % (Fraction(ds, q), Fraction(dc, q)), RuntimeWarning, stacklevel=stacklevel + 1)


# Eigen checks of at most SYMBOLIC_SIZE_CAP states run symbolic when no point
# is given; larger tuples go to a point.  Symbolic checks with the cap lifted
# take 0.005 s (I1,II1, n = 1) to 0.021 s (I2,II2, n = 2) for 2 states,
# 0.012-0.08 s for 3 (I0,II1,N2; I1,II1,III1; I2,II2,III2, n = 0),
# 0.11-0.20 s for 4 (I2,II1,III1,N1; I1,II2,III1,N2; I2,II0,II2,III1; n = 0)
# and 4.8 s for I2,II0,II2,III4,N4 at n = 1, 3.1 s of it in the packed
# identity (CPU time, best of 3, Python 3.11, 2-core container).  The cap changes
# which mode API callers get, so it stays until a benchmark workload of
# symbolic eigen checks measures a new one.  It applies to the verifiers
# only: extra_eigenstate, like wronskian, builds what it is asked for.
SYMBOLIC_SIZE_CAP = 2


def verify_eigenfunction(t, n, inst=None):
    """Check that W[t, phi_n]/W[t] is an eigenfunction of the deformed
    Hamiltonian with eigenvalue E_n = 4n(n+g+h).

    The check is the exact polynomial identity of _eigen_identity, built
    from W[t] and W[t, phi_n]; no rational function is formed.  Returns
    (holds exactly, eigenvalue as a ParamPoly).  Symbolic in (g, h) for
    tuples of at most SYMBOLIC_SIZE_CAP states when no point is given;
    otherwise exact at the given (or default) generic rational point.
    """
    t = as_state_tuple(t)
    phi = State(StateType.N, n)
    t.with_state(phi)  # raises DuplicateStatesError for deleted levels
    inst = _resolve_point(len(t), SYMBOLIC_SIZE_CAP, inst)
    pt, wt, y = _wronskians(t, phi, inst)
    if inst:
        _warn_if_small(wt, y, pt[2], 2)
    return _eigen_identity(wt, y, _int_eigenvalue(phi, pt), pt), eigenvalue(phi)


def extra_eigenstate(t, ell, inst=None):
    """Eigenfunction W[t without t[ell]]/W[t] from deleting a type III state.

    t[ell] must be of type III with index m; the returned eigenvalue is
    E_{-m-1} = -4(m+1)(g+h-m-1) as a ParamPoly.  This is a constructor, like
    wronskian: with no point it is symbolic in (g, h) at any tuple size, and
    SYMBOLIC_SIZE_CAP, which picks the verifiers' mode, does not apply.
    """
    t = as_state_tuple(t)
    s = t[ell]  # -1 is the last state; IndexError out of range
    if s.type is not StateType.III:
        raise ValueError("deleted state must be of type III, got %s" % s)
    if inst is not None:
        inst = require_generic(*inst)
    pt, wt, wr = _wronskians(t, s, inst)
    if inst:
        _warn_if_small(wt, wr, pt[2], 2)
    (wt, st), (wr, sr) = _quasi(wt, pt[2]), _quasi(wr, pt[2])
    f = QuasiRat.make(wr.expS - wt.expS, wr.expC - wt.expC,
                      wr.poly.scale(Fraction(1, sr)), wt.poly.scale(Fraction(1, st)))
    return f, eigenvalue(s)


@dataclass(frozen=True)
class SpectrumLabel:
    """A permitted level: bound E_n (n >= 0) or extra E_{-m-1} (m >= 0)."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in ("bound", "extra"):
            raise ValueError("kind must be 'bound' or 'extra'")
        if self.index < 0:
            raise ValueError("index must be nonnegative")

    @property
    def energy_index(self):
        return self.index if self.kind == "bound" else -self.index - 1

    def state(self):
        """The level's state: phi_n for a bound level, III_m for an extra one."""
        return State(StateType.N if self.kind == "bound" else StateType.III, self.index)

    def energy(self):
        return eigenvalue(self.state())

    def label(self):
        return "E_%d" % self.energy_index

    def __str__(self):
        return self.label()


def permitted_spectrum(t, up_to):
    """Permitted levels read off the first Maya diagram, with eigenvalues.

    Extra levels E_{-m-1} for every left white bead position m, bound levels
    E_n for n in {0..up_to} minus the right black bead positions; ordered by
    the energy label.  No claim is made that this list is complete.
    """
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    first = tuple_to_diagrams(as_state_tuple(t)).first
    labels = [SpectrumLabel("extra", m) for m in sorted(first.left_white, reverse=True)]
    deleted = set(first.right_black)
    labels += [SpectrumLabel("bound", n) for n in range(up_to + 1) if n not in deleted]
    return [(lab, lab.energy()) for lab in labels]


def check_nonsingular(t, gv, hv):
    """True iff the instantiated Wronskian has no zero with eta in (-1, 1).

    This is exactly the condition for the deformed potential to be free of
    interior singularities on (0, pi/2); endpoint behaviour is governed by
    the exponents and is not part of the check.  It is decided on the
    Wronskian's integer core, never divided by its scale
    (algebra._root_free): Descartes' rule of signs settles most tuples, and
    an integer Sturm chain the rest.
    """
    pt = _params(require_generic(gv, hv))
    return _root_free(_int_wronskian([_int_state(s, pt) for s in as_state_tuple(t)], pt[2])[2])


def verify_spectrum(t, up_to, gv, hv):
    """The checks of spectrum --verify at the generic point (gv, hv).

    Returns (nonsingular, checks): check_nonsingular of t, and a dict from
    "eigenfunction E_n" or "extra state E_-m-1" to whether the eigen
    identity holds, one entry per level of permitted_spectrum(t, up_to) in
    its order.  Everything runs on the integer point (G, H, Q) of
    states._params: each state's integer Jacobi sum (states._int_state) is
    built once and W[t] once; a bound level reads W[t, phi_n], an extra
    level W[t without III_m], all as integer states
    (wronskian._int_wronskian), and Q^2 times its eigenvalue
    (states._int_eigenvalue).  A small exponent warns as
    verify_eigenfunction does.
    """
    t = as_state_tuple(t)
    pt = _params(require_generic(gv, hv))
    states = [_int_state(s, pt) for s in t]
    wt = _int_wronskian(states, pt[2])
    checks = {}
    for lab, _ in permitted_spectrum(t, up_to):
        s = lab.state()
        y = _int_wronskian(_numerator(t, states, s, pt), pt[2])
        _warn_if_small(wt, y, pt[2], 2)
        name = "eigenfunction " if lab.kind == "bound" else "extra state "
        checks[name + lab.label()] = _eigen_identity(wt, y, _int_eigenvalue(s, pt), pt)
    return _root_free(wt[2]), checks
