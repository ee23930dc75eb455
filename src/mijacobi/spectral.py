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
derivative rule (wronskian._quasi_column), so the identity is decided on
ints at a point and on int-coefficient ParamPolys in symbolic mode, scaled
by a known nonzero integer instead of divided.  verify_eigenfunction runs
it for one bound level; verify_spectrum, the checks of spectrum --verify,
builds W[T] once and runs it for every permitted level.  QuasiRat,
apply_hamiltonian and deformed_potential keep the quotient route, through
differentiate, as public API.

Everything here is exact; no tolerances appear anywhere.  Eigenfunction
checks are symbolic in (g, h) for tuples of at most SYMBOLIC_SIZE_CAP states
and run at an instantiated generic rational point otherwise, because the
(g, h)-coefficients of the identity grow quickly with the tuple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    AffineExp,
    EtaPoly,
    ONE_MINUS_ETA_SQ,
    sturm_count,
    _F1,
)
from .states import (
    State,
    StateType,
    as_state_tuple,
    eigenvalue,
    potential,
    require_generic,
    _params,
    _resolve_point,
    _value,
)
from .maya import tuple_to_diagrams
from .wronskian import RawQuasi, _quasi_column, differentiate, wronskian


@dataclass(frozen=True, eq=False)
class QuasiRat:
    """(sin x)^expS (cos x)^expC * num(eta)/den(eta), an exact quotient.

    num and den are kept as computed, with no common factor cancelled, so
    symbolic coefficients stay ParamPolys.  Equality is equality of values,
    decided by cross-multiplication; there is no normal form to hash, so
    QuasiRats are unhashable.
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
    # into its numerator.

    @staticmethod
    def _fold_factors(ds, dc):
        out = EtaPoly.const(_F1)
        half = Fraction(1, 2)
        for _ in range(ds // 2):
            out = out * EtaPoly((half, -half))
        for _ in range(dc // 2):
            out = out * EtaPoly((half, half))
        return out

    def _aligned(self, other):
        ds = self.expS - other.expS
        dc = self.expC - other.expC
        if not (ds.is_constant and dc.is_constant):
            raise ValueError("incompatible exponents: %s vs %s" % (self.expS, other.expS))
        ds, dc = ds.c0, dc.c0
        if ds.denominator != 1 or dc.denominator != 1 or ds % 2 or dc % 2:
            raise ValueError("exponent difference must be even integers")
        ds, dc = int(ds), int(dc)
        na, nb = self.num, other.num
        if ds > 0:
            na = na * self._fold_factors(ds, 0)
        elif ds < 0:
            nb = nb * self._fold_factors(-ds, 0)
        if dc > 0:
            na = na * self._fold_factors(0, dc)
        elif dc < 0:
            nb = nb * self._fold_factors(0, -dc)
        expS = self.expS if ds <= 0 else other.expS
        expC = self.expC if dc <= 0 else other.expC
        return na, nb, expS, expC

    def add(self, other):
        na, nb, expS, expC = self._aligned(other)
        return QuasiRat.make(expS, expC,
                             na * other.den + nb * self.den,
                             self.den * other.den)

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        return QuasiRat.make(self.expS + other.expS, self.expC + other.expC,
                             self.num * other.num, self.den * other.den)

    def scale(self, c):
        return QuasiRat.make(self.expS, self.expC, self.num.scale(c), self.den)

    def shift_params(self, dg, dh):
        return QuasiRat.make(self.expS.shifted(dg, dh), self.expC.shifted(dg, dh),
                             self.num.shift_params(dg, dh),
                             self.den.shift_params(dg, dh))

    def eval_eta(self, v):
        d = self.den.eval_at(v)
        if not d:
            raise ZeroDivisionError("denominator vanishes at eta=%s" % v)
        return self.num.eval_at(v) / d

    def __str__(self):
        return "s^(%s) c^(%s) [%s] / [%s]" % (self.expS, self.expC, self.num, self.den)


def differentiate_rat(f):
    """One x-derivative of a QuasiRat f = s^a c^b N/D: with s^(a-1) c^(b-1) N1
    the derivative of s^a c^b N by differentiate, the quotient rule adds one
    term, f' = s^(a-1) c^(b-1) [N1 D + (1-eta^2) N D'] / D^2."""
    d = differentiate(RawQuasi(f.expS, f.expC, f.num))
    num = d.poly * f.den + ONE_MINUS_ETA_SQ * (f.num * f.den.deriv())
    return QuasiRat.make(d.expS, d.expC, num, f.den * f.den)


def _log_second_derivative_term(w):
    """-2 (log W)'' for a canonical W = s^a c^b P, as a QuasiRat: with P1 and
    P2 the eta-parts of W' and W'', (log W)'' = 4 (P2 P - P1^2) / ((1-eta^2) P^2)."""
    r1 = differentiate(w)
    num = differentiate(r1).poly * w.poly - r1.poly * r1.poly
    return QuasiRat.make(AffineExp(), AffineExp(), num.scale(Fraction(-8)),
                         ONE_MINUS_ETA_SQ * (w.poly * w.poly))


def deformed_potential(t, inst=None):
    """U - 2 (log W[t])'' as a QuasiRat (symbolic or instantiated)."""
    return potential(inst).add(_log_second_derivative_term(wronskian(t, inst)))


def apply_hamiltonian(pot, f):
    """(-d^2/dx^2 + pot) applied to f, exactly."""
    fpp = differentiate_rat(differentiate_rat(f))
    return pot.mul(f).sub(fpp)


def _eigen_identity(w, y, ev, inst):
    """Whether f = y/w solves H_T f = ev f, decided as one integer polynomial
    identity in eta: no quotient is formed and nothing is divided.

    w = s^a c^b P is the canonical W[T] and y = s^a' c^b' Q the canonical
    numerator Wronskian (W[T, phi_n] or W[T without III_m]).  U_T =
    U - 2 (log w)'' gives

        w^2 (H_T - ev) f = -y'' w + 2 y' w' - y w'' + (U - ev) y w.

    Each term is s^(a+a'-2) c^(b+b'-2) times an eta-polynomial; with Y1,
    Y2, W1, W2 the eta-parts of y', y'', w', w'' and v = (U - ev) s^2 c^2,
    their sum is N = (v Q - Y2) P + 2 Y1 W1 - Q W2, of degree at most
    deg Q + deg P + 2, and f is an eigenfunction iff N = 0.

    N is decided on integers: one derivative column per side
    (wronskian._quasi_column) gives P' = d_P P, W1' = b_w d_P W1,
    W2' = b_w^2 d_P W2 and likewise Q', Y1', Y2' with b_y and d_Q, all ints
    at a point and int-coefficient ParamPolys in symbolic mode, and v is
    cleared once to v' = k v.  Then

        (v' Q' b_y^2 - k Y2') P' b_w^2 + 2 k b_y b_w Y1' W1' - k b_y^2 Q' W2'
            = K N,   K = k b_y^2 b_w^2 d_P d_Q,

    and K is not zero, so the integer left side is zero exactly when N is.
    """
    g, h = map(_value, _params(inst))
    bw, (p, w1, w2), dp = _quasi_column(w.expS, w.expC, w.poly, 3)
    by, (q, y1, y2), dq = _quasi_column(y.expS, y.expC, y.poly, 3)
    p, w1, w2, q, y1, y2 = map(EtaPoly, (p, w1, w2, q, y1, y2))
    # 4v = g(g-1)2(1+eta) + h(h-1)2(1-eta) - ((g+h)^2 + ev)(1-eta^2)
    ug, uh, us = g * (g - 1) * 2, h * (h - 1) * 2, (g + h) * (g + h) + ev
    v4 = (ug + uh - us, ug - uh, us)
    den = lcm(*(c.denominator for c in v4))
    v = EtaPoly([c.numerator * (den // c.denominator) for c in v4])
    k, by2 = 4 * den, by * by
    n = (((v * q).scale(by2) - y2.scale(k)) * p).scale(bw * bw)
    n = n + (y1 * w1).scale(2 * k * by * bw) - (q * w2).scale(k * by2)
    return not n


def _warn_if_small(w, y, gv, hv, stacklevel):
    """Warn if an exponent of y/w at (gv, hv) is below 3/2; stacklevel is
    that of a warnings.warn call made by the caller."""
    threshold = Fraction(3, 2)
    vs = (y.expS - w.expS).eval_at(gv, hv)
    vc = (y.expC - w.expC).eval_at(gv, hv)
    if vs < threshold or vc < threshold:
        warnings.warn(
            "eigenfunction exponents (%s, %s) are below 3/2; the parameters "
            "may be too small for the full transformation chain" % (vs, vc),
            RuntimeWarning, stacklevel=stacklevel + 1)


# Eigen checks of at most SYMBOLIC_SIZE_CAP states run symbolic when no point
# is given; larger tuples go to a point.  Symbolic checks with the cap lifted
# take 0.014 s (I1,II1, n = 1) to 0.05 s (I2,II2, n = 2) for 2 states,
# 0.02-0.13 s for 3 (I0,II1,N2; I1,II1,III1; I2,II2,III2, n = 0) and
# 0.25-0.36 s for 4 (I2,II1,III1,N1; I1,II2,III1,N2; I2,II0,II2,III1; n = 0)
# (CPU time, best of 3, Python 3.11, 2-core container).  The cap changes
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
    tn = t.with_state(phi)  # raises DuplicateStatesError for deleted levels
    inst = _resolve_point(len(t), SYMBOLIC_SIZE_CAP, inst)
    wt, y = wronskian(t, inst), wronskian(tn, inst)
    ev = eigenvalue(phi)
    if inst:
        _warn_if_small(wt, y, *inst, 2)
    return _eigen_identity(wt, y, ev.eval_at(*inst) if inst else ev, inst), ev


def extra_eigenstate(t, ell, inst=None):
    """Eigenfunction W[t without t[ell]]/W[t] from deleting a type III state.

    t[ell] must be of type III with index m; the returned eigenvalue is
    E_{-m-1} = -4(m+1)(g+h-m-1) as a ParamPoly.  This is a constructor, like
    wronskian: with no point it is symbolic in (g, h) at any tuple size, and
    SYMBOLIC_SIZE_CAP, which picks the verifiers' mode, does not apply.
    """
    t = as_state_tuple(t)
    s = t[ell]
    if s.type is not StateType.III:
        raise ValueError("deleted state must be of type III, got %s" % s)
    if inst is not None:
        inst = require_generic(*inst)
    wt, wr = wronskian(t, inst), wronskian(t.without_index(ell), inst)
    f = QuasiRat.make(wr.expS - wt.expS, wr.expC - wt.expC, wr.poly, wt.poly)
    if inst:
        _warn_if_small(wt, wr, *inst, 2)
    return f, eigenvalue(State(StateType.III, s.v))


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

    def energy(self):
        if self.kind == "bound":
            return eigenvalue(State(StateType.N, self.index))
        return eigenvalue(State(StateType.III, self.index))

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
    the exponents and is not part of the check.
    """
    gv, hv = require_generic(gv, hv)
    return _nonsingular(wronskian(t, inst=(gv, hv)))


def _nonsingular(w):
    """check_nonsingular of the Wronskian w at a point."""
    return w.poly.degree <= 0 or sturm_count(w.poly, Fraction(-1), Fraction(1)) == 0


def verify_spectrum(t, up_to, gv, hv):
    """The checks of spectrum --verify at the generic point (gv, hv).

    Returns (nonsingular, checks): check_nonsingular of t, and a dict from
    "eigenfunction E_n" or "extra state E_-m-1" to whether the eigen
    identity holds, one entry per level of permitted_spectrum(t, up_to) in
    its order.  W[t] is built once; a bound level reads W[t, phi_n], an
    extra level W[t without III_m].  A small exponent warns as
    verify_eigenfunction does.
    """
    t = as_state_tuple(t)
    inst = require_generic(gv, hv)
    wt = wronskian(t, inst)
    checks = {}
    for lab, ev in permitted_spectrum(t, up_to):
        if lab.kind == "bound":
            name, top = "eigenfunction ", t.with_state(State(StateType.N, lab.index))
        else:
            i = t.states.index(State(StateType.III, lab.index))
            name, top = "extra state ", t.without_index(i)
        y = wronskian(top, inst)
        _warn_if_small(wt, y, *inst, 2)
        checks[name + lab.label()] = _eigen_identity(wt, y, ev.eval_at(*inst), inst)
    return _nonsingular(wt), checks
