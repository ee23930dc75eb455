"""Shared test utilities.

Contains the independent numeric Wronskian oracle (Taylor-mode automatic
differentiation in mpmath, never touching the engine's eta-space rule), the
Fraction form of the eta-space derivative rule (the engine uses an integer
form), the Fraction form of the eigen identity (the engine decides it on
integer columns), checks of coefficient types, the schoolbook EtaPoly
product oracle (the engine packs products into ints), a
permutation-expansion determinant oracle, a coefficient-scaling
proportionality oracle, random generators for states and generic rational
points, and the closed-form reduction-ledger oracle used to cross-check the
move engine.
"""

from fractions import Fraction
from itertools import permutations
import random

import mpmath as mp

from mijacobi.algebra import AffineExp, EtaPoly, P_G, P_H, ParamPoly, ParamRat
from mijacobi.maya import dbar
from mijacobi.states import (QuasiPoly, State, StateTuple, StateType, as_state_tuple,
                             is_generic)
from mijacobi.states import random_tuple  # noqa: F401  (re-exported for the tests)
from mijacobi.wronskian import RawQuasi, differentiate


# -- numeric oracle ----------------------------------------------------------


def mpf_of(q):
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def _series_mul(a, b, order):
    out = [mp.mpf(0)] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if ca:
            for j, cb in enumerate(b[: order + 1 - i]):
                out[i + j] += ca * cb
    return out


def _series_pow(u, alpha, order):
    # z = u^alpha via u z' = alpha u' z, valid for u[0] != 0
    z = [mp.mpf(0)] * (order + 1)
    z[0] = mp.power(u[0], alpha)
    for n in range(1, order + 1):
        acc = mp.mpf(0)
        for k in range(1, n + 1):
            acc += ((alpha + 1) * k - n) * u[k] * z[n - k]
        z[n] = acc / (n * u[0])
    return z


def _sin_series(x0, order):
    return [mp.sin(x0 + i * mp.pi / 2) / mp.factorial(i) for i in range(order + 1)]


def _cos_series(x0, order):
    return [mp.cos(x0 + i * mp.pi / 2) / mp.factorial(i) for i in range(order + 1)]


def _eta_series(x0, order):
    return [mp.cos(2 * x0 + i * mp.pi / 2) * mp.mpf(2) ** i / mp.factorial(i)
            for i in range(order + 1)]


def quasi_taylor(q, x0, order):
    """Taylor coefficients of (sin x)^A (cos x)^B P(cos 2x) around x0."""
    s = _series_pow(_sin_series(x0, order), mpf_of(q.expS.c0), order)
    c = _series_pow(_cos_series(x0, order), mpf_of(q.expC.c0), order)
    e = _eta_series(x0, order)
    p = [mp.mpf(0)] * (order + 1)
    for coef in reversed(q.poly.coeffs):
        p = _series_mul(p, e, order)
        p[0] += mpf_of(coef)
    return _series_mul(_series_mul(s, c, order), p, order)


def numeric_wronskian(quasis, x0):
    """Wronskian value at x0 from Taylor coefficients and a numeric det."""
    n = len(quasis)
    cols = [quasi_taylor(q, x0, n - 1) for q in quasis]
    mat = mp.matrix(n)
    for i in range(n):
        fct = mp.factorial(i)
        for j in range(n):
            mat[i, j] = cols[j][i] * fct
    return mp.det(mat)


def quasi_value(q, x0):
    """Direct numeric value of an instantiated quasi-polynomial at x0."""
    s, c = mp.sin(x0), mp.cos(x0)
    eta = mp.cos(2 * x0)
    pv = mp.mpf(0)
    for coef in reversed(q.poly.coeffs):
        pv = pv * eta + mpf_of(coef)
    return mp.power(s, mpf_of(q.expS.c0)) * mp.power(c, mpf_of(q.expC.c0)) * pv


# -- derivative oracle -------------------------------------------------------


def _affine_value(e):
    """An AffineExp as a Fraction when constant, else as a ParamPoly."""
    if e.is_constant:
        return e.c0
    return ParamPoly({(1, 0): e.cg, (0, 1): e.ch, (0, 0): e.c0})


def fraction_derivative(q):
    """One x-derivative of q = s^a c^b Q by the Fraction rule

        d/dx [s^a c^b Q] = s^(a-1) c^(b-1) [(c0 + c1 eta) Q - (1-eta^2) Q']

    with c0 = (a-b)/2 and c1 = (a+b)/2, in EtaPoly arithmetic over Fractions
    or ParamPolys: none of the engine's integer column step."""
    half = Fraction(1, 2)
    c0 = _affine_value(q.expS - q.expC) * half
    c1 = _affine_value(q.expS + q.expC) * half
    one_minus_eta_sq = EtaPoly((Fraction(1), Fraction(0), Fraction(-1)))
    poly = EtaPoly((c0, c1)) * q.poly - one_minus_eta_sq * q.poly.deriv()
    return RawQuasi(q.expS - 1, q.expC - 1, poly)


def holds_fractions(x):
    """Whether x is a Fraction, or a ParamPoly or ParamRat of Fractions: the
    coefficient types of every public result."""
    if isinstance(x, ParamRat):
        return holds_fractions(x.num) and holds_fractions(x.den)
    if isinstance(x, ParamPoly):
        return all(type(v) is Fraction for v in x.terms.values())
    return type(x) is Fraction


def coefficient_terms(p):
    """The coefficients of the EtaPoly p, each ParamPoly replaced by the
    coefficients of its terms."""
    return [v for c in p.coeffs
            for v in (c.terms.values() if isinstance(c, ParamPoly) else (c,))]


# -- eigen identity oracle ---------------------------------------------------


def numerator_wronskian(w, f):
    """The numerator Y = s^(a+al) c^(b+be) Q of f = s^al c^be Q/P built over
    the canonical w = s^a c^b P, as spectral._eigen_identity reads it."""
    return QuasiPoly(w.expS + f.expS, w.expC + f.expC, f.num)


def eigen_identity_reference(w, f, ev, inst):
    """Whether f = Y/w solves H_T f = ev f, by the eigen identity over
    Fractions or ParamPolys of Fractions: the engine's former
    spectral._eigen_identity, before it moved to integer columns.

    With Y = s^(a+al) c^(b+be) Q for f = s^al c^be Q/P over w = s^a c^b P,
    Y1, Y2, W1, W2 the eta-parts of Y', Y'', w', w'' from differentiate and
    v = (U - ev) s^2 c^2, it decides N = (v Q - Y2) P + 2 Y1 W1 - Q W2 = 0
    with EtaPoly add, sub and scale.
    """
    g, h = (P_G, P_H) if inst is None else inst
    p, q = w.poly, f.num
    w1 = differentiate(w)
    y1 = differentiate(RawQuasi(w.expS + f.expS, w.expC + f.expC, q))
    # v = g(g-1)(1+eta)/2 + h(h-1)(1-eta)/2 - ((g+h)^2 + ev)(1-eta^2)/4
    ug, uh, us = g * (g - 1) * 2, h * (h - 1) * 2, (g + h) * (g + h) + ev
    v = EtaPoly((ug + uh - us, ug - uh, us)).scale(Fraction(1, 4))
    n = ((v * q - differentiate(y1).poly) * p + (y1.poly * w1.poly).scale(2)
         - q * differentiate(w1).poly)
    return not n


# -- product oracle ----------------------------------------------------------


def schoolbook_mul(a, b):
    """Product of two EtaPolys by the coefficient-wise double loop over
    Fractions or ParamPolys: none of the engine's packing."""
    if not a or not b:
        return EtaPoly()
    out = [None] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            if not cb:
                continue
            p = ca * cb
            out[i + j] = p if out[i + j] is None else out[i + j] + p
    return EtaPoly(tuple(c if c is not None else Fraction(0) for c in out))


# -- determinant oracle ------------------------------------------------------


def leibniz_det(mat):
    """Determinant of a square EtaPoly matrix as the signed sum over all
    permutations of products of entries: no pivots, no divisions."""
    n = len(mat)
    total = EtaPoly.zero()
    for perm in permutations(range(n)):
        term = EtaPoly.const(Fraction(1))
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def scaled_proportional(a, b):
    """Whether lb*a == la*b for the leading coefficients la, lb, by scaling
    every coefficient: the engine's former proportionality test."""
    return a.scale(b.lc) == b.scale(a.lc)


# -- random generators -------------------------------------------------------

GENERIC_POINTS = [
    (Fraction(37, 10), Fraction(52, 7)),
    (Fraction(23, 6), Fraction(31, 5)),
    (Fraction(51, 8), Fraction(16, 3)),
    (Fraction(29, 12), Fraction(41, 9)),
    (Fraction(33, 7), Fraction(27, 11)),
]


def random_rational(rng, max_num=60, max_den=12):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_generic_point(rng):
    while True:
        gv = Fraction(rng.randint(11, 80), rng.choice([3, 5, 6, 7, 10, 11, 12]))
        hv = Fraction(rng.randint(11, 80), rng.choice([3, 5, 6, 7, 10, 11, 12]))
        if is_generic(gv, hv):
            return gv, hv


def seeded(seed):
    return random.Random(seed)


# -- closed-form reduction oracle --------------------------------------------
# Shift, prefactor exponents, and reduced tuple of each two-family target,
# written directly from the closed formulas (with max index -1 for an absent
# family, which collapses the formulas to zero moves).


def _mx(xs):
    return max(xs) if xs else -1


def closed_form_ledger(t, target):
    d1, d2 = t.indices(StateType.I), t.indices(StateType.II)
    d3, dn = t.indices(StateType.III), t.indices(StateType.N)
    if target == "IN":
        a, b = _mx(d2), _mx(d3)
        dg, dh = -a - b - 2, a - b
        gs = AffineExp(-(a + b + 2), 0, Fraction((a + b + 2) * (a + b + 3), 2))
        hc = AffineExp(0, a - b, Fraction((a - b) * (a - b - 1), 2))
    elif target == "I3":
        a, b = _mx(d2), _mx(dn)
        dg, dh = -a + b, a + b + 2
        gs = AffineExp(b - a, 0, Fraction((b - a) * (b - a - 1), 2))
        hc = AffineExp(0, a + b + 2, Fraction((a + b + 2) * (a + b + 1), 2))
    elif target == "2N":
        a, b = _mx(d1), _mx(d3)
        dg, dh = a - b, -a - b - 2
        gs = AffineExp(a - b, 0, Fraction((a - b) * (a - b - 1), 2))
        hc = AffineExp(0, -(a + b + 2), Fraction((a + b + 2) * (a + b + 3), 2))
    elif target == "23":
        a, b = _mx(d1), _mx(dn)
        dg, dh = a + b + 2, b - a
        gs = AffineExp(a + b + 2, 0, Fraction((a + b + 2) * (a + b + 1), 2))
        hc = AffineExp(0, b - a, Fraction((b - a) * (b - a - 1), 2))
    else:
        raise ValueError(target)
    return dg, dh, gs, hc


def closed_form_tuple(t, target):
    d1, d2 = t.indices(StateType.I), t.indices(StateType.II)
    d3, dn = t.indices(StateType.III), t.indices(StateType.N)
    out = []
    if target in ("IN", "I3"):
        a = _mx(d2)
        out += [State(StateType.I, v) for v in dbar(d2) + [d + a + 1 for d in d1]]
    else:
        a = _mx(d1)
        out += [State(StateType.II, v) for v in dbar(d1) + [d + a + 1 for d in d2]]
    if target in ("IN", "2N"):
        b = _mx(d3)
        out += [State(StateType.N, v) for v in dbar(d3) + [d + b + 1 for d in dn]]
    else:
        b = _mx(dn)
        out += [State(StateType.III, v) for v in dbar(dn) + [d + b + 1 for d in d3]]
    return StateTuple(sorted(out, key=State.sort_key))


def parse_states(spec):
    return as_state_tuple(spec)
