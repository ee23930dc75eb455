"""Shared test utilities.

Contains the independent numeric Wronskian oracle (Taylor-mode automatic
differentiation in mpmath, never touching the engine's eta-space rule), a
permutation-expansion determinant oracle, random generators for states and generic rational points, and the
closed-form reduction-ledger oracle used to cross-check the move engine.
"""

from fractions import Fraction
from itertools import permutations
import random

import mpmath as mp

from mijacobi.algebra import AffineExp, EtaPoly
from mijacobi.maya import dbar
from mijacobi.states import State, StateTuple, StateType, is_generic
from mijacobi.states import random_tuple  # noqa: F401  (re-exported for the tests)


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
    from mijacobi.states import parse_state
    if not spec:
        return StateTuple()
    return StateTuple([parse_state(tok) for tok in spec.split(",")])
