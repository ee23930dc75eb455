"""Shared test utilities.

Contains the independent numeric Wronskian oracle (Taylor-mode automatic
differentiation in mpmath, never touching the engine's eta-space rule), the
Fraction form of the eta-space derivative rule (the engine uses an integer
form), the Fraction form of the eigen identity (the engine decides it on
integer columns) and the conversion of public values to the engine's
integer form, the Fraction Sturm chain (the engine counts roots on
integers), the lazy determinant read back from its packing,
checks of coefficient types, the schoolbook EtaPoly
product oracle (the engine packs products into ints), a
permutation-expansion determinant oracle, a coefficient-scaling
proportionality oracle, random generators for states and generic rational
points, the closed-form reduction-ledger oracle used to cross-check the
move engine, and the Wronskian composition check with its explicit
derivative matrix and its Wronskian of arbitrary quasi-polynomials, the
Fraction form of the genericity rule (the engine decides it on ints), the
Fraction form of QuasiRat's arithmetic (the engine computes on integer
numerators and denominators) and the eigen identity's left side by EtaPoly
products (the engine packs its columns).
"""

from fractions import Fraction
from itertools import permutations
import random

import mpmath as mp

from mijacobi.algebra import AffineExp, EtaPoly, P_G, P_H, ParamPoly, ParamRat
from mijacobi.maya import dbar
from mijacobi.spectral import QuasiRat, _eigen_identity
from mijacobi.states import (DEFAULT_GENERIC_POINT, QuasiPoly, State, StateTuple, StateType,
                             as_state_tuple, is_generic, require_generic)
from mijacobi.states import random_tuple  # noqa: F401  (re-exported for the tests)
from mijacobi.states import _int_state, _params, _quasi, _value
from mijacobi.algebra import _F1, _clear, _edge_split, _exact_quo, _gcd, _pack
from mijacobi.wronskian import (RawQuasi, det_poly_matrix, differentiate, wronskian,
                                _column, _columns, _core, _int_minor, _int_quasis,
                                _lazy_det, _slots, _state_column)


def _matrix(cols, big):
    """The explicit n x n integer derivative matrix of _columns' cols."""
    return [[EtaPoly(e) for e in row]
            for row in zip(*(_column(p, c0, c1, len(cols), big) for p, _, c0, c1 in cols))]


def column_norms(p, c0, c1):
    """(x, deg, a0, r1, k1): the norms of a column (p, d, c0, c1) of _columns
    of ints and int-coefficient ParamPolys, as wronskian._slots reads them:
    the l1 norms x of p's eta-coefficients and their largest g-degree deg,
    the l1 norm a0 of c0, and c1's constant k1 and the l1 norm r1 of the
    rest of c1."""
    def l1(c):
        return abs(c) if type(c) is int else sum(map(abs, c.terms.values()))
    k1 = c1 if type(c1) is int else c1.terms.get((0, 0), 0)
    deg = max((i for c in p if type(c) is not int for i, _ in c.terms), default=0)
    return [l1(c) for c in p], deg, l1(c0), l1(c1) - abs(k1), k1


def exact_slots(cols, big):
    """The slots of the engine's width rule (wronskian._slots) for columns of
    ints and int-coefficient ParamPolys, from their exact l1 norms."""
    return _slots([column_norms(p, c0, c1) for p, _, c0, c1 in cols], big)


def packed(c, slots):
    """The int or int-coefficient ParamPoly c packed in slots (width, lg)."""
    return c if type(c) is int else _pack({(0, *ij): v for ij, v in c.terms.items()},
                                          slots[0], 1, slots[1])


def pack_columns(cols, big):
    """(cols, slots): columns with a ParamPoly entry packed in their exact
    slots, ints kept as they are; slots None when all are ints.  No engine
    caller hands the kernel a ParamPoly: this is the test side's."""
    if all(type(x) is int for p, _, c0, c1 in cols for x in (*p, c0, c1)):
        return cols, None
    slots = exact_slots(cols, big)
    return [([packed(c, slots) for c in p], d, packed(c0, slots), packed(c1, slots))
            for p, d, c0, c1 in cols], slots


def int_wronskian(states, q):
    """The Wronskian of integer states of ints or int-coefficient ParamPolys
    as wronskian._int_minor reads it off a full kernel run: ParamPoly
    columns are packed here (pack_columns) for the kernel, whose (k_minus,
    k_plus, core) passes through, and the core is unpacked from the same
    slots."""
    big, cols = _columns(states, q)
    cols, slots = pack_columns(cols, big)
    [det] = _lazy_det(cols, big, len(cols))
    a, b, core, scale = _int_minor(states, q, big, det)
    return a, b, _core(core, slots), scale


def wronskian_of_quasis(quasis):
    """Wronskian of arbitrary quasi-polynomials, canonicalized: each is
    cleared of denominators once and goes through int_wronskian."""
    states, q = _int_quasis(quasis)
    w, scale = _quasi(int_wronskian(states, q), q)
    return w.scale_poly(Fraction(1, scale))


def wronskian_compose_check(base, f, g2, inst=None):
    """Check W[base,f,g]*W[base] = W[W[base,f], W[base,g]] exactly.

    Both sides are computed at an instantiated generic point (the default
    if none is given): W[base,f,g] by det_poly_matrix on the explicit matrix,
    so _lazy_det, which rests on this identity, never checks it alone.
    Returns True iff the two sides agree exactly.
    """
    if inst is None:
        inst = DEFAULT_GENERIC_POINT
    pt = _params(require_generic(*inst))
    sts = list(as_state_tuple(base))
    as_state_tuple(sts + [f, g2])  # distinctness check
    states = [_int_state(s, pt) for s in sts + [f, g2]]
    big, cols = _columns(states, pt[2])
    lhs, scale = _quasi(_int_minor(
        states, pt[2], big, _edge_split(det_poly_matrix(_matrix(cols, big)).coeffs)), pt[2])
    lhs = lhs.scale_poly(Fraction(1, scale)).mul(wronskian(sts, inst))
    rhs = wronskian_of_quasis([wronskian(sts + [f], inst), wronskian(sts + [g2], inst)])
    return lhs == rhs


def with_edges(k_minus, k_plus, core):
    """(1-eta)^k_minus (1+eta)^k_plus core for the int list core, packed or
    not (the product is a ring homomorphism's image)."""
    for sign, k in ((-1, k_minus), (1, k_plus)):
        for _ in range(k):
            core = [a + sign * b for a, b in zip(core + [0], [0] + core)]
    return core


def lazy_det(cols, big):
    """wronskian._lazy_det of cols as an EtaPoly, ParamPoly columns packed
    here (pack_columns): the kernel's (k_minus, k_plus, core) rebuilt into
    the full determinant (with_edges) and read back from their slots.

    In symbolic mode the slot width is checked against the bound it rests on,
    2^e H < 2^(width-2), with H the Hadamard bound of the explicit matrix's
    own l1 norms (no larger than the width rule's, which it takes from the
    columns) and e = sum_j deg p_j + n(n-1)/2 the determinant's eta-degree
    bound.
    """
    packed_cols, slots = pack_columns(cols, big)
    [det] = _lazy_det(packed_cols, big, len(cols))
    det = with_edges(*det)
    if slots is None:
        return EtaPoly(det)

    def l1(c):
        return abs(c) if type(c) is int else sum(map(abs, c.terms.values()))
    h2 = 1
    for row in _matrix(cols, big):
        h2 *= max(1, sum(sum(map(l1, e.coeffs)) ** 2 for e in row))
    n = len(cols)
    e = sum(len(p) - 1 for p, _, _, _ in cols) + n * (n - 1) // 2
    assert h2 << 2 * e < 1 << 2 * (slots[0] - 2)
    return EtaPoly(_core(det, slots))


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


def _integral(x):
    """x as an int or int-coefficient ParamPoly; x must be integral."""
    (n,), d = _clear([x])
    assert d == 1, x
    return n


def int_state(w, q):
    """The integer state (a, b, p, d) at the denominator q of the QuasiPoly w:
    (a, b) = q*(expS, expC), which must be integral, and p = d*poly."""
    return (_integral(_value(w.expS) * q), _integral(_value(w.expC) * q),
            *_clear(w.poly.coeffs))


def eigen_identity(w, y, ev, inst):
    """spectral._eigen_identity for public values: the canonical QuasiPolys w
    (W[T]) and y (the numerator Wronskian) and the eigenvalue ev, a Fraction
    or a ParamPoly, taken to the integer point (G, H, Q) of inst (None for
    the symbols) as integer states at Q and Q^2 ev."""
    pt = _params(inst)
    q = pt[2]
    return _eigen_identity(int_state(w, q), int_state(y, q), _integral(ev * q * q), pt)


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


def eigen_numerator(w, y, e, pt):
    """The integer left side K N that spectral._eigen_identity tests for zero,
    as an EtaPoly built by EtaPoly products of its seven columns: the
    engine's former route, before it packed each column into one int."""
    g, h, q = pt
    bw, (p, w1, w2), _ = _state_column(w, q, 3)
    by, (r, y1, y2), _ = _state_column(y, q, 3)
    p, w1, w2, r, y1, y2 = map(EtaPoly, (p, w1, w2, r, y1, y2))
    ug, uh, us = 2 * g * (g - q), 2 * h * (h - q), (g + h) * (g + h) + e
    v = EtaPoly((ug + uh - us, ug - uh, us))
    k, by2 = 4 * q * q, by * by
    n = (((v * r).scale(by2) - y2.scale(k)) * p).scale(bw * bw)
    return n + (y1 * w1).scale(2 * k * by * bw) - (r * w2).scale(k * by2)


# -- quotient-route oracle ---------------------------------------------------
# QuasiRat's arithmetic as the engine had it before it moved to integer
# numerators and denominators: EtaPoly sums and products over Fractions (or
# ParamPolys of Fractions), sin^2 and cos^2 folded in as (1 -/+ eta)/2, and
# the derivative by the Fraction rule (fraction_derivative).

_HALF = Fraction(1, 2)


def reference_aligned(a, b):
    """(na, nb, expS, expC): the numerators of the QuasiRats a and b over the
    lower exponents; ValueError where they cannot be aligned."""
    ds, dc = a.expS - b.expS, a.expC - b.expC
    if not (ds.is_constant and dc.is_constant):
        raise ValueError("incompatible exponents: %s vs %s" % (a.expS, b.expS))
    ds, dc = ds.c0, dc.c0
    if ds.denominator != 1 or dc.denominator != 1 or ds % 2 or dc % 2:
        raise ValueError("exponent difference must be even integers")
    na, nb = a.num, b.num
    for d, edge in ((ds, EtaPoly((_HALF, -_HALF))), (dc, EtaPoly((_HALF, _HALF)))):
        for _ in range(abs(int(d)) // 2):
            na, nb = (na * edge, nb) if d > 0 else (na, nb * edge)
    return na, nb, (a.expS if ds <= 0 else b.expS), (a.expC if dc <= 0 else b.expC)


def reference_add(a, b):
    na, nb, expS, expC = reference_aligned(a, b)
    return QuasiRat.make(expS, expC, na * b.den + nb * a.den, a.den * b.den)


def reference_mul(a, b):
    return QuasiRat.make(a.expS + b.expS, a.expC + b.expC, a.num * b.num, a.den * b.den)


def reference_scale(a, c):
    return QuasiRat.make(a.expS, a.expC, a.num.scale(c), a.den)


def reference_differentiate_rat(f):
    """f' = s^(a-1) c^(b-1) [N1 D + (1-eta^2) N D'] / D^2 for f = s^a c^b N/D."""
    d = fraction_derivative(RawQuasi(f.expS, f.expC, f.num))
    one_minus_eta_sq = EtaPoly((Fraction(1), Fraction(0), Fraction(-1)))
    num = d.poly * f.den + one_minus_eta_sq * (f.num * f.den.deriv())
    return QuasiRat.make(d.expS, d.expC, num, f.den * f.den)


def reference_potential(inst=None):
    """U = 2g(g-1)/(1-eta) + 2h(h-1)/(1+eta) - (g+h)^2 over Fractions, a
    vanishing g(g-1) or h(h-1) dropping its pole."""
    g, h = (P_G, P_H) if inst is None else map(Fraction, inst)
    num, den = EtaPoly((-((g + h) * (g + h)),)), EtaPoly((_F1,))
    poles = EtaPoly((_F1, -_F1)), EtaPoly((_F1, _F1))
    for c, pole in zip((g * (g - 1) * 2, h * (h - 1) * 2), poles):
        if c:
            num, den = num * pole + den.scale(c), den * pole
    return QuasiRat.make(AffineExp(), AffineExp(), num, den)


# -- root-count oracle -------------------------------------------------------


def fraction_sturm_count(p, lo, hi):
    """Distinct real roots of the Fraction EtaPoly p in (lo, hi) by a Sturm
    chain over Fractions on the square-free part p/gcd(p, p'), with roots
    at lo and hi divided out: the engine's former sturm_count, before it
    moved to an integer chain."""
    f = _exact_quo(p, _gcd(p, p.deriv()))
    for pt in (lo, hi):
        while f.degree > 0 and not f.eval_at(pt):
            f = _exact_quo(f, EtaPoly((-pt, _F1)))
    if f.degree < 1:
        return 0
    chain = [f, f.deriv()]
    while chain[-1].degree > 0:
        r = divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(-r)

    def changes(x):
        signs = [v > 0 for v in (c.eval_at(x) for c in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return changes(lo) - changes(hi)


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


def reference_is_generic(gv, hv):
    """The Fraction form of states.is_generic (which decides on ints): g +/- h
    not an integer, and g, h not half-odd integers."""
    gv, hv = Fraction(gv), Fraction(hv)
    if (gv + hv).denominator == 1 or (gv - hv).denominator == 1:
        return False
    return (gv - Fraction(1, 2)).denominator != 1 and (hv - Fraction(1, 2)).denominator != 1


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
