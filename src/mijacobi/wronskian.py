"""Exact differentiation and Wronskians of quasi-polynomials.

With eta = cos(2x), sin^2 x = (1-eta)/2 and cos^2 x = (1+eta)/2, the class of
functions (sin x)^a (cos x)^b Q(eta) is closed under d/dx:

    d/dx [s^a c^b Q] = s^(a-1) c^(b-1) [ (a(1+eta) - b(1-eta))/2 * Q
                                         - (1-eta^2) * Q' ]

where Q' is the eta-derivative.  A Wronskian of N such functions therefore
factors: entry (i, j) of the derivative matrix is s^(a_j - i) c^(b_j - i)
Q_{i,j}(eta), so

    W = s^(sum a_j - N(N-1)/2) c^(sum b_j - N(N-1)/2) det(Q_{i,j}).

The Wronskian is one integer pipeline in both modes: each input is cleared
of denominators once, its derivatives follow an integer form of the rule
above (see _column), one fraction-free Bareiss elimination over Z[eta] on
dense lists of ints takes the determinant, and the (1 -/+ eta) factors come
off the integer determinant, which is then divided once by the scales.  The
entries are ints at an instantiated point and int-coefficient ParamPolys in
symbolic mode, where each eta-coefficient, a polynomial in (g, h), is packed
into one int by Kronecker substitution.  The exponents then hold all the
(1 -/+ eta) factors.  The eta-polynomial left over is the object of
interest: for tuples of well states it is a (multi-indexed) Jacobi-type
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    AffineExp,
    EtaPoly,
    P_ZERO,
    extract_edge_factors,
    proportional,
    _F1,
    _cleared,
    _pack,
    _unpack,
)
from .states import (
    DEFAULT_GENERIC_POINT,
    QuasiPoly,
    as_state_tuple,
    make_state,
    require_generic,
)


class WronskianZeroError(ArithmeticError):
    """The computed Wronskian vanished identically.

    Cannot happen for distinct states with symbolic parameters under the
    genericity assumption; at instantiated parameters it signals a
    non-generic point.
    """


@dataclass(frozen=True)
class RawQuasi:
    """Pre-canonical quasi-polynomial; poly may be zero or edge-divisible."""

    expS: AffineExp
    expC: AffineExp
    poly: EtaPoly


def _half_split(a, b):
    """Coefficients of (a(1+eta) - b(1-eta))/2 = (a-b)/2 + (a+b)/2 * eta."""
    half = Fraction(1, 2)
    if a.is_constant and b.is_constant:
        return (a.c0 - b.c0) * half, (a.c0 + b.c0) * half
    pa, pb = a.as_parampoly(), b.as_parampoly()
    return (pa - pb) * half, (pa + pb) * half


def _column(poly, h0, h1, n, big):
    """(col, d): d*Q and the scaled eta-parts of the first n-1 derivatives of
    a quasi-polynomial s^a c^b Q with h0 = (a-b)/2 and h1 = (a+b)/2.

    d is the lcm of the denominators of Q, and big a common multiple of those
    of h0 and h1.  With c0 = big*h0 and c1 = big*h1, big times the eta-part
    of the derivative of s^a c^b P is c0*P + c1*eta*P - big*(1-eta^2)*P',
    and a derivative lowers a and b by 1, so c1 by big.  Entry i of col is
    big^i * d times the eta-part of the i-th derivative.  Every entry is
    integral: ints at an instantiated point, int-coefficient ParamPolys
    (c0, c1 affine in (g, h)) in symbolic mode.
    """
    d = lcm(*(c.denominator for c in poly.coeffs))
    p = [c.numerator * (d // c.denominator) for c in poly.coeffs]
    c0, c1 = (h.numerator * (big // h.denominator) for h in (h0, h1))
    col = [p]
    for _ in range(1, n):
        nxt = [0] * (len(p) + 1)
        for k, c in enumerate(p):
            nxt[k] += c0 * c
            nxt[k + 1] += (c1 + big * k) * c
            if k:
                nxt[k - 1] -= big * k * c
        while nxt and not nxt[-1]:
            nxt.pop()
        p, c1 = nxt, c1 - big
        col.append(p)
    return col, d


def differentiate(q):
    """One x-derivative of a QuasiPoly or RawQuasi; exponents drop by one.

    It is one step of _column, divided once by big*d.
    """
    h0, h1 = _half_split(q.expS, q.expC)
    big = lcm(h0.denominator, h1.denominator)
    (_, p), d = _column(q.poly, h0, h1, 2, big)
    return RawQuasi(q.expS - 1, q.expC - 1, EtaPoly(p).scale(Fraction(1, big * d)))


def canonicalize(r):
    """Fold all edge factors of the poly into the exponents.

    (1-eta)^k = 2^k sin^(2k) x and (1+eta)^k = 2^k cos^(2k) x, so each
    extracted factor raises the matching exponent by 2 and scales the core
    by 2.  An integer poly (the integer determinant, of ints or of
    int-coefficient ParamPolys) keeps integer coefficients.
    """
    if not r.poly:
        raise WronskianZeroError("zero Wronskian")
    k_minus, k_plus, core = extract_edge_factors(r.poly)
    if k_minus or k_plus:
        core = core.scale(2 ** (k_minus + k_plus))
    return QuasiPoly(r.expS + 2 * k_minus, r.expC + 2 * k_plus, core)


def _int_combine(pivot, x, lead, y):
    """pivot*x - lead*y for dense int coefficient lists, trailing zeros trimmed."""
    out = [0] * max(len(pivot) + len(x), len(lead) + len(y))
    for i, a in enumerate(pivot):
        if a:
            for j, b in enumerate(x, i):
                out[j] += a * b
    for i, a in enumerate(lead):
        if a:
            for j, b in enumerate(y, i):
                out[j] -= a * b
    while out and not out[-1]:
        out.pop()
    return out


def _int_exact_div(a, b):
    """Exact quotient a/b of dense int coefficient lists (b nonzero);
    ValueError if inexact."""
    rem = list(a)
    d, lc = len(b) - 1, b[-1]
    out = [0] * max(len(rem) - d, 0)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[k + d], lc)
        if r:
            raise ValueError("integer polynomial division is not exact")
        if q:
            out[k] = q
            for i, c in enumerate(b, k):
                rem[i] -= q * c
    if any(rem[:d]):
        raise ValueError("integer polynomial division is not exact")
    return out


def _degree_bound(rows):
    """Bound on the g-degree of every minor of a square matrix of integer
    terms {(k, i, j): n}.

    It is the largest sum of the entries' maximum g-degrees along a
    permutation, found by a pass over the rows that keeps the best sum for
    each set of columns used.  Degrees are nonnegative, so this also bounds
    every smaller minor, and it is at most the row and the column sums.
    """
    best = {0: 0}
    for row in rows:
        degs = [max((key[1] for key in t), default=0) for t in row]
        nxt = {}
        for used, total in best.items():
            for j, d in enumerate(degs):
                if not used >> j & 1:
                    nxt[used | 1 << j] = max(nxt.get(used | 1 << j, 0), total + d)
        best = nxt
    return best.popitem()[1]


def _bareiss(m):
    """Fraction-free elimination of the square matrix m of dense int
    coefficient lists, in place.

    Returns (sign, d) with det = sign * d.  Step k replaces each entry below
    and right of the pivot by (pivot*x - lead*y) / prev, where prev is the
    previous pivot; the quotient is exact (Sylvester's identity), and the
    first step has no previous pivot to divide by.
    """
    n = len(m)
    sign, prev = 1, None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 1, m[k][k]  # column k is zero from row k down
        row_k = m[k]
        pivot = row_k[k]
        for row_i in m[k + 1:]:
            lead = row_i[k]
            for j in range(k + 1, n):
                num = _int_combine(pivot, row_i[j], lead, row_k[j])
                row_i[j] = num if prev is None else _int_exact_div(num, prev)
        prev = pivot
    return sign, m[n - 1][n - 1]


def det_poly_matrix(mat):
    """Exact determinant of a square EtaPoly matrix of integer coefficients,
    by Bareiss elimination over Z[eta] on dense lists of ints.

    Int coefficients (an instantiated Wronskian matrix) are eliminated as
    they are.  Otherwise the coefficients are int-coefficient ParamPolys
    (symbolic mode), and each eta-coefficient, a polynomial in (g, h), is
    packed into one int (see algebra._pack) with a g-degree bound and a slot
    width that hold for the coefficients of every minor: the width is 2 bits
    above the Hadamard-type bound prod_rows max(1, sqrt(sum_j |e_ij|_1^2)).
    So a packed coefficient of a minor is zero exactly when its polynomial
    is, and the result unpacks uniquely; packing is a ring homomorphism, so
    each exact division returns the packed minor.  The determinant has
    integer coefficients of the same kind; ValueError for a non-integral
    coefficient.
    """
    n = len(mat)
    if n == 0:
        return EtaPoly.const(1)
    if all(type(c) is int for row in mat for e in row for c in e.coeffs):
        sign, det = _bareiss([[list(e.coeffs) for e in row] for row in mat])
        return EtaPoly([sign * c for c in det])
    rows, h2 = [], 1
    for row in mat:
        terms, s = _cleared(row)
        if s != 1:
            raise ValueError("det_poly_matrix needs integer coefficients")
        rows.append(terms)
        h2 *= max(1, sum(sum(map(abs, t.values())) ** 2 for t in terms))
    width = (h2.bit_length() + 1) // 2 + 2
    lg = 1 + _degree_bound(rows)
    m = [[[_pack({(0, i, j): v for (k, i, j), v in t.items() if k == e}, width, 1, lg)
           for e in range(1 + max((k for k, _, _ in t), default=-1))] for t in row]
         for row in rows]
    sign, det = _bareiss(m)
    return EtaPoly(tuple(_unpack(sign * c, width, 1, lg).coeff(0) if c else P_ZERO
                         for c in det))


def wronskian_of_quasis(quasis):
    """Wronskian of arbitrary quasi-polynomials, canonicalized.

    All columns of _column share big, the lcm over all inputs, so row i of
    the integer matrix carries big^i and column j its d_j: the canonicalized
    integer determinant is divided once by big^(n(n-1)/2) * prod_j d_j.
    """
    quasis = list(quasis)
    n = len(quasis)
    if n == 0:
        return QuasiPoly(AffineExp(), AffineExp(), EtaPoly.const(_F1))
    off = Fraction(n * (n - 1), 2)
    exp_s = sum((q.expS for q in quasis), AffineExp()) - off
    exp_c = sum((q.expC for q in quasis), AffineExp()) - off
    halves = [_half_split(q.expS, q.expC) for q in quasis]
    big = lcm(*(h.denominator for pair in halves for h in pair))
    cols, scale = [], big ** (n * (n - 1) // 2)
    for q, (h0, h1) in zip(quasis, halves):
        col, d = _column(q.poly, h0, h1, n, big)
        cols.append(col)
        scale *= d
    mat = [[EtaPoly(col[i]) for col in cols] for i in range(n)]
    raw = RawQuasi(exp_s, exp_c, det_poly_matrix(mat))
    return canonicalize(raw).scale_poly(Fraction(1, scale))


def wronskian(t, inst=None):
    """Wronskian of a tuple of states (symbolic, or at instantiated (g, h)).

    t is a StateTuple, States or a spec string like "I1,II2" (see
    as_state_tuple).  The empty tuple gives the constant 1.  States must be
    distinct.
    """
    sts = as_state_tuple(t)
    return wronskian_of_quasis(make_state(s, inst) for s in sts)


def compare_quasi(a, b):
    """Proportionality constant c with a = c*b, or None.

    Requires the sin and cos exponents to agree exactly as affine
    expressions; the constant is then lc(a)/lc(b) when the polynomial parts
    are proportional.
    """
    if a.expS != b.expS or a.expC != b.expC:
        return None
    return proportional(a.poly, b.poly)


def shift_quasi(q, dg, dh):
    """Substitute (g, h) -> (g+dg, h+dh) in exponents and coefficients."""
    return QuasiPoly(q.expS.shifted(dg, dh), q.expC.shifted(dg, dh),
                     q.poly.shift_params(dg, dh))


def wronskian_compose_check(base, f, g2, inst=None):
    """Check W[base,f,g]*W[base] = W[W[base,f], W[base,g]] exactly.

    Both sides are computed independently at an instantiated generic point
    (the default one if none is given); the outer Wronskian on the right is
    formed by differentiating the two inner Wronskians as quasi-polynomials.
    Returns True iff the two sides agree exactly.
    """
    if inst is None:
        inst = DEFAULT_GENERIC_POINT
    require_generic(*inst)
    sts = list(as_state_tuple(base))
    as_state_tuple(sts + [f, g2])  # distinctness check
    qb = [make_state(s, inst) for s in sts]
    qf, qg = make_state(f, inst), make_state(g2, inst)
    lhs = wronskian_of_quasis(qb + [qf, qg]).mul(wronskian_of_quasis(qb))
    u = wronskian_of_quasis(qb + [qf])
    v = wronskian_of_quasis(qb + [qg])
    rhs = wronskian_of_quasis([u, v])
    return lhs == rhs
