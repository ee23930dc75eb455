"""Exact differentiation and Wronskians of quasi-polynomials.

With eta = cos(2x), sin^2 x = (1-eta)/2 and cos^2 x = (1+eta)/2, the class of
functions (sin x)^a (cos x)^b Q(eta) is closed under d/dx:

    d/dx [s^a c^b Q] = s^(a-1) c^(b-1) [ (a(1+eta) - b(1-eta))/2 * Q
                                         - (1-eta^2) * Q' ]

where Q' is the eta-derivative.  A Wronskian of N such functions therefore
factors: entry (i, j) of the derivative matrix is s^(a_j - i) c^(b_j - i)
Q_{i,j}(eta), so

    W = s^(sum a_j - N(N-1)/2) c^(sum b_j - N(N-1)/2) det(Q_{i,j}).

The determinant is computed exactly by one fraction-free Bareiss elimination
over Z[eta] on dense lists of ints.  At an instantiated point the Wronskian
is one integer pipeline: each input is cleared of denominators once, its
derivatives follow an integer form of the rule above, and the (1 -/+ eta)
factors come off the integer determinant before one division by the
scales.  In symbolic mode every row is cleared and each eta-coefficient, a
polynomial in (g, h), is packed into one int by Kronecker substitution.  The
result is canonicalized by pulling all (1 -/+ eta) factors into the
exponents.  The eta-polynomial left over is the object of interest: for
tuples of well states it is a (multi-indexed) Jacobi-type polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    AffineExp,
    EtaPoly,
    ONE_MINUS_ETA_SQ,
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


def differentiate(q):
    """One x-derivative of a QuasiPoly or RawQuasi; exponents drop by one."""
    c0, c1 = _half_split(q.expS, q.expC)
    mult = EtaPoly((c0, c1))
    poly = mult * q.poly - ONE_MINUS_ETA_SQ * q.poly.deriv()
    return RawQuasi(q.expS - 1, q.expC - 1, poly)


def canonicalize(r):
    """Fold all edge factors of the poly into the exponents.

    (1-eta)^k = 2^k sin^(2k) x and (1+eta)^k = 2^k cos^(2k) x, so each
    extracted factor raises the matching exponent by 2 and scales the core
    by 2.  An int-coefficient poly (the integer determinant at a point)
    keeps int coefficients.
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
    """Exact determinant of a square EtaPoly matrix, by Bareiss elimination
    over Z[eta] on dense lists of ints.

    A matrix of int coefficients (the cleared Wronskian matrix at a point)
    gives its int-coefficient determinant as it is.  Otherwise each row is
    scaled by the lcm of its denominators, and the result is divided by the
    product of the row scales once.  With Fraction coefficients each
    eta-coefficient is its scaled numerator.  In symbolic mode each
    eta-coefficient, a polynomial in (g, h), is packed into one int (see
    algebra._pack) with a g-degree bound and a slot width that hold for the
    coefficients of every minor: the width is 2 bits above the Hadamard-type
    bound prod_rows max(1, sqrt(sum_j |e_ij|_1^2)).  So a packed coefficient
    of a minor is zero exactly when its polynomial is, and the result unpacks
    uniquely; packing is a ring homomorphism, so each exact division returns
    the packed minor.
    """
    n = len(mat)
    if n == 0:
        return EtaPoly.const(_F1)
    if all(type(c) is int for row in mat for e in row for c in e.coeffs):
        sign, det = _bareiss([[list(e.coeffs) for e in row] for row in mat])
        return EtaPoly([sign * c for c in det])
    rows, scale = [], 1
    if all(isinstance(c, Fraction) for row in mat for e in row for c in e.coeffs):
        for row in mat:
            s = lcm(*(c.denominator for e in row for c in e.coeffs))
            rows.append([[c.numerator * (s // c.denominator) for c in e.coeffs]
                         for e in row])
            scale *= s
        sign, det = _bareiss(rows)
        return EtaPoly(tuple(Fraction(sign * c, scale) for c in det))
    h2 = 1
    for row in mat:
        terms, s = _cleared(row)
        rows.append(terms)
        scale *= s
        h2 *= max(1, sum(sum(map(abs, t.values())) ** 2 for t in terms))
    width = (h2.bit_length() + 1) // 2 + 2
    lg = 1 + _degree_bound(rows)
    m = [[[_pack({(0, i, j): v for (k, i, j), v in t.items() if k == e}, width, 1, lg)
           for e in range(1 + max((k for k, _, _ in t), default=-1))] for t in row]
         for row in rows]
    sign, det = _bareiss(m)
    return EtaPoly(tuple(_unpack(sign * c, scale, width, 1, lg).coeff(0) if c else P_ZERO
                         for c in det))


def _point_matrix(quasis):
    """(int EtaPoly Wronskian matrix, its scale) of instantiated quasis.

    Column j is cleared once by d_j, the lcm of its denominators.  With L
    the lcm of the denominators of all (a-b)/2 and (a+b)/2 (a, b the sin and
    cos exponents, which each derivative lowers by 1), L times the eta-part
    of a derivative is c0*Q + c1*eta*Q - L*(1-eta^2)*Q' with integers
    c0 = L(a-b)/2 and c1 = L(a+b)/2.  Row i carries L^i, so the scale is
    L^(n(n-1)/2) * prod_j d_j.
    """
    n = len(quasis)
    halves = [_half_split(q.expS, q.expC) for q in quasis]
    big = lcm(*(h.denominator for pair in halves for h in pair))
    cols, scale = [], big ** (n * (n - 1) // 2)
    for q, (h0, h1) in zip(quasis, halves):
        d = lcm(*(c.denominator for c in q.poly.coeffs))
        p = [c.numerator * (d // c.denominator) for c in q.poly.coeffs]
        c0, c1 = int(h0 * big), int(h1 * big)
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
        cols.append(col)
        scale *= d
    return [[EtaPoly(col[i]) for col in cols] for i in range(n)], scale


def wronskian_of_quasis(quasis):
    """Wronskian of arbitrary quasi-polynomials, canonicalized.

    Instantiated inputs (constant exponents, Fraction coefficients) take the
    integer route of _point_matrix.
    """
    quasis = list(quasis)
    n = len(quasis)
    if n == 0:
        return QuasiPoly(AffineExp(), AffineExp(), EtaPoly.const(_F1))
    off = Fraction(n * (n - 1), 2)
    exp_s = sum((q.expS for q in quasis), AffineExp()) - off
    exp_c = sum((q.expC for q in quasis), AffineExp()) - off
    if all(q.expS.is_constant and q.expC.is_constant
           and all(isinstance(c, Fraction) for c in q.poly.coeffs) for q in quasis):
        mat, scale = _point_matrix(quasis)
        raw = RawQuasi(exp_s, exp_c, det_poly_matrix(mat))
        return canonicalize(raw).scale_poly(Fraction(1, scale))
    cols = []
    for q in quasis:
        cols.append([q])
        for _ in range(1, n):
            cols[-1].append(differentiate(cols[-1][-1]))
    mat = [[col[i].poly for col in cols] for i in range(n)]
    return canonicalize(RawQuasi(exp_s, exp_c, det_poly_matrix(mat)))


def wronskian(t, inst=None):
    """Wronskian of a tuple of states (symbolic, or at instantiated (g, h)).

    The empty tuple gives the constant 1.  States must be distinct.
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
