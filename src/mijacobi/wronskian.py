"""Exact differentiation and Wronskians of quasi-polynomials.

With eta = cos(2x), sin^2 x = (1-eta)/2 and cos^2 x = (1+eta)/2, the class of
functions (sin x)^a (cos x)^b Q(eta) is closed under d/dx:

    d/dx [s^a c^b Q] = s^(a-1) c^(b-1) [ (a(1+eta) - b(1-eta))/2 * Q
                                         - (1-eta^2) * Q' ]

where Q' is the eta-derivative.  A Wronskian of N such functions therefore
factors: entry (i, j) of the derivative matrix is s^(a_j - i) c^(b_j - i)
Q_{i,j}(eta), so

    W = s^(sum a_j - N(N-1)/2) c^(sum b_j - N(N-1)/2) det(Q_{i,j}).

The determinant is computed exactly over the coefficient ring (cofactor
expansion up to 4x4, fraction-free Bareiss elimination beyond), and the
result is canonicalized by pulling all (1 -/+ eta) factors into the
exponents.  The eta-polynomial left over is the object of interest: for
tuples of well states it is a (multi-indexed) Jacobi-type polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AffineExp,
    EtaPoly,
    ONE_MINUS_ETA_SQ,
    extract_edge_factors,
    proportional,
    _F1,
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
    by 2.
    """
    if not r.poly:
        raise WronskianZeroError("zero Wronskian")
    k_minus, k_plus, core = extract_edge_factors(r.poly)
    if k_minus or k_plus:
        core = core.scale(Fraction(2 ** (k_minus + k_plus)))
    return QuasiPoly(r.expS + 2 * k_minus, r.expC + 2 * k_plus, core)


def _det_cofactor(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = None
    for j in range(n):
        a = mat[0][j]
        if not a:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = a * _det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total if total is not None else EtaPoly.zero()


def _det_bareiss(mat):
    n = len(mat)
    m = [list(row) for row in mat]
    sign = 1
    prev = EtaPoly.const(_F1)
    zero = EtaPoly.zero()
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - lead * m[k][j]
                row_i[j] = num.exact_div(prev)
            row_i[k] = zero
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def det_poly_matrix(mat):
    """Exact determinant of a square EtaPoly matrix."""
    n = len(mat)
    if n == 0:
        return EtaPoly.const(_F1)
    if n <= 4:
        return _det_cofactor(mat)
    return _det_bareiss(mat)


def wronskian_of_quasis(quasis):
    """Wronskian of arbitrary quasi-polynomials, canonicalized."""
    quasis = list(quasis)
    n = len(quasis)
    if n == 0:
        return QuasiPoly(AffineExp(), AffineExp(), EtaPoly.const(_F1))
    if n == 1:
        q = quasis[0]
        return canonicalize(RawQuasi(q.expS, q.expC, q.poly))
    cols = []
    exp_s = exp_c = AffineExp()
    for q in quasis:
        col = [q.poly]
        cur = q
        for _ in range(1, n):
            cur = differentiate(cur)
            col.append(cur.poly)
        cols.append(col)
        exp_s = exp_s + q.expS
        exp_c = exp_c + q.expC
    mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    det = det_poly_matrix(mat)
    off = Fraction(n * (n - 1), 2)
    return canonicalize(RawQuasi(exp_s - off, exp_c - off, det))


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
