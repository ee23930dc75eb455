"""Exact differentiation and Wronskians of quasi-polynomials.

With eta = cos(2x), sin^2 x = (1-eta)/2 and cos^2 x = (1+eta)/2, the class of
functions (sin x)^a (cos x)^b Q(eta) is closed under d/dx:

    d/dx [s^a c^b Q] = s^(a-1) c^(b-1) [ (a(1+eta) - b(1-eta))/2 * Q
                                         - (1-eta^2) * Q' ]

where Q' is the eta-derivative.  A Wronskian of N such functions therefore
factors: entry (i, j) of the derivative matrix is s^(a_j - i) c^(b_j - i)
Q_{i,j}(eta), so

    W = s^(sum a_j - N(N-1)/2) c^(sum b_j - N(N-1)/2) det(Q_{i,j}).

The Wronskian is one integer pipeline in both modes: inputs are cleared of
denominators once, derivatives follow an integer form of the rule above
(_step), a lazy fraction-free elimination over Z[eta] (_lazy_det: one row
of minors, differentiated as it goes, in n(n-1)/2 combines where Bareiss
on the n derivative rows takes (n-1)n(2n-1)/6) takes the determinant, and
its (1 -/+ eta) factors go into the exponents before one division by the
scales.  Entries are ints at a point; in symbolic mode each
eta-coefficient, a polynomial in (g, h), is packed into one int by
Kronecker substitution in slots bounded from the columns.  det_poly_matrix,
integer Bareiss on the explicit matrix, is the kernel's reference.  The
eta-polynomial left over is the object of interest: for tuples of well
states a (multi-indexed) Jacobi-type one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .algebra import (
    AffineExp,
    EtaPoly,
    P_ZERO,
    extract_edge_factors,
    proportional,
    _F1,
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
    if a.is_constant and b.is_constant:
        x, y = a.c0, b.c0
        nx, ny = x.numerator * y.denominator, y.numerator * x.denominator
        den = 2 * x.denominator * y.denominator
        return Fraction(nx - ny, den), Fraction(nx + ny, den)
    pa, pb = a.as_parampoly(), b.as_parampoly()
    half = Fraction(1, 2)
    return (pa - pb) * half, (pa + pb) * half


def _columns(quasis):
    """(big, cols): cols[j] = (p, d, c0, c1) for quasis[j] = s^a c^b Q, with
    p = d*Q as a list, d the lcm of Q's denominators, (c0, c1) = big times
    the halves (a-b)/2 and (a+b)/2, big the lcm of all their denominators."""
    halves = [_half_split(q.expS, q.expC) for q in quasis]
    big = lcm(*(h.denominator for hs in halves for h in hs))
    ds = [lcm(*(c.denominator for c in q.poly.coeffs)) for q in quasis]
    return big, [([c.numerator * (d // c.denominator) for c in q.poly.coeffs], d,
                  *(h.numerator * (big // h.denominator) for h in hs))
                 for q, hs, d in zip(quasis, halves, ds)]


def _step(p, c0, c1, big):
    """c0*P + c1*eta*P - big*(1-eta^2)*P' for the dense list p of P."""
    nxt = [0] * (len(p) + 1)
    for k, c in enumerate(p):
        nxt[k] += c0 * c
        nxt[k + 1] += (c1 + big * k) * c
        if k:
            nxt[k - 1] -= big * k * c
    while nxt and not nxt[-1]:
        nxt.pop()
    return nxt


def _column(p, c0, c1, n, big):
    """The first n rows of the integer derivative column of s^a c^b Q from its
    (p, c0, c1) of _columns: big times the eta-part of (s^a c^b P)' is
    _step(P), and a derivative lowers a and b, so c1 by big.  Entry i is
    big^i * d times the eta-part of the i-th derivative, all integral."""
    col = [p]
    for _ in range(1, n):
        p, c1 = _step(p, c0, c1, big), c1 - big
        col.append(p)
    return col


def _quasi_column(exp_s, exp_c, poly, n):
    """(big, col, d): _column of s^exp_s c^exp_c poly for n rows, with big the
    lcm of the denominators of its two halves (see _half_split)."""
    big, [(p, d, c0, c1)] = _columns([RawQuasi(exp_s, exp_c, poly)])
    return big, _column(p, c0, c1, n, big), d


def differentiate(q):
    """One x-derivative of a QuasiPoly or RawQuasi; exponents drop by one.

    It is one step of _column, divided once by big*d.
    """
    big, (_, p), d = _quasi_column(q.expS, q.expC, q.poly, 2)
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


def det_poly_matrix(mat):
    """Determinant of a square EtaPoly matrix of int coefficients (ValueError
    on any other) by Bareiss elimination over Z[eta]: the integer reference
    of _lazy_det, and the left side of wronskian_compose_check.  Step k sets
    each entry below and right of the pivot to (pivot*x - lead*y) / prev,
    prev the previous pivot (none at k = 0), an exact quotient (Sylvester).
    """
    if any(type(c) is not int for row in mat for e in row for c in e.coeffs):
        raise ValueError("det_poly_matrix needs int coefficients")
    m = [[list(e.coeffs) for e in row] for row in mat]
    n, sign, prev = len(m), 1, None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return EtaPoly()  # column k is zero from row k down
        row_k = m[k]
        pivot = row_k[k]
        for row_i in m[k + 1:]:
            lead = row_i[k]
            for j in range(k + 1, n):
                num = _int_combine(pivot, row_i[j], lead, row_k[j])
                row_i[j] = num if prev is None else _int_exact_div(num, prev)
        prev = pivot
    return EtaPoly([sign * c for c in m[-1][-1]]) if m else EtaPoly.const(1)


def _matrix(cols, big):
    """The explicit n x n integer derivative matrix of _columns' cols."""
    return [[EtaPoly(e) for e in row]
            for row in zip(*(_column(p, c0, c1, len(cols), big) for p, _, c0, c1 in cols))]


def _column_bounds(p, c0, c1, n, big):
    """(norms, deg): entry i of _column(p, c0, c1, n, big) has l1 norm (the sum
    of all |coefficients| in eta, g and h) at most norms[i], by _step run on
    the eta-coefficients' norms with |c*x|_1 <= |c|_1*|x|_1 (c1 + big*k
    differs from c1 in its constant only), and g-degree at most deg + i, as
    c0 and c1 are affine in (g, h)."""
    def l1(c):
        return abs(c) if type(c) is int else sum(map(abs, c.terms.values()))
    k1 = c1 if type(c1) is int else c1.terms.get((0, 0), 0)
    a0, r1, x = l1(c0), l1(c1) - abs(k1), [l1(c) for c in p]
    norms = [sum(x)]
    for _ in range(1, n):
        nxt = [0] * (len(x) + 1)
        for k, v in enumerate(x):
            nxt[k] += a0 * v
            nxt[k + 1] += (r1 + abs(k1 + big * k)) * v
            nxt[k - 1] += big * k * v  # zero at k = 0
        x, k1 = nxt, k1 - big
        norms.append(sum(x))
    return norms, max((i for c in p if type(c) is not int for i, _ in c.terms), default=0)


def _lazy_det(cols, big):
    """det_poly_matrix(_matrix(cols, big)) from one row of minors u_j =
    det(rows 0..k; columns 0..k-1, j), columns sorted to ascending eta-degree.

    D u_j (_step with column j's own c0, c1) is the minor with row k one
    derivative further, up to a term (C0 + C1*eta)*u_j shared by level k that
    cancels in u_k*D u_j - D u_k*u_j = prev * (next u_j) (Sylvester; prev is
    the previous pivot, none at k = 0).  A zero pivot makes columns 0..k
    dependent: the determinant is zero.

    Symbolic eta-coefficients are packed into ints (algebra._pack, a ring
    homomorphism) in slots bounded from the columns (_column_bounds).  Every
    minor has g-degree below lg = 1 + sum_j deg_j + n(n-1)/2, the sum along
    any permutation.  On the torus |eta| = |g| = |h| = 1 entry (i, j) is at
    most its l1 bound N_ij, so a minor is at most prod_i max(1, sqrt(sum_j
    N_ij^2)) (Hadamard), and so is each coefficient, a mean over the torus:
    slots 2 bits wider hold them, a packed minor is zero exactly when its
    polynomial is, and the determinant unpacks uniquely.
    """
    n = len(cols)
    packed = not all(type(x) is int for p, _, c0, c1 in cols for x in (*p, c0, c1))
    if packed:
        bounds = [_column_bounds(p, c0, c1, n, big) for p, _, c0, c1 in cols]
        h2 = prod(max(1, sum(norms[i] ** 2 for norms, _ in bounds)) for i in range(n))
        width = (h2.bit_length() + 1) // 2 + 2
        lg = 1 + sum(deg for _, deg in bounds) + n * (n - 1) // 2

        def pack(c):
            return c if type(c) is int else _pack({(0, *ij): v for ij, v in c.terms.items()},
                                                  width, 1, lg)
        cols = [([pack(c) for c in p], d, pack(c0), pack(c1)) for p, d, c0, c1 in cols]
    order = sorted(range(n), key=lambda j: len(cols[j][0]))
    sign = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    u, cs, prev = [cols[j][0] for j in order], [cols[j][2:] for j in order], None
    for k in range(n - 1):
        if not u[k]:
            return EtaPoly()
        lead = _step(u[k], *cs[k], big)
        for j in range(k + 1, n):
            num = _int_combine(u[k], _step(u[j], *cs[j], big), lead, u[j])
            u[j] = num if prev is None else _int_exact_div(num, prev)
        prev = u[k]
    det = [sign * c for c in u[-1]]
    return EtaPoly(tuple(_unpack(c, width, 1, lg).coeff(0) if c else P_ZERO for c in det)
                   if packed else det)


def _wronskian(quasis, det):
    """Canonical Wronskian of quasis from det(cols, big), the determinant of
    _matrix(cols, big) for (big, cols) = _columns(quasis), whose row i carries
    big^i and column j its d_j: it is divided by big^(n(n-1)/2) * prod d_j."""
    quasis = list(quasis)
    n = len(quasis)
    if n == 0:
        return QuasiPoly(AffineExp(), AffineExp(), EtaPoly.const(_F1))
    off = Fraction(n * (n - 1), 2)
    exp_s = sum((q.expS for q in quasis), AffineExp()) - off
    exp_c = sum((q.expC for q in quasis), AffineExp()) - off
    big, cols = _columns(quasis)
    scale = big ** (n * (n - 1) // 2)
    for _, d, _, _ in cols:
        scale *= d
    return canonicalize(RawQuasi(exp_s, exp_c, det(cols, big))).scale_poly(Fraction(1, scale))


def wronskian_of_quasis(quasis):
    """Wronskian of arbitrary quasi-polynomials, canonicalized."""
    return _wronskian(quasis, _lazy_det)


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

    Both sides are computed at an instantiated generic point (the default
    if none is given): W[base,f,g] by det_poly_matrix on the explicit matrix,
    so _lazy_det, which rests on this identity, never checks it alone.
    Returns True iff the two sides agree exactly.
    """
    if inst is None:
        inst = DEFAULT_GENERIC_POINT
    require_generic(*inst)
    sts = list(as_state_tuple(base))
    as_state_tuple(sts + [f, g2])  # distinctness check
    qb = [make_state(s, inst) for s in sts]
    qf, qg = make_state(f, inst), make_state(g2, inst)
    lhs = _wronskian(qb + [qf, qg], lambda cols, big: det_poly_matrix(_matrix(cols, big)))
    lhs = lhs.mul(wronskian_of_quasis(qb))
    u = wronskian_of_quasis(qb + [qf])
    v = wronskian_of_quasis(qb + [qg])
    rhs = wronskian_of_quasis([u, v])
    return lhs == rhs
