"""Exact differentiation and Wronskians of quasi-polynomials.

With eta = cos(2x), sin^2 x = (1-eta)/2 and cos^2 x = (1+eta)/2, the class of
functions (sin x)^a (cos x)^b Q(eta) is closed under d/dx:

    d/dx [s^a c^b Q] = s^(a-1) c^(b-1) [ (a(1+eta) - b(1-eta))/2 * Q
                                         - (1-eta^2) * Q' ]

where Q' is the eta-derivative.  A Wronskian of N such functions therefore
factors: entry (i, j) of the derivative matrix is s^(a_j - i) c^(b_j - i)
Q_{i,j}(eta), so

    W = s^(sum a_j - N(N-1)/2) c^(sum b_j - N(N-1)/2) det(Q_{i,j}).

The Wronskian is one integer pipeline in both modes (_int_wronskian), and
Fractions appear only at its boundary.  It runs at the integer point
(G, H, Q) of states._params, at a Kronecker point in symbolic mode
(_tuple_wronskian): states enter as integer states, exponents a/Q and b/Q
with a and b ints and integer Jacobi sums (states._int_state), and other
inputs are cleared of denominators once (_int_quasis).  The columns' constants come
off a -/+ b by one gcd with Q (_columns), the exponent sums stay integers,
and the Wronskian is itself an integer state at Q; the public calls build
one AffineExp pair and divide once (states._quasi).  Derivatives follow an
integer form of the rule above (_step), a lazy
fraction-free elimination over Z[eta] (_lazy_det: one row of minors,
differentiated as it goes, in n(n-1)/2 combines where Bareiss on the n
derivative rows takes (n-1)n(2n-1)/6) takes the determinant, and its
(1 -/+ eta) factors go into the exponents, still on integers: the public
Wronskian is an integer core over one integer scale.  Entries are ints in
both modes: in symbolic mode each eta-coefficient, a polynomial in (g, h),
is one int packed in the slots that _slots bounds from the states' norms
for both the determinant and the edge step, unpacked at the boundary only.
det_poly_matrix, integer Bareiss on the explicit matrix, is the kernel's
reference.  The eta-polynomial left over is the object of interest: for
tuples of well states a (multi-indexed) Jacobi-type one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .algebra import (
    AffineExp,
    EtaPoly,
    P_ZERO,
    extract_edge_factors,
    proportional,
    _clear,
    _edge_split,
    _int_combine,
    _int_exact_div,
    _linear,
    _lowest,
    _unpack,
)
from .states import (
    QuasiPoly,
    as_state_tuple,
    _int_state,
    _kronecker_sum,
    _params,
    _quasi,
    _sum_norms,
    _symbols,
    _value,
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


def _columns(states, q):
    """(big, cols) for integer states (a, b, p, d) at the denominator q, each
    s^(a/q) c^(b/q) (p/d) with a, b and the entries of p ints or
    int-coefficient ParamPolys (states._int_state): cols[j] = (p, d, c0, c1)
    with (c0, c1)/D = (a - b, a + b)/q in lowest terms over all states
    (_lowest), D = q/gcd(q, every integer in all a - b and a + b), and
    big = 2D, so that (c0, c1) is big times the halves (a-b)/2q and
    (a+b)/2q of the derivative rule."""
    ns, den = _lowest([x for a, b, _, _ in states for x in (a - b, a + b)], q)
    return 2 * den, [(p, d, c0, c1) for (_, _, p, d), c0, c1
                     in zip(states, ns[::2], ns[1::2])]


def _int_quasis(quasis):
    """(states, q): the integer states (a, b, p, d) of quasi-polynomials
    s^A c^B Q at one denominator q, with (a, b) = q*(A, B) and p = d*Q, each
    cleared of denominators once (_clear)."""
    ns, q = _clear(_value(x) for w in quasis for x in (w.expS, w.expC))
    return [(a, b, *_clear(w.poly.coeffs)) for w, a, b in zip(quasis, ns[::2], ns[1::2])], q


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


def _state_column(st, q, n):
    """(big, col, d): _column of the integer state st at the denominator q
    for n rows, with big and d as _columns gives them for st alone."""
    big, [(p, d, c0, c1)] = _columns([st], q)
    return big, _column(p, c0, c1, n, big), d


def differentiate(w):
    """One x-derivative of a QuasiPoly or RawQuasi; exponents drop by one.

    It is one step of _column, divided once by big*d.
    """
    [st], q = _int_quasis([w])
    big, (_, p), d = _state_column(st, q, 2)
    return RawQuasi(w.expS - 1, w.expC - 1, EtaPoly(p).scale(Fraction(1, big * d)))


def canonicalize(r):
    """Fold all edge factors of the poly into the exponents.

    (1-eta)^k = 2^k sin^(2k) x and (1+eta)^k = 2^k cos^(2k) x, so each
    extracted factor raises the matching exponent by 2 and scales the core
    by 2.  An integer poly (ints or int-coefficient ParamPolys) keeps
    integer coefficients.  Wronskians fold theirs in _int_wronskian.
    """
    if not r.poly:
        raise WronskianZeroError("zero Wronskian")
    k_minus, k_plus, core = extract_edge_factors(r.poly)
    if k_minus or k_plus:
        core = core.scale(2 ** (k_minus + k_plus))
    return QuasiPoly(r.expS + 2 * k_minus, r.expC + 2 * k_plus, core)


def det_poly_matrix(mat):
    """Determinant of a square EtaPoly matrix of int coefficients (ValueError
    on any other) by Bareiss elimination over Z[eta]: the integer reference
    of _lazy_det on the explicit derivative matrix.  Step k sets each entry
    below and right of the pivot to (pivot*x - lead*y) / prev, prev the
    previous pivot (none at k = 0), an exact quotient (Sylvester).
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


def _column_bounds(x, a0, r1, k1, n, big):
    """norms: entry i of _column(p, c0, c1, n, big) has l1 norm (the sum of
    all |coefficients| in eta, g and h) at most norms[i], for x the l1 norms
    of p's eta-coefficients, a0 that of c0, and c1 = k1 + r with k1 its
    constant and r1 = |r|_1: _step run on the norms, with |c*x|_1 <=
    |c|_1*|x|_1 (c1 + big*k differs from c1 in its constant only)."""
    norms = [sum(x)]
    for _ in range(1, n):
        nxt = [0] * (len(x) + 1)
        for k, v in enumerate(x):
            nxt[k] += a0 * v
            nxt[k + 1] += (r1 + abs(k1 + big * k)) * v
            nxt[k - 1] += big * k * v  # zero at k = 0
        x, k1 = nxt, k1 - big
        norms.append(sum(x))
    return norms


def _slots(cols, big):
    """(width, lg): the slots that hold a symbolic determinant and its edge
    step, for columns given by their norms (x, deg, a0, r1, k1): those that
    _column_bounds reads, and deg the largest g-degree in p.

    Entry (i, j) has g-degree at most deg_j + i, as c0 and c1 are affine in
    (g, h), so every minor has g-degree below lg = 1 + sum_j deg_j +
    n(n-1)/2, the sum along any permutation, and eta-degree at most e =
    sum_j deg p_j + n(n-1)/2.  Fix (g, h) on the torus |g| = |h| = 1.  For
    |eta| = 1 entry (i, j) is at most its l1 bound N_ij, so a minor is at
    most H = prod_i max(1, sqrt(sum_j N_ij^2)) (Hadamard).  The Mahler
    measure of the determinant, at most the mean of its size for |eta| = 1,
    is then at most H; M is multiplicative and M(eta -/+ 1) = 1, so each
    quotient q = det / ((eta-1)^i (eta+1)^j) the edge step forms has
    M(q) <= H, and by Landau-Mignotte (von zur Gathen & Gerhard, 6.2)
    |q_m| <= C(deg q, m) M(q).  So q(1), q(-1), the partial sums of a
    synthetic division of q, and every coefficient of a minor, of q and of
    2^(i+j) q are at most 2^e H.  A (g, h)-coefficient is a mean over the
    torus of such a value times a monomial, so it is as small, and slots of
    width bits, with 2^e H < 2^(width-2), hold it: a packed value is zero
    exactly when its polynomial is, and each unpacks uniquely.
    """
    n = len(cols)
    bounds = [_column_bounds(x, a0, r1, k1, n, big) for x, _, a0, r1, k1 in cols]
    h2 = prod(max(1, sum(norms[i] ** 2 for norms in bounds)) for i in range(n))
    e = sum(len(x) - 1 for x, *_ in cols) + n * (n - 1) // 2
    width = (h2.bit_length() + 1) // 2 + 2 + e
    return width, 1 + sum(deg for _, deg, *_ in cols) + n * (n - 1) // 2


def _lazy_det(cols, big):
    """The derivative matrix's determinant as the int list of its
    eta-coefficients, from one row of minors u_j = det(rows 0..k; columns
    0..k-1, j), columns sorted to ascending eta-degree.  In symbolic mode
    the ints are (g, h)-polynomials packed in the slots of _slots, which
    hold every minor, and the kernel runs on them unchanged.

    D u_j (_step with column j's own c0, c1) is the minor with row k one
    derivative further, up to a term (C0 + C1*eta)*u_j shared by level k that
    cancels in u_k*D u_j - D u_k*u_j = prev * (next u_j) (Sylvester; prev is
    the previous pivot, none at k = 0).  A zero pivot makes columns 0..k
    dependent: the determinant is zero.
    """
    n = len(cols)
    order = sorted(range(n), key=lambda j: len(cols[j][0]))
    sign = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    u, cs, prev = [cols[j][0] for j in order], [cols[j][2:] for j in order], None
    for k in range(n - 1):
        if not u[k]:
            return []
        lead = _step(u[k], *cs[k], big)
        for j in range(k + 1, n):
            num = _int_combine(u[k], _step(u[j], *cs[j], big), lead, u[j])
            u[j] = num if prev is None else _int_exact_div(num, prev)
        prev = u[k]
    return [sign * c for c in u[-1]]


def _int_wronskian(states, q, det=None):
    """(a, b, w, scale): the Wronskian of the integer states (a, b, p, d) of
    _columns at the denominator q, as an integer state at q itself: s^(a/q)
    c^(b/q) (w / scale), canonical but for the int scale, with an integer
    core w.  det(cols, big) is the determinant of the explicit derivative
    matrix of cols as _lazy_det (the default) gives it; row i carries big^i
    and column j its d_j, so scale = big^off * prod d_j, and the exponents
    sum those of the states less off = n(n-1)/2, the q*off of a and b.

    The (1 -/+ eta) factors come off the integer determinant (_edge_split):
    (1-eta)^k = 2^k sin^(2k) x and (1+eta)^k = 2^k cos^(2k) x raise an
    exponent by 2k and the core by 2^k.  At a Kronecker point
    (_tuple_wronskian) they come off the packed ints, whose slots hold
    every value the step tests for zero.
    """
    n = len(states)
    if n == 0:
        return 0, 0, [1], 1
    off = n * (n - 1) // 2
    big, cols = _columns(states, q)
    scale = big ** off * prod(d for _, d, _, _ in cols)
    cs = (det or _lazy_det)(cols, big)
    if not cs:
        raise WronskianZeroError("zero Wronskian")
    k_minus, k_plus, core = _edge_split(cs)
    core = [c << (k_minus + k_plus) for c in core]
    exp_s = sum((a for a, _, _, _ in states), (2 * k_minus - off) * q)
    exp_c = sum((b for _, b, _, _ in states), (2 * k_plus - off) * q)
    return exp_s, exp_c, core, scale


def _tuple_wronskian(t, pt):
    """(a, b, w, scale, slots): _int_wronskian of the States t at the point pt
    of states._params, slots None.  At the symbols the states are ints at a
    Kronecker point (states._kronecker_sum) in the slots of _slots from
    their exact norms (states._sum_norms), w is packed in them, and a and b
    are never read off packed ints, where one state's g and h can share a
    slot."""
    if not t or all(type(x) is int for x in pt[:2]):
        return (*_int_wronskian([_int_state(s, pt) for s in t], pt[2]), None)
    sym = _symbols(pt)
    norms = [_sum_norms(s, sym) for s in t]
    slots = _slots([(x, deg, sum(abs(u - v) for u, v in zip(a, b)),
                     abs(a[0] + b[0]) + abs(a[1] + b[1]), a[2] + b[2])
                    for a, b, x, deg, _ in norms], 2)
    states = []
    for s, (*_, k) in zip(t, norms):
        a, b, p, den = _kronecker_sum(s, sym, *slots)
        states.append((a, b, [c // k for c in p], den // k))
    es, ec, w, scale = _int_wronskian(states, 1)
    # the affine sums of the states' exponents plus the edge step's change
    a, b = (_linear(*map(sum, zip((0, 0, e - sum(st[i] for st in states)),
                                  *(x[i] for x in norms))))
            for i, e in ((0, es), (1, ec)))
    return a, b, w, scale, slots


def _core(cs, slots):
    """A core's coefficients cs, unpacked from slots (width, lg) if given."""
    return cs if slots is None else [
        _unpack(c, slots[0], 1, slots[1]).coeff(0) if c else P_ZERO for c in cs]


def _unpacked(w):
    """The integer state (a, b, core, scale) of _tuple_wronskian's w."""
    return w[0], w[1], _core(w[2], w[4]), w[3]


def wronskian(t, inst=None):
    """Wronskian of a tuple of states at the parameters of inst: the symbols
    for None, a rational point (gv, hv), or a pair of AffineExps such as
    (g + dg, h + dh) (see make_state).

    t is a StateTuple, States or a spec string like "I1,II2" (see
    as_state_tuple).  The empty tuple gives the constant 1.  States must be
    distinct.
    """
    t = as_state_tuple(t)
    pt = _params(inst)
    w, scale = _quasi(_unpacked(_tuple_wronskian(t, pt)), pt[2])
    return w.scale_poly(Fraction(1, scale))


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
