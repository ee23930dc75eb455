"""Exact arithmetic substrate.

Everything downstream is built from four value types, all exact over Q:

  ParamPoly  bivariate polynomial in the two potential parameters (g, h),
             stored sparsely as {(deg_g, deg_h): Fraction} with no zero
             coefficients; the canonical term order is graded lexicographic
             with g > h.
  ParamRat   quotient of two ParamPolys, gcd-reduced, denominator scaled to
             have leading rational 1 under the term order.
  AffineExp  cg*g + ch*h + c0 with integer cg, ch; used for the sin/cos
             exponents of quasi-polynomials and for move-ledger prefactors.
  EtaPoly    polynomial in eta = cos(2x).  Coefficients are Fractions for
             instantiated parameters, ParamPolys for symbolic work, or
             ParamRats when quotients are unavoidable; all operations are
             agnostic to the coefficient domain.

There is no floating point anywhere in this module, and every value is
immutable after construction; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

_F0 = Fraction(0)
_F1 = Fraction(1)


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


def _grlex(key):
    i, j = key
    return (i + j, i)


class ParamPoly:
    """Sparse exact polynomial in the parameters (g, h) over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[key] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def gen_g(cls):
        return cls({(1, 0): _F1})

    @classmethod
    def gen_h(cls):
        return cls({(0, 1): _F1})

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((i + j for i, j in self.terms), default=-1)

    @property
    def is_constant(self):
        return not self.terms or set(self.terms) == {(0, 0)}

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("polynomial is not constant: %s" % self)
        return self.terms.get((0, 0), _F0)

    @property
    def is_one(self):
        return self.terms == {(0, 0): _F1}

    def coeff(self, i, j):
        return self.terms.get((i, j), _F0)

    def leading_key(self):
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex)

    def leading_coeff(self):
        return self.terms[self.leading_key()]

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ParamPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return ParamPoly.const(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            nc = out.get(k, _F0) + c
            if nc:
                out[k] = nc
            else:
                out.pop(k, None)
        return _raw_parampoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw_parampoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                nc = out.get(k, _F0) + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    out.pop(k, None)
        return _raw_parampoly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return ParamPoly()
        return _raw_parampoly({k: v * c for k, v in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(other))
        if isinstance(other, ParamPoly):
            return ParamRat(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return ParamRat(other, self)
        return NotImplemented

    # -- parameter operations -----------------------------------------------

    def shift(self, dg, dh):
        """Substitute g -> g + dg, h -> h + dh (integer shifts), exactly."""
        out = {}
        for (i, j), c in self.terms.items():
            for a in range(i + 1):
                ca = c * comb(i, a) * (Fraction(dg) ** (i - a) if i > a else 1)
                for b in range(j + 1):
                    cb = ca * comb(j, b) * (Fraction(dh) ** (j - b) if j > b else 1)
                    k = (a, b)
                    nc = out.get(k, _F0) + cb
                    if nc:
                        out[k] = nc
                    else:
                        out.pop(k, None)
        return _raw_parampoly(out)

    def eval_at(self, gv, hv):
        gv, hv = Fraction(gv), Fraction(hv)
        total = _F0
        gpow, hpow = {0: _F1}, {0: _F1}
        for (i, j), c in self.terms.items():
            if i not in gpow:
                gpow[i] = gv ** i
            if j not in hpow:
                hpow[j] = hv ** j
            total += c * gpow[i] * hpow[j]
        return total

    def exact_div(self, other):
        """Exact quotient self/other in the polynomial ring; raises if not divisible."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if other.is_constant:
            return self.scale(1 / other.constant_value())
        rem = dict(self.terms)
        out = {}
        lk = other.leading_key()
        lc = other.terms[lk]
        while rem:
            rk = max(rem, key=_grlex)
            di, dj = rk[0] - lk[0], rk[1] - lk[1]
            if di < 0 or dj < 0:
                raise ValueError("polynomial division is not exact")
            q = rem[rk] / lc
            out[(di, dj)] = q
            for (a, b), c in other.terms.items():
                k = (a + di, b + dj)
                nc = rem.get(k, _F0) - q * c
                if nc:
                    rem[k] = nc
                else:
                    rem.pop(k, None)
        return _raw_parampoly(out)

    # -- rendering ----------------------------------------------------------

    def _term_str(self, key, c, latex=False):
        i, j = key
        parts = []
        if latex:
            if i:
                parts.append("g" if i == 1 else "g^{%d}" % i)
            if j:
                parts.append("h" if j == 1 else "h^{%d}" % j)
        else:
            if i:
                parts.append("g" if i == 1 else "g^%d" % i)
            if j:
                parts.append("h" if j == 1 else "h^%d" % j)
        mono = ("*" if not latex else " ").join(parts)
        if not mono:
            return str(c)
        if c == 1:
            return mono
        if c == -1:
            return "-" + mono
        sep = "*" if not latex else " "
        return "%s%s%s" % (c, sep, mono)

    def _render(self, latex=False):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=_grlex, reverse=True)
        out = self._term_str(keys[0], self.terms[keys[0]], latex)
        for k in keys[1:]:
            c = self.terms[k]
            if c < 0:
                out += " - " + self._term_str(k, -c, latex)
            else:
                out += " + " + self._term_str(k, c, latex)
        return out

    def __str__(self):
        return self._render()

    def latex(self):
        return self._render(latex=True)

    def __repr__(self):
        return "ParamPoly(%s)" % self


def _raw_parampoly(terms):
    p = ParamPoly.__new__(ParamPoly)
    p.terms = terms
    return p


P_ZERO = ParamPoly()
P_ONE = ParamPoly.const(1)
P_G = ParamPoly.gen_g()
P_H = ParamPoly.gen_h()


# ---------------------------------------------------------------------------
# bivariate gcd (content / primitive-part pseudo-remainder sequence)
# ---------------------------------------------------------------------------
# Univariate helpers work on dense Fraction lists (index = degree, trailing
# zeros trimmed, [] is the zero polynomial).


def _u_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _u_mul(a, b):
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return _u_trim(out)

def _u_sub(a, b):
    out = list(a) + [_F0] * (len(b) - len(a))
    for i, cb in enumerate(b):
        out[i] -= cb
    return _u_trim(out)


def _u_divmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = list(a)
    q = [_F0] * max(len(a) - len(b) + 1, 0)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        f = r[-1] / lb
        q[k] = f
        for i, cb in enumerate(b):
            r[i + k] -= f * cb
        _u_trim(r)
    return _u_trim(q), r


def _u_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _u_divmod(a, b)[1]
    if a:
        lc = a[-1]
        a = [c / lc for c in a]
    return a


def _u_exact_div(a, b):
    q, r = _u_divmod(a, b)
    if r:
        raise ValueError("univariate division is not exact")
    return q


def _to_g_major(p):
    """ParamPoly -> dense list over g-degree of h-coefficient lists."""
    dg = max((i for i, _ in p.terms), default=0)
    out = [[] for _ in range(dg + 1)]
    for (i, j), c in p.terms.items():
        row = out[i]
        if len(row) <= j:
            row.extend([_F0] * (j + 1 - len(row)))
        row[j] = c
    return [_u_trim(row) for row in out]


def _from_g_major(rows):
    terms = {}
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if c:
                terms[(i, j)] = c
    return _raw_parampoly(terms)


def _g_trim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _g_content(rows):
    c = []
    for row in rows:
        if row:
            c = _u_gcd(c, row)
            if len(c) == 1:
                break
    return c if c else []


def _g_primitive(rows, content):
    if not content or content == [_F1]:
        return [list(r) for r in rows]
    return [_u_exact_div(r, content) if r else [] for r in rows]


def _g_pseudo_rem(a, b):
    """Pseudo-remainder of a by b in (Q[h])[g]."""
    r = [list(row) for row in a]
    db = len(b) - 1
    lb = b[-1]
    while _g_trim(r) and len(r) - 1 >= db:
        dr = len(r) - 1
        lr = r[-1]
        r = [_u_mul(row, lb) for row in r]
        shift = dr - db
        for i, brow in enumerate(b):
            r[i + shift] = _u_sub(r[i + shift], _u_mul(lr, brow))
        _g_trim(r)
    return r


def parampoly_gcd(a, b):
    """Gcd in Q[g, h], normalized so the graded-lex leading coefficient is 1."""
    if not a and not b:
        return P_ZERO
    if not a or not b:
        p = a if a else b
        return p.scale(1 / p.leading_coeff())
    if a.is_constant or b.is_constant:
        return P_ONE
    ra, rb = _g_trim(_to_g_major(a)), _g_trim(_to_g_major(b))
    ca, cb = _g_content(ra), _g_content(rb)
    cont = _u_gcd(ca, cb)
    pa, pb = _g_primitive(ra, ca), _g_primitive(rb, cb)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while _g_trim(pb):
        rem = _g_pseudo_rem(pa, pb)
        pa = pb
        cr = _g_content(rem)
        pb = _g_primitive(rem, cr) if _g_trim(rem) else []
    if len(cont) > 1:
        pa = [_u_mul(row, cont) for row in pa]
    g = _from_g_major(pa)
    return g.scale(1 / g.leading_coeff())


class ParamRat:
    """Reduced quotient of two ParamPolys.

    Canonical form: num/den with gcd(num, den) = 1 and the denominator's
    graded-lex leading coefficient equal to 1, so equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        num = ParamPoly._coerce(num)
        den = ParamPoly._coerce(den)
        if num is None or den is None:
            raise TypeError("ParamRat expects polynomial or rational arguments")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = P_ZERO, P_ONE
            return
        if den.is_constant:
            self.num, self.den = num.scale(1 / den.constant_value()), P_ONE
            return
        g = parampoly_gcd(num, den)
        if not g.is_one:
            num, den = num.exact_div(g), den.exact_div(g)
        lc = den.leading_coeff()
        if lc != 1:
            num, den = num.scale(1 / lc), den.scale(1 / lc)
        self.num, self.den = num, den

    @staticmethod
    def _coerce(x):
        if isinstance(x, ParamRat):
            return x
        p = ParamPoly._coerce(x)
        if p is None:
            return None
        r = ParamRat.__new__(ParamRat)
        r.num, r.den = p, P_ONE
        return r

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    @property
    def is_polynomial(self):
        return self.den.is_one

    @property
    def is_one(self):
        return self.den.is_one and self.num.is_one

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ParamRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = ParamRat.__new__(ParamRat)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ParamRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero")
        return ParamRat(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def shift(self, dg, dh):
        return ParamRat(self.num.shift(dg, dh), self.den.shift(dg, dh))

    def eval_at(self, gv, hv):
        d = self.den.eval_at(gv, hv)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.eval_at(gv, hv) / d

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def latex(self):
        if self.den.is_one:
            return self.num.latex()
        return r"\frac{%s}{%s}" % (self.num.latex(), self.den.latex())

    def __repr__(self):
        return "ParamRat(%s)" % self


@dataclass(frozen=True)
class AffineExp:
    """cg*g + ch*h + c0 with integer parameter coefficients."""

    cg: int = 0
    ch: int = 0
    c0: Fraction = _F0

    def __post_init__(self):
        object.__setattr__(self, "c0", Fraction(self.c0))

    @classmethod
    def const(cls, v):
        return cls(0, 0, Fraction(v))

    @property
    def is_constant(self):
        return self.cg == 0 and self.ch == 0

    def __add__(self, other):
        if isinstance(other, AffineExp):
            return AffineExp(self.cg + other.cg, self.ch + other.ch, self.c0 + other.c0)
        if isinstance(other, (int, Fraction)):
            return AffineExp(self.cg, self.ch, self.c0 + other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return AffineExp(-self.cg, -self.ch, -self.c0)

    def __sub__(self, other):
        if isinstance(other, AffineExp):
            return AffineExp(self.cg - other.cg, self.ch - other.ch, self.c0 - other.c0)
        if isinstance(other, (int, Fraction)):
            return AffineExp(self.cg, self.ch, self.c0 - other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return AffineExp(-self.cg, -self.ch, other - self.c0)
        return NotImplemented

    def shifted(self, dg, dh):
        """Exponent after the substitution g -> g + dg, h -> h + dh."""
        return AffineExp(self.cg, self.ch, self.c0 + self.cg * dg + self.ch * dh)

    def eval_at(self, gv, hv):
        return self.cg * Fraction(gv) + self.ch * Fraction(hv) + self.c0

    def as_parampoly(self):
        return _raw_parampoly(
            {k: Fraction(v) for k, v in
             (((1, 0), self.cg), ((0, 1), self.ch), ((0, 0), self.c0)) if v}
        )

    def _render(self):
        parts = []
        for c, name in ((self.cg, "g"), (self.ch, "h")):
            if c == 1:
                parts.append(("+", name))
            elif c == -1:
                parts.append(("-", name))
            elif c:
                parts.append(("+" if c > 0 else "-", "%d%s" % (abs(c), name)))
        if self.c0 or not parts:
            parts.append(("+" if self.c0 >= 0 else "-", str(abs(self.c0))))
        # constant first reads best for ledger entries like 15 - 5g
        parts.sort(key=lambda t: not t[1][-1].isdigit())
        sign, txt = parts[0]
        out = ("-" if sign == "-" else "") + txt
        for sign, txt in parts[1:]:
            out += " %s %s" % (sign, txt)
        return out

    def __str__(self):
        return self._render()

    def latex(self):
        return self._render()


EXP_ZERO = AffineExp()
EXP_G = AffineExp(1, 0, _F0)
EXP_H = AffineExp(0, 1, _F0)


# ---------------------------------------------------------------------------
# EtaPoly
# ---------------------------------------------------------------------------


def _coeff_div(a, b):
    """Division inside the coefficient domain (exact for polynomials)."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    if isinstance(b, Fraction):
        return a * (1 / b)
    if isinstance(a, ParamPoly) and isinstance(b, ParamPoly):
        try:
            return a.exact_div(b)
        except ValueError:
            return ParamRat(a, b)
    ra, rb = ParamRat._coerce(a), ParamRat._coerce(b)
    if ra is None or rb is None:
        raise TypeError("cannot divide coefficients %r / %r" % (a, b))
    return ra / rb


class EtaPoly:
    """Polynomial in eta with exact coefficients (list indexed by power)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def zero(cls):
        return cls(())

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, EtaPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    @property
    def degree(self):
        """Degree in eta; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _F0

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, EtaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return EtaPoly(out)

    def __neg__(self):
        return EtaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, EtaPoly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return EtaPoly()
            out = [None] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if not ca:
                    continue
                for j, cb in enumerate(b):
                    if not cb:
                        continue
                    p = ca * cb
                    out[i + j] = p if out[i + j] is None else out[i + j] + p
            return EtaPoly(tuple(c if c is not None else _F0 for c in out))
        return NotImplemented

    def scale(self, c):
        if not c:
            return EtaPoly()
        return EtaPoly(tuple(v * c for v in self.coeffs))

    def deriv(self):
        """d/d(eta)."""
        return EtaPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def eval_at(self, v):
        out = _F0
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def shift_params(self, dg, dh):
        return EtaPoly(tuple(
            c if isinstance(c, Fraction) else c.shift(dg, dh) for c in self.coeffs))

    def instantiate(self, gv, hv):
        return EtaPoly(tuple(
            c if isinstance(c, Fraction) else c.eval_at(gv, hv) for c in self.coeffs))

    def _div_linear(self, root):
        """Quotient and remainder for division by (eta - root), root = +/-1."""
        q = [None] * (len(self.coeffs) - 1)
        acc = self.coeffs[-1]
        for k in range(len(self.coeffs) - 2, -1, -1):
            q[k] = acc
            acc = self.coeffs[k] + (acc if root == 1 else -acc)
        return q, acc

    def div_one_minus_eta(self):
        """(quotient, remainder) with self = (1 - eta)*quotient + remainder."""
        if not self.coeffs:
            return EtaPoly(), _F0
        q, r = self._div_linear(1)
        return EtaPoly(tuple(-c for c in q)), r

    def div_one_plus_eta(self):
        """(quotient, remainder) with self = (1 + eta)*quotient + remainder."""
        if not self.coeffs:
            return EtaPoly(), _F0
        q, r = self._div_linear(-1)
        return EtaPoly(tuple(q)), r

    def exact_div(self, other):
        """Exact quotient in the eta-polynomial ring; raises if not divisible."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if other.degree == 0:
            return EtaPoly(tuple(_coeff_div(c, other.coeffs[0]) for c in self.coeffs))
        rem = list(self.coeffs)
        while rem and not rem[-1]:
            rem.pop()
        out = [_F0] * max(len(rem) - other.degree, 0)
        lc = other.coeffs[-1]
        d = other.degree
        while rem:
            k = len(rem) - 1 - d
            if k < 0:
                raise ValueError("eta-polynomial division is not exact")
            q = _coeff_div(rem[-1], lc)
            out[k] = q
            for i, c in enumerate(other.coeffs):
                if c:
                    rem[i + k] = rem[i + k] - q * c
            while rem and not rem[-1]:
                rem.pop()
        return EtaPoly(tuple(out))

    def _render(self, latex=False):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if latex:
                mono = "" if k == 0 else (r"\eta" if k == 1 else r"\eta^{%d}" % k)
            else:
                mono = "" if k == 0 else ("eta" if k == 1 else "eta^%d" % k)
            cs = c.latex() if (latex and hasattr(c, "latex")) else str(c)
            if isinstance(c, Fraction) and mono:
                if c == 1:
                    parts.append(mono)
                    continue
                if c == -1:
                    parts.append("-" + mono)
                    continue
                parts.append("%s%s%s" % (cs, "" if latex else "*", mono))
            elif mono:
                parts.append("(%s)%s%s" % (cs, " " if latex else "*", mono))
            else:
                parts.append(cs if isinstance(c, Fraction) else "(%s)" % cs)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self):
        return self._render()

    def latex(self):
        return self._render(latex=True)

    def __repr__(self):
        return "EtaPoly(%s)" % self


ETA = EtaPoly((_F0, _F1))
ETA_ONE = EtaPoly((_F1,))
ONE_MINUS_ETA = EtaPoly((_F1, -_F1))
ONE_PLUS_ETA = EtaPoly((_F1, _F1))
ONE_MINUS_ETA_SQ = EtaPoly((_F1, _F0, -_F1))


def extract_edge_factors(p):
    """Split p as (1-eta)^k_minus * (1+eta)^k_plus * core.

    The core is divisible by neither edge factor; divisibility is decided by
    exact synthetic division, never numerically.
    """
    if not p:
        raise ZeroPolynomialError("zero input")
    k_minus = 0
    while True:
        q, r = p.div_one_minus_eta()
        if r:
            break
        p, k_minus = q, k_minus + 1
    k_plus = 0
    while True:
        q, r = p.div_one_plus_eta()
        if r:
            break
        p, k_plus = q, k_plus + 1
    return k_minus, k_plus, p


def proportional(a, b):
    """Constant c with a = c*b, or None if the polynomials are not proportional.

    c is lc(a)/lc(b): a Fraction for instantiated inputs, a ParamRat for
    symbolic ones.
    """
    if not a or not b:
        raise ZeroPolynomialError("proportionality test requires nonzero inputs")
    if a.degree != b.degree:
        return None
    la, lb = a.lc, b.lc
    if a.scale(lb) != b.scale(la):
        return None
    return _coeff_div(la, lb)


def sturm_count(p, lo, hi):
    """Number of distinct real roots of p in the open interval (lo, hi).

    p must already be instantiated (plain Fraction coefficients); the count
    is exact, via a Sturm sequence on the square-free part.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    if not all(isinstance(c, Fraction) for c in p.coeffs):
        raise TypeError("sturm_count requires instantiated rational coefficients")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("empty interval")
    f = list(p.coeffs)
    if len(f) == 1:
        return 0
    df = _u_trim([c * k for k, c in enumerate(f) if k])
    g = _u_gcd(f, df)
    if len(g) > 1:
        f = _u_exact_div(f, g)
    for pt in (lo, hi):
        while len(f) > 1 and not _u_eval(f, pt):
            f = _u_exact_div(f, [-pt, _F1])
    if len(f) == 1:
        return 0
    chain = [f, _u_trim([c * k for k, c in enumerate(f) if k])]
    while len(chain[-1]) > 1:
        r = _u_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _u_eval(p, v):
    out = _F0
    for c in reversed(p):
        out = out * v + c
    return out


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _u_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
