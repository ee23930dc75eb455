"""Exact arithmetic substrate.

Everything downstream is built from four value types, all exact over Q:

  ParamPoly  bivariate polynomial in the two potential parameters (g, h),
             stored sparsely as {(deg_g, deg_h): coefficient} with no zero
             coefficients; the canonical term order is graded lexicographic
             with g > h.  Public values hold Fractions.  Arithmetic keeps
             int coefficients ints, so the integer Wronskian pipeline runs
             on int-coefficient ParamPolys until its one final division.
  ParamRat   quotient of two ParamPolys, reduced, denominator scaled to
             have leading rational 1 under the term order; the value type
             of a symbolic proportionality constant, with no arithmetic.
             ParamRat(num, den) reduces by parampoly_gcd; the move
             identities read the same normal form off known factors
             (_factored_ratio), with no gcd and no check of its own, and
             prove it once, by the one packed comparison that also proves
             the identity (_products_equal).
  AffineExp  cg*g + ch*h + c0 with integer cg, ch and c0 always a
             Fraction; the form of the parameters (g, h) themselves, of
             the sin/cos exponents and of move-ledger prefactors.
  EtaPoly    polynomial in eta = cos(2x).  Coefficients are Fractions for
             instantiated parameters and ParamPolys for symbolic work.  With
             Fraction coefficients it is the one univariate type over Q: the
             gcd of ParamPolys runs on it too, and root counting clears it
             to ints (sturm_count, _root_free).  Its
             arithmetic keeps ints ints, as ParamPoly's does, so the
             quotient route of spectral (QuasiRat) runs on int coefficients
             at a point and on int-coefficient ParamPolys symbolically.  The
             eigen checks run on no EtaPoly arithmetic: they pack their
             integer columns into ints (_pack_columns).

Integer polynomials are also packed into single Python ints (Kronecker
substitution).  A symbolic Wronskian is built packed at a Kronecker point,
one int per eta-coefficient, a polynomial in (g, h).  Every other packed
product, of a symbolic EtaPoly product, a proportionality check and an
eigen identity, goes through one packer in one layout (_pack_columns): the
coefficient of eta^k g^i h^j in slot i + ng*(j + nh*k), in slots wider
than any coefficient of the products, read back by _unpack.  A product of
two EtaPolys runs on ints in both modes: each factor is cleared of
denominators once; at a point the int lists are multiplied by the lazy
determinant's own product (_int_combine), and in symbolic mode the two
packed factors are multiplied once and the product is read back once, so
no coefficient-by-coefficient Fraction arithmetic is done.  The product is
int-preserving: it holds ints when both factors hold only ints (int
coefficients, or ParamPolys of int terms), and Fractions once either
factor holds a Fraction, so no public result changes type.

There is no floating point anywhere in this module, and every value is
immutable after construction; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
from math import comb, gcd, lcm, prod

_F0 = Fraction(0)
_F1 = Fraction(1)


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


def _exact(v):
    """v as a Fraction, a Fraction returned as it is; TypeError unless v is an
    int or a Fraction (a float would be read as its binary fraction)."""
    if type(v) is Fraction:
        return v
    if not isinstance(v, int):
        raise TypeError("values must be ints or Fractions, got %r" % (v,))
    return Fraction(v)


def _exact_point(gv, hv):
    """(gv, hv) as Fractions by _exact."""
    return (gv if type(gv) is Fraction else _exact(gv),
            hv if type(hv) is Fraction else _exact(hv))


def _clear(values):
    """(ns, d): d the lcm of the denominators of values (ints, Fractions or
    ParamPolys) and ns the integral d*v of each value v, in order.  A
    ParamPoly is read through its terms: one lcm over every denominator."""
    values = [v.terms if type(v) is ParamPoly else v for v in values]
    d = lcm(*(c.denominator for v in values
              for c in (v.values() if type(v) is dict else (v,))))
    return [_raw_parampoly({k: c.numerator * (d // c.denominator) for k, c in v.items()})
            if type(v) is dict else v.numerator * (d // v.denominator) for v in values], d


def _lowest(values, den):
    """(ns, d): the ints and int-coefficient ParamPolys values over the int den
    in lowest terms, each value and den divided by k, the gcd of den and
    every integer in values (a ParamPoly's terms)."""
    k = gcd(den, *(x for v in values for x in (v.terms.values() if type(v) is ParamPoly
                                               else (v,))))
    if k == 1:
        return values, den
    return [v // k if type(v) is int else
            _raw_parampoly({key: x // k for key, x in v.terms.items()}) for v in values], den // k


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
                c = _exact(c)
                if c:
                    clean[key] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

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

    def __hash__(self):  # a constant hashes as the Fraction it equals
        if self.is_constant:
            return hash(self.constant_value())
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

    @property
    def denominator(self):
        """The lcm of the coefficients' denominators; 1 for int coefficients."""
        return lcm(*(c.denominator for c in self.terms.values()))

    @property
    def numerator(self):
        """denominator * self with int coefficients, so that, as for a
        Fraction, self = numerator / denominator in lowest terms."""
        ns, _ = _clear(self.terms.values())
        return _raw_parampoly(dict(zip(self.terms, ns)))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ParamPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return _raw_parampoly({(0, 0): x} if x else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            nc = out.get(k, 0) + c
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
                nc = out.get(k, 0) + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    out.pop(k, None)
        return _raw_parampoly(out)

    __rmul__ = __mul__

    def scale(self, c):
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
            return self.scale(1 / Fraction(other))
        return NotImplemented

    # -- parameter operations -----------------------------------------------

    def shift(self, dg, dh):
        """Substitute g -> g + dg, h -> h + dh (integer shifts), exactly.

        The sums run over integers, on the numerator; the result is divided
        by the denominator s once.
        """
        s = self.denominator
        pg = [[comb(i, a) * dg ** (i - a) for a in range(i + 1)]
              for i in range(1 + max((i for i, _ in self.terms), default=0))]
        ph = [[comb(j, b) * dh ** (j - b) for b in range(j + 1)]
              for j in range(1 + max((j for _, j in self.terms), default=0))]
        out = {}
        for (i, j), n in self.numerator.terms.items():
            for a, ca in enumerate(pg[i]):
                if ca:
                    for b, cb in enumerate(ph[j]):
                        if cb:
                            out[(a, b)] = out.get((a, b), 0) + n * ca * cb
        return _raw_parampoly({k: Fraction(v, s) for k, v in out.items() if v})

    def eval_at(self, gv, hv):
        gv, hv = _exact_point(gv, hv)
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
            return self.scale(_F1 / other.constant_value())
        rem = dict(self.terms)
        out = {}
        lk = other.leading_key()
        inv = _F1 / other.terms[lk]
        while rem:
            rk = max(rem, key=_grlex)
            di, dj = rk[0] - lk[0], rk[1] - lk[1]
            if di < 0 or dj < 0:
                raise ValueError("polynomial division is not exact")
            q = rem[rk] * inv
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


def _linear(cg, ch, c0):
    """The int-coefficient ParamPoly cg*g + ch*h + c0."""
    return _raw_parampoly({k: v for k, v in (((1, 0), cg), ((0, 1), ch), ((0, 0), c0)) if v})


P_ZERO = ParamPoly()
P_ONE = ParamPoly.const(1)
P_G = ParamPoly.gen_g()
P_H = ParamPoly.gen_h()


# ---------------------------------------------------------------------------
# bivariate gcd (content / primitive-part pseudo-remainder sequence)
# ---------------------------------------------------------------------------
# It reduces ParamRat(num, den) for API callers.  No engine path calls it:
# the symbolic constants of the move identities are built from the
# closed-form factors of the Wronskians' leading coefficients instead
# (_factored_ratio).
# Q[g, h] is read as (Q[h])[g]: a list over g-degree of rows, each row an
# EtaPoly with Fraction coefficients whose variable is h.  The list has no
# trailing zero rows; [] is the zero polynomial.


def _gcd(a, b):
    """Monic gcd of two EtaPolys over Q; zero when both are zero."""
    while b:
        a, b = b, divmod(a, b)[1]
    return a.scale(_F1 / a.lc) if a else a


def _exact_quo(a, b):
    """Quotient a/b of EtaPolys over Q; ValueError if b does not divide a."""
    q, r = divmod(a, b)
    if r:
        raise ValueError("univariate division is not exact")
    return q


def _to_g_major(p):
    """Nonzero ParamPoly -> list over g-degree of EtaPoly rows in h."""
    rows = [[] for _ in range(1 + max(i for i, _ in p.terms))]
    for (i, j), c in p.terms.items():
        row = rows[i]
        row.extend([_F0] * (j + 1 - len(row)))
        row[j] = c
    return [EtaPoly(row) for row in rows]


def _from_g_major(rows):
    return _raw_parampoly({(i, j): c for i, row in enumerate(rows)
                           for j, c in enumerate(row.coeffs) if c})


def _g_trim(rows):
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _g_content(rows):
    """Monic gcd of the rows; zero for []."""
    c = EtaPoly()
    for row in rows:
        if row:
            c = _gcd(c, row)
            if not c.degree:
                break
    return c


def _g_primitive(rows, content):
    if content.degree < 1:
        return list(rows)
    return [_exact_quo(r, content) for r in rows]


def _g_pseudo_rem(a, b):
    """Pseudo-remainder of a by b in (Q[h])[g]."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while _g_trim(r) and len(r) - 1 >= db:
        lr, shift = r[-1], len(r) - 1 - db
        r = [row * lb for row in r]
        for i, brow in enumerate(b, shift):
            r[i] = r[i] - lr * brow
    return r


def parampoly_gcd(a, b):
    """Gcd in Q[g, h], normalized so the graded-lex leading coefficient is 1."""
    if not a and not b:
        return P_ZERO
    if not a or not b:
        p = a if a else b
        return p.scale(_F1 / p.leading_coeff())
    if a.is_constant or b.is_constant:
        return P_ONE
    ra, rb = _to_g_major(a), _to_g_major(b)
    ca, cb = _g_content(ra), _g_content(rb)
    cont = _gcd(ca, cb)
    pa, pb = _g_primitive(ra, ca), _g_primitive(rb, cb)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        rem = _g_pseudo_rem(pa, pb)
        pa, pb = pb, _g_primitive(rem, _g_content(rem))
    if cont.degree > 0:
        pa = [row * cont for row in pa]
    g = _from_g_major(pa)
    return g.scale(_F1 / g.leading_coeff())


class ParamRat:
    """A symbolic proportionality constant: reduced quotient of two ParamPolys.

    Canonical form: num/den with gcd(num, den) = 1 and the denominator's
    graded-lex leading coefficient equal to 1, so equality is structural.
    ParamRat(num, den) reaches it by parampoly_gcd, as proportional does;
    the symbolic move identities of maya build the same form from the
    known factors of both sides instead (_factored_ratio).  It is a
    reported value only, with no arithmetic; EtaPoly coefficients are never
    ParamRats.
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
            self.num, self.den = num.scale(_F1 / den.constant_value()), P_ONE
            return
        g = parampoly_gcd(num, den)
        if not g.is_one:
            num, den = num.exact_div(g), den.exact_div(g)
        lc = den.leading_coeff()
        if lc != 1:
            num, den = num.scale(_F1 / lc), den.scale(_F1 / lc)
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
        # den 1: hash as the ParamPoly num it equals (a constant as its Fraction)
        return hash(self.num) if self.den.is_one else hash((self.num, self.den))

    def eval_at(self, gv, hv):
        d = self.den.eval_at(gv, hv)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.eval_at(gv, hv) / d

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "ParamRat(%s)" % self


@dataclass(frozen=True)
class AffineExp:
    """cg*g + ch*h + c0 with integer parameter coefficients."""

    cg: int = 0
    ch: int = 0
    c0: Fraction = _F0

    def __post_init__(self):
        if type(self.c0) is not Fraction or type(self.cg) is not int \
                or type(self.ch) is not int:
            if not (isinstance(self.cg, int) and isinstance(self.ch, int)):
                raise TypeError("cg and ch must be ints, got %r, %r" % (self.cg, self.ch))
            object.__setattr__(self, "c0", _exact(self.c0))

    @classmethod
    def const(cls, v):
        return cls(0, 0, v)

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


# ---------------------------------------------------------------------------
# EtaPoly
# ---------------------------------------------------------------------------


class EtaPoly:
    """Polynomial in eta with exact coefficients (tuple indexed by power).

    divmod(a, b) is long division by a b whose leading coefficient is a
    nonzero Fraction.
    """

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
        """The product, on ints in both modes.

        At a point (no ParamPoly coefficient) each factor is cleared to an
        int list over eta and the lists are multiplied by the lazy
        determinant's own product (_int_combine: the schoolbook loop, and
        Karatsuba past its gate); otherwise (eta, g, h) are packed into one
        product of ints (_param_mul: both packed in the one layout of
        _pack_columns and the product read back by _unpack).  In both modes
        the result holds ints when both factors hold only ints (int
        coefficients, or ParamPolys of int terms), else Fractions.
        """
        if not isinstance(other, EtaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return EtaPoly()
        if any(type(c) is ParamPoly for c in a) or any(type(c) is ParamPoly for c in b):
            return _param_mul(self, other)
        if all(type(c) is int for c in a) and all(type(c) is int for c in b):
            na, nb, den = a, b, None
        else:
            (na, da), (nb, db) = _clear(a), _clear(b)
            den = da * db
        out = _int_combine(na, nb, (), ())  # na*nb less the empty product
        if den is None:
            return EtaPoly(out)
        return EtaPoly([Fraction(n, den) for n in out])

    def scale(self, c):
        if not c:
            return EtaPoly()
        return EtaPoly(tuple(v * c for v in self.coeffs))

    def __divmod__(self, other):
        """Long division: (q, r) with self = q*other + r, r.degree < other.degree.

        other's leading coefficient must be a nonzero Fraction; self's
        coefficients may be Fractions or ParamPolys.
        """
        if not isinstance(other, EtaPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        b, db, inv = other.coeffs, other.degree, _F1 / other.lc
        r = list(self.coeffs)
        q = [_F0] * max(len(r) - db, 0)
        for k in range(len(q) - 1, -1, -1):
            f = r[k + db] * inv
            if f:
                q[k] = f
                for i, c in enumerate(b, k):
                    r[i] = r[i] - f * c
        return EtaPoly(q), EtaPoly(r[:db])

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
        gv, hv = _exact_point(gv, hv)
        return EtaPoly(tuple(
            c if isinstance(c, Fraction) else c.eval_at(gv, hv) for c in self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mono = "" if k == 0 else ("eta" if k == 1 else "eta^%d" % k)
            if isinstance(c, Fraction) and mono:
                if c == 1:
                    parts.append(mono)
                    continue
                if c == -1:
                    parts.append("-" + mono)
                    continue
                parts.append("%s*%s" % (c, mono))
            elif mono:
                parts.append("(%s)*%s" % (c, mono))
            else:
                parts.append(str(c) if isinstance(c, Fraction) else "(%s)" % c)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "EtaPoly(%s)" % self


ONE_MINUS_ETA = EtaPoly((_F1, -_F1))


def extract_edge_factors(p):
    """Split p as (1-eta)^k_minus * (1+eta)^k_plus * core.

    The core is divisible by neither edge factor; divisibility is decided by
    exact synthetic division by eta - 1, then by eta + 1, never numerically
    (_edge_split).
    """
    if not p:
        raise ZeroPolynomialError("zero input")
    k_minus, k_plus, core = _edge_split(p.coeffs)
    return k_minus, k_plus, EtaPoly(core)


def _edge_split(cs):
    """(k_minus, k_plus, core) with the nonzero coefficient list cs equal to
    (1-eta)^k_minus (1+eta)^k_plus core and core(1), core(-1) nonzero.

    Only sums, differences and zero tests of coefficients are taken, so cs
    may hold Fractions, ints, ParamPolys or packed ints, provided every
    quotient formed and its values at 1 and -1 fit the packing's slots.
    """
    ks = []
    for root in (1, -1):
        k = 0
        # cs(root) by sums first: most lists have no edge factor to divide out
        while len(cs) > 1 and not (sum(cs) if root == 1 else sum(cs[::2]) - sum(cs[1::2])):
            q, acc = [None] * (len(cs) - 1), cs[-1]
            for i in range(len(cs) - 2, -1, -1):
                q[i] = acc
                acc = cs[i] + acc if root == 1 else cs[i] - acc
            cs, k = q, k + 1
        ks.append(k)
    # (1 - eta)^k = (-1)^k (eta - 1)^k
    return ks[0], ks[1], cs if ks[0] % 2 == 0 else [-c for c in cs]


# ---------------------------------------------------------------------------
# Kronecker packing
# ---------------------------------------------------------------------------
# eta^k g^i h^j -> 2^(width*(i + ng*(j + nh*k))) maps Z[eta, g, h] into Z as
# a ring homomorphism (von zur Gathen & Gerhard, Modern Computer Algebra,
# 8.4): eta outermost, so each h-row of a (g, h)-coefficient moves into its
# ng g-slots as one slice.  It is injective on polynomials with deg_g < ng,
# deg_h < nh and every coefficient below 2^(width-1) in absolute value, and
# such a polynomial is zero exactly when its image is.  One packer sizes the
# slots and packs in this layout (_pack_columns), and _unpack reads it back.
# A symbolic Wronskian is evaluated at g = 2^width, h = 2^(width*lg) instead,
# one int per eta-coefficient: the same layout for one eta-coefficient with
# ng = lg, unpacked by _unpack too (wronskian._core).


def _pack_list(ns, width):
    """The image of the int coefficient list ns over eta (ng = nh = 1).

    The halves are packed apart and joined, low + (high << width*len(low)),
    so every shift and sum is about as long as its result: near-linear time
    in the packed length, where a Horner loop is quadratic.
    """
    if len(ns) <= 16:
        v = 0
        for n in reversed(ns):
            v = (v << width) + n
        return v
    mid = len(ns) // 2
    return _pack_list(ns[:mid], width) + (_pack_list(ns[mid:], width) << width * mid)


def _digits(v, width):
    """The balanced base-2^width digits of v, least significant first: a slot
    in [2^(width-1), 2^width) stands for slot - 2^width and carries 1;
    ValueError for width < 2, where 1 would read as -1 carrying 1 forever.

    Short values are read by shifts, which cost quadratic time in the
    length; above 8192 bits the slots of |v| are read from its bytes, in
    linear time.
    """
    if width < 2:
        raise ValueError("balanced digits need slots of at least 2 bits")
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    if v.bit_length() <= 8192:
        while v:
            d = v & mask
            if d >= half:
                d -= mask + 1
            out.append(d)
            v = (v - d) >> width
        return out
    sign, v = (-1 if v < 0 else 1), abs(v)
    raw, carry = v.to_bytes((v.bit_length() + 7) >> 3, "little"), 0
    for s in range(0, v.bit_length(), width):
        d = int.from_bytes(raw[s >> 3:(s + width + 7) >> 3], "little") >> (s & 7) & mask
        d += carry
        carry = d >= half
        out.append(sign * (d - mask - 1 if carry else d))
    if carry:
        out.append(sign)
    return out


def _unpack(v, layout, den=None):
    """EtaPoly with ParamPoly coefficients whose integer terms pack to v in
    layout (width, ng, nh) (_pack_columns), divided by den: int terms when
    den is None, else Fractions."""
    width, ng, nh = layout
    ds, n = _digits(v, width), ng * nh
    return EtaPoly(tuple(
        _raw_parampoly({(i % ng, i // ng): d if den is None else Fraction(d, den)
                        for i, d in enumerate(ds[at:at + n]) if d})
        for at in range(0, len(ds), n)))


def _rows(cs, slots=None):
    """(rows, lg): rows[k][i + lg*j] is the int coefficient of g^i h^j in cs[k],
    for ints and int-coefficient ParamPolys, or the balanced digits of ints
    packed in slots (width, lg)."""
    if slots:
        return [_digits(c, slots[0]) for c in cs], slots[1]
    if all(type(c) is int for c in cs):
        return [[c] for c in cs], 1
    terms = [c.terms if type(c) is ParamPoly else {(0, 0): c} for c in cs]
    lg = 1 + max((i for t in terms for i, _ in t), default=0)
    rows = [[0] * (lg * (1 + max((j for _, j in t), default=0))) for t in terms]
    for row, t in zip(rows, terms):
        for (i, j), n in t.items():
            row[i + lg * j] = n
    return rows, lg


def _pack_rows(rs, lg, ng, nh, width):
    """The image of rows rs of stride lg (_rows) in the layout (width, ng,
    nh): the coefficient of eta^k g^i h^j goes to slot i + ng*(j + nh*k)."""
    dense = [0] * (ng * nh * len(rs))
    for k, r in enumerate(rs):
        step = lg if lg < ng else len(r) or 1  # rows at the stride ng move whole
        for j in range(0, len(r), step):
            at, chunk = ng * (nh * k + j // lg), r[j:j + step]
            dense[at:at + len(chunk)] = chunk
    return _pack_list(dense, width)


def _pack_columns(cols, terms):
    """(packed, (width, ng, nh)): the columns cols over eta, each (rows, lg)
    as _rows gives it, packed once each in one layout whose slots hold every
    coefficient of S = sum_t +/-s_t prod_i cols[i] for the terms t = (s_t,
    i, ...): by _pack_rows, or by _pack_list on the ints when every row is
    one int, where the layout is eta alone (ng = nh = 1).

    A coefficient of a product F_1 ... F_m sums one term of each factor, and
    once the terms of F_1 ... F_(m-1) are chosen at most one term of F_m
    completes a given monomial, so it is at most |F_1|_1 ... |F_(m-1)|_1
    |F_m|_inf, l1 norm and largest |coefficient| over (eta, g, h); a term
    with an empty factor is zero and adds nothing.  Every coefficient of S
    is then at most B = sum_t s_t |...|_1 |...|_inf < 2^(width-1) for width
    = bits(B) + 1, and S has g-degree below ng and h-degree below nh, the
    largest sums of its terms' factors' degrees plus one.  On such
    polynomials the packing eta^k g^i h^j -> 2^(width*(i + ng*(j + nh*k)))
    is injective: the top nonzero slot, at least 2^(width*m) in size,
    exceeds all lower ones together, at most (2^(width-1) - 1)(2^(width*m)
    - 1)/(2^width - 1).  Being a ring homomorphism, it maps S to the same
    sum of products of the packed columns.  Only the norms the bound reads
    are taken: an l1 norm of a factor before the last, a largest
    coefficient of a last one.
    """
    inner = {i for t in terms for i in t[1:-1]}
    last = {t[-1] for t in terms}
    l1 = {i: sum(map(abs, chain.from_iterable(cols[i][0]))) for i in inner}
    top = {i: max(map(abs, chain.from_iterable(cols[i][0])), default=0) for i in last}
    bound = sum(s * prod(l1[i] for i in fs[:-1]) * top[fs[-1]] for s, *fs in terms)
    width = bound.bit_length() + 1
    if all(len(r) == 1 for rs, _ in cols for r in rs):
        return [_pack_list([r[0] for r in rs], width) for rs, _ in cols], (width, 1, 1)
    degs = [(lg - 1, max(((len(r) - 1) // lg for r in rs), default=0)) for rs, lg in cols]
    ng, nh = (1 + max(sum(degs[i][a] for i in fs) for _, *fs in terms) for a in (0, 1))
    return [_pack_rows(rs, lg, ng, nh, width) for rs, lg in cols], (width, ng, nh)


def _param_mul(a, b):
    """EtaPoly.__mul__ when a coefficient is a ParamPoly: both factors cleared
    and packed (_pack_columns), one product of ints read back (_unpack)."""
    (na, sa), (nb, sb) = _clear(a.coeffs), _clear(b.coeffs)
    (pa, pb), layout = _pack_columns([_rows(na), _rows(nb)], ((1, 0, 1),))
    ints = all(type(x) is int for c in a.coeffs + b.coeffs
               for x in (c.terms.values() if type(c) is ParamPoly else (c,)))
    return _unpack(pa * pb, layout, None if ints else sa * sb)


def _products_equal(a, x, b, y):
    """Whether a*x == b*y for nonzero a, b in (eta, g, h) as _rows gives them
    and nonzero scalars x, y (ints, Fractions or ParamPolys), cleared by one
    common denominator.

    The path follows from the input.  At a point, _rows gives each core as
    rows of one int (its constant term in g and h) and x, y clear to ints;
    packing is then the identity on the eta-coefficients, so the same proof
    needs no slot widths: a*x == b*y is decided coefficient by coefficient,
    once both have as many coefficients (rows of unequal lengths take the
    packed path, which also reads untrimmed zero rows right).  Otherwise
    (symbolic cores, or symbolic scalars) it is one product of packed ints
    per side, in slots that hold every coefficient of a*x - b*y
    (_pack_columns).
    """
    (x, y), _ = _clear([x, y])
    ra, rb = a[0], b[0]
    if (type(x) is int and type(y) is int and len(ra) == len(rb)
            and all(len(r) == 1 for rs in (ra, rb) for r in rs)):
        return all(p[0] * x == q[0] * y for p, q in zip(ra, rb))
    (px, py, pa, pb), _ = _pack_columns([_rows([x]), _rows([y]), a, b], ((1, 0, 2), (1, 1, 3)))
    return pa * px == pb * py


def proportional(a, b):
    """Constant c with a = c*b, or None if the polynomials are not proportional.

    Decides lb*a == la*b for the leading coefficients la, lb by comparing two
    products of packed ints (_products_equal, the one proof the move
    identities of maya run too).  c is la/lb: a Fraction when both leading
    coefficients are Fractions (instantiated inputs), otherwise
    ParamRat(la, lb), reduced by parampoly_gcd.  The symbolic move
    identities build the same ParamRat from known factors instead
    (_factored_ratio).
    """
    if not a or not b:
        raise ZeroPolynomialError("proportionality test requires nonzero inputs")
    la, lb = a.lc, b.lc
    ns, _ = _clear(a.coeffs + b.coeffs)  # one common denominator, which cancels
    na = len(a.coeffs)
    if a.degree != b.degree or not _products_equal(_rows(ns[:na]), lb, _rows(ns[na:]), la):
        return None
    if isinstance(la, Fraction) and isinstance(lb, Fraction):
        return la / lb
    return ParamRat(la, lb)


def _factored_ratio(la, lb, a_factors, b_factors):
    """la/lb as proportional reports it, read off from factor lists with no gcd.

    la and lb are nonzero ints, Fractions or ParamPolys, each a rational constant
    times the product of its list of integer factors (cg, ch, c0) =
    cg*g + ch*h + c0.  Constant factors are dropped, the others are made
    primitive with a positive graded-lex leading coefficient (cg, or ch
    when cg = 0), and equal factors cancel between the two lists.  Divided
    by their leading coefficients the factors are monic, and distinct monic
    affine forms are coprime irreducibles, so num = lc(la)/lc(lb) times the
    monic product of what is left of a_factors, over den = that of
    b_factors, is already ParamRat's normal form.  Of la and lb only their
    graded-lex leading coefficients are read, and nothing is checked here:
    the caller proves that the result is the constant it claims to be.
    """
    if type(la) is not ParamPoly and type(lb) is not ParamPoly:
        return Fraction(la, lb)
    la, lb = ParamPoly._coerce(la), ParamPoly._coerce(lb)
    count = {}
    for factors, sign in ((a_factors, 1), (b_factors, -1)):
        for cg, ch, c0 in factors:
            lead = cg or ch
            if lead:
                d = gcd(cg, ch, c0) * (1 if lead > 0 else -1)
                key = (cg // d, ch // d, c0 // d)
                count[key] = count.get(key, 0) + sign
    # integer products of the primitive forms and of their leading coefficients
    num = den = _raw_parampoly({(0, 0): 1})
    lc_num = lc_den = 1
    for (cg, ch, c0), e in count.items():
        if not e:
            continue
        f = _linear(cg, ch, c0)
        for _ in range(abs(e)):
            if e > 0:
                num, lc_num = num * f, lc_num * (cg or ch)
            else:
                den, lc_den = den * f, lc_den * (cg or ch)
    r = ParamRat.__new__(ParamRat)
    r.num = num.scale(Fraction(la.leading_coeff(), lb.leading_coeff() * lc_num))
    r.den = den.scale(Fraction(1, lc_den))
    return r


def _int_combine(pivot, x, lead, y):
    """pivot*x - lead*y for dense int coefficient lists, trailing zeros
    trimmed: by _int_mul past 2048 bits in pivot's leading entry, where
    Karatsuba over eta overtakes the schoolbook loop for 8-entry lists, and
    by the loop below that."""
    if pivot and pivot[-1].bit_length() > 2048:
        out = [a - b for a, b in zip_longest(_int_mul(pivot, x), _int_mul(lead, y), fillvalue=0)]
    else:
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


def _int_mul(a, b):
    """The product of dense int lists a and b by Karatsuba over eta: with a
    = a0 + a1 eta^m and b = b0 + b1 eta^m, the middle term a0 b1 + a1 b0 is
    (a0 + a1)(b0 + b1) - a0 b0 - a1 b1, three half-length products for four."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) < 2:
        return [b[0] * c for c in a] if b else []
    m = len(a) // 2  # b1 is empty when b is short: then z2 is, and z1 - z0 = a1 b
    z0, z2 = _int_mul(a[:m], b[:m]), _int_mul(a[m:], b[m:])
    z1 = _int_mul([s + t for s, t in zip_longest(a[:m], a[m:], fillvalue=0)],
                  [s + t for s, t in zip_longest(b[:m], b[m:], fillvalue=0)])
    out = [0] * (len(a) + len(b) - 1)
    for k, z, sign in ((0, z0, 1), (2 * m, z2, 1), (m, z1, 1), (m, z0, -1), (m, z2, -1)):
        for i, c in enumerate(z, k):
            out[i] += sign * c
    return out


def _int_exact_div(a, b):
    """Exact quotient a/b of dense int coefficient lists (b nonzero), also of
    packed ones (a ring homomorphism); ValueError if inexact."""
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


def sturm_count(p, lo, hi):
    """Number of distinct real roots of p in the open interval (lo, hi).

    p must already be instantiated (plain Fraction coefficients).  The count
    is exact and runs on integers: p is cleared of denominators once and
    counted by _root_count.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    if not all(isinstance(c, Fraction) for c in p.coeffs):
        raise TypeError("sturm_count requires instantiated rational coefficients")
    lo, hi = _exact_point(lo, hi)
    if not lo < hi:
        raise ValueError("empty interval")
    return _root_count(_clear(p.coeffs)[0], lo, hi)


def _root_count(p, lo, hi):
    """Distinct real roots in (lo, hi) of the nonzero int list p, for Fractions
    lo < hi.  A root at an end u/v is divided out, by v*eta - u, while p
    vanishes there: exactly over Z by Gauss's lemma, as gcd(u, v) = 1.  The
    rest is counted by Sturm's theorem, the sign changes of _sturm_chain(p)
    at lo less those at hi; p need not be square-free, since every member
    of the chain is the same multiple of gcd(p, p') as in the chain of its
    square-free part, and that gcd has no zero at either end.
    """
    ends = [(x.numerator, x.denominator) for x in (lo, hi)]
    for u, v in ends:
        while len(p) > 1 and not _scaled_value(p, u, v):
            p = _int_exact_div(p, [-u, v])
    if len(p) < 2:
        return 0
    chain = _sturm_chain(p)
    return _sign_changes(chain, *ends[0]) - _sign_changes(chain, *ends[1])


def _sturm_chain(p):
    """A Sturm chain of the int list p (degree >= 1) on ints: p, p', and then
    the negated remainder of each pair up to a positive factor.  The
    pseudo-remainder r of a by b is lc(b)^k rem(a, b), k = deg a - deg b + 1,
    so the next member is -r, or r when lc(b)^k < 0; made primitive it stays
    small (Collins' primitive PRS)."""
    chain = [p, [k * c for k, c in enumerate(p) if k]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        lb, db = b[-1], len(b) - 1
        r = list(a)
        for k in range(len(a) - 1, db - 1, -1):  # r = lb*r - r_k eta^(k-db) b
            lead = r[k]
            r = [lb * c for c in r[:k]]
            for i, c in enumerate(b[:-1], k - db):
                r[i] -= lead * c
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        if lb > 0 or (len(a) - db) % 2 == 0:
            r = [-c for c in r]
        k = gcd(*r)
        chain.append([c // k for c in r])
    return chain


def _scaled_value(p, u, v):
    """v^deg(p) p(u/v) for the int list p: an int of the sign of p(u/v), v > 0."""
    acc, pw = 0, 1
    for c in reversed(p):
        acc, pw = acc * u + c * pw, pw * v
    return acc


def _sign_changes(chain, u, v):
    signs = [x > 0 for x in (_scaled_value(p, u, v) for p in chain) if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_free(p):
    """Whether the nonzero int list p has no root with eta in (-1, 1).

    eta = (1-x)/(1+x) maps x in (0, oo) onto eta in (-1, 1), so those roots
    are the positive roots of q(x) = (1+x)^d p((1-x)/(1+x)), d = deg p,
    with multiplicity.  By Descartes' rule of signs their number is the
    count V of sign changes in q's coefficients less an even number: V = 0
    means none and an odd V at least one.  Only an even V >= 2 leaves it
    open, and _root_count decides it.  q is p shifted to p(2z - 1),
    reversed, and shifted by one.
    """
    if len(p) < 2:
        return True
    q = [c << k for k, c in enumerate(_taylor_shift(p, -1))][::-1]
    signs = [c > 0 for c in _taylor_shift(q, 1) if c]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if changes % 2:
        return False
    return changes == 0 or _root_count(p, -_F1, _F1) == 0


def _taylor_shift(p, s):
    """The coefficients of p(eta + s), by repeated synthetic division."""
    p, n = list(p), len(p)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            p[j] += s * p[j + 1]
    return p
