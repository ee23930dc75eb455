"""Exact arithmetic substrate.

Everything downstream is built from four value types, all exact over Q:

  ParamPoly  bivariate polynomial in the two potential parameters (g, h),
             stored sparsely as {(deg_g, deg_h): coefficient} with no zero
             coefficients; the canonical term order is graded lexicographic
             with g > h.  Public values hold Fractions.  Arithmetic keeps
             int coefficients ints, so the integer Wronskian pipeline runs
             on int-coefficient ParamPolys until its one final division.
  ParamRat   quotient of two ParamPolys, gcd-reduced, denominator scaled to
             have leading rational 1 under the term order; the value type
             of a symbolic proportionality constant, with no arithmetic.
  AffineExp  cg*g + ch*h + c0 with integer cg, ch and c0 always a
             Fraction; used for the sin/cos exponents of quasi-polynomials
             and for move-ledger prefactors.
  EtaPoly    polynomial in eta = cos(2x).  Coefficients are Fractions for
             instantiated parameters and ParamPolys for symbolic work.  With
             Fraction coefficients it is the one univariate type over Q: the
             gcd of ParamPolys and Sturm counting run on it too.  Its
             arithmetic keeps ints ints, as ParamPoly's does, so integer
             identities (the eigen checks) run on int coefficients at a
             point and on int-coefficient ParamPolys symbolically.

Integer polynomials are also packed into single Python ints (Kronecker
substitution; see _pack): each eta-coefficient, a polynomial in (g, h), of a
symbolic determinant entry, and each whole polynomial in (eta, g, h) of a
proportionality check.  A product of two EtaPolys is one product of packed
ints in both modes: each factor is cleared of denominators once, packed in
slots wider than any coefficient of the integer product (over eta alone at
a point, over (eta, g, h) in symbolic mode) and the product is read back
once, so no coefficient-by-coefficient Fraction arithmetic is done.  The
product is int-preserving: it holds ints when both factors hold only ints
(int coefficients, or ParamPolys of int terms), and Fractions once either
factor holds a Fraction, so no public result changes type.

There is no floating point anywhere in this module, and every value is
immutable after construction; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

_F0 = Fraction(0)
_F1 = Fraction(1)


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


def _exact_point(gv, hv):
    """(gv, hv) as Fractions, a Fraction returned as it is; TypeError unless
    each is an int or a Fraction."""
    if not (isinstance(gv, (int, Fraction)) and isinstance(hv, (int, Fraction))):
        raise TypeError("parameter values must be ints or Fractions, got %r, %r"
                        % (gv, hv))
    return (gv if type(gv) is Fraction else Fraction(gv),
            hv if type(hv) is Fraction else Fraction(hv))


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
        d = self.denominator
        return _raw_parampoly({k: c.numerator * (d // c.denominator)
                               for k, c in self.terms.items()})

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


P_ZERO = ParamPoly()
P_ONE = ParamPoly.const(1)
P_G = ParamPoly.gen_g()
P_H = ParamPoly.gen_h()


# ---------------------------------------------------------------------------
# bivariate gcd (content / primitive-part pseudo-remainder sequence)
# ---------------------------------------------------------------------------
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
    It is a reported value only, with no arithmetic; EtaPoly coefficients
    are never ParamRats.
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
        if type(self.c0) is not Fraction:
            object.__setattr__(self, "c0", Fraction(self.c0))

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

    def eval_at(self, gv, hv):
        gv, hv = _exact_point(gv, hv)
        return self.cg * gv + self.ch * hv + self.c0

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
        """One product of packed ints (see _pack), read back once.

        At a point (no ParamPoly coefficient) each factor is cleared to an
        int list over eta; otherwise (eta, g, h) are packed.  In both modes
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
        da = lcm(*(c.denominator for c in a))
        db = lcm(*(c.denominator for c in b))
        na = [c.numerator * (da // c.denominator) for c in a]
        nb = [c.numerator * (db // c.denominator) for c in b]
        width = (sum(map(abs, na)) * max(map(abs, nb))).bit_length() + 2
        digits = _digits(_pack_list(na, width) * _pack_list(nb, width), width)
        if all(type(c) is int for c in a) and all(type(c) is int for c in b):
            return EtaPoly(digits)
        den = da * db
        return EtaPoly([Fraction(n, den) for n in digits])

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


ETA_ONE = EtaPoly((_F1,))
ONE_MINUS_ETA = EtaPoly((_F1, -_F1))
ONE_PLUS_ETA = EtaPoly((_F1, _F1))
ONE_MINUS_ETA_SQ = EtaPoly((_F1, _F0, -_F1))


def extract_edge_factors(p):
    """Split p as (1-eta)^k_minus * (1+eta)^k_plus * core.

    The core is divisible by neither edge factor; divisibility is decided by
    exact synthetic division by eta - 1, then by eta + 1, never numerically.
    """
    if not p:
        raise ZeroPolynomialError("zero input")
    cs, ks = p.coeffs, []
    for root in (1, -1):
        k = 0
        while len(cs) > 1:
            q, acc = [None] * (len(cs) - 1), cs[-1]
            for i in range(len(cs) - 2, -1, -1):
                q[i] = acc
                acc = cs[i] + acc if root == 1 else cs[i] - acc
            if acc:
                break
            cs, k = q, k + 1
        ks.append(k)
    # (1 - eta)^k = (-1)^k (eta - 1)^k
    core = EtaPoly(cs) if ks[0] % 2 == 0 else EtaPoly([-c for c in cs])
    return ks[0], ks[1], core


# ---------------------------------------------------------------------------
# Kronecker packing
# ---------------------------------------------------------------------------
# eta^k g^i h^j -> 2^(width*(k + le*(i + lg*j))) maps Z[eta, g, h] into Z as a
# ring homomorphism (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4).
# It is injective on polynomials with deg_eta < le, deg_g < lg and every
# coefficient below 2^(width-1) in absolute value, and such a polynomial is
# zero exactly when its image is.  Symbolic determinants pack only (g, h),
# with le = 1 and keys (0, i, j), one int per eta-coefficient; proportional
# and EtaPoly.__mul__ pack whole polynomials in (eta, g, h).  A coefficient of
# a product a*b is a sum of products of one coefficient of each, so its size
# is at most |a|_1 * |b|_inf (sum and maximum of the coefficients' sizes), and
# slots of width bits(|a|_1 * |b|_inf) + 2 hold it.


def _cleared(polys):
    """(terms, s): the integer terms {(k, i, j): n} of s*p for each EtaPoly p
    in polys, where s is the lcm of all their denominators."""
    terms = [{(k, i, j): v for k, c in enumerate(p.coeffs)
              for (i, j), v in (c.terms if isinstance(c, ParamPoly) else {(0, 0): c}).items()
              if v} for p in polys]
    s = lcm(*(v.denominator for t in terms for v in t.values()))
    return [{key: v.numerator * (s // v.denominator) for key, v in t.items()}
            for t in terms], s


def _pack(terms, width, le, lg):
    """The image of integer terms {(k, i, j): n} under the packing map."""
    return sum(n << width * (k + le * (i + lg * j)) for (k, i, j), n in terms.items())


def _pack_list(ns, width):
    """The image of the int coefficient list ns over eta (le = lg = 1)."""
    v = 0
    for n in reversed(ns):
        v = (v << width) + n
    return v


def _digits(v, width):
    """The balanced base-2^width digits of v, least significant first: a slot
    in [2^(width-1), 2^width) stands for slot - 2^width and carries 1.

    Short values are read by shifts, which cost quadratic time in the
    length; above 8192 bits the slots of |v| are read from its bytes, in
    linear time.
    """
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


def _unpack(v, width, le, lg, den=None):
    """EtaPoly with ParamPoly coefficients whose integer terms pack to v,
    divided by den: int terms when den is None, else Fractions."""
    coeffs = [{} for _ in range(le)]
    for pos, d in enumerate(_digits(v, width)):
        if d:
            k, ij = pos % le, pos // le
            coeffs[k][(ij % lg, ij // lg)] = d if den is None else Fraction(d, den)
    return EtaPoly(tuple(_raw_parampoly(c) for c in coeffs))


def _param_mul(a, b):
    """EtaPoly.__mul__ when a coefficient is a ParamPoly: (eta, g, h) packed."""
    (ta,), sa = _cleared([a])
    (tb,), sb = _cleared([b])
    le = len(a.coeffs) + len(b.coeffs) - 1
    lg = 1 + max(key[1] for key in ta) + max(key[1] for key in tb)
    width = (sum(map(abs, ta.values())) * max(map(abs, tb.values()))).bit_length() + 2
    v = _pack(ta, width, le, lg) * _pack(tb, width, le, lg)
    ints = all(type(x) is int for c in a.coeffs + b.coeffs
               for x in (c.terms.values() if type(c) is ParamPoly else (c,)))
    return _unpack(v, width, le, lg, None if ints else sa * sb)


def proportional(a, b):
    """Constant c with a = c*b, or None if the polynomials are not proportional.

    Decides lb*a == la*b for the leading coefficients la, lb by comparing two
    products of packed ints, in slots wider than any coefficient of
    lb*a - la*b.  c is la/lb: a Fraction when both leading coefficients are
    Fractions (instantiated inputs), otherwise a reduced ParamRat.
    """
    if not a or not b:
        raise ZeroPolynomialError("proportionality test requires nonzero inputs")
    if a.degree != b.degree:
        return None
    d = a.degree
    (ta,), _ = _cleared([a])
    (tb,), _ = _cleared([b])
    tla = {(0, i, j): n for (k, i, j), n in ta.items() if k == d}
    tlb = {(0, i, j): n for (k, i, j), n in tb.items() if k == d}
    lg = 1 + max(key[1] for key in ta) + max(key[1] for key in tb)
    bound = (sum(map(abs, tlb.values())) * max(map(abs, ta.values()))
             + sum(map(abs, tla.values())) * max(map(abs, tb.values())))
    width = bound.bit_length() + 2
    if (_pack(ta, width, d + 1, lg) * _pack(tlb, width, d + 1, lg)
            != _pack(tb, width, d + 1, lg) * _pack(tla, width, d + 1, lg)):
        return None
    la, lb = a.lc, b.lc
    if isinstance(la, Fraction) and isinstance(lb, Fraction):
        return la / lb
    return ParamRat(la, lb)


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
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = p.eval_at(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
