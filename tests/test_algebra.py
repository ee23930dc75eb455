"""Exact-arithmetic substrate tests."""

from fractions import Fraction as F

import pytest

from mijacobi.algebra import (
    AffineExp,
    EtaPoly,
    ONE_MINUS_ETA,
    ParamPoly,
    ParamRat,
    ZeroPolynomialError,
    extract_edge_factors,
    parampoly_gcd,
    proportional,
    sturm_count,
    _digits,
    _pack,
    _unpack,
)
from helpers import (
    coefficient_terms,
    random_rational,
    scaled_proportional,
    schoolbook_mul,
    seeded,
)

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()
ONE = ParamPoly.const(1)
P0 = ParamPoly()


def ppoly(terms):
    return ParamPoly({k: F(v) for k, v in terms.items()})


class TestParamPoly:
    def test_difference_of_squares(self):
        assert (G + H) * (G - H) == G * G - H * H

    def test_additive_identity(self):
        assert (G * 2 - 1) + ParamPoly() == ppoly({(1, 0): 2, (0, 0): -1})

    def test_degree5_product_expansion(self):
        p = (G - H + 2) * (G - H - 1) * (G - H - 3) * (G - H - 4) * (G + H - 3)
        assert p.degree == 5
        assert p.coeff(5, 0) == 1
        # cross-check the expansion by evaluation at 5 random rational points
        rng = seeded(42)
        for _ in range(5):
            gv, hv = random_rational(rng), random_rational(rng)
            byhand = ((gv - hv + 2) * (gv - hv - 1) * (gv - hv - 3)
                      * (gv - hv - 4) * (gv + hv - 3))
            assert p.eval_at(gv, hv) == byhand

    def test_shift_simple(self):
        assert (G * 2 - 1).shift(-1, 0) == G * 2 - 3

    def test_shift_invariant_combination(self):
        n = 3
        p = (G + H + n) * (4 * n)  # 4n(n+g+h)
        assert p.shift(1, -1) == p

    def test_shift_matches_substitution(self):
        # -4(g+v+1/2)(h-v-1/2) at (g+1, h-1) by direct substitution
        v = 2
        p = ((G + F(v) + F(1, 2)) * (H - F(v) - F(1, 2))).scale(-4)
        q = ((G + 1 + F(v) + F(1, 2)) * (H - 1 - F(v) - F(1, 2))).scale(-4)
        assert p.shift(1, -1) == q

    def test_shift_matches_evaluation(self):
        rng = seeded(7)
        for _ in range(30):
            p = ParamPoly({(rng.randint(0, 5), rng.randint(0, 5)): random_rational(rng)
                           for _ in range(rng.randint(0, 6))})
            dg, dh = rng.randint(-4, 4), rng.randint(-4, 4)
            gv, hv = random_rational(rng), random_rational(rng)
            assert p.shift(dg, dh).eval_at(gv, hv) == p.eval_at(gv + dg, hv + dh)

    def test_eval(self):
        assert (G + H).eval_at(F(1, 2), F(1, 2)) == 1
        assert (G * G - H * H).eval_at(3, 2) == 5

    def test_eval_factorwise(self):
        p = (G - H + 2) * (G - H - 1) * (G - H - 3) * (G - H - 4) * (G + H - 3)
        gv, hv = F(37, 10), F(52, 7)
        factors = [gv - hv + 2, gv - hv - 1, gv - hv - 3, gv - hv - 4, gv + hv - 3]
        acc = F(1)
        for f in factors:
            acc *= f
        assert p.eval_at(gv, hv) == acc

    def test_ring_axioms_random(self):
        rng = seeded(5)
        for _ in range(25):
            def rand_poly():
                return ParamPoly({(rng.randint(0, 3), rng.randint(0, 3)):
                                  random_rational(rng) for _ in range(4)})
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p - q) + q == p

    def test_eval_homomorphism(self):
        rng = seeded(6)
        for _ in range(100):
            p = ParamPoly({(rng.randint(0, 4), rng.randint(0, 4)):
                           random_rational(rng) for _ in range(3)})
            q = ParamPoly({(rng.randint(0, 4), rng.randint(0, 4)):
                           random_rational(rng) for _ in range(3)})
            gv, hv = random_rational(rng), random_rational(rng)
            assert (p * q).eval_at(gv, hv) == p.eval_at(gv, hv) * q.eval_at(gv, hv)

    def test_exact_div(self):
        p = (G + H) * (G - H + 2) * (G * H - 3)
        assert p.exact_div(G + H) == (G - H + 2) * (G * H - 3)
        with pytest.raises(ValueError):
            (G * G + 1).exact_div(G + H)

    def test_gcd(self):
        a = (G + H) ** 2 * (G - 1)
        b = (G + H) * (H + 2)
        assert parampoly_gcd(a, b) == G + H
        assert parampoly_gcd(G * 2, ParamPoly.const(2)) == ONE

    def test_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        g, h = sympy.symbols("g h")
        rng = seeded(23)

        def rand_poly(max_deg):
            return ParamPoly({(rng.randint(0, max_deg), rng.randint(0, max_deg)):
                              F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
                              for _ in range(rng.randint(1, 4))})

        def to_sympy(p):
            return sum(sympy.Rational(c.numerator, c.denominator) * g ** i * h ** j
                       for (i, j), c in p.terms.items())

        for _ in range(40):
            a, b, c = rand_poly(2), rand_poly(2), rand_poly(2)
            want = sympy.Poly(sympy.gcd(to_sympy(a * c), to_sympy(b * c)), g, h)
            want = want.mul_ground(1 / want.LC(order="grlex"))
            assert parampoly_gcd(a * c, b * c) == ParamPoly(
                {key: F(int(v.p), int(v.q)) for key, v in want.as_dict().items()})


class TestParamRat:
    def test_reduction(self):
        r = ParamRat((G + H) * (G - 1), (G + H) * (H + 1))
        assert r.num == G - 1 and r.den == H + 1

    def test_constant_denominator_normalized(self):
        r = ParamRat(G * 2 - 1, ParamPoly.const(16))
        assert r.den == ONE
        assert r.num == (G * 2 - 1).scale(F(1, 16))

    def test_eval(self):
        r = ParamRat(G - 1, H + 1)
        assert r.eval_at(3, 1) == 1


class TestFloatPointsRejected:
    # A float would otherwise be read as its binary fraction, e.g.
    # G.eval_at(0.1, 0) == 3602879701896397/36028797018963968.
    @pytest.mark.parametrize("evaluate", [
        lambda gv, hv: (G * H + G * 2 - 1).eval_at(gv, hv),
        lambda gv, hv: ParamRat(G - 1, H + 1).eval_at(gv, hv),
        lambda gv, hv: AffineExp(1, -2, F(1, 2)).eval_at(gv, hv),
        lambda gv, hv: EtaPoly((G, F(3), H * 2)).instantiate(gv, hv),
        lambda gv, hv: EtaPoly((F(1, 2), F(3))).instantiate(gv, hv),
    ], ids=["ParamPoly", "ParamRat", "AffineExp", "EtaPoly", "EtaPoly-instantiated"])
    def test_float_raises_exact_agrees(self, evaluate):
        for gv, hv in ((0.1, 0), (3, 0.5), (F(1, 3), 2.0)):
            with pytest.raises(TypeError):
                evaluate(gv, hv)
        assert evaluate(F(7, 3), 2) == evaluate(F(7, 3), F(2))


class TestAffineExp:
    def test_render(self):
        assert str(AffineExp(-5, 0, 15)) == "15 - 5g"
        assert str(AffineExp(0, 1, 0)) == "h"
        assert str(AffineExp(0, 0, 0)) == "0"
        assert str(AffineExp(-1, 0, 1)) == "1 - g"

    def test_shift_and_eval(self):
        e = AffineExp(1, -2, F(1, 2))
        assert e.shifted(3, 1) == AffineExp(1, -2, F(1, 2) + 3 - 2)
        assert e.eval_at(F(1, 2), F(1, 4)) == F(1, 2) - F(1, 2) + F(1, 2)


class TestEtaPoly:
    def test_derivative(self):
        p = EtaPoly((F(0), F(0), F(1)))  # eta^2
        assert p.deriv() == EtaPoly((F(0), F(2)))

    def test_product(self):
        one_m = EtaPoly((F(1), F(-1)))
        one_p = EtaPoly((F(1), F(1)))
        assert one_m * one_p == EtaPoly((F(1), F(0), F(-1)))

    def test_mul_degree_and_eval_hom(self):
        rng = seeded(9)
        for _ in range(20):
            a = EtaPoly([random_rational(rng) for _ in range(3)] + [F(1)])
            b = EtaPoly([random_rational(rng) for _ in range(3)] + [F(1)])
            p = a * b
            assert p.degree == 6
            x = F(2, 3)
            assert p.eval_at(x) == a.eval_at(x) * b.eval_at(x)

    def test_symbolic_coefficients(self):
        a = EtaPoly((G, H))
        b = EtaPoly((H, G))
        assert (a * b).coeffs == (G * H, G * G + H * H, G * H)
        assert a.shift_params(1, -1) == EtaPoly((G + 1, H - 1))
        assert a.instantiate(2, 3) == EtaPoly((F(2), F(3)))

    def test_divmod(self):
        rng = seeded(21)
        for _ in range(30):
            a = EtaPoly([random_rational(rng) for _ in range(rng.randint(0, 7))])
            b = EtaPoly([random_rational(rng) for _ in range(rng.randint(0, 3))]
                        + [random_rational(rng) or F(1)])
            q, r = divmod(a, b)
            assert q * b + r == a and r.degree < b.degree
            assert divmod(a * b, b) == (a, EtaPoly.zero())
        with pytest.raises(ZeroDivisionError):
            divmod(EtaPoly((F(1), F(2))), EtaPoly.zero())
        # ParamPoly coefficients over a Fraction divisor, as for the edge factors
        q, r = divmod(EtaPoly((G, H, G * H)), ONE_MINUS_ETA)
        assert q == EtaPoly((-H - G * H, -G * H)) and r == EtaPoly((G + H + G * H,))


def coefficient_types(p):
    return set(map(type, coefficient_terms(p)))


class TestEtaPolyProduct:
    """EtaPoly.__mul__ (one packed integer product) against the schoolbook
    oracle, on the inputs where packing could go wrong."""

    def check(self, a, b):
        p = a * b
        assert p == schoolbook_mul(a, b) == b * a
        assert hash(p) == hash(schoolbook_mul(a, b))
        return p

    def test_zero_and_constant_factors(self):
        a = EtaPoly((F(1, 3), F(0), F(-5, 2)))
        for z in (EtaPoly(), EtaPoly((G * 0,))):
            assert not a * z and not z * a
        assert self.check(a, EtaPoly.const(F(-7, 4))) == a.scale(F(-7, 4))
        assert self.check(EtaPoly((G + 1,)), EtaPoly.const(F(2))) == EtaPoly((G * 2 + 2,))

    def test_interior_zeros(self):
        a = EtaPoly((F(1), F(0), F(0), F(3, 7)))
        b = EtaPoly((F(0), F(-2), F(0), F(0), F(1, 5)))
        p = self.check(a, b)
        assert p.coeffs[0] == 0 and p.degree == 7
        self.check(EtaPoly((G, P0, P0, H)), EtaPoly((P0, H - G)))

    def test_products_at_the_slot_bound(self):
        # every coefficient product has one sign, so the middle coefficients
        # reach ||a||_1 * ||b||_inf, the bound the slot width is built on
        for m in (1, 2 ** 31 - 1, 2 ** 64, 3 ** 40):
            a = EtaPoly([F(-m)] * 4)
            b = EtaPoly([F(m)] * 4)
            p = self.check(a, b)
            assert p.coeff(3) == -4 * m * m
            self.check(a, -b)
            self.check(EtaPoly([ParamPoly.const(-m) * G] * 3), EtaPoly([G * m, H * m]))

    def test_fraction_times_parampoly_factor(self):
        a = EtaPoly((F(1, 2), F(-3), F(5, 6)))
        b = EtaPoly((G - F(1, 3), H + 1, G * H))
        p = self.check(a, b)
        assert all(isinstance(c, ParamPoly) for c in p.coeffs)

    def test_sparse_high_degree_operand(self):
        a = EtaPoly((G ** 12 * H ** 9 + F(1, 3), P0, G - H))
        b = EtaPoly((G + H, F(2), H ** 5))
        self.check(a, b)

    def test_coefficient_types(self):
        # at a point: ints from int-only operands, Fractions once either
        # holds one, also one of denominator 1
        ints = EtaPoly((1, -2, 0, 5)) * EtaPoly((3, 4))
        assert coefficient_types(ints) == {int} and ints == EtaPoly((3, -2, -8, 15, 20))
        for a, b in ((EtaPoly((1, 2)), EtaPoly((3, F(1, 2)))),
                     (EtaPoly((1, 2)), EtaPoly((F(3),))),
                     (EtaPoly((F(1), F(2))), EtaPoly((F(3),)))):
            assert coefficient_types(a * b) == {F}
            assert coefficient_types(b * a) == {F}
        # symbolic: ints from int-only operands, Fractions once either holds one
        ia, ib = EtaPoly(((G * 2 - H).numerator, 3)), EtaPoly((G.numerator, H.numerator))
        assert coefficient_types(ia * ib) == {int}
        assert coefficient_types(EtaPoly((1, 2)) * ib) == {int}
        for a, b in ((ia, EtaPoly((G, H))), (ia, EtaPoly((F(1), F(2)))),
                     (EtaPoly((G * F(1, 2),)), ib), (EtaPoly((1, 2)), EtaPoly((G,)))):
            assert coefficient_types(a * b) == {F}
            assert coefficient_types(b * a) == {F}


class TestEdgeFactors:
    def test_constructed(self):
        one_m = EtaPoly((F(1), F(-1)))
        p = one_m * one_m * EtaPoly((F(2), F(1)))
        assert extract_edge_factors(p) == (2, 0, EtaPoly((F(2), F(1))))

    def test_no_factor(self):
        p = EtaPoly((F(2), F(1)))
        assert extract_edge_factors(p) == (0, 0, p)

    def test_one_each(self):
        rng = seeded(11)
        for _ in range(10):
            core = EtaPoly([random_rational(rng) for _ in range(3)] + [F(1)])
            if not core.eval_at(1) or not core.eval_at(-1):
                continue
            p = EtaPoly((F(1), F(0), F(-1))) * core
            km, kp, c = extract_edge_factors(p)
            assert (km, kp, c) == (1, 1, core)

    def test_round_trip(self):
        rng = seeded(12)
        one_m = EtaPoly((F(1), F(-1)))
        one_p = EtaPoly((F(1), F(1)))
        for _ in range(20):
            core = EtaPoly([random_rational(rng) for _ in range(2)] + [F(1)])
            if not core.eval_at(1) or not core.eval_at(-1):
                continue
            km, kp = rng.randint(0, 3), rng.randint(0, 3)
            p = core
            for _ in range(km):
                p = p * one_m
            for _ in range(kp):
                p = p * one_p
            got = extract_edge_factors(p)
            assert got == (km, kp, core)
            rebuilt = got[2]
            for _ in range(got[0]):
                rebuilt = rebuilt * one_m
            for _ in range(got[1]):
                rebuilt = rebuilt * one_p
            assert rebuilt == p

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            extract_edge_factors(EtaPoly.zero())


class TestProportional:
    def test_scalar(self):
        p = EtaPoly((F(1), F(2), F(3)))
        assert proportional(p.scale(F(2)), p) == 2

    def test_symbolic_constant(self):
        p = EtaPoly((G + H, G * H, ONE))
        a = p.scale(G - 1)
        b = p.scale(H + 1)
        assert proportional(a, b) == ParamRat(G - 1, H + 1)

    def test_not_proportional(self):
        p = EtaPoly((F(1), F(1)))
        q = EtaPoly((F(1), F(1), F(1)))
        assert proportional(p, q) is None
        assert proportional(EtaPoly((F(1), F(2))), EtaPoly((F(1), F(3)))) is None

    def test_random_paramrat_recovered(self):
        rng = seeded(13)
        for _ in range(10):
            p = EtaPoly((G + rng.randint(1, 5), H - rng.randint(1, 5), ONE))
            num, den = G - rng.randint(1, 4), H + rng.randint(1, 4)
            assert proportional(p.scale(num), p.scale(den)) == ParamRat(num, den)


    def test_matches_scaling_oracle(self):
        rng = seeded(19)

        def coeff():
            if rng.random() < 0.3:
                return random_rational(rng)
            return ParamPoly({(rng.randint(0, 3), rng.randint(0, 3)):
                              F(rng.randint(-2 ** 60, 2 ** 60), rng.randint(1, 9))
                              for _ in range(rng.randint(1, 4))})

        seen = set()
        for _ in range(60):
            p = EtaPoly(tuple(coeff() for _ in range(rng.randint(1, 4))))
            a, b = p.scale(coeff()), p.scale(coeff())
            if rng.random() < 0.5 and b:
                k = rng.randrange(len(b.coeffs))
                b = EtaPoly(b.coeffs[:k] + (b.coeffs[k] + coeff(),) + b.coeffs[k + 1:])
            if a and b:
                expected = scaled_proportional(a, b)
                assert (proportional(a, b) is not None) == expected
                seen.add(expected)
        assert seen == {True, False}

    def test_difference_in_top_slot_only(self):
        # the packings of lb*a and la*b differ only in the h^3 slot, the most
        # significant one
        big = F(2 ** 150 + 1, 7)
        a = EtaPoly((G * big + H ** 3 * 5, G * G * big, ONE))
        b = EtaPoly((G * big + H ** 3 * 6, G * G * big, ONE))
        assert not scaled_proportional(a, b)
        assert proportional(a, b) is None

    def test_negative_top_slot(self):
        big = F(-(2 ** 150) - 3, 11)
        a = EtaPoly((G * big + 1, H ** 4 * big - G, H))
        assert proportional(a.scale(F(-3)), a) == -3
        assert proportional(a.scale(G - 2), a.scale(H + 1)) == ParamRat(G - 2, H + 1)


class TestPacking:
    def test_round_trip_with_negative_top_slot(self):
        rng = seeded(17)
        for _ in range(20):
            le, lg = rng.randint(1, 4), rng.randint(1, 4)
            terms = {(rng.randrange(le), rng.randrange(lg), rng.randint(0, 3)):
                     rng.randint(-2 ** 40, 2 ** 40) for _ in range(6)}
            top = max(terms, key=lambda key: (key[2], key[1], key[0]))
            terms[top] = -abs(terms[top]) or -1
            terms = {key: n for key, n in terms.items() if n}
            width = 43  # 2 bits above the coefficients' 41
            e = _unpack(_pack(terms, width, le, lg), width, le, lg)
            got = {(k, i, j): v for k, c in enumerate(e.coeffs)
                   for (i, j), v in c.terms.items()}
            assert got == terms
            assert all(type(v) is int for v in got.values())

    def test_digits_round_trip(self):
        # short values are read by shifts, those above 8192 bits by bytes
        rng = seeded(19)
        for width in (3, 7, 8, 9, 16, 61, 64, 130):
            for count in [rng.randint(1, 9) for _ in range(15)] + [8192 // width + 2] * 5:
                bound = (1 << (width - 1)) - 1
                ds = [rng.choice((-bound, bound, 0, rng.randint(-bound, bound)))
                      for _ in range(count)]
                ds[-1] = ds[-1] or rng.choice((-1, 1))
                v = sum(d << width * k for k, d in enumerate(ds))
                assert _digits(v, width) == ds
                assert _digits(-v, width) == [-d for d in ds]
        assert _digits(0, 5) == []

    def test_unpack_divides_by_den(self):
        terms = {(0, 0, 0): 3, (1, 1, 0): -4, (0, 0, 2): 6}
        e = _unpack(_pack(terms, 6, 2, 2), 6, 2, 2, 4)
        assert e == EtaPoly((F(3, 4) + H * H * F(3, 2), -G))
        assert coefficient_types(e) == {F}


class TestSturm:
    def test_two_roots(self):
        p = EtaPoly((F(-1, 4), F(0), F(1)))  # eta^2 - 1/4
        assert sturm_count(p, F(-1), F(1)) == 2

    def test_no_roots(self):
        p = EtaPoly((F(1), F(0), F(1)))
        assert sturm_count(p, F(-1), F(1)) == 0

    def test_one_inside(self):
        # (eta - 1/3)(eta - 5)
        p = EtaPoly((F(5, 3), F(-16, 3), F(1)))
        assert sturm_count(p, F(-1), F(1)) == 1

    def test_open_interval_excludes_endpoints(self):
        # roots exactly at the endpoints must not count
        p = EtaPoly((F(-1), F(0), F(1)))  # (eta-1)(eta+1)
        assert sturm_count(p, F(-1), F(1)) == 0
        # (eta-1)^3 (eta+1)(eta-1/2): a repeated endpoint root next to an
        # interior one
        m = EtaPoly((F(-1), F(1)))
        p = m * m * m * EtaPoly((F(1), F(1))) * EtaPoly((F(-1, 2), F(1)))
        assert sturm_count(p, F(-1), F(1)) == 1

    def test_repeated_roots_counted_once(self):
        # (eta - 1/2)^2 (eta + 1/3)
        a = EtaPoly((F(-1, 2), F(1)))
        p = a * a * EtaPoly((F(1, 3), F(1)))
        assert sturm_count(p, F(-1), F(1)) == 2

    def test_constructed_random_roots(self):
        rng = seeded(14)
        for _ in range(20):
            roots = sorted({F(rng.randint(-30, 30), rng.randint(8, 15))
                            for _ in range(rng.randint(1, 4))})
            p = EtaPoly((F(1),))
            for r in roots:
                p = p * EtaPoly((-r, F(1)))
            inside = sum(1 for r in roots if F(-1) < r < F(1))
            assert sturm_count(p, F(-1), F(1)) == inside

    def test_symbolic_rejected(self):
        with pytest.raises(TypeError):
            sturm_count(EtaPoly((G,)), F(-1), F(1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_count(EtaPoly.zero(), F(-1), F(1))


class TestCoefficientDomains:
    def test_numerator_and_denominator(self):
        p = G.scale(F(1, 6)) + H.scale(F(-3, 4)) + F(5, 2)
        assert p.denominator == 12
        assert p.numerator == G * 2 - H * 9 + 30
        assert all(type(v) is int for v in p.numerator.terms.values())
        assert p.numerator.scale(F(1, 12)) == p
        assert (ParamPoly().numerator, ParamPoly().denominator) == (ParamPoly(), 1)

    def test_int_coefficients_stay_ints(self):
        a, b = (G * G - H * 3 + F(1, 2)).numerator, (G * 2 + 1).numerator
        for r in (a + b, a - b, a * b, a.scale(3), a * 3, a + 2, 2 - a, -a):
            assert r and all(type(v) is int for v in r.terms.values())
        assert all(type(v) is F for v in a.scale(F(1, 2)).terms.values())
        assert ParamRat(a, 2) == ParamRat(a.scale(F(1, 2)))
        assert all(type(v) is F for v in ParamRat(a, 2).num.terms.values())
        assert a.exact_div(ParamPoly._coerce(2)) == a.scale(F(1, 2))

    def test_constant_parampoly_hashes_as_fraction(self):
        assert hash(ParamPoly.const(2)) == hash(2)
        assert hash(ParamPoly()) == hash(F(0))

    def test_equal_etapolys_across_domains_hash_equal(self):
        assert len({EtaPoly((F(1),)), EtaPoly((ParamPoly.const(1),))}) == 1

    def test_polynomial_paramrat_hashes_as_numerator(self):
        assert ParamRat(G - 1) == G - 1 and hash(ParamRat(G - 1)) == hash(G - 1)
        assert ParamRat(F(3)) == 3 and hash(ParamRat(F(3))) == hash(3)

    def test_parampoly_divides_by_scalars_only(self):
        assert (G * 2) / 2 == G
        with pytest.raises(TypeError):
            G / H

    def test_paramrat_has_no_arithmetic(self):
        r = ParamRat(G, H)
        for op in (lambda: r + 1, lambda: 1 - r, lambda: r * r, lambda: r / 2,
                   lambda: -r):
            with pytest.raises(TypeError):
                op()

    def test_proportional_constant_types(self):
        p = EtaPoly((F(1), F(2)))
        assert type(proportional(p.scale(F(3)), p)) is F
        q = EtaPoly((G, ONE))
        assert proportional(q.scale(F(3)), q) == ParamRat(F(3))
        assert type(proportional(q.scale(G), q)) is ParamRat
