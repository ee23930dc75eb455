"""Differentiation, canonicalization, Wronskians, and their identities."""

import sys
from fractions import Fraction as F

import mpmath as mp
import pytest

from mijacobi.algebra import AffineExp, EtaPoly, ParamPoly, ParamRat
from mijacobi.states import State, StateTuple, StateType, make_state, parse_state
from mijacobi.wronskian import (
    RawQuasi,
    WronskianZeroError,
    _int_exact_div,
    canonicalize,
    compare_quasi,
    det_poly_matrix,
    differentiate,
    shift_quasi,
    wronskian,
    wronskian_compose_check,
    wronskian_of_quasis,
)
from mijacobi.states import DuplicateStatesError
from helpers import (
    GENERIC_POINTS,
    leibniz_det,
    numeric_wronskian,
    quasi_value,
    random_rational,
    random_tuple,
    seeded,
)

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()
ONE = ParamPoly.const(1)


def raw(a, b, coeffs):
    return RawQuasi(a, b, EtaPoly(coeffs))


class TestDifferentiate:
    def test_eta_derivative(self):
        # d/dx cos(2x) = -2 sin(2x) = -4 sin x cos x
        q = canonicalize(differentiate(raw(AffineExp(), AffineExp(), (F(0), F(1)))))
        assert (q.expS, q.expC) == (AffineExp.const(1), AffineExp.const(1))
        assert q.poly == EtaPoly((F(-4),))

    def test_second_eta_derivative(self):
        r = differentiate(raw(AffineExp(), AffineExp(), (F(0), F(1))))
        q = canonicalize(differentiate(r))
        assert (q.expS, q.expC) == (AffineExp.const(0), AffineExp.const(0))
        assert q.poly == EtaPoly((F(0), F(-4)))  # eta'' = -4 eta

    def test_prefactor_rule(self):
        q = differentiate(raw(AffineExp(1, 0, 0), AffineExp(0, 1, 0), (ONE,)))
        assert q.expS == AffineExp(1, 0, -1)
        assert q.expC == AffineExp(0, 1, -1)
        # (g(1+eta) - h(1-eta))/2
        assert q.poly == EtaPoly(((G - H).scale(F(1, 2)), (G + H).scale(F(1, 2))))

    def test_leibniz_consistency(self):
        rng = seeded(21)
        for _ in range(50):
            a1 = AffineExp(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-2, 2))
            b1 = AffineExp(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-2, 2))
            a2 = AffineExp(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-2, 2))
            b2 = AffineExp(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-2, 2))
            p1 = EtaPoly([random_rational(rng) for _ in range(rng.randint(1, 3))])
            p2 = EtaPoly([random_rational(rng) for _ in range(rng.randint(1, 3))])
            if not p1 or not p2:
                continue
            q1, q2 = RawQuasi(a1, b1, p1), RawQuasi(a2, b2, p2)
            prod = RawQuasi(a1 + a2, b1 + b2, p1 * p2)
            lhs = differentiate(prod)
            d1, d2 = differentiate(q1), differentiate(q2)
            rhs_poly = d1.poly * p2 + p1 * d2.poly
            assert lhs.poly == rhs_poly
            assert lhs.expS == d1.expS + a2 and lhs.expC == d1.expC + b2


class TestCanonicalize:
    def test_edge_pair(self):
        q = canonicalize(raw(AffineExp.const(-1), AffineExp.const(-1),
                             (F(1), F(0), F(-1))))
        assert (q.expS, q.expC) == (AffineExp.const(1), AffineExp.const(1))
        assert q.poly == EtaPoly((F(4),))

    def test_idempotent_on_canonical(self):
        q = make_state(State(StateType.II, 2))
        again = canonicalize(RawQuasi(q.expS, q.expC, q.poly))
        assert again == q

    def test_single_factor(self):
        p = EtaPoly((F(1), F(-1))) * EtaPoly((F(2), F(1)))  # (1-eta)(2+eta)
        q = canonicalize(RawQuasi(AffineExp(1, 0, 0), AffineExp(0, 1, 0), p))
        assert q.expS == AffineExp(1, 0, 2)
        assert q.expC == AffineExp(0, 1, 0)
        assert q.poly == EtaPoly((F(4), F(2)))  # 2*(2+eta)

    def test_zero_raises(self):
        with pytest.raises(WronskianZeroError):
            canonicalize(raw(AffineExp(), AffineExp(), ()))


PRIMES = (2, 3, 5, 7, 11, 13, 17)


def fraction_entry(rng, den):
    """Random EtaPoly of degree at most 1 with denominators dividing den^2."""
    return EtaPoly(tuple(F(rng.randint(-9, 9), den ** rng.randint(0, 2))
                         for _ in range(rng.randint(0, 2))))


def param_entry(rng):
    """Random EtaPoly of degree at most 1 with affine ParamPoly coefficients."""
    return EtaPoly(tuple(G * rng.randint(-2, 2) + H * rng.randint(-2, 2)
                         + rng.randint(-3, 3) for _ in range(rng.randint(0, 2))))


def fraction_matrix(rng, n):
    """Row i takes its denominators from the i-th prime, so the row scales
    are pairwise coprime."""
    return [[fraction_entry(rng, PRIMES[i]) for _ in range(n)] for i in range(n)]


def param_matrix(rng, n):
    return [[param_entry(rng) for _ in range(n)] for _ in range(n)]


class TestDetPolyMatrix:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_fraction_matches_leibniz(self, n):
        rng = seeded(100 + n)
        for _ in range(3):
            mat = fraction_matrix(rng, n)
            assert det_poly_matrix(mat) == leibniz_det(mat)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_parampoly_matches_leibniz(self, n):
        rng = seeded(200 + n)
        for _ in range(2):
            mat = param_matrix(rng, n)
            assert det_poly_matrix(mat) == leibniz_det(mat)

    def test_mixed_matches_leibniz(self):
        rng = seeded(300)
        mat = [[param_entry(rng) if (i + j) % 2 else fraction_entry(rng, PRIMES[i])
                for j in range(3)] for i in range(3)]
        assert any(isinstance(c, ParamPoly) for row in mat for e in row for c in e.coeffs)
        assert det_poly_matrix(mat) == leibniz_det(mat)

    @pytest.mark.parametrize("make", [fraction_matrix, param_matrix])
    def test_zero_pivot_swaps_rows(self, make):
        rng = seeded(400)
        mat = make(rng, 4)
        mat[0][0] = EtaPoly.zero()
        while not mat[1][0]:
            mat[1][0] = make(rng, 1)[0][0]
        det = det_poly_matrix(mat)
        assert det and det == leibniz_det(mat)

    @pytest.mark.parametrize("make", [fraction_matrix, param_matrix])
    def test_equal_rows_give_zero(self, make):
        mat = make(seeded(500), 4)
        mat[2] = list(mat[0])
        assert det_poly_matrix(mat) == EtaPoly.zero()

    def test_empty_matrix_is_one(self):
        assert det_poly_matrix([]) == EtaPoly((F(1),))

    def test_point_coefficients_are_fractions(self):
        # integral entries: the result must still hold Fractions, not ints
        mat = [[EtaPoly((F(2), F(1))), EtaPoly((F(3),))],
               [EtaPoly((F(1),)), EtaPoly((F(0), F(5)))]]
        det = det_poly_matrix(mat)
        assert det == EtaPoly((F(-3), F(10), F(5)))
        assert all(type(c) is F for c in det.coeffs)
        det = det_poly_matrix(fraction_matrix(seeded(600), 5))
        assert det and all(type(c) is F for c in det.coeffs)
        t = [parse_state(x) for x in ("I1", "II2", "III1", "N0")]
        w = wronskian(t, inst=GENERIC_POINTS[0])
        assert all(type(c) is F for c in w.poly.coeffs)

    def test_int_exact_division(self):
        assert _int_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
        assert _int_exact_div([6, 4], [2]) == [3, 2]
        assert _int_exact_div([], [1, 1]) == []
        with pytest.raises(ValueError):
            _int_exact_div([1, 0, 1], [1, 1])  # remainder 2
        with pytest.raises(ValueError):
            _int_exact_div([3], [2])  # 3/2 is not an integer
        with pytest.raises(ValueError):
            _int_exact_div([1], [1, 1])  # divisor of higher degree

    def test_two_by_two_divides_nothing(self, monkeypatch):
        # the first elimination step has no previous pivot to divide by
        calls = []
        module = sys.modules["mijacobi.wronskian"]
        int_div = module._int_exact_div
        monkeypatch.setattr(module, "_int_exact_div",
                            lambda a, b: calls.append(b) or int_div(a, b))
        eta_div = EtaPoly.exact_div
        monkeypatch.setattr(EtaPoly, "exact_div",
                            lambda a, b: calls.append(b) or eta_div(a, b))
        for make in (fraction_matrix, param_matrix):
            mat = make(seeded(700), 2)
            assert det_poly_matrix(mat) == leibniz_det(mat)
        assert calls == []
        mat = param_matrix(seeded(701), 3)
        assert det_poly_matrix(mat) == leibniz_det(mat)
        assert len(calls) == 1  # step 1 only: one entry, divided by pivot 0


class TestWronskian:
    def test_empty(self):
        w = wronskian(StateTuple())
        assert (w.expS, w.expC) == (AffineExp(), AffineExp())
        assert w.poly == EtaPoly((F(1),))

    def test_single_state(self):
        s = State(StateType.II, 3)
        assert wronskian([s]) == make_state(s)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateStatesError):
            wronskian([State(StateType.I, 1), State(StateType.I, 1)])

    def test_golden_intro_example(self):
        # W[I1, II2, III1]: the verified polynomial part.  The eta^5
        # coefficient equals -(1/2) (2g-1)(2h+1)/16 times the quintic
        # (g-h+2)(g-h-1)(g-h-3)(g-h-4)(g+h-3); value pinned after exact
        # cross-checks against an independent x-space computation and a
        # 150-bit numeric Wronskian.
        t = [parse_state(x) for x in ("I1", "II2", "III1")]
        w = wronskian(t)
        assert w.expS == AffineExp(-1, 0, 1)
        assert w.expC == AffineExp(0, -1, 1)
        assert w.poly.degree == 5
        quintic = (G - H + 2) * (G - H - 1) * (G - H - 3) * (G - H - 4) * (G + H - 3)
        verified = ((G * 2 - 1) * (H * 2 + 1) * quintic).scale(F(-1, 32))
        assert w.poly.coeff(5) == verified

    def test_prepend_identity_type_i_bound(self):
        # W[I0, phi_n](g,h) is proportional to phi_n(g+1,h-1) * I0(g,h)
        for n, expected_c in ((1, (H * -2 - 1)), (2, (H * -2 - 3))):
            lhs = wronskian([parse_state("I0"), State(StateType.N, n)])
            rhs = shift_quasi(make_state(State(StateType.N, n)), 1, -1).mul(
                make_state(parse_state("I0")))
            c = compare_quasi(lhs, rhs)
            assert c is not None
            assert c == ParamRat(expected_c)

    def test_antisymmetry(self):
        qs = [make_state(parse_state(x)) for x in ("I1", "II0", "N2")]
        w1 = wronskian_of_quasis(qs)
        qs[0], qs[1] = qs[1], qs[0]
        w2 = wronskian_of_quasis(qs)
        assert w1.expS == w2.expS and w1.expC == w2.expC
        assert w2.poly == -w1.poly

    def test_column_multilinearity(self):
        qs = [make_state(parse_state(x)) for x in ("I1", "III0", "N1")]
        w1 = wronskian_of_quasis(qs)
        c = G - 1
        scaled = qs[0].scale_poly(c)
        w2 = wronskian_of_quasis([scaled, qs[1], qs[2]])
        assert w2.expS == w1.expS and w2.expC == w1.expC
        assert w2.poly == EtaPoly(tuple(c * x for x in w1.poly.coeffs))

    def test_instantiated_matches_symbolic(self):
        gv, hv = GENERIC_POINTS[1]
        t = [parse_state(x) for x in ("I1", "II2", "N0")]
        sym = wronskian(t)
        inst = wronskian(t, inst=(gv, hv))
        assert inst.poly == sym.poly.instantiate(gv, hv)
        assert inst.expS == AffineExp.const(sym.expS.eval_at(gv, hv))
        assert inst.expC == AffineExp.const(sym.expC.eval_at(gv, hv))


class TestShiftQuasi:
    def test_exponent_shift(self):
        q = shift_quasi(make_state(parse_state("I0")), -1, 1)
        assert q.expS == AffineExp(1, 0, -1)
        assert q.expC == AffineExp(0, -1, 0)

    def test_identity_shift(self):
        q = make_state(parse_state("II2"))
        assert shift_quasi(q, 0, 0) == q


class TestComposition:
    def test_empty_base(self):
        assert wronskian_compose_check([], parse_state("I0"), parse_state("N1"))

    def test_single_base(self):
        assert wronskian_compose_check([parse_state("I0")], parse_state("I1"),
                                       parse_state("N0"))

    def test_two_base(self):
        assert wronskian_compose_check(
            [parse_state("I1"), parse_state("II2")],
            parse_state("III1"), parse_state("N0"))

    def test_random_cases(self):
        rng = seeded(23)
        done = 0
        while done < 10:
            t = random_tuple(rng, 5, 4, min_size=2)
            base, f, g2 = StateTuple(t[:-2]), t[-2], t[-1]
            pt = rng.choice(GENERIC_POINTS)
            assert wronskian_compose_check(base, f, g2, inst=pt)
            done += 1


class TestNumericOracle:
    def test_random_tuples_match_highprec(self):
        rng = seeded(29)
        with mp.workprec(200):
            for _ in range(4):
                t = random_tuple(rng, 4, 3, min_size=1)
                gv, hv = rng.choice(GENERIC_POINTS)
                quasis = [make_state(s, inst=(gv, hv)) for s in t]
                w = wronskian_of_quasis(quasis)
                eta = F(rng.randint(-7, 7), 9)
                x0 = mp.acos(mp.mpf(eta.numerator) / eta.denominator) / 2
                direct = numeric_wronskian(quasis, x0)
                via_sym = quasi_value(w, x0)
                assert abs(direct - via_sym) <= abs(via_sym) * mp.mpf(10) ** -30
