"""Differentiation, canonicalization, Wronskians, and their identities."""

import sys
from fractions import Fraction as F
from math import lcm

import mpmath as mp
import pytest

from mijacobi.algebra import AffineExp, EtaPoly, ParamPoly, ParamRat, _pack
from mijacobi.states import (
    QuasiPoly,
    State,
    StateTuple,
    StateType,
    make_state,
    parse_state,
)
from mijacobi.wronskian import (
    RawQuasi,
    WronskianZeroError,
    _columns,
    _int_exact_div,
    _lazy_det,
    _matrix,
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
    fraction_derivative,
    holds_fractions,
    leibniz_det,
    numeric_wronskian,
    quasi_value,
    random_generic_point,
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

    @pytest.mark.parametrize("inst", [None, GENERIC_POINTS[2]])
    def test_matches_fraction_rule(self, inst):
        def exp(cg, ch, c0):
            e = AffineExp(cg, ch, c0)
            return e if inst is None else AffineExp.const(e.eval_at(*inst))

        iii2 = make_state(parse_state("III2"), inst).poly
        cases = [
            # sin exponent 2g - 1, as of a Wronskian: c0, c1 have denominator 2
            RawQuasi(exp(2, 0, -1), exp(0, 1, 0), iii2),
            RawQuasi(exp(1, 0, 0), exp(0, -1, 1), EtaPoly()),  # zero polynomial
            RawQuasi(exp(0, 1, 2), exp(-1, 0, F(1, 3)), EtaPoly((F(3, 7),))),  # constant
            wronskian([parse_state("I0"), parse_state("N1")], inst),
            make_state(parse_state("II2"), inst),
        ]
        for q in cases:
            for _ in range(2):
                got, want = differentiate(q), fraction_derivative(q)
                assert (got.expS, got.expC) == (want.expS, want.expC)
                assert got.poly == want.poly
                assert all(holds_fractions(c) for c in got.poly.coeffs)
                q = got


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


def cleared(mat):
    """mat with each row times the lcm of its denominators: the int
    matrices det_poly_matrix takes."""
    out = []
    for row in mat:
        s = lcm(*(c.denominator for e in row for c in e.coeffs))
        out.append([EtaPoly([c.numerator * (s // c.denominator) for c in e.coeffs])
                    for e in row])
    return out


def fraction_matrix(rng, n):
    """Row i takes its denominators from the i-th prime, so each row clears
    by its own scale."""
    return [[fraction_entry(rng, PRIMES[i]) for _ in range(n)] for i in range(n)]


class TestDetPolyMatrix:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_fraction_matches_leibniz(self, n):
        rng = seeded(100 + n)
        for _ in range(3):
            mat = cleared(fraction_matrix(rng, n))
            assert det_poly_matrix(mat) == leibniz_det(mat)

    @pytest.mark.parametrize("make", [fraction_matrix])
    def test_zero_pivot_swaps_rows(self, make):
        rng = seeded(400)
        mat = make(rng, 4)
        mat[0][0] = EtaPoly.zero()
        while not mat[1][0]:
            mat[1][0] = make(rng, 1)[0][0]
        mat = cleared(mat)
        det = det_poly_matrix(mat)
        assert det and det == leibniz_det(mat)

    @pytest.mark.parametrize("make", [fraction_matrix])
    def test_equal_rows_give_zero(self, make):
        mat = make(seeded(500), 4)
        mat[2] = list(mat[0])
        assert det_poly_matrix(cleared(mat)) == EtaPoly.zero()

    def test_empty_matrix_is_one(self):
        assert det_poly_matrix([]) == EtaPoly((F(1),))

    def test_point_coefficients_are_fractions(self):
        # the determinant of an integer matrix is integral, and the Wronskian
        # built on it must still hold Fractions, not ints
        mat = [[EtaPoly((2, 1)), EtaPoly((3,))], [EtaPoly((1,)), EtaPoly((0, 5))]]
        det = det_poly_matrix(mat)
        assert det == EtaPoly((-3, 10, 5))
        assert all(type(c) is int for c in det.coeffs)
        det = det_poly_matrix(cleared(fraction_matrix(seeded(600), 5)))
        assert det and all(type(c) is int for c in det.coeffs)
        t = [parse_state(x) for x in ("I1", "II2", "III1", "N0")]
        w = wronskian(t, inst=GENERIC_POINTS[0])
        assert all(type(c) is F for c in w.poly.coeffs)

    def test_non_integral_coefficient_raises(self):
        # int coefficients only: a Fraction, even an integral one, or a
        # ParamPoly, even of int terms, is refused
        for c in (F(1, 3), F(2), G.scale(F(1, 2)), (G * 2).numerator):
            mat = cleared(fraction_matrix(seeded(650), 3))
            mat[1][2] = EtaPoly((c,))
            with pytest.raises(ValueError):
                det_poly_matrix(mat)

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
        # coefficients in (g, h) packed as in symbolic mode, with negative slots:
        # ((g - 1) + eta) * ((h - g) + 2 eta) / ((g - 1) + eta) is exact
        def pack(terms):
            return _pack({(0, i, j): n for (i, j), n in terms.items()}, 8, 1, 3)
        b = [pack({(1, 0): 1, (0, 0): -1}), pack({(0, 0): 1})]
        q = [pack({(0, 1): 1, (1, 0): -1}), pack({(0, 0): 2})]
        a = [b[0] * q[0], b[0] * q[1] + b[1] * q[0], b[1] * q[1]]
        assert _int_exact_div(a, b) == q
        with pytest.raises(ValueError):
            _int_exact_div([a[0] + pack({(0, 0): 1})] + a[1:], b)  # remainder 1
        with pytest.raises(ValueError):
            _int_exact_div([pack({(1, 0): 1})], b[:1])  # g / (g - 1)

    def test_two_by_two_divides_nothing(self, monkeypatch):
        # the first elimination step has no previous pivot to divide by
        calls = []
        module = sys.modules["mijacobi.wronskian"]
        int_div = module._int_exact_div
        monkeypatch.setattr(module, "_int_exact_div",
                            lambda a, b: calls.append(b) or int_div(a, b))
        mat = cleared(fraction_matrix(seeded(700), 2))
        assert det_poly_matrix(mat) == leibniz_det(mat)
        assert calls == []
        mat = cleared(fraction_matrix(seeded(701), 3))
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

    def test_spec_string_input(self):
        assert wronskian("I1") == wronskian([parse_state("I1")])
        pt = GENERIC_POINTS[0]
        t = [parse_state(x) for x in ("I1", "II2")]
        assert wronskian(" I1, II2 ", inst=pt) == wronskian(t, inst=pt)
        assert wronskian("") == wronskian([])
        with pytest.raises(ValueError):
            wronskian("I1,XY2")

    def test_non_state_items_raise(self):
        with pytest.raises(TypeError):
            wronskian(["I1", "II2"])
        with pytest.raises(TypeError):
            wronskian([parse_state("I1"), 2])

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

    def test_symbolic_matches_point_on_random_tuples(self):
        # both modes run one integer pipeline, so this checks that instantiation
        # commutes with it (ints packed in (g, h) against plain ints); the
        # independent oracles are fraction_route and TestNumericOracle
        rng = seeded(31)
        for _ in range(3):
            t = random_tuple(rng, 4, 3, min_size=4)
            pt = rng.choice(GENERIC_POINTS)
            assert wronskian(t).poly.instantiate(*pt) == wronskian(t, inst=pt).poly

    def test_instantiated_matches_symbolic(self):
        gv, hv = GENERIC_POINTS[1]
        t = [parse_state(x) for x in ("I1", "II2", "N0")]
        sym = wronskian(t)
        inst = wronskian(t, inst=(gv, hv))
        assert inst.poly == sym.poly.instantiate(gv, hv)
        assert inst.expS == AffineExp.const(sym.expS.eval_at(gv, hv))
        assert inst.expC == AffineExp.const(sym.expC.eval_at(gv, hv))


class TestLazyKernel:
    """_lazy_det against the explicit derivative matrix's determinant: by
    det_poly_matrix at a point and by leibniz_det in symbolic mode."""

    # one state per eta-degree 0..7 at a generic point
    BY_DEGREE = ["N0", "I1", "II2", "III3", "N4", "I5", "II6", "III7"]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_combine_and_division_counts(self, monkeypatch, n):
        # n(n-1)/2 combines and (n-1)(n-2)/2 divisions; Bareiss on the explicit
        # matrix makes 140 and 91 at n = 8
        module = sys.modules["mijacobi.wronskian"]
        calls = {"_int_combine": 0, "_int_exact_div": 0}
        for name in calls:
            def counted(*args, name=name, f=getattr(module, name)):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(module, name, counted)
        wronskian(",".join(self.BY_DEGREE[:n]), inst=GENERIC_POINTS[0])
        assert calls == {"_int_combine": n * (n - 1) // 2,
                         "_int_exact_div": (n - 1) * (n - 2) // 2}

    @pytest.mark.parametrize("n, inst", [(n, GENERIC_POINTS[2]) for n in (2, 3, 6, 7)]
                             + [(2, None), (3, None)])
    def test_descending_degrees(self, n, inst):
        # the reversal of n columns of distinct degrees is an odd permutation
        # for these n, so a lost sign shows
        qs = [make_state(parse_state(s), inst) for s in reversed(self.BY_DEGREE[:n])]
        assert [q.poly.degree for q in qs] == list(range(n - 1, -1, -1))
        big, cols = _columns(qs)
        det = _lazy_det(cols, big)
        assert det and det == (det_poly_matrix if inst else leibniz_det)(_matrix(cols, big))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_wide_coefficients_match_leibniz(self, n):
        # one column's poly has a sparse coefficient of (g, h)-degree (7, 5)
        # with up to 215 bits and both signs, among n - 1 symbolic states:
        # the slot width and the g-slot count must cover its minors
        rng = seeded(250 + n)
        wide = ParamPoly({(rng.randint(0, 6), rng.randint(0, 4)):
                          F(rng.randint(-2 ** 215, 2 ** 215), rng.randint(1, 6))
                          for _ in range(4)})
        top = (G ** 7 * H ** 5).scale(F(-2 ** 210 - rng.randint(1, 99), 3))
        q = raw(AffineExp(1, 0, F(1, 2)), AffineExp(0, 1, -1), (wide + top, G + 1, wide))
        qs = [make_state(parse_state(s)) for s in self.BY_DEGREE[:n - 1]]
        qs.insert(rng.randint(0, n - 1), q)
        big, cols = _columns(qs)
        det = _lazy_det(cols, big)
        assert det and det == leibniz_det(_matrix(cols, big))

    def test_mixed_columns_match_leibniz(self):
        # symbolic states next to constant-exponent columns of Fraction
        # polys, so the columns hold both ParamPolys and ints
        qs = [make_state(parse_state("I1")),
              raw(AffineExp.const(F(3, 2)), AffineExp.const(F(-1, 3)),
                  (F(1, 3), F(-2, 5), F(7))),
              make_state(parse_state("N2")),
              raw(AffineExp.const(F(5, 7)), AffineExp.const(2), (F(-4, 9), F(1, 2)))]
        big, cols = _columns(qs)
        entries = [x for p, _, c0, c1 in cols for x in (*p, c0, c1)]
        assert any(type(x) is int for x in entries)
        assert any(isinstance(x, ParamPoly) for x in entries)
        det = _lazy_det(cols, big)
        assert det and det == leibniz_det(_matrix(cols, big))

    def test_dependent_columns_give_zero(self):
        # a zero pivot needs no row swap: the leading columns are dependent
        qs = [make_state(parse_state(s), GENERIC_POINTS[0]) for s in ("I1", "N2", "II0")]
        for extra in (qs[1], qs[1].scale_poly(F(-3, 7)),
                      QuasiPoly(qs[1].expS, qs[1].expC, EtaPoly())):
            big, cols = _columns(qs[:2] + [extra])
            assert not _lazy_det(cols, big)
            assert not det_poly_matrix(_matrix(cols, big))
            with pytest.raises(WronskianZeroError):
                wronskian_of_quasis(qs[:2] + [extra])


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

    def test_mutated_kernel_fails(self, monkeypatch):
        # the left side comes from det_poly_matrix on the explicit matrix, so a
        # lazy kernel that adds where it should subtract is caught; patching
        # _int_combine only inside the kernel leaves det_poly_matrix intact
        module = sys.modules["mijacobi.wronskian"]
        combine, kernel = module._int_combine, module._lazy_det

        def mutated(cols, big):
            with monkeypatch.context() as m:
                m.setattr(module, "_int_combine",
                          lambda pivot, x, lead, y: combine(pivot, x, [-c for c in lead], y))
                return kernel(cols, big)

        base, f, g2 = [parse_state("I1")], parse_state("III1"), parse_state("N2")
        pt = random_generic_point(seeded(41))
        assert wronskian_compose_check(base, f, g2, inst=pt)
        monkeypatch.setattr(module, "_lazy_det", mutated)
        assert not wronskian_compose_check(base, f, g2, inst=pt)


def fraction_route(quasis):
    """Wronskian by Fraction arithmetic: columns by the Fraction derivative
    rule, Leibniz determinant, canonicalize; none of the integer route."""
    n = len(quasis)
    cols = []
    for q in quasis:
        cols.append([q])
        for _ in range(1, n):
            cols[-1].append(fraction_derivative(cols[-1][-1]))
    det = leibniz_det([[col[i].poly for col in cols] for i in range(n)])
    off = F(n * (n - 1), 2)
    return canonicalize(RawQuasi(sum((q.expS for q in quasis), AffineExp()) - off,
                                 sum((q.expC for q in quasis), AffineExp()) - off, det))


def assert_point_result(got, want):
    assert got == want
    assert got.expS.is_constant and got.expC.is_constant
    assert all(type(c) is F for c in got.poly.coeffs)


def assert_symbolic_result(got, want):
    assert got == want
    assert all(holds_fractions(c) for c in got.poly.coeffs)


class TestIntegerPointRoute:
    def test_wronskians_as_inputs(self, monkeypatch):
        # Wronskian exponents (e.g. 2g - 1) have other denominators than g, h.
        rng = seeded(31)
        cases = []
        for _ in range(4):
            pt = random_generic_point(rng)
            t = random_tuple(rng, 5, 3, min_size=5)
            cases.append([wronskian(t[:2], inst=pt), wronskian(t[2:4], inst=pt),
                          make_state(t[4], inst=pt)])
        sym = []
        for _ in range(2):
            t = random_tuple(rng, 4, 2, min_size=4)
            sym.append([wronskian(t[:2]), wronskian(t[2:3]), make_state(t[3])])
        want = [fraction_route(quasis) for quasis in cases + sym]
        # neither mode calls differentiate: one integer route builds the columns
        monkeypatch.setattr(sys.modules["mijacobi.wronskian"], "differentiate", None)
        for quasis, w in zip(cases, want):
            assert_point_result(wronskian_of_quasis(quasis), w)
        for quasis, w in zip(sym, want[len(cases):]):
            assert_symbolic_result(wronskian_of_quasis(quasis), w)

    def test_symbolic_matches_fraction_route(self):
        rng = seeded(41)
        for size in (1, 2, 3, 3):
            t = random_tuple(rng, size, 2, min_size=size)
            quasis = [make_state(s) for s in t]
            assert_symbolic_result(wronskian(t), fraction_route(quasis))

    def test_one_by_one(self):
        pt = GENERIC_POINTS[1]
        edges = QuasiPoly(AffineExp.const(F(1, 3)), AffineExp.const(F(-2, 5)),
                          EtaPoly((F(3, 4), F(0), F(-3, 4))))  # 3/4 (1-eta)(1+eta)
        for q in [make_state(parse_state("N0"), inst=pt),
                  make_state(parse_state("III3"), inst=pt), edges]:
            assert_point_result(wronskian_of_quasis([q]), fraction_route([q]))
        w = wronskian_of_quasis([edges])
        assert w.poly == EtaPoly((F(3),))
        assert (w.expS, w.expC) == (AffineExp.const(F(7, 3)), AffineExp.const(F(8, 5)))

    def test_zero_polynomial_raises(self):
        zero = QuasiPoly(AffineExp.const(F(1, 3)), AffineExp.const(F(2)), EtaPoly())
        state = make_state(parse_state("I1"), inst=GENERIC_POINTS[0])
        for quasis in ([zero], [state, zero], [zero, state]):
            with pytest.raises(WronskianZeroError):
                wronskian_of_quasis(quasis)

    def test_non_generic_point_raises(self):
        # at h = 1/2, I0 = s^g c^(1-h) and N0 = s^g c^h are one function
        with pytest.raises(WronskianZeroError):
            wronskian(StateTuple([parse_state("I0"), parse_state("N0")]),
                      inst=(F(37, 10), F(1, 2)))

    def test_compose_check_at_seeded_points(self):
        rng = seeded(37)
        base = [parse_state("I1"), parse_state("II2")]
        f, g2 = parse_state("III1"), parse_state("N2")
        for _ in range(3):
            pt = random_generic_point(rng)
            assert wronskian_compose_check(base, f, g2, inst=pt)
            u, v = (wronskian(StateTuple(base + [s]), inst=pt) for s in (f, g2))
            assert_point_result(wronskian_of_quasis([u, v]), fraction_route([u, v]))


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
