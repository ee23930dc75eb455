"""State construction, eigenvalues, pairing, and the bare well."""

import random
from fractions import Fraction as F

import pytest

from mijacobi.algebra import AffineExp, EtaPoly, ParamPoly
from mijacobi.spectral import QuasiRat, apply_hamiltonian, potential
from mijacobi.states import (
    DuplicateStatesError,
    NonGenericParametersError,
    State,
    StateTuple,
    StateType,
    eigenvalue,
    is_generic,
    jacobi_poly,
    make_state,
    pairing,
    parse_state,
    random_tuple,
    require_generic,
    _int_eigenvalue,
    _params,
)
from helpers import GENERIC_POINTS, random_rational, reference_is_generic, seeded

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()
ONE = ParamPoly.const(1)


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_poly(0, G, H) == EtaPoly((ONE,))

    def test_degree_one(self):
        # (alpha+1) - (alpha+beta+2)(1-eta)/2, expanded term by term
        got = jacobi_poly(1, G, H)
        const = (G + 1) - (G + H + 2).scale(F(1, 2))
        lin = (G + H + 2).scale(F(1, 2))
        assert got == EtaPoly((const, lin))

    def test_legendre_case(self):
        got = jacobi_poly(2, F(0), F(0))
        assert got == EtaPoly((F(-1, 2), F(0), F(3, 2)))

    def test_degree_exact_and_leading_nonzero(self):
        half = F(1, 2)
        for n in range(7):
            for alpha, beta in [(G - half, H - half), (G - half, half - H),
                                (half - G, H - half), (half - G, half - H)]:
                p = jacobi_poly(n, alpha, beta)
                assert p.degree == n
                assert p.lc  # nonzero ParamPoly


HALF = F(1, 2)
# (alpha, beta) of the four families, as functions of g and of h
FAMILIES = [(lambda g: g - HALF, lambda h: h - HALF),
            (lambda g: g - HALF, lambda h: HALF - h),
            (lambda g: HALF - g, lambda h: h - HALF),
            (lambda g: HALF - g, lambda h: HALF - h)]


class TestJacobiSum:
    def test_matches_sympy_at_rational_parameters(self):
        sympy = pytest.importorskip("sympy")
        rng = seeded(41)
        x = sympy.Symbol("x")
        for n in range(10):
            for _ in range(3):
                alpha = beta = random_rational(rng, 30, 9)
                # sympy.jacobi divides by zero when alpha + beta is a negative integer
                while (alpha + beta).denominator == 1:
                    beta = random_rational(rng, 30, 9)
                a, b = (sympy.Rational(v.numerator, v.denominator) for v in (alpha, beta))
                want = sympy.Poly(sympy.jacobi(n, a, b, x), x)
                coeffs = [F(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())]
                assert jacobi_poly(n, alpha, beta) == EtaPoly(coeffs), (n, alpha, beta)

    def test_symbolic_instantiates_to_point(self):
        for n in range(8):
            for fa, fb in FAMILIES:
                sym = jacobi_poly(n, fa(G), fb(H))
                for gv, hv in GENERIC_POINTS[:3]:
                    assert sym.instantiate(gv, hv) == jacobi_poly(n, fa(gv), fb(hv))

    def test_coefficient_type_follows_the_mode(self):
        for n in range(5):
            for alpha, beta in [(G, H), (G - F(1, 2), F(3, 4)), (F(1, 3), H * 2)]:
                p = jacobi_poly(n, alpha, beta)
                assert p.degree == n
                assert all(type(c) is ParamPoly for c in p.coeffs)
            for alpha, beta in [(F(1, 3), F(-5, 2)), (2, 0)]:
                p = jacobi_poly(n, alpha, beta)
                assert p.degree == n
                assert all(type(c) is F for c in p.coeffs)


class TestMakeState:
    def test_type_i_index_zero(self):
        q = make_state(State(StateType.I, 0))
        assert q.expS == AffineExp(1, 0, 0)
        assert q.expC == AffineExp(0, -1, 1)
        assert q.poly == EtaPoly((ONE,))

    def test_bound_index_zero(self):
        q = make_state(State(StateType.N, 0))
        assert q.expS == AffineExp(1, 0, 0)
        assert q.expC == AffineExp(0, 1, 0)
        assert q.poly == EtaPoly((ONE,))

    def test_type_iii_poly(self):
        q = make_state(State(StateType.III, 1))
        half = F(1, 2)
        assert q.expS == AffineExp(-1, 0, 1)
        assert q.expC == AffineExp(0, -1, 1)
        assert q.poly == jacobi_poly(1, half - G, half - H)

    def test_instantiated(self):
        gv, hv = F(37, 10), F(52, 7)
        q = make_state(State(StateType.II, 2), inst=(gv, hv))
        assert q.expS == AffineExp.const(1 - gv)
        assert q.expC == AffineExp.const(hv)
        sym = make_state(State(StateType.II, 2))
        assert q.poly == sym.poly.instantiate(gv, hv)


class TestEigenvalue:
    def test_ground_state(self):
        assert eigenvalue(State(StateType.N, 0)) == ParamPoly()

    def test_type_n_formula(self):
        for v in range(9):
            assert eigenvalue(State(StateType.N, v)) == ((G + H + v) * F(v)).scale(4)

    def test_type_i_formula(self):
        for v in range(9):
            expected = ((G + (v + F(1, 2))) * (H - (v + F(1, 2)))).scale(-4)
            assert eigenvalue(State(StateType.I, v)) == expected

    def test_type_ii_formula(self):
        for v in range(4):
            expected = ((G - (v + F(1, 2))) * (H + (v + F(1, 2)))).scale(-4)
            assert eigenvalue(State(StateType.II, v)) == expected

    def test_type_iii_formula(self):
        for v in range(4):
            expected = ((G + H - (v + 1)) * F(v + 1)).scale(-4)
            assert eigenvalue(State(StateType.III, v)) == expected

    def test_ii_is_i_at_negated_index(self):
        # type II eigenvalue equals the type I formula at index -(v+1)
        for v in range(9):
            w = F(-(v + 1))
            via_i = ((G + (w + F(1, 2))) * (H - (w + F(1, 2)))).scale(-4)
            assert eigenvalue(State(StateType.II, v)) == via_i

    def test_iii_is_bound_at_negated_index(self):
        # type III eigenvalue equals 4n(n+g+h) at n = -(v+1)
        for v in range(9):
            n = F(-(v + 1))
            via_n = ((G + H + n) * n).scale(4)
            assert eigenvalue(State(StateType.III, v)) == via_n

    def test_integer_form_is_q_squared_times_the_eigenvalue(self):
        # at the integer point (G, H, Q) of a point and of the symbols
        for inst in [None, (F(-7, 3), F(52, 7)), (F(1000003, 999), 3)] + GENERIC_POINTS:
            pt = _params(inst)
            q = pt[2]
            for ty in StateType:
                for v in range(6):
                    e = _int_eigenvalue(State(ty, v), pt)
                    ev = eigenvalue(State(ty, v))
                    assert e == (ev if inst is None else ev.eval_at(*inst)) * q * q
                    assert all(type(x) is int for x in
                               (e.terms.values() if isinstance(e, ParamPoly) else (e,)))


PAIRING_TABLE = {
    ("I", "I"): 1, ("I", "II"): -1, ("I", "III"): 0, ("I", "N"): 0,
    ("II", "I"): -1, ("II", "II"): 1, ("II", "III"): 0, ("II", "N"): 0,
    ("III", "I"): 0, ("III", "II"): 0, ("III", "III"): 1, ("III", "N"): -1,
    ("N", "I"): 0, ("N", "II"): 0, ("N", "III"): -1, ("N", "N"): 1,
}


def test_pairing_table():
    for (a, b), want in PAIRING_TABLE.items():
        assert pairing(StateType(a), StateType(b)) == want


class TestPotential:
    def test_sin_singularity_vanishes_at_g_zero(self):
        u = potential(inst=(F(0), F(5, 2)))
        # the (1-eta) pole cancels when g(g-1) = 0, so eta = 1 is regular
        assert u.den.eval_at(F(1)) != 0
        full = potential(inst=(F(3), F(5, 2)))
        assert full.den.eval_at(F(1)) == 0  # generic g keeps the pole

    def test_symmetric_when_g_equals_h(self):
        u = potential(inst=(F(7, 3), F(7, 3)))
        flipped = EtaPoly(tuple(c if k % 2 == 0 else -c
                                for k, c in enumerate(u.num.coeffs)))
        assert flipped == u.num and u.den == EtaPoly(
            tuple(c if k % 2 == 0 else -c for k, c in enumerate(u.den.coeffs)))

    def test_two_route_evaluation(self):
        gv, hv, eta = F(2), F(3), F(0)
        u = potential(inst=(gv, hv))
        via_eta = u.num.eval_at(eta) / u.den.eval_at(eta)
        s2, c2 = (1 - eta) / 2, (1 + eta) / 2
        via_trig = gv * (gv - 1) / s2 + hv * (hv - 1) / c2 - (gv + hv) ** 2
        assert via_eta == via_trig

    def test_two_route_random(self):
        gv, hv = F(37, 10), F(52, 7)
        u = potential(inst=(gv, hv))
        for eta in (F(1, 3), F(-2, 5), F(9, 11)):
            s2, c2 = (1 - eta) / 2, (1 + eta) / 2
            via_trig = gv * (gv - 1) / s2 + hv * (hv - 1) / c2 - (gv + hv) ** 2
            assert u.num.eval_at(eta) / u.den.eval_at(eta) == via_trig


class TestSchroedinger:
    def test_all_families_solve_the_equation(self):
        gv, hv = GENERIC_POINTS[0]
        u = potential(inst=(gv, hv))
        for st in StateType:
            for v in range(5):
                s = State(st, v)
                q = make_state(s, inst=(gv, hv))
                f = QuasiRat.make(q.expS, q.expC, q.poly, EtaPoly((F(1),)))
                ev = eigenvalue(s).eval_at(gv, hv)
                assert apply_hamiltonian(u, f).sub(f.scale(ev)).is_zero(), s

    def test_symbolically_for_small_indices(self):
        u = potential()
        for st in (StateType.I, StateType.N):
            for v in range(3):
                s = State(st, v)
                q = make_state(s)
                f = QuasiRat.make(q.expS, q.expC, q.poly, EtaPoly((F(1),)))
                ev = eigenvalue(s)
                assert apply_hamiltonian(u, f).sub(f.scale(ev)).is_zero(), s


class TestTuplesAndGenericity:
    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateStatesError):
            StateTuple([State(StateType.I, 1), State(StateType.I, 1)])

    def test_symbolic_construction_never_guards(self):
        # no parameter constraint is enforced at the symbolic level
        t = StateTuple([State(StateType.I, 1), State(StateType.II, 2)])
        assert len(t) == 2

    def test_generic_point_validation(self):
        assert is_generic(F(37, 10), F(52, 7))
        with pytest.raises(NonGenericParametersError):
            require_generic(F(3, 2), F(52, 7))  # half-odd integer g
        with pytest.raises(NonGenericParametersError):
            require_generic(F(7, 3), F(2, 3))  # g + h integral
        with pytest.raises(NonGenericParametersError):
            require_generic(F(7, 3), F(1, 3))  # g - h integral

    def test_integer_rule_matches_fraction_rule(self):
        # negative, integral, half-odd and other values over denominators
        # 1..6, ints and Fractions, against the Fraction form of the rule
        values = [F(n, d) for d in range(1, 7) for n in range(-13, 14)] + [-3, 0, 2, 5]
        verdicts = [(is_generic(g, h), reference_is_generic(g, h)) for g in values for h in values]
        assert all(a is b for a, b in verdicts)
        assert {a for a, _ in verdicts} == {True, False}
        for gv, hv in ((0.5, F(1, 3)), (F(7, 3), 2.25), (3.0, 1)):
            with pytest.raises(TypeError):
                is_generic(gv, hv)

    def test_parse(self):
        s = parse_state("III4")
        assert s == State(StateType.III, 4)
        with pytest.raises(ValueError):
            parse_state("IV2")

    def test_without_index(self):
        t = StateTuple([parse_state(x) for x in ("N1", "I2", "III0")])
        assert t.without_index(0).spec() == "I2,III0"
        assert t.without_index(-1) == t.without_index(2) == StateTuple(t.states[:2])
        for i in (3, -4):
            with pytest.raises(IndexError):
                t.without_index(i)

    def test_indices_and_sorted(self):
        t = StateTuple([parse_state(x) for x in ("N1", "I2", "III0", "I0")])
        assert t.indices(StateType.I) == [0, 2]
        assert t.sorted().spec() == "I0,I2,III0,N1"

    def test_random_tuple_at_the_state_count(self):
        # indices 0..1 give 4 * 2 distinct states: asking for all of them
        # returns them, asking for one more raises instead of drawing forever,
        # and a larger max_size is capped at the count
        everything = {State(ty, i) for ty in StateType for i in (0, 1)}
        assert set(random_tuple(random.Random(0), 8, 1, min_size=8)) == everything
        with pytest.raises(ValueError):
            random_tuple(random.Random(0), 9, 1, min_size=9)
        assert set(random_tuple(random.Random(0), 20, 1, min_size=8)) == everything
