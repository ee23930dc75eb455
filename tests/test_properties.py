"""Property tests: a symbolic Wronskian instantiates to the Wronskian at the
point, public results hold Fractions even though the integer pipeline
computes on ints, and the packed EtaPoly product equals the schoolbook one."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mijacobi.algebra import AffineExp, EtaPoly, ParamPoly  # noqa: E402
from mijacobi.maya import verify_move_identity  # noqa: E402
from mijacobi.states import (  # noqa: E402
    State,
    StateType,
    eigenvalue,
    is_generic,
    jacobi_poly,
)
from mijacobi.wronskian import wronskian  # noqa: E402
from helpers import coefficient_terms, holds_fractions, schoolbook_mul  # noqa: E402

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=25)

states = st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 2))
tuples = st.lists(states, min_size=1, max_size=3, unique=True)
rationals = st.builds(F, st.integers(11, 80), st.sampled_from([3, 5, 6, 7, 10, 11, 12]))
points = st.tuples(rationals, rationals).filter(lambda p: is_generic(*p))
# Jacobi parameters: ints, Fractions and (g, h)-polynomials with int or
# Fraction constants, the mixes where int-preserving arithmetic could leak
params = st.sampled_from([2, F(-3, 2), G, G + 1, G - F(1, 2), H * 2 - 3, G + H])


@derandomized
@given(tuples, points)
def test_symbolic_wronskian_instantiates_to_point_wronskian(t, pt):
    sym, at = wronskian(t), wronskian(t, inst=pt)
    assert at.poly == sym.poly.instantiate(*pt)
    assert at.expS == AffineExp.const(sym.expS.eval_at(*pt))
    assert at.expC == AffineExp.const(sym.expC.eval_at(*pt))


@derandomized
@given(tuples, points)
def test_wronskian_coefficients_are_fractions(t, pt):
    for w in (wronskian(t), wronskian(t, inst=pt)):
        assert all(holds_fractions(c) for c in w.poly.coeffs)
        assert type(w.expS.c0) is F and type(w.expC.c0) is F


@derandomized
@given(states, st.integers(0, 4), params, params)
def test_eigenvalue_and_jacobi_hold_fractions(s, n, alpha, beta):
    assert holds_fractions(eigenvalue(s))
    assert all(holds_fractions(c) for c in jacobi_poly(n, alpha, beta).coeffs)


@settings(derandomized, max_examples=10)
@given(st.lists(states, min_size=1, max_size=2, unique=True),
       st.sampled_from(["first", "second"]), st.sampled_from(["left", "right"]),
       st.none() | points)
def test_move_identity_constant_holds_fractions(t, which, direction, pt):
    rep = verify_move_identity(t, which, direction, instantiate=pt)
    assert rep.proportional
    assert holds_fractions(rep.constant)


# EtaPoly factors for the product: at a point (Fractions, with zeros and
# coefficients up to 2^80 in size), and symbolic (ParamPolys of int or
# Fraction terms, possibly next to plain Fractions)
point_coeffs = st.one_of(st.just(F(0)), st.builds(F, st.integers(-99, 99), st.integers(1, 12)),
                         st.integers(-2 ** 80, 2 ** 80).map(F))
int_terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            st.integers(-2 ** 40, 2 ** 40), max_size=4)
param_coeffs = st.one_of(
    int_terms.map(lambda t: ParamPoly(t).numerator),
    st.builds(lambda t, d: ParamPoly(t).scale(F(1, d)), int_terms, st.integers(1, 9)))
point_polys = st.lists(point_coeffs, max_size=6).map(EtaPoly)
symbolic_polys = st.lists(st.one_of(param_coeffs, point_coeffs), max_size=5).map(EtaPoly)


@settings(derandomized, max_examples=100)
@given(point_polys, point_polys)
def test_point_product_matches_schoolbook(a, b):
    p = a * b
    assert p == schoolbook_mul(a, b)
    assert all(type(c) is F for c in p.coeffs)


@settings(derandomized, max_examples=100)
@given(st.one_of(symbolic_polys, point_polys), symbolic_polys)
def test_symbolic_product_matches_schoolbook(a, b):
    p = a * b
    assert p == schoolbook_mul(a, b)
    if any(isinstance(c, ParamPoly) for c in a.coeffs + b.coeffs):
        ints = all(type(v) is int for v in coefficient_terms(a) + coefficient_terms(b))
        assert all(type(v) is (int if ints else F) for v in coefficient_terms(p))
