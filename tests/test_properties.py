"""Property tests: a symbolic Wronskian instantiates to the Wronskian at the
point, the lazy Wronskian determinant equals the explicit derivative
matrix's determinant (by Bareiss at a point, by the Leibniz sum in symbolic
mode), the column bounds of the symbolic packing hold for every entry of
that matrix, Wronskians have the closed-form degree and leading
coefficient, the symbolic move constants read off those closed-form factors
equal the gcd-reduced ones, a Wronskian built at shifted parameters equals
the shifted Wronskian (shift_quasi), public results hold Fractions even though the
integer pipeline computes on ints, the packed EtaPoly product equals the
schoolbook one, the integer eigen identity decides as its Fraction form
does, and equal values hash equal.

Symbolic properties run without hypothesis's shrink phase (no_shrink): a
symbolic counterexample can be a huge polynomial, and shrinking it would
take minutes where reporting the first failing example takes seconds."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

import mijacobi.maya as maya  # noqa: E402
from mijacobi.algebra import AffineExp, EtaPoly, ParamPoly, ParamRat, _factored_ratio  # noqa: E402
from mijacobi.maya import verify_move_identity, verify_reduction  # noqa: E402
from mijacobi.spectral import QuasiRat, _eigen_identity  # noqa: E402
from mijacobi.states import (  # noqa: E402
    QuasiPoly,
    State,
    StateType,
    as_state_tuple,
    eigenvalue,
    is_generic,
    jacobi_poly,
    make_state,
)
from mijacobi.wronskian import (  # noqa: E402
    WronskianZeroError,
    _column_bounds,
    _columns,
    _lazy_det,
    _matrix,
    det_poly_matrix,
    shift_quasi,
    wronskian,
    wronskian_of_quasis,
)
from helpers import (  # noqa: E402
    coefficient_terms,
    eigen_identity_reference,
    holds_fractions,
    leibniz_det,
    numerator_wronskian,
    schoolbook_mul,
)

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=25)
no_shrink = settings(derandomized, phases=[Phase.explicit, Phase.generate])

states = st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 2))
tuples = st.lists(states, min_size=1, max_size=3, unique=True)
rationals = st.builds(F, st.integers(11, 80), st.sampled_from([3, 5, 6, 7, 10, 11, 12]))
points = st.tuples(rationals, rationals).filter(lambda p: is_generic(*p))
# Jacobi parameters: ints, Fractions and (g, h)-polynomials with int or
# Fraction constants, the mixes where int-preserving arithmetic could leak
params = st.sampled_from([2, F(-3, 2), G, G + 1, G - F(1, 2), H * 2 - 3, G + H])


@no_shrink
@given(tuples, points)
def test_symbolic_wronskian_instantiates_to_point_wronskian(t, pt):
    sym, at = wronskian(t), wronskian(t, inst=pt)
    assert at.poly == sym.poly.instantiate(*pt)
    assert at.expS == AffineExp.const(sym.expS.eval_at(*pt))
    assert at.expC == AffineExp.const(sym.expC.eval_at(*pt))


# -- the lazy Wronskian determinant and the closed form ------------------------


@st.composite
def wronskian_inputs(draw, max_size, symbolic):
    """(quasis, zero): at most max_size quasi-polynomials of distinct states,
    symbolic or at a generic point, in drawn order or in descending
    eta-degree, possibly with a duplicate or a zero polynomial inserted,
    which makes the Wronskian zero.  The size is drawn uniformly, so large
    tuples are as common as small ones."""
    inst = None if symbolic else draw(points)
    extra = draw(st.sampled_from([None, "duplicate", "zero"]))
    size = draw(st.integers(1, max_size - (extra is not None)))
    t = draw(st.lists(states, min_size=size, max_size=size, unique=True))
    qs = [make_state(s, inst) for s in t]
    if draw(st.booleans()):
        qs.sort(key=lambda q: -q.poly.degree)
    if extra:
        q = qs[draw(st.integers(0, len(qs) - 1))]
        qs.insert(draw(st.integers(0, len(qs))),
                  q if extra == "duplicate" else QuasiPoly(q.expS, q.expC, EtaPoly()))
    return qs, extra is not None


def check_lazy_det(qs, zero, reference):
    big, cols = _columns(qs)
    det = _lazy_det(cols, big)
    assert det == reference(_matrix(cols, big))
    assert all(type(v) is int for v in coefficient_terms(det))
    assert bool(det) is not zero
    if zero:
        with pytest.raises(WronskianZeroError):
            wronskian_of_quasis(qs)


@settings(derandomized, max_examples=100)
@given(wronskian_inputs(8, symbolic=False))
def test_lazy_det_matches_bareiss_at_a_point(inputs):
    check_lazy_det(*inputs, det_poly_matrix)


@settings(no_shrink, max_examples=30)
@given(wronskian_inputs(4, symbolic=True))
def test_lazy_det_matches_leibniz_symbolically(inputs):
    check_lazy_det(*inputs, leibniz_det)


@settings(no_shrink, max_examples=30)
@given(wronskian_inputs(4, symbolic=True))
def test_column_bounds_hold_for_every_entry(inputs):
    # entry (i, j) has g-degree at most deg_j + i (deg_j exact at i = 0) and
    # l1 norm at most norms_j[i]: the bounds the symbolic packing rests on
    big, cols = _columns(inputs[0])
    mat = _matrix(cols, big)
    for j, (p, _, c0, c1) in enumerate(cols):
        norms, deg = _column_bounds(p, c0, c1, len(cols), big)
        for i, row in enumerate(mat):
            terms = [t for c in row[j].coeffs
                     for t in (c.terms.items() if isinstance(c, ParamPoly) else [((0, 0), c)])]
            assert sum(abs(v) for _, v in terms) <= norms[i]
            assert max((gi for (gi, _), _ in terms), default=0) <= deg + i
            if i == 0 and p:
                assert max(gi for (gi, _), _ in terms) == deg


def check_closed_form(t, inst):
    """The raw determinant det(Q_ij) of columns s^a_j c^b_j Q_j has degree
    sum deg Q_j + n(n-1)/2 and leading coefficient
    prod lc(Q_j) * prod_{j<k} (mu_k - mu_j), mu_j = (a_j + b_j)/2 + deg Q_j,
    in the caller's column order.  The canonical Wronskian holds
    (1-eta)^k- (1+eta)^k+ of it in its exponents, times 2^(k- + k+)."""
    qs = [make_state(s, inst) for s in t]
    n = len(qs)
    w = wronskian_of_quasis(qs)
    off = F(n * (n - 1), 2)
    ks = w.expS - (sum((q.expS for q in qs), AffineExp()) - off)
    kc = w.expC - (sum((q.expC for q in qs), AffineExp()) - off)
    assert ks.is_constant and kc.is_constant
    k_minus, k_plus = ks.c0 / 2, kc.c0 / 2
    assert k_minus.denominator == k_plus.denominator == 1
    mu = [(q.expS + q.expC).as_parampoly() * F(1, 2) + q.poly.degree for q in qs]
    lc = ParamPoly.const(1)
    for j, q in enumerate(qs):
        lc = lc * q.poly.lc
        for k in range(j + 1, n):
            lc = lc * (mu[k] - mu[j])
    assert w.poly.degree + k_minus + k_plus == sum(q.poly.degree for q in qs) + off
    assert lc == w.poly.lc * F((-1) ** int(k_minus), 2 ** int(k_minus + k_plus))


@settings(derandomized, max_examples=60)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 4)),
    min_size=n, max_size=n, unique=True)), points)
def test_closed_form_degree_and_leading_coefficient_at_a_point(t, pt):
    check_closed_form(t, pt)


@settings(no_shrink, max_examples=15)
@given(tuples)
def test_closed_form_degree_and_leading_coefficient_symbolically(t):
    check_closed_form(t, None)


ROUTES = ([(which, d) for which in ("first", "second") for d in ("left", "right")]
          + [(target, None) for target in ("IN", "I3", "2N", "23")])


# N1,I2: a mu difference with no g term; III0,III2: a constant one
@settings(no_shrink, max_examples=20)
@given(st.lists(st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 3)),
                min_size=1, max_size=4, unique=True),
       st.sampled_from(ROUTES), st.none() | points)
@example([State(StateType.I, 2), State(StateType.N, 1)], ("second", "right"), None)
@example([State(StateType.III, 0), State(StateType.III, 2)], ("first", "left"), None)
@example([State(StateType.II, 1), State(StateType.III, 1)], ("IN", None), None)
@example([State(StateType.II, 1), State(StateType.III, 1)], ("IN", None), (F(37, 10), F(52, 7)))
def test_factored_constant_matches_gcd_route(t, route, pt):
    # _factored_ratio gives the constant once per identity in both modes: at
    # a point the Fraction la/lb, symbolically the terms of ParamRat(la, lb),
    # reduced by parampoly_gcd
    seen = []

    def recording(la, lb, a, b):
        seen.append((la, lb, _factored_ratio(la, lb, a, b)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maya, "_factored_ratio", recording)
        rep = (verify_move_identity(t, *route, instantiate=pt) if route[1]
               else verify_reduction(t, route[0], instantiate=pt))
    assert rep.proportional
    [(la, lb, r)] = seen
    assert r is rep.constant
    if rep.mode == "symbolic":
        ref = ParamRat(la, lb)
        assert r.num.terms == ref.num.terms and r.den.terms == ref.den.terms
    else:
        assert type(r) is F and r == la / lb


# shift_quasi, substituting into the finished Wronskian, is the oracle of the
# Wronskian built at the shifted symbols, as the move identities build it
@settings(no_shrink, max_examples=20)
@given(st.lists(states, min_size=1, max_size=4, unique=True),
       st.integers(-3, 3), st.integers(-3, 3))
def test_wronskian_at_shifted_symbols_matches_shift_quasi(t, dg, dh):
    w = wronskian(t, (AffineExp(1, 0, dg), AffineExp(0, 1, dh)))
    assert w == shift_quasi(wronskian(t), dg, dh)


@derandomized
@given(tuples, points)
def test_constant_affine_pair_matches_rational_point(t, pt):
    assert wronskian(t, tuple(map(AffineExp.const, pt))) == wronskian(t, pt)


@no_shrink
@given(tuples, points)
def test_wronskian_coefficients_are_fractions(t, pt):
    for w in (wronskian(t), wronskian(t, inst=pt)):
        assert all(holds_fractions(c) for c in w.poly.coeffs)
        assert type(w.expS.c0) is F and type(w.expC.c0) is F


@no_shrink
@given(states, st.integers(0, 4), params, params)
def test_eigenvalue_and_jacobi_hold_fractions(s, n, alpha, beta):
    assert holds_fractions(eigenvalue(s))
    assert all(holds_fractions(c) for c in jacobi_poly(n, alpha, beta).coeffs)


@settings(no_shrink, max_examples=10)
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


@settings(no_shrink, max_examples=100)
@given(st.one_of(symbolic_polys, point_polys), symbolic_polys)
def test_symbolic_product_matches_schoolbook(a, b):
    p = a * b
    assert p == schoolbook_mul(a, b)
    if any(isinstance(c, ParamPoly) for c in a.coeffs + b.coeffs):
        ints = all(type(v) is int for v in coefficient_terms(a) + coefficient_terms(b))
        assert all(type(v) is (int if ints else F) for v in coefficient_terms(p))


# -- the eigen identity on integer columns against its Fraction form ----------


def eigenstates(t, inst):
    """(W[t], f, E) for every bound level n <= 2 that t does not delete and
    every extra state of a type III member of t, with f = W[top]/W[t]."""
    t = as_state_tuple(t)
    wt = wronskian(t, inst)

    def over_wt(top):
        w = wronskian(top, inst)
        return QuasiRat.make(w.expS - wt.expS, w.expC - wt.expC, w.poly, wt.poly)

    for n in range(3):
        phi = State(StateType.N, n)
        if phi not in t:
            yield wt, over_wt(t.with_state(phi)), eigenvalue(phi)
    for i, s in enumerate(t):
        if s.type is StateType.III:
            yield wt, over_wt(t.without_index(i)), eigenvalue(s)


def check_eigen_identity(t, pt):
    for wt, f, ev in eigenstates(t, pt):
        e = ev if pt is None else ev.eval_at(*pt)
        y = numerator_wronskian(wt, f)
        for energy, holds in ((e, True), (e + 1, False)):
            assert _eigen_identity(wt, y, energy, pt) is holds, (t, energy)
            assert eigen_identity_reference(wt, f, energy, pt) is holds, (t, energy)


@derandomized
@given(tuples, points)
def test_eigen_identity_matches_fraction_form_at_a_point(t, pt):
    check_eigen_identity(t, pt)


@settings(no_shrink, max_examples=10)
@given(st.lists(states, min_size=1, max_size=2, unique=True))
def test_eigen_identity_matches_fraction_form_symbolically(t):
    check_eigen_identity(t, None)


# -- equal values hash equal ---------------------------------------------------

@derandomized
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-50, 50), st.integers(1, 12))
def test_equal_affine_exps_hash_equal(cg, ch, n, d):
    for c0 in (n, F(n, d)):
        for built in ([AffineExp(cg, ch, c0), AffineExp(cg, ch, F(c0)), AffineExp(cg, ch) + c0],
                      [AffineExp.const(c0), AffineExp(0, 0, F(c0)), AffineExp() + c0]):
            for e in built:
                assert type(e.c0) is F
                assert e == built[0] and hash(e) == hash(built[0])


@derandomized
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6))
def test_equal_eta_polys_hash_equal(ns):
    a = EtaPoly(ns)
    for b in (EtaPoly([F(n) for n in ns]), EtaPoly([ParamPoly.const(n) for n in ns])):
        assert a == b and hash(a) == hash(b)
