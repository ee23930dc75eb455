"""The spectral layer on ints.

QuasiRat's arithmetic (add, sub, mul, scale, differentiate_rat, potential)
runs on integer numerators and denominators; here it is checked by value
against its Fraction form (helpers.reference_*), with every public result
holding Fractions, and the extra states are checked through the quotient
route.  The eigen identity decides its left side as one packed int; here
the slot width it picks is checked against the largest coefficient of that
side built by EtaPoly products (helpers.eigen_numerator), on false cases,
where the side is not zero."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

import mijacobi.spectral as spectral  # noqa: E402
from mijacobi.algebra import AffineExp, EtaPoly, ParamPoly  # noqa: E402
from mijacobi.spectral import (  # noqa: E402
    apply_hamiltonian,
    deformed_potential,
    differentiate_rat,
    extra_eigenstate,
    potential,
    QuasiRat,
)
from mijacobi.states import (  # noqa: E402
    State, StateType, as_state_tuple, is_generic, _int_eigenvalue)
from mijacobi.wronskian import _state_column  # noqa: E402
from helpers import (  # noqa: E402
    GENERIC_POINTS,
    eigen_numerator,
    holds_fractions,
    parse_states,
    random_generic_point,
    random_tuple,
    reference_add,
    reference_differentiate_rat,
    reference_mul,
    reference_potential,
    reference_scale,
    seeded,
)

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=60)
no_shrink = settings(derandomized, phases=[Phase.explicit, Phase.generate], max_examples=12)

fractions = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
rationals = st.builds(F, st.integers(11, 80), st.sampled_from([3, 5, 6, 7, 10, 11, 12]))
param_coeffs = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), fractions,
                               min_size=1, max_size=4).map(ParamPoly)


def same_value(x, y):
    """Whether the QuasiRats x and y have equal exponents and equal values,
    by one cross-multiplication of EtaPolys: no QuasiRat arithmetic."""
    return (x.expS == y.expS and x.expC == y.expC
            and x.num * y.den == y.num * x.den)


def public(x):
    """x, after checking that its num and den hold Fractions only."""
    assert all(holds_fractions(c) for c in x.num.coeffs + x.den.coeffs), x
    return x


def operands(ds, dc):
    """(a, b, c): QuasiRats a and b whose sin and cos exponents differ by ds
    and dc, with coefficients Fractions at a point and ParamPolys (or
    Fractions) of Fractions in symbolic mode, and a scalar c."""
    @st.composite
    def draw_operands(draw):
        symbolic = draw(st.booleans())
        coeffs = st.one_of(param_coeffs, fractions) if symbolic else fractions
        nonzero = st.lists(coeffs, min_size=1, max_size=4).map(EtaPoly).filter(bool)
        if symbolic:
            base = [AffineExp(draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), draw(fractions))
                    for _ in range(2)]
        else:
            base = [AffineExp.const(draw(fractions)) for _ in range(2)]
        a = QuasiRat.make(base[0], base[1], draw(nonzero), draw(nonzero))
        b = QuasiRat.make(base[0] - ds, base[1] - dc, draw(nonzero), draw(nonzero))
        scalars = st.one_of(fractions, st.integers(-9, 9), *[param_coeffs] * symbolic)
        return a, b, draw(scalars)
    return draw_operands()


# the fold of sin^2 or cos^2 to either side, by one step and by two
@pytest.mark.parametrize("ds, dc", [(-4, 0), (-2, 0), (2, 0), (4, 0), (0, -4), (0, -2),
                                    (0, 2), (0, 4), (2, -4), (0, 0)])
@settings(derandomized, max_examples=8)
@given(data=st.data())
def test_integer_arithmetic_matches_fraction_form(ds, dc, data):
    a, b, c = data.draw(operands(ds, dc))
    assert same_value(public(a.add(b)), reference_add(a, b))
    assert same_value(public(a.sub(b)), reference_add(a, reference_scale(b, -1)))
    assert same_value(public(b.sub(a)), reference_add(b, reference_scale(a, -1)))
    assert same_value(public(a.mul(b)), reference_mul(a, b))
    assert same_value(public(a.scale(c)), reference_scale(a, c))
    for f in (a, b):
        assert same_value(public(differentiate_rat(f)), reference_differentiate_rat(f))


@settings(derandomized, max_examples=20)
@given(st.one_of(st.none(), st.tuples(fractions, fractions)))
def test_potential_matches_fraction_form(inst):
    # and the same poles: a vanishing g(g-1) or h(h-1) drops one in both routes
    u, ref = public(potential(inst)), reference_potential(inst)
    assert same_value(u, ref)
    assert (u.den.degree, u.num.degree) == (ref.den.degree, ref.num.degree)


def test_potential_drops_vanishing_poles():
    for g, h, degree in ((0, F(5, 2), 1), (1, 1, 0), (F(3), F(5, 2), 2), (F(7, 3), 0, 1)):
        assert public(potential((g, h))).den.degree == degree
        assert same_value(potential((g, h)), reference_potential((g, h)))


def eigen_levels(t):
    """The states whose eigen identities spectrum --verify runs for t: the
    bound levels n <= 2 that t does not delete and t's type III members."""
    deleted = set(t.indices(StateType.N))
    return ([State(StateType.N, n) for n in range(3) if n not in deleted]
            + [s for s in t if s.type is StateType.III])


def check_extra_states(t, pt):
    # H_T f = E f for every extra state, and not E + 1, by apply_hamiltonian
    # on deformed_potential; the same composition of the Fraction form agrees
    pot = public(deformed_potential(t, pt))
    for i, s in enumerate(t):
        if s.type is not StateType.III:
            continue
        f, ev = extra_eigenstate(t, i, pt)
        e = ev if pt is None else ev.eval_at(*pt)
        hf = public(apply_hamiltonian(pot, f))
        assert public(hf.sub(f.scale(e))).is_zero(), (t, i)
        assert not hf.sub(f.scale(e + 1)).is_zero(), (t, i)
        fpp = reference_differentiate_rat(reference_differentiate_rat(f))
        ref = reference_add(reference_mul(pot, f), reference_scale(fpp, -1))
        assert same_value(hf, ref), (t, i)


def with_type_iii(max_size, max_index):
    """Tuples of at most max_size distinct states, one of them of type III,
    indices at most max_index."""
    state = st.builds(State, st.sampled_from(list(StateType)), st.integers(0, max_index))
    return st.tuples(st.lists(state, max_size=max_size - 1),
                     st.integers(0, max_index)).map(lambda d: as_state_tuple(
                         dict.fromkeys(d[0] + [State(StateType.III, d[1])])))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(no_shrink, max_examples=12)
@given(with_type_iii(3, 2), st.tuples(rationals, rationals).filter(lambda p: is_generic(*p)))
def test_extra_states_through_the_quotient_route_at_points(t, pt):
    check_extra_states(t, pt)


@settings(no_shrink, max_examples=6)
@given(with_type_iii(2, 1))
def test_extra_states_through_the_quotient_route_symbolically(t):
    check_extra_states(t, None)


# -- the packed eigen identity's slot width ----------------------------------


def packed_decision(monkeypatch, w, y, e, pt):
    """(flag, width): _eigen_identity's decision and the one slot width in
    which algebra._pack_columns packs its seven columns."""
    layouts = []

    def recorded(cols, terms, _orig=spectral._pack_columns):
        packed, layout = _orig(cols, terms)
        assert len(packed) == len(cols) == 7
        layouts.append(layout)
        return packed, layout

    monkeypatch.setattr(spectral, "_pack_columns", recorded)
    try:
        flag = spectral._eigen_identity(w, y, e, pt)
    finally:
        monkeypatch.undo()
    assert len(layouts) == 1, layouts
    return flag, layouts[0][0]


def largest_coefficient(n):
    """The largest |coefficient| of an EtaPoly of ints or int ParamPolys,
    over eta, g and h."""
    return max((abs(v) for c in n.coeffs
                for v in (c.terms.values() if isinstance(c, ParamPoly) else (c,))), default=0)


def check_width(monkeypatch, t, inst):
    checked = 0
    for s in eigen_levels(t):
        pt, w, y = spectral._wronskians(t, s, inst)
        e = _int_eigenvalue(s, pt)
        for energy, holds in ((e, True), (e + 1, False)):
            flag, width = packed_decision(monkeypatch, w, y, energy, pt)
            n = eigen_numerator(w, y, energy, pt)
            assert flag is holds and (not n) is holds, (t, s, energy)
            assert largest_coefficient(n) < 1 << (width - 1), (t, s, energy)
            checked += not holds
    return checked


def test_width_holds_the_left_side_at_points(monkeypatch):
    rng = seeded(71)
    checked = 0
    for k in range(12):
        t = random_tuple(rng, 4, 3, min_size=1)
        pt = GENERIC_POINTS[k % len(GENERIC_POINTS)] if k % 2 else random_generic_point(rng)
        checked += check_width(monkeypatch, t, pt)
    assert checked >= 30


def test_width_holds_the_left_side_symbolically(monkeypatch):
    rng = seeded(72)
    tuples = [random_tuple(rng, 2, 2, min_size=1) for _ in range(6)]
    assert sum(check_width(monkeypatch, t, None) for t in tuples) >= 12


@pytest.mark.parametrize("inst", [None, GENERIC_POINTS[0]])
def test_width_with_an_empty_column(monkeypatch, inst):
    # the extra state of III0 reads y = W[] = 1, whose derivative columns
    # Y1 and Y2 are empty: the terms they enter add nothing to the width
    t = parse_states("III0")
    pt, _, y = spectral._wronskians(t, t[0], inst)
    assert _state_column(y, pt[2], 3)[1][1:] == [[], []]
    assert check_width(monkeypatch, t, inst) == 4  # E_-1, E_0, E_1, E_2 at E + 1
