"""Property tests: a symbolic Wronskian instantiates to the Wronskian at the
point, the integer states are the cleared Jacobi states, the integer core
over its scale is the Wronskian and its symbolic form instantiates to the
core at a point, the symbolic states built at a Kronecker point are the
packed ParamPoly states in the width rule's slots and the provisional
slots hold every digit of their Jacobi sums, the Wronskian at a point (negative, large-denominator and
shifted ones) matches the instantiated symbolic one and an mpmath
Wronskian of states built without the integer states, the integer root
decision and sturm_count count as the Fraction Sturm chain does, the lazy
Wronskian determinant equals the explicit derivative
matrix's determinant (by Bareiss at a point, by the Leibniz sum in symbolic
mode) and each edge-stripped minor it forms is its explicit minor's core,
the edge exponents of W[T] have their closed form, the column bounds of the
symbolic packing hold for every entry of
that matrix, Wronskians have the closed-form degree and leading
coefficient, the symbolic move constants read off those closed-form factors
equal the gcd-reduced ones, each division move steps the ledger as its case
in the four-case table says and the opposite move undoes it, a Wronskian built at shifted parameters equals
the shifted Wronskian (shift_quasi), the mirror x -> pi/2 - x maps W[T] to
W[T'] with I and II exchanged at (h, g), public results hold Fractions even though the
integer pipeline computes on ints, the packed EtaPoly product equals the
schoolbook one, the integer eigen identity decides as its Fraction form
does, and equal values hash equal.

Symbolic properties run without hypothesis's shrink phase (no_shrink): a
symbolic counterexample can be a huge polynomial, and shrinking it would
take minutes where reporting the first failing example takes seconds."""

import sys
from collections import Counter
from fractions import Fraction as F
from math import comb, factorial

import mpmath as mp
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

import mijacobi.maya as maya  # noqa: E402
from mijacobi.algebra import (  # noqa: E402
    AffineExp,
    EtaPoly,
    ParamPoly,
    ParamRat,
    extract_edge_factors,
    _clear,
    _factored_ratio,
    _linear,
    _root_free,
    sturm_count,
)
from mijacobi.maya import verify_move_identity, verify_reduction  # noqa: E402
from mijacobi.spectral import QuasiRat  # noqa: E402
from mijacobi.states import (  # noqa: E402
    QuasiPoly,
    State,
    StateType,
    as_state_tuple,
    eigenvalue,
    is_generic,
    jacobi_poly,
    make_state,
    _int_state,
    _params,
    _quasi,
    _value,
)
from mijacobi.wronskian import (  # noqa: E402
    WronskianZeroError,
    _bordered_wronskians,
    _column_bounds,
    _columns,
    _core,
    _int_quasis,
    _tuple_wronskians,
    _unpacked,
    det_poly_matrix,
    shift_quasi,
    wronskian,
)
from helpers import (  # noqa: E402
    _matrix,
    column_norms,
    exact_slots,
    int_wronskian,
    pack_columns,
    packed,
    fraction_sturm_count,
    lazy_det,
    coefficient_terms,
    eigen_identity,
    eigen_identity_reference,
    holds_fractions,
    leibniz_det,
    numerator_wronskian,
    numeric_wronskian,
    quasi_value,
    schoolbook_mul,
    wronskian_of_quasis,
)

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=25)
no_shrink = settings(derandomized, phases=[Phase.explicit, Phase.generate])

states = st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 2))
tuples = st.lists(states, min_size=1, max_size=3, unique=True)


def sized_tuples(max_size, max_index):
    """Tuples of 1..max_size distinct states of index at most max_index, the
    size drawn uniformly."""
    return st.integers(1, max_size).flatmap(lambda n: st.lists(
        st.builds(State, st.sampled_from(list(StateType)), st.integers(0, max_index)),
        min_size=n, max_size=n, unique=True))


rationals = st.builds(F, st.integers(11, 80), st.sampled_from([3, 5, 6, 7, 10, 11, 12]))
points = st.tuples(rationals, rationals).filter(lambda p: is_generic(*p))
# (g + dg, h + dh), where every move identity builds its right side
shifts = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(
    lambda d: (AffineExp(1, 0, d[0]), AffineExp(0, 1, d[1])))
# Jacobi parameters: ints, Fractions and (g, h)-polynomials with int or
# Fraction constants, the mixes where int-preserving arithmetic could leak
params = st.sampled_from([2, F(-3, 2), G, G + 1, G - F(1, 2), H * 2 - 3, G + H])


@no_shrink
@given(tuples, points)
def test_symbolic_wronskian_instantiates_to_point_wronskian(t, pt):
    sym, at = wronskian(t), wronskian(t, inst=pt)
    assert at.poly == sym.poly.instantiate(*pt)
    assert at.expS == AffineExp.const(sym.expS.as_parampoly().eval_at(*pt))
    assert at.expC == AffineExp.const(sym.expC.as_parampoly().eval_at(*pt))


# -- the integer pipeline: states, cores and the packed edge step --------------

# single-family tuples have the most edge factors: k- + k+ = n(n-1)
same_family = st.sampled_from(list(StateType)).flatmap(lambda ty: st.lists(
    st.integers(0, 3), min_size=1, max_size=4, unique=True).map(
        lambda vs: [State(ty, v) for v in vs]))


@no_shrink
@given(states, st.none() | shifts | points)
def test_int_state_is_the_cleared_jacobi_state(s, inst):
    # p/d is make_state's polynomial, and (p, d) is what clearing the public
    # Jacobi polynomial's Fractions gives: lowest terms, today's integers;
    # the exponents over Q are a = g or 1 - g and b = h or 1 - h
    pt = _params(inst)
    w, d = _quasi(_int_state(s, pt), pt[2])
    p = list(w.poly.coeffs)
    q = make_state(s, inst)
    if inst is None:
        g, h = AffineExp(1, 0), AffineExp(0, 1)
    else:
        g, h = (x if isinstance(x, AffineExp) else AffineExp.const(x) for x in inst)
    sg, sh = s.type.signs
    a, b = (g if sg > 0 else 1 - g), (h if sh > 0 else 1 - h)
    ref = jacobi_poly(s.v, _value(a) - F(1, 2), _value(b) - F(1, 2))
    assert (a, b) == (w.expS, w.expC) == (q.expS, q.expC)
    assert EtaPoly(p).scale(F(1, d)) == q.poly == ref
    assert (p, d) == tuple(_clear(ref.coeffs))
    assert all(type(v) is int for v in coefficient_terms(EtaPoly(p)))


@no_shrink
@given(tuples | same_family, st.none() | shifts | points)
def test_int_wronskian_core_over_scale_is_the_wronskian(t, inst):
    pt = _params(inst)
    [w] = _tuple_wronskians(t, pt, len(t))
    w, scale = _quasi(_unpacked(w), pt[2])
    assert type(scale) is int and scale > 0
    assert all(type(v) is int for v in coefficient_terms(w.poly))
    assert w.scale_poly(F(1, scale)) == wronskian_of_quasis([make_state(s, inst) for s in t])


@settings(no_shrink, max_examples=30)
@given(tuples | same_family, points)
# single high-index states and five states: the longest edge steps, in the
# widest slots
@example([State(StateType.I, 12)], (F(37, 10), F(52, 7)))
@example([State(StateType.II, 15)], (F(52, 7), F(37, 10)))
@example(list(as_state_tuple("I2,II0,II2,III4,N4")), (F(37, 10), F(52, 7)))
def test_symbolic_core_instantiates_to_point_core(t, pt):
    # the point route never packs, so it checks the edge factors that the
    # symbolic route takes off packed ints in the kernel's own slots
    sym, s_sym = _quasi(int_wronskian([_int_state(s, _params(None)) for s in t], 1), 1)
    q = _params(pt)[2]
    [at] = _bordered_wronskians([_int_state(s, _params(pt)) for s in t], q, len(t))
    at, s_at = _quasi(at, q)
    assert sym.poly.instantiate(*pt).scale(F(s_at, s_sym)) == at.poly
    assert at.expS == AffineExp.const(sym.expS.as_parampoly().eval_at(*pt))
    assert at.expC == AffineExp.const(sym.expC.as_parampoly().eval_at(*pt))


# -- symbolic states as integers at a Kronecker point -------------------------


class _Stop(Exception):
    """Ends a Wronskian once its integer states are built."""


def kronecker_states(t, pt):
    """(states, slots): the integer states and the slots with which
    _tuple_wronskians at the symbols pt reaches _bordered_wronskians, not
    run."""
    module, seen = sys.modules["mijacobi.wronskian"], []
    rule = module._slots

    def halt(states, q, stop):
        seen.append(states)
        raise _Stop
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "_slots", lambda cols, big: seen.append(rule(cols, big)) or seen[-1])
        m.setattr(module, "_bordered_wronskians", halt)
        with pytest.raises(_Stop):
            _tuple_wronskians(t, pt, len(t))
    return seen[1], seen[0]


@settings(no_shrink, max_examples=30)
@given(st.lists(st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 4)),
                min_size=1, max_size=5, unique=True), st.integers(-4, 4), st.integers(-4, 4))
def test_kronecker_states_are_the_packed_dict_states(t, dg, dh):
    # the oracle is the ParamPoly route of _jacobi_sum that jacobi_poly keeps:
    # _int_state at the symbols (g + dg, h + dh), packed in the slots of the
    # width rule on the exact l1 norms of its columns
    pt = _params((AffineExp(1, 0, dg), AffineExp(0, 1, dh)))
    oracle = [_int_state(s, pt) for s in t]
    states, slots = kronecker_states(t, pt)
    big, cols = _columns(oracle, 1)
    assert slots == exact_slots(cols, big)
    assert states == [(packed(a, slots), packed(b, slots), [packed(c, slots) for c in p], d)
                      for a, b, p, d in oracle]


@settings(no_shrink, max_examples=8)
@given(st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 40)),
       st.integers(-4, 4), st.integers(-4, 4))
@example(State(StateType.III, 40), -4, 4)
def test_provisional_slots_hold_every_digit(s, dg, dh):
    # the provisional point of states._sum_norms: every integer coefficient
    # of the undivided Jacobi sum, by the ParamPoly route, lies below
    # 2^(width-2) and its g-degree below lg, and the exponents, content, l1
    # norms and g-degree read off the digits are the oracle's
    module, seen = sys.modules["mijacobi.states"], []
    point = module._kronecker_sum
    pt = _params((AffineExp(1, 0, dg), AffineExp(0, 1, dh)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "_kronecker_sum", lambda s, sym, width, lg:
                  seen.append((width, lg)) or point(s, sym, width, lg))
        a, b, x, deg, k = module._sum_norms(s, module._symbols(pt))
    [(width, lg)] = seen
    ea, eb, p, d = _int_state(s, pt)
    assert k * d == 4 ** s.v * factorial(s.v)  # the sum's divisor, d^n n! 2^n at d = 2
    assert max(abs(v) * k for c in p for v in c.terms.values()) < 1 << (width - 2)
    assert max(i for c in p for i, _ in c.terms) == deg < lg
    assert x == [sum(map(abs, c.terms.values())) for c in p]
    assert (_linear(*a), _linear(*b)) == (ea, eb)


# -- the integer point against oracles that build no integer state ------------

# Points the integer point (G, H, Q) must carry exactly: a negative g, unequal
# and large denominators, and each shifted by (dg, dh) as the move identities
# shift their right sides; generic after the shift.
signed_rationals = st.builds(F, st.integers(-80, 80), st.sampled_from([1, 2, 3, 7, 12, 999]))
int_points = st.tuples(
    st.sampled_from([(F(-7, 3), F(52, 7)), (F(1000003, 999), F(52, 7)), (F(52, 7), F(-7, 3))])
    | st.tuples(signed_rationals, signed_rationals),
    st.integers(-6, 6), st.integers(-6, 6),
).map(lambda x: (x[0][0] + x[1], x[0][1] + x[2])).filter(lambda p: is_generic(*p))


def jacobi_quasi(s, g, h):
    """The state s at the rational point (g, h) from the public jacobi_poly,
    with a = g or 1 - g and b = h or 1 - h written out: no integer state."""
    sg, sh = s.type.signs
    a, b = (g if sg > 0 else 1 - g), (h if sh > 0 else 1 - h)
    return QuasiPoly(AffineExp.const(a), AffineExp.const(b),
                     jacobi_poly(s.v, a - F(1, 2), b - F(1, 2)))


@settings(derandomized, max_examples=40)
@given(st.lists(states, min_size=1, max_size=6, unique=True), int_points, st.booleans())
def test_point_wronskian_matches_oracles_without_int_state(t, pt, as_affine):
    # the point given as Fractions or as constant AffineExps (g + dg, h + dh)
    w = wronskian(t, tuple(map(AffineExp.const, pt)) if as_affine else pt)
    assert holds_fractions(w.expS.c0) and all(map(holds_fractions, w.poly.coeffs))
    if len(t) <= 3:
        sym = wronskian(t)
        assert w.poly == sym.poly.instantiate(*pt)
        assert w.expS == AffineExp.const(sym.expS.as_parampoly().eval_at(*pt))
        assert w.expC == AffineExp.const(sym.expC.as_parampoly().eval_at(*pt))
    # mpmath's det takes entries below its norm times eps for zero, so the
    # precision must span sin(x0)^g for g near 1000
    quasis = [jacobi_quasi(s, *pt) for s in t]
    with mp.workprec(2000):
        for x0 in (mp.mpf("0.7"), mp.mpf("1.1")):
            direct, value = numeric_wronskian(quasis, x0), quasi_value(w, x0)
            assert abs(direct - value) <= abs(value) * mp.mpf(10) ** -40, (t, pt, x0)


# -- the root decision against the Fraction Sturm chain ------------------------

# roots at and near the ends of (-1, 1), at +-1/2 and elsewhere; a list may
# repeat a root, and the cofactor is dense of degree 0-2, so degrees 0 and 1
# occur, or lacunary, c0 + c1 eta^m + c2 eta^(m+k), whose Sturm chains skip
# degrees (where a pseudo-remainder's sign needs correcting)
near_ends = st.integers(2, 10 ** 6).flatmap(lambda k: st.sampled_from(
    [1 - F(1, k), F(1, k) - 1, 1 + F(1, k), -1 - F(1, k)]))
roots = (st.sampled_from([F(1, 2), F(-1, 2), F(1), F(-1), F(0)]) | near_ends
         | st.builds(F, st.integers(-30, 30), st.integers(1, 12)))


@st.composite
def root_polys(draw):
    rs = draw(st.lists(roots, max_size=5))
    if rs:
        rs += draw(st.lists(st.sampled_from(rs), max_size=2))  # double roots
    if draw(st.booleans()):
        c0, c1 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        top = draw(st.sampled_from([-2, -1, 1, 2]))
        cofactor = [c0] + [0] * (m - 1) + [c1] + [0] * (k - 1) + [top]
    else:
        cofactor = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any))
    p = EtaPoly([F(c) for c in cofactor])
    for r in rs:
        p = p * EtaPoly((-r, F(1)))
    return p


@settings(derandomized, max_examples=200)
@given(root_polys(), roots, roots)
@example(EtaPoly((F(5),)), F(-1), F(1))
@example(EtaPoly((F(-3), F(7))), F(-1, 2), F(1, 2))
@example(EtaPoly((F(1, 4), F(-1), F(1))), F(-1), F(1))  # (eta - 1/2)^2
@example(EtaPoly((F(0), F(1), F(0), F(0), F(1))), F(-2), F(1, 2))  # eta^4 + eta
def test_root_decision_matches_fraction_sturm(p, lo, hi):
    ns, _ = _clear(p.coeffs)
    assert _root_free(ns) is (fraction_sturm_count(p, F(-1), F(1)) == 0)
    for a, b in ((F(-1), F(1)), (F(-1, 2), F(1, 2)), tuple(sorted((lo, hi)))):
        if a < b:
            assert sturm_count(p, a, b) == fraction_sturm_count(p, a, b), (p, a, b)


# -- the lazy Wronskian determinant and the closed form ------------------------


@st.composite
def wronskian_inputs(draw, max_size, insts):
    """(quasis, zero): at most max_size quasi-polynomials of distinct states
    at parameters drawn from insts (see make_state), in drawn order or in
    descending eta-degree, possibly with a duplicate or a zero polynomial
    inserted, which makes the Wronskian zero.  The size is drawn uniformly,
    so large tuples are as common as small ones."""
    inst = draw(insts)
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
    big, cols = _columns(*_int_quasis(qs))
    det = lazy_det(cols, big)
    assert det == reference(_matrix(cols, big))
    assert all(type(v) is int for v in coefficient_terms(det))
    assert bool(det) is not zero
    if zero:
        with pytest.raises(WronskianZeroError):
            wronskian_of_quasis(qs)


@settings(derandomized, max_examples=100)
@given(wronskian_inputs(8, points))
def test_lazy_det_matches_bareiss_at_a_point(inputs):
    check_lazy_det(*inputs, det_poly_matrix)


@settings(no_shrink, max_examples=30)
@given(wronskian_inputs(4, st.none()))
def test_lazy_det_matches_leibniz_symbolically(inputs):
    check_lazy_det(*inputs, leibniz_det)


@settings(no_shrink, max_examples=20)
@given(sized_tuples(4, 3))
def test_every_stripped_minor_is_its_explicit_minors_core(t):
    # symbolically the kernel's edge splits test packed ints in the slots of
    # the width rule, once per minor it forms, det(rows 0..k; columns 0..k-1,
    # j): each core left must be that of the minor itself, by the Leibniz sum
    # over (g, h)-polynomials (no packing), and the powers split off at most
    # the minor's own, so that every value tested is a minor over edge factors
    big, cols = _columns(*_int_quasis([make_state(s) for s in t]))
    cols.sort(key=lambda col: len(col[0]))  # the kernel's column order
    packed_cols, slots = pack_columns(cols, big)
    module, seen = sys.modules["mijacobi.wronskian"], []
    split = module._edge_split
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "_edge_split", lambda cs: seen.append(split(cs)) or seen[-1])
        module._lazy_det(packed_cols, big, len(cols))
    n, mat = len(cols), _matrix(cols, big)
    minors = [(0, j) for j in range(n)] + [(k, j) for k in range(1, n) for j in range(k, n)]
    assert len(seen) == len(minors)
    for (k, j), (a, b, core) in zip(minors, seen):
        k_minus, k_plus, want = extract_edge_factors(
            leibniz_det([[row[c] for c in (*range(k), j)] for row in mat[:k + 1]]))
        assert EtaPoly(_core(core, slots)) == want
        assert a <= k_minus and b <= k_plus


def closed_form_edges(t):
    """(k_minus, k_plus) of W[t] in closed form.  States sharing a sin
    exponent (g for N and I, 1 - g for II and III) span functions of
    x-valuations a, a + 2, ... at x = 0, m of them C(m, 2) factors of sin^2 x
    beyond the exponents' sum less n(n-1)/2; likewise at x = pi/2 for the
    cos exponents (h for N and II, 1 - h for I and III)."""
    m = Counter(s.type for s in t)
    return (comb(m[StateType.N] + m[StateType.I], 2) + comb(m[StateType.II] + m[StateType.III], 2),
            comb(m[StateType.N] + m[StateType.II], 2) + comb(m[StateType.I] + m[StateType.III], 2))


def wronskian_edges(t, inst):
    """(k_minus, k_plus) of the public W[t] at inst, read off its exponents:
    those of its states less n(n-1)/2, plus 2 per edge factor."""
    qs, w = [make_state(s, inst) for s in t], wronskian(t, inst)
    off = comb(len(t), 2)
    ks = [getattr(w, e) - sum((getattr(q, e) for q in qs), AffineExp()) + off
          for e in ("expS", "expC")]
    assert all(k.is_constant and k.c0.denominator == 1 and k.c0 % 2 == 0 for k in ks)
    return tuple(int(k.c0) // 2 for k in ks)


@settings(derandomized, max_examples=60)
@given(sized_tuples(5, 4), points)
def test_edge_exponents_at_least_closed_form_at_a_point(t, pt):
    got, want = wronskian_edges(t, pt), closed_form_edges(t)
    assert got[0] >= want[0] and got[1] >= want[1]


@settings(no_shrink, max_examples=20)
@given(sized_tuples(4, 4))
@example([State(StateType.N, 0), State(StateType.N, 1), State(StateType.I, 1),
          State(StateType.II, 0), State(StateType.III, 2)])
def test_edge_exponents_have_the_closed_form_symbolically(t):
    assert wronskian_edges(t, None) == closed_form_edges(t)


@settings(no_shrink, max_examples=30)
@given(wronskian_inputs(5, st.none() | shifts))
def test_column_bounds_hold_for_every_entry(inputs):
    # entry (i, j) has g-degree at most deg_j + i (deg_j exact at i = 0) and
    # l1 norm at most norms_j[i]: the bounds the symbolic packing rests on
    big, cols = _columns(*_int_quasis(inputs[0]))
    mat = _matrix(cols, big)
    for j, (p, _, c0, c1) in enumerate(cols):
        x, deg, a0, r1, k1 = column_norms(p, c0, c1)
        norms = _column_bounds(x, a0, r1, k1, len(cols), big)
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
        assert type(r) is F and r == F(la, lb)


# shift_quasi, substituting into the finished Wronskian, is the oracle of the
# Wronskian built at the shifted symbols, as the move identities build it
@settings(no_shrink, max_examples=20)
@given(st.lists(states, min_size=1, max_size=4, unique=True),
       st.integers(-3, 3), st.integers(-3, 3))
def test_wronskian_at_shifted_symbols_matches_shift_quasi(t, dg, dh):
    w = wronskian(t, (AffineExp(1, 0, dg), AffineExp(0, 1, dh)))
    assert w == shift_quasi(wronskian(t), dg, dh)


def mirrored(t, inst):
    """W[T] from the mirror x -> pi/2 - x: W[T'](h, g; -eta) with its sin and
    cos exponents exchanged, times (-1)^(sum v + n(n-1)/2), for T' the tuple
    T in its order with I and II exchanged.  The mirror swaps sin and cos
    and sends eta to -eta; it negates every derivative, so row i of the
    derivative matrix changes sign i times, and it sends each state of T at
    (g, h) to the matching state of T' at (h, g) times (-1)^v, as
    P_v^(alpha, beta)(-eta) = (-1)^v P_v^(beta, alpha)(eta)."""
    flip = {StateType.I: StateType.II, StateType.II: StateType.I}
    n = len(t)
    sign = (-1) ** (sum(s.v for s in t) + n * (n - 1) // 2)
    w = wronskian([State(flip.get(s.type, s.type), s.v) for s in t],
                  None if inst is None else inst[::-1])

    def swap(c):
        return c if type(c) is not ParamPoly else ParamPoly(
            {(j, i): v for (i, j), v in c.terms.items()})
    return QuasiPoly(*(AffineExp(e.ch, e.cg, e.c0) for e in (w.expC, w.expS)),
                     EtaPoly(tuple(swap(c) * (sign * (-1) ** k)
                                   for k, c in enumerate(w.poly.coeffs))))


@settings(no_shrink, max_examples=40)
@given(st.lists(st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 3)),
                min_size=0, max_size=4, unique=True))
@example([])
def test_mirror_symbolically(t):
    assert wronskian(t) == mirrored(t, None)


@settings(derandomized, max_examples=60)
@given(st.lists(st.builds(State, st.sampled_from(list(StateType)), st.integers(0, 4)),
                min_size=0, max_size=5, unique=True), points)
def test_mirror_at_a_point(t, pt):
    assert wronskian(t, pt) == mirrored(t, pt)


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


# One move of each (which, direction): its (dg, dh) step and its (prefS,
# prefC) increment at the pre-move shifted parameters g' = g + dg, h' = h + dh
MOVE_CASES = {
    ("second", "left"): ((-1, 1), lambda g1, h1: (1 - g1, h1)),
    ("second", "right"): ((1, -1), lambda g1, h1: (g1, 1 - h1)),
    ("first", "left"): ((-1, -1), lambda g1, h1: (1 - g1, 1 - h1)),
    ("first", "right"): ((1, 1), lambda g1, h1: (g1, h1)),
}
moves = st.sampled_from(sorted(MOVE_CASES))


@settings(derandomized, max_examples=100)
@given(st.lists(states, max_size=4, unique=True), st.lists(moves, min_size=1, max_size=6),
       moves)
def test_move_matches_the_case_table_and_its_opposite_undoes_it(t, chain, move):
    pair = maya.tuple_to_diagrams(as_state_tuple(t))
    for which, direction in chain:  # a used ledger, not a fresh one
        pair = maya.move_division(pair, which, direction)
    which, direction = move
    moved = maya.move_division(pair, which, direction)
    (dg, dh), increments = MOVE_CASES[move]
    before, after = pair.ledger, moved.ledger
    assert (after.dg - before.dg, after.dh - before.dh) == (dg, dh)
    assert (after.prefS - before.prefS, after.prefC - before.prefC) == increments(
        AffineExp(1, 0, before.dg), AffineExp(0, 1, before.dh))
    opposite = "right" if direction == "left" else "left"
    assert maya.move_division(moved, which, opposite) == pair


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
            assert eigen_identity(wt, y, energy, pt) is holds, (t, energy)
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
