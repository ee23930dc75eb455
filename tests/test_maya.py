"""Maya encoding, division moves, ledgers, and reductions."""

import sys
from fractions import Fraction as F

import pytest

import mijacobi.algebra as algebra
import mijacobi.maya as maya
from mijacobi.algebra import AffineExp, ParamRat
from mijacobi.cli import main, paramrat_json
from mijacobi.maya import (
    Ledger,
    MayaDiagram,
    ReductionTarget,
    canonical_form,
    dbar,
    diagrams_to_tuple,
    move_division,
    reduce_tuple,
    render_diagram,
    tuple_to_diagrams,
    verify_move_identity,
    verify_reduction,
    _lc_factors,
)
from mijacobi.spectral import check_nonsingular
from mijacobi.states import NonGenericParametersError, StateTuple, as_state_tuple
from mijacobi.wronskian import shift_quasi, wronskian
from helpers import (
    GENERIC_POINTS,
    closed_form_ledger,
    closed_form_tuple,
    parse_states,
    random_tuple,
    seeded,
)


class TestEncoding:
    def test_intro_example(self):
        pair = tuple_to_diagrams(parse_states("I1,II2,III1"))
        assert pair.first.left_white == (1,) and pair.first.right_black == ()
        assert pair.second.left_white == (2,) and pair.second.right_black == (1,)
        assert pair.ledger.is_fresh()

    def test_seven_state_example(self):
        pair = tuple_to_diagrams(parse_states("I2,I3,II0,II2,III3,N0,N1"))
        assert pair.first.left_white == (3,) and pair.first.right_black == (0, 1)
        assert pair.second.left_white == (0, 2) and pair.second.right_black == (2, 3)

    def test_vacuum(self):
        pair = tuple_to_diagrams(StateTuple())
        for d in (pair.first, pair.second):
            assert d.left_white == () and d.right_black == ()

    def test_round_trip_examples(self):
        for spec in ("I1,II2,III1", "I2,I3,II0,II2,III3,N0,N1", ""):
            t = parse_states(spec)
            assert diagrams_to_tuple(tuple_to_diagrams(t)) == t.sorted()

    def test_round_trip_random(self):
        rng = seeded(31)
        for _ in range(50):
            t = random_tuple(rng, 7, 8)
            assert diagrams_to_tuple(tuple_to_diagrams(t)) == t

    def test_invalid_positions_rejected(self):
        with pytest.raises(ValueError):
            MayaDiagram((-1,), ())
        with pytest.raises(ValueError):
            MayaDiagram((1, 1), ())


class TestMoves:
    def test_second_left_consumes_index_zero(self):
        pair = tuple_to_diagrams(parse_states("I2,I3,II0,II2,III3,N0,N1"))
        moved = move_division(pair, "second", "left")
        assert diagrams_to_tuple(moved) == parse_states("I3,I4,II1,III3,N0,N1")

    def test_second_left_intro(self):
        pair = tuple_to_diagrams(parse_states("I1,II2,III1"))
        moved = move_division(pair, "second", "left")
        assert diagrams_to_tuple(moved) == parse_states("I0,I2,II1,III1")
        led = moved.ledger
        assert (led.dg, led.dh) == (-1, 1)
        assert led.prefS == AffineExp(-1, 0, 1)  # 1 - g
        assert led.prefC == AffineExp(0, 1, 0)   # h

    def test_second_left_on_vacuum(self):
        pair = move_division(tuple_to_diagrams(StateTuple()), "second", "left")
        assert diagrams_to_tuple(pair) == parse_states("I0")
        assert (pair.ledger.dg, pair.ledger.dh) == (-1, 1)
        rep = verify_move_identity(StateTuple(), "second", "left")
        assert rep.proportional and rep.constant == 1

    def test_left_then_right_restores_everything(self):
        rng = seeded(32)
        for _ in range(30):
            t = random_tuple(rng, 5, 5)
            pair = tuple_to_diagrams(t)
            for which in ("first", "second"):
                for d1, d2 in (("left", "right"), ("right", "left")):
                    back = move_division(move_division(pair, which, d1), which, d2)
                    assert back == pair

    def test_ledger_gives_division_positions(self):
        # the first division sits at (dg + dh)/2 and the second at (dg - dh)/2
        pair = tuple_to_diagrams(parse_states("N0"))
        moved = move_division(pair, "first", "right")
        assert (moved.ledger.dg, moved.ledger.dh) == (1, 1)
        rng = seeded(34)
        for _ in range(20):
            pair, pos = tuple_to_diagrams(random_tuple(rng, 4, 4)), {"first": 0, "second": 0}
            for _ in range(8):
                which, direction = rng.choice(["first", "second"]), rng.choice(["left", "right"])
                pair = move_division(pair, which, direction)
                pos[which] += 1 if direction == "right" else -1
                dg, dh = pair.ledger.dg, pair.ledger.dh
                assert (pos["first"], pos["second"]) == ((dg + dh) // 2, (dg - dh) // 2)
                assert (dg + dh) % 2 == 0


class TestDbar:
    def test_examples(self):
        assert dbar([0, 2]) == [1]
        assert dbar([3]) == [1, 2, 3]
        assert dbar([0, 1, 2, 3]) == []
        assert dbar([]) == []

    def test_size_formula(self):
        rng = seeded(33)
        for _ in range(40):
            idx = sorted(rng.sample(range(10), rng.randint(1, 6)))
            got = dbar(idx)
            assert len(got) == idx[-1] + 1 - len(idx)


class TestReduce:
    def test_intro_reduction(self):
        red, led = reduce_tuple(parse_states("I1,II2,III1"), "IN")
        assert red == parse_states("I1,I2,I4,N1")
        assert (led.dg, led.dh) == (-5, 1)
        assert led.prefS == AffineExp(-5, 0, 15)
        assert led.prefC == AffineExp(0, 1, 0)

    def test_theorem_example(self):
        red, led = reduce_tuple(parse_states("I2,I3,II0,II2,III3,N0,N1"), "IN")
        assert red == parse_states("I1,I5,I6,N1,N2,N3,N4,N5")
        assert (led.dg, led.dh) == (-7, -1)
        assert led.prefS == AffineExp(-7, 0, 28)
        assert led.prefC == AffineExp(0, -1, 1)

    def test_empty_tuple_any_target(self):
        for target in ReductionTarget:
            red, led = reduce_tuple(StateTuple(), target)
            assert red == StateTuple() and led.is_fresh()
            # W[()] = 1 on both sides: a constant leading coefficient in
            # symbolic mode too
            for inst, mode in ((None, "symbolic"), (GENERIC_POINTS[0], "instantiated")):
                rep = verify_reduction(StateTuple(), target, instantiate=inst)
                assert rep.proportional and rep.constant == 1 and rep.mode == mode

    def test_already_reduced_is_fixed_point(self):
        t = parse_states("I1,I2,N0,N3")
        red, led = reduce_tuple(t, "IN")
        assert red == t and led.is_fresh()

    def test_single_bound_state_to_type_iii_form(self):
        # W[N0] = s^g c^h exactly, so the (I,III) reduction of (N0) must give
        # the empty tuple with shift (+1,+1) and prefactors exactly (g, h)
        red, led = reduce_tuple(parse_states("N0"), "I3")
        assert red == StateTuple()
        assert (led.dg, led.dh) == (1, 1)
        assert led.prefS == AffineExp(1, 0, 0)
        assert led.prefC == AffineExp(0, 1, 0)
        rep = verify_reduction(parse_states("N0"), "I3")
        assert rep.proportional and rep.constant == 1

    def test_closed_forms_random(self):
        rng = seeded(34)
        for _ in range(80):
            t = random_tuple(rng, 6, 6)
            for target in ("IN", "I3", "2N", "23"):
                red, led = reduce_tuple(t, target)
                dg, dh, gs, hc = closed_form_ledger(t, target)
                assert (led.dg, led.dh) == (dg, dh)
                assert led.prefS == gs and led.prefC == hc
                assert red == closed_form_tuple(t, target)

    def test_order_independence_intro(self):
        # the two extreme interleavings of 3 second-left + 2 first-left moves
        t = parse_states("I1,II2,III1")
        orders = ["SSSFF", "FFSSS", "SFSFS", "FSSFS"]
        results = []
        for order in orders:
            pair = tuple_to_diagrams(t)
            for ch in order:
                pair = move_division(pair, "second" if ch == "S" else "first", "left")
            results.append((diagrams_to_tuple(pair), pair.ledger))
        for r in results[1:]:
            assert r == results[0]
        assert results[0][1].prefS == AffineExp(-5, 0, 15)
        assert results[0][1].prefC == AffineExp(0, 1, 0)

    def test_order_independence_random(self):
        rng = seeded(35)
        for _ in range(40):
            t = random_tuple(rng, 6, 5)
            target = rng.choice(["IN", "I3", "2N", "23"])
            red, led = reduce_tuple(t, target)
            # rebuild the same multiset of moves, shuffled
            tt = t
            moves = []
            second_dir = "left" if target in ("IN", "I3") else "right"
            first_dir = "left" if target in ("IN", "2N") else "right"
            from mijacobi.states import StateType
            gone2 = tt.indices(StateType.II if second_dir == "left" else StateType.I)
            gone1 = tt.indices(StateType.III if first_dir == "left" else StateType.N)
            moves += [("second", second_dir)] * ((max(gone2) + 1) if gone2 else 0)
            moves += [("first", first_dir)] * ((max(gone1) + 1) if gone1 else 0)
            rng.shuffle(moves)
            pair = tuple_to_diagrams(t)
            for which, direction in moves:
                pair = move_division(pair, which, direction)
            assert diagrams_to_tuple(pair) == red
            assert pair.ledger == led


class TestVerifyIdentities:
    def test_intro_move_symbolic(self):
        rep = verify_move_identity(parse_states("I1,II2,III1"), "second", "left")
        assert rep.mode == "symbolic"
        assert rep.proportional and rep.constant is not None

    def test_first_left_on_vacuum(self):
        rep = verify_move_identity(StateTuple(), "first", "left")
        assert rep.proportional and rep.constant == 1

    def test_all_move_kinds_on_random_four_state(self):
        rng = seeded(36)
        t = random_tuple(rng, 4, 3, min_size=4)
        for which in ("first", "second"):
            for direction in ("left", "right"):
                rep = verify_move_identity(t, which, direction,
                                           instantiate=GENERIC_POINTS[0])
                assert rep.proportional, (t, which, direction)

    def test_ledger_soundness_sample(self):
        # random single moves on tuples of <= 5 states, indices <= 5:
        # symbolically when small, else at 3 generic instantiations
        rng = seeded(37)
        for _ in range(12):
            t = random_tuple(rng, 5, 5)
            which = rng.choice(["first", "second"])
            direction = rng.choice(["left", "right"])
            if len(t) <= 2:
                rep = verify_move_identity(t, which, direction)
                assert rep.proportional, (t, which, direction)
            else:
                for pt in GENERIC_POINTS[:3]:
                    rep = verify_move_identity(t, which, direction, instantiate=pt)
                    assert rep.proportional, (t, which, direction, pt)

    def test_non_generic_point_rejected(self):
        with pytest.raises(NonGenericParametersError):
            verify_move_identity(parse_states("I1,II2,III1,N0,N1,N2"),
                                 "second", "left", instantiate=(F(3, 2), F(5, 7)))

    def test_float_point_rejected(self):
        # a float would be converted to the binary fraction nearest it
        t = parse_states("I1,II2,III1")
        with pytest.raises(TypeError):
            wronskian(t, inst=(0.1, 0.3))
        with pytest.raises(TypeError):
            verify_reduction(t, "IN", instantiate=(3.7, 7.4))
        with pytest.raises(TypeError):
            check_nonsingular(t, 3.7, F(52, 7))

    def test_point_reported_as_used(self):
        rep = verify_reduction(parse_states("I1,II2,III1"), "IN",
                               instantiate=(4, F(52, 7)))
        assert rep.proportional and rep.point == (F(4), F(52, 7))
        assert all(type(v) is F for v in rep.point)


def move_constant_inputs(t, which, direction):
    """(la, lb, a_factors, b_factors) of a symbolic move identity, as
    _check_ledger_identity passes them to _factored_ratio."""
    t = as_state_tuple(t)
    pair = move_division(tuple_to_diagrams(t), which, direction)
    after, led = diagrams_to_tuple(pair), pair.ledger
    lb = shift_quasi(wronskian(after), led.dg, led.dh).poly.lc
    return (wronskian(t).poly.lc, lb, _lc_factors(t),
            _lc_factors(after, led.dg, led.dh))


def _first_nonconstant(factors):
    return next(i for i, (cg, ch, _) in enumerate(factors) if cg or ch)


def _drop(a, b):
    i = _first_nonconstant(a)
    return a[:i] + a[i + 1:], b


def _repeat(a, b):
    return a + [a[_first_nonconstant(a)]], b


def _shift_constant(a, b):
    i = _first_nonconstant(a)
    cg, ch, c0 = a[i]
    return a[:i] + [(cg, ch, c0 + 1)] + a[i + 1:], b


def _move_across(a, b):
    i = _first_nonconstant(a)
    return a[:i] + a[i + 1:], b + [a[i]]


class TestFactoredConstant:
    """The symbolic constant read off the closed-form factors of both
    leading coefficients, with no gcd."""

    # golden constants of bench/golden/symbolic-move.json, with non-constant
    # denominators
    PINNED = [
        (("II2,III0,III2", "first", "right"),
         {"num": [[0, 0, "1/8"]],
          "den": [[0, 0, "15/2"], [0, 1, "-7"], [0, 2, "-3/2"], [0, 3, "1"],
                  [1, 0, "-10"], [1, 1, "1"], [1, 2, "2"], [2, 0, "5/2"], [2, 1, "1"]]}),
        (("I1,I2,II2", "first", "left"),
         {"num": [[0, 0, "1/8"]],
          "den": [[0, 0, "-245/8"], [0, 1, "21"], [0, 2, "-7/2"], [1, 0, "35/4"],
                  [1, 1, "-6"], [1, 2, "1"]]}),
    ]

    @pytest.mark.parametrize("move, constant", PINNED, ids=["II2,III0,III2", "I1,I2,II2"])
    def test_pinned_constants(self, move, constant):
        rep = verify_move_identity(*move)
        assert rep.mode == "symbolic" and rep.proportional
        assert paramrat_json(rep.constant) == constant

    @pytest.mark.parametrize("corrupt", [_drop, _repeat, _shift_constant, _move_across])
    def test_corrupted_factor_list_raises(self, corrupt, monkeypatch, capsys):
        # _factored_ratio trusts its factor lists: the identity's one packed
        # comparison refuses the constant a corrupted list gives, and the CLI
        # raises that as an identity failure
        t = as_state_tuple("II2,III0,III2")
        _, _, a, b = move_constant_inputs(t, "first", "right")
        for lists, holds in (((a, b), True), (corrupt(a, b), False)):
            monkeypatch.setattr(maya, "_lc_factors",
                                lambda u, dg=0, dh=0, lists=lists: lists[u != t])
            rep = verify_move_identity(t, "first", "right")
            assert rep.mode == "symbolic" and rep.proportional is holds
        assert rep.constant is None
        argv = ["verify-identity", "II2,III0,III2", "--which", "first", "--dir", "right"]
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("identity failure: move identity failed")

    def test_no_gcd_in_symbolic_identities(self, monkeypatch):
        calls = []
        gcd = algebra.parampoly_gcd

        def counting(a, b):
            calls.append(1)
            return gcd(a, b)

        monkeypatch.setattr(algebra, "parampoly_gcd", counting)
        for (t, which, direction), _ in self.PINNED:
            rep = verify_move_identity(t, which, direction)
            assert rep.mode == "symbolic" and not rep.constant.den.is_one
        for target in ReductionTarget:
            rep = verify_reduction("I1,II1,III1", target)
            assert rep.mode == "symbolic" and not rep.constant.den.is_one
        assert calls == []
        la, lb, _, _ = move_constant_inputs(*self.PINNED[0][0])
        ParamRat(la, lb)  # the API's gcd route is what the count would see
        assert calls == [1]


class TestOnePath:
    """Both modes build the right side at the shifted parameters and decide
    with one packed comparison (algebra._products_equal): the oracles that
    shift a finished Wronskian (shift_quasi, ParamPoly.shift) or compare two
    (compare_quasi, proportional) are never called."""

    ORACLES = ("shift_quasi", "compare_quasi", "proportional")

    def count_oracle_calls(self, monkeypatch, names=ORACLES):
        """Call counts of names (the oracles by default) wherever a mijacobi
        module binds them, and of ParamPoly.shift."""
        calls = dict.fromkeys(names + ("ParamPoly.shift",), 0)

        def counting(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        for key, mod in list(sys.modules.items()):
            if key == "mijacobi" or key.startswith("mijacobi."):
                for name in names:
                    if callable(getattr(mod, name, None)):
                        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        monkeypatch.setattr(algebra.ParamPoly, "shift",
                            counting("ParamPoly.shift", algebra.ParamPoly.shift))
        return calls

    def test_symbolic_move_shifts_nothing(self, monkeypatch):
        calls = self.count_oracle_calls(monkeypatch)
        for which in ("first", "second"):
            for direction in ("left", "right"):
                rep = verify_move_identity("I1,II2,III1,N0", which, direction)
                assert rep.mode == "symbolic" and rep.proportional
        assert set(calls.values()) == {0}
        sys.modules["mijacobi.wronskian"].shift_quasi(wronskian("I1"), 1, -1)
        assert calls["shift_quasi"] == 1 and calls["ParamPoly.shift"] > 0

    def test_point_reduction_compares_nothing(self, monkeypatch):
        calls = self.count_oracle_calls(monkeypatch)
        for target in ReductionTarget:
            rep = verify_reduction("I1,II2,III1,N0,N2", target, instantiate=GENERIC_POINTS[0])
            assert rep.mode == "instantiated" and rep.proportional
            assert type(rep.constant) is F
        assert set(calls.values()) == {0}
        w = wronskian("I1", GENERIC_POINTS[0])
        sys.modules["mijacobi.wronskian"].compare_quasi(w, w)
        assert calls["compare_quasi"] == calls["proportional"] == 1

    def test_one_packed_comparison_per_identity(self, monkeypatch):
        calls = self.count_oracle_calls(monkeypatch, ("_products_equal",))
        checks = [(verify_move_identity, ("I1,II1,III1", which, direction))
                  for which in ("first", "second") for direction in ("left", "right")]
        checks += [(verify_reduction, ("I1,II1,III1", target)) for target in ReductionTarget]
        for point, mode in ((None, "symbolic"), (GENERIC_POINTS[0], "instantiated")):
            for verify, args in checks:
                before = calls["_products_equal"]
                rep = verify(*args, instantiate=point)
                assert rep.mode == mode and rep.proportional
                assert calls["_products_equal"] == before + 1, (verify.__name__, args, mode)


class TestCanonicalForm:
    def test_fixed_point(self):
        t = parse_states("I0,I3,N1")
        red, led = canonical_form(t)
        assert red == t and led.is_fresh()

    def test_move_related_tuples_share_canonical_form(self):
        # holds whenever a type II state is present (the second-left move
        # then only re-threads the existing reduction chain)
        from mijacobi.states import StateType
        rng = seeded(38)
        done = 0
        while done < 20:
            t = random_tuple(rng, 5, 4)
            if not t.indices(StateType.II):
                continue
            pair = move_division(tuple_to_diagrams(t), "second", "left")
            t2 = diagrams_to_tuple(pair)
            inc = pair.ledger
            red1, led1 = canonical_form(t)
            red2, led2 = canonical_form(t2)
            assert red1 == red2
            assert (led1.dg, led1.dh) == (inc.dg + led2.dg, inc.dh + led2.dh)
            assert led1.prefS == inc.prefS + led2.prefS.shifted(inc.dg, inc.dh)
            assert led1.prefC == inc.prefC + led2.prefC.shifted(inc.dg, inc.dh)
            done += 1

    def test_canonical_form_is_not_a_complete_invariant(self):
        # without a type II state, a second-left move mints a fresh I0, and
        # both tuples are already in two-family form; the representatives
        # differ even though the Wronskians stay proportional under the
        # ledger.  Completeness of the equivalence test is not claimed.
        t = parse_states("N1")
        pair = move_division(tuple_to_diagrams(t), "second", "left")
        t2 = diagrams_to_tuple(pair)
        assert t2 == parse_states("I0,N1")
        assert canonical_form(t)[0] != canonical_form(t2)[0]
        rep = verify_move_identity(t, "second", "left")
        assert rep.proportional  # the underlying identity still holds


class TestRendering:
    def test_intro_diagrams(self):
        pair = tuple_to_diagrams(parse_states("I1,II2,III1"))
        assert render_diagram(pair.first) == "...***o*|ooooo..."
        assert render_diagram(pair.second) == "...**o**|o*ooo..."

    def test_vacuum(self):
        d = MayaDiagram((), ())
        assert render_diagram(d) == "...*****|ooooo..."

    def test_wide_positions_extend_window(self):
        d = MayaDiagram((6,), (0, 7))
        out = render_diagram(d)
        left, right = out[3:-3].split("|")
        assert len(left) == 7 and left[0] == "o"
        assert len(right) == 8 and right[-1] == "*"
