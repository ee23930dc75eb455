"""Deformed Hamiltonians, eigenfunction checks, spectra, nonsingularity."""

from fractions import Fraction as F

import pytest

from mijacobi.algebra import AffineExp, EtaPoly, ParamPoly, sturm_count
from mijacobi.maya import move_division, tuple_to_diagrams
from mijacobi.spectral import (
    QuasiRat,
    SpectrumLabel,
    apply_hamiltonian,
    check_nonsingular,
    deformed_potential,
    differentiate_rat,
    extra_eigenstate,
    permitted_spectrum,
    verify_eigenfunction,
)
from mijacobi.states import (
    DuplicateStatesError,
    State,
    StateTuple,
    StateType,
    eigenvalue,
    make_state,
    potential,
)
from mijacobi.wronskian import wronskian
from helpers import GENERIC_POINTS, parse_states, random_tuple, seeded

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()


def as_quasirat(q):
    return QuasiRat.make(q.expS, q.expC, q.poly, EtaPoly((F(1),)))


class TestDeformedPotential:
    def test_empty_tuple_gives_bare_potential(self):
        assert deformed_potential(StateTuple()) == potential()

    def test_shape_invariance_symbolic(self):
        dp = deformed_potential(parse_states("I0"))
        assert dp == potential().shift_params(1, -1)

    def test_three_state_denominator_root_free(self):
        dp = deformed_potential(parse_states("I1,II2,III1"),
                                inst=(F(37, 10), F(52, 7)))
        assert sturm_count(dp.den, F(-1), F(1)) == 0


class TestApplyHamiltonian:
    def test_ground_state_annihilated(self):
        gv, hv = GENERIC_POINTS[0]
        u = potential(inst=(gv, hv))
        f = as_quasirat(make_state(State(StateType.N, 0), inst=(gv, hv)))
        assert apply_hamiltonian(u, f).is_zero()

    def test_seed_energies_symbolic(self):
        u = potential()
        for v in range(4):
            s = State(StateType.I, v)
            f = as_quasirat(make_state(s))
            ev = eigenvalue(s)
            assert apply_hamiltonian(u, f).sub(f.scale(ev)).is_zero()

    def test_first_excited_energy(self):
        u = potential()
        f = as_quasirat(make_state(State(StateType.N, 1)))
        ev = (G + H + 1).scale(4)
        assert apply_hamiltonian(u, f).sub(f.scale(ev)).is_zero()

    def test_linearity(self):
        gv, hv = GENERIC_POINTS[2]
        u = deformed_potential(parse_states("I0"), inst=(gv, hv))
        f = as_quasirat(make_state(State(StateType.N, 1), inst=(gv, hv)))
        g2 = as_quasirat(make_state(State(StateType.N, 3), inst=(gv, hv)))
        for c in (F(3, 7), F(-5, 2)):
            lhs = apply_hamiltonian(u, f.add(g2.scale(c)))
            rhs = apply_hamiltonian(u, f).add(apply_hamiltonian(u, g2).scale(c))
            assert lhs.sub(rhs).is_zero()

    def test_incompatible_exponents_rejected(self):
        gv, hv = GENERIC_POINTS[0]
        f = as_quasirat(make_state(State(StateType.N, 0), inst=(gv, hv)))
        g2 = as_quasirat(make_state(State(StateType.I, 0), inst=(gv, hv)))
        with pytest.raises(ValueError):
            f.add(g2)


class TestQuasiRatEquality:
    def test_common_factor_does_not_change_value(self):
        gv, hv = GENERIC_POINTS[1]
        f = deformed_potential(parse_states("I1"), inst=(gv, hv))
        one_plus_eta = EtaPoly((F(1), F(1)))
        g2 = QuasiRat(f.expS, f.expC, f.num * one_plus_eta, f.den * one_plus_eta)
        assert f == g2 and not f != g2
        assert f != g2.scale(F(2))

    def test_unaligned_exponents_compare_unequal(self):
        gv, hv = GENERIC_POINTS[0]
        f = as_quasirat(make_state(State(StateType.N, 0), inst=(gv, hv)))
        g2 = as_quasirat(make_state(State(StateType.I, 0), inst=(gv, hv)))
        assert f != g2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(potential())


class TestVerifyEigenfunction:
    def test_trivial(self):
        ok, ev = verify_eigenfunction(StateTuple(), 0)
        assert ok and ev == ParamPoly()

    def test_one_deletion(self):
        ok, ev = verify_eigenfunction(parse_states("I0"), 1,
                                      inst=(F(37, 10), F(52, 7)))
        assert ok
        assert ev == (G + H + 1).scale(4)

    def test_one_deletion_symbolic(self):
        ok, _ = verify_eigenfunction(parse_states("I0"), 1)
        assert ok

    def test_first_excited_deleted_symbolic(self):
        ok, ev = verify_eigenfunction(parse_states("N1"), 0)
        assert ok and ev == ParamPoly()

    def test_three_state_tuple(self):
        ok, _ = verify_eigenfunction(parse_states("I1,II2,III1"), 0,
                                     inst=(F(37, 10), F(52, 7)))
        assert ok

    def test_deleted_level_rejected(self):
        with pytest.raises(DuplicateStatesError):
            verify_eigenfunction(parse_states("N1"), 1)

    def test_small_parameters_warn(self):
        with pytest.warns(RuntimeWarning):
            ok, _ = verify_eigenfunction(StateTuple(), 0, inst=(F(7, 10), F(3, 7)))
        assert ok

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_random_small_tuples(self):
        rng = seeded(41)
        done = 0
        while done < 6:
            t = random_tuple(rng, 4, 4, min_size=1)
            deleted = set(t.indices(StateType.N))
            levels = [n for n in range(3) if n not in deleted]
            pt = GENERIC_POINTS[done % 2]
            for n in levels[:2]:
                ok, _ = verify_eigenfunction(t, n, inst=pt)
                assert ok, (t, n, pt)
            done += 1


class TestExtraEigenstate:
    def test_single_type_iii(self):
        t = parse_states("III0")
        f, ev = extra_eigenstate(t, 0)
        w = wronskian(t)
        assert f.expS == AffineExp(1, 0, -1)  # g - 1
        assert f.expC == AffineExp(0, 1, -1)  # h - 1
        assert f.num == EtaPoly((F(1),)) and f.den == w.poly.scale(1 / w.poly.lc)
        assert ev == (G + H - 1).scale(-4)

    def test_single_type_iii_verified(self):
        gv, hv = GENERIC_POINTS[0]
        t = parse_states("III0")
        f, ev = extra_eigenstate(t, 0, inst=(gv, hv))
        pot = deformed_potential(t, inst=(gv, hv))
        ev_c = ev.eval_at(gv, hv)
        assert apply_hamiltonian(pot, f).sub(f.scale(ev_c)).is_zero()

    def test_three_state_example_eigenvalue(self):
        t = parse_states("I1,II2,III1")
        f, ev = extra_eigenstate(t, 2, inst=(F(37, 10), F(52, 7)))
        assert ev == (G + H - 2).scale(-8)

    def test_index_zero_matches_type_iii_eigenvalue(self):
        _, ev = extra_eigenstate(parse_states("III0"), 0)
        assert ev == eigenvalue(State(StateType.III, 0))

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError):
            extra_eigenstate(parse_states("I1,N0"), 0)

    def test_random_tuples_with_type_iii(self):
        rng = seeded(42)
        done = 0
        while done < 4:
            t = random_tuple(rng, 4, 4, min_size=2)
            iii = [i for i, s in enumerate(t) if s.type is StateType.III]
            if not iii:
                continue
            pt = GENERIC_POINTS[(done + 1) % 3]
            pot = deformed_potential(t, inst=pt)
            for i in iii:
                f, ev = extra_eigenstate(t, i, inst=pt)
                ev_c = ev.eval_at(*pt)
                assert apply_hamiltonian(pot, f).sub(f.scale(ev_c)).is_zero(), (t, i)
            done += 1


class TestPermittedSpectrum:
    def test_worked_example(self):
        spectrum = permitted_spectrum(
            parse_states("I3,II2,III1,III4,III5,N1,N3"), 6)
        assert [lab.energy_index for lab, _ in spectrum] == [-6, -5, -2, 0, 2, 4, 5, 6]

    def test_empty_tuple(self):
        spectrum = permitted_spectrum(StateTuple(), 3)
        assert [lab.energy_index for lab, _ in spectrum] == [0, 1, 2, 3]

    def test_single_type_iii(self):
        spectrum = permitted_spectrum(parse_states("III0"), 1)
        assert [lab.energy_index for lab, _ in spectrum] == [-1, 0, 1]

    def test_extra_energies_match_type_iii_eigenvalues(self):
        for m in range(9):
            lab = SpectrumLabel("extra", m)
            assert lab.energy() == eigenvalue(State(StateType.III, m))

    def test_bound_energies(self):
        spectrum = permitted_spectrum(parse_states("N1"), 2)
        want = {0: ParamPoly(), 2: ((G + H + 2) * F(8))}
        got = {lab.index: ev for lab, ev in spectrum}
        assert got == want


class TestNonsingular:
    def test_empty(self):
        assert check_nonsingular(StateTuple(), F(37, 10), F(52, 7))

    def test_first_excited_deletion_singular(self):
        assert not check_nonsingular(parse_states("N1"), F(37, 10), F(52, 7))

    def test_three_state_example(self):
        t = parse_states("I1,II2,III1")
        assert check_nonsingular(t, F(37, 10), F(52, 7))
        # engine-decided regression value at large parameters: the
        # instantiated polynomial has one root near eta = -0.036
        assert not check_nonsingular(t, F(201, 10), F(207, 11))


class TestFirstDiagramChainIdentity:
    def test_ledger_matches_deletion_chain_closed_form(self):
        # moving the first division m+1 times left carries exactly the
        # shift (-m-1, -m-1) and prefactor exponents
        # ((m+1)(-g+(m+2)/2), (m+1)(-h+(m+2)/2))
        rng = seeded(43)
        done = 0
        while done < 20:
            t = random_tuple(rng, 5, 4)
            iii = t.indices(StateType.III)
            if not iii:
                continue
            m = rng.choice(iii)
            pair = tuple_to_diagrams(t)
            for _ in range(m + 1):
                pair = move_division(pair, "first", "left")
            led = pair.ledger
            assert (led.dg, led.dh) == (-(m + 1), -(m + 1))
            assert led.prefS == AffineExp(-(m + 1), 0, F((m + 1) * (m + 2), 2))
            assert led.prefC == AffineExp(0, -(m + 1), F((m + 1) * (m + 2), 2))
            done += 1


class TestDifferentiateRat:
    def test_matches_polynomial_route(self):
        # d/dx of a plain quasi-polynomial through the rational rule
        gv, hv = GENERIC_POINTS[0]
        q = make_state(State(StateType.II, 2), inst=(gv, hv))
        from mijacobi.wronskian import canonicalize, differentiate
        d_poly = canonicalize(differentiate(q))
        d_rat = differentiate_rat(as_quasirat(q))
        diff = d_rat.sub(as_quasirat(d_poly))
        assert diff.is_zero()
