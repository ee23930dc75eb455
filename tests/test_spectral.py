"""Deformed Hamiltonians, eigenfunction checks, spectra, nonsingularity."""

import json
from fractions import Fraction as F
from math import prod
from pathlib import Path

import mpmath as mp
import pytest

from mijacobi.algebra import AffineExp, EtaPoly, ParamPoly, sturm_count
from mijacobi.maya import move_division, tuple_to_diagrams
from mijacobi.spectral import (
    SYMBOLIC_SIZE_CAP,
    QuasiRat,
    SpectrumLabel,
    apply_hamiltonian,
    check_nonsingular,
    deformed_potential,
    differentiate_rat,
    extra_eigenstate,
    permitted_spectrum,
    verify_eigenfunction,
    verify_spectrum,
    _eigen_identity,
)
from mijacobi.states import (
    DuplicateStatesError,
    NonGenericParametersError,
    State,
    StateTuple,
    StateType,
    eigenvalue,
    make_state,
    potential,
)
from mijacobi.wronskian import canonicalize, wronskian
from helpers import (
    GENERIC_POINTS,
    fraction_derivative,
    mpf_of,
    numerator_wronskian,
    parse_states,
    quasi_taylor,
    random_generic_point,
    random_tuple,
    seeded,
)

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()

# The recorded results of the spectral-point benchmark workload.
GOLDEN_SPECTRAL = Path(__file__).resolve().parents[1] / "bench" / "golden" / "spectral-point.json"


def as_quasirat(q):
    return QuasiRat.make(q.expS, q.expC, q.poly, EtaPoly((F(1),)))


def bound_eigenstate(t, n, inst=None):
    """f = W[t, phi_n]/W[t] as verify_eigenfunction builds it, with its
    eigenvalue."""
    phi = State(StateType.N, n)
    wt, wtn = wronskian(t, inst), wronskian(t.with_state(phi), inst)
    f = QuasiRat.make(wtn.expS - wt.expS, wtn.expC - wt.expC, wtn.poly, wt.poly)
    return f, eigenvalue(phi)


def eigen_cases(rng, count):
    """(t, point, f, eigenvalue) for every bound level n <= 2 and every
    extra state of count seeded tuples at generic points."""
    for k in range(count):
        t = random_tuple(rng, 3, 3, min_size=1)
        pt = GENERIC_POINTS[k % len(GENERIC_POINTS)]
        deleted = set(t.indices(StateType.N))
        for n in range(3):
            if n not in deleted:
                yield (t, pt) + bound_eigenstate(t, n, pt)
        for i, s in enumerate(t):
            if s.type is StateType.III:
                yield (t, pt) + extra_eigenstate(t, i, pt)


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

    def test_warnings_point_at_the_caller(self):
        pt = (F(7, 10), F(3, 7))
        with pytest.warns(RuntimeWarning) as rec:
            verify_eigenfunction(StateTuple(), 0, inst=pt)
        assert [w.filename for w in rec] == [__file__]
        with pytest.warns(RuntimeWarning) as rec:
            extra_eigenstate(parse_states("III1"), 0, inst=pt)
        assert [w.filename for w in rec] == [__file__]

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

    def test_two_state_symbolic(self):
        ok, ev = verify_eigenfunction(parse_states("I1,II1"), 1)
        assert ok and ev == (G + H + 1).scale(4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEigenIdentity:
    def test_wrong_eigenvalue_fails_at_a_point(self, monkeypatch):
        # every level of spectrum --up-to 2; the identity reads integer
        # derivative columns, never the one-step differentiate that the
        # quotient route keeps
        def refuse(q):
            raise AssertionError("differentiate called")

        monkeypatch.setattr("mijacobi.spectral.differentiate", refuse)
        pt = GENERIC_POINTS[0]
        t = parse_states("I1,II2,III1")
        wt = wronskian(t, pt)
        cases = []
        for lab, _ in permitted_spectrum(t, 2):
            if lab.kind == "bound":
                assert verify_eigenfunction(t, lab.index, inst=pt)[0]
                cases.append(bound_eigenstate(t, lab.index, pt))
            else:
                cases.append(extra_eigenstate(t, 2, pt))
        assert len(cases) == 4  # E_-2, E_0, E_1, E_2
        for f, ev in cases:
            y = numerator_wronskian(wt, f)
            assert _eigen_identity(wt, y, ev.eval_at(*pt), pt)
            assert not _eigen_identity(wt, y, ev.eval_at(*pt) + 1, pt)

    def test_wrong_eigenvalue_fails_symbolically(self):
        # bound states (n) and extra states (the III member at index ell)
        for spec, n, ell in (("I0", 1, None), ("I1,III1", None, 1),
                             ("II0,III2", None, 1), ("I0,II1,N2", 0, None)):
            t = parse_states(spec)
            wt = wronskian(t)
            f, ev = bound_eigenstate(t, n) if ell is None else extra_eigenstate(t, ell)
            y = numerator_wronskian(wt, f)
            assert _eigen_identity(wt, y, ev, None), spec
            assert not _eigen_identity(wt, y, ev + 1, None), spec

    def test_agrees_with_quotient_route(self):
        # the kept QuasiRat route, H f - E f by repeated differentiate_rat,
        # decides the same flag for the true eigenvalue and for E + 1
        seen = 0
        for t, pt, f, ev in eigen_cases(seeded(44), 6):
            wt, pot = wronskian(t, pt), deformed_potential(t, pt)
            for e in (ev.eval_at(*pt), ev.eval_at(*pt) + 1):
                old = apply_hamiltonian(pot, f).sub(f.scale(e)).is_zero()
                assert _eigen_identity(wt, numerator_wronskian(wt, f), e, pt) == old, (t, e)
                seen += old
        assert seen >= 12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNumericEigenOracle:
    """-f'' + (U - 2 (log W[t])'' - E) f = 0 at 200 bits, from Taylor
    coefficients of W[t] and of the numerator; U is evaluated from sin and
    cos directly, so nothing passes through the eta-space identity.  The
    identity must decide the same, for E and for E + 1."""

    @staticmethod
    def residual(wt, wf, ev, pt, x0):
        w, u = quasi_taylor(wt, x0, 2), quasi_taylor(wf, x0, 2)
        f0 = u[0] / w[0]
        f1 = (u[1] - f0 * w[1]) / w[0]
        f2 = (u[2] - f0 * w[2] - f1 * w[1]) / w[0]
        log_pp = 2 * w[2] / w[0] - (w[1] / w[0]) ** 2
        g, h, e = (mpf_of(v) for v in (*pt, ev.eval_at(*pt)))
        pot = (g * (g - 1) / mp.sin(x0) ** 2 + h * (h - 1) / mp.cos(x0) ** 2
               - (g + h) ** 2 - 2 * log_pp)
        res = -2 * f2 + (pot - e) * f0
        return res, abs(2 * f2) + abs(pot * f0) + abs(e * f0)

    def test_seeded_tuples(self):
        checked = 0
        with mp.workprec(200):
            for t, pt, f, ev in eigen_cases(seeded(45), 5):
                wt = wronskian(t, pt)
                wf = numerator_wronskian(wt, f)
                for e in (ev, ev + 1):
                    exact = _eigen_identity(wt, wf, e.eval_at(*pt), pt)
                    for x0 in (mp.mpf("0.3"), mp.mpf("0.8"), mp.mpf("1.3")):
                        res, size = self.residual(wt, wf, e, pt, x0)
                        numeric = abs(res) <= size * mp.mpf(10) ** -30
                        assert numeric == exact == (e is ev), (t, e, x0)
                        checked += exact
        assert checked >= 30


class TestExtraEigenstate:
    def test_single_type_iii(self):
        t = parse_states("III0")
        f, ev = extra_eigenstate(t, 0)
        w = wronskian(t)
        assert f.expS == AffineExp(1, 0, -1)  # g - 1
        assert f.expC == AffineExp(0, 1, -1)  # h - 1
        assert f.num == EtaPoly((F(1),)) and f.den == w.poly
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

    def test_symbolic_above_the_verifiers_cap(self):
        # a constructor, like wronskian: with no point it stays symbolic at
        # any size; SYMBOLIC_SIZE_CAP picks only the verifiers' mode
        t = parse_states("I1,II2,III1")
        assert len(t) > SYMBOLIC_SIZE_CAP
        f, ev = extra_eigenstate(t, 2)
        assert not f.expS.is_constant and not f.expC.is_constant
        assert all(isinstance(c, ParamPoly) for c in f.num.coeffs + f.den.coeffs)
        assert f.den == wronskian(t).poly
        y = wronskian(t.without_index(2))
        assert f.num == y.poly and _eigen_identity(wronskian(t), y, ev, None)

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


class TestVerifySpectrum:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_golden_spectral_point(self):
        # every recorded op: the nonsingular flag and each check's name,
        # order and flag, as `spectrum T --up-to 2 --verify` gives them
        ops = json.loads(GOLDEN_SPECTRAL.read_text())["ops"]
        assert len(ops) == 400
        for op in ops:
            spec, want = op["spec"], op["result"]
            nonsingular, checks = verify_spectrum(spec["tuple"], 2, *map(F, spec["point"]))
            assert nonsingular is want["nonsingular"], spec
            assert list(checks.items()) == list(want["checks"].items()), spec

    def test_levels_follow_permitted_spectrum(self):
        pt = GENERIC_POINTS[0]
        t = parse_states("I1,II2,III1,N1")
        nonsingular, checks = verify_spectrum(t, 3, *pt)
        assert nonsingular == check_nonsingular(t, *pt)
        assert list(checks) == ["extra state E_-2", "eigenfunction E_0",
                                "eigenfunction E_2", "eigenfunction E_3"]
        assert all(checks.values())

    def test_non_generic_point_rejected(self):
        with pytest.raises(NonGenericParametersError):
            verify_spectrum("I1", 2, 3, 4)

    def test_small_exponents_warn(self):
        with pytest.warns(RuntimeWarning, match="below 3/2"):
            _, checks = verify_spectrum("III0", 0, F(2, 3), F(3, 5))
        assert checks == {"extra state E_-1": True, "eigenfunction E_0": True}


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

    def test_krein_adler_type_n_tuples(self):
        # Adler (1994): deleting the levels d_j leaves a nonsingular
        # potential iff prod_j (n - d_j) >= 0 for every level n >= 0
        rng = seeded(46)
        outcomes = set()
        for _ in range(60):
            ds = rng.sample(range(7), rng.randint(1, 4))
            gv, hv = random_generic_point(rng)
            if gv < 1 or hv < 1:
                continue
            t = StateTuple([State(StateType.N, d) for d in ds])
            want = all(prod(n - d for d in ds) >= 0 for n in range(max(ds) + 1))
            assert check_nonsingular(t, gv, hv) == want, (ds, gv, hv)
            outcomes.add(want)
        assert outcomes == {True, False}

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
        d_poly = canonicalize(fraction_derivative(q))
        d_rat = differentiate_rat(as_quasirat(q))
        diff = d_rat.sub(as_quasirat(d_poly))
        assert diff.is_zero()

    @pytest.mark.parametrize("inst", [GENERIC_POINTS[1], None])
    def test_quotient_rule_with_denominator(self, inst):
        # f = Y/W with Y = W[I1, phi_1] and W = W[I1]: f' = (Y'W - YW')/W^2,
        # assembled from the Fraction derivative rule and QuasiRat.mul/sub
        t = parse_states("I1")
        w, y = wronskian(t, inst), wronskian(t.with_state(State(StateType.N, 1)), inst)
        f = QuasiRat.make(y.expS - w.expS, y.expC - w.expC, y.poly, w.poly)
        assert f.den.degree > 0
        dy, dw = as_quasirat(fraction_derivative(y)), as_quasirat(fraction_derivative(w))
        inv_w2 = QuasiRat.make(-(w.expS + w.expS), -(w.expC + w.expC),
                               EtaPoly((F(1),)), w.poly * w.poly)
        ref = dy.mul(as_quasirat(w)).sub(as_quasirat(y).mul(dw)).mul(inv_w2)
        assert differentiate_rat(f) == ref
        assert differentiate_rat(f) != ref.scale(2)
