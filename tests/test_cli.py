"""Command-line interface: parsing, reports, JSON schema, exit codes."""

import json
import sys
from fractions import Fraction as F

import pytest

import mijacobi.cli as cli
from mijacobi.algebra import AffineExp, ParamPoly
from mijacobi.cli import MAX_INDEX, MAX_RANDOM, MAX_STATES, main, parse_tuple_spec
from mijacobi.maya import Ledger, ProportionalityReport, tuple_to_diagrams
from mijacobi.spectral import _eigen_identity
from mijacobi.states import DEFAULT_GENERIC_POINT, State, StateType, _int_state, as_state_tuple
from mijacobi.wronskian import _int_wronskian, wronskian

G = ParamPoly.gen_g()
H = ParamPoly.gen_h()


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse rejected the command line
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


class TestParsing:
    def test_tuple_spec(self):
        t = parse_tuple_spec("I1,II2,III1")
        assert [s.type for s in t] == [StateType.I, StateType.II, StateType.III]
        assert [s.v for s in t] == [1, 2, 1]

    def test_empty(self):
        assert len(parse_tuple_spec("")) == 0

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "poly", "I1,XY2")
        assert code == 2 and "parse" in err

    @pytest.mark.parametrize("spec", ["I1,", ",I1", "I-1", "N", "I1;II2", "IV1"])
    def test_bad_spec_exit_code(self, capsys, spec):
        code, out, err = run(capsys, "poly", spec)
        assert code == 2 and "parse" in err and not out

    def test_duplicate_exit_code(self, capsys):
        code, _, err = run(capsys, "poly", "I1,I1")
        assert code == 3 and "distinct" in err

    def test_non_generic_exit_code(self, capsys):
        code, _, err = run(capsys, "--g", "3/2", "--h", "52/7", "spectrum",
                           "I1,II2,III1", "--verify")
        assert code == 5


    def test_non_generic_poly_exit_code(self, capsys):
        code, _, err = run(capsys, "--g", "1/2", "--h", "1/3", "poly", "II1,N1")
        assert code == 5 and "non-generic" in err

    def test_negative_up_to_exit_code(self, capsys):
        code, _, err = run(capsys, "spectrum", "I1", "--up-to", "-1")
        assert code == 2 and "up-to" in err

    def test_negative_random_count_exit_code(self, capsys):
        code, out, err = run(capsys, "verify-identity", "--random", "-1")
        assert code == 2 and "--random" in err and not out

    def test_negative_point_needs_the_equals_form(self, capsys):
        # argparse reads "-7/3" after "--g" as a flag, not as its value
        code, out, err = run(capsys, "--g", "-7/3", "--h", "52/7", "poly", "I1")
        assert code == 2 and not out and "expected one argument" in err
        rep = run_json(capsys, "--g=-7/3", "--h=52/7", "poly", "I1")
        assert rep["g"] == "-7/3" and rep["expS"] == {"g": 0, "h": 0, "c": "-7/3"}

    @pytest.mark.parametrize("point", [["--g", "37/10", "--h", "52/7"], ["--g", "37/10"],
                                       ["--h", "52/7"]])
    def test_point_after_the_command_is_a_parse_error(self, capsys, point):
        # --h there is no abbreviation of --help: nothing is printed and
        # nothing verified
        code, out, err = run(capsys, "spectrum", "III0", "--verify", *point)
        assert code == 2 and not out and "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_options_are_not_abbreviated(self, capsys):
        code, out, err = run(capsys, "spectrum", "I1", "--up", "2")
        assert code == 2 and not out and "unrecognized arguments" in err
        assert run(capsys, "--js", "poly", "I1")[0] == 2

    def test_point_rejected_by_commands_without_one(self, capsys):
        for argv in (["maya", "I1"], ["equivalent", "I1", "N2"]):
            code, out, err = run(capsys, "--g", "37/10", "--h", "52/7", *argv)
            assert code == 2 and "--g/--h" in err and not out

    def test_non_generic_point_checked_without_verify(self, capsys):
        code, _, err = run(capsys, "--g", "1/2", "--h", "5/3", "reduce", "I1")
        assert code == 5 and "non-generic" in err


class TestInputContract:
    def test_index_limit(self, capsys):
        assert run(capsys, "maya", "I%d" % MAX_INDEX)[0] == 0
        code, out, err = run(capsys, "maya", "II1,I%d" % (MAX_INDEX + 1))
        assert code == 2 and "at most %d" % MAX_INDEX in err and not out

    def test_size_limit(self, capsys):
        spec = ",".join("N%d" % k for k in range(MAX_STATES))
        assert run(capsys, "maya", spec)[0] == 0
        code, out, err = run(capsys, "maya", spec + ",I0")
        assert code == 2 and "at most %d states" % MAX_STATES in err and not out

    def test_up_to_limit(self, capsys):
        assert run(capsys, "spectrum", "I1", "--up-to", str(MAX_INDEX))[0] == 0
        code, out, err = run(capsys, "spectrum", "I1", "--up-to", str(MAX_INDEX + 1))
        assert code == 2 and "--up-to" in err and not out

    def test_random_limit(self, capsys, monkeypatch):
        code, out, err = run(capsys, "verify-identity", "--random", str(MAX_RANDOM + 1))
        assert code == 2 and "--random is at most %d" % MAX_RANDOM in err and not out
        assert "Traceback" not in err
        monkeypatch.setattr("mijacobi.cli.MAX_RANDOM", 3)
        argv = ("--g", "37/10", "--h", "52/7", "verify-identity", "--random")
        code, out, _ = run(capsys, *argv, "3")
        assert code == 0 and "3/3 random move identities verified" in out
        code, out, err = run(capsys, *argv, "4")
        assert code == 2 and "--random is at most 3" in err and not out

    def test_api_is_unbounded(self):
        w = wronskian("I%d" % (MAX_INDEX + 1), DEFAULT_GENERIC_POINT)
        assert w.poly.degree == MAX_INDEX + 1
        t = as_state_tuple(",".join("N%d" % k for k in range(MAX_STATES + 1)))
        assert len(tuple_to_diagrams(t).first.right_black) == MAX_STATES + 1

    @pytest.mark.parametrize("argv", [
        ["poly", "I1,,II2"], ["poly", "I1.5"], ["poly", "i1"], ["poly", "III-1"],
        ["maya", "I 1"], ["poly", "N" + "9" * 5000], ["reduce", "I1,I1"],
        ["spectrum", "N2,III0,N2"], ["poly", "I%d" % (MAX_INDEX + 1)],
        ["maya", ",".join("I%d" % k for k in range(MAX_STATES + 1))],
        ["spectrum", "I1", "--up-to", "10000000000"], ["spectrum", "I1", "--up-to", "1.5"],
        ["--g", "3/2", "--h", "52/7", "poly", "I1"],
        ["--g", "2", "--h", "3", "reduce", "I1", "--verify"],
        ["--g", "3.7", "--h", "7.3", "spectrum", "I1", "--verify"],
        ["--g", "0.5", "--h", "52/7", "poly", "I1"], ["--g", "nan", "--h", "1/3", "poly", "I1"],
        ["--g", "inf", "--h", "1/3", "poly", "I1"], ["--g", "0x1p-2", "--h", "1/3", "poly", "I1"],
        ["--g", "1/0", "--h", "1/3", "poly", "I1"], ["--g", "37/10", "poly", "I1"],
        ["--g", "37/10", "--h", "52/7", "verify-identity", "I1,I1"],
        ["--g", "1e5000", "--h", "52/7", "poly", "I1"],
    ])
    def test_bad_input_exits_without_traceback(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code in (2, 3, 5) and err and "Traceback" not in err


class TestPoly:
    def test_golden_example_json(self, capsys):
        rep = run_json(capsys, "poly", "I1,II2,III1")
        assert rep["expS"] == {"g": -1, "h": 0, "c": "1"}
        assert rep["expC"] == {"g": 0, "h": -1, "c": "1"}
        assert rep["degree"] == 5
        # full eta^5 coefficient: the verified value
        quintic = (G - H + 2) * (G - H - 1) * (G - H - 3) * (G - H - 4) * (G + H - 3)
        verified = ((G * 2 - 1) * (H * 2 + 1) * quintic).scale(F(-1, 32))
        coeff5 = dict((tuple(k), v) for *k, v in
                      [tuple(entry) for entry in rep["coefficients"]])[  # noqa: C416
            (5,)]["num"] if False else None
        top = [entry for entry in rep["coefficients"] if entry[0] == 5][0][1]
        got = ParamPoly({(i, j): F(c) for i, j, c in top["num"]})
        assert top["den"] == [[0, 0, "1"]]
        assert got == verified

    def test_single_bound_state(self, capsys):
        rep = run_json(capsys, "poly", "N0")
        assert rep["expS"] == {"g": 1, "h": 0, "c": "0"}
        assert rep["expC"] == {"g": 0, "h": 1, "c": "0"}
        assert rep["coefficients"] == [[0, {"num": [[0, 0, "1"]],
                                            "den": [[0, 0, "1"]]}]]

    def test_deterministic_output(self, capsys, monkeypatch):
        # and each format is built alone: --json renders no text, and text
        # mode builds no JSON
        def refuse(*args):
            raise AssertionError("built a format that is not printed")

        with monkeypatch.context() as m:
            m.setattr(ParamPoly, "_render", refuse)
            m.setattr(AffineExp, "_render", refuse)
            a = run(capsys, "--json", "poly", "I0,N1")
            b = run(capsys, "--json", "poly", "I0,N1")
        assert a == b and a[0] == 0
        with monkeypatch.context() as m:
            for name in ("etapoly_json", "affine_json", "parampoly_json", "rational_json"):
                m.setattr(cli, name, refuse)
            text = run(capsys, "poly", "I0,N1")
        assert text[0] == 0 and "eta^1  : " in text[1] and text == run(capsys, "poly", "I0,N1")

    def test_latex_output(self, capsys):
        code, out, _ = run(capsys, "--latex", "poly", "N0")
        assert code == 0
        assert r"(\sin x)^{g}" in out and r"\phi_{0}" in out

    def test_instantiated(self, capsys):
        rep = run_json(capsys, "--g", "37/10", "--h", "52/7", "poly", "I1")
        assert rep["g"] == "37/10"
        assert rep["expS"] == {"g": 0, "h": 0, "c": "37/10"}


class TestMaya:
    def test_intro_render(self, capsys):
        rep = run_json(capsys, "maya", "I1,II2,III1")
        assert rep["first"]["render"] == "...***o*|ooooo..."
        assert rep["second"]["render"] == "...**o**|o*ooo..."

    def test_vacuum(self, capsys):
        rep = run_json(capsys, "maya", "")
        assert rep["first"]["render"] == "...*****|ooooo..."
        assert rep["second"]["render"] == "...*****|ooooo..."

    def test_seven_state_sets(self, capsys):
        rep = run_json(capsys, "maya", "I2,I3,II0,II2,III3,N0,N1")
        assert rep["first"] == {"leftWhite": [3], "rightBlack": [0, 1],
                                "render": rep["first"]["render"]}
        assert rep["second"]["leftWhite"] == [0, 2]
        assert rep["second"]["rightBlack"] == [2, 3]


class TestReduce:
    def test_intro(self, capsys):
        rep = run_json(capsys, "reduce", "I1,II2,III1", "--target", "IN")
        assert rep["reduced"] == ["I1", "I2", "I4", "N1"]
        assert rep["ledger"]["dg"] == -5 and rep["ledger"]["dh"] == 1
        assert rep["ledger"]["prefS"] == {"g": -5, "h": 0, "c": "15"}
        assert rep["ledger"]["prefC"] == {"g": 0, "h": 1, "c": "0"}

    def test_theorem_example_with_verify(self, capsys):
        rep = run_json(capsys, "--g", "37/10", "--h", "52/7",
                       "reduce", "I2,I3,II0,II2,III3,N0,N1",
                       "--target", "IN", "--verify")
        assert rep["reduced"] == ["I1", "I5", "I6", "N1", "N2", "N3", "N4", "N5"]
        assert rep["ledger"]["prefS"] == {"g": -7, "h": 0, "c": "28"}
        assert rep["ledger"]["prefC"] == {"g": 0, "h": -1, "c": "1"}
        assert rep["verify"]["proportional"] is True

    def test_intro_verify_symbolic(self, capsys):
        rep = run_json(capsys, "reduce", "I1,II2,III1", "--target", "IN",
                       "--verify")
        assert rep["verify"]["mode"] == "symbolic"
        assert rep["verify"]["proportional"] is True

    def test_empty(self, capsys):
        for target in ("IN", "I3", "2N", "23"):
            rep = run_json(capsys, "reduce", "", "--target", target)
            assert rep["reduced"] == []
            assert rep["ledger"] == {"dg": 0, "dh": 0,
                                     "prefS": {"g": 0, "h": 0, "c": "0"},
                                     "prefC": {"g": 0, "h": 0, "c": "0"}}
            rep = run_json(capsys, "reduce", "", "--target", target, "--verify")
            assert rep["verify"] == {"mode": "symbolic", "proportional": True,
                                     "constant": {"num": [[0, 0, "1"]],
                                                  "den": [[0, 0, "1"]]}}
            code, out, err = run(capsys, "reduce", "", "--target", target, "--verify")
            assert code == 0 and not err
            assert "verify  : proportional, constant = 1 (symbolic)" in out


class TestSpectrum:
    def test_worked_example(self, capsys):
        rep = run_json(capsys, "spectrum", "I3,II2,III1,III4,III5,N1,N3",
                       "--up-to", "6")
        assert [lv["label"] for lv in rep["levels"]] == [
            "E_-6", "E_-5", "E_-2", "E_0", "E_2", "E_4", "E_5", "E_6"]

    def test_default_up_to(self, capsys):
        rep = run_json(capsys, "spectrum", "")
        assert [lv["label"] for lv in rep["levels"]] == [
            "E_%d" % n for n in range(7)]

    def test_verified(self, capsys):
        rep = run_json(capsys, "--g", "37/10", "--h", "52/7",
                       "spectrum", "I1,II2,III1", "--up-to", "2", "--verify")
        assert rep["verify"]["nonsingular"] is True
        assert all(rep["verify"].values())


    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_small_exponents_warn_in_one_line(self, capsys):
        # the warning's message alone: no path, line number or source line
        code, out, err = run(capsys, "--g", "37/10", "--h", "52/7", "spectrum",
                             "II2,III0,III2", "--up-to", "3", "--verify")
        assert code == 0 and out.endswith("check eigenfunction E_2     : pass\n")
        assert err == ("warning: eigenfunction exponents (7/10, 45/7) are below 3/2; the "
                       "parameters may be too small for the full transformation chain\n")

    def test_singular_potential_is_reported_not_failed(self, capsys):
        rep = run_json(capsys, "--g", "3", "--h", "17/3",
                       "spectrum", "N1", "--up-to", "2", "--verify")
        assert rep["verify"]["nonsingular"] is False
        assert rep["verify"]["eigenfunction E_0"] is True
        assert rep["verify"]["eigenfunction E_2"] is True


    def test_failed_eigenfunction_check_exit_code(self, capsys, monkeypatch):
        # the stub fails the bound checks only (numerator W[T, phi_n], one
        # state more than T) or the extra checks only (W[T without III_m],
        # one less); each failure alone gives exit 4
        sizes = {}

        def sized(states, q, det=None):
            w = _int_wronskian(states, q, det)
            sizes[id(w)] = len(states)
            return w

        eigen, extra = "eigenfunction E_1", "extra state E_-2"
        for step, failed, passed in ((1, eigen, extra), (-1, extra, eigen)):
            def stub(w, y, e, pt):
                if sizes[id(y)] - sizes[id(w)] == step:
                    return False
                return _eigen_identity(w, y, e, pt)

            with monkeypatch.context() as m:
                m.setattr("mijacobi.spectral._int_wronskian", sized)
                m.setattr("mijacobi.spectral._eigen_identity", stub)
                code, out, err = run(capsys, "--g", "37/10", "--h", "52/7",
                                     "spectrum", "I1,II2,III1", "--up-to", "2",
                                     "--verify")
            assert code == 4 and "identity failure" in err and not out, step
            assert "'%s': False" % failed in err and "'%s': True" % passed in err


    def test_verify_computes_w_t_once(self, capsys, monkeypatch):
        # W[T] once, and each state's integer Jacobi sum once, shared by W[T]
        # and the numerator Wronskians; no public Wronskian is built
        t = as_state_tuple("I1,II2,III1")
        sizes, built, public = [], [], []

        def counted(states, q, det=None):
            sizes.append(len(states))
            return _int_wronskian(states, q, det)

        def state(s, pt):
            built.append(s)
            return _int_state(s, pt)

        def refused(tt, inst=None):
            public.append(tt)
            return wronskian(tt, inst)

        argv = ("--g", "37/10", "--h", "52/7", "spectrum", "I1,II2,III1",
                "--up-to", "2", "--verify")
        plain = run(capsys, *argv)
        monkeypatch.setattr("mijacobi.spectral._int_wronskian", counted)
        monkeypatch.setattr("mijacobi.spectral._int_state", state)
        # the function's home module, which `mijacobi.wronskian` (the function
        # itself) hides, and the CLI's binding of it
        monkeypatch.setattr(sys.modules["mijacobi.wronskian"], "wronskian", refused)
        monkeypatch.setattr("mijacobi.cli.wronskian", refused)
        assert run(capsys, *argv) == plain and plain[0] == 0
        assert sorted(sizes) == [2, 3, 4, 4, 4] and sizes[0] == 3  # W[T], 1 extra, 3 bound
        assert built == list(t) + [State(StateType.N, n) for n in range(3)]
        assert public == []


class TestVerifyIdentityCommand:
    def test_single_move(self, capsys):
        rep = run_json(capsys, "verify-identity", "I1,II2,III1",
                       "--which", "second", "--dir", "left")
        assert rep["proportional"] is True
        assert rep["moved"] == ["I0", "I2", "II1", "III1"]

    def test_identity_failure_exit_code(self, capsys, monkeypatch):
        t = parse_tuple_spec("I1")
        report = ProportionalityReport(False, None, t, t, Ledger(), "symbolic",
                                       detail="forced mismatch")
        monkeypatch.setattr("mijacobi.cli.verify_move_identity",
                            lambda *args, **kwargs: report)
        code, _, err = run(capsys, "verify-identity", "I1")
        assert code == 4 and "identity failure" in err

    def test_random_mode_deterministic(self, capsys):
        a = run(capsys, "--json", "--seed", "3", "verify-identity", "--random", "4")
        b = run(capsys, "--json", "--seed", "3", "verify-identity", "--random", "4")
        assert a == b and a[0] == 0


class TestEquivalent:
    def test_move_related(self, capsys):
        rep = run_json(capsys, "equivalent", "I1,II2,III1", "I0,I2,II1,III1")
        assert rep["equivalent"] is True
        assert rep["canonical1"] == rep["canonical2"] == ["I1", "I2", "I4", "N1"]

    def test_unrelated(self, capsys):
        rep = run_json(capsys, "equivalent", "I1", "N2")
        assert rep["equivalent"] is False
