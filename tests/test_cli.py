"""End-to-end command-line behavior: parsing, formats, exit codes."""

import argparse
import contextlib
import io
import json
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypocomp as hc
from hypocomp import cli, funcalg, matrixrep, moebius
from hypocomp.errors import ConvergenceFailureError, NotAFixedPointError, TheoryUnavailableError

from conftest import DERANDOMIZED
from test_cli_golden import CASES, assert_matches
from test_theory import maps_of_every_kind


def count_calls(monkeypatch, *functions) -> dict[str, int]:
    """Calls of each function by name, counted wherever hypocomp binds it."""
    calls = dict.fromkeys((f.__name__ for f in functions), 0)
    modules = [m for name, m in sys.modules.items() if name == "hypocomp" or name.startswith("hypocomp.")]
    for original in functions:
        def counted(*args, original=original, **kwargs):
            calls[original.__name__] += 1
            return original(*args, **kwargs)

        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, key, counted)
    return calls


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestParsers:
    def test_complex_forms(self):
        assert cli.parse_complex("i") == 1j
        assert cli.parse_complex("-i") == -1j
        assert cli.parse_complex("0.5") == 0.5
        assert cli.parse_complex("1+2i") == 1 + 2j
        assert cli.parse_complex("0.3-0.4j") == 0.3 - 0.4j

    def test_map_forms(self):
        assert hc.map_distance(cli.parse_map("1,0,1,2"), hc.MoebiusMap(1, 0, 1, 2)) < 1e-15
        assert hc.map_distance(cli.parse_map("rotation:i"), hc.rotation(1j)) < 1e-15
        assert hc.map_distance(cli.parse_map("parabolic:1,1"), hc.cayley_parabolic(1, 1)) < 1e-15
        assert hc.map_distance(cli.parse_map("hyperbolic-nonauto:0.5"), hc.MoebiusMap(1, 0, 1, 2)) < 1e-15
        nf = hc.normal_form(0.3, 0.4, 1, hc.hardy())
        assert hc.map_distance(cli.parse_map("normal-form:0.3,0.4"), nf.phi) < 1e-14

    def test_weight_forms(self):
        space = hc.hardy()
        phi = cli.parse_map("1,0,1,2")
        poly = cli.parse_weight("3,2,-3", phi, space)
        assert abs(poly(1) - 2) < 1e-14
        rat = cli.parse_weight("1,1/3,-1", phi, space)
        assert abs(rat(0.5) - 1.5 / 2.5) < 1e-14
        kq = cli.parse_weight("kernel-quotient:0,2", phi, space)
        assert abs(kq(0.3) - 2) < 1e-13


class TestClassifyCommand:
    def test_parabolic(self, capsys):
        code, rep = run_json(capsys, "classify", "--map", "parabolic:1,1")
        assert code == 0
        assert rep["map_class"] == "parabolic-nonautomorphism"
        assert rep["verdict"]["outcome"] == "NotHyponormal"

    def test_rotation(self, capsys):
        code, rep = run_json(capsys, "classify", "--map", "rotation:i")
        assert code == 0
        assert rep["map_class"] == "elliptic-automorphism"
        assert rep["verdict"]["outcome"] == "Normal"

    def test_candidate(self, capsys):
        code, rep = run_json(capsys, "classify", "--map", "hyperbolic-nonauto:0.5")
        assert code == 0
        assert rep["verdict"]["outcome"] == "CandidateNotExcluded"

    def test_parse_failure_exit_2(self, capsys):
        assert cli.main(["classify", "--map", "garbage:1"]) == 2

    # Inside classify's bands: a = 0.5 + 5e-10i is off the exact form
    # (1-|c|) z/(c z + 1) by 5e-10, and c = 1e-11 is no dilation, yet
    # classify calls them a hyperbolic non-automorphism and an elliptic
    # automorphism.  The verdict cites what the class says, in classify and
    # in check with a constant weight alike.
    @pytest.mark.parametrize("command", [("classify",), ("check", "--psi=1")])
    def test_band_hyperbolic_nonautomorphism_is_the_candidate(self, capsys, command):
        code, rep = run_json(capsys, *command, "--map=0.5+5e-10j,0,0.5,1")
        assert code == 0 and rep["map_class"] == "hyperbolic-nonautomorphism"
        assert rep["verdict"]["outcome"] == "CandidateNotExcluded"
        assert rep["verdict"]["citation"] == hc.theory.CIT_HYPERBOLIC_CANDIDATE

    @pytest.mark.parametrize("command", [("classify",), ("check", "--psi=1")])
    def test_band_elliptic_automorphism_cites_no_hyperbolic_map(self, capsys, command):
        code, rep = run_json(capsys, *command, "--map=1,0,1e-11,1")
        assert code == 0 and rep["map_class"] == "elliptic-automorphism"
        assert rep["verdict"]["outcome"] == "CandidateNotExcluded"
        assert rep["verdict"]["citation"] == hc.theory.CIT_UNDECIDED
        assert "hyperbolic" not in rep["verdict"]["details"]


class TestInputOutsideHypotheses:
    @pytest.mark.parametrize("argv", [
        ("check", "--psi", "nan", "--map", "parabolic:1,1"),
        ("check", "--psi", "1,nan", "--map", "parabolic:1,1"),
        ("classify", "--map", "nan,0,0,1"),
        ("classify", "--map", "1e400,0,0,1"),
    ])
    def test_non_finite_coefficients_exit_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err

    # Poles at 0.5, just inside the unit circle, and at +-1 on it.
    @pytest.mark.parametrize("psi", ["1/1,-2", "1,0.5/1,-1.0000001", "1/1,0,-1"])
    def test_weight_pole_in_closed_disk_exit_2(self, capsys, psi):
        for command in ("check", "spectral"):
            assert cli.main([command, "--psi", psi, "--map", "parabolic:1,1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")

    # Four poles of modulus 1.01 spread round the circle: outside the closed
    # disk, though the product of their distances to it is about 1e-8.
    def test_weight_poles_just_outside_disk_are_checked(self, capsys):
        code, rep = run_json(capsys, "check", "--psi", "1/1,0,0,0,-0.961",
                             "--map", "parabolic:1,1")
        assert code == 0
        assert rep["verdict"]["outcome"] == "CandidateNotExcluded"

    @pytest.mark.parametrize("grid", ["1.5;0", "0.2;1", "nan"])
    def test_grid_point_outside_disk_exit_2(self, capsys, grid):
        code = cli.main(["check", "--psi", "1,0.5", "--map", "parabolic:1,1", "--grid", grid])
        assert code == 2
        assert "open unit disk" in capsys.readouterr().err

    @pytest.mark.parametrize("space", ["bergman:inf", "bergman:nan", "bergman:-1"])
    @pytest.mark.parametrize("argv", [
        ("classify", "--map=parabolic:1,1"),
        ("check", "--map=parabolic:1,1", "--psi=1,0.5"),
        ("spectral", "--map=parabolic:1,1", "--psi=1,0.5"),
        ("selftest",),
    ])
    def test_space_outside_theorems_exit_2(self, capsys, argv, space):
        code = cli.main([*argv, f"--space={space}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    # The kernel ratio and the kernel norm overflow a float at alpha = 1e4.
    @pytest.mark.parametrize("argv", [
        ("spectral", "--map=parabolic:1,1", "--psi=1,0.5"),
        ("spectral", "--map=1,0.5,0.5,1", "--psi=2,1"),
        ("check", "--map=hyperbolic-nonauto:0.5", "--psi=1,0.5"),
    ])
    def test_overflow_exit_2(self, capsys, argv):
        code = cli.main([*argv, "--space=bergman:1e4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: floating-point overflow") and captured.err.count("\n") == 1

    # The kernel quotient of a normal form near the circle leaves the double
    # range as alpha grows: a power factor overflows at the fixed point (64 to
    # 74), every sample on circle(0.7, 24) underflows though psi(p) = 0.7
    # (75 to 100), or samples overflow (1000).  The selftest's normal forms
    # overflow from alpha = 2000 on.  A weight's value at a point is checked too.
    @pytest.mark.parametrize("argv", [
        *(("check", "--map=normal-form:0.99999,0.4", "--psi=kernel-quotient:0.99999,0.7", f"--space=bergman:{a}")
          for a in ("64", "70", "75", "100", "1000")),
        *(("selftest", f"--space=bergman:{a}") for a in ("2000", "5000", "1e4")),
        ("check", "--map=1,0,1,-2", "--psi=1e308,1e308"),   # |psi| reaches 2e308 at the contact point 1
        ("check", "--map=parabolic:1,1", "--psi=1e308,-1e308"),
    ])
    def test_weight_outside_the_double_range_exit_2_without_warning(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([*argv, "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "double range" in captured.err and "identically zero" not in captured.err

    def test_escalate_at_large_alpha_exit_2_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["check", "--escalate", "--map=rotation:i", "--psi=2,1", "--space=bergman:1e4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: witness search:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["nan", "0", "-1"])
    def test_invalid_budget_exit_2(self, capsys, budget):
        code = cli.main(["check", "--escalate", "--map=rotation:i", "--psi=2,1", f"--budget={budget}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "budget must be positive" in captured.err

    # A grid with no point checks nothing, so it is refused rather than read as
    # "parabolic inequality holds on the grid"; the default grid finds a violation.
    @pytest.mark.parametrize("grid", [";", "", " ; "])
    def test_empty_grid_exit_2(self, capsys, grid):
        code = cli.main(["check", "--psi", "0.5,-0.25", "--map", "parabolic:1,1", "--grid", grid])
        assert code == 2
        assert "at least one point" in capsys.readouterr().err
        code, rep = run_json(capsys, "check", "--psi", "0.5,-0.25", "--map", "parabolic:1,1")
        assert code == 0 and rep["verdict"]["outcome"] == "NotHyponormal"

    @pytest.mark.parametrize("argv, message", [
        (("check", "--psi=1,abc", "--map=parabolic:1,1"), "cannot parse complex number 'abc'"),
        (("classify", "--map=1,0,1"), "a raw map needs exactly four coefficients a,b,c,d"),
        (("check", "--psi=kernel-quotient:0.3", "--map=normal-form:0.3,0.4"), "kernel-quotient takes p,value"),
    ])
    def test_malformed_input_exit_2(self, capsys, argv, message):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    # Kernel-quotient and normal-form points go through the same disk gate as --grid, NaN included.
    @pytest.mark.parametrize("argv", [
        ("check", "--psi=kernel-quotient:nan,1", "--map=normal-form:0.3,0.4"),
        ("check", "--psi=kernel-quotient:1,1", "--map=normal-form:0.3,0.4"),
        ("classify", "--map=normal-form:nan,0.4"),
        ("spectral", "--map=normal-form:-2j,0.4"),
    ])
    def test_disk_point_refused_exit_2(self, capsys, argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "open unit disk" in captured.err


class TestCheckCommand:
    def test_worked_example(self, capsys):
        code, rep = run_json(capsys, "check", "--psi", "3,2,-3", "--map", "parabolic:1,1",
                             "--space", "hardy")
        assert code == 0
        assert rep["verdict"]["outcome"] == "NotHyponormal"
        assert "kernel norm-ratio" in rep["verdict"]["citation"]

    def test_kernel_quotient_normal(self, capsys):
        code, rep = run_json(capsys, "check", "--psi", "kernel-quotient:0.3,1",
                             "--map", "normal-form:0.3,0.4")
        assert code == 0
        assert rep["verdict"]["outcome"] == "Normal"

    def test_kernel_quotient_normal_near_the_circle(self, capsys):
        # The kernel at 0.99999 is admitted, and the comparison's tolerance
        # grows with its conditioning (1 - |p|^2)^-2.
        code, rep = run_json(capsys, "check", "--psi", "kernel-quotient:0.99999,0.7",
                             "--map", "normal-form:0.99999,0.4")
        assert code == 0
        assert rep["verdict"]["outcome"] == "Normal"

    def test_kernel_quotient_normal_at_large_alpha(self, capsys):
        # The kernel quotient's values reach 5e14 on |z| = 0.7 here; psi(p) = 1
        # is still not a zero.
        code, rep = run_json(capsys, "check", "--map=normal-form:0.4i,-0.4",
                             "--psi=kernel-quotient:0.4i,1", "--space=bergman:150")
        assert code == 0
        assert rep["verdict"]["outcome"] == "Normal"

    def test_weight_vanishing_at_the_interior_fixed_point(self, capsys):
        # -0.3 + z vanishes at p = 0.3, where the normal form needs psi(p) != 0.
        code, rep = run_json(capsys, "check", "--psi=-0.3,1", "--map=normal-form:0.3,0.4")
        assert code == 0
        assert rep["verdict"]["outcome"] == "NotHyponormal"
        assert rep["verdict"]["details"] == "weight vanishes at the interior fixed point"

    def test_candidate_with_bounds(self, capsys):
        code, rep = run_json(capsys, "check", "--psi", "1", "--map", "1,0,1,2")
        assert code == 0
        assert rep["verdict"]["outcome"] == "CandidateNotExcluded"
        assert rep["spectral"]["norm_lower"] == pytest.approx(2 ** -0.5)
        assert rep["spectral"]["norm_upper"] == pytest.approx(1.0)

    def test_zero_weight_exit_2(self, capsys):
        assert cli.main(["check", "--psi", "0", "--map", "1,0,1,2"]) == 2

    def test_zero_weight_is_refused_before_the_map(self, capsys):
        # 2z is no self-map, yet the zero weight is what check reports.
        assert cli.main(["check", "--map=2,0,0,1", "--psi=0"]) == 2
        assert "identically zero" in capsys.readouterr().err

    def test_norm_bound_errors_reach_the_exit_code(self, capsys, monkeypatch):
        # Only TheoryUnavailableError drops the spectral block; any other
        # library error is an input error.
        def not_fixed(*args, **kwargs):
            raise NotAFixedPointError("p is not a fixed point of the symbol")

        monkeypatch.setattr(cli, "norm_bounds", not_fixed)
        code = cli.main(["check", "--psi", "1", "--map", "1,0,1,2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: p is not a fixed point of the symbol\n"

    # In check, classify_weighted, the map_class field and norm_bounds each
    # classify the map once; in spectral, the one closed-form dispatch
    # classifies it once.  No other step does.
    @pytest.mark.parametrize("argv", [
        ("check", "--map=parabolic:1,1", "--psi=1,0.5"),
        ("check", "--map=rotation:i", "--psi=2,1", "--escalate"),
        ("spectral", "--map=0.5,0,0,1", "--psi=1"),
        ("spectral", "--map=hyperbolic-nonauto:0.5", "--psi=1"),
        ("spectral", "--map=parabolic:1,1", "--psi=1,0.5"),
    ])
    def test_classifies_at_most_three_times(self, capsys, monkeypatch, argv):
        calls = count_calls(monkeypatch, moebius.classify)
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        assert calls["classify"] == 1 if argv[0] == "spectral" else 1 <= calls["classify"] <= 3

    # Each traced theory function the command calls classifies the map once:
    # classify_unweighted in classify, classify_weighted and norm_bounds in
    # check, spectral_report in spectral.  check tests the weight's constancy
    # once (in classify_weighted) and the zero test of an automorphism's r
    # runs only where r is reported.
    @pytest.mark.parametrize("argv, want", [
        (("classify", "--map=1,0.5,0.5,1"), (1, 0, 0)),
        (("check", "--map=1,0.5,0.5,1", "--psi=2,1"), (2, 1, 0)),
        (("spectral", "--map=1,0.5,0.5,1", "--psi=2,1"), (1, 1, 1)),
    ])
    def test_each_fact_is_derived_once_per_call(self, capsys, monkeypatch, argv, want):
        calls = count_calls(monkeypatch, moebius.classify, funcalg.is_value_constant,
                            funcalg.no_zero_in_closed_disk)
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        assert (calls["classify"], calls["is_value_constant"], calls["no_zero_in_closed_disk"]) == want

    # --order is the witness search's starting order, passed through as given.
    @pytest.mark.parametrize("order", [8, 128])
    def test_order_starts_the_witness_search(self, capsys, order):
        code, rep = run_json(capsys, "check", "--map=rotation:i", "--psi=2,1", "--escalate",
                             f"--order={order}")
        assert code == 0
        assert rep["verdict"]["outcome"] == "CertifiedNotNumeric"
        assert rep["verdict"]["witness"]["order"] == order

    def test_tail_bound_below_the_double_range_is_positive(self, capsys):
        code, rep = run_json(capsys, "check", "--escalate", "--map=rotation:i", "--psi=2,1",
                             "--space=bergman:350", "--order=1024")
        assert code == 0 and rep["verdict"]["outcome"] == "CertifiedNotNumeric"
        assert rep["verdict"]["witness"]["tail_bound"] > 0.0

    def test_escalation_attaches_witness(self, capsys):
        code, rep = run_json(capsys, "check", "--psi", "2,1", "--map", "1,0.5,0.5,1",
                             "--escalate", "--budget", "15", "--order", "64")
        assert code == 0
        if rep["verdict"]["outcome"] == "CertifiedNotNumeric":
            w = rep["verdict"]["witness"]
            assert w["adjoint_norm"] > w["forward_norm"]


class TestSpectralCommand:
    def test_near_circle_contraction(self, capsys):
        # The Denjoy-Wolff point 1 - 1e-6 lies in the disk: r = |psi(p)|,
        # r_e = 0, where the rounded point read as a boundary one.
        code, rep = run_json(capsys, "spectral", "--map=normal-form:0.999999,0.4", "--psi=1")
        assert code == 0
        assert rep["spectral"]["r"] == 1.0 and rep["spectral"]["r_e"] == 0.0

    @DERANDOMIZED
    @given(seed=st.integers(0, 2**32 - 1), label=st.sampled_from(("hardy", "bergman:0", "bergman:1")))
    def test_check_and_spectral_print_the_same_norm_upper(self, seed, label):
        # alpha_q o ((1 - |c|) z/(c z + 1)) o alpha_q fixes q and its contact point.
        rng = np.random.default_rng(seed)
        q = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()) * rng.integers(0, 2)
        c = (0.1 + 0.8 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        a = hc.alpha_p(q)
        phi = hc.compose(a, hc.compose(hc.hyperbolic_nonauto_form(c), a))
        psi = ",".join(repr(complex(x)) for x in rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        spec = ",".join(repr(complex(x)) for x in phi.coefficients())
        code, chk = _main_json("check", f"--map={spec}", f"--psi={psi}", f"--space={label}")
        scode, spc = _main_json("spectral", f"--map={spec}", f"--psi={psi}", f"--space={label}")
        assert code == scode == 0
        if spc["spectral"]["citations"]["norm_upper"].startswith("dropped: "):
            assert spc["spectral"]["norm_upper"] is None
        else:
            assert spc["spectral"]["norm_upper"] == chk["spectral"]["norm_upper"]

    def test_parabolic_weighted(self, capsys):
        code, rep = run_json(capsys, "spectral", "--psi", "0.5,-0.25", "--map", "parabolic:1,1")
        assert code == 0
        assert rep["spectral"]["r"] == pytest.approx(0.25)

    def test_hyperbolic_automorphism(self, capsys):
        code, rep = run_json(capsys, "spectral", "--psi", "1", "--map", "1,0.5,0.5,1")
        assert code == 0
        assert rep["spectral"]["r_e"] == pytest.approx(3 ** 0.5)
        code, rep = run_json(capsys, "spectral", "--psi", "1", "--map", "1,0.5,0.5,1",
                             "--space", "bergman:0")
        assert rep["spectral"]["r_e"] == pytest.approx(3.0)

    def test_undecided_zero_test_is_not_an_input_error(self, capsys):
        # The weight's zero sits on the zero test's circle: r is unavailable, exit 0.
        code, rep = run_json(capsys, "spectral", "--psi", "1,-0.999999000001", "--map", "1,0.5,0.5,1")
        assert code == 0
        assert rep["spectral"]["r"] is None
        assert "zero test" in rep["spectral"]["citations"]["r"]

    def test_dilation_with_numeric(self, capsys):
        code, rep = run_json(capsys, "spectral", "--psi", "1", "--map", "0.5,0,0,1",
                             "--numeric", "--order", "24")
        assert code == 0
        assert rep["spectral"]["r"] == pytest.approx(1.0)
        assert any("advisory" in d for d in rep["diagnostics"])

    def test_require_all_exit_3(self, capsys):
        # z/(z+2): both radii unavailable (interior Denjoy-Wolff, candidate only)
        code, _ = run_json(capsys, "spectral", "--psi", "1", "--map", "1,0,1,2",
                           "--require-all")
        assert code == 3

    def test_dump_files(self, capsys, tmp_path):
        mpath = tmp_path / "m.csv"
        epath = tmp_path / "e.csv"
        code, _ = run_json(capsys, "spectral", "--psi", "1", "--map", "0.5,0,0,1",
                           "--numeric", "--order", "16",
                           "--dump-matrix", str(mpath), "--dump-eigs", str(epath))
        assert code == 0
        assert mpath.read_text().splitlines()[0] == "n,j,re,im"
        assert epath.read_text().splitlines()[0] == "k,re,im"

    @pytest.mark.parametrize("dump", ["--dump-matrix", "--dump-eigs"])
    def test_dumps_write_the_full_order_of_a_compact_section(self, capsys, tmp_path, dump):
        # The analysis would build only the proved leading block; a dump asks for all N.
        n = 128
        assert matrixrep.proved_block_order(hc.polynomial_fn(1), hc.dilation(0.5), hc.hardy(), n) < n
        path = tmp_path / "dump.csv"
        code, _ = run_json(capsys, "spectral", "--psi", "1", "--map", "0.5,0,0,1",
                           "--numeric", "--order", str(n), dump, str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 1 + (n * n if dump == "--dump-matrix" else n)


class TestNumericDiagnostics:
    SMALL = ("--numeric", "--order", "64")

    @pytest.mark.parametrize("psi,spec,forms", [
        ("1,0.5/1,-0.4", "0.5,0,0,1", 0),
        ("kernel-quotient:0.3,0.7", "normal-form:0.3,0.4", 0),
        ("2,1", "1,0,0,1", 1),
    ])
    def test_gelfand_forms_the_power_only_when_steps_stall(self, capsys, monkeypatch, psi, spec, forms):
        calls = []
        real = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda a, k: calls.append(k) or real(a, k))
        code, _ = run_json(capsys, "spectral", "--psi", psi, "--map", spec, *self.SMALL)
        assert code == 0
        assert len(calls) == forms

    def test_section_norm_below_the_proved_bound_is_flagged(self, capsys):
        # Near the circle the N=64 section misses most of the operator: its
        # norm falls below the report's proved norm_lower.
        code, rep = run_json(capsys, "spectral", "--map", "normal-form:0.999,0.4",
                             "--psi", "kernel-quotient:0.999,0.7", *self.SMALL)
        assert code == 0
        *values, advisory = rep["diagnostics"]
        norm, lower = float(values[0].rsplit(" ", 1)[1]), rep["spectral"]["norm_lower"]
        assert norm < lower
        ratio = re.fullmatch(r"advisory finite-section N=64: section norm is (\S+) times "
                             r"the proved norm_lower; raise --order", advisory)
        assert float(ratio.group(1)) == pytest.approx(norm / lower, rel=1e-5)
        # perfbench reads the three values by this pattern; the advisory must not match it.
        assert not re.search(r"(operator norm|truncation spectral radius|gelfand estimate k=8) (\S+)$",
                             advisory)

    def test_text_format_prints_the_diagnostics(self, capsys):
        argv = ("spectral", "--psi", "2,1", "--map", "0.5,0,0,1", *self.SMALL)
        _, rep = run_json(capsys, *argv)
        code, out = run(capsys, *argv, "--format=text")
        assert code == 0 and len(rep["diagnostics"]) == 3
        assert [line for line in out.splitlines() if line.startswith("diagnostic: ")] == [
            f"diagnostic: {d}" for d in rep["diagnostics"]]

    @staticmethod
    def _numbers(rep):
        return [float(d.rsplit(" ", 1)[1]) for d in rep["diagnostics"]]

    @pytest.mark.parametrize("scale", ["1e20", "1e-20", "1e300", "1e-300"])
    def test_weight_scale_carries_through(self, capsys, scale):
        _, base = run_json(capsys, "spectral", "--psi", "1", "--map", "0.5,0,0,1", *self.SMALL)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, rep = run_json(capsys, "spectral", "--psi", scale, "--map", "0.5,0,0,1", *self.SMALL)
        assert code == 0
        want = [float(scale) * x for x in self._numbers(base)]
        assert self._numbers(rep) == pytest.approx(want, rel=1e-10)


def _poly(coeffs, c):
    return ",".join(repr(c * x) for x in coeffs)


# (map, weight for the scale c): c times a weight of each kind the maps meet.
_SCALED_WEIGHTS = (
    ("parabolic:1,1", lambda c: _poly((1, 0.5), c)),
    ("parabolic:1,1", lambda c: _poly((0.5, -0.25), c)),
    ("parabolic:1,1", lambda c: f"{_poly((1, 0.3), c)}/1,-0.4"),
    ("parabolic:1,1", lambda c: _poly((1,), c)),
    ("parabolic:1,1", lambda c: f"1/{_poly((2, 1), 1 / c)}"),
    ("0.5,0,0,1", lambda c: _poly((1, 0.5), c)),
    ("0.5,0,0,1", lambda c: _poly((1,), c)),
    ("normal-form:0.3,0.4", lambda c: f"kernel-quotient:0.3,{c * 0.7!r}"),
    ("normal-form:0.3,0.4", lambda c: _poly((1, 0.5), c)),
    ("1,0,1,2", lambda c: _poly((1, 1), c)),
    ("1,0,1,2", lambda c: _poly((2, 1), c)),
    ("hyperbolic-nonauto:0.5", lambda c: _poly((1, 0.5), c)),
    ("1,0.5,0.5,1", lambda c: _poly((2, 1), c)),
    ("1,0.5,0.5,1", lambda c: _poly((1, -0.9), c)),
    ("rotation:i", lambda c: _poly((2, 1), c)),
    ("1,0,0,1", lambda c: _poly((2, 1), c)),
)


def _main_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    return code, json.loads(out.getvalue())


def _decisions(spec, psi):
    code, chk = _main_json("check", "--psi", psi, "--map", spec)
    scode, spc = _main_json("spectral", "--psi", psi, "--map", spec)
    return (code, chk["verdict"]["outcome"], chk["verdict"]["citation"],
            scode, spc["spectral"]["citations"], spc["spectral"]["r_e"] is None)


@DERANDOMIZED
@given(case=st.sampled_from(_SCALED_WEIGHTS), j=st.integers(-80, 80))
def test_weight_scale_changes_no_decision(case, j):
    # Hyponormality of c C is that of C for every c != 0.
    spec, weight = case
    assert _decisions(spec, weight(2.0**j)) == _decisions(spec, weight(1.0))


@pytest.mark.parametrize("j", [27, 60])
def test_scaled_base_denominator_is_decided(j):
    # c/(2 + z): the base denominator (2 + z)/c is zero-tested at unit scale,
    # so a tiny one is decided like 2 + z, not refused as indeterminate.
    psi = f"1/{_poly((2, 1), 2.0**-j)}"
    assert _decisions("parabolic:1,1", psi) == _decisions("parabolic:1,1", "1/2,1")
    assert _decisions("parabolic:1,1", psi)[0] == 0


def test_tiny_weights_are_not_constant_or_zero(capsys):
    _, rep = run_json(capsys, "check", "--psi", "1e-13,5e-14", "--map", "0.5,0,0,1")
    assert rep["verdict"]["outcome"] == "NotHyponormal"
    _, rep = run_json(capsys, "spectral", "--psi", "1e-13,5e-14", "--map", "parabolic:1,1")
    assert rep["spectral"]["r_e"] is None
    code, _ = run_json(capsys, "check", "--psi", "1e-20", "--map", "0.5,0,0,1")
    assert code == 0
    code, _ = run(capsys, "check", "--psi", "0", "--map", "0.5,0,0,1")
    assert code == 2


def _closed_or_none(closed_form, *args):
    try:
        return closed_form(*args)
    except TheoryUnavailableError:
        return None


@DERANDOMIZED
@given(seed=st.integers(0, 2**32 - 1), alpha=st.none() | st.floats(0.0, 4.0))
def test_commands_and_closed_forms_agree_on_every_class(seed, alpha):
    # classify and check print the class moebius.classify finds and the
    # verdict carries; spectral_report gives r, r_e and the norm bounds
    # exactly where the public closed-form functions give them.
    rng = np.random.default_rng(seed)
    label = "hardy" if alpha is None else f"bergman:{alpha!r}"
    space = hc.space_from_label(label)
    for phi in maps_of_every_kind(rng):
        spec = ",".join(repr(complex(x)) for x in phi.coefficients())
        kind = hc.classify(phi).kind.value
        code, rep = _main_json("classify", f"--map={spec}", f"--space={label}")
        assert code == 0 and rep["map_class"] == kind == hc.classify_unweighted(phi, space).map_kind.value
        for weight, psi in (("2", hc.constant_fn(2.0)), ("1,0.5", hc.polynomial_fn(1, 0.5))):
            code, rep = _main_json("check", f"--map={spec}", f"--psi={weight}", f"--space={label}")
            assert code == 0 and rep["map_class"] == kind
            assert hc.classify_weighted(psi, phi, space).map_kind.value == kind
            report = hc.spectral_report(psi, phi, space)
            r = _closed_or_none(hc.spectral_radius_closed, psi, phi, space)
            assert report.r == (None if r is None else r.value)
            assert report.citations["r"].startswith("unavailable") is (r is None)
            # r_e(C_{c,phi}) = |c| r_e(C_phi); past a compact C only a constant weight has one.
            r_e = _closed_or_none(hc.essential_spectral_radius_closed, phi, space)
            if r_e is not None and (weight == "2" or r_e.value == 0.0):
                assert report.r_e == abs(psi(0)) * r_e.value
            else:
                assert report.r_e is None
            nb = _closed_or_none(hc.norm_bounds, psi, phi, space)
            assert ("spectral" in rep) is (nb is not None)
            assert report.citations["norm_upper"].startswith("unavailable") is (nb is None)
            assert report.norm_upper is None or report.norm_upper == nb.upper


class TestConvergenceExit:
    def test_exit_4(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ConvergenceFailureError("stalled")

        monkeypatch.setattr(cli.matrixrep, "operator_norm", boom)
        code = cli.main(["spectral", "--psi", "1", "--map", "0.5,0,0,1",
                         "--numeric", "--order", "16"])
        assert code == 4

    def test_exit_4_from_lapack(self, capsys, monkeypatch):
        # The N=16 section is too small for a Lanczos pass, so its norm is
        # LAPACK's; exit 4 is LAPACK failing to converge.
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        code = cli.main(["spectral", "--numeric", "--order=16", "--map=0.5,0,0,1", "--psi=1,0.5"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: LAPACK singular values did not converge: SVD did not converge\n"

    def test_exit_4_from_lapack_eigenvalues(self, capsys, monkeypatch):
        # A non-triangular section whose Krylov pass does not converge goes to
        # LAPACK's eigvals; its LinAlgError (a ValueError) exits 4, not 2.
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli.matrixrep, "_krylov_schur", lambda apply, v, budget, hermitian=False: None)
        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        code = cli.main(["spectral", "--numeric", "--order=64", "--map=parabolic:1,1", "--psi=1,0.5"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: LAPACK eigenvalues did not converge: Eigenvalues did not converge\n"

    def test_exit_4_from_dumped_eigenvalues(self, capsys, monkeypatch, tmp_path):
        # A triangular section needs no eigensolve for its radius, but
        # --dump-eigs does, and a LAPACK failure there exits 4 too.
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        code = cli.main(["spectral", "--numeric", "--order=16", "--map=0.5,0,0,1", "--psi=1,0.5",
                         f"--dump-eigs={tmp_path / 'eigs.csv'}"])
        assert code == 4
        assert capsys.readouterr().err == "error: LAPACK eigenvalues did not converge: Eigenvalues did not converge\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args, want", [
        *((args, 0) for args in (
            "--order=64 --map=0.5,0,0,1 --psi=2,1/1,-0.4",
            "--order=64 --map=normal-form:0.3,0.4 --psi=kernel-quotient:0.3,0.7 --space=bergman:0",
            "--order=64 --map=normal-form:0.99999,0.4 --psi=kernel-quotient:0.99999,0.7",
            "--order=64 --map=1,0.5,0.5,1 --psi=2,1",
            "--order=64 --map=parabolic:1,1 --psi=1,0.5 --space=bergman:1",
            "--order=64 --map=1,0,0,1 --psi=2,1",
            "--order=64 --map=rotation:i --psi=2,1",
            "--order=64 --map=parabolic:1,1 --psi=1,0.5",
            "--order=64 --map=0.9,0,0,1 --psi=1,0.5",
            "--order=64 --map=0.5,0,0,1 --psi=1e20",
            "--order=64 --map=0.5,0,0,1 --psi=1e-20",
            "--order=64 --map=0.5,0,0,1 --psi=0,1",
        )),
        # beta(N - 1) underflows to 0: the section leaves the double range.
        *((f"--order=1024 --map=0.5,0,0,1 --psi=1,0.5 --space=bergman:{a}", 2) for a in (550, 600, 650, 700)),
        ("--order=256 --map=0.5,0,0,1 --psi=1,0.5 --space=bergman:2000", 2),
        # beta(i) / beta(j) reaches 1e161 and an entry overflows to inf.
        ("--order=1024 --map=1,0.5,0.5,1 --psi=1e300 --space=bergman:300", 2),
    ])
    def test_numeric_diagnostics_run_without_warnings(self, capsys, args, want):
        code = cli.main(["spectral", "--numeric", *args.split(), "--json"])
        captured = capsys.readouterr()
        assert code == want
        if want == 2:
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith("error:") and "double range" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("psi", ["1e300", "1e-300"])
    def test_extreme_weights_run_without_warnings(self, psi):
        # Every finite-section routine works on the section scaled by a power of two.
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["spectral", "--numeric", "--order=256", "--map=1,0.5,0.5,1", f"--psi={psi}"])
        assert code == 0


class TestOutputContracts:
    def test_json_roundtrip_all_commands(self, capsys):
        for argv in (
            ["classify", "--map", "rotation:i"],
            ["check", "--psi", "1", "--map", "1,0,1,2"],
            ["spectral", "--psi", "0.5,-0.25", "--map", "parabolic:1,1"],
            ["selftest", "--space", "bergman:0"],
        ):
            _, out = run(capsys, *argv, "--format", "json")
            rep = json.loads(out)
            assert json.loads(json.dumps(rep)) == rep
            assert isinstance(rep["wall_time_ms"], float) and rep["wall_time_ms"] >= 0.0

    def test_schema_keys(self, capsys):
        _, rep = run_json(capsys, "check", "--psi", "1", "--map", "1,0,1,2")
        assert set(rep) == {"input", "space", "map_class", "verdict", "spectral",
                            "diagnostics", "wall_time_ms"}
        assert {"outcome", "citation", "details"} <= set(rep["verdict"])
        assert {"r", "r_e", "norm_lower", "norm_upper", "citations"} == set(rep["spectral"])

    def test_deterministic_modulo_walltime(self, capsys):
        reps = []
        for _ in range(2):
            _, rep = run_json(capsys, "check", "--psi", "0.5,-0.25", "--map", "parabolic:1,1")
            rep.pop("wall_time_ms")
            reps.append(json.dumps(rep, sort_keys=True))
        assert reps[0] == reps[1]

    def test_csv_format(self, capsys):
        code, out = run(capsys, "classify", "--map", "rotation:i", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,value"
        assert any(line.startswith("verdict.outcome,") for line in lines)

    def test_json_flag_shorthand(self, capsys):
        code, out = run(capsys, "classify", "--map", "rotation:i", "--json")
        assert code == 0
        assert json.loads(out)["verdict"]["outcome"] == "Normal"

    @pytest.mark.parametrize("alpha", ["-0.999999999999", "0.30000000000000004"])
    def test_space_label_round_trips(self, capsys, alpha):
        _, rep = run_json(capsys, "classify", "--map=parabolic:1,1", f"--space=bergman:{alpha}")
        assert rep["space"] == f"bergman:{alpha}"
        code, again = run_json(capsys, "classify", "--map=parabolic:1,1", f"--space={rep['space']}")
        assert code == 0 and again["space"] == rep["space"]

    @pytest.mark.parametrize("command", ["check", "spectral"])
    @pytest.mark.parametrize("order", ["7", "1025"])
    def test_order_outside_range_exit_2(self, capsys, command, order):
        code = cli.main([command, "--psi", "1", "--map", "0.5,0,0,1", "--order", order])
        assert code == 2
        assert "truncation order must lie in [8, 1024]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "selftest"])
    @pytest.mark.parametrize("flag", ["--seed", "--order"])
    def test_options_registered_where_read(self, capsys, command, flag):
        argv = [command, flag, "64"] + (["--map", "rotation:i"] if command == "classify" else [])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 64" in capsys.readouterr().err


class TestSelftest:
    def test_default_battery_passes(self, capsys):
        code, rep = run_json(capsys, "selftest")
        assert code == 0
        assert rep["passed_count"] == rep["total_count"]
        assert rep["total_count"] >= 10

    def test_space_override(self, capsys):
        code, rep = run_json(capsys, "selftest", "--space", "bergman:1")
        assert code == 0
        assert rep["passed_count"] == rep["total_count"]
        assert "bergman:1" in rep["input"]["spaces"]

    @pytest.mark.parametrize("alpha", ["150", "300", "1000"])
    def test_large_alpha_battery_passes(self, capsys, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, rep = run_json(capsys, "selftest", f"--space=bergman:{alpha}")
        assert code == 0
        assert rep["passed_count"] == rep["total_count"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_failing_item_exits_1_with_report(self, capsys, monkeypatch, fmt):
        battery = cli._selftest_items

        def one_failure(labels):
            items = battery(labels)
            items[0] = dict(items[0], passed=False)
            return items

        monkeypatch.setattr(cli, "_selftest_items", one_failure)
        code, out = run(capsys, "selftest", "--format", fmt)
        assert code == 1
        if fmt == "json":
            rep = json.loads(out)
            assert rep["passed_count"] == rep["total_count"] - 1
            assert rep["items"][0]["passed"] is False
        else:
            lines = out.splitlines()
            assert lines[2].startswith("FAIL  ")
            total = len(lines) - 3
            assert lines[-1] == f"{total - 1}/{total} items passed"


class TestSharedParser:
    """main parses every call against one parser, built on its first call."""

    def test_golden_reports_replayed_in_reverse(self):
        cli._build_parser.cache_clear()
        for case in reversed(CASES):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(case["argv"])
            assert code == case["exit"], case["argv"]
            report = json.loads(out.getvalue())
            report.pop("wall_time_ms")
            assert_matches(report, case["report"])

    def test_rejected_call_leaves_the_next_one_alone(self, capsys):
        cli._build_parser.cache_clear()
        _, before = run_json(capsys, "classify", "--map=parabolic:1,1")
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--seed=1"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, after = run_json(capsys, "classify", "--map=parabolic:1,1")
        assert code == 0
        before.pop("wall_time_ms")
        after.pop("wall_time_ms")
        assert after == before

    def test_no_option_carries_over(self, capsys):
        code, rep = run_json(capsys, "check", "--escalate", "--map=rotation:i", "--psi=2,1")
        assert code == 0 and "witness" in rep["verdict"]
        code, out = run(capsys, "check", "--map=rotation:i", "--psi=2,1")
        assert code == 0
        assert out.startswith("input: ") and "witness" not in out

    def test_built_once_per_process(self, capsys, monkeypatch):
        init = argparse.ArgumentParser.__init__
        built = []

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._build_parser.cache_clear()
        for argv in 5 * [("classify", "--map=rotation:i"),
                         ("check", "--map=1,0,1,2", "--psi=1"),
                         ("spectral", "--map=parabolic:1,1", "--psi=1,0.5"),
                         ("selftest", "--json")]:
            assert cli.main(list(argv)) == 0
        capsys.readouterr()
        assert len(built) <= 5   # the root parser and its four subcommands
