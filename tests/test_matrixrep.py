"""Finite sections: builds, commutators, norms, kernel identities, dumps."""

import cmath
import contextlib
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

import hypocomp as hc
from hypocomp import cli, funcalg, matrixrep
from hypocomp.errors import HypocompError, InvalidParameterError, OutsideDiskError, PrecisionLossError
from hypocomp.funcalg import rational
from hypocomp.matrixrep import AdjointResidual, KernelImages, KernelNorms, _kernel_tail, kernel_gram_forms
from hypocomp.theory import _top_eigenpair

from conftest import DERANDOMIZED, random_disk_points, random_self_maps
from test_theory import maps_of_every_kind


def cauchy_product_oracle(a, b, n):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    out = []
    for k in range(n):
        out.append(sum((a[i] * b[k - i] for i in range(k + 1)
                        if i < len(a) and k - i < len(b)), Fraction(0)))
    return out


class TestBuildWeightedComposition:
    def test_dilation_diagonal_hardy(self, H2):
        m = hc.build_weighted_composition(1, hc.dilation(0.5), H2, 3)
        assert np.allclose(m.entries, np.diag([1, 0.5, 0.25]))

    def test_dilation_diagonal_bergman(self, A0):
        m = hc.build_weighted_composition(1, hc.dilation(0.5), A0, 3)
        assert np.allclose(m.entries, np.diag([1, 0.5, 0.25]))

    def test_parabolic_columns(self, H2, psi_one, parabolic_map):
        # column 0 = psi coefficients; column 1 = psi*phi by the product oracle
        m = hc.build_weighted_composition(psi_one, parabolic_map, H2, 2)
        assert np.allclose(m.entries[:, 0], [0.5, -0.25])
        oracle = cauchy_product_oracle(
            [Fraction(1, 2), Fraction(-1, 4)], [Fraction(1, 3), Fraction(4, 9)], 2
        )
        assert oracle == [Fraction(1, 6), Fraction(5, 36)]
        assert np.allclose(m.entries[:, 1], [float(x) for x in oracle], atol=1e-15)

    def test_lower_triangular_when_origin_fixed(self, H2, half_shift_map):
        for phi in (hc.dilation(0.4), half_shift_map, hc.MoebiusMap(1, 0, 1, -2)):
            m = hc.build_weighted_composition(1, phi, H2, 24)
            upper = np.triu(m.entries, k=1)
            assert np.all(upper == 0)

    def test_rejects_expansion(self, H2):
        with pytest.raises(hc.NotSelfMapError):
            hc.build_weighted_composition(1, hc.MoebiusMap(2, 0, 0, 1), H2, 8)

    def test_non_moebius_symbol_refused(self, H2):
        # Sections take a linear-fractional phi only: even the self-map
        # 0.8 z^2 is refused, and before scipy is loaded.
        with pytest.raises(InvalidParameterError):
            hc.build_weighted_composition(1, hc.polynomial_fn(0, 0, 0.8), H2, 8)
        out = _fresh_process(
            "try:\n"
            "    hypocomp.build_weighted_composition(1, hypocomp.polynomial_fn(0, 0, 0.8),\n"
            "                                        hypocomp.hardy(), 8)\n"
            "except hypocomp.InvalidParameterError:\n"
            "    print('refused', 'scipy' in sys.modules)\n"
        )
        assert out == ["refused", "False"]


def reference_section(psi, phi, space, n):
    """Column j = psi * phi^j / beta(j) by repeated truncated Cauchy products."""
    phi_series = hc.expand_analytic(hc.AnalyticFunction(rational((phi.b, phi.a), (phi.d, phi.c))), n)
    col = hc.expand_analytic(psi, n)
    b = hc.beta_array(space, n)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        out[:, j] = col * b / b[j]
        col = np.convolve(col, phi_series)[:n]
    return out


angle = st.floats(0.0, 2.0 * math.pi)
unimodular = angle.map(lambda t: cmath.exp(1j * t))


def disk(radius):
    # No modulus in (0, 1e-3): 1 + 1e-320 z has a root too large to compute.
    modulus = st.one_of(st.just(0.0), st.floats(1e-3, radius))
    return st.builds(lambda r, u: r * u, modulus, unimodular)


@st.composite
def self_maps(draw):
    """Linear-fractional self-maps of every kind."""
    kind = draw(st.sampled_from(("automorphism", "parabolic", "fixes-0", "interior")))
    lam = draw(unimodular)
    r = draw(st.floats(0.05, 0.95))
    if kind == "automorphism":
        return hc.compose(hc.rotation(lam), hc.alpha_p(draw(disk(0.7))))
    if kind == "parabolic":
        return hc.cayley_parabolic(lam, complex(draw(st.floats(0.0, 2.0)), draw(st.floats(-1.0, 1.0))))
    if kind == "fixes-0":
        # r lam z / (1 - c z) with |c| < 1 - r maps the closed disk into the disk.
        c = (1.0 - r) * draw(st.floats(0.0, 0.99)) * draw(unimodular)
        return hc.MoebiusMap(r * lam, 0, -c, 1)
    return hc.compose(hc.alpha_p(draw(disk(0.7))), hc.dilation(r * lam))


weights = st.one_of(
    st.just(hc.constant_fn(1.0)),
    st.lists(disk(0.7), max_size=3).map(lambda c: hc.polynomial_fn(1, *c)),
    st.builds(lambda a, b: hc.rational_fn((1, a), (1, b)), disk(0.7), disk(0.7)),
)
spaces = st.one_of(st.just(hc.hardy()), st.floats(-0.5, 3.0).map(hc.bergman))


@DERANDOMIZED
@given(weights, self_maps(), spaces, st.integers(1, 256))
def test_build_matches_repeated_cauchy_products(psi, phi, space, n):
    got = hc.build_weighted_composition(psi, phi, space, n).entries
    want = reference_section(psi, phi, space, n)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def column_recurrence_section(psi, phi, space, n):
    """The section column by column, as a reference: column j + 1 is column j
    times phi, a banded product with the Toeplitz matrix of phi's numerator
    (BLAS tbmv) then a banded solve with that of its denominator (tbsv), each
    column scaled to beta(i) / beta(j) as it is stored."""
    phi_r = rational((phi.b, phi.a), (phi.d, phi.c))

    def band(p):
        c = np.asarray(p.coefficients[:n])
        return np.asfortranarray(np.repeat(c[:, None], n, axis=1)), c.size - 1

    (num, kn), (den, kd) = band(phi_r.num), band(phi_r.den)
    col = hc.expand_analytic(psi, n)
    b = hc.beta_array(space, n)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        out[:, j] = col * b / b[j]
        col = scipy.linalg.blas.ztbmv(kn, num, col, lower=1)
        col = scipy.linalg.blas.ztbsv(kd, den, col, lower=1)
    return out


@st.composite
def origin_fixing_maps(draw):
    """Self-maps with phi(0) = 0, whose rows need no solve."""
    kind = draw(st.sampled_from(("fixes-0", "hyperbolic non-automorphism", "dilation", "rotation",
                                 "multiplication")))
    lam = draw(unimodular)
    if kind == "fixes-0":
        r = draw(st.floats(0.05, 0.95))
        return hc.MoebiusMap(r * lam, 0, -(1.0 - r) * draw(st.floats(0.0, 0.99)) * draw(unimodular), 1)
    if kind == "hyperbolic non-automorphism":
        return hc.hyperbolic_nonauto_form(draw(st.floats(0.05, 0.95)) * lam)
    if kind == "dilation":
        return hc.dilation(draw(st.floats(0.05, 1.0)) * lam)
    if kind == "rotation":
        return hc.rotation(lam)
    return hc.MoebiusMap(1, 0, 0, 1)


@DERANDOMIZED
@given(weights, origin_fixing_maps(), spaces, st.integers(1, 256))
def test_origin_fixing_sections_are_the_column_recurrence_bit_for_bit(psi, phi, space, n):
    # With b = 0 a row does, entry by entry, the arithmetic tbmv and tbsv do
    # down the columns, and the triangle above the diagonal stays exactly zero,
    # so truncation_spectral_radius keeps reading the diagonal.
    got = hc.build_weighted_composition(psi, phi, space, n).entries
    assert np.array_equal(got, column_recurrence_section(psi, phi, space, n))
    assert not np.triu(got, 1).any()


def tbsv_section(psi, phi, space, n):
    """The section row by row, each row solved serially by BLAS tbsv, as a
    reference for the doubling scan: row i solves Q[i, 0] = psi_i and
    d Q[i, j+1] - b Q[i, j] = a Q[i-1, j] - c Q[i-1, j+1]."""
    a, b, c, d = phi.a, phi.b, phi.c, phi.d
    band = np.empty((2, n), dtype=complex, order="F")   # diagonal (1, d, d, ...), subdiagonal -b
    band[0], band[1] = d, -b
    band[0, 0] = 1.0
    q = np.zeros((n, n), dtype=complex)
    q[:, 0] = hc.expand_analytic(psi, n)
    for i in range(n):
        if i:
            q[i, 1:] = a * q[i - 1, :-1] - c * q[i - 1, 1:]
        q[i] = scipy.linalg.blas.ztbsv(1, band, q[i], lower=1)
    beta = hc.beta_array(space, n).astype(complex)
    return q * beta[:, None] / beta


@st.composite
def origin_moving_maps(draw):
    """Self-maps with phi(0) != 0, whose rows are solved."""
    kind = draw(st.sampled_from(("automorphism", "normal form", "parabolic", "contraction")))
    p = draw(st.floats(0.05, 0.7)) * draw(unimodular)
    if kind == "automorphism":
        return hc.compose(hc.rotation(draw(unimodular)), hc.alpha_p(p))
    if kind == "normal form":
        return hc.normal_form_map(p, draw(st.floats(0.05, 0.95)) * draw(unimodular))
    if kind == "parabolic":
        t = complex(draw(st.floats(0.05, 2.0)), draw(st.floats(-1.0, 1.0)))
        return hc.cayley_parabolic(draw(unimodular), t)
    return hc.compose(hc.alpha_p(p), hc.dilation(draw(st.floats(0.05, 0.95)) * draw(unimodular)))


@DERANDOMIZED
@given(weights, origin_moving_maps(), spaces, st.integers(1, 256))
def test_solved_rows_match_tbsv(psi, phi, space, n):
    # The scan sums each row in another order than tbsv, so the two agree to
    # a few eps of the largest entry, and the deflation order is the same.
    got = hc.build_weighted_composition(psi, phi, space, n)
    want = tbsv_section(psi, phi, space, n)
    assert phi.b != 0
    assert np.abs(got.entries - want).max() <= 16 * np.finfo(float).eps * np.abs(want).max()
    assert got._analysis.order == hc.OperatorMatrix(want)._analysis.order


def _fresh_process(body):
    """Stdout words of a fresh interpreter that imports hypocomp and its cli
    from this checkout, then runs body."""
    script = "import contextlib, io, sys\nimport hypocomp\nfrom hypocomp import cli\n" + body
    src = os.path.dirname(os.path.dirname(hc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def test_numeric_spectral_leaves_scipy_signal_unimported():
    # scipy.signal would add about a second to every cold start.
    out = _fresh_process(
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['spectral', '--psi', '1,0.5', '--map', 'parabolic:1,1',\n"
        "                     '--numeric', '--order=64', '--json'])\n"
        "print(code, 'scipy.signal' in sys.modules)\n"
    )
    assert out == ["0", "False"]


def test_escalate_and_numeric_spectral_leave_scipy_special_unimported():
    # The weights are a numpy cumulative product; nothing needs scipy.special.
    out = _fresh_process(
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    check = cli.main(['check', '--psi', '3,-1', '--map', '1,0.5,0.5,1',\n"
        "                      '--space', 'bergman:0', '--escalate', '--json'])\n"
        "    spectral = cli.main(['spectral', '--psi', '1,0.5', '--map', 'parabolic:1,1',\n"
        "                         '--space', 'bergman:0.7', '--numeric', '--order=64', '--json'])\n"
        "print(check, spectral, 'scipy.special' in sys.modules)\n"
    )
    assert out == ["0", "0", "False"]


def test_no_call_imports_scipy(tmp_path):
    # scipy is a test dependency only.  With every scipy import made to fail,
    # closed forms, the escalated check (stage 1), the selftest, a full
    # stage-2 witness search (400 trials), numeric spectral calls on a
    # section with phi(0) != 0, on ones the Lanczos pass certifies (N = 512
    # among them, past its O(j) convergence test) and one on the LAPACK path,
    # eigenvalue dumps included, and witness searches on closed-form and
    # series kernel images all succeed.
    numeric = [("parabolic:1,1", "1,0.5", "hardy", 64),
               ("hyperbolic-nonauto:0.5", "1,0.5", "bergman:1", 256),
               ("rotation:i", "2,1", "hardy", 128),
               ("1,0.5,0.5,1", "2,1", "hardy", 512)]
    # A polynomial weight on H^2 (closed-form images), a rational weight on
    # H^2 and on A^2_0, and a polynomial weight on A^2_1 (truncated series).
    searches = [("rotation:i", "2,1", "hardy"),
                ("rotation:i", "2/1,0.3,0.1", "hardy"),
                ("hyperbolic-nonauto:0.5", "2/1,0.2", "bergman:0"),
                ("rotation:-1", "3,-1", "bergman:1")]
    out = _fresh_process(
        "import json\n"
        f"numeric = {numeric!r}\n"
        f"searches = {searches!r}\n"
        f"dumps = {[str(tmp_path / f'eigs{k}.csv') for k in range(len(numeric))]!r}\n"
        "print('scipy' in sys.modules)\n"
        "sys.modules['scipy'] = None\n"
        "methods, outcomes = [], []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['classify', '--map', 'parabolic:1,1', '--json']),\n"
        "             cli.main(['classify', '--map', 'normal-form:0.3,0.4', '--space', 'bergman:1', '--json']),\n"
        "             cli.main(['check', '--psi', '1,0.5', '--map', 'parabolic:1,1', '--json']),\n"
        "             cli.main(['spectral', '--psi', '1,0.5', '--map', '0.5,0,0,1', '--json']),\n"
        "             cli.main(['check', '--psi', '3,-1', '--map', '1,0.5,0.5,1',\n"
        "                       '--space', 'bergman:0', '--escalate', '--json']),\n"
        "             cli.main(['selftest', '--json'])]\n"
        "    found = hypocomp.witness_search(1, hypocomp.dilation(0.5), hypocomp.hardy(), order=48)\n"
        "    for (phi, psi, space, n), path in zip(numeric, dumps):\n"
        "        codes.append(cli.main(['spectral', '--psi', psi, '--map', phi, '--space', space,\n"
        "                               '--numeric', f'--order={n}', '--dump-eigs', path, '--json']))\n"
        "        phi = cli.parse_map(phi)\n"
        "        space = {'hardy': hypocomp.hardy(), 'bergman:1': hypocomp.bergman(1)}[space]\n"
        "        m = hypocomp.build_weighted_composition(cli.parse_weight(psi, phi, space), phi, space, n)\n"
        "        methods.append(hypocomp.operator_norm(m).method)\n"
        "    for phi, psi, space in searches:\n"
        "        with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        "            codes.append(cli.main(['check', '--escalate', '--map', phi, '--psi', psi,\n"
        "                                   '--space', space, '--json']))\n"
        "        outcomes.append(json.loads(report.getvalue())['verdict']['outcome'])\n"
        "print(*methods, *codes, found, *outcomes)\n"
    )
    assert out == ["False", "lanczos", "lanczos", "lapack-svdvals", "lanczos", *["0"] * 14, "None",
                   *["CertifiedNotNumeric"] * len(searches)]
    for k, (_phi, _psi, _space, n) in enumerate(numeric):
        assert len((tmp_path / f"eigs{k}.csv").read_text().splitlines()) == n + 1


# Every command, the closed forms and the escalated check, compact,
# Lanczos and LAPACK sections and an eigenvalue dump.
_CLI_CALLS = (
    "classify --map=parabolic:1,1",
    "check --map=parabolic:1,1 --psi=1,0.5",
    "check --map=parabolic:1,1 --psi=1/7.450580596923828e-09,3.725290298461914e-09",
    "check --map=rotation:i --psi=2,1 --escalate",
    "spectral --map=parabolic:1,1 --psi=1,0.5",
    "spectral --map=1,0.5,0.5,1 --psi=1,-0.9",
    "spectral --map=parabolic:1,0.5j --psi=1,0.5",
    "spectral --map=0.5,0,0,1 --psi=1,0.5 --require-all",
    "spectral --map=normal-form:0.999999,0.4 --psi=1",
    "check --map=normal-form:0.3,0.4 --psi=kernel-quotient:0.3,0.7",
    "spectral --map=normal-form:0.3,0.4 --psi=kernel-quotient:0.3,0.7",
    "spectral --numeric --order=64 --map=parabolic:1,1 --psi=1,0.5",
    "spectral --numeric --order=1024 --map=0.5,0,0,1 --psi=2,1/1,-0.4",
    "spectral --numeric --order=128 --map=rotation:i --psi=2,1",
    "spectral --numeric --order=64 --map=1,0.5,0.5,1 --psi=2,1 --dump-eigs={dump}",
    "selftest",
)


def test_cli_calls_leave_scipy_unimported(tmp_path):
    argvs = [[*call.format(dump=tmp_path / "eigs.csv").split(), "--json"] for call in _CLI_CALLS]
    out = _fresh_process(
        f"argvs = {argvs!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in argvs]\n"
        "print(*codes, *sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert out == ["0"] * len(argvs)
    assert len((tmp_path / "eigs.csv").read_text().splitlines()) == 65


class TestBuildMultiplication:
    def test_constant(self, A1):
        m = hc.build_multiplication(2.5, A1, 4)
        assert np.allclose(m.entries, 2.5 * np.eye(4))

    def test_hardy_shift(self, H2):
        m = hc.build_multiplication(hc.polynomial_fn(0, 1), H2, 4)
        assert np.allclose(m.entries, np.eye(4, k=-1))

    def test_bergman_shift_weights(self, A0):
        m = hc.build_multiplication(hc.polynomial_fn(0, 1), A0, 5)
        sub = np.diag(m.entries, k=-1)
        expected = [math.sqrt((n + 1) / (n + 2)) for n in range(4)]
        assert np.allclose(sub, expected)

    def test_entries_are_scaled_coefficients(self, A1):
        # Multiplying a column by z only shifts it, so the entries are exactly
        # h_{i-j} beta(i) / beta(j), rounded as written.
        n = 64
        h = hc.rational_fn((1, 0.5, 0.2), (1, -0.3))
        hs = hc.expand_analytic(h, n)
        b = hc.beta_array(A1, n)
        want = np.zeros((n, n), dtype=complex)
        for j in range(n):
            want[j:, j] = hs[: n - j] * b[j:] / b[j]
        assert np.array_equal(hc.build_multiplication(h, A1, n).entries, want)

    def test_norm_below_sup(self, H2, A0):
        h = hc.rational_fn((1, 0.5, 0.2), (1, -0.3))
        sup = max(abs(h(cmath.exp(2j * math.pi * k / 4096))) for k in range(4096))
        for space in (H2, A0):
            m = hc.build_multiplication(h, space, 64)
            assert hc.operator_norm(m).value <= sup + 1e-8


class TestSelfCommutator:
    def test_diagonal_is_normal(self, H2):
        m = hc.build_weighted_composition(1, hc.dilation(0.5), H2, 8)
        assert np.abs(hc.self_commutator(m)).max() < 1e-15

    def test_forward_shift_corner(self, H2):
        m = hc.build_multiplication(hc.polynomial_fn(0, 1), H2, 3)
        sc = hc.self_commutator(m)
        assert np.allclose(sc, np.diag([1, 0, -1]))
        # the finite section shows a negative corner eigenvalue even though
        # the shift itself is hyponormal: truncation artifact
        assert np.linalg.eigvalsh(sc)[0] < -0.99

    def test_normal_form_vanishing(self, H2):
        nf = hc.normal_form(0.3, 0.4, 1, H2)
        m = hc.build_weighted_composition(nf.psi, nf.phi, H2, 64)
        assert np.linalg.norm(hc.self_commutator(m), 2) < 1e-6


class TestOperatorMatrix:
    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2, 2)])
    def test_refuses_entries_that_are_not_square(self, shape):
        with pytest.raises(InvalidParameterError):
            hc.OperatorMatrix(np.zeros(shape))

    def test_refuses_an_empty_section(self):
        # The analysis reads the largest entry, which an empty section lacks.
        with pytest.raises(InvalidParameterError):
            hc.OperatorMatrix(np.zeros((0, 0)))

    def test_entries_are_a_read_only_complex_copy(self):
        a = np.arange(9.0).reshape(3, 3)
        m = hc.OperatorMatrix(a)
        assert m.order == 3 and m.entries.dtype == complex and m.entries.flags.c_contiguous
        assert np.array_equal(m.entries, a) and a.flags.writeable
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0

    def test_a_writeable_array_is_copied_and_a_read_only_one_shared(self):
        a = np.zeros((3, 3), complex)
        m = hc.OperatorMatrix(a)
        assert m.entries is not a and a.flags.writeable and not m.entries.flags.writeable
        a[0, 0] = 1.0
        assert m.entries[0, 0] == 0.0
        a.flags.writeable = False
        assert hc.OperatorMatrix(a).entries is a

    def test_a_section_is_built_once(self, H2):
        # One N=256 section is 1 MiB; a copy in OperatorMatrix would double the peak.
        n = 256
        tracemalloc.start()
        try:
            hc.build_weighted_composition(hc.polynomial_fn(1, 0.5), hc.dilation(0.5), H2, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * n * n


class TestSpectralEstimates:
    def test_diagonal_norm_and_radius(self, H2):
        m = hc.build_weighted_composition(1, hc.dilation(0.5), H2, 3)
        assert abs(hc.operator_norm(m).value - 1) < 1e-10
        assert abs(hc.truncation_spectral_radius(m).value - 1) < 1e-12
        assert np.linalg.eigvalsh(hc.self_commutator(m))[0] == pytest.approx(0, abs=1e-14)

    def test_forward_shift(self, H2):
        m = hc.build_multiplication(hc.polynomial_fn(0, 1), H2, 16)
        assert abs(hc.operator_norm(m).value - 1) < 1e-10
        assert hc.truncation_spectral_radius(m).value < 1e-8

    def test_triangular_radius_is_exact(self, H2, A0, A1, psi_one, monkeypatch):
        # phi(0) = 0, and multiplication: lower-triangular sections, whose
        # radius is read off the diagonal and must equal LAPACK's bit for bit.
        sections = (
            hc.build_weighted_composition(psi_one, hc.dilation(0.5j), H2, 96),
            hc.build_weighted_composition(hc.rational_fn((2, 1), (1, -0.4)),
                                          hc.hyperbolic_nonauto_form(0.5), A0, 96),
            hc.build_multiplication(hc.rational_fn((1, 0.5, 0.2), (1, -0.3)), A1, 96),
        )
        for m in sections:
            assert not np.triu(m.entries, 1).any()
            eigs = np.linalg.eigvals(m.entries)
            with monkeypatch.context() as patched:
                patched.setattr(np.linalg, "eigvals", None)  # no eigensolve
                radius = hc.truncation_spectral_radius(m).value
            assert radius == float(np.max(np.abs(eigs)))
            assert np.array_equal(np.sort(eigs), np.sort(np.diagonal(m.entries)))

    @pytest.mark.parametrize("n", [1, 64, 130])
    def test_triangular_test_matches_triu(self, n):
        # One tiny non-zero entry on or above the subdiagonal, anywhere
        # against the edges of the analysis' blocks of rows, against np.triu.
        a = np.zeros((n, n), complex)
        for i in range(n):
            for j in range(max(i - 1, 0), n):
                a[i, j] = 5e-324j
                assert hc.OperatorMatrix(a)._analysis.lower is (not np.triu(a, 1).any()), (i, j)
                a[i, j] = 0

    def test_triangular_test_copies_no_section(self, H2):
        # np.triu(a, 1) copied the whole N=1024 section, 16 MiB; the analysis
        # copies only the diagonal part of one block of rows at a time.
        m = hc.build_weighted_composition(hc.rational_fn((2, 1), (1, -0.4)), hc.dilation(0.5), H2, 1024)
        tracemalloc.start()
        try:
            assert m._analysis.lower
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_non_triangular_radius_from_lapack(self, H2, psi_one, parabolic_map, monkeypatch):
        # Without a converged Krylov pass the radius is LAPACK's, bit for bit.
        m = hc.build_weighted_composition(psi_one, parabolic_map, H2, 96)
        assert np.triu(m.entries, 1).any()
        want = float(np.max(np.abs(np.linalg.eigvals(m.entries))))
        monkeypatch.setattr(matrixrep, "_krylov_schur", lambda apply, v, budget: None)
        est = hc.truncation_spectral_radius(m)
        assert est.value == want
        assert est.method == "lapack-eigvals"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_sections_are_refused(self, H2, bad):
        # Each estimate reads the analysis, which refuses a largest entry that
        # is not finite: an all-nan section, and one nan or inf entry on the
        # diagonal of a triangular section or above that of a full one.
        triangular = hc.build_weighted_composition(1, hc.dilation(0.5), H2, 64).entries.copy()
        full = hc.build_weighted_composition(hc.polynomial_fn(2, 1), hc.MoebiusMap(1, 0.5, 0.5, 1), H2, 64).entries.copy()
        triangular[5, 5], full[3, 40] = bad, bad
        for a in (np.full((40, 40), bad, complex), triangular, full):
            for routine in _ROUTINES:
                with pytest.raises(InvalidParameterError, match="double range"):
                    routine(hc.OperatorMatrix(a))

    @pytest.mark.parametrize("j", [-900, -300, 300, 900])
    def test_lapack_radius_scales_exactly(self, j, monkeypatch):
        # LAPACK's eigvals runs on the unit-scaled block like every other
        # path, so 2^j psi gives exactly 2^j times the radius of psi.
        monkeypatch.setattr(matrixrep, "_krylov_schur", lambda apply, v, budget: None)
        for phi, psi, space in (("1,0.5,0.5,1", "2,1", hc.hardy()),
                                ("parabolic:1,1", "1,0.5", hc.bergman(1)),
                                ("1,0.05,0.05,1", "2,1", hc.hardy()),
                                ("normal-form:0.3,0.4", "kernel-quotient:0.3,0.7", hc.bergman(0))):
            phi = cli.parse_map(phi)
            psi = cli.parse_weight(psi, phi, space)
            want = hc.truncation_spectral_radius(hc.build_weighted_composition(psi, phi, space, 128))
            got = hc.truncation_spectral_radius(hc.build_weighted_composition(psi.scale(2.0**j), phi, space, 128))
            assert got.method == want.method == "lapack-eigvals"
            assert got.value == want.value * 2.0**j, phi

    def test_gelfand_dilation(self, H2):
        m = hc.build_weighted_composition(1, hc.dilation(0.5), H2, 24)
        est = hc.gelfand_estimate(m)
        assert abs(est.value - 1) < 1e-3

    def test_zero_matrix(self):
        m = hc.OperatorMatrix(np.zeros((5, 5), complex))
        assert hc.operator_norm(m).value == 0.0

    def test_lanczos_failure_takes_the_dense_path(self, H2, monkeypatch):
        m = hc.build_weighted_composition(hc.polynomial_fn(2, 1), cli.parse_map("parabolic:1,1"), H2, 64)
        lanczos = hc.operator_norm(m)
        assert lanczos.method == "lanczos"
        monkeypatch.setattr(matrixrep, "_lanczos", lambda apply, v, budget: None)
        est = hc.operator_norm(m)
        assert est.method == "lapack-svdvals"
        assert est.value == pytest.approx(lanczos.value, rel=1e-12, abs=0.0)
        assert est.value == pytest.approx(2.99013334456, rel=1e-10)
        assert est.residual <= 3 * np.finfo(float).eps * est.value**2

    def test_power_iteration_matches_svd(self):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        m = hc.OperatorMatrix(a)
        assert abs(hc.operator_norm(m).value - np.linalg.norm(a, 2)) < 1e-6


def _gelfand_sections():
    """(name, section, takes the quick path) at N=96: compact and contractive
    sections certify by power steps with M, Toeplitz-like ones form M^k."""
    h2, a0 = hc.hardy(), hc.bergman(0)
    p = 0.3 + 0.1j
    nf = hc.normal_form_map(p, 0.4)
    cases = (
        ("dilation", hc.rational_fn((2, 1), (1, -0.4)), hc.dilation(0.5), h2, True),
        ("normal form", hc.kernel_quotient_weight(p, 0.7, nf, a0), nf, a0, True),
        ("hyperbolic automorphism", hc.polynomial_fn(2, 1), hc.MoebiusMap(1, 0.5, 0.5, 1), h2, True),
        ("multiplication", hc.polynomial_fn(2, 1), hc.MoebiusMap(1, 0, 0, 1), h2, False),
        ("rotation", hc.polynomial_fn(2, 1), hc.rotation(1j), h2, False),
        ("parabolic", hc.polynomial_fn(1, 0.5), hc.cayley_parabolic(1, 1), h2, False),
    )
    return [(name, hc.build_weighted_composition(psi, phi, space, 96), quick)
            for name, psi, phi, space, quick in cases]


class TestGelfandEstimate:
    def test_matches_svd_oracle_on_both_paths(self, monkeypatch):
        sections = _gelfand_sections()
        oracle = [np.linalg.norm(np.linalg.matrix_power(m.entries, 8), 2) ** (1 / 8)
                  for _name, m, _quick in sections]
        # The fallback forms M^8 and takes its operator_norm; the quick path
        # calls no operator_norm.
        calls = []
        real = matrixrep.operator_norm
        monkeypatch.setattr(matrixrep, "operator_norm", lambda a: calls.append(a) or real(a))
        for (name, m, quick), want in zip(sections, oracle):
            calls.clear()
            est = hc.gelfand_estimate(m)
            assert len(calls) == (0 if quick else 1), name
            assert est.value == pytest.approx(want, rel=1e-10, abs=0.0), name

    def test_zero_and_nilpotent_sections(self, H2):
        # Each is nilpotent of index at most 8, so M^8 = 0.
        rng = np.random.default_rng(5)
        strict = np.tril(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
        shift = hc.build_multiplication(hc.polynomial_fn(0, 1), H2, 8)
        for m in (hc.OperatorMatrix(np.zeros((5, 5), complex)), hc.OperatorMatrix(strict), shift):
            assert hc.gelfand_estimate(m).value == 0.0

    @pytest.mark.parametrize("j", [-200, -70, 70, 200])
    def test_scale_equivariant(self, j):
        for name, m, _quick in _gelfand_sections():
            scaled = hc.OperatorMatrix(m.entries * 2.0**j)
            for routine in (hc.operator_norm, hc.gelfand_estimate):
                want = routine(m).value * 2.0**j
                assert routine(scaled).value == pytest.approx(want, rel=1e-12, abs=0.0), name


def _block_order(m):
    return m._analysis.order


def two_copy_analysis(a):
    """(e1, e, K, fro, b) as the analysis computed them from two N x N scaled
    copies: b = ldexp(ldexp(M, -e1), -e2), then the sums of squares of b."""
    parts = a.view(np.float64)
    e1 = math.frexp(max(float(parts.max()), -float(parts.min())))[1]
    b = np.ldexp(parts, -e1)
    e2 = math.frexp(float(np.linalg.norm(b)))[1]
    b = np.ldexp(b, -e2, out=b)
    rows = np.einsum("ij,ij->i", b, b)
    cols = np.einsum("ij,ij->j", b, b).reshape(-1, 2).sum(axis=1)
    fro_sq = float(rows.sum())
    limit = np.finfo(float).eps ** 2 * fro_sq
    order = max(int(np.count_nonzero(np.cumsum(sums[::-1]) > limit)) for sums in (rows, cols))
    return e1, e1 + e2, order, math.sqrt(fro_sq), b.view(complex)


def _assert_analysis_is_the_two_copy_one(m):
    e1, e, order, fro, b = two_copy_analysis(m.entries)
    got = m._analysis
    assert (got.e1, got.e, got.order) == (e1, e, order)
    assert abs(got.fro - fro) <= 4 * math.ulp(fro)
    # The block A_K is the two-copy b[:K, :K], bit for bit, and read-only.
    assert not got.block.flags.writeable
    assert got.block.tobytes() == np.ascontiguousarray(b[:order, :order]).tobytes()


def _full_order_leading_block(monkeypatch):
    """Make every section analysed from now on keep K = N."""
    monkeypatch.setattr(matrixrep, "_leading_block", lambda rows, cols: rows.size)


_ROUTINES = (hc.operator_norm, hc.truncation_spectral_radius, hc.gelfand_estimate)


@st.composite
def compact_sections(draw):
    """(psi, phi, space): a dilation, a contraction with phi(0) != 0, or a
    normal form with its kernel-quotient weight, each contracting enough that
    its N=128 section deflates."""
    space = draw(st.sampled_from((hc.hardy(), hc.bergman(0), hc.bergman(1))))
    kind = draw(st.sampled_from(("dilation", "contraction", "normal form")))
    lam = draw(unimodular)
    if kind == "dilation":
        psi = hc.rational_fn((2, draw(disk(0.7))), (1, draw(disk(0.7))))
        return psi, hc.dilation(draw(st.floats(0.1, 0.6)) * lam), space
    if kind == "contraction":
        # s (z - a)/(1 - conj(a) z): sup |phi| = s on the circle, phi(0) = -s a.
        s, a = draw(st.floats(0.2, 0.5)), draw(st.floats(0.1, 0.4)) * lam
        psi = hc.polynomial_fn(1, *draw(st.lists(disk(0.7), max_size=2)))
        return psi, hc.MoebiusMap(s, -s * a, -a.conjugate(), 1), space
    p, delta = draw(disk(0.3)), draw(st.floats(0.1, 0.5)) * lam
    phi = hc.normal_form_map(p, delta)
    return hc.kernel_quotient_weight(p, draw(st.floats(0.5, 2.0)) * draw(unimodular), phi, space), phi, space


_NON_COMPACT = (
    ("hyperbolic automorphism", hc.polynomial_fn(2, 1), hc.MoebiusMap(1, 0.5, 0.5, 1), hc.hardy()),
    ("parabolic", hc.polynomial_fn(1, 0.5), hc.cayley_parabolic(1, 1), hc.bergman(1)),
    ("rotation", hc.polynomial_fn(2, 1), hc.rotation(1j), hc.hardy()),
    ("multiplication", hc.polynomial_fn(2, 1), hc.MoebiusMap(1, 0, 0, 1), hc.bergman(0)),
)


class TestDeflation:
    @DERANDOMIZED
    @given(compact_sections(), st.sampled_from((128, 256)))
    def test_compact_sections_match_the_full_section(self, case, n):
        # ||E||_F <= sqrt(2) eps ||M||_F moves the norm by at most that (Weyl),
        # on top of the power steps' 1e-8.  The radius is compared with LAPACK
        # on the full section, which carries its own backward error, about
        # N eps ||M||_F, besides the block's.
        m = hc.build_weighted_composition(*case, n)
        a = m.entries
        # K is the smallest order whose dropped rows, and dropped columns,
        # each hold at most eps^2 ||M||_F^2 (up to the rounding of the sums).
        order, b_fro = m._analysis.order, m._analysis.fro
        _assert_analysis_is_the_two_copy_one(m)
        b = two_copy_analysis(a)[-1]
        assert b_fro == pytest.approx(np.linalg.norm(b), rel=1e-12)
        sq, limit = np.abs(b) ** 2, np.finfo(float).eps ** 2 * b_fro**2
        assert 0 < order < n
        assert max(sq[order:].sum(), sq[:, order:].sum()) <= limit * (1 + 1e-10)
        assert max(sq[order - 1:].sum(), sq[:, order - 1:].sum()) > limit * (1 - 1e-10)
        fro = float(np.linalg.norm(a))
        bound = math.sqrt(2.0) * np.finfo(float).eps * fro
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        norm = float(np.linalg.norm(a, 2))
        got_radius, got_norm = hc.truncation_spectral_radius(m), hc.operator_norm(m)
        assert abs(got_radius.value - radius) <= bound + n * np.finfo(float).eps * fro
        assert abs(got_norm.value - norm) <= bound + 1e-8 * norm

    @pytest.mark.parametrize("name,psi,phi,space", _NON_COMPACT, ids=[c[0] for c in _NON_COMPACT])
    def test_non_compact_sections_keep_the_full_order(self, monkeypatch, name, psi, phi, space):
        m = hc.build_weighted_composition(psi, phi, space, 128)
        assert _block_order(m) == 128
        got = [routine(m) for routine in _ROUTINES]
        # The analysis is kept on m, so the patch must precede a fresh build.
        _full_order_leading_block(monkeypatch)
        forced = hc.build_weighted_composition(psi, phi, space, 128)
        assert [routine(forced) for routine in _ROUTINES] == got

    def test_rejected_block_falls_back_to_the_full_section(self, monkeypatch):
        # psi = z on the dilation 0.5 z: the section is nilpotent and ||A_K^8||
        # is so small that sqrt(2) k eps ||M||_F^k exceeds 1e-8 of it, so
        # gelfand_estimate discards the block and forms the full scaled section.
        case = (hc.polynomial_fn(0, 1), hc.dilation(0.5), hc.hardy(), 128)
        m = hc.build_weighted_composition(*case)
        assert _block_order(m) == 53
        orders = []
        real = matrixrep._power_norm
        monkeypatch.setattr(matrixrep, "_power_norm", lambda a: orders.append(a.shape[0]) or real(a))
        got = hc.gelfand_estimate(m)
        assert orders == [53, 128]
        _full_order_leading_block(monkeypatch)
        assert repr(hc.gelfand_estimate(hc.build_weighted_composition(*case))) == repr(got)

    @pytest.mark.parametrize("argv", [
        ("--map=0.5,0,0,1", "--psi=2,1/1,-0.4", "--order=1024"),
        ("--map=normal-form:0.3,0.4", "--psi=kernel-quotient:0.3,0.7", "--space=bergman:0", "--order=512"),
    ], ids=["triangular dilation", "normal form"])
    def test_numeric_spectral_analyses_each_section_once(self, monkeypatch, argv):
        # The one section built is the proved leading block, below the order asked for.
        built, analysed, proved = [], [], []
        real_init, real_block = matrixrep.OperatorMatrix.__post_init__, matrixrep._leading_block
        real_order = matrixrep.proved_block_order
        monkeypatch.setattr(matrixrep.OperatorMatrix, "__post_init__",
                            lambda self: built.append(self.order) or real_init(self))
        monkeypatch.setattr(matrixrep, "_leading_block",
                            lambda rows, cols: analysed.append(rows.size) or real_block(rows, cols))
        monkeypatch.setattr(matrixrep, "proved_block_order",
                            lambda *args: proved.append(real_order(*args)) or proved[-1])
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["spectral", "--numeric", "--json", *argv]) == 0
        assert len(proved) == 1 and proved[0] < int(argv[-1].split("=")[1])
        assert analysed == built == proved

    @DERANDOMIZED
    @given(compact_sections() | st.sampled_from([c[1:] for c in _NON_COMPACT]), st.permutations(range(3)))
    def test_routines_agree_in_any_order_on_one_section(self, case, order):
        fresh = [repr(routine(hc.build_weighted_composition(*case, 128))) for routine in _ROUTINES]
        m = hc.build_weighted_composition(*case, 128)
        shared = {i: repr(_ROUTINES[i](m)) for i in order}
        assert [shared[i] for i in range(3)] == fresh

    @pytest.mark.parametrize("j", [-900, 900])
    def test_block_order_is_scale_free(self, j):
        for psi, phi, space in (
            (hc.rational_fn((2, 1), (1, -0.4)), hc.dilation(0.5), hc.hardy()),
            (hc.polynomial_fn(1, 0.5), hc.MoebiusMap(0.5, -0.1, -0.2, 1), hc.bergman(0)),
            (hc.kernel_quotient_weight(0.3, 0.7, hc.normal_form_map(0.3, 0.4), hc.bergman(1)),
             hc.normal_form_map(0.3, 0.4), hc.bergman(1)),
        ):
            m = hc.build_weighted_composition(psi, phi, space, 256)
            scaled = hc.build_weighted_composition(psi.scale(2.0**j), phi, space, 256)
            assert _block_order(scaled) == _block_order(m) < 256
            # At these scales too the blocked pass finds what two scaled copies find.
            _assert_analysis_is_the_two_copy_one(scaled)
            for routine in (hc.operator_norm, hc.truncation_spectral_radius):
                want = routine(m).value * 2.0**j
                assert routine(scaled).value == pytest.approx(want, rel=1e-12, abs=0.0)
        # Sections that do not deflate: the radius scales too, by the same path.
        for _name, psi, phi, space in _NON_COMPACT[:2]:
            m = hc.build_weighted_composition(psi, phi, space, 256)
            scaled = hc.build_weighted_composition(psi.scale(2.0**j), phi, space, 256)
            want, got = hc.truncation_spectral_radius(m), hc.truncation_spectral_radius(scaled)
            assert got.value == pytest.approx(want.value * 2.0**j, rel=1e-12, abs=0.0)
            assert got.method == want.method == "krylov-schur"

    @DERANDOMIZED
    @given(compact_sections() | st.sampled_from([c[1:] for c in _NON_COMPACT]), st.sampled_from((128, 256)),
           st.sampled_from((0, -900, 900)))
    def test_analysis_is_the_two_copy_analysis(self, case, n, j):
        psi, phi, space = case
        _assert_analysis_is_the_two_copy_one(hc.build_weighted_composition(psi.scale(2.0**j), phi, space, n))

    def test_analysis_makes_no_scaled_copy(self, H2):
        # Two scaled copies of an N=1024 section would take 32 MiB; the
        # analysis scales one block of rows at a time into a 512 KiB buffer.
        m = hc.build_weighted_composition(hc.rational_fn((2, 1), (1, -0.4)), hc.dilation(0.5), H2, 1024)
        tracemalloc.start()
        try:
            assert m._analysis.order < 1024
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_normal_form_eigensolve_stays_small(self, monkeypatch):
        orders = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: orders.append(a.shape[0]) or real(a))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["spectral", "--map=normal-form:0.3,0.4", "--psi=kernel-quotient:0.3,0.7",
                             "--space=bergman:0", "--numeric", "--order=1024", "--json"])
        assert code == 0
        # A Krylov pass finds the radius of the K = 75 block, so none is
        # expected at all; a fallback eigensolve must stay as small.
        assert all(k <= 128 for k in orders)


@st.composite
def non_triangular_sections(draw):
    """(psi, phi, space, n) with phi(0) != 0, so that the section is not
    lower triangular and its radius comes from an eigensolve: automorphisms
    of the three kinds, parabolic non-automorphisms, maps with a contact
    point, contractions and normal forms."""
    space = draw(st.sampled_from((hc.hardy(), hc.bergman(-0.5), hc.bergman(0), hc.bergman(1))))
    n = draw(st.sampled_from((64, 128, 256)))
    psi = hc.polynomial_fn(1, *draw(st.lists(disk(0.7), max_size=2)))
    kind = draw(st.sampled_from(("hyperbolic", "parabolic", "elliptic", "parabolic non-automorphism",
                                 "contact point", "contraction", "normal form")))
    lam = draw(unimodular)
    if kind == "hyperbolic":   # (z + r lam)/(r conj(lam) z + 1) fixes lam and -lam
        r = draw(st.floats(0.05, 0.9))
        phi = hc.MoebiusMap(1, r * lam, r * lam.conjugate(), 1)
    elif kind == "parabolic":
        phi = hc.cayley_parabolic(lam, 1j * draw(st.sampled_from((-2.0, -0.5, 0.5, 1.0, 2.0))))
    elif kind == "elliptic":   # rotation about the interior fixed point p
        alpha = hc.alpha_p(draw(st.floats(0.05, 0.8)) * draw(unimodular))
        turn = cmath.exp(1j * draw(st.floats(0.1, 2.0 * math.pi - 0.1)))   # away from the identity
        phi = hc.compose(alpha, hc.compose(hc.rotation(turn), alpha))
    elif kind == "parabolic non-automorphism":
        phi = hc.cayley_parabolic(lam, complex(draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0))))
    elif kind == "contact point":   # s z + (1 - s) lam touches the circle at lam
        s = draw(st.floats(0.1, 0.9))
        phi = hc.MoebiusMap(s, (1.0 - s) * lam, 0, 1)
    elif kind == "contraction":
        s, a = draw(st.floats(0.2, 0.9)), draw(st.floats(0.1, 0.5)) * lam
        phi = hc.MoebiusMap(s, -s * a, -a.conjugate(), 1)
    else:
        p = draw(st.floats(0.05, 0.5)) * lam
        phi = hc.normal_form_map(p, draw(st.floats(0.1, 0.9)) * draw(unimodular))
        psi = hc.kernel_quotient_weight(p, draw(st.floats(0.5, 2.0)) * draw(unimodular), phi, space)
    return psi, phi, space, n


class TestKrylovRadius:
    @DERANDOMIZED
    @given(non_triangular_sections())
    def test_krylov_radius_matches_lapack_and_stays_below_the_norm(self, case):
        # A kept Ritz value is LAPACK's largest modulus on the same block, and
        # lies in the numerical range, so it is at most the norm: the
        # "radius <= norm" check of the finite-section benchmark relies on it.
        m = hc.build_weighted_composition(*case)
        assert np.triu(m.entries, 1).any()
        est = hc.truncation_spectral_radius(m)
        assert est.method in ("krylov-schur", "lapack-eigvals")
        if est.method == "krylov-schur":
            k = m._analysis.order
            want = float(np.max(np.abs(np.linalg.eigvals(m.entries[:k, :k]))))
            assert est.value == pytest.approx(want, rel=1e-10, abs=0.0)
            assert est.value <= hc.operator_norm(m).value * (1 + 1e-12)
            assert 0.0 <= est.residual <= 1e-12 * est.value

    @pytest.mark.parametrize("psi, phi, space, n", [
        ("2,1", "1,0.5,0.5,1", "hardy", 512),
        ("1,0.5", "parabolic:1,1", "hardy", 256),
        ("1,0.5", "parabolic:1,1", "bergman:1", 256),
    ])
    def test_dominant_eigenvalue_needs_no_eigensolve(self, psi, phi, space, n, monkeypatch):
        # Sections that do not deflate: two passes of at most K/4 products
        # and one check find the radius, and LAPACK is never called.
        phi = cli.parse_map(phi)
        space = hc.hardy() if space == "hardy" else hc.bergman(float(space.split(":")[1]))
        m = hc.build_weighted_composition(cli.parse_weight(psi, phi, space), phi, space, n)
        assert m._analysis.order == n
        want = float(np.max(np.abs(np.linalg.eigvals(m.entries))))
        products = []
        real_krylov = matrixrep._krylov_schur

        def counted(apply, v, budget):
            return real_krylov(lambda x: products.append(1) or apply(x), v, budget)

        monkeypatch.setattr(matrixrep, "_krylov_schur", counted)
        monkeypatch.setattr(np.linalg, "eigvals", None)
        est = hc.truncation_spectral_radius(m)
        assert est.method == "krylov-schur"
        assert len(products) <= 2 * max(30, n // 4)
        assert est.value == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("space", [hc.hardy(), hc.bergman(-0.5), hc.bergman(0)], ids=lambda s: s.label())
    def test_an_ill_conditioned_radius_keeps_lapacks_digits(self, space):
        # 0.78 z + 0.22 touches the circle at 1, and its section's top
        # eigenvalue has condition number kappa in the thousands: a Ritz value
        # with residual r below 1e-11 |theta| is then off by up to kappa r,
        # 8e-11 to 3e-10 here, so the radius takes LAPACK unless kappa r is small.
        m = hc.build_weighted_composition(hc.polynomial_fn(1, -0.5), hc.MoebiusMap(0.78, 0.22, 0, 1), space, 64)
        want = float(np.max(np.abs(np.linalg.eigvals(m.entries))))
        assert hc.truncation_spectral_radius(m).value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_ritz_residual_is_the_true_residual(self):
        # On a non-normal matrix whose top eigenvalue 1.3 sits near the rest,
        # in [0.1, 1], the pass restarts; each restart keeps A V = V H + v h,
        # so the Ritz residual beta |y_last| is ||A x - theta x|| for the unit
        # vector x it returns.
        rng = np.random.default_rng(5)
        t = np.triu(rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80)), 1) / 9
        a = t + np.diag(np.r_[1.3, np.linspace(0.1, 1.0, 79)])
        q = np.linalg.qr(rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80)))[0]
        a = q @ a @ q.conj().T
        products = []
        pair = matrixrep._krylov_schur(lambda x: products.append(1) or a @ x, matrixrep._seed_vector(80), 80)
        assert len(products) > matrixrep._KRYLOV_BASIS
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-14)
        assert pair.value == pytest.approx(1.3, abs=1e-12)
        true = float(np.linalg.norm(a @ pair.vector - pair.value * pair.vector))
        assert pair.residual <= 1e-12 * abs(pair.value)
        assert true == pytest.approx(pair.residual, abs=1e-14 * np.linalg.norm(a))

    @pytest.mark.parametrize("kind", ["rank 3", "three values"])
    def test_an_invariant_krylov_space_ends_a_non_hermitian_pass(self, kind):
        # The seed's Krylov space is invariant after a few products: the pass
        # returns at once with the dominant eigenvalue.
        rng = np.random.default_rng(3)
        s = np.eye(64) + 0.3 * rng.standard_normal((64, 64))
        a = {"rank 3": lambda: rng.standard_normal((64, 3)) @ rng.standard_normal((3, 64)),
             "three values": lambda: s @ np.diag([3.0] * 10 + [1.0] * 30 + [-2j] * 24) @ np.linalg.inv(s)}[kind]()
        products = []
        pair = matrixrep._krylov_schur(lambda x: products.append(1) or a @ x, matrixrep._seed_vector(64), 64)
        assert len(products) <= 4
        assert abs(pair.value) == pytest.approx(float(np.max(np.abs(np.linalg.eigvals(a)))), rel=1e-10)


@st.composite
def full_order_maps(draw):
    """(touches, (psi, phi, space)) for a section that keeps its full order:
    an automorphism, a parabolic map or a hyperbolic map with a contact
    point, whose image touches the circle (touches is True), or a normal
    form with 1 - |p| in [3e-7, 1e-6] (closer, its determinant underflows),
    whose s_1 is within about 1e-6 of 1."""
    space = draw(st.sampled_from((hc.hardy(), hc.bergman(0), hc.bergman(1))))
    psi = hc.polynomial_fn(1, *draw(st.lists(disk(0.7), max_size=2)))
    kind = draw(st.sampled_from(("automorphism", "parabolic", "contact point", "normal form")))
    lam = draw(unimodular)
    if kind == "automorphism":
        return True, (psi, hc.compose(hc.rotation(lam), hc.alpha_p(draw(disk(0.9)))), space)
    if kind == "parabolic":
        t = complex(draw(st.sampled_from((0.0, 0.5, 2.0))), draw(st.floats(-2.0, 2.0)))
        return True, (psi, hc.cayley_parabolic(lam, t if t else 1.0), space)
    if kind == "contact point":
        return True, (psi, hc.hyperbolic_nonauto_form(draw(st.floats(0.05, 0.95)) * lam), space)
    p = (1.0 - 10.0 ** -draw(st.floats(6.0, 6.5))) * lam
    return False, (psi, hc.normal_form_map(p, draw(st.floats(0.3, 0.9)) * draw(unimodular)), space)


def _outside_block_mass(a, order):
    """sum |a_ij|^2 over i >= order or j >= order, without cancellation."""
    sq = np.abs(a) ** 2
    return float(sq[order:].sum() + sq[:order, order:].sum())


class TestProvedBlockOrder:
    @DERANDOMIZED
    @given(compact_sections(), st.sampled_from((64, 128, 256)))
    def test_unbuilt_mass_is_at_most_the_bound(self, case, n):
        # For every K < n, the full section's mass outside its K x K block is
        # at most t_K^2, which the bound gives relative to ||column 0||^2.
        ratios = matrixrep._tail_ratio_bound(*case, n)
        assert ratios is not None
        a = hc.build_weighted_composition(*case, n).entries
        log_col0 = math.log(float(np.linalg.norm(a[:64, 0])) ** 2)
        bounds = ratios(np.arange(1, n)) + log_col0
        for order, bound in zip(range(1, n), bounds.tolist()):
            mass = _outside_block_mass(a, order)
            assert mass == 0.0 or math.log(mass) <= bound
        order = matrixrep.proved_block_order(*case, n)
        assert order == n or bounds[order - 1] <= math.log(0.25) + 2.0 * math.log(np.finfo(float).eps) + log_col0

    @DERANDOMIZED
    @given(compact_sections(), st.sampled_from((128, 256)))
    def test_block_prints_the_full_sections_digits(self, case, n):
        order = matrixrep.proved_block_order(*case, n)
        full, block = (hc.build_weighted_composition(*case, k) for k in (n, order))
        assert np.array_equal(block.entries, full.entries[:order, :order])
        assert [f"{routine(block).value:.12g}" for routine in _ROUTINES] == \
            [f"{routine(full).value:.12g}" for routine in _ROUTINES]

    @DERANDOMIZED
    @given(compact_sections(), st.sampled_from((-900, 900)))
    def test_order_is_scale_free(self, case, j):
        psi, phi, space = case
        assert matrixrep.proved_block_order(psi.scale(2.0**j), phi, space, 256) == \
            matrixrep.proved_block_order(psi, phi, space, 256)

    @DERANDOMIZED
    @given(full_order_maps(), st.sampled_from((32, 256)))
    def test_maps_near_the_circle_keep_the_full_order(self, drawn, n):
        # Where the image touches the circle no bound is tried; near it, the
        # bound exists but proves no K < n.
        touches, case = drawn
        if touches:
            assert matrixrep._tail_ratio_bound(*case, n) is None
        assert matrixrep.proved_block_order(*case, n) == n

    @pytest.mark.parametrize("seed", [7001, 11, 4242, 1, 2])
    def test_benchmark_sections_stop_at_their_pinned_orders(self, seed):
        # The N = 1024 dilation and the N = 512 normal form of the benchmark's
        # finite_section workload, conjugated by z -> lam z and scaled by c
        # as each seed does there.
        rng = random.Random(seed)
        lam = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        c = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        psi = hc.rational_fn((2 * c, c * lam), (1, -0.4 * lam))
        assert matrixrep.proved_block_order(psi, hc.dilation(0.5), hc.hardy(), 1024) == 121
        q, a0 = 0.3 * lam.conjugate(), hc.bergman(0)
        phi = hc.normal_form_map(q, 0.4)
        assert matrixrep.proved_block_order(hc.kernel_quotient_weight(q, c, phi, a0), phi, a0, 512) == 187


class TestContactRadius:
    @DERANDOMIZED
    @given(compact_sections())
    def test_s_rho_reaches_one_at_the_contact_radius(self, case):
        # Just inside rho* the rounded bound on s_rho is below 1, and at
        # z = rho* conj(B)/|B|, where |phi| peaks on the circle, |phi| = 1.
        phi = case[1]
        rho = matrixrep._contact_radius(phi)
        assert rho > 1.0
        assert matrixrep._image_sup(phi, np.array([rho * (1.0 - 1e-6)]))[0] < 1.0
        a, b, c, d = phi.coefficients()
        peak = a * b.conjugate() - c * d.conjugate()
        with mpmath.workdps(40):
            z = mpmath.mpf(rho) * (mpmath.mpc(peak.conjugate()) / abs(peak) if peak else 1)
            value = abs((mpmath.mpc(a) * z + mpmath.mpc(b)) / (mpmath.mpc(c) * z + mpmath.mpc(d)))
            assert abs(value - 1) <= 1e-12

    def test_maps_that_touch_the_circle_have_radius_one(self):
        # Every kind but the interior contraction touches the circle.
        rng = np.random.default_rng(5)
        for phi in (phi for _ in range(20) for phi in maps_of_every_kind(rng)):
            rho = matrixrep._contact_radius(phi)
            if hc.classify(phi).kind is hc.MapKind.INTERIOR_CONTRACTION:
                assert rho > 1.0 + 1e-9
            else:
                assert abs(rho - 1.0) <= 1e-12
                assert matrixrep._tail_ratio_bound(hc.polynomial_fn(1, 0.5), phi, hc.hardy(), 64) is None

    @DERANDOMIZED
    @given(compact_sections() | full_order_maps().map(lambda drawn: drawn[1]))
    def test_the_pole_lies_beyond_the_contact_radius(self, case):
        _, _, c, d = case[1].coefficients()
        assert c == 0 or abs(d / c) > matrixrep._contact_radius(case[1])


@st.composite
def norm_sections(draw):
    """(psi, phi, space, N) at N <= 256: a compact section (compact_sections),
    or a rotation, multiplication (Toeplitz-like), parabolic, hyperbolic
    automorphism (z + r lam)/(r conj(lam) z + 1) or elliptic automorphism
    (a rotation conjugated by alpha_p) one."""
    kind = draw(st.sampled_from(("compact", "rotation", "multiplication", "parabolic", "hyperbolic", "elliptic")))
    n = draw(st.sampled_from((16, 64, 128, 256)))
    if kind == "compact":
        return (*draw(compact_sections()), n)
    space = draw(st.sampled_from((hc.hardy(), hc.bergman(0), hc.bergman(1))))
    psi = hc.polynomial_fn(1, *draw(st.lists(disk(0.7), max_size=2)))

    def hyperbolic():
        r, lam = draw(st.floats(0.2, 0.7)), draw(unimodular)
        return hc.MoebiusMap(1, r * lam, r * lam.conjugate(), 1)

    def elliptic():
        alpha = hc.alpha_p(draw(disk(0.6)))
        return hc.compose(alpha, hc.compose(hc.rotation(draw(unimodular)), alpha))

    phi = {
        "rotation": lambda: hc.rotation(draw(unimodular)),
        "multiplication": lambda: hc.MoebiusMap(1, 0, 0, 1),
        "parabolic": lambda: hc.cayley_parabolic(draw(unimodular), draw(st.floats(0.2, 2.0))),
        "hyperbolic": hyperbolic,
        "elliptic": elliptic,
    }[kind]()
    return psi, phi, space, n


def _counted_operator_norm(m, lanczos=None):
    """operator_norm(m), through lanczos in place of matrixrep._lanczos if
    given, with its Gram products, LAPACK calls and the orders of its dense
    eigh calls counted.  A value the Lanczos pass certifies costs at least
    one product, so a count that reads 0 there misses the product."""
    products, lapack, eigh = [], [], []
    real_product, real_svd, real_eigh = matrixrep._gram_product, np.linalg.svd, np.linalg.eigh
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(matrixrep, "_gram_product", lambda a, x: products.append(1) or real_product(a, x))
        patched.setattr(np.linalg, "svd", lambda *a, **k: lapack.append(1) or real_svd(*a, **k))
        patched.setattr(np.linalg, "eigh", lambda t, **k: eigh.append(len(t)) or real_eigh(t, **k))
        if lanczos is not None:
            patched.setattr(matrixrep, "_lanczos", lanczos)
        est = hc.operator_norm(m)
    assert est.method != "lanczos" or products
    return est, len(products), len(lapack), eigh


def _dense_check_lanczos(apply, v, budget):
    """matrixrep._lanczos as it was before its O(j) convergence test: the
    same recurrence and schedule, with a dense eigh of T_j at every check.
    The oracle for the step count, value and vector of the pass."""
    basis, alpha, beta = [], [], []
    check = 1
    for steps in range(1, budget + 1):
        w = apply(v)
        size = float(np.linalg.norm(w))
        if basis:
            w -= beta[-1] * basis[-1]
        basis.append(v)
        alpha.append(float(np.real(np.vdot(v, w))))
        w -= alpha[-1] * v
        beta.append(float(np.linalg.norm(w)))
        invariant = beta[-1] <= matrixrep._KRYLOV_TOL * size
        if invariant or steps == check or steps == budget:
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1), UPLO="U")
            resid = beta[-1] * abs(s[-1, -1])
            if invariant or resid <= matrixrep._KRYLOV_TOL * theta[-1]:
                x = np.zeros_like(v)
                for c, u in zip(s[:, -1], basis):
                    x += c * u
                return matrixrep._RitzPair(theta[-1], x / np.linalg.norm(x), resid)
            check = steps + (1 if steps < matrixrep._LANCZOS_EVERY_STEP else max(10, steps // 16))
        v = w / beta[-1]
    return None


def _assert_same_pass(m):
    """The pass with the O(j) test and the dense-check pass make the same
    Gram products and give the same value bit for bit; the O(j) test makes
    no more dense eigh calls.  Returns both counts."""
    natural = _counted_operator_norm(m)
    dense = _counted_operator_norm(m, _dense_check_lanczos)
    assert (natural[0].method, natural[0].value.hex(), natural[1:3]) == (dense[0].method, dense[0].value.hex(), dense[1:3])
    assert len(natural[3]) <= len(dense[3])
    return natural, dense


class TestOperatorNorm:
    @DERANDOMIZED
    @given(norm_sections())
    def test_both_paths_match_lapack_within_their_bound(self, case):
        # A certified value lam of M*M is within residual of an eigenvalue, so
        # sqrt(lam) is within residual / sqrt(lam) of a singular value; the
        # block moves it by sqrt(2) eps ||M||_F, and the oracle carries LAPACK's
        # own eps ||M||.  The pass makes the Gram products and gives the value
        # of the pass with a dense eigh at every check (_assert_same_pass).
        m = hc.build_weighted_composition(*case)
        want = float(np.linalg.norm(m.entries, 2))
        eps = np.finfo(float).eps
        slack = math.sqrt(2.0) * eps * float(np.linalg.norm(m.entries)) + 4 * eps * want
        order = m._analysis.order
        (natural, products, lapack, _), _ = _assert_same_pass(m)
        assert products <= order + 1 and lapack <= 1
        assert products <= order // 2 + 1
        assert lapack == (natural.method == "lapack-svdvals")
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(matrixrep, "_lanczos", lambda apply, v, budget: None)
            dense = hc.operator_norm(m)
        assert dense.method == "lapack-svdvals"
        for est in (natural, dense):
            assert abs(est.value - want) <= est.residual / est.value + slack, est.method
        again = hc.operator_norm(hc.build_weighted_composition(*case))
        assert (again.method, again.value.hex()) == (natural.method, natural.value.hex())

    @pytest.mark.parametrize("gap", [0.1, 0.05, 0.03])
    @pytest.mark.parametrize("k", [256, 512])
    def test_the_o_j_check_keeps_the_stop_of_a_separated_top(self, gap, k):
        # M*M = diag(1, 1 - gap, values spread below): the O(j) pair is
        # confirmed up to the check that stops the pass, where only eigh
        # may decide; the pass stops where the dense-check pass stops.
        d = np.r_[1.0, np.linspace(1.0 - gap, 0.0, k - 1)]
        (est, products, _, eigh), _ = _assert_same_pass(hc.OperatorMatrix(np.diag(np.sqrt(d))))
        assert est.method == "lanczos" and products < k // 2
        assert sum(j > matrixrep._LANCZOS_EVERY_STEP for j in eigh) <= 2

    def test_toeplitz_sections_stop_at_k_products(self):
        # A rotation section's clustered top singular values need more than
        # K/2 = 64 Gram products, so the Lanczos pass gives up within K/2.
        m = hc.build_weighted_composition(hc.polynomial_fn(2, 1), hc.rotation(1j), hc.hardy(), 128)
        est, products, lapack, _ = _counted_operator_norm(m)
        assert (est.method, lapack) == ("lapack-svdvals", 1)
        assert products <= 128
        assert products <= 128 // 2

    @pytest.mark.parametrize("phi, psi, space, n, converges", [
        ("rotation:i", "2,1", "hardy", 128, False),
        ("1,0,0,1", "2,1", "bergman:0", 96, False),
        ("1,0.5,0.5,1", "2,1", "hardy", 256, True),
        ("parabolic:1,1", "1,0.5", "bergman:1", 128, True),
        ("normal-form:0.3,0.4", "kernel-quotient:0.3,0.7", "bergman:0", 256, True),
    ])
    def test_lanczos_pass_stays_within_its_budget(self, phi, psi, space, n, converges):
        # The pass alone makes at most K/2 Gram products, whether it returns
        # a vector or runs out; a pass that runs out has spent all of them.
        # Called directly, it keeps to any budget.
        phi = cli.parse_map(phi)
        space = hc.hardy() if space == "hardy" else hc.bergman(float(space.split(":")[1]))
        m = hc.build_weighted_composition(cli.parse_weight(psi, phi, space), phi, space, n)
        order = m._analysis.order
        products, passes = [], []
        real_product, real_lanczos = matrixrep._gram_product, matrixrep._lanczos

        def counted_lanczos(apply, v, budget):
            before = len(products)
            pair = real_lanczos(apply, v, budget)
            passes.append((len(products) - before, budget, pair is not None))
            return pair

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(matrixrep, "_gram_product", lambda a, x: products.append(1) or real_product(a, x))
            patched.setattr(matrixrep, "_lanczos", counted_lanczos)
            est = hc.operator_norm(m)
            [(spent, budget, returned)] = passes
            assert (budget, returned) == (order // 2, converges)
            assert 0 < spent <= order // 2
            if not converges:
                assert spent == budget
            assert est.method == ("lanczos" if converges else "lapack-svdvals")
            a = m._analysis.block
            seed = matrixrep._seed_vector(order)
            for budget in (20, 31, 45, order // 2):
                products.clear()
                matrixrep._lanczos(lambda x: matrixrep._gram_product(a, x), seed, budget)
                assert 0 < len(products) <= budget

    @pytest.mark.parametrize("phi, n", [("rotation:i", 128), ("1,0.5,0.5,1", 256), ("parabolic:1,1", 128)])
    @pytest.mark.parametrize("wrong", ["seed", "last basis vector", "nan"])
    def test_a_wrong_lanczos_vector_moves_no_value(self, phi, n, wrong, monkeypatch):
        # The Lanczos vector only feeds the residual check that certifies a
        # value: a wrong one either still certifies, or the block goes to
        # LAPACK, and either way the value is LAPACK's within its bound.
        m = hc.build_weighted_composition(hc.polynomial_fn(2, 1), cli.parse_map(phi), hc.hardy(), n)
        want = float(np.linalg.svd(m.entries, compute_uv=False)[0])
        eps = np.finfo(float).eps
        slack = math.sqrt(2.0) * eps * float(np.linalg.norm(m.entries)) + 4 * eps * want
        vector = {"seed": lambda k: matrixrep._seed_vector(k),
                  "last basis vector": lambda k: np.eye(k, dtype=complex)[-1],
                  "nan": lambda k: np.full(k, np.nan, dtype=complex)}[wrong]
        monkeypatch.setattr(matrixrep, "_lanczos",
                            lambda apply, v, budget: matrixrep._RitzPair(0.0, vector(v.size), 0.0))
        est = hc.operator_norm(m)
        assert abs(est.value - want) <= est.residual / est.value + slack, est.method
        if phi == "rotation:i" or wrong == "nan":
            assert est.method == "lapack-svdvals"

    def test_lost_orthogonality_still_certifies_or_goes_to_lapack(self):
        # M*M = diag(d): a clustered top 1 - 1e-4 k^2 (k < 64), values spread
        # down to 0.5, and an isolated bottom 0, which converges first.  The
        # plain pass then loses orthogonality along it, yet the top Ritz
        # vector it returns, normalised, certifies; through operator_norm the
        # value is LAPACK's within its bound on either path.
        n = 256
        d = np.r_[1 - 1e-4 * np.arange(64) ** 2, np.linspace(1 - 1e-4 * 63**2, 0.5, n - 64)[1:], 0.0]
        a = np.diag(np.sqrt(d)).astype(complex)
        vectors = []

        def gram(x):
            vectors.append(x.copy())
            return matrixrep._adjoint_apply(a, a @ x)

        pair = matrixrep._lanczos(gram, matrixrep._seed_vector(n), n)
        basis = np.array(vectors)
        assert np.abs(basis.conj() @ basis.T - np.eye(len(vectors))).max() > 1e-3
        lam, resid, _ = matrixrep._rayleigh(gram, pair.vector)
        assert resid <= matrixrep._NORM_REL_TOL * lam
        assert lam == pytest.approx(1.0, rel=1e-14, abs=0.0)
        est = hc.operator_norm(hc.OperatorMatrix(a))
        assert abs(est.value - 1.0) <= est.residual / est.value + 4 * np.finfo(float).eps

    @pytest.mark.parametrize("phi, psi, space, n, most, checks", [
        ("0.5,0,0,1", "2,1/1,-0.4", "hardy", 1024, 12, 7),
        ("normal-form:0.3,0.4", "kernel-quotient:0.3,1", "bergman:0", 512, 12, 6),
        ("1,0.5,0.5,1", "2,1", "hardy", 512, 160, 42),
        ("parabolic:1,1", "1,0.5", "bergman:1", 256, 26, 22),
    ])
    def test_finite_section_work_counts(self, phi, psi, space, n, most, checks):
        # The benchmark's four finite sections (rotation 1, scale 1), each
        # built as spectral --numeric builds it: Gram products counted,
        # machine-independent, against 21, 21, 231 and 31 for the restarted
        # pass this one replaced, and no LAPACK call.  Against the pass with
        # a dense eigh at each of its checks, the same products and value
        # bit for bit, and past step 30 at most two dense eigh calls (12 of
        # the 42 checks on the N = 512 automorphism lie there).
        phi = cli.parse_map(phi)
        space = hc.space_from_label(space)
        psi = cli.parse_weight(psi, phi, space)
        m = hc.build_weighted_composition(psi, phi, space, matrixrep.proved_block_order(psi, phi, space, n))
        (est, products, lapack, eigh), dense = _assert_same_pass(m)
        assert (est.method, lapack) == ("lanczos", 0)
        assert products <= most
        assert len(dense[3]) == checks
        assert sum(j > matrixrep._LANCZOS_EVERY_STEP for j in eigh) <= 2

    @pytest.mark.parametrize("kind", ["2 I", "shift", "rank 3", "two values"])
    def test_an_invariant_krylov_space_ends_the_pass(self, kind):
        # Here the seed's Krylov space is invariant after a few products, and
        # the next direction is rounding noise: the pass returns the top Ritz
        # vector, which certifies, instead of losing orthogonality.
        rng = np.random.default_rng(3)
        a = {"2 I": lambda: 2.0 * np.eye(64),
             "shift": lambda: np.eye(64, k=-1),
             "rank 3": lambda: rng.standard_normal((64, 3)) @ rng.standard_normal((3, 64)),
             "two values": lambda: np.diag([3.0] * 10 + [1.0] * 54)}[kind]()
        est = hc.operator_norm(hc.OperatorMatrix(a))
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        assert est.method == "lanczos"
        assert abs(est.value - want) <= est.residual / est.value + 4 * np.finfo(float).eps * want


def _check_top_pair(alpha, off, start):
    """matrixrep._tridiagonal_top against eigh: None, or theta within 8 eps c
    of eigh's top eigenvalue (c = max |alpha| + 2 max |off| >= ||T||; 4.4 eps
    c at most in 2000 random cases), a unit s, and |s_last| within |s_last|/4
    of the modulus of the last component of eigh's top eigenvector, the
    tolerance the routine states."""
    pair = matrixrep._tridiagonal_top(list(alpha), list(off), np.asarray(start, dtype=float))
    if pair is None:
        return None
    theta, s = pair
    vals, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1), UPLO="U")
    c = max(map(abs, alpha)) + 2.0 * max(map(abs, off), default=0.0)
    eps = np.finfo(float).eps
    assert abs(theta - vals[-1]) <= 8 * eps * c
    assert abs(np.linalg.norm(s) - 1.0) <= 4 * eps * len(s)
    assert abs(abs(s[-1]) - abs(vecs[-1, -1])) <= abs(s[-1]) / 4
    return pair


def _tridiagonalise(d, v):
    """(alpha, off) of T = Q^T diag(d) Q, Q from Lanczos on diag(d) from v
    with full reorthogonalisation: a tridiagonal with the eigenvalues d."""
    q = [v / np.linalg.norm(v)]
    alpha, off = [], []
    for k in range(len(d)):
        w = d * q[-1]
        alpha.append(float(q[-1] @ w))
        basis = np.array(q)
        for _ in range(2):
            w = w - basis.T @ (basis @ w)
        if k + 1 < len(d):
            off.append(float(np.linalg.norm(w)))
            q.append(w / off[-1])
    return alpha, off


def _warm_start(alpha, off, rng, warm):
    """The top eigenvector of the leading block of order j - 1 padded with 0,
    as a Lanczos check starts, if warm; else a random vector."""
    if not warm or len(alpha) == 1:
        return rng.standard_normal(len(alpha))
    lead = np.linalg.eigh(np.diag(alpha[:-1]) + np.diag(off[:-1], 1), UPLO="U")[1][:, -1]
    return np.r_[lead, 0.0]


@st.composite
def diagonally_dominant(draw):
    """(alpha, off, start): a random positive semidefinite tridiagonal of
    order 1 to 120 (alpha_i >= |off_(i-1)| + |off_i|), some off-diagonals
    exactly 0, and a warm or random start (_warm_start)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = draw(st.integers(1, 120))
    off = rng.uniform(-1.0, 1.0, j - 1) * (rng.random(j - 1) > 0.1)
    pad = np.r_[0.0, np.abs(off), 0.0]
    alpha = pad[:-1] + pad[1:] + rng.uniform(0.0, 1.0, j) * draw(st.sampled_from((1.0, 1e-6)))
    alpha, off = alpha.tolist(), off.tolist()
    return alpha, off, _warm_start(alpha, off, rng, draw(st.booleans()))


@st.composite
def clustered_tops(draw):
    """(alpha, off, start): a tridiagonal of order 8 to 60 whose top two
    eigenvalues 1 and 1 - gap, gap from 1e-4 to 1e-10, stand above the rest
    in [0, 0.9], and a warm or random start (_warm_start)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 60))
    gap = 10.0 ** -draw(st.integers(4, 10))
    d = np.r_[1.0, 1.0 - gap, rng.uniform(0.0, 0.9, n - 2)]
    alpha, off = _tridiagonalise(d, rng.standard_normal(n))
    return alpha, off, _warm_start(alpha, off, rng, draw(st.booleans()))


class TestTridiagonalTop:
    @DERANDOMIZED
    @given(diagonally_dominant())
    def test_random_tridiagonals_match_eigh(self, case):
        _check_top_pair(*case)

    @DERANDOMIZED
    @given(clustered_tops())
    def test_clustered_tops_match_eigh_or_defer(self, case):
        _check_top_pair(*case)

    @staticmethod
    def _checks_of(m):
        """(alpha, off, start) of every O(j) check of operator_norm(m)'s pass."""
        calls, real = [], matrixrep._tridiagonal_top

        def recorded(alpha, off, start):
            calls.append((list(alpha), list(off), start.copy()))
            return real(alpha, off, start)

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(matrixrep, "_tridiagonal_top", recorded)
            hc.operator_norm(m)
        return calls

    @DERANDOMIZED
    @given(norm_sections())
    def test_the_checks_of_real_passes_match_eigh(self, case):
        # Every T_j a pass over a section checks past step 30, with the
        # warm start it was given: each confirmed pair matches eigh.
        for alpha, off, start in self._checks_of(hc.build_weighted_composition(*case)):
            assert len(alpha) > matrixrep._LANCZOS_EVERY_STEP
            _check_top_pair(alpha, off, start)

    def test_real_passes_confirm_their_checks(self):
        # On the N = 512 automorphism the O(j) pair is confirmed at every
        # check past step 30 but the last, the one eigh confirms.
        phi = hc.MoebiusMap(1, 0.5, 0.5, 1)
        m = hc.build_weighted_composition(hc.polynomial_fn(2, 1), phi, hc.hardy(), 512)
        pairs = [_check_top_pair(*call) for call in self._checks_of(m)]
        assert len(pairs) == 12 and all(p is not None for p in pairs[:-1])

    @pytest.mark.parametrize("start", ["block", "first", "coupled"])
    def test_exact_zero_pivots_do_not_raise(self, start):
        # T = 2 I_4 coupled to three more rows: the shift theta = 2 of a start
        # in the 2 I block makes the first pivots of T - 2I exactly 0, and so
        # does a Sturm count at 2.
        alpha = [2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 0.5]
        off = [0.0, 0.0, 0.0, 0.5, 0.25, 0.1]
        v = {"block": [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
             "first": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
             "coupled": [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]}[start]
        _check_top_pair(alpha, off, v)
        pivot = np.finfo(float).eps * 4.0
        y = matrixrep._shifted_solve(alpha, off, 2.0, v, pivot)
        assert all(math.isfinite(x) for x in y)
        vals = np.linalg.eigvalsh(np.diag(alpha) + np.diag(off, 1), UPLO="U")
        assert matrixrep._eigenvalues_above(alpha, off, 2.0, pivot) == int(np.sum(vals > 2.0 + 1e-12))

    @DERANDOMIZED
    @given(diagonally_dominant(), st.floats(0.0, 1.0))
    def test_sturm_counts_match_eigh(self, case, where):
        # The count above x, for x at least 1e-9 c from every eigenvalue.
        alpha, off, _ = case
        vals = np.linalg.eigvalsh(np.diag(alpha) + np.diag(off, 1), UPLO="U")
        c = max(map(abs, alpha)) + 2.0 * max(map(abs, off), default=0.0)
        x = -0.1 * c + where * 1.2 * c
        assume(np.min(np.abs(vals - x)) > 1e-9 * c)
        pivot = np.finfo(float).eps * c
        assert matrixrep._eigenvalues_above(alpha, off, x, pivot) == int(np.sum(vals > x))


class TestGramProduct:
    @pytest.mark.parametrize("k", [1, 31, 256, 257, 512, 700])
    def test_one_read_matches_two_products(self, k):
        # A block of one piece (K <= 256) is today's two products bit for
        # bit; more pieces sum the same terms in another order.
        rng = np.random.default_rng(k)
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        got = matrixrep._gram_product(a, x)
        two = matrixrep._adjoint_apply(a, a @ x)
        if k <= 256:
            assert np.array_equal(got, two)
        eps = np.finfo(float).eps
        bound = 4 * k * eps * np.linalg.norm(a, 2) ** 2 * np.linalg.norm(x)
        assert np.linalg.norm(got - a.conj().T @ (a @ x)) <= bound
        assert np.linalg.norm(got - two) <= bound


class TestAdjointKernelResidual:
    def test_diagonal_case(self, H2):
        m = hc.build_weighted_composition(1, hc.dilation(0.5), H2, 128)
        ar = m and hc.adjoint_kernel_residual(m, 1, hc.dilation(0.5), 0.5, H2)
        assert ar.residual < 1e-10

    @pytest.mark.parametrize("w", [1.0, complex("nan")])
    def test_point_outside_disk(self, H2, psi_one, parabolic_map, w):
        m = hc.build_weighted_composition(psi_one, parabolic_map, H2, 8)
        with pytest.raises(OutsideDiskError):
            hc.adjoint_kernel_residual(m, psi_one, parabolic_map, w, H2)

    def test_row_zero_identity(self, H2, psi_one, parabolic_map):
        m = hc.build_weighted_composition(psi_one, parabolic_map, H2, 64)
        ar = hc.adjoint_kernel_residual(m, psi_one, parabolic_map, 0, H2)
        assert ar.residual < 1e-12

    def test_residual_below_bound(self, H2, A0, psi_one, parabolic_map):
        rng = np.random.default_rng(42)
        for space in (H2, A0):
            m = hc.build_weighted_composition(psi_one, parabolic_map, space, 256)
            for w in random_disk_points(rng, 5, 0.6):
                ar = hc.adjoint_kernel_residual(m, psi_one, parabolic_map, w, space)
                assert ar.residual <= ar.tail_bound
                assert ar.residual < 1e-6

    @pytest.mark.parametrize("gamma", [1, 1.05, 2, 2.7, 3])
    def test_kernel_tail_bounds_true_tail(self, gamma):
        # sum_{k>=n} r2^k / beta(k)^2 = t_n 2F1(1, n + gamma; n + 1; r2) with
        # t_n = r2^n Gamma(n + gamma) / (n! Gamma(gamma)), in 40 digits.
        space = hc.hardy() if gamma == 1 else hc.bergman(gamma - 2)
        g = mpmath.mpf(space.gamma)
        for n in (8, 64, 256, 1024):
            for r in (0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999):
                w = r * cmath.exp(0.7j * n)
                with mpmath.workdps(40):
                    r2 = mpmath.mpf(abs(w)) ** 2
                    t_n = r2**n * mpmath.gamma(n + g) / (mpmath.factorial(n) * mpmath.gamma(g))
                    true = mpmath.sqrt(t_n * mpmath.hyp2f1(1, n + g, n + 1, r2))
                    if true <= mpmath.mpf("1e-150"):
                        continue
                    ratio = float(_kernel_tail(space, w, n) / true)
                assert 1 - 1e-12 <= ratio <= 1.5, (n, r, ratio)


class TestKernelGramNorms:
    def test_identity_map_equal_norms(self, H2):
        ident = hc.MoebiusMap(1, 0, 0, 1)
        kn = hc.kernel_gram_norms(1, ident, H2, [0.3, -0.2j], [1.0, 0.5], 64)
        assert abs(kn.forward - kn.adjoint) < 1e-9

    def test_single_kernel_closed_form(self, H2, A0, psi_one, parabolic_map):
        for space in (H2, A0):
            for w in (0.3, -0.5j, 0.6):
                kn = hc.kernel_gram_norms(psi_one, parabolic_map, space, [w], [1.0], 256)
                expected = abs(psi_one(w)) * (1 - abs(parabolic_map(w)) ** 2) ** (-space.gamma / 2)
                assert abs(kn.adjoint - expected) < 1e-10

    def test_forward_matches_matrix_action(self, H2, psi_one, parabolic_map):
        n = 128
        m = hc.build_weighted_composition(psi_one, parabolic_map, H2, n)
        w = 0.4
        kn = hc.kernel_gram_norms(psi_one, parabolic_map, H2, [w], [1.0], n)
        vec = m.entries @ hc.kernel(H2, w, n)
        assert abs(kn.forward - np.linalg.norm(vec)) < 1e-9

    def test_near_miss_certifies_at_order_512(self):
        # psi = 1 with the candidate-class symbol on bergman(-0.5), at the unit
        # kernel at -0.94: the margin is 5.39e-3, so the tail must stay below
        # 5.39e-4.  The beta-weighted Parseval bound gives 3.5e-4 here.
        space, w = hc.bergman(-0.5), -0.94
        c = 1 / hc.kernel_norm(space, w)
        kn = hc.kernel_gram_norms(1, hc.hyperbolic_nonauto_form(0.5), space, [w], [c], 512)
        assert hc.CertificateWitness((w,), (c,), kn.adjoint, kn.forward, kn.tail_bound, 512).is_conclusive

    def test_a_tail_below_the_double_range_is_not_zero(self):
        # At bergman:350 and order 1024 the image's tail bound is subnormal,
        # and c times it underflows to 0: the sum is rounded up, so that a
        # bound on a positive tail is positive, and the witness still holds.
        space, phi, c = hc.bergman(350), hc.rotation(1j), 0.018220103008334345
        images = KernelImages(hc.polynomial_fn(2, 1), phi, space)
        tail = images.image(0.15, 1024)[1]
        assert 0.0 < tail and c * tail == 0.0
        kn = hc.kernel_gram_norms(images, phi, space, [0.15], [c], 1024)
        assert kn.tail_bound > 0.0
        assert hc.CertificateWitness((0.15,), (c,), kn.adjoint, kn.forward, kn.tail_bound, 1024).is_conclusive

    def test_precision_loss_raised(self, A0, psi_one, parabolic_map):
        # A truncated series path: on H^2 this polynomial weight's norms are
        # closed-form and carry no tail.
        with pytest.raises(PrecisionLossError):
            hc.kernel_gram_norms(psi_one, parabolic_map, A0, [0.97], [1.0], 24)

    @pytest.mark.parametrize("routine", ("norms", "forms"))
    @pytest.mark.parametrize("points, error", [
        ([0.3, 1.0], OutsideDiskError),
        ([-2j], OutsideDiskError),
        ([complex("nan")], InvalidParameterError),
        ([0.3, complex(0.0, math.inf)], InvalidParameterError),
        ([], InvalidParameterError),
    ])
    def test_point_gate(self, H2, psi_one, parabolic_map, routine, points, error):
        # Both routines refuse the same points with the same error, before any numerics.
        with pytest.raises(error):
            if routine == "norms":
                hc.kernel_gram_norms(psi_one, parabolic_map, H2, points, [1.0] * len(points), 64)
            else:
                kernel_gram_forms(psi_one, parabolic_map, H2, points, 64)

    def test_table_of_another_symbol_refused(self, H2, A0, psi_one, parabolic_map):
        images = KernelImages(psi_one, parabolic_map, H2)
        with pytest.raises(InvalidParameterError):
            hc.kernel_gram_norms(images, hc.dilation(0.5), H2, [0.3], [1.0], 64)
        with pytest.raises(InvalidParameterError):
            kernel_gram_forms(images, parabolic_map, A0, [0.3], 64)


def _outcome(routine, *args):
    try:
        return routine(*args)
    except HypocompError as exc:
        return type(exc)


def _same(a, b):
    if isinstance(a, tuple):
        return isinstance(b, tuple) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return a == b


kernel_maps = st.sampled_from((
    hc.cayley_parabolic(1, 1),
    hc.dilation(0.5),
    hc.hyperbolic_nonauto_form(0.5),
    hc.compose(hc.alpha_p(0.3), hc.dilation(0.6j)),
))


def annulus(lo, hi):
    return st.builds(lambda r, u: r * u, st.floats(lo, hi), unimodular)


@DERANDOMIZED
@given(weights, kernel_maps, st.sampled_from((hc.hardy(), hc.bergman(0.7))),
       st.lists(st.tuples(annulus(0.1, 0.9), annulus(0.1, 2.0)), min_size=1, max_size=3))
def test_kernel_image_table_changes_no_number(psi, phi, space, terms):
    # One table serves repeated calls and several orders; each call returns
    # exactly what a one-shot call on the bare weight returns.  On a series
    # path (a rational weight, or bergman:0.7) order 1 raises
    # PrecisionLossError: for w != 0 the image g is not a polynomial, and its
    # tail bound beta(1) M(rho) / rho at a radius rho <= 9 is at least
    # beta(1) |g(0)| / 9, since M(rho) >= max |g| on |z| = rho >= |g(0)|,
    # while the order-1 norm is at most sum |c_i| |g_i(0)|.  On hardy that is
    # above 10% unconditionally; on bergman:0.7, where beta(1) / 9 ~ 0.068, it
    # is not implied, but holds on every example drawn here.  A polynomial
    # weight on hardy takes the closed forms, which no order changes.
    points = [w for w, _c in terms]
    coeffs = [c for _w, c in terms]
    images = KernelImages(psi, phi, space)
    first = _outcome(hc.kernel_gram_norms, psi, phi, space, points, coeffs, 48)
    for n in (48, 96, 1, 48, 96):
        got = _outcome(hc.kernel_gram_norms, images, phi, space, points, coeffs, n)
        want = _outcome(hc.kernel_gram_norms, psi, phi, space, points, coeffs, n)
        assert _same(got, want)
        if images.closed:
            assert _same(got, first)
        elif n == 1:
            assert got is PrecisionLossError
        got = _outcome(kernel_gram_forms, images, phi, space, points, n)
        want = _outcome(kernel_gram_forms, psi, phi, space, points, n)
        assert _same(got, want)


@DERANDOMIZED
@given(weights, self_maps(), spaces, st.lists(disk(0.9), min_size=1, max_size=3), st.sampled_from((1, 48, 128)))
def test_table_images_match_the_reference_path(psi, phi, space, points, n):
    # The table convolves its psi's cached series with the kernel factor's;
    # the reference expands psi (K_w o phi) whole for the table's psi, the
    # weight at unit scale.  The tail is the same call on the same product,
    # so it agrees bit for bit.
    images = KernelImages(psi, phi, space)
    beta = hc.beta_array(space, n + 1)
    for w in points:
        image = images.psi * hc.compose_with_moebius(hc.kernel_function(w, space.gamma), phi)
        want = hc.expand_analytic(image, n) * beta[:n]
        tail = funcalg.series_tail_bound(image, n)
        if tail > 0.0:
            tail = math.nextafter(float(beta[n]) * (1.0 + 2.0**-40) * tail, math.inf)
        row, got_tail = images.image(w, n)
        assert np.linalg.norm(row - want) <= 1e-13 * np.linalg.norm(want)
        assert got_tail.hex() == tail.hex()


def test_table_gates_each_kernel_image_once(monkeypatch):
    # psi's factor passed the gate when psi was built; each new point costs
    # its composed kernel's one gate, and a repeated lookup or another order
    # of a point costs none beyond that.
    psi = hc.rational_fn((2,), (1, 0.2)) * hc.kernel_function(0.3j, 2.0)
    images = KernelImages(psi, hc.hyperbolic_nonauto_form(0.5), hc.bergman(0))
    runs = []
    gate = funcalg._factor_admissible
    monkeypatch.setattr(funcalg, "_factor_admissible", lambda r: runs.append(r) or gate(r))
    for w, n in ((0.3, 48), (0.5j, 48), (0.3, 48), (0.3, 96), (-0.2, 96)):
        images.image(w, n)
    assert len(runs) == 4
    # On hardy a polynomial weight's closed forms serve every order: each new
    # point costs its one gate, a repeated point none, at any order.
    runs.clear()
    phi = hc.hyperbolic_nonauto_form(0.5)
    closed = KernelImages(hc.polynomial_fn(2, 1, 0.5), phi, hc.hardy())
    for w, n in ((0.3, 48), (0.5j, 48), (0.3, 48), (0.3, 96), (-0.2, 96)):
        hc.kernel_gram_norms(closed, phi, hc.hardy(), [w], [1.0], n)
    assert closed.closed and len(runs) == 3


# ---------------------------------------------------------------------------
# Closed-form kernel images: H^2 with a polynomial weight

polynomial_weights = st.lists(disk(0.9), max_size=3).map(lambda c: hc.polynomial_fn(1, *c))


def mp_image_data(psi, phi, w):
    """(psi's coefficients, p, q, c, d) in mpmath: psi (K_w o phi) =
    psi (d + c z)/(p + q z) on H^2, with p = d - conj(w) b, q = c - conj(w) a."""
    a, b, c, d = (mpmath.mpc(x) for x in phi.coefficients())
    den = mpmath.mpc(psi.base.den.coefficients[0])
    coeffs = [mpmath.mpc(x) / den for x in psi.base.num.coefficients]
    wc = mpmath.conj(mpmath.mpc(w))
    return coeffs, d - wc * b, c - wc * a, c, d


def mp_series_gram(psi, phi, points, terms):
    """<f_j, f_i> for the images f_i = psi (K_{w_i} o phi), summed over their
    first `terms` Maclaurin coefficients, each from the recurrence of
    (p + q z) g = d + c z: no closed form enters."""
    rows = []
    for w in points:
        coeffs, p, q, c, d = mp_image_data(psi, phi, w)
        g = [d / p, (c - q * d / p) / p]
        while len(g) < terms:
            g.append(-q * g[-1] / p)
        rows.append([mpmath.fsum(coeffs[j] * g[k - j] for j in range(min(k + 1, len(coeffs))))
                     for k in range(terms)])
    return [[mpmath.fsum(x * mpmath.conj(y) for x, y in zip(fj, fi)) for fj in rows] for fi in rows]


def mp_closed_norm(psi, phi, points, coeffs):
    """||sum_i c_i psi (K_{w_i} o phi)|| on H^2 from the closed form, in the
    working precision."""
    heads, tails = [], []
    for w in points:
        psi_k, p, q, c, d = mp_image_data(psi, phi, w)
        rho = -q / p
        m = len(psi_k) - 1
        g = [d / p] + [rho ** (k - 1) * (d * rho + c) / p for k in range(1, m + 2)]
        e = [mpmath.fsum(psi_k[j] * g[k - j] for j in range(min(k, m) + 1)) for k in range(m + 2)]
        heads.append(e[: m + 1])
        tails.append((e[m + 1], rho))
    cs = [mpmath.mpc(x) for x in coeffs]
    sq = mpmath.fsum(abs(mpmath.fsum(ci * h[k] for ci, h in zip(cs, heads))) ** 2 for k in range(len(heads[0])))
    sq += mpmath.fsum((mpmath.conj(ci * ti) * cj * tj / (1 - mpmath.conj(ri) * rj)).real
                      for ci, (ti, ri) in zip(cs, tails) for cj, (tj, rj) in zip(cs, tails))
    return mpmath.sqrt(max(sq, 0))


def largest_rho(psi, phi, points):
    return max(abs(q / p) for _c, p, q, _cc, _d in (mp_image_data(psi, phi, w) for w in points))


@DERANDOMIZED
@given(polynomial_weights, self_maps(), st.lists(disk(0.8), min_size=1, max_size=3))
def test_closed_gram_matches_a_40_digit_series_gram(psi, phi, points):
    # Summed to where |rho|^k falls below 1e-42 of the first term.
    with mpmath.workdps(40):
        r = float(largest_rho(psi, phi, points))
        assume(r <= 0.98)
        terms = 8 + (int(math.log(1e-42) / math.log(r)) if r > 0.0 else 0)
        want = mp_series_gram(psi, phi, points, terms)
    got = kernel_gram_forms(psi, phi, hc.hardy(), points, 48)[2]
    for i, j in np.ndindex(got.shape):
        scale = mpmath.sqrt(abs(want[i][i] * want[j][j]))
        assert abs(got[i, j] - complex(want[i][j])) <= 1e-13 * float(scale)


@DERANDOMIZED
@given(polynomial_weights, self_maps(), st.lists(disk(0.8), min_size=1, max_size=3))
def test_closed_gram_matches_the_order_1024_series_gram(psi, phi, points):
    # Where |rho|^1024 is negligible, the order-1024 truncation of the
    # series path is the whole image.
    assume(float(largest_rho(psi, phi, points)) <= 0.97)
    # The rows are the table's, of its psi at unit scale, whose own table has
    # _shift 0: its forms are at the same scale.
    closed = KernelImages(psi, phi, hc.hardy())
    got = kernel_gram_forms(closed.psi, phi, hc.hardy(), points, 1024)[2]
    rows = np.array([closed.image(w, 1024)[0] for w in points])
    want = rows.conj() @ rows.T
    scale = np.sqrt(np.outer(np.diag(want).real, np.diag(want).real))
    assert closed.closed and np.all(np.abs(got - want) <= 1e-12 * scale)


def test_closed_forward_is_within_its_bound_of_a_50_digit_norm():
    # Combinations of 1 to 3 kernel images on maps of every class, with
    # |c_i| up to 1e3 and points up to |w| = 1 - 1e-5; half of the pairs
    # nearly cancel (nearby points, nearly opposite coefficients).
    rng = np.random.default_rng(4099)
    maps = random_self_maps(rng, 120) + [phi for _ in range(10) for phi in maps_of_every_kind(rng)]
    for phi in maps:
        psi = hc.polynomial_fn(*(rng.standard_normal(4) + 1j * rng.standard_normal(4))[: rng.integers(1, 5)])
        k = int(rng.integers(1, 4))
        top = (0.5, 0.9, 0.99, 1 - 1e-5)[rng.integers(0, 4)]
        points = [top * rng.uniform() ** 0.3 * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(k)]
        coeffs = list(10 ** rng.uniform(-3, 3, k) * np.exp(2j * math.pi * rng.uniform(size=k)))
        if k > 1 and rng.uniform() < 0.5:
            near = points[0] + 10 ** rng.uniform(-9, -4) * cmath.exp(2j * math.pi * rng.uniform())
            points[1] = near if abs(near) < 1 else points[0]
            coeffs[1] = -coeffs[0] * (1 + 10 ** rng.uniform(-9, -3))
        kn = hc.kernel_gram_norms(psi, phi, hc.hardy(), points, coeffs, 48)
        with mpmath.workdps(50):
            exact = mp_closed_norm(psi, phi, points, coeffs)
            assert 0.0 < kn.tail_bound < math.inf
            assert abs(mpmath.mpf(kn.forward) - exact) <= kn.tail_bound
        if k == 1 and top <= 0.9:
            assert kn.tail_bound <= 1e-12 * kn.forward


non_self_maps = st.sampled_from((
    hc.MoebiusMap(2, 0, 0, 1),
    hc.MoebiusMap(1, 0.5, 0, 1),
    hc.MoebiusMap(1, 0, 1, 0.5),
    hc.MoebiusMap(0.5, 0.6, 0.2j, 1),
))
every_kind = st.builds(lambda seed, i: maps_of_every_kind(np.random.default_rng(seed))[i],
                       st.integers(0, 2**32 - 1), st.integers(0, len(hc.MapKind) - 1))
near_circle = st.builds(lambda r, u: r * u,
                        st.one_of(st.floats(0.0, 1 - 1e-9), st.floats(0.99, 1 - 1e-9), st.just(1 - 1e-9)),
                        unimodular)


@DERANDOMIZED
@given(polynomial_weights, st.one_of(every_kind, non_self_maps), st.lists(near_circle, min_size=1, max_size=3))
def test_closed_path_refuses_what_the_series_path_refuses(psi, phi, points):
    # The same table with its closed forms switched off takes the series path
    # for the same weight.  Both gate each point by composed_kernel, so they
    # raise the same error or both return; PrecisionLossError, which asks the
    # series path for a higher order, refuses no input, and the closed path
    # has no order to raise.
    def outcome(routine, images, *args):
        try:
            routine(images, phi, hc.hardy(), points, *args)
        except PrecisionLossError:
            return None
        except HypocompError as exc:
            return type(exc)
        return None

    closed, series = KernelImages(psi, phi, hc.hardy()), KernelImages(psi, phi, hc.hardy())
    series.closed = False
    ones = [1.0] * len(points)
    assert closed.closed
    assert outcome(hc.kernel_gram_norms, closed, ones, 1024) == outcome(hc.kernel_gram_norms, series, ones, 1024)
    assert outcome(kernel_gram_forms, closed, 1024) == outcome(kernel_gram_forms, series, 1024)


def test_closed_adjoint_is_unbounded_where_phi_reaches_the_circle():
    # z + 1/2 is no self-map and sends 1/2 to 1, where C* K_w = conj(psi(w)) K_1
    # has no finite norm: the closed path reports inf rather than dividing by
    # zero, after the gates, and no witness certifies with it.
    phi, points, coeffs = hc.MoebiusMap(1, 0.5, 0, 1), [0.5, 0.2], [1.0, 1.0]
    kn = hc.kernel_gram_norms(hc.polynomial_fn(1, 0.5), phi, hc.hardy(), points, coeffs, 48)
    assert kn.adjoint == math.inf and math.isfinite(kn.forward)
    assert not hc.CertificateWitness(tuple(points), tuple(coeffs), kn.adjoint, kn.forward, kn.tail_bound, 48).is_conclusive
    # 2z sends 1/2 to 1 too, but there K_w o phi = 1/(1 - z) has its pole on
    # the circle, and the gate refuses it before any form is evaluated.
    with pytest.raises(hc.IndeterminateError):
        hc.kernel_gram_norms(hc.polynomial_fn(1, 0.5), hc.MoebiusMap(2, 0, 0, 1), hc.hardy(), [0.5], [1.0], 48)


def test_series_adjoint_is_unbounded_where_phi_reaches_the_circle():
    # The same case on the series path (a hardy table with its closed forms
    # switched off) gives the same inf, and no RuntimeWarning (an error in
    # this suite): both paths evaluate the adjoint by one _kernel_form.
    phi, points, coeffs = hc.MoebiusMap(1, 0.5, 0, 1), [0.5, 0.2], [1.0, 1.0]
    for pts, cs in ((points[:1], coeffs[:1]), (points, coeffs)):
        series = KernelImages(hc.polynomial_fn(1, 0.5), phi, hc.hardy())
        series.closed = False
        kn = hc.kernel_gram_norms(series, phi, hc.hardy(), pts, cs, 48)
        assert kn.adjoint == math.inf and math.isfinite(kn.forward)


def scaled_back(x: float, k: int, got: float) -> bool:
    """Whether got is x 2^k as the Gram routines scale back: exactly where
    that stays in the normal range or is 0, else rounded up."""
    try:
        want = math.ldexp(x, k)
    except OverflowError:
        want = math.inf
    return got == want if want == 0.0 or want >= sys.float_info.min else got >= want


@DERANDOMIZED
@given(st.one_of(weights, st.builds(lambda p, u: p * hc.kernel_function(u, 1.5), weights, disk(0.7))),
       kernel_maps, st.one_of(st.just(hc.hardy()), st.floats(-0.5, 3.0).map(hc.bergman)),
       st.lists(st.tuples(annulus(0.1, 0.9), annulus(0.1, 2.0)), min_size=1, max_size=3),
       st.integers(-560, 500), st.sampled_from((48, 128)))
def test_power_of_two_weights_scale_norms_and_forms_exactly(psi, phi, space, terms, k, n):
    # A table holds its weight at unit scale, so 2^k psi makes psi's table
    # but for its shift, and the routines scale back once: the norms by 2^k
    # and A, F by 4^k, bit for bit, an entry beyond the float range reading
    # inf (with no RuntimeWarning, an error in this suite); K does not depend
    # on the weight.  Errors, PrecisionLossError among them, are the same.
    points, coeffs = [w for w, _c in terms], [c for _w, c in terms]
    big = psi.scale(2.0**k)
    got = _outcome(hc.kernel_gram_norms, big, phi, space, points, coeffs, n)
    want = _outcome(hc.kernel_gram_norms, psi, phi, space, points, coeffs, n)
    if isinstance(want, type):
        assert got is want
    else:
        assert all(scaled_back(x, k, y) for x, y in zip((want.forward, want.adjoint, want.tail_bound),
                                                         (got.forward, got.adjoint, got.tail_bound)))
    got = _outcome(kernel_gram_forms, big, phi, space, points, n)
    want = _outcome(kernel_gram_forms, psi, phi, space, points, n)
    if isinstance(want, type):
        assert got is want
        return
    assert np.array_equal(got[0], want[0])
    for g, f in zip(got[1:], want[1:]):
        with np.errstate(over="ignore"):
            f = np.ldexp(f.real, 2 * k) + 1j * np.ldexp(f.imag, 2 * k)
        assert np.array_equal(g.real, f.real) and np.array_equal(g.imag, f.imag)


def test_forms_beyond_the_float_range_read_inf():
    # 4^520 |psi(w)|^2 exceeds the double range while 2^520 ||C* f|| does not.
    phi, psi = hc.hyperbolic_nonauto_form(0.5), hc.polynomial_fn(2, 1).scale(2.0**520)
    for space in (hc.hardy(), hc.bergman(0)):
        _kernel, adjoint, forward = kernel_gram_forms(psi, phi, space, [0.3, -0.5j], 128)
        assert np.isinf(adjoint.real).all() and np.isinf(forward.real.diagonal()).all()
        kn = hc.kernel_gram_norms(psi, phi, space, [0.3], [1.0], 128)
        assert 1e156 < min(kn.forward, kn.adjoint) and max(kn.forward, kn.adjoint) < math.inf


def test_closed_path_expands_no_series(monkeypatch):
    # A search on hardy with a polynomial weight: every Gram is closed-form,
    # and the certificate holds at the order the search started from.
    def refuse(*args):
        raise AssertionError("expanded a series")

    monkeypatch.setattr(matrixrep, "expand_analytic", refuse)
    monkeypatch.setattr(matrixrep, "series_tail_bound", refuse)
    assert hc.witness_search(1, hc.dilation(0.5), hc.hardy(), order=48) is None
    w = hc.witness_search(hc.polynomial_fn(1, 0.01), hc.hyperbolic_nonauto_form(0.5), hc.hardy(), order=8)
    assert w is not None and w.is_conclusive and w.order == 8


@DERANDOMIZED
@given(weights, kernel_maps, st.sampled_from((hc.hardy(), hc.bergman(0.7))),
       st.lists(annulus(0.1, 0.9), min_size=2, max_size=3, unique=True))
def test_stage_two_eigenpair_matches_scipy(psi, phi, space, points):
    # The witness search's pencil: adjoint form against the regularised
    # forward form.  The residual is scaled as in backward error analysis.
    # A rounding of b moves the eigenvalue itself by about eps cond(b), so
    # for near-coincident points (cond(b) up to 1e12) scipy's eigh and the
    # Cholesky reduction agree only to that; both sit within it of the
    # 50-digit eigenvalue.
    _kernel, a, f = kernel_gram_forms(psi, phi, space, points, 48)
    b = f + 1e-12 * float(np.trace(f).real) / len(points) * np.eye(len(points))
    lam, v = _top_eigenpair(a, b)
    scale = (np.linalg.norm(a, 2) + abs(lam) * np.linalg.norm(b, 2)) * np.linalg.norm(v)
    assert np.linalg.norm(a @ v - lam * (b @ v)) <= 1e-12 * scale
    want = scipy.linalg.eigh(a, b, eigvals_only=True)[-1]
    assert abs(lam - want) <= 1e-12 * max(1.0, np.linalg.cond(b) / 1e3) * abs(want)


def test_stage_two_skips_indefinite_forward_form():
    # witness_search skips a trial on this error, as it did on scipy's.
    with pytest.raises(np.linalg.LinAlgError):
        _top_eigenpair(np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))


def _definite_pencils(seed, t, m):
    """t random pencils (a, b): a Hermitian, b Hermitian positive definite."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, t, m, m)) + 1j * rng.standard_normal((2, t, m, m))
    a = x[0] + x[0].conj().swapaxes(-1, -2)
    b = x[1] @ x[1].conj().swapaxes(-1, -2) + 0.1 * np.eye(m)
    return a, b


@DERANDOMIZED
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from((2, 3)))
def test_stacked_eigenpairs_are_the_one_pencil_eigenpairs(seed, t, m):
    a, b = _definite_pencils(seed, t, m)
    lam, v = _top_eigenpair(a, b)
    assert lam.shape == (t,) and v.shape == (t, m)
    for i in range(t):
        lam1, v1 = _top_eigenpair(a[i], b[i])
        assert abs(lam[i] - lam1) <= 1e-12 * abs(lam1)
        phase = np.vdot(v1, v[i])
        assert np.linalg.norm(v[i] - phase / abs(phase) * v1) <= 1e-10 * np.linalg.norm(v1)


def test_stacked_eigenpairs_skip_only_the_indefinite_slice():
    # The batched Cholesky raises for the whole stack; the slice-by-slice
    # fallback keeps every other slice's pair and marks the failed one NaN.
    a, b = _definite_pencils(7, 5, 3)
    b[2] = np.diag([1.0, -1.0, 1.0])
    lam, v = _top_eigenpair(a, b)
    assert np.isnan(lam[2]) and np.isnan(v[2]).all()
    for i in (0, 1, 3, 4):
        lam1, v1 = _top_eigenpair(a[i], b[i])
        assert lam[i] == lam1 and np.array_equal(v[i], v1)


@DERANDOMIZED
@given(weights, kernel_maps, st.sampled_from((hc.hardy(), hc.bergman(0.7))),
       st.lists(annulus(0.1, 0.9), min_size=3, max_size=12, unique=True),
       st.sampled_from((48, 128, 1024)), st.data())
def test_grid_form_slices_are_the_one_list_forms(psi, phi, space, grid, n, data):
    # Stage 2 of the witness search slices its trials' forms from the forms of
    # its grid.  K and A are elementwise, so their slices are exact; F is one
    # matrix product over the grid, whose slices may round differently.
    images = KernelImages(psi, phi, space)
    forms = kernel_gram_forms(images, phi, space, grid, n)
    for _ in range(3):
        idx = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=2, max_size=3, unique=True))
        kernel, adjoint, forward = (g[np.ix_(idx, idx)] for g in forms)
        want_k, want_a, want_f = kernel_gram_forms(images, phi, space, [grid[i] for i in idx], n)
        assert np.array_equal(kernel, want_k) and np.array_equal(adjoint, want_a)
        assert np.max(np.abs(forward - want_f)) <= 1e-14 * np.max(np.abs(want_f))


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(0.0, -math.inf)], ids=repr)
def test_non_finite_coefficient_refused(H2, monkeypatch, c):
    # Refused before any numerics: no kernel image is expanded, and no NaN
    # norm or RuntimeWarning comes out.
    def refuse(*args):
        raise AssertionError("expanded a kernel image")

    monkeypatch.setattr(matrixrep, "composed_kernel", refuse)
    with pytest.raises(InvalidParameterError, match="coefficients must be finite"):
        hc.kernel_gram_norms(1, hc.dilation(0.5), H2, [0.3, 0.5], [1.0, c], 48)


class TestCsvDumps:
    def test_matrix_format(self, H2, tmp_path):
        m = hc.build_weighted_composition(1, hc.dilation(0.5), H2, 2)
        path = tmp_path / "m.csv"
        hc.write_matrix_csv(m, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,j,re,im"
        assert len(lines) == 5
        assert lines[1].startswith("0,0,1.0,")

    def test_eigenvalue_format(self, tmp_path):
        path = tmp_path / "e.csv"
        hc.write_eigenvalues_csv([1 + 2j, 3], str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,re,im"
        assert lines[1] == "0,1.0,2.0"
