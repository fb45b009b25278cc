"""Finite-section matrices for weighted composition and multiplication operators.

An N x N section holds, in column j, the orthonormal-basis coordinates of the
image of e_j = z^j / beta(j).  Dense complex storage; N is at most
MAX_TRUNCATION = 1024.  Sections are built for linear-fractional symbols
phi only.  Weighted composition and multiplication sections (the latter is
the case phi(z) = z) share one build, row by row: each row of the
coefficients of psi phi^j follows from the row above it by the recurrence
that (c z + d) phi = a z + b gives, written once and contiguously (see
_section).  Sections with phi(0) = 0, multiplication sections among them,
need no solve: each row is plain vector arithmetic, O(N^2) in all, and the
section is lower triangular with its strict upper triangle exactly zero, so
its spectral radius is read off the diagonal.  Any other row is one
bidiagonal solve, a doubling scan of log2 N vector steps in place.  All of
it is numpy; nothing in this package imports scipy.  Everything is pure but
a KernelImages table, which fills as the one witness search that owns it
looks up kernel images, and is never shared between searches; matrix builds
may run concurrently on separate inputs.

operator_norm, truncation_spectral_radius and gelfand_estimate work, LAPACK
calls included, on the section scaled by a power of two to Frobenius norm
in [1/2, 1) and scale the value back, both exactly: 2^j M gives 2^j times
the value for M, and no weight is too large or too small for them.  One
Krylov-Schur routine (_krylov_schur) finds a dominant eigenpair for both of
the first two: on the Hermitian M*M, where it is thick-restart Lanczos,
operator_norm takes at most K products of it, one to check the pair and
one LAPACK svd if that fails; on the section and its adjoint
truncation_spectral_radius takes two passes of at most max(30, K/4)
products each and one check, and calls LAPACK's eigvals only when they
have not pinned the radius.  Their paths depend on work done, never on time.
gelfand_estimate certifies ||M^k|| by power steps with M alone (2k
matrix-vector products a step) and forms M^k with matrix_power only when
those steps stall, as they do on the clustered top singular values of
Toeplitz-like sections.

Compact sections are built in part and deflate.  Column j of a section is
psi phi^j / beta(j); when phi maps the closed disk into the open disk its
coefficients decay geometrically in i and j, so the order-N section M_N is,
to unit roundoff, a small leading block padded with zeros.
proved_block_order proves from one circle |z| = rho > 1 an order beyond
which M_N holds at most eps^2/4 ||M_N||_F^2, and spectral --numeric builds
that leading block alone, bit for bit entries[:K, :K] of M_N.  The analysis
of a section M (OperatorMatrix._analysis) deflates it further to A_K
(_leading_block): K is the smallest order such that rows K.. and columns
K.. each hold at most eps^2 ||M||_F^2, so M = diag(A_K, 0) + E with
||E||_F <= sqrt(2) eps ||M||_F, the size of LAPACK's own backward error on
M.  So A_K differs from M_N by at most (sqrt(2) + 1/2) eps ||M_N||_F in
Frobenius norm: sqrt(2) eps from the deflation, eps/2 from the part not
built.  The scale, K and whether M is lower triangular are found once per
section, in one pass over blocks of rows with no scaled copy of M, and A_K
is scaled once from entries[:K, :K]; operator_norm, truncation_spectral_radius
and gelfand_estimate all read it (see each for what that moves).
Automorphism, parabolic, rotation and multiplication sections are built and
run in full.

Finite-section positivity is advisory only: compressions do not preserve the
sign of A*A - AA* (the forward shift gives a spurious negative eigenvalue),
so non-hyponormality certificates must come from kernel_gram_norms, whose
adjoint side is exact and whose forward side is exact too on H^2 with a
polynomial weight (closed forms, with a stated rounding bound) and otherwise
carries a truncation-tail bound; on every space both sides are taken at a
table's unit scale (KernelImages) and scaled back, exactly in the normal range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailureError, InvalidParameterError, PrecisionLossError
from .funcalg import (
    _EPS,
    _TINY,
    AnalyticFunction,
    _check_truncation,
    _log_majorant,
    _tail_radii,
    constant_fn,
    composed_kernel,
    expand_analytic,
    series_tail_bound,
)
from .moebius import IDENTITY, MoebiusMap, disk_image, require_in_disk, require_self_map
from .space import SpaceSpec, beta_array, kernel

_POWER_SEED = 1729
# Relative residual that certifies a Gram eigenvalue (operator_norm, _power_steps).
_NORM_REL_TOL = 1e-8
# Most power steps of one certificate (gelfand_estimate).
_QUICK_STEPS = 8
# Krylov basis size, the Ritz vectors each restart keeps, and the relative
# residual at which a Ritz pair or the basis counts as converged (_krylov_schur).
_KRYLOV_BASIS = 20
_KRYLOV_KEEP = 10
_KRYLOV_TOL = 1e-12
# Block orders above which a Krylov pass runs: room for a full basis and one restart.
_KRYLOV_MIN_ORDER = 2 * _KRYLOV_BASIS - _KRYLOV_KEEP
# Largest first-order error bound kappa r / |theta| of a kept Krylov radius
# (truncation_spectral_radius): at most one unit in its 12th printed digit.
_RADIUS_REL_TOL = 1e-11
# Rows per block of a section's analysis (OperatorMatrix._analysis): its
# scaled block is 512 KiB at N = 1024.
_BLOCK_ROWS = 32
# The entries of column 0 summed for the bound on ||M||_F, and
# log(eps^2 / 4), the share of that bound's square that the part of a
# section left unbuilt may hold (_tail_ratio_bound).
_COLUMN_TERMS = 64
_LOG_QUARTER_EPS2 = math.log(0.25 * _EPS * _EPS)


@dataclass(frozen=True)
class OperatorMatrix:
    """A non-empty square section: its entries as a read-only C-contiguous
    complex array (a read-only one is shared, anything else copied, so a
    caller's array stays writeable), and its analysis (_analysis), made once."""

    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        read_only = isinstance(e, np.ndarray) and not e.flags.writeable
        arr = (np.asarray if read_only else np.array)(e, dtype=complex, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise InvalidParameterError("entries must be a non-empty square matrix")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _analysis(self) -> _Analysis | None:
        """Scale, leading block and shape of the section, found on first use;
        None if it is zero, InvalidParameterError if an entry is nan or inf.

        b = M 2^-e has Frobenius norm fro in [1/2, 1) and block order K
        (_leading_block).  2^-e1 brings the largest real or imaginary part
        into [1/2, 1), so that the sums of squares stay in the float range,
        and 2^-e2 = 2^(e1 - e) the Frobenius norm.  One pass over blocks of
        rows tests each for entries above the diagonal until one is found
        (lower), scales it by 2^-e1 into a buffer of one block and takes its
        row and column sums of squares, which 2^-e2 scales by an exact power
        of four.  Only block, A_K = b[:K, :K], is scaled from entries[:K, :K],
        by the same two ldexp steps, and kept read-only.
        """
        parts = self.entries.view(np.float64)
        big = max(float(parts.max()), -float(parts.min()))
        if not big < math.inf:   # nan too
            raise InvalidParameterError("a finite-section entry is nan or inf: the section leaves the double range")
        if big == 0.0:
            return None
        e1 = math.frexp(big)[1]
        n, width = parts.shape
        rows, cols = np.empty(n), np.zeros(width)
        buf = np.empty((min(_BLOCK_ROWS, n), width))
        lower = True
        for i in range(0, n, _BLOCK_ROWS):
            j = min(i + _BLOCK_ROWS, n)
            block = parts[i:j]
            lower = lower and not (block[:, 2 * j:].any() or np.triu(self.entries[i:j, i:j], 1).any())
            block = np.ldexp(block, -e1, out=buf[:j - i])
            np.einsum("ij,ij->i", block, block, out=rows[i:j])
            cols += np.einsum("ij,ij->j", block, block)
        e2 = math.frexp(math.sqrt(float(rows.sum())))[1]
        scale = math.ldexp(1.0, -2 * e2)
        rows *= scale
        cols = cols.reshape(-1, 2).sum(axis=1) * scale   # each column's real and imaginary parts
        order = _leading_block(rows, cols)
        b = np.ldexp(parts[:order, :2 * order], -e1)
        b = np.ldexp(b, -e2, out=b).view(complex)
        b.flags.writeable = False
        return _Analysis(e1, e1 + e2, order, math.sqrt(float(rows.sum())), lower, b)


class _Analysis(NamedTuple):
    e1: int
    e: int
    order: int
    fro: float
    lower: bool          # the strict upper triangle is zero
    block: np.ndarray    # A_K, unit-scaled


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    method: str
    residual: float


def as_analytic(psi) -> AnalyticFunction:
    if isinstance(psi, AnalyticFunction):
        return psi
    return constant_fn(complex(psi))


def _section(psi_f: AnalyticFunction, phi: MoebiusMap, space: SpaceSpec, n: int) -> OperatorMatrix:
    """Section whose column j holds the coordinates of psi * phi^j / beta(j).

    Built row by row.  With phi = (a z + b) / (c z + d) and
    Q[i, j] = [z^i] psi phi^j, the identity (c z + d) psi phi^(j+1) =
    (a z + b) psi phi^j gives

        d Q[i, j+1] - b Q[i, j] = a Q[i-1, j] - c Q[i-1, j+1],   Q[i, 0] = psi_i,

    so each row follows from the one above it and is written once,
    contiguously, in O(N), or O(N log N) with a solve.  When phi(0) = 0 (b = 0:
    dilations, rotations, multiplications, every map fixing the origin) a row
    is plain vector arithmetic with no solve, Q[i, j+1] = (a Q[i-1, j] -
    c Q[i-1, j+1]) / d, and it is non-zero only for j <= i: the section is
    lower triangular and its strict upper triangle is never written.
    Otherwise a row is the first-order recurrence x_j = r x_(j-1) + y_j along
    it, with r = b / d = phi(0) of modulus below 1, so it is stable: after
    the division by d, a doubling scan adds r^s x_(j-s) to every x_j for
    s = 1, 2, 4, ..., at most log2 N vector steps in place.  After the steps
    below S, x_j lacks exactly r^S x_(j-S) of its sum, so the scan stops at
    the first S with |r|^S <= eps^2 (S = 128 for |r| = 1/2): what it leaves
    out is below eps^2 of the largest entry of the row.  The scan adds the
    terms in another order than a serial solve (BLAS tbsv) and is as
    accurate: on random sections at N <= 256, both differ from an 80-bit
    serial solve by at most about 8 eps of the largest entry.  Then, off
    Hardy, the whole section is scaled in place to Q[i, j] beta(i) / beta(j),
    multiplied by beta(i) and divided by beta(j) in complex arithmetic, so no
    loop casts; a beta that underflows to 0 is an InvalidParameterError.
    """
    a, b, c, d = phi.a, phi.b, phi.c, phi.d
    q = np.zeros((n, n), dtype=complex)
    q[:, 0] = expand_analytic(psi_f, n)
    solved, term = np.zeros(n, dtype=complex), np.empty(n, dtype=complex)
    # A solved row is built in `solved` and then copied, so that the scan's
    # views, and its powers as numpy scalars, are made once: slicing and
    # converting cost about as much as a step's arithmetic.
    scan, s, rs = [], 1, b / d   # x[s:] += r^s x[:-s] for x = solved, r = phi(0)
    while b and s < n and abs(rs) > _EPS * _EPS:
        scan.append((solved[s:], solved[:-s], term[:n - s], np.array(rs)))
        s, rs = 2 * s, rs * rs
    # In place: the loop allocates nothing, so no per-row temporaries
    # fragment the heap around the section.
    for i in range(n):
        x = solved if b else q[i]
        width = n if b else i + 1   # row i is zero beyond column i when b = 0
        row = x[1:width]
        if i:
            prev = q[i - 1, :width]
            np.multiply(prev[:-1], a, out=row)
            if c:
                np.subtract(row, np.multiply(prev[1:], c, out=term[:width - 1]), out=row)
        if d != 1:
            np.divide(row, d, out=row)
        if b:
            x[0] = q[i, 0]
            for hi, lo, product, power in scan:
                np.add(hi, np.multiply(lo, power, product), hi)
            q[i] = x
    if space.alpha != -1.0:   # on Hardy every beta is 1
        beta = beta_array(space, n).astype(complex)
        if not beta[-1]:   # beta decreases
            raise InvalidParameterError(f"beta({n - 1}) underflows to 0 on {space.label()}, outside the double range")
        q *= beta[:, None]
        with np.errstate(over="ignore"):   # inf beyond the double range, which the analysis refuses
            q /= beta
    q.flags.writeable = False   # so that OperatorMatrix shares it
    return OperatorMatrix(q)


def build_weighted_composition(psi, phi: MoebiusMap, space: SpaceSpec, n: int) -> OperatorMatrix:
    """Section of f -> psi * (f o phi) for a linear-fractional self-map phi,
    in O(N^2), or O(N^2 log N) when phi(0) != 0 (see _section)."""
    _check_truncation(n)
    if not isinstance(phi, MoebiusMap):
        raise InvalidParameterError("finite sections need a linear-fractional symbol")
    require_self_map(phi)
    return _section(as_analytic(psi), phi, space, n)


def build_multiplication(h, space: SpaceSpec, n: int) -> OperatorMatrix:
    """Section of f -> h * f: entry[i][j] = h_{i-j} beta(i)/beta(j).

    It is the weighted composition section with weight h and phi(z) = z.
    """
    _check_truncation(n)
    return _section(as_analytic(h), IDENTITY, space, n)


def _image_sup(phi: MoebiusMap, rho: np.ndarray) -> np.ndarray:
    """Upper bounds on s_rho = max_{|z|=rho} |phi| for an array of radii rho.

    z -> phi(rho z) = (a rho z + b)/(c rho z + d) maps the closed unit disk
    onto the disk |w - C| <= R of moebius.disk_image, so s_rho = |C| + R.  Its
    products, moduli and the difference g = |d|^2 - |c rho|^2 each round by a
    few eps relative to the moduli of their operands, so the computed value
    is within 8 eps ((|b| + |a rho|)(|d| + |c rho|) + s (|d|^2 + |c rho|^2)) / g
    of the exact one, which is added.  inf where g <= 0, where the pole -d/c
    is not outside the circle.
    """
    a, b, c, d = phi.coefficients()
    ar, cr = a * rho, c * rho
    gap = abs(d) ** 2 - np.abs(cr) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):   # masked where gap <= 0
        centre, radius = disk_image(ar, b, cr, d)
        s = np.abs(centre) + radius
        err = 8.0 * _EPS * ((abs(b) + np.abs(ar)) * (abs(d) + np.abs(cr)) + s * (abs(d) ** 2 + np.abs(cr) ** 2)) / gap
    return np.where(gap > 0.0, s + err, math.inf)


def _contact_radius(phi: MoebiusMap) -> float:
    """rho* = (|d|^2 - |b|^2) / (|B| + |ad - bc|), B = a conj(b) - c conj(d):
    s_rho = max_{|z|=rho} |phi| < 1 exactly for rho < rho*.

    |phi(z)| < 1 exactly where A |z|^2 + 2 Re(B z) + C < 0, with A = |a|^2 -
    |c|^2 and C = |b|^2 - |d|^2 < 0 for a self-map.  On |z| = rho the left
    side peaks, at z = rho conj(B)/|B|, at A rho^2 + 2 |B| rho + C, whose
    discriminant |B|^2 - AC is |ad - bc|^2; its least positive root is rho*
    (also at A = 0).  So rho* > 1 exactly when phi maps the closed disk into
    D.  At the pole -d/c the left side is |a z + b|^2 > 0, so the pole lies
    beyond rho*.
    """
    a, b, c, d = phi.coefficients()
    return (abs(d) ** 2 - abs(b) ** 2) / (abs(a * b.conjugate() - c * d.conjugate()) + abs(a * d - b * c))


def _log_kernel_tail(gamma: float, s2, k, log_b2k):
    """Upper bounds on log(sum_{j>=k} s2^j / beta(j)^2) for 0 < s2 < 1, with
    log_b2k = log beta(k)^2 (inf where beta(k) underflows).

    The sum over all j is (1 - s2)^-gamma, and the terms' ratio s2 (j +
    gamma) / (j + 1) does not increase in j since gamma >= 1, so where q =
    s2 (k + gamma) / (k + 1) < 1 the sum is at most s2^k / beta(k)^2 /
    (1 - q), with equality on Hardy; the lesser bound is taken.  q is
    rounded up, and 16 eps times the sum of the moduli of the terms is added
    for the rest of the rounding, but not for that of log_b2k.
    """
    full, log_s2 = -gamma * np.log1p(-s2), np.log(s2)
    q = s2 * (k + gamma) / (k + 1.0) * (1.0 + 4.0 * _EPS)
    fits = q < 1.0
    shrink = -np.log1p(-np.where(fits, q, 0.0))
    log_tail = np.where(fits, np.minimum(k * log_s2 - log_b2k + shrink, full), full)
    return log_tail + 16.0 * _EPS * (np.abs(full) + k * np.abs(log_s2) + np.abs(log_b2k) + shrink)


def _tail_ratio_bound(psi_f: AnalyticFunction, phi: MoebiusMap, space: SpaceSpec, n: int):
    """A function mapping an integer array of orders 1 <= K < n to upper
    bounds on log(t_K^2 / ||column 0||^2), or None when no circle beyond the
    unit circle bounds the section (see proved_block_order for t_K).

    The radii are _tail_radii's 48 below the least of psi's singularity
    radius, 9 and rho* (_contact_radius): none when rho* <= 1 + 1e-9, as for
    any map whose image touches the circle.  (A normal form near the circle
    has some, but its s_rho stays so near 1 that no K < n is proved.)  Radii
    with s_rho >= 1 by _image_sup's rounded bound, or with no majorant, are
    dropped, and each bound is the least over those left.  The work is in
    the unit scale, on psi 2^-e with 2^e the order of the largest entry of
    column 0: the entries of column 0 and psi's coefficients scale exactly
    by powers of two, so psi 2^j gives bit for bit the same bounds.  Only
    the first 64 entries of column 0 are summed: a part of it bounds
    ||M_n||_F as well, and the sum costs no expansion to order n.
    It is a sum of logs, so no factor leaves the double range.  s_rho^2 is
    rounded up and _log_kernel_tail bounds its own rounding; the operations
    around it round each log by at most 16 eps times the sum of the moduli
    of its terms, and 1e-13 covers log beta(K)^2 (beta_array is within
    6e-15 relative) and log(eps^2/4).  The computed ||column 0||^2, a sum of
    at most n squares, is within 2 (n + 2) eps relative, so its log is
    lowered by 4 (n + 2) eps.
    """
    rho = _tail_radii(psi_f, _contact_radius(phi))
    if rho is None:
        return None
    beta = beta_array(space, n)
    col0 = expand_analytic(psi_f, min(n, _COLUMN_TERMS)) * beta[:_COLUMN_TERMS]
    big = float(np.abs(col0).max())
    e = math.frexp(big)[1]
    if not 0.0 < big < math.inf or abs(e) > 1000:   # or 2^-e would leave the normal range
        return None
    parts = np.ldexp(col0.view(np.float64), -e)
    log_col0 = math.log(float(parts @ parts))
    log_col0 -= 4.0 * (n + 2) * _EPS + 16.0 * _EPS * (abs(log_col0) + 1.0)
    s, log_m = _image_sup(phi, rho), _log_majorant(psi_f.scale(math.ldexp(1.0, -e)), rho)
    s2 = s * s * (1.0 + 4.0 * _EPS)   # rounded up
    ok = (s2 < 1.0) & np.isfinite(log_m)
    if not ok.any():
        return None
    log_rho, log_m, s2 = np.log(rho[ok])[:, None], log_m[ok][:, None], s2[ok][:, None]
    # sum_j s^(2j) / beta(j)^2 = (1 - s^2)^-gamma, the rows' factor.
    full = -space.gamma * np.log1p(-s2)
    with np.errstate(divide="ignore"):   # a beta that underflows gives the bound inf
        log_b2 = 2.0 * np.log(beta)
    moduli = 2.0 * np.abs(log_m) + np.abs(full)

    def ratios(k: np.ndarray) -> np.ndarray:
        rows = full - 2.0 * k * log_rho
        cols = _log_kernel_tail(space.gamma, s2, k, log_b2[k])
        slack = 16.0 * _EPS * (moduli + 2.0 * k * log_rho + np.abs(cols)) + 1e-13
        return (2.0 * log_m + np.logaddexp(rows, cols) + slack).min(axis=0) - log_col0

    return ratios


def proved_block_order(psi, phi: MoebiusMap, space: SpaceSpec, n: int) -> int:
    """An order K whose section, built alone, is the order-n section less a
    part of Frobenius norm at most eps/2 ||M_n||_F; n when none is proved (a
    map whose image touches the circle, or no K < n suffices).

    The K x K section is bit for bit entries[:K, :K] of the order-n one:
    the first K entries of row i need only the first K entries of row i - 1,
    and of the doubling scan only the steps s < K (see _section).

    The bound: take rho > 1 with psi and phi analytic on |z| <= rho and
    s_rho = max_{|z|=rho} |phi| < 1 (_image_sup), and M_rho >= max_{|z|=rho}
    |psi| (_log_majorant).  Parseval on |z| = rho gives
    sum_i |[z^i] psi phi^j|^2 rho^(2i) <= M_rho^2 s_rho^(2j), and the entry
    (i, j) is [z^i] psi phi^j beta(i) / beta(j) with beta <= 1.  So the rows
    i >= K hold at most M^2 rho^(-2K) sum_j s^(2j) / beta(j)^2 = M^2 rho^(-2K)
    (1 - s^2)^-gamma, the columns j >= K at most M^2 T_K with T_K =
    sum_{j>=K} s^(2j) / beta(j)^2 (_log_kernel_tail), and the section
    outside its K x K block at most

        t_K^2 = M_rho^2 (rho^(-2K) (1 - s_rho^2)^-gamma + T_K)

    at any n.  Column 0, psi's coefficients times beta, is part of M_n, so
    ||column 0|| <= ||M_n||_F, and K is where t_K^2 <= eps^2/4 ||column 0||^2
    first holds (_tail_ratio_bound), found by bisection on K: t_K decreases
    with K, and each K returned is checked on its own.  With the deflation
    of OperatorMatrix._analysis the routines on the K x K section then work
    on M_n up to sqrt(2) eps + eps/2 of ||M_n||_F.
    """
    _check_truncation(n)
    if not isinstance(phi, MoebiusMap):
        raise InvalidParameterError("finite sections need a linear-fractional symbol")
    ratios = _tail_ratio_bound(as_analytic(psi), phi, space, n)
    if ratios is None:
        return n
    lo, hi = 0, n   # order hi is proved (or is n itself), order lo is not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ratios(np.array([mid]))[0] <= _LOG_QUARTER_EPS2 else (mid, hi)
    return hi


def self_commutator(m: OperatorMatrix) -> np.ndarray:
    """M*M - MM*, symmetrized to kill rounding skew."""
    a = m.entries
    h = a.conj().T @ a - a @ a.conj().T
    return 0.5 * (h + h.conj().T)


def _leading_block(rows: np.ndarray, cols: np.ndarray) -> int:
    """K for a unit-scaled section b (see OperatorMatrix._analysis), from the
    sums of squares of its rows and of its columns: the smallest order such
    that rows K.. of b hold at most eps^2 ||b||_F^2, and columns K.. hold at
    most as much.

    Then b = diag(b[:K, :K], 0) + E with ||E||_F <= sqrt(2) eps ||b||_F.  A
    section built to proved_block_order's order adds at most eps/2 of the
    order-N section's Frobenius norm for the part left unbuilt.  Suffix
    sums of non-negative terms do not decrease toward the front, so
    counting those above the threshold finds K.
    """
    limit = _EPS * _EPS * float(rows.sum())
    return max(int(np.count_nonzero(np.cumsum(sums[::-1]) > limit)) for sums in (rows, cols))


def _unscale(x: float, e: int) -> float:
    """x 2^e, or inf beyond the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _seed_vector(n: int) -> np.ndarray:
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _adjoint_apply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a^H x, without copying the conjugate transpose of a."""
    return (x.conj() @ a).conj()


def _rayleigh(apply, v: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(lam, ||w - lam v||, w) for w = apply(v), lam = <v, w>: for a Hermitian
    apply and a unit v, some eigenvalue lies within that residual of lam."""
    w = apply(v)
    lam = float(np.real(np.vdot(v, w)))
    return lam, float(np.linalg.norm(w - lam * v)), w


def _power_steps(apply, v: np.ndarray, cap: int) -> tuple[float, float] | None:
    """Power steps v <- w / ||w||, w = apply(v), for a positive semidefinite
    apply, until the residual (_rayleigh) certifies that some eigenvalue lies
    within 1e-8 lam of lam.  Returns (lam, residual), or None after cap
    steps, or sooner once a value is non-finite, the residual stops
    shrinking, or its last contraction ratio, kept up for the steps left,
    would not bring the relative residual to the tolerance.
    """
    rel = math.inf
    for step in range(cap):
        lam, resid, w = _rayleigh(apply, v)
        if resid <= _NORM_REL_TOL * lam:
            return lam, resid
        prev, rel = rel, resid / lam if lam > 0.0 else math.inf
        if not (rel < prev and rel * (rel / prev) ** (cap - 1 - step) <= _NORM_REL_TOL):
            return None
        v = w / np.linalg.norm(w)
    return None


class _RitzPair(NamedTuple):
    value: complex
    vector: np.ndarray
    residual: float


def _krylov_schur(apply, v: np.ndarray, budget: int, hermitian: bool = False) -> _RitzPair | None:
    """Largest-modulus Ritz pair of apply by Krylov-Schur (Stewart, SIAM J.
    Matrix Anal. Appl. 23 (2001)), in at most budget products; for a
    Hermitian apply (hermitian True) it is thick-restart Lanczos (Wu and
    Simon, SIAM J. Matrix Anal. Appl. 22 (2000)), whose largest Ritz value is
    the largest in modulus when apply is positive semidefinite.

    The basis holds _KRYLOV_BASIS orthonormal vectors V, each new one
    orthogonalised twice against all the others, so the projection H = V^H A V
    is read from the orthogonalisation coefficients alone, and A V = V H +
    beta v e_m^T with v the next direction.  When the basis is full, the top
    Ritz pair (theta, y) of H (eigh of its upper triangle when hermitian,
    else eig) has residual ||A V y - theta V y|| = beta |y_last|; the pair
    (theta, V y, beta |y_last|) is returned once that is at most 1e-12
    |theta|.  Otherwise the _KRYLOV_KEEP Ritz vectors of largest modulus,
    made orthonormal (Q, by QR of eig's vectors; eigh's already are), and
    the next direction start the next cycle, with Q^H H Q as its leading
    projection (diag(theta) when hermitian) and beta e_m^T Q as the row that
    couples it to v.  A cycle costs _KRYLOV_BASIS - _KRYLOV_KEEP products;
    None when the budget cannot pay for it.  A next
    direction of norm at most 1e-12 ||A v_j|| is rounding noise: the basis
    spans an invariant subspace, which holds the top eigenvector for a
    generic v, so its top Ritz pair is returned at once (continuing from the
    noise would lose orthogonality).
    """
    m, keep = _KRYLOV_BASIS, _KRYLOV_KEEP
    basis = np.empty((m + 1, v.size), dtype=complex)
    h = np.zeros((m + 1, m), dtype=complex)   # A V = V h[:m] + v h[m], v = basis[m]
    basis[0] = v
    k, products = 0, 0
    while products + m - k <= budget:
        for j in range(k, m):
            w = apply(basis[j])
            products += 1
            size = float(np.linalg.norm(w))
            coef = basis[:j + 1].conj() @ w
            w -= coef @ basis[:j + 1]
            again = basis[:j + 1].conj() @ w
            w -= again @ basis[:j + 1]
            h[:j + 1, j] = coef + again
            beta = float(np.linalg.norm(w))
            h[j + 1, j] = beta
            if beta <= _KRYLOV_TOL * size:
                theta, y = _ritz(h[:j + 1, :j + 1], hermitian)
                return _RitzPair(theta[-1], y[:, -1] @ basis[:j + 1], beta * abs(y[-1, -1]))
            basis[j + 1] = w / beta
        theta, y = _ritz(h[:m], hermitian)
        resid = beta * abs(y[-1, -1])
        if resid <= _KRYLOV_TOL * abs(theta[-1]):
            return _RitzPair(theta[-1], y[:, -1] @ basis[:m], resid)
        if hermitian:
            q, s = y[:, -keep:], np.diag(theta[-keep:])
        else:
            q = np.linalg.qr(y[:, -keep:])[0]
            s = q.conj().T @ h[:m] @ q
        basis[:keep] = q.T @ basis[:m]
        basis[keep] = basis[m]
        row = h[m] @ q
        h[:] = 0.0
        h[:keep, :keep] = s
        h[keep, :keep] = row
        k = keep
    return None


def _ritz(h: np.ndarray, hermitian: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the projection h and their unit eigenvectors (columns),
    in ascending order: of value by eigh on the upper triangle when
    hermitian, else of modulus by eig (a stable sort, so ties keep eig's order)."""
    if hermitian:
        return np.linalg.eigh(h, UPLO="U")
    theta, y = np.linalg.eig(h)
    order = np.argsort(np.abs(theta), kind="stable")
    return theta[order], y[:, order]


def operator_norm(m: OperatorMatrix) -> SpectralEstimate:
    """Largest singular value, by work bounded by the block order K.

    Deterministically seeded, on M scaled by a power of two to Frobenius norm
    in [1/2, 1) (OperatorMatrix._analysis), and on its leading block A_K alone
    (_leading_block): by Weyl, ||A_K|| is within ||E||_2 <= sqrt(2) eps
    ||M||_F of ||M||, and within (sqrt(2) + 1/2) eps ||M_N||_F of the norm of
    the order-N section M_N when M is its proved leading block
    (proved_block_order).  A Lanczos pass on M*M of at most K products
    (_krylov_schur, Hermitian) gives a vector v, whose lambda = <v, M*M v>,
    one product more, is kept (method "lanczos") if the residual
    ||(M*M)v - lambda v|| certifies that some eigenvalue of M*M lies within
    1e-8 lambda of it (_rayleigh).  The pass runs only when K exceeds 30,
    room for a full basis and one restart.  Otherwise one LAPACK gesdd call
    on the block (np.linalg.svd, values only) gives it (method
    "lapack-svdvals"), with LAPACK's stated bound eps sigma on sigma as
    residual in the units of M*M: eps sigma (2 sigma + eps sigma).  Raises
    ConvergenceFailureError only when LAPACK does not converge.
    """
    s = m._analysis
    if s is None:
        return SpectralEstimate(0.0, "zero", 0.0)
    n, a = s.order, s.block

    def gram(x):
        return _adjoint_apply(a, a @ x)

    pair = _krylov_schur(gram, _seed_vector(n), n, hermitian=True) if n > _KRYLOV_MIN_ORDER else None
    lam, resid = (0.0, math.inf) if pair is None else _rayleigh(gram, pair.vector)[:2]
    if resid <= _NORM_REL_TOL * lam:
        value, method = math.sqrt(lam), "lanczos"
    else:
        try:
            value = float(np.linalg.svd(a, compute_uv=False)[0])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(f"LAPACK singular values did not converge: {exc}") from exc
        resid, method = _EPS * value * value * (2.0 + _EPS), "lapack-svdvals"
    return SpectralEstimate(_unscale(value, s.e), method, _unscale(resid, 2 * s.e))


def truncation_spectral_radius(m: OperatorMatrix) -> SpectralEstimate:
    """Max-modulus eigenvalue of the section. Diagnostic only for non-compact limits.

    A section the analysis finds lower triangular (phi(0) = 0, or a
    multiplication) has its diagonal as eigenvalues, the set LAPACK returns:
    it is read off without the O(N^3) eigensolve (method "diagonal", residual 0).
    Any other section is solved on its leading block A_K (_leading_block):
    the eigenvalues of diag(A_K, 0) are those of A_K and zero, and M differs
    from it by ||E||_F <= sqrt(2) eps ||M||_F, the size of LAPACK's own
    backward error on M; the order-N section M_N, when M is its proved
    leading block (proved_block_order), differs from it by at most
    (sqrt(2) + 1/2) eps ||M_N||_F.

    When K exceeds 30, two Krylov-Schur passes (_krylov_schur) of at most
    max(30, K/4) products each, deterministically seeded, run on A_K scaled
    by a power of two (OperatorMatrix._analysis): on A_K for the
    largest-modulus Ritz pair (theta, x), ||x|| = 1, and on A_K^H for a unit
    left vector y.  One more product gives the Ritz residual r = ||A_K x -
    theta x||: theta is an exact eigenvalue of A_K + E with ||E||_2 <= r
    (E = -(A_K x - theta x) x^H).  A backward error moves an eigenvalue by up
    to its condition number kappa ~ 1/|y^H x| times as much (Wilkinson's
    first-order bound), and sections near a contact point reach kappa = 5e3,
    so theta is kept (method "krylov-schur", residual r scaled back) only
    when kappa r is at most 1e-11 |theta|, one unit in the 12th printed
    digit at most.  As with ARPACK's which='LM',
    that theta has the largest modulus in the whole spectrum is not proved:
    the seed may miss an eigenvalue, so the line stays advisory.  Otherwise
    (a pass ran out, the bound failed, or K is small) one LAPACK call on the
    scaled A_K (np.linalg.eigvals) gives it (method "lapack-eigvals"), with
    the backward-error scale K eps ||A_K||_F as residual (||M||_F from the
    analysis, equal to rounding).  Both paths depend on work done, never on
    time.  Raises ConvergenceFailureError only when LAPACK does not converge.
    """
    s = m._analysis
    if s is None or s.lower:
        vals = np.diagonal(m.entries)
        return SpectralEstimate(float(np.max(np.abs(vals))), "diagonal", 0.0)
    n, b = s.order, s.block
    if n > _KRYLOV_MIN_ORDER:
        seed, budget = _seed_vector(n), max(_KRYLOV_MIN_ORDER, n // 4)
        right = _krylov_schur(b.__matmul__, seed, budget)
        left = None if right is None else _krylov_schur(lambda y: _adjoint_apply(b, y), seed, budget)
        if left is not None:
            theta, x = right.value, right.vector
            resid = float(np.linalg.norm(b @ x - theta * x))
            if resid <= _RADIUS_REL_TOL * abs(theta) * abs(np.vdot(left.vector, x)):   # kappa r <= 1e-11 |theta|
                return SpectralEstimate(_unscale(abs(theta), s.e), "krylov-schur", _unscale(resid, s.e))
    try:
        radius = float(np.max(np.abs(np.linalg.eigvals(b))))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"LAPACK eigenvalues did not converge: {exc}") from exc
    return SpectralEstimate(_unscale(radius, s.e), "lapack-eigvals", _unscale(n * _EPS * s.fro, s.e))


def _power_norm(a: np.ndarray, k: int) -> tuple[float, float]:
    """(||a^k||, residual of (a^H)^k a^k) for gelfand_estimate."""
    def gram_power(x):
        for _ in range(k):
            x = a @ x
        for _ in range(k):
            x = _adjoint_apply(a, x)
        return x

    quick = _power_steps(gram_power, _seed_vector(a.shape[0]), _QUICK_STEPS)
    if quick is not None:
        return math.sqrt(quick[0]), quick[1]
    p = np.linalg.matrix_power(a, k)
    p.flags.writeable = False
    est = operator_norm(OperatorMatrix(p))
    return est.value, est.residual


def gelfand_estimate(m: OperatorMatrix, k: int) -> SpectralEstimate:
    """||M^k||^(1/k), an upper-biased spectral radius estimate.

    Works on M scaled by a power of two (OperatorMatrix._analysis).  Quick path:
    power steps on x -> (M^H)^k M^k x, 2k products with M each, from
    operator_norm's seeded vector and with its residual certificate.  The
    gap between the top two singular values of M^k is that of M raised to
    the 2k-th power, so compact and contractive sections certify in a few
    steps.  After at most 8 steps, or sooner once the steps stall (see
    _power_steps), it falls back to forming M^k and taking its operator_norm
    (bounded work): Toeplitz-like sections (multiplications, rotations,
    parabolic maps) have clustered top singular values.

    With M = diag(A_K, 0) + E (_leading_block), ||M^k - diag(A_K, 0)^k|| <=
    k ||M||_F^(k-1) ||E||_F <= sqrt(2) k eps ||M||_F^k.  The value for A_K is
    kept when that bound is at most 1e-8 ||A_K^k||, the power steps' own
    tolerance; otherwise all of M, the section as built, is used: the
    order-N section M_N, or its proved leading block (proved_block_order),
    which differs from it by at most eps/2 ||M_N||_F, so that the same bound
    holds against M_N with (sqrt(2) + 1/2) for sqrt(2).  The residual is
    that of (A^H)^k A^k for the matrix A used, inf beyond the float range.
    """
    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    n = m.order
    s = m._analysis
    if s is None:
        return SpectralEstimate(0.0, "gelfand", 0.0)
    norm, resid = _power_norm(s.block, k)
    if s.order < n and math.sqrt(2.0) * k * _EPS * s.fro**k > _NORM_REL_TOL * norm:
        b = np.ldexp(m.entries.view(np.float64), -s.e1)   # the analysis' two steps, on all of M
        norm, resid = _power_norm(np.ldexp(b, s.e1 - s.e, out=b).view(complex), k)
    return SpectralEstimate(_unscale(norm ** (1.0 / k), s.e), "gelfand", _unscale(resid, 2 * k * s.e))


# ---------------------------------------------------------------------------
# Kernel-side identities

def _composition_norm_upper(psi_f: AnalyticFunction, phi, space: SpaceSpec) -> float:
    """Classical upper bound ||psi||_inf ((1+|phi(0)|)/(1-|phi(0)|))^(gamma/2), with
    ||psi||_inf from _log_majorant's proved bound, which holds at rho = 1 (psi is analytic there)."""
    r = abs(phi(0))
    log_sup = float(_log_majorant(psi_f, np.array([1.0]))[0])
    return (math.exp(log_sup) if log_sup < 709.0 else math.inf) * ((1.0 + r) / (1.0 - r)) ** (space.gamma / 2.0)


def _kernel_tail(space: SpaceSpec, w: complex, n: int) -> float:
    """An upper bound on sqrt(sum_{k>=n} |w|^(2k) / beta(k)^2), from
    _log_kernel_tail; inf beyond the float range.  Reads beta(0..n) only."""
    r2 = abs(w) ** 2
    if r2 == 0.0:
        return 0.0
    with np.errstate(divide="ignore"):   # a beta that underflows gives the bound inf
        log_b2n = 2.0 * np.log(beta_array(space, n + 1)[n])
    half = 0.5 * float(_log_kernel_tail(space.gamma, r2, n, log_b2n))
    return math.exp(half) if half < 709.0 else math.inf


@dataclass(frozen=True)
class AdjointResidual:
    residual: float
    tail_bound: float


def adjoint_kernel_residual(m: OperatorMatrix, psi, phi, w: complex, space: SpaceSpec) -> AdjointResidual:
    """|| M* k_w - conj(psi(w)) k_phi(w) || over the section, with its bound.

    The exact adjoint sends the kernel at w to conj(psi(w)) times the kernel
    at phi(w), so the section residual is exactly the truncated image of the
    kernel tail; the reported bound is ||C|| * tail + a floating-point
    allowance 20 eps N ||M||_F ||k_w|| (the analytic part alone sits far
    below the rounding floor for small |w|).
    """
    w = require_in_disk(w, "kernel point")
    psi_f = as_analytic(psi)
    n = m.order
    kv = kernel(space, w, n)
    phi_w = phi(w)
    target = complex(psi_f(w)).conjugate() * kernel(space, phi_w, n)
    resid = float(np.linalg.norm(_adjoint_apply(m.entries, kv) - target))
    bound = _composition_norm_upper(psi_f, phi, space) * _kernel_tail(space, w, n)
    bound += 20.0 * _EPS * n * float(np.linalg.norm(m.entries)) * float(np.linalg.norm(kv))
    return AdjointResidual(resid, bound)


@dataclass(frozen=True)
class KernelNorms:
    forward: float        # || P_N C f ||, a lower bound for || C f ||
    adjoint: float        # || C* f ||, exact up to rounding
    tail_bound: float     # || C f || <= forward + tail_bound


def _gram(xs: np.ndarray, gamma: float) -> np.ndarray:
    """<K_{x_i}, K_{x_j}> = (1 - conj(x_i) x_j)^(-gamma) for the points xs."""
    return (1.0 - np.conj(xs)[:, None] * xs[None, :]) ** (-gamma)


def _adjoint_gram(images: KernelImages, pts: tuple[complex, ...]) -> np.ndarray:
    """<C* K_{w_i}, C* K_{w_j}> for the Python complex points pts, closed-form
    from C* K_w = conj(psi(w)) K_phi(w)."""
    psis, phis = (np.array(v) for v in zip(*(images.values(w) for w in pts)))
    return np.conj(psis)[:, None] * psis[None, :] * _gram(phis, images.space.gamma)


def _kernel_points(points) -> tuple[complex, ...]:
    """The one gate for a list of kernel points (a kernel grid too): the points
    as complex numbers, each through the disk gate, and InvalidParameterError
    unless there is at least one."""
    pts = tuple(require_in_disk(w, "kernel point") for w in points)
    if not pts:
        raise InvalidParameterError("a list of kernel points needs at least one point")
    return pts


class ClosedImage(NamedTuple):
    """psi (K_w o phi) on H^2 for a polynomial weight psi of degree m, as
    head[0] + ... + head[m] z^m + tail z^(m+1) / (1 - rho z), |rho| < 1
    (see _closed_image); error bounds its H^2 distance from the exact
    image, and size is sqrt(||head||^2 + |tail|^2 / (1 - |rho|^2)^2)."""

    head: tuple[complex, ...]
    tail: complex
    rho: complex
    error: float
    size: float


def _leading_product(a, b) -> list:
    """The first len(b) coefficients of the product of the series a and b, len(a) <= len(b)."""
    return [sum(a[j] * b[k - j] for j in range(min(k + 1, len(a)))) for k in range(len(b))]


def _closed_image(psi: tuple[complex, ...], factor, phi: MoebiusMap, w: complex) -> ClosedImage:
    """The ClosedImage of psi (K_w o phi) from the admitted factor
    (p + q z)/(d + c z) of composed_kernel (K_w o phi is its reciprocal on
    H^2) and psi's coefficients psi_0..psi_m.

    With rho = -q/p, K_w o phi = (d + c z)/(p (1 - rho z)) has coefficients
    g_0 = d/p and g_k = rho^(k-1) h, h = (d rho + c)/p, so the image's
    coefficients e_k = sum_j psi_j g_(k-j) are e_(m+1) rho^(k-m-1) from
    k = m + 1 on.  |rho| < 1: the factor's gate admits no zero of p + q z in
    the closed disk.

    The error is kappa W.  W = sqrt(sum_(k<=m) E_k^2 + E_(m+1)^2 / (1 - R^2))
    majorises the image's norm, with R = |rho| (1 + 10 eps) >= |rho| before
    and after rounding, M_0 = |d|/|p|, M_k = R^(k-1) (|d| R + |c|)/|p| >=
    |g_k| and E = |psi| * M (convolution).  kappa sums three relative parts.
    (a) p = d - conj(w) b and q = c - conj(w) a round by at most dp = 4 eps
    (|d| + |w| |b|) and dq = 4 eps (|c| + |w| |a|); the image f of the
    computed p, q and the exact one differ by f (dp' + dq' z)/(p + q z) with
    |dp'| <= dp, |dq'| <= dq, whose norm is at most ||f|| (dp + dq)/(|p| -
    |q| - dp - dq), and ||f|| <= 1.01 W.  (b) Complex sums round by at most
    eps/2 and products by at most 1.5 eps of the moduli of their operands
    (sqrt(2) gamma_2; Higham, Accuracy and Stability of Numerical Algorithms,
    2002, 3.6), quotients (Smith's method) by 8 eps relative, so every g_k
    is within (10 k + 19) eps M_k of its value, and e_k, one more sum of at
    most m + 1 products (and psi_j, one quotient by the weight's
    denominator), within sigma E_k, sigma = (11 m + 40) eps.  The head then
    moves by at most sigma W, and the tail by sigma E_(m+1)/sqrt(1 - R^2)
    from e_(m+1) and by |e_(m+1)| |rho' - rho| / ((1 - R) sqrt(1 - R^2))
    from rho' = rho (1 + 8 eps), the H^2 norm of e (z^(m+1)/(1 - rho' z) -
    z^(m+1)/(1 - rho z)) being at most that: together 2 sigma + 9 eps/(1 -
    R).  An R >= 1 or a non-positive gap in (a) gives error inf.
    """
    (p, q), (d, c) = (cs + (0j,) * (2 - len(cs)) for cs in (factor.num.coefficients, factor.den.coefficients))
    m = len(psi) - 1
    rho = -q / p
    g = [d / p, (d * rho + c) / p]
    for _ in range(m):
        g.append(g[-1] * rho)
    e = _leading_product(psi, g)
    head, tail = tuple(e[: m + 1]), e[m + 1]
    r = abs(rho)
    spread = abs(tail) / ((1.0 - r) * (1.0 + r))
    size = math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in head) + spread * spread)
    big_r = r * (1.0 + 10.0 * _EPS)
    dp = 4.0 * _EPS * (abs(d) + abs(w) * abs(phi.b))
    dq = 4.0 * _EPS * (abs(c) + abs(w) * abs(phi.a))
    gap = abs(p) - abs(q) - dp - dq
    if not (big_r < 1.0 and gap > 0.0):
        return ClosedImage(head, tail, rho, math.inf, size)
    rise = (abs(d) * big_r + abs(c)) / abs(p)
    moduli = _leading_product([abs(x) for x in psi], [abs(d) / abs(p)] + [rise * big_r**k for k in range(m + 1)])
    majorant = math.sqrt(sum(x * x for x in moduli[: m + 1]) + moduli[m + 1] * moduli[m + 1] / ((1.0 - big_r) * (1.0 + big_r)))
    sigma = (11 * m + 40) * _EPS
    kappa = 2.0 * sigma + 9.0 * _EPS / (1.0 - big_r) + 1.01 * (dp + dq) / gap
    return ClosedImage(head, tail, rho, kappa * majorant, size)


def _closed_gram(entries) -> np.ndarray:
    """F[i, j] = <f_j, f_i> on H^2 for the ClosedImages f_i:
    sum_(k<=m) head_j[k] conj(head_i[k]) + tail_j conj(tail_i) / (1 - rho_j conj(rho_i)),
    the geometric tails' inner product being that of the kernels at conj(rho)."""
    heads = np.array([e.head for e in entries])
    tails = np.array([e.tail for e in entries])
    return heads.conj() @ heads.T + np.conj(tails)[:, None] * tails * _gram(np.array([e.rho for e in entries]), 1.0)


def _kernel_form(xs, us, gamma: float) -> float:
    """Re sum_ij conj(x_i) x_j (1 - conj(u_i) u_j)^-gamma, in Python complex
    arithmetic: ||sum_i conj(x_i) K_(u_i)||^2, for gamma = 1 also ||sum_i x_i
    z^s / (1 - u_i z)||^2, s >= 0; ZeroDivisionError for a u_i on the circle."""
    s = 0.0
    for x, u in zip(xs, us):
        x, u = x.conjugate(), u.conjugate()
        for y, v in zip(xs, us):
            s += (x * y / (1.0 - u * v) ** gamma).real
    return s


def _closed_forward(entries, cs: list) -> tuple[float, float]:
    """(||sum_i c_i f_i||, bound on its distance from the exact norm) for the
    ClosedImages f_i and the coefficients c_i of kernel_gram_norms.

    In Python complex arithmetic, the squared norm is ||v||^2, v = sum_i c_i
    head_i, plus _kernel_form(c_i tail_i, rho_i, 1).  The bound has three
    parts.  Each image is within its error of the exact one (_closed_image),
    which moves the norm by at most sum_i |c_i| error_i.  The squared norm
    rounds by at most D = 2 (k^2 + m + 20) eps (sum_i |c_i| size_i)^2 for k
    points: v and ||v||^2 by (k + 1) eps and (m + 2) eps of the sums of the
    moduli of their terms, and each term of the form, with t_i = c_i tail_i,
    by (12 + k^2/2) eps + 1.5 eps / |1 - conj(rho_i) rho_j| of its modulus
    (1 - conj(rho_i) rho_j rounds by 1.5 eps absolutely, |rho| < 1).  Since

        |1 - conj(rho_i) rho_j|^2 = (1 - |rho_i|^2)(1 - |rho_j|^2) + |rho_i - rho_j|^2,

    sum_ij |t_i| |t_j| / |1 - conj(rho_i) rho_j|^s is at most
    (sum_i |t_i| / (1 - |rho_i|^2)^(s/2))^2 for s = 1, 2, and by Minkowski
    the head and tail parts together are at most (sum_i |c_i| size_i)^2.
    The square root then moves by at most min(sqrt(D), D / forward), and
    rounds by eps forward.  The factor 1 + 2^-20 covers the products of two
    rounding errors and the rounding of the bound itself, which is then
    rounded up one ulp: it is never 0.  It is no truncation tail: no order
    enters it.
    """
    v = [0j] * len(entries[0].head)
    for c, e in zip(cs, entries):
        v = [x + c * y for x, y in zip(v, e.head)]
    s = sum(x.real * x.real + x.imag * x.imag for x in v)
    s += _kernel_form([c * e.tail for c, e in zip(cs, entries)], [e.rho for e in entries], 1.0)
    forward = math.sqrt(max(s, 0.0))
    moduli = [abs(c) for c in cs]
    total = sum(c * e.size for c, e in zip(moduli, entries))
    d = 2.0 * (len(cs) ** 2 + len(v) + 19) * _EPS * total * total
    rounding = min(math.sqrt(d), d / forward) if forward > 0.0 else math.sqrt(d)
    bound = sum(c * e.error for c, e in zip(moduli, entries)) + rounding + _EPS * forward
    return forward, math.nextafter(bound * (1.0 + 2.0**-20), math.inf)


class KernelImages:
    """Kernel images of one weight, symbol and space: the forward images
    psi * (K_w o phi) and the values psi(w), phi(w) that fix C* K_w, for psi
    the weight times 2^-_shift, which brings the largest real or imaginary
    part of its base coefficients num/den(0) into [1/2, 1): 2^k psi makes the
    same table but for _shift, and kernel_gram_norms and kernel_gram_forms scale back.

    On H^2 with a polynomial weight (closed is True) every image has a
    closed form, a polynomial plus one geometric tail (ClosedImage), kept
    once per exact w whatever the order: the first lookup builds K_w o phi by
    composed_kernel (one gate) and reads its factor, with no expand_analytic
    and no series_tail_bound call.  Otherwise (a rational or power-factor
    weight, or a Bergman space) per order n the table keeps what every point
    shares: psi's order-n series (one expand_analytic call), less its
    trailing zeros, and beta(0..n) (one beta_array call).
    Each exact (w, n) is then expanded once: the first lookup builds K_w o phi
    by composed_kernel (one gate), expands that one factor (expand_analytic,
    one O(n) recurrence), convolves it with psi's series and
    stores the beta-scaled row (read-only) and its tail bound beta(n)
    series_tail_bound of the product psi (K_w o phi), which is built without
    re-gating; that is a proved bound on the beta-weighted tail because
    beta(k) does not increase (gamma >= 1).  Each exact w is evaluated once,
    on its first adjoint lookup.  A witness search creates one table and
    passes it where kernel_gram_norms takes a weight; a table belongs to
    that search and is never shared between searches.
    """

    def __init__(self, psi, phi: MoebiusMap, space: SpaceSpec):
        if not isinstance(phi, MoebiusMap):
            raise InvalidParameterError("forward kernel images need a linear-fractional symbol")
        weight = as_analytic(psi)
        coeffs = np.array(weight.base.num.coefficients, dtype=complex) / weight.base.den.coefficients[0]
        # At least -1022, so that 2^-_shift is a double; the scaling is exact.
        self._shift = max(math.frexp(float(np.abs(coeffs.view(np.float64)).max()))[1], -1022)
        self.psi = weight.scale(math.ldexp(1.0, -self._shift))
        self.phi = phi
        self.space = space
        self.closed = space.alpha == -1.0 and self.psi.polynomial_degree() is not None
        if self.closed:
            self._weight = tuple(np.ldexp(coeffs.view(np.float64), -self._shift).view(complex).tolist())
        self._closed: dict[complex, ClosedImage] = {}
        self._orders: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._entries: dict[tuple[complex, int], tuple[np.ndarray, float]] = {}
        self._values: dict[complex, tuple[complex, complex]] = {}

    def closed_image(self, w: complex) -> ClosedImage:
        """The ClosedImage of psi * (K_w o phi); only for a table whose closed is True."""
        entry = self._closed.get(w)
        if entry is None:
            ((factor, _gamma),) = composed_kernel(w, 1.0, self.phi).factors
            entry = self._closed[w] = _closed_image(self._weight, factor, self.phi, w)
        return entry

    def values(self, w: complex) -> tuple[complex, complex]:
        """(psi(w), phi(w))."""
        entry = self._values.get(w)
        if entry is None:
            entry = self._values[w] = (self.psi(w), self.phi(w))
        return entry

    def image(self, w: complex, n: int) -> tuple[np.ndarray, float]:
        """(beta-scaled order-n row, tail bound) of psi * (K_w o phi)."""
        entry = self._entries.get((w, n))
        if entry is None:
            order = self._orders.get(n)
            if order is None:
                series = expand_analytic(self.psi, n)
                nonzero = np.flatnonzero(series)
                # Without a polynomial weight's trailing zeros, each
                # convolution costs O(n deg) instead of O(n^2).
                order = self._orders[n] = (series[: nonzero[-1] + 1 if nonzero.size else 1],
                                           beta_array(self.space, n + 1))
            series, beta = order
            k = composed_kernel(w, self.space.gamma, self.phi)
            row = np.convolve(series, expand_analytic(k, n))[:n] * beta[:n]
            row.flags.writeable = False
            tail = series_tail_bound(self.psi * k, n)
            if tail > 0.0:
                # beta_array is within 6e-15 relative of the exact weights, and
                # rounding up keeps a tail below the double range from reading 0.
                tail = math.nextafter(float(beta[n]) * (1.0 + 2.0**-40) * tail, math.inf)
            entry = self._entries[(w, n)] = (row, tail)
        return entry


def _images_for(psi, phi, space: SpaceSpec) -> KernelImages:
    """psi itself when it is a table for (phi, space), else a one-shot table for the weight psi."""
    if not isinstance(psi, KernelImages):
        return KernelImages(psi, phi, space)
    if psi.phi != phi or psi.space != space:
        raise InvalidParameterError("kernel image table belongs to another symbol or space")
    return psi


def kernel_gram_norms(psi, phi: MoebiusMap, space: SpaceSpec, points, coeffs, n: int) -> KernelNorms:
    """Norms of C f and C* f for f = sum_i c_i K_{w_i}.

    The adjoint side is closed-form: C* K_w = conj(psi(w)) K_phi(w) and
    <K_a, K_b> = (1 - conj(a) b)^(-gamma) (_kernel_form; inf where some
    phi(w_i) lies on the circle).  On H^2 with a polynomial weight the
    forward side is closed-form too, ||C f|| itself with n unused, and
    tail_bound bounds only its rounding (_closed_forward); it never raises
    PrecisionLossError.  Otherwise it is the norm of the order-n truncation
    of sum c_i psi (K_{w_i} o phi) plus a proved tail bound, sum |c_i| times
    each image's tail bound (see KernelImages), rounded up so that it is
    positive when a term is; PrecisionLossError signals a tail above 10% of
    the computed norm (raise n).  Both sides are taken at
    the table's unit scale and scaled back at the end.  psi is a weight, or a
    search's KernelImages table for its weight, which serves each kernel
    image it has already expanded.  An n outside [1, MAX_TRUNCATION] or a
    non-finite c_i is an InvalidParameterError.
    """
    _check_truncation(n)
    pts = _kernel_points(points)
    cs = np.asarray(list(coeffs), dtype=complex)
    if len(pts) != cs.size:
        raise InvalidParameterError("need matching points and coefficients")
    if not np.isfinite(cs).all():
        raise InvalidParameterError("kernel coefficients must be finite")
    cs = cs.tolist()
    images = _images_for(psi, phi, space)
    # psi(w) and phi(w) before the images, and the images, with their gates, before any form.
    values = [images.values(w) for w in pts]
    e = images._shift
    if images.closed:
        forward, tail = _closed_forward([images.closed_image(w) for w in pts], cs)
    else:
        entries = [images.image(w, n) for w in pts]
        vec = np.zeros(n, dtype=complex)
        for c, (row, _tail) in zip(cs, entries):
            vec += c * row
        forward = float(np.linalg.norm(vec))
        tail = float(sum(abs(c) * t for c, (_row, t) in zip(cs, entries)))
        if tail < _TINY and any(c and t for c, (_row, t) in zip(cs, entries)):   # each product rounds by
            tail += len(cs) * math.ulp(0.0)   # at most half the least subnormal, and the sum is exact
        if tail > 0.1 * max(forward, 1e-300):
            raise PrecisionLossError(f"tail bound {_unscale(tail, e):.3e} exceeds 10% of the computed "
                                     f"norm {_unscale(forward, e):.3e}; raise the order")
    try:
        adj_sq = _kernel_form([c.conjugate() * v for c, (v, _u) in zip(cs, values)], [u for _v, u in values],
                              space.gamma)
    except ZeroDivisionError:   # |phi(w)| = 1: phi is no self-map, and the form is unbounded
        adj_sq = math.inf
    bound = _unscale(tail, e)
    if 0.0 < tail and bound < _TINY:   # ldexp rounded it below the normal range: round it up
        bound = math.nextafter(bound, math.inf)
    return KernelNorms(_unscale(forward, e), _unscale(math.sqrt(max(adj_sq, 0.0)), e), bound)


def _table_forms(images: KernelImages, pts: tuple[complex, ...], n: int):
    """kernel_gram_forms' K, A and F at the table's unit scale."""
    if images.closed:
        forward = _closed_gram([images.closed_image(w) for w in pts])
    else:
        rows = np.array([images.image(w, n)[0] for w in pts])
        forward = rows.conj() @ rows.T
    return _gram(np.array(pts), images.space.gamma).T, _adjoint_gram(images, pts).T, forward


def kernel_gram_forms(psi, phi: MoebiusMap, space: SpaceSpec, points, n: int):
    """Hermitian K, A, F with ||f||^2 = c^H K c, ||C* f||^2 = c^H A c and
    ||P_n C f||^2 = c^H F c for f = sum_i c_i K_{w_i}.

    The forms kernel_gram_norms evaluates, as matrices; F is the order-n
    truncation and carries no tail bound, or on H^2 with a polynomial weight
    ||C f||^2 itself (_closed_gram); A and F are scaled back from the table's
    unit scale, inf beyond the float range.  The forms of a sublist are index
    slices of these: K and A are elementwise, so a slice of either is bit for
    bit the sublist's own form, while a slice of F, one matrix product over
    all the points, may differ from the sublist's by rounding.  psi and n are
    as in kernel_gram_norms.
    """
    _check_truncation(n)
    pts = _kernel_points(points)
    images = _images_for(psi, phi, space)
    kernel, *forms = _table_forms(images, pts, n)
    with np.errstate(over="ignore"):   # an entry beyond the float range reads inf
        return (kernel, *(np.ldexp(np.ascontiguousarray(g).view(np.float64), 2 * images._shift).view(complex)
                          for g in forms))


# ---------------------------------------------------------------------------
# CSV dumps (formats documented in the cli module)

def write_matrix_csv(m: OperatorMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,j,re,im\n")
        for i in range(m.order):
            for j in range(m.order):
                v = complex(m.entries[i, j])
                fh.write(f"{i},{j},{v.real!r},{v.imag!r}\n")


def write_eigenvalues_csv(values, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,re,im\n")
        for k, v in enumerate(values):
            v = complex(v)
            fh.write(f"{k},{v.real!r},{v.imag!r}\n")
