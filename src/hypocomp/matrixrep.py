"""Finite-section matrices for weighted composition and multiplication operators.

An N x N section holds, in column j, the orthonormal-basis coordinates of the
image of e_j = z^j / beta(j).  Dense complex storage; N is capped at 1024
unless HYPOCOMP_MAX_N overrides it.  Weighted composition and multiplication
sections (the latter is the case phi(z) = z) share one build, column by
column by a banded recurrence, O(N^2) for a rational phi (see _section).
Sections with phi(0) = 0, multiplication sections among them, are lower
triangular; their spectral radius is read off the diagonal.  Everything is
pure; matrix builds may run concurrently on separate inputs.

Finite-section positivity is advisory only: compressions do not preserve the
sign of A*A - AA* (the forward shift gives a spurious negative eigenvalue),
so non-hyponormality certificates must come from kernel_gram_norms, whose
adjoint side is exact and whose forward side carries a truncation-tail bound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailureError,
    InvalidParameterError,
    NotSelfMapError,
    OutsideDiskError,
    PrecisionLossError,
)
from .funcalg import (
    AnalyticFunction,
    Polynomial,
    boundary_sup,
    constant_fn,
    expand_analytic,
    expand_rational,
    kernel_function,
    moebius_rational,
    compose_with_moebius,
    polynomial_fn,
    series_pow_real,
    series_tail_bound,
)
from .moebius import MoebiusMap, is_self_map
from .space import SpaceSpec, beta_array, kernel

MAX_TRUNCATION = 1024
_POWER_SEED = 1729
# Relative residual at which operator_norm's power iteration stops.
_NORM_REL_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
# Banded lower-triangular product and solve: one step of the column
# recurrence in _section.
_TBMV, _TBSV = scipy.linalg.get_blas_funcs(("tbmv", "tbsv"), dtype=complex)
_IDENTITY_SYMBOL = polynomial_fn(0, 1)


def truncation_cap() -> int:
    """Section-size cap; HYPOCOMP_MAX_N overrides the default of 1024."""
    raw = os.environ.get("HYPOCOMP_MAX_N")
    if raw is None:
        return MAX_TRUNCATION
    try:
        return max(8, int(raw))
    except ValueError:
        raise InvalidParameterError(f"HYPOCOMP_MAX_N must be an integer, got {raw!r}")


@dataclass(frozen=True)
class OperatorMatrix:
    entries: np.ndarray
    space: SpaceSpec
    order: int
    provenance: str

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=complex)
        if arr.shape != (self.order, self.order):
            raise InvalidParameterError("entries must be square of size order")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def adjoint_entries(self) -> np.ndarray:
        return self.entries.conj().T


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    method: str
    order: int
    residual: float


def _check_truncation(n: int) -> None:
    cap = truncation_cap()
    if not 1 <= n <= cap:
        raise InvalidParameterError(f"truncation order must lie in [1, {cap}]")


def as_analytic(psi) -> AnalyticFunction:
    if isinstance(psi, AnalyticFunction):
        return psi
    return constant_fn(complex(psi))


def _self_map_symbol(phi) -> AnalyticFunction:
    """The composition symbol as an AnalyticFunction, verifying it maps the disk to itself."""
    if isinstance(phi, MoebiusMap):
        ok, sup = is_self_map(phi)
        if not ok:
            raise NotSelfMapError(f"composition symbol has boundary sup {sup:.12g} > 1")
        return AnalyticFunction(moebius_rational(phi))
    phi = as_analytic(phi)
    sup = boundary_sup(phi)
    if sup > 1.0 + 1e-8:
        raise NotSelfMapError(f"composition symbol has boundary sup {sup:.12g} > 1")
    return phi


def _toeplitz_band(p: Polynomial, n: int) -> tuple[np.ndarray, int]:
    """Lower band storage of the n x n Toeplitz matrix of multiplication by p, and its bandwidth."""
    c = np.asarray(p.coefficients[:n])
    return np.asfortranarray(np.repeat(c[:, None], n, axis=1)), c.size - 1


def _section(psi_f: AnalyticFunction, phi_f: AnalyticFunction, space: SpaceSpec, n: int,
             provenance: str) -> OperatorMatrix:
    """Section whose column j holds the coordinates of psi * phi^j / beta(j).

    Each column is the previous one times phi = (num / den) prod r_i^gamma_i,
    truncated to n terms: a banded product with the lower-triangular Toeplitz
    matrix of num (BLAS tbmv), a banded solve with that of den (BLAS tbsv),
    then a truncated convolution with each power-factor series.  For a
    rational phi of degree d that is O(N d) per column and O(N^2 d) in all.
    scipy.signal.lfilter would do the same filtering, but importing
    scipy.signal costs about a second.
    """
    num, kn = _toeplitz_band(phi_f.base.num, n)
    den, kd = _toeplitz_band(phi_f.base.den, n)
    powers = [series_pow_real(expand_rational(r, n), gamma).coefficients for r, gamma in phi_f.factors]
    col = expand_analytic(psi_f, n).coefficients.copy()
    b = beta_array(space, n)
    scaled = np.empty(n, dtype=complex)
    cols = np.zeros((n, n), dtype=complex)
    # In place: for a rational phi the loop allocates nothing, so no
    # per-column temporaries fragment the heap around the section.
    for j in range(n):
        np.divide(np.multiply(col, b, out=scaled), b[j], out=cols[:, j])
        if j + 1 < n:
            col = _TBMV(kn, num, col, lower=1, overwrite_x=1)
            col = _TBSV(kd, den, col, lower=1, overwrite_x=1)
            for s in powers:
                col = np.convolve(col, s)[:n]
    return OperatorMatrix(cols, space, n, provenance)


def build_weighted_composition(psi, phi, space: SpaceSpec, n: int) -> OperatorMatrix:
    """Section of f -> psi * (f o phi); O(N^2) for a rational phi, every
    linear-fractional one included (see _section)."""
    _check_truncation(n)
    return _section(as_analytic(psi), _self_map_symbol(phi), space, n,
                    f"weighted-composition on {space.label()}")


def build_multiplication(h, space: SpaceSpec, n: int) -> OperatorMatrix:
    """Section of f -> h * f: entry[i][j] = h_{i-j} beta(i)/beta(j).

    It is the weighted composition section with weight h and phi(z) = z.
    """
    _check_truncation(n)
    return _section(as_analytic(h), _IDENTITY_SYMBOL, space, n, f"multiplication on {space.label()}")


def self_commutator(m: OperatorMatrix) -> np.ndarray:
    """M*M - MM*, symmetrized to kill rounding skew."""
    a = m.entries
    h = a.conj().T @ a - a @ a.conj().T
    return 0.5 * (h + h.conj().T)


def hermitian_min_eig(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (LAPACK, machine accurate)."""
    hh = 0.5 * (h + h.conj().T)
    return float(np.linalg.eigvalsh(hh)[0])


def operator_norm(m: OperatorMatrix) -> SpectralEstimate:
    """Largest singular value via Lanczos-accelerated power iteration on M*M.

    Deterministically seeded.  A Lanczos pass (which copes with the clustered
    top spectra of Toeplitz-like sections) supplies the start vector, followed
    by power steps until the residual ||(M*M)v - lambda v|| certifies that
    some eigenvalue of M*M lies within 1e-8 lambda of lambda.  Raises
    ConvergenceFailureError after 10 N polish steps without meeting that.
    """
    a = m.entries
    n = m.order
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return SpectralEstimate(0.0, "power-iteration", n, 0.0)
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    if n >= 4:
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        op = LinearOperator((n, n), matvec=lambda x: ((a @ x).conj() @ a).conj(), dtype=complex)
        try:
            _vals, vecs = eigsh(op, k=1, which="LA", v0=v, maxiter=10 * n, tol=1e-12)
            v = vecs[:, 0]
        except ArpackError:
            pass  # fall through to plain power steps from the seeded vector
    lam = 0.0
    resid = math.inf
    cap = 10 * n
    for _ in range(cap):
        w = ((a @ v).conj() @ a).conj()
        lam = float(np.real(np.vdot(v, w)))
        resid = float(np.linalg.norm(w - lam * v))
        if resid <= max(_NORM_REL_TOL * max(lam, 0.0), 1e-30):
            return SpectralEstimate(math.sqrt(max(lam, 0.0)), "power-iteration", n, resid)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        v = w / nw
    raise ConvergenceFailureError(
        f"power iteration did not reach {_NORM_REL_TOL:g} in {cap} steps", iterations=cap, residual=resid
    )


def truncation_spectral_radius(m: OperatorMatrix) -> SpectralEstimate:
    """Max-modulus eigenvalue of the section. Diagnostic only for non-compact limits.

    A lower-triangular section (phi(0) = 0, or a multiplication operator) has
    its diagonal as eigenvalues; LAPACK returns exactly that set, so it is
    read off without the O(N^3) eigensolve.
    """
    a = m.entries
    vals = np.diagonal(a) if not np.triu(a, 1).any() else np.linalg.eigvals(a)
    return SpectralEstimate(float(np.max(np.abs(vals))) if vals.size else 0.0,
                            "truncation-eig", m.order, 0.0)


def truncation_eigenvalues(m: OperatorMatrix) -> np.ndarray:
    return np.linalg.eigvals(m.entries)


def gelfand_estimate(m: OperatorMatrix, k: int) -> SpectralEstimate:
    """||M^k||^(1/k), an upper-biased spectral radius estimate."""
    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    p = np.linalg.matrix_power(m.entries, k)
    est = operator_norm(OperatorMatrix(p, m.space, m.order, f"power{k}({m.provenance})"))
    return SpectralEstimate(est.value ** (1.0 / k), "gelfand", m.order, est.residual)


# ---------------------------------------------------------------------------
# Kernel-side identities

def _composition_norm_upper(psi_f: AnalyticFunction, phi, space: SpaceSpec) -> float:
    """Classical upper bound ||psi||_inf ((1+|phi(0)|)/(1-|phi(0)|))^(gamma/2)."""
    phi0 = phi(0) if callable(phi) else complex(phi)
    r = abs(phi0)
    sup_psi = 1.05 * boundary_sup(psi_f)
    return sup_psi * ((1.0 + r) / (1.0 - r)) ** (space.gamma / 2.0)


def _kernel_tail(space: SpaceSpec, w: complex, n: int) -> float:
    """sqrt(sum_{k>=n} |w|^(2k) / beta(k)^2), summed to convergence."""
    r2 = abs(w) ** 2
    if r2 == 0.0:
        return 0.0
    total = 0.0
    k = n
    b = beta_array(space, n + 4096)
    while k < n + 4096:
        term = r2**k / b[k] ** 2
        total += term
        if term < 1e-300 or (total > 0 and term < 1e-18 * total):
            break
        k += 1
    return math.sqrt(total)


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
    w = complex(w)
    if abs(w) >= 1.0:
        raise OutsideDiskError("kernel point must lie strictly inside the unit disk")
    psi_f = as_analytic(psi)
    n = m.order
    kv = kernel(space, w, n).values
    phi_w = phi(w)
    target = complex(psi_f(w)).conjugate() * kernel(space, phi_w, n).values
    resid = float(np.linalg.norm(m.adjoint_entries() @ kv - target))
    bound = _composition_norm_upper(psi_f, phi, space) * _kernel_tail(space, w, n)
    bound += 20.0 * _EPS * n * float(np.linalg.norm(m.entries)) * float(np.linalg.norm(kv))
    return AdjointResidual(resid, bound)


@dataclass(frozen=True)
class KernelNorms:
    forward: float        # || P_N C f ||, a lower bound for || C f ||
    adjoint: float        # || C* f ||, exact up to rounding
    tail_bound: float     # || C f || <= forward + tail_bound


def _gram(xs: np.ndarray, gamma: float) -> np.ndarray:
    """<K_{x_i}, K_{x_j}> = (1 - conj(x_i) x_j)^(-gamma)."""
    return (1.0 - np.conj(xs)[:, None] * xs[None, :]) ** (-gamma)


def _adjoint_gram(psi_f: AnalyticFunction, phi, space: SpaceSpec, pts) -> np.ndarray:
    """<C* K_{w_i}, C* K_{w_j}>, closed-form from C* K_w = conj(psi(w)) K_phi(w)."""
    phis = np.array([phi(w) for w in pts])
    psis = np.array([psi_f(w) for w in pts])
    return np.conj(psis)[:, None] * psis[None, :] * _gram(phis, space.gamma)


def _forward_images(psi_f: AnalyticFunction, phi, space: SpaceSpec, points, n: int):
    """Per-kernel symbols psi*(K_w o phi) and their truncated images, one row each."""
    if not isinstance(phi, MoebiusMap):
        raise InvalidParameterError("forward kernel images need a linear-fractional symbol")
    gamma = space.gamma
    b = beta_array(space, n)
    symbols = [psi_f * compose_with_moebius(kernel_function(w, gamma), phi) for w in points]
    return symbols, np.array([expand_analytic(g, n).coefficients * b for g in symbols])


def kernel_gram_norms(psi, phi: MoebiusMap, space: SpaceSpec, points, coeffs, n: int) -> KernelNorms:
    """Norms of C f and C* f for f = sum_i c_i K_{w_i}.

    The adjoint side is closed-form: C* K_w = conj(psi(w)) K_phi(w) and
    <K_a, K_b> = (1 - conj(a) b)^(-gamma).  The forward side is the norm of
    the order-n truncation of sum c_i psi (K_{w_i} o phi) plus a reported
    tail bound; PrecisionLossError signals a tail above 10% of the computed
    norm (raise n).
    """
    pts = [complex(w) for w in points]
    cs = np.asarray(list(coeffs), dtype=complex)
    if any(abs(w) >= 1.0 for w in pts):
        raise OutsideDiskError("kernel points must lie strictly inside the unit disk")
    if len(pts) != cs.size or not pts:
        raise InvalidParameterError("need matching nonempty points and coefficients")
    psi_f = as_analytic(psi)

    # <C*f, C*f> = sum_ij c_i conj(c_j) <C* K_{w_i}, C* K_{w_j}>
    weighted = _adjoint_gram(psi_f, phi, space, pts)
    adj_sq = float(np.real(np.einsum("i,j,ij->", cs, np.conj(cs), weighted)))
    adjoint = math.sqrt(max(adj_sq, 0.0))

    symbols, images = _forward_images(psi_f, phi, space, pts, n)
    vec = np.zeros(n, dtype=complex)
    for c, img in zip(cs, images):
        vec += c * img
    forward = float(np.linalg.norm(vec))
    tail = float(sum(abs(c) * series_tail_bound(g, n) for c, g in zip(cs, symbols)))
    if tail > 0.1 * max(forward, 1e-300):
        raise PrecisionLossError(
            f"tail bound {tail:.3e} exceeds 10% of the computed norm {forward:.3e}; raise the order"
        )
    return KernelNorms(forward, adjoint, tail)


def kernel_gram_forms(psi, phi: MoebiusMap, space: SpaceSpec, points, n: int):
    """Hermitian K, A, F with ||f||^2 = c^H K c, ||C* f||^2 = c^H A c and
    ||P_n C f||^2 = c^H F c for f = sum_i c_i K_{w_i}.

    The forms kernel_gram_norms evaluates, as matrices; F is the order-n
    truncation and carries no tail bound.
    """
    pts = [complex(w) for w in points]
    psi_f = as_analytic(psi)
    _symbols, images = _forward_images(psi_f, phi, space, pts, n)
    kernel = _gram(np.array(pts), space.gamma).T
    adjoint = _adjoint_gram(psi_f, phi, space, pts).T
    return kernel, adjoint, images.conj() @ images.T


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
