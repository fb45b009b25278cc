"""Linear-fractional self-maps of the unit disk.

Exact-up-to-rounding algebra for maps phi(z) = (a z + b)/(c z + d) with
ad - bc != 0: composition, fixed points and multipliers, Denjoy-Wolff point,
the automorphism / non-automorphism trichotomies, angular derivatives, the
Krein adjoint factorization data, and the named constructor families
(rotations, disk involutions alpha_p, parabolic maps from the half-plane
translation model, hyperbolic non-automorphisms fixing the origin).

All values are immutable and every function is pure, so concurrent use
needs no synchronization.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateMapError,
    IdentityMapError,
    InvalidParameterError,
    NoAngularDerivativeError,
    NoDenjoyWolffError,
    NotSelfMapError,
    PoleEncounteredError,
)

# Half-width of the band around 1 in which a boundary sup counts as contact.
TOL_BOUNDARY = 1e-10
# Fixed-point location / multiplier tolerance.
TOL_FIXED = 1e-10
# Discriminant threshold below which a fixed point pair is a double root.
DEGENERACY_TOL = 1e-12
# A point is "on the unit circle" if its modulus is within this of 1.
BOUNDARY_POINT_TOL = 1e-8

_DET_UNDERFLOW = 1e-14
_COEFF_SNAP = 1e-14
# Coefficient tolerance of match_hyperbolic_nonauto_form.
_NONAUTO_MATCH_TOL = 1e-10


def _snap(x: complex) -> complex:
    return 0j if abs(x) < _COEFF_SNAP else x


def require_pole_free(den, z) -> None:
    """Raise PoleEncounteredError where |den| < 1e-300; z is a complex scalar
    or a numpy array and den its denominator values."""
    small = abs(den) < 1e-300
    if isinstance(small, np.ndarray):
        if not small.any():
            return
        z = complex(np.asarray(z)[small][0])
    elif not small:
        return
    raise PoleEncounteredError(f"pole at z = {z}")


@dataclass(frozen=True)
class MoebiusMap:
    """Map z -> (a z + b)/(c z + d), coefficients scaled to max modulus 1.

    Normalization divides all four coefficients by the largest coefficient
    modulus (a positive real), so the representation is unique up to a unit
    scalar.  Entries smaller than 1e-14 after scaling are snapped to zero.
    Non-finite coefficients raise InvalidParameterError.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = (complex(self.a), complex(self.b), complex(self.c), complex(self.d))
        if not all(cmath.isfinite(x) for x in (a, b, c, d)):
            raise InvalidParameterError("map coefficients must be finite")
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if scale == 0.0:
            raise DegenerateMapError("all coefficients vanish")
        a, b, c, d = (_snap(a / scale), _snap(b / scale), _snap(c / scale), _snap(d / scale))
        if abs(a * d - b * c) < _DET_UNDERFLOW:
            raise DegenerateMapError(
                f"determinant {abs(a * d - b * c):.3e} below 1e-14 after normalization"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __call__(self, z):
        """phi(z) for a complex scalar or elementwise for a numpy array."""
        den = self.c * z + self.d
        require_pole_free(den, z)
        return (self.a * z + self.b) / den

    def derivative(self, z):
        den = self.c * z + self.d
        require_pole_free(den, z)
        return self.det / (den * den)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def scaled(self, lam: complex) -> "MoebiusMap":
        """The map z -> lam * phi(z)."""
        return MoebiusMap(lam * self.a, lam * self.b, self.c, self.d)

    def coefficients(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"MoebiusMap(({self.a:.6g})z + ({self.b:.6g})) / (({self.c:.6g})z + ({self.d:.6g}))"


IDENTITY = MoebiusMap(1, 0, 0, 1)


def compose(f: MoebiusMap, g: MoebiusMap) -> MoebiusMap:
    """The map f(g(z)), by 2x2 coefficient matrix product."""
    a = f.a * g.a + f.b * g.c
    b = f.a * g.b + f.b * g.d
    c = f.c * g.a + f.d * g.c
    d = f.c * g.b + f.d * g.d
    return MoebiusMap(a, b, c, d)


def iterate(phi: MoebiusMap, n: int) -> MoebiusMap:
    if n < 0:
        raise InvalidParameterError("iterate count must be nonnegative")
    out = IDENTITY
    for _ in range(n):
        out = compose(phi, out)
    return out


def map_distance(f: MoebiusMap, g: MoebiusMap) -> float:
    """Coefficient distance after aligning the unit-scalar ambiguity."""
    u = np.array(f.coefficients())
    v = np.array(g.coefficients())
    inner = np.vdot(v, u)
    if abs(inner) < 1e-30:
        return float(max(np.abs(u - v)))
    lam = inner / abs(inner)
    return float(max(np.abs(u - lam * v)))


def is_identity(phi: MoebiusMap) -> bool:
    return map_distance(phi, IDENTITY) <= 1e-12


# ---------------------------------------------------------------------------
# Image of the unit circle

def _boundary_data(phi: MoebiusMap) -> tuple[complex, float]:
    """Centre C and radius R of the circle phi(unit circle), in closed form.

    With the pole outside the closed disk (|d| > |c|), phi maps the closed
    disk onto |w - C| <= R, where C = (b conj(d) - a conj(c))/(|d|^2 - |c|^2)
    and R = |ad - bc|/(|d|^2 - |c|^2).  Both are exact up to rounding; no
    point of the circle is sampled.  Raises NotSelfMapError when the pole
    sits on the closed unit disk, where the map is unbounded.
    """
    a, b, c, d = phi.coefficients()
    if c != 0 and abs(d / c) <= 1.0 + 1e-12:
        raise NotSelfMapError(
            f"pole at z = {-d / c:.6g} lies on the closed unit disk"
        )
    gap = abs(d) ** 2 - abs(c) ** 2
    return (b * d.conjugate() - a * c.conjugate()) / gap, abs(phi.det) / gap


def is_self_map(phi: MoebiusMap) -> tuple[bool, float]:
    """Whether phi maps the disk into itself, with sup_{|z|=1} |phi(z)|.

    The sup is |C| + R of the image circle, exact up to rounding.
    """
    centre, radius = _boundary_data(phi)
    sup = abs(centre) + radius
    return sup <= 1.0 + TOL_BOUNDARY, sup


def require_self_map(phi: MoebiusMap) -> None:
    ok, sup = is_self_map(phi)
    if not ok:
        raise NotSelfMapError(f"sup |phi| on the unit circle is {sup:.12g} > 1")


# ---------------------------------------------------------------------------
# Fixed points

_INFINITY = "infinity"


@dataclass(frozen=True)
class FixedPointData:
    """A fixed point with its multiplier phi'(p) (angular derivative on the circle)."""

    location: complex | None  # None encodes the point at infinity
    multiplier: complex
    on_boundary: bool
    in_disk: bool
    double: bool = False

    @property
    def at_infinity(self) -> bool:
        return self.location is None


def _fixed_point_from_root(phi: MoebiusMap, root: complex, double: bool) -> FixedPointData:
    mult = phi.derivative(root)
    if double:
        # A double root has multiplier exactly 1; kill residual rounding.
        mult = complex(1.0, 0.0) if abs(mult - 1.0) < 1e-6 else mult
    r = abs(root)
    return FixedPointData(
        location=root,
        multiplier=mult,
        on_boundary=abs(r - 1.0) <= BOUNDARY_POINT_TOL,
        in_disk=r < 1.0 - BOUNDARY_POINT_TOL,
        double=double,
    )


def fixed_points(phi: MoebiusMap) -> list[FixedPointData]:
    """Solutions of phi(p) = p, i.e. c p^2 + (d - a) p - b = 0, with multipliers.

    The point at infinity appears (with multiplier d/a) when c = 0; a double
    root is reported once with double=True.
    """
    if is_identity(phi):
        raise IdentityMapError("every point is fixed")
    a, b, c, d = phi.coefficients()
    out: list[FixedPointData] = []
    if c == 0:
        # Linear case: (d - a) p = b, plus the fixed point at infinity.
        if abs(d - a) > 1e-14:
            out.append(_fixed_point_from_root(phi, b / (d - a), double=False))
            inf_mult = phi.det / (a * a)
            out.append(FixedPointData(None, inf_mult, False, False))
        else:
            # Translation-like: only infinity, as a double fixed point.
            out.append(FixedPointData(None, complex(1.0), False, False, double=True))
        return out

    B = d - a
    disc = B * B + 4.0 * c * b
    scale = max(abs(B) ** 2, abs(4.0 * c * b), 1e-30)
    if abs(disc) < DEGENERACY_TOL * scale:
        root = -B / (2.0 * c)
        out.append(_fixed_point_from_root(phi, root, double=True))
        return out
    s = cmath.sqrt(disc)
    # Pick the sign that avoids cancellation in -B + s.
    if ((-B).real * s.real + (-B).imag * s.imag) < 0.0:
        s = -s
    r1 = (-B + s) / (2.0 * c)
    r2 = (-b / c) / r1 if abs(r1) > 1e-30 else (-B - s) / (2.0 * c)
    out.append(_fixed_point_from_root(phi, r1, double=False))
    out.append(_fixed_point_from_root(phi, r2, double=False))
    out.sort(key=lambda f: (f.location.real, f.location.imag))
    return out


# ---------------------------------------------------------------------------
# Classification

class MapKind(Enum):
    IDENTITY = "identity"
    ELLIPTIC_AUTOMORPHISM = "elliptic-automorphism"
    HYPERBOLIC_AUTOMORPHISM = "hyperbolic-automorphism"
    PARABOLIC_AUTOMORPHISM = "parabolic-automorphism"
    INTERIOR_CONTRACTION = "interior-contraction"
    HYPERBOLIC_NONAUTOMORPHISM = "hyperbolic-nonautomorphism"
    PARABOLIC_NONAUTOMORPHISM = "parabolic-nonautomorphism"
    BOUNDARY_CONTACT_NO_BOUNDARY_FIXED_POINT = "boundary-contact-no-boundary-fixed-point"


@dataclass(frozen=True)
class MapClass:
    """Classification of a linear-fractional self-map.

    contact is the pair (zeta, eta=phi(zeta)) where the modulus 1 is attained,
    for non-automorphisms with sup |phi| = 1; None for automorphisms (the whole
    circle is contact) and for strict contractions.  At a boundary fixed point
    zeta is that point; otherwise it is phi^-1 of the point of the image circle
    farthest from 0, exact up to rounding.  sup_modulus is |C| + R of the
    image circle.
    """

    kind: MapKind
    denjoy_wolff: FixedPointData | None
    contact: tuple[complex, complex] | None
    sup_modulus: float
    fixed: tuple[FixedPointData, ...]

    @property
    def is_automorphism(self) -> bool:
        return self.kind in (
            MapKind.ELLIPTIC_AUTOMORPHISM,
            MapKind.HYPERBOLIC_AUTOMORPHISM,
            MapKind.PARABOLIC_AUTOMORPHISM,
            MapKind.IDENTITY,
        )

    @property
    def fixes_contact(self) -> bool:
        """Whether phi touches the circle at a point it fixes (|zeta - eta| <= 1e-8)."""
        return self.contact is not None and abs(self.contact[0] - self.contact[1]) <= 1e-8


def _denjoy_wolff_from(fps: list[FixedPointData]) -> FixedPointData:
    candidates = [
        f
        for f in fps
        if not f.at_infinity
        and abs(f.location) <= 1.0 + BOUNDARY_POINT_TOL
        and abs(f.multiplier) <= 1.0 + TOL_FIXED
    ]
    if not candidates:
        raise NoDenjoyWolffError("no fixed point on the closed disk with multiplier of modulus <= 1")
    candidates.sort(key=lambda f: abs(f.multiplier))
    return candidates[0]


def classify(phi: MoebiusMap) -> MapClass:
    """Assign exactly one of the eight classes to a self-map."""
    if is_identity(phi):
        return MapClass(MapKind.IDENTITY, None, None, 1.0, ())

    centre, radius = _boundary_data(phi)
    sup = abs(centre) + radius
    if sup > 1.0 + TOL_BOUNDARY:
        raise NotSelfMapError(f"sup |phi| on the unit circle is {sup:.12g} > 1")

    fps = fixed_points(phi)
    finite = [f for f in fps if not f.at_infinity]

    if sup < 1.0 - TOL_BOUNDARY:
        dw = _denjoy_wolff_from(fps)
        return MapClass(MapKind.INTERIOR_CONTRACTION, dw, None, sup, tuple(fps))

    # An automorphism maps the circle onto itself: its image circle is the
    # unit circle, so its nearest point to 0 has modulus 1 as well.
    if radius - abs(centre) >= 1.0 - TOL_BOUNDARY:
        boundary = [f for f in finite if f.on_boundary]
        if len(boundary) == 1 and boundary[0].double:
            return MapClass(MapKind.PARABOLIC_AUTOMORPHISM, boundary[0], None, sup, tuple(fps))
        if len(boundary) == 2:
            dw = _denjoy_wolff_from(fps)
            return MapClass(MapKind.HYPERBOLIC_AUTOMORPHISM, dw, None, sup, tuple(fps))
        return MapClass(MapKind.ELLIPTIC_AUTOMORPHISM, None, None, sup, tuple(fps))

    # Non-automorphism touching the circle: the contact point is unique.
    boundary = [f for f in finite if f.on_boundary]
    if boundary and boundary[0].double:
        zeta = boundary[0].location / abs(boundary[0].location)
        return MapClass(
            MapKind.PARABOLIC_NONAUTOMORPHISM, boundary[0], (zeta, zeta), sup, tuple(fps)
        )
    if boundary:
        zeta = boundary[0].location / abs(boundary[0].location)
        dw = _denjoy_wolff_from(fps)
        return MapClass(
            MapKind.HYPERBOLIC_NONAUTOMORPHISM, dw, (zeta, zeta), sup, tuple(fps)
        )
    # Here radius - |centre| < sup, so centre != 0 and the contact image is
    # the point of the image circle in the direction of its centre.
    eta = centre / abs(centre)
    w = sup * eta
    zeta = (phi.d * w - phi.b) / (phi.a - phi.c * w)
    zeta = zeta / abs(zeta)
    dw = _denjoy_wolff_from(fps)
    return MapClass(
        MapKind.BOUNDARY_CONTACT_NO_BOUNDARY_FIXED_POINT, dw, (zeta, eta), sup, tuple(fps)
    )


def denjoy_wolff(phi: MoebiusMap) -> FixedPointData:
    """The unique fixed point on the closed disk with |multiplier| <= 1."""
    cls = classify(phi)
    if cls.kind in (MapKind.IDENTITY, MapKind.ELLIPTIC_AUTOMORPHISM):
        raise NoDenjoyWolffError(f"{cls.kind.value} has no Denjoy-Wolff point")
    assert cls.denjoy_wolff is not None
    return cls.denjoy_wolff


def angular_derivative(phi: MoebiusMap, zeta: complex) -> complex:
    """phi'(zeta) = (ad - bc)/(c zeta + d)^2 at a unimodular zeta with |phi(zeta)| = 1."""
    if abs(abs(zeta) - 1.0) > BOUNDARY_POINT_TOL:
        raise InvalidParameterError("zeta must lie on the unit circle")
    value = phi(zeta)
    if abs(value) < 1.0 - TOL_BOUNDARY:
        raise NoAngularDerivativeError(
            f"|phi(zeta)| = {abs(value):.12g} < 1; no finite angular derivative"
        )
    if abs(value) > 1.0 + TOL_BOUNDARY:
        raise NotSelfMapError(f"|phi(zeta)| = {abs(value):.12g} > 1")
    return phi.derivative(zeta)


# ---------------------------------------------------------------------------
# Constructor families

def rotation(lam: complex) -> MoebiusMap:
    if abs(abs(lam) - 1.0) > 1e-12:
        raise InvalidParameterError("rotation parameter must be unimodular")
    return MoebiusMap(lam, 0, 0, 1)


def dilation(lam: complex) -> MoebiusMap:
    if abs(lam) > 1.0 + 1e-12 or lam == 0:
        raise InvalidParameterError("dilation parameter must satisfy 0 < |lambda| <= 1")
    return MoebiusMap(lam, 0, 0, 1)


def alpha_p(p: complex) -> MoebiusMap:
    """Self-inverse automorphism (p - z)/(1 - conj(p) z), swapping 0 and p."""
    p = complex(p)
    if abs(p) >= 1.0:
        raise InvalidParameterError("p must lie in the open unit disk")
    return MoebiusMap(-1, p, -p.conjugate(), 1)


def cayley_parabolic(zeta: complex, t: complex) -> MoebiusMap:
    """Parabolic map fixing zeta, conjugate to w -> w + t on the right half-plane.

    Self-map for Re t >= 0; automorphism exactly when Re t = 0; t = 0 gives
    the identity.
    """
    if abs(abs(zeta) - 1.0) > BOUNDARY_POINT_TOL:
        raise InvalidParameterError("zeta must lie on the unit circle")
    t = complex(t)
    if t.real < -1e-14:
        raise NotSelfMapError("Re t < 0 gives a map of the disk onto a larger region")
    zc = complex(zeta).conjugate()
    # tau(z) = (1 + conj(zeta) z)/(1 - conj(zeta) z); phi = tau^-1 (tau + t).
    return MoebiusMap(2.0 - t, t * zeta, -zc * t, 2.0 + t)


def hyperbolic_nonauto_form(c: complex) -> MoebiusMap:
    """The map (1 - |c|) z / (c z + 1), 0 < |c| < 1.

    Fixes 0 (the Denjoy-Wolff point) and the unimodular zeta with
    c zeta = -|c|, where the multiplier is 1/(1 - |c|) > 1.
    """
    c = complex(c)
    if not 0.0 < abs(c) < 1.0:
        raise InvalidParameterError("parameter must satisfy 0 < |c| < 1")
    return MoebiusMap(1.0 - abs(c), 0, c, 1)


def match_hyperbolic_nonauto_form(phi: MoebiusMap) -> complex | None:
    """The parameter c if phi equals (1-|c|) z/(c z + 1) within 1e-10, else None."""
    if abs(phi.d) < 1e-14:
        return None
    a = phi.a / phi.d
    b = phi.b / phi.d
    c = phi.c / phi.d
    if abs(b) > _NONAUTO_MATCH_TOL:
        return None
    if not 0.0 < abs(c) < 1.0:
        return None
    if abs(a - (1.0 - abs(c))) > _NONAUTO_MATCH_TOL:
        return None
    return c


# ---------------------------------------------------------------------------
# Krein adjoint data

def krein_triple(phi: MoebiusMap) -> tuple[MoebiusMap, tuple[complex, complex], tuple[complex, complex]]:
    """(sigma, g-line, h-line) for the adjoint factorization of a self-map.

    sigma(z) = (conj(a) z - conj(c)) / (-conj(b) z + conj(d)); the returned
    line pairs are ascending coefficients of -conj(b) z + conj(d) (whose
    -gamma power is g) and of c z + d (whose gamma power is h), taken from the
    representative rescaled so that d is real and positive.  That choice keeps
    both line values at 0 on the positive real axis, so principal-branch
    powers are safe for every gamma.
    """
    require_self_map(phi)
    a, b, c, d = phi.coefficients()
    if abs(d) < 1e-14:
        raise NotSelfMapError("d = 0 puts the pole at the origin")
    lam = d.conjugate() / abs(d)
    a, b, c, d = lam * a, lam * b, lam * c, lam * d
    sigma = MoebiusMap(a.conjugate(), -c.conjugate(), -b.conjugate(), d.conjugate())
    g_line = (d.conjugate(), -b.conjugate())
    h_line = (d, c)
    return sigma, g_line, h_line
