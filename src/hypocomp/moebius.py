"""Linear-fractional self-maps of the unit disk.

Exact-up-to-rounding algebra for maps phi(z) = (a z + b)/(c z + d) with
ad - bc != 0: composition, fixed points and multipliers, Denjoy-Wolff point,
the automorphism / non-automorphism trichotomies, angular derivatives, and
the named constructor families (rotations, disk involutions alpha_p,
parabolic maps from the half-plane translation model, hyperbolic
non-automorphisms fixing the origin).

All values are immutable and every function is pure, so concurrent use
needs no synchronization.
"""

from __future__ import annotations

import cmath
from enum import Enum
from typing import NamedTuple

from .errors import (
    DegenerateMapError,
    IdentityMapError,
    IndeterminateError,
    InvalidParameterError,
    NoAngularDerivativeError,
    NoDenjoyWolffError,
    NotSelfMapError,
    OutsideDiskError,
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


def _snap(x: complex) -> complex:
    return 0j if abs(x) < _COEFF_SNAP else x


def require_in_disk(w, what: str) -> complex:
    """w as a complex number, if it lies in the open unit disk.

    The one disk-point gate of the package: anything but |w| < 1, NaN and
    infinite parts included, raises OutsideDiskError naming `what`.
    """
    w = complex(w)
    if not abs(w) < 1.0:
        raise OutsideDiskError(f"{what} {w} must lie in the open unit disk")
    return w


def require_pole_free(den, z) -> None:
    """Raise PoleEncounteredError where |den| < 1e-300; z is a complex scalar
    or a numpy array and den its denominator values."""
    small = abs(den) < 1e-300
    if hasattr(small, "any"):   # an array: name its first pole
        if not small.any():
            return
        z = complex(z[small][0])
    elif not small:
        return
    raise PoleEncounteredError(f"pole at z = {z}")


class _MoebiusCoefficients(NamedTuple):
    a: complex
    b: complex
    c: complex
    d: complex


class MoebiusMap(_MoebiusCoefficients):
    """Map z -> (a z + b)/(c z + d), coefficients scaled to max modulus 1.

    Normalization divides all four coefficients by the largest coefficient
    modulus (a positive real), so the representation is unique up to a unit
    scalar.  Entries smaller than 1e-14 after scaling are snapped to zero.
    Non-finite coefficients raise InvalidParameterError.

    A NamedTuple that validates in __new__, so it compares and hashes by its
    normalized coefficients; _make and _replace skip the validation.
    """

    __slots__ = ()

    def __new__(cls, a: complex, b: complex, c: complex, d: complex):
        a, b, c, d = (complex(a), complex(b), complex(c), complex(d))
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
        return tuple.__new__(cls, (a, b, c, d))

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


def map_distance(f: MoebiusMap, g: MoebiusMap) -> float:
    """Coefficient distance after aligning the unit-scalar ambiguity: the
    largest |u_k - lam v_k| with lam the phase of <u, v>."""
    u, v = f.coefficients(), g.coefficients()
    inner = sum(y.conjugate() * x for x, y in zip(u, v))
    lam = inner / abs(inner) if abs(inner) >= 1e-30 else 1.0
    return max(abs(x - lam * y) for x, y in zip(u, v))


def is_identity(phi: MoebiusMap) -> bool:
    return map_distance(phi, IDENTITY) <= 1e-12


# ---------------------------------------------------------------------------
# Image of the unit circle

def disk_image(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, float]:
    """Centre C and radius R of the image of the closed unit disk under
    (a z + b)/(c z + d), for |c| < |d| (the pole outside the closed disk).

    The image is |w - C| <= R with C = (b conj(d) - a conj(c))/(|d|^2 - |c|^2)
    and R = |ad - bc|/(|d|^2 - |c|^2), exact up to rounding; no point of the
    circle is sampled.  The divisor is taken as (|d| - |c|)(|d| + |c|), which
    keeps its (|d| - |c|)^2 part when the pole lies near the circle.
    """
    gap = (abs(d) - abs(c)) * (abs(d) + abs(c))
    return (b * d.conjugate() - a * c.conjugate()) / gap, abs(a * d - b * c) / gap


def _boundary_data(phi: MoebiusMap) -> tuple[complex, float]:
    """disk_image of phi: the centre and radius of the circle phi(unit circle).

    Raises NotSelfMapError when the pole sits on the closed unit disk, where
    the map is unbounded.
    """
    a, b, c, d = phi.coefficients()
    if c != 0 and abs(d / c) <= 1.0 + 1e-12:
        raise NotSelfMapError(
            f"pole at z = {-d / c:.6g} lies on the closed unit disk"
        )
    return disk_image(a, b, c, d)


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

class FixedPointData(NamedTuple):
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
    r1, r2 = _quadratic_roots(a, b, c, d)
    out.append(_fixed_point_from_root(phi, r1, double=False))
    out.append(_fixed_point_from_root(phi, r2, double=False))
    out.sort(key=lambda f: (f.location.real, f.location.imag))
    return out


def _quadratic_roots(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, complex]:
    """The two roots of c p^2 + (d - a) p - b = 0 for c != 0, without cancellation."""
    B = d - a
    s = cmath.sqrt(B * B + 4.0 * c * b)
    # Pick the sign that avoids cancellation in -B + s.
    if ((-B).real * s.real + (-B).imag * s.imag) < 0.0:
        s = -s
    r1 = (-B + s) / (2.0 * c)
    r2 = (-b / c) / r1 if abs(r1) > 1e-30 else (-B - s) / (2.0 * c)
    return r1, r2


def _contraction_fixed_points(phi: MoebiusMap) -> tuple[FixedPointData, FixedPointData]:
    """(p, partner) for a map sending the closed disk into D.

    p = phi(p) lies in phi(closed disk), inside D, so it is the one simple
    fixed point there: the root of smaller modulus, flagged in_disk.  Its
    partner lies outside the closed disk or at infinity.  Near the circle the
    two can be closer than fixed_points' degeneracy band (p and 1/conj(p) for
    a normal form), which would merge them onto the circle, so no band applies.
    """
    a, b, c, d = phi.coefficients()
    if c == 0:
        p, partner = b / (d - a), FixedPointData(None, phi.det / (a * a), False, False)
    else:
        p, outer = sorted(_quadratic_roots(a, b, c, d), key=abs)
        partner = _fixed_point_from_root(phi, outer, double=False)
    if not abs(p) < 1.0:
        raise IndeterminateError(f"the fixed point of a strict contraction rounds to {p:.6g}, off the open disk")
    return FixedPointData(p, phi.derivative(p), on_boundary=False, in_disk=True), partner


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


class MapClass(NamedTuple):
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

    if sup < 1.0 - TOL_BOUNDARY:
        fps = _contraction_fixed_points(phi)
        return MapClass(MapKind.INTERIOR_CONTRACTION, fps[0], None, sup, fps)

    fps = fixed_points(phi)
    finite = [f for f in fps if not f.at_infinity]

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
    p = require_in_disk(p, "p")
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

