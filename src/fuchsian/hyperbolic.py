"""Hyperbolic geometry in the Poincare disk and upper half-plane.

Distances, geodesic midpoints, half-turns about a point, Gauss-Bonnet
areas, and the combinatorics of regular tessellations {p, q}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .moebius import (
    MoebiusMap,
    disk_point_to_halfplane,
    halfplane_point_to_disk,
)

ANGLE_TOL = 1e-9
BOUNDARY_TOL = 1e-9


class ModelMismatch(ValueError):
    """Operands live in different models (or the wrong model)."""


class InvalidPoint(ValueError):
    """Point violates the model constraint (|z| < 1 resp. Im z > 0)."""


class CoincidentPoints(ValueError):
    pass


class CoincidentEndpoints(ValueError):
    pass


class AngleSumExceedsPi(ValueError):
    pass


class NotHyperbolic(ValueError):
    """(p-2)(q-2) < 4: the {p,q} pattern does not fit the hyperbolic plane."""


class NonIntegerVertexCycle(ValueError):
    """q does not divide p, so p/q vertices is not an integer."""


class OddSides(ValueError):
    """Side pairing needs an even number of polygon sides."""


class Model(Enum):
    DISK = "disk"
    HALF_PLANE = "half_plane"


@dataclass(frozen=True)
class ModelPoint:
    model: Model
    z: complex

    def __post_init__(self):
        z = complex(self.z)
        object.__setattr__(self, "z", z)
        if self.model is Model.DISK and abs(z) >= 1.0:
            raise InvalidPoint(f"|{z}| >= 1 is not inside the disk")
        if self.model is Model.HALF_PLANE and z.imag <= 0.0:
            raise InvalidPoint(f"Im({z}) <= 0 is not in the upper half-plane")

    @classmethod
    def disk(cls, z) -> "ModelPoint":
        return cls(Model.DISK, complex(z))

    @classmethod
    def half_plane(cls, z) -> "ModelPoint":
        return cls(Model.HALF_PLANE, complex(z))


def _same_model(x: ModelPoint, y: ModelPoint):
    if x.model is not y.model:
        raise ModelMismatch(f"{x.model.value} vs {y.model.value}")


def distance(x: ModelPoint, y: ModelPoint) -> float:
    """Hyperbolic distance between two points of the same model."""
    _same_model(x, y)
    u, v = x.z, y.z
    if x.model is Model.DISK:
        arg = 1.0 + 2.0 * abs(u - v) ** 2 / ((1.0 - abs(u) ** 2) * (1.0 - abs(v) ** 2))
    else:
        arg = 1.0 + abs(u - v) ** 2 / (2.0 * u.imag * v.imag)
    return math.acosh(max(arg, 1.0))


def geodesic_midpoint(x: ModelPoint, y: ModelPoint) -> ModelPoint:
    """The point halfway along the geodesic segment from x to y."""
    _same_model(x, y)
    if x.z == y.z:
        raise CoincidentPoints("midpoint of a single point is ill-defined")
    if x.model is Model.HALF_PLANE:
        m = geodesic_midpoint(
            ModelPoint.disk(halfplane_point_to_disk(x.z)),
            ModelPoint.disk(halfplane_point_to_disk(y.z)),
        )
        return ModelPoint.half_plane(disk_point_to_halfplane(m.z))
    # translate x to the origin, halve the radial distance, translate back
    w = (y.z - x.z) / (1.0 - x.z.conjugate() * y.z)
    t = math.tanh(math.atanh(abs(w)) / 2.0)
    m0 = t * w / abs(w)
    return ModelPoint.disk((m0 + x.z) / (1.0 + x.z.conjugate() * m0))


def boundary_geodesic_apex(u: complex, v: complex) -> ModelPoint:
    """Closest-to-origin point of the disk geodesic with ideal endpoints u, v.

    The geodesic is the arc of the circle through u and v orthogonal to the
    unit circle; its apex sits at angle midway between u and v at radius
    sec(d/2) - tan(d/2), d the angle subtended.  Antipodal endpoints give a
    diameter, whose apex is the center.
    """
    u, v = complex(u), complex(v)
    for w in (u, v):
        if abs(abs(w) - 1.0) > BOUNDARY_TOL:
            raise InvalidPoint(f"|{w}| != 1: endpoints must be ideal")
    if abs(u - v) <= BOUNDARY_TOL:
        raise CoincidentEndpoints("geodesic endpoints coincide")
    s = u + v
    if abs(s) <= BOUNDARY_TOL:
        return ModelPoint.disk(0.0)  # diameter
    cos_half = min(abs(s) / 2.0, 1.0)
    sin_half = min(abs(u - v) / 2.0, 1.0)
    radius = (1.0 - sin_half) / cos_half  # = sec(d/2) - tan(d/2)
    return ModelPoint.disk(s / abs(s) * radius)


def half_turn(p: ModelPoint) -> MoebiusMap:
    """Order-2 disk isometry fixing p: conjugate z -> -z by z -> (z+p)/(1+conj(p)z).

    Closed form [[-(1+|p|^2), 2p], [-2 conj(p), 1+|p|^2]]; trace 0, elliptic.
    """
    if p.model is not Model.DISK:
        raise ModelMismatch("half_turn is defined on disk points")
    r2 = abs(p.z) ** 2
    return MoebiusMap(-(1.0 + r2), 2.0 * p.z, -2.0 * p.z.conjugate(), 1.0 + r2)


def triangle_area(alpha: float, beta: float, theta: float) -> float:
    """Gauss-Bonnet area pi - alpha - beta - theta of a hyperbolic triangle.

    Angle sum exactly pi (the Euclidean boundary) returns 0 rather than
    raising.
    """
    if min(alpha, beta, theta) < 0.0:
        raise ValueError("angles must be nonnegative")
    s = alpha + beta + theta
    if s > math.pi + ANGLE_TOL:
        raise AngleSumExceedsPi(f"angle sum {s} exceeds pi")
    if s >= math.pi - ANGLE_TOL:
        return 0.0
    return math.pi - s


@dataclass(frozen=True)
class Tessellation:
    """Schlafli pair: regular p-gons, q meeting at each vertex."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 3 or self.q < 3:
            raise ValueError(f"{{{self.p},{self.q}}}: both entries must be >= 3")

    @property
    def is_hyperbolic(self) -> bool:
        """(p-2)(q-2) > 4, the hyperbolic-plane admissibility inequality."""
        return (self.p - 2) * (self.q - 2) > 4


@dataclass(frozen=True)
class SurfaceTopology:
    V: int
    E: int
    F: int
    chi: int
    genus: int


def regular_polygon_area(t: Tessellation) -> float:
    """Area of the fundamental p-gon with vertex angles 2 pi / q.

    Gauss-Bonnet by fan triangulation: (p-2) pi - p (2 pi / q).  Exactly 0
    on the Euclidean boundary (p-2)(q-2) = 4.
    """
    if (t.p - 2) * (t.q - 2) < 4:
        raise NotHyperbolic(f"{{{t.p},{t.q}}} is spherical")
    return (t.p - 2) * math.pi - t.p * (2.0 * math.pi / t.q)


def tessellation_topology(t: Tessellation) -> SurfaceTopology:
    """Surface obtained by side-pairing one {p, q} fundamental polygon.

    Vertex cycle rule: the p vertices fall into p/q classes of q each,
    sides are glued in pairs, one face.
    """
    if t.p % 2 != 0:
        raise OddSides(f"p = {t.p} is odd; sides cannot pair up")
    if t.p % t.q != 0:
        raise NonIntegerVertexCycle(f"q = {t.q} does not divide p = {t.p}")
    V = t.p // t.q
    E = t.p // 2
    F = 1
    chi = V - E + F
    if chi % 2 != 0:
        raise ValueError(f"chi = {chi} is odd; no orientable genus")
    return SurfaceTopology(V=V, E=E, F=F, chi=chi, genus=(2 - chi) // 2)
