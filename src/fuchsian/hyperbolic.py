"""Hyperbolic geometry in the Poincare disk and upper half-plane.

Distances, geodesic midpoints, half-turns about a point, Gauss-Bonnet
areas, and the combinatorics of regular tessellations {p, q}.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum

from .moebius import MoebiusMap


class NotHyperbolic(ValueError):
    """(p-2)(q-2) < 4: the {p,q} pattern does not fit the hyperbolic plane."""


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
        if not cmath.isfinite(z):
            raise ValueError(f"{z} is not a finite point")
        if self.model is Model.DISK and abs(z) >= 1.0:
            raise ValueError(f"|{z}| >= 1 is not inside the disk")
        if self.model is Model.HALF_PLANE and z.imag <= 0.0:
            raise ValueError(f"Im({z}) <= 0 is not in the upper half-plane")

    @classmethod
    def disk(cls, z) -> "ModelPoint":
        return cls(Model.DISK, complex(z))

    @classmethod
    def half_plane(cls, z) -> "ModelPoint":
        return cls(Model.HALF_PLANE, complex(z))


def _same_model(x: ModelPoint, y: ModelPoint):
    if x.model is not y.model:
        raise ValueError(f"{x.model.value} vs {y.model.value}")


def distance(x: ModelPoint, y: ModelPoint) -> float:
    """Hyperbolic distance 2 asinh(q) between two points of the same model."""
    _same_model(x, y)
    u, v = x.z, y.z
    if x.model is Model.DISK:
        q = abs(u - v) / math.sqrt((1.0 - abs(u) ** 2) * (1.0 - abs(v) ** 2))
    else:  # |u - v| / (2 sqrt(Im u Im v)), halved and rooted apart so that nothing overflows
        q = abs(u / 2.0 - v / 2.0) / (math.sqrt(u.imag) * math.sqrt(v.imag))
    return 2.0 * math.asinh(q)


def geodesic_midpoint(x: ModelPoint, y: ModelPoint) -> ModelPoint:
    """Halfway along the geodesic from x to y: the normalized sum of both on the hyperboloid."""
    _same_model(x, y)
    if x.z == y.z:
        raise ValueError("midpoint of a single point is ill-defined")
    u, v = x.z, y.z
    if x.model is Model.DISK:
        pu, pv = 1.0 - abs(u) ** 2, 1.0 - abs(v) ** 2
        r = math.sqrt(pu * pv)
        den = 1.0 - abs(u) ** 2 * abs(v) ** 2 + r * math.hypot(r, abs(u - v))
        return ModelPoint.disk((u * pv + v * pu) / den)
    # (x1 y2 + x2 y1 + i r hypot(2r, |u - v|)) / (y1 + y2), r = sqrt(y1 y2), written with
    # k = sqrt(y_lo / y_hi) in (0, 1] and halved differences: no height is summed or
    # halved, so heights near the float maximum do not overflow and subnormal ones keep their bits
    lo, hi = (u, v) if u.imag <= v.imag else (v, u)  # x is exact where x1 = x2 or y_lo << y_hi
    root_lo, root_hi = math.sqrt(lo.imag), math.sqrt(hi.imag)
    k = root_lo / root_hi
    w = 2.0 / (1.0 + k * k)  # 2 y_hi / (y1 + y2)
    re = lo.real + (hi.real / 2.0 - lo.real / 2.0) * (k * k * w)
    im = k * w * math.hypot(root_lo * root_hi, abs(u / 2.0 - v / 2.0))
    return ModelPoint.half_plane(complex(re, im))


def half_turn(p: ModelPoint) -> MoebiusMap:
    """Order-2 disk isometry fixing p: conjugate z -> -z by z -> (z+p)/(1+conj(p)z).

    Closed form [[-(1+|p|^2), 2p], [-2 conj(p), 1+|p|^2]]; trace 0, elliptic.
    """
    if p.model is not Model.DISK:
        raise ValueError("half_turn is defined on disk points")
    r2 = abs(p.z) ** 2
    return MoebiusMap(-(1.0 + r2), 2.0 * p.z, -2.0 * p.z.conjugate(), 1.0 + r2)


@dataclass(frozen=True)
class Tessellation:
    """Schlafli pair: regular p-gons, q meeting at each vertex."""

    p: int
    q: int

    def __post_init__(self):
        try:  # an int or numpy integer: 8.0 and 8.5 are refused
            object.__setattr__(self, "p", operator.index(self.p))
            object.__setattr__(self, "q", operator.index(self.q))
        except TypeError:
            raise ValueError(f"{{{self.p!r},{self.q!r}}}: both entries must be integers") from None
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

    @property
    def chi(self) -> int:
        return self.V - self.E + self.F

    @property
    def genus(self) -> int:
        return (2 - self.chi) // 2


def regular_polygon_area(t: Tessellation) -> float:
    """Area of the fundamental p-gon with vertex angles 2 pi / q.

    Gauss-Bonnet by fan triangulation: (p-2) pi - p (2 pi / q).  Exactly 0
    on the Euclidean boundary (p-2)(q-2) = 4; ValueError on float overflow.
    """
    if (t.p - 2) * (t.q - 2) < 4:
        raise NotHyperbolic(f"{{{t.p},{t.q}}} is spherical")
    try:
        area = (t.p - 2) * math.pi - t.p * (2.0 * math.pi / t.q)
    except OverflowError:  # p or q past the float range
        area = math.inf
    if not math.isfinite(area):  # a product past the float range
        raise ValueError(f"{{{t.p},{t.q}}}: area overflows float arithmetic")
    return area


def tessellation_topology(t: Tessellation) -> SurfaceTopology:
    """Surface obtained by side-pairing one {p, q} fundamental polygon.

    Vertex cycle rule: the p vertices fall into p/q classes of q each,
    sides are glued in pairs, one face.
    """
    if t.p % 2 != 0:
        raise ValueError(f"p = {t.p} is odd; sides cannot pair up")
    if t.p % t.q != 0:
        raise ValueError(f"q = {t.q} does not divide p = {t.p}")
    topology = SurfaceTopology(V=t.p // t.q, E=t.p // 2, F=1)
    if topology.chi % 2 != 0:
        raise ValueError(f"chi = {topology.chi} is odd; no orientable genus")
    return topology
