"""Hyperbolic geometry in the Poincare disk, the model the paper draws in.

Distances and half-turns about a point of the disk, Gauss-Bonnet areas, and
the combinatorics of regular tessellations {p, q}.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

from .moebius import MoebiusMap


class NotHyperbolic(ValueError):
    """(p-2)(q-2) < 4: the {p,q} pattern does not fit the hyperbolic plane."""


def _disk_point(z) -> complex:
    """z as a complex number, refused unless it is finite and inside the unit disk."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{z} is not a finite point")
    if abs(z) >= 1.0:
        raise ValueError(f"|{z}| >= 1 is not inside the disk")
    return z


def _integer(value, name: str) -> int:
    """value as a Python int: ints and numpy integers pass, 6.0 and 5.5 are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None


def distance(u, v) -> float:
    """Hyperbolic distance 2 asinh(q) between two disk points,
    q = |u - v| / sqrt((1 - |u|^2)(1 - |v|^2))."""
    u, v = _disk_point(u), _disk_point(v)
    q = abs(u - v) / math.sqrt((1.0 - abs(u) ** 2) * (1.0 - abs(v) ** 2))
    return 2.0 * math.asinh(q)


def half_turn(p) -> MoebiusMap:
    """Order-2 disk isometry fixing p: conjugate z -> -z by z -> (z+p)/(1+conj(p)z).

    Closed form [[-(1+|p|^2), 2p], [-2 conj(p), 1+|p|^2]]; trace 0, elliptic.
    """
    p = _disk_point(p)
    r2 = abs(p) ** 2
    return MoebiusMap(-(1.0 + r2), 2.0 * p, -2.0 * p.conjugate(), 1.0 + r2)


@dataclass(frozen=True)
class Tessellation:
    """Schlafli pair: regular p-gons, q meeting at each vertex."""

    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "p", _integer(self.p, "p"))
        object.__setattr__(self, "q", _integer(self.q, "q"))
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
