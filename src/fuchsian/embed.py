"""Genus bounds for 2-cell embeddings of K_{m,n}.

g_min = ceil((m-2)(n-2)/4), g_max = floor((m-1)(n-1)/2), both on exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class BadDimensions(ValueError):
    """Both part sizes must be at least 2."""


@dataclass(frozen=True)
class GenusRange:
    g_min: int
    g_max: int


def genus_range(m: int, n: int) -> GenusRange:
    """Smallest and largest genus of an orientable surface 2-cell embedding K_{m,n}."""
    if m < 2 or n < 2:
        raise BadDimensions(f"need m, n >= 2, got {m}, {n}")
    lo = Fraction((m - 2) * (n - 2), 4)
    hi = Fraction((m - 1) * (n - 1), 2)
    g_min = -((-lo.numerator) // lo.denominator)  # exact ceiling
    g_max = hi.numerator // hi.denominator  # exact floor
    return GenusRange(g_min=int(g_min), g_max=int(g_max))
