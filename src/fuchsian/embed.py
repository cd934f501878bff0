"""Genus bounds for 2-cell embeddings of K_{m,n}.

g_min = ceil((m-2)(n-2)/4), g_max = floor((m-1)(n-1)/2), both on exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hyperbolic import _integer


@dataclass(frozen=True)
class GenusRange:
    g_min: int
    g_max: int


def genus_range(m: int, n: int) -> GenusRange:
    """Smallest and largest genus of an orientable surface 2-cell embedding K_{m,n}."""
    m, n = _integer(m, "m"), _integer(n, "n")
    if m < 2 or n < 2:
        raise ValueError(f"need m, n >= 2, got {m}, {n}")
    # ceiling as minus the floor of the negation
    return GenusRange(g_min=-(-(m - 2) * (n - 2) // 4), g_max=(m - 1) * (n - 1) // 2)
