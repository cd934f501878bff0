import itertools

import numpy as np
import pytest

from fuchsian.embed import GenusRange, genus_range


def test_known_ranges():
    assert genus_range(2, 8) == GenusRange(0, 3)
    assert genus_range(3, 3) == GenusRange(1, 2)
    assert genus_range(2, 2) == GenusRange(0, 0)
    assert genus_range(4, 4) == GenusRange(1, 4)
    assert genus_range(3, 7) == GenusRange(2, 6)


def test_range_formulas_exact():
    rng = np.random.RandomState(61)
    for _ in range(200):
        m, n = int(rng.randint(2, 60)), int(rng.randint(2, 60))
        r = genus_range(m, n)
        assert r.g_min == ((m - 2) * (n - 2) + 3) // 4  # ceil in integers
        assert r.g_max == (m - 1) * (n - 1) // 2
        assert 0 <= r.g_min <= r.g_max
        assert genus_range(n, m) == r  # symmetric in the two sizes


def test_bad_dimensions():
    with pytest.raises(ValueError, match="need m, n >= 2, got 1, 5"):
        genus_range(1, 5)
    with pytest.raises(ValueError, match="need m, n >= 2, got 2, 0"):
        genus_range(2, 0)


def _cyclic_orders(neighbours):
    """Every cyclic order of the neighbours, as a successor map."""
    first, *rest = neighbours
    for perm in itertools.permutations(rest):
        cycle = (first, *perm)
        yield {u: cycle[(i + 1) % len(cycle)] for i, u in enumerate(cycle)}


def _embedding_genera(m, n):
    """Genus of every rotation system of K_{m,n}, from its traced faces.

    Vertex 0 keeps one rotation: every permutation of the other part is an
    automorphism of K_{m,n}, so that loses no genus.
    """
    adjacent = {v: list(range(m, m + n)) for v in range(m)}
    adjacent.update({v: list(range(m)) for v in range(m, m + n)})
    choices = [list(_cyclic_orders(adjacent[v])) for v in range(m + n)]
    choices[0] = choices[0][:1]
    darts = [(u, v) for u in adjacent for v in adjacent[u]]
    genera = set()
    for rotation in itertools.product(*choices):
        seen, faces = set(), 0
        for dart in darts:
            if dart in seen:
                continue
            faces += 1
            while dart not in seen:
                seen.add(dart)
                u, v = dart
                dart = (v, rotation[v][u])
        # Euler: V - E + F = 2 - 2g
        genera.add((2 - (m + n) + m * n - faces) // 2)
    return genera


# K_{2,8} is the channel C_{2,8} of the source paper
@pytest.mark.parametrize("m, n, expected", [
    (2, 3, (0, 1)), (2, 5, (0, 2)), (3, 3, (1, 2)), (3, 4, (1, 3)), (2, 8, (0, 3)),
])
def test_genus_range_matches_traced_rotation_systems(m, n, expected):
    genera = _embedding_genera(m, n)
    assert (min(genera), max(genera)) == expected
    assert genus_range(m, n) == GenusRange(*expected)
    # interpolation: every genus in between is reached too
    assert genera == set(range(expected[0], expected[1] + 1))
