import collections
import functools
import itertools
import math

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


def _adjacency(m, n):
    adjacent = {v: list(range(m, m + n)) for v in range(m)}
    adjacent.update({v: list(range(m)) for v in range(m, m + n)})
    return adjacent


def _face_count(adjacent, rotation):
    """Faces of the rotation system, traced dart by dart: (u, v) is followed
    by (v, w), where w comes after u in the rotation at v."""
    seen, faces = set(), 0
    for dart in ((u, v) for u in adjacent for v in adjacent[u]):
        if dart in seen:
            continue
        faces += 1
        while dart not in seen:
            seen.add(dart)
            u, v = dart
            dart = (v, rotation[v][u])
    return faces


@functools.cache
def _embedding_genera(m, n):
    """How many rotation systems of K_{m,n} have each genus, from their traced faces.

    Vertex 0 keeps one rotation: every permutation of the other part is an
    automorphism of K_{m,n}, so that loses no genus.
    """
    adjacent = _adjacency(m, n)
    choices = [list(_cyclic_orders(adjacent[v])) for v in range(m + n)]
    choices[0] = choices[0][:1]
    # Euler: V - E + F = 2 - 2g
    return collections.Counter((2 - (m + n) + m * n - _face_count(adjacent, rotation)) // 2
                               for rotation in itertools.product(*choices))


# K_{2,8} is the channel C_{2,8} of the source paper
@pytest.mark.parametrize("m, n, expected", [
    (2, 3, (0, 1)), (2, 5, (0, 2)), (3, 3, (1, 2)), (3, 4, (1, 3)), (2, 8, (0, 3)),
])
def test_genus_range_matches_traced_rotation_systems(m, n, expected):
    genera = _embedding_genera(m, n)
    assert (min(genera), max(genera)) == expected
    assert genus_range(m, n) == GenusRange(*expected)
    # interpolation: every genus in between is reached too
    assert set(genera) == set(range(expected[0], expected[1] + 1))


# rotation systems of K_{2,8} by genus; vertex 0's rotation is fixed, so
# they are the 7! = 5040 cyclic orders at vertex 1
K28_GENERA = {0: 1, 1: 126, 2: 1869, 3: 3044}


def test_k28_genus_distribution_is_pinned():
    assert _embedding_genera(2, 8) == K28_GENERA
    assert sum(K28_GENERA.values()) == math.factorial(7)


def test_k28_genus_distribution_matches_the_cycle_count():
    # independently: with the rotation at one degree-8 vertex fixed to the
    # 8-cycle zeta, the faces are the cycles of zeta sigma^-1 over all
    # 8-cycles sigma, and g = (8 - F)/2 (V = 10, E = 16)
    zeta = [(i + 1) % 8 for i in range(8)]
    counts = collections.Counter()
    for rest in itertools.permutations(range(1, 8)):
        cycle = (0, *rest)
        sigma_inverse = {cycle[(i + 1) % 8]: cycle[i] for i in range(8)}
        seen, faces = set(), 0
        for start in range(8):
            faces += start not in seen
            while start not in seen:
                seen.add(start)
                start = zeta[sigma_inverse[start]]
        counts[(8 - faces) // 2] += 1
    assert counts == K28_GENERA


@pytest.mark.parametrize("genus, order", [
    (2, (2, 3, 4, 5, 6, 9, 8, 7)),  # the last three reversed
    (3, (2, 3, 4, 5, 6, 7, 8, 9)),  # the same turn as vertex 0
])
def test_k28_witness_rotation_has_8_minus_2g_faces(genus, order):
    # the paper's genera 2 and 3 for C_{2,8}, each with one explicit embedding:
    # vertex 0 turns through 2..9 in order, vertex 1 through the given order
    # (all 8 reversed is the planar one)
    adjacent = _adjacency(2, 8)
    rotation = [{u: cycle[(i + 1) % len(cycle)] for i, u in enumerate(cycle)}
                for cycle in ((2, 3, 4, 5, 6, 7, 8, 9), order, *([0, 1],) * 8)]
    faces = _face_count(adjacent, rotation)
    assert faces == 8 - 2 * genus
    assert 10 - 16 + faces == 2 - 2 * genus  # Euler: V - E + F
