import numpy as np
import pytest

from fuchsian.embed import BadDimensions, GenusRange, genus_range


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
    with pytest.raises(BadDimensions):
        genus_range(1, 5)
    with pytest.raises(BadDimensions):
        genus_range(2, 0)
