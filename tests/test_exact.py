from __future__ import annotations

import itertools
import math
import random

import pytest

from stratacalc.exact import (binomial, lcm_list, multinomial, orbit_count,
                              rational_str, smith_diagonal)
from oracles import orbit_count_bfs


def test_lcm_basic():
    assert lcm_list([2, 4, 6]) == 12
    assert lcm_list([1]) == 1
    # cherry enhancements a = (1,1,2,2): lcm(a1+a2+1, a3+a4+1)
    assert lcm_list([1 + 1 + 1, 2 + 2 + 1]) == 15


def test_lcm_errors():
    with pytest.raises(ValueError):
        lcm_list([])
    with pytest.raises(ValueError):
        lcm_list([2, 0, 3])


def test_multinomial():
    assert multinomial(1, [1]) == 1
    assert multinomial(2, [1, 1]) == 2
    assert multinomial(3, [2, 1]) == 3
    with pytest.raises(ValueError):
        multinomial(3, [1, 1])


def test_multinomial_symmetry():
    rng = random.Random(1)
    for _ in range(30):
        parts = [rng.randrange(4) for _ in range(4)]
        perm = parts[:]
        rng.shuffle(perm)
        assert multinomial(sum(parts), parts) == multinomial(sum(perm), perm)


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    assert binomial(2, 5) == 0


def test_smith_diag_product_is_the_index_of_a_full_rank_span():
    assert math.prod(smith_diagonal([[5]])) == 5
    assert math.prod(smith_diagonal([[0, 3], [5, -5]])) == 15
    assert math.prod(smith_diagonal([[0, 2], [3, -3]])) == 6


def test_smith_diag_matches_det():
    rng = random.Random(5)
    for _ in range(25):
        m = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        diag = smith_diagonal(m)
        if det:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det)
        else:
            assert len(diag) < 3


def test_orbit_count_examples():
    assert orbit_count([2, 4, 6], [[1, 1, 0], [0, 1, 1]]) == 2
    assert orbit_count([7], [[1]]) == 1
    assert orbit_count([2, 4], [[1, 1]]) == 2
    assert orbit_count_bfs([2, 4], [[1, 1]]) == 2


def test_orbit_count_exhaustive_oracle():
    """BFS oracle agreement for all moduli with entries <= 6, <= 3 factors."""
    for n in (1, 2, 3):
        for moduli in itertools.product(range(1, 7), repeat=n):
            for rows in itertools.product([0, 1], repeat=n):
                if not any(rows):
                    continue
                action = [list(rows)]
                assert orbit_count(moduli, action) == \
                    orbit_count_bfs(moduli, action), (moduli, action)
    # a couple of two-generator actions
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([2, 3])
        moduli = [rng.randrange(1, 7) for _ in range(n)]
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(2)]
        assert orbit_count(moduli, rows) == orbit_count_bfs(moduli, rows)


def test_rational_str():
    from fractions import Fraction
    assert rational_str(Fraction(3, 1)) == "3"
    assert rational_str(Fraction(-1, 40)) == "-1/40"
    # Chern coefficients are ints; the --json pins need an int to print
    # as the equal Fraction does
    for n in (-3, 0, 7):
        assert rational_str(n) == rational_str(Fraction(n)) == str(n)
