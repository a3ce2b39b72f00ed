from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from stratacalc.exact import binomial, fraction_sum, multinomial, orbit_count, rational_str
from oracles import orbit_count_bfs


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


def test_fraction_sum_of_unreduced_pairs():
    """fraction_sum adds unreduced pairs of any sign exactly, whatever the
    denominators share, and returns a reduced Fraction, 0 on no pairs."""
    assert fraction_sum([]) == 0 and type(fraction_sum([])) is Fraction
    assert fraction_sum([(2, 4), (-3, 6), (5, 35), (1, 7)]) == Fraction(2, 7)
    rng = random.Random(3)
    for _ in range(50):
        pairs = [(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6, 7, 9, 12, 24, 35]))
                 for _ in range(rng.randrange(8))]
        assert fraction_sum(pairs) == sum((Fraction(n, d) for n, d in pairs), Fraction(0))


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    assert binomial(2, 5) == 0


def test_orbit_count_is_the_index_of_a_full_rank_span():
    """With every modulus a multiple of |det A|, the rows k e_i lie in the
    span of the rows of A (adj(A) A = det(A) I), so the count is the index
    of that span, |det A|."""
    assert orbit_count([5], [[5]]) == 5
    assert orbit_count([15, 15], [[0, 3], [5, -5]]) == 15
    assert orbit_count([6, 12], [[0, 2], [3, -3]]) == 6


def test_orbit_count_matches_det():
    rng = random.Random(5)
    nonsingular = 0
    for _ in range(25):
        m = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det:
            nonsingular += 1
            assert orbit_count([abs(det)] * 3, m) == abs(det), m
            assert orbit_count([2 * abs(det), abs(det), 3 * abs(det)], m) == abs(det), m
    assert nonsingular >= 20


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


def crossing_rows(runs: list[tuple[int, int]], L: int) -> list[list[int]]:
    """The rows ``levelgraphs.prong_data`` feeds ``orbit_count``: an edge
    from level -top down to level -bottom crosses passages top+1..bottom."""
    return [[1 if top < i <= bottom else 0 for top, bottom in runs] for i in range(1, L + 1)]


def test_orbit_count_on_crossing_rows_against_bfs():
    """Multi-row crossing rows: each of E <= 5 edges crosses a contiguous
    run of the L <= 4 passages, every passage crossed, with kappa <= 6."""
    rng = random.Random(17)
    checked = 0
    while checked < 300:
        L = rng.randint(1, 4)
        E = rng.randint(1, 5)
        runs = []
        for _ in range(E):
            top = rng.randrange(L)
            runs.append((top, rng.randint(top + 1, L)))
        rows = crossing_rows(runs, L)
        if not all(any(row) for row in rows):
            continue
        moduli = [rng.randint(1, 6) for _ in range(E)]
        assert orbit_count(moduli, rows) == orbit_count_bfs(moduli, rows), (moduli, rows)
        checked += 1


def test_rational_str():
    from fractions import Fraction
    assert rational_str(Fraction(3, 1)) == "3"
    assert rational_str(Fraction(-1, 40)) == "-1/40"
    # Chern coefficients are ints; the --json pins need an int to print
    # as the equal Fraction does
    for n in (-3, 0, 7):
        assert rational_str(n) == rational_str(Fraction(n)) == str(n)


@pytest.mark.parametrize("x", [-0.0, 0.5, True, "1/2"])
def test_rational_str_takes_only_exact_values(x):
    # a float such as -0.0 would otherwise print as an exact "0"
    with pytest.raises(TypeError):
        rational_str(x)
