"""Exact integer and rational kernels: lcm, multinomials, Smith normal form,
integer-lattice indices and orbit counts of translation actions.

Everything here is exact.  Rational numbers are ``fractions.Fraction``
throughout the package; no floating point is used anywhere.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, factorial
from typing import Sequence

Rational = Fraction

#: Sentinel returned by :func:`lattice_index` when the span is rank-deficient.
INFINITE_INDEX = "infinite"


def rational_str(x: Rational | int) -> str:
    """Serialize a rational as ``p/q``, or ``p`` when the denominator is 1."""
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def lcm_list(xs: Sequence[int]) -> int:
    """Least common multiple of a nonempty list of positive integers."""
    if not xs:
        raise ValueError("lcm_list: empty input")
    out = 1
    for x in xs:
        if x < 1:
            raise ValueError(f"lcm_list: nonpositive entry {x}")
        out = out * x // gcd(out, x)
    return out


def multinomial(total: int, parts: Sequence[int]) -> int:
    """``total! / prod(parts_i!)`` for a composition of ``total``.

    Used for genus-0 psi-intersections: int psi_1^{a_1}...psi_n^{a_n} over
    the moduli of n-pointed rational curves equals multinomial(n-3, a).
    """
    if any(p < 0 for p in parts):
        raise ValueError("multinomial: negative part")
    if sum(parts) != total:
        raise ValueError(f"multinomial: parts {list(parts)} do not sum to {total}")
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the convention 0 for k < 0 or k > n >= 0.

    ``n`` may be any integer; for n < 0 the usual generalized value is NOT
    needed here, so negative n with 0 <= k returns the falling-factorial
    definition (n choose k) which may be negative.
    """
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


@dataclass(frozen=True)
class IntegerMatrix:
    """A rectangular matrix of arbitrary-precision integers (row-major)."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        r = len(rows)
        if r == 0:
            if cols is None:
                raise ValueError("empty matrix needs explicit column count")
            return IntegerMatrix(0, cols, ())
        c = len(rows[0]) if cols is None else cols
        ent = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows in IntegerMatrix")
            ent.append(tuple(int(x) for x in row))
        return IntegerMatrix(r, c, tuple(ent))


def smith_diagonal(mat: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Plain row/column reduction with smallest-pivot selection; fine at the
    matrix sizes occurring here (a handful of rows and columns).
    """
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    top = 0
    while top < m and top < n:
        # locate smallest nonzero entry in the remaining block
        piv = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        p = a[top][top]
        done = True
        for i in range(top + 1, m):
            q = a[i][top] // p
            if q:
                for j in range(top, n):
                    a[i][j] -= q * a[top][j]
            if a[i][top]:
                done = False
        for j in range(top + 1, n):
            q = a[top][j] // p
            if q:
                for i in range(top, m):
                    a[i][j] -= q * a[i][top]
            if a[top][j]:
                done = False
        if done:
            diag.append(abs(p))
            top += 1
    # divisibility chain is irrelevant for index computations; skip it
    return diag


def lattice_index(ambient_rank: int, generators: IntegerMatrix | Sequence[Sequence[int]]):
    """Index of the sublattice spanned by the generator rows inside Z^rank.

    Returns a positive integer, or :data:`INFINITE_INDEX` when the span has
    rank lower than ``ambient_rank``.
    """
    rows = generators.entries if isinstance(generators, IntegerMatrix) else generators
    for row in rows:
        if len(row) != ambient_rank:
            raise ValueError("generator row length differs from ambient rank")
    diag = smith_diagonal(list(rows)) if rows else []
    if len(diag) < ambient_rank:
        return INFINITE_INDEX
    out = 1
    for d in diag:
        out *= d
    return out


def orbit_count(moduli: Sequence[int], action_rows: Sequence[Sequence[int]]) -> int:
    """Number of orbits of the translation action of the subgroup of
    ``prod Z/kappa`` generated by ``action_rows`` (0/1 vectors).

    For a translation action every orbit has the size of the generated
    subgroup, so the count is ``prod(moduli)`` divided by the subgroup
    order, i.e. the order of the cokernel of the stacked integer matrix
    (action rows over diag(moduli)).
    """
    for row in action_rows:
        if len(row) != len(moduli):
            raise ValueError("action row length differs from number of cyclic factors")
    if any(k < 1 for k in moduli):
        raise ValueError("moduli must be positive")
    n = len(moduli)
    if n == 0:
        return 1
    stack = [list(r) for r in action_rows]
    for i, k in enumerate(moduli):
        stack.append([k if j == i else 0 for j in range(n)])
    idx = lattice_index(n, stack)
    assert idx != INFINITE_INDEX
    return idx


def orbit_count_bfs(moduli: Sequence[int], action_rows: Sequence[Sequence[int]]) -> int:
    """Explicit breadth-first orbit count; the permanent test oracle for
    :func:`orbit_count`.  Exponential in the state space, use on small input.
    """
    n = len(moduli)
    if n == 0:
        return 1
    total = 1
    for k in moduli:
        total *= k
    seen: set[tuple[int, ...]] = set()
    orbits = 0
    for start_idx in range(total):
        # decode mixed-radix index
        x = []
        t = start_idx
        for k in moduli:
            x.append(t % k)
            t //= k
        start = tuple(x)
        if start in seen:
            continue
        orbits += 1
        dq = deque([start])
        seen.add(start)
        while dq:
            cur = dq.popleft()
            for row in action_rows:
                for sign in (1, -1):
                    nxt = tuple((c + sign * r) % k for c, r, k in zip(cur, row, moduli))
                    if nxt not in seen:
                        seen.add(nxt)
                        dq.append(nxt)
    return orbits
