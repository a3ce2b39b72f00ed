"""Exact integer and rational kernels: multinomials, binomials and orbit
counts of translation actions, each orbit count the index of one integer
lattice.

Everything here is exact.  Rational numbers are ``fractions.Fraction``
throughout the package; no floating point is used anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Sequence

Rational = Fraction


def rational_str(x: Rational | int) -> str:
    """Serialize a rational as ``p/q``, or ``p`` when the denominator is 1.
    Only an exact value is accepted: anything but an int (not a bool) or a
    ``Fraction``, a float among them, raises ``TypeError``."""
    if type(x) is int:
        return str(x)
    if not isinstance(x, Fraction):
        raise TypeError(f"expected an int or a Fraction, not {type(x).__name__}")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fraction_sum(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of the fractions num/den of integer pairs (num, den), each
    den > 0 and the pairs not necessarily reduced, as one ``Fraction``.
    The running sum is kept over the least common multiple of the
    denominators seen, so only the result is reduced."""
    num, den = 0, 1
    for n, d in pairs:
        if d != den:
            g = gcd(den, d)
            num, den, n = num * (d // g), den // g * d, n * (den // g)
        num += n
    return Fraction(num, den)


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
    """The falling factorial n (n - 1) ... (n - k + 1) over k!, for any
    integer n, and 0 for k < 0.  So it is 0 for 0 <= n < k and may be
    negative for n < 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def orbit_count(moduli: Sequence[int], action_rows: Sequence[Sequence[int]]) -> int:
    """Number of orbits of the translation action of the subgroup of
    ``prod Z/kappa`` generated by ``action_rows`` (integer vectors; the
    crossing rows of :func:`levelgraphs.prong_data` are 0/1).

    Every orbit has the size of the generated subgroup, so the count is
    ``prod(moduli)`` over the subgroup order: the index in Z^n of the
    lattice spanned by the action rows and the rows kappa_i e_i.  Column by
    column, Euclid reduces the rows until one of them is nonzero in that
    column; the index is the product of those pivots, each nonzero since
    the row kappa_j e_j reaches column j untouched.
    """
    for row in action_rows:
        if len(row) != len(moduli):
            raise ValueError("action row length differs from number of cyclic factors")
    if any(k < 1 for k in moduli):
        raise ValueError("moduli must be positive")
    n = len(moduli)
    rows = [list(r) for r in action_rows]
    rows += [[k if j == i else 0 for j in range(n)] for i, k in enumerate(moduli)]
    index = 1
    for j in range(n):
        pivot = None
        rest = []
        for r in rows:
            while pivot is not None and r[j]:  # Euclid: r[j] ends 0, pivot[j] the gcd
                q = pivot[j] // r[j]
                pivot, r = r, [a - q * b for a, b in zip(pivot, r)]
            if pivot is None and r[j]:
                pivot = r
            else:
                rest.append(r)
        index *= abs(pivot[j])
        rows = rest
    return index
