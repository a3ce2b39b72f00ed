"""Property test of the one residue elimination in ``stratacalc.strata``:
on random valid generalized specs, the residue rank and forced-zero poles
of the record of ``dimension`` agree with their definition, the rank of
the constraint rows with and without e_p over the rationals.  Skipped
where hypothesis is not installed."""
from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stratacalc.strata import StratumSpec, dimension, validate  # noqa: E402


@st.composite
def components(draw):
    """(genus, orders): genus 0-2, simple and higher poles, zeros (order 0
    allowed) filling the order sum 2g - 2, in a random point order."""
    genus = draw(st.integers(0, 2))
    poles = draw(st.lists(st.integers(-4, -1), min_size=1 if genus == 0 else 0,
                          max_size=4))
    rest = 2 * genus - 2 - sum(poles)
    if rest < 0:
        poles.append(rest)
        rest = 0
    cuts = sorted(draw(st.lists(st.integers(0, rest), min_size=0, max_size=2)))
    zeros = [b - a for a, b in zip([0] + cuts, cuts + [rest])]
    return genus, tuple(draw(st.permutations(zeros + poles)))


@st.composite
def specs(draw):
    """1-3 components; the higher poles go into up to three disjoint
    residue parts, each constrained or not."""
    comps = draw(st.lists(components(), min_size=1, max_size=3))
    higher = [(ci, pi) for ci, (_, orders) in enumerate(comps)
              for pi, o in enumerate(orders) if o <= -2]
    labels = draw(st.lists(st.integers(-1, 2), min_size=len(higher),
                           max_size=len(higher)))
    flags = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    parts = [([pt for pt, lab in zip(higher, labels) if lab == k], flags[k])
             for k in range(3)]
    spec = StratumSpec.make(comps, [(pts, flag) for pts, flag in parts if pts])
    assert validate(spec) == []
    return spec


def rational_rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def oracle(spec: StratumSpec) -> tuple[int, set]:
    """(residue rank, forced-zero poles) by definition: p is forced to zero
    when adding e_p to the constraint rows leaves their rank unchanged."""
    poles = spec.poles()

    def row(points) -> list[Fraction]:
        return [Fraction(int(pt in points)) for pt in poles]

    rows = [row({pt for pt in poles if pt[0] == ci})
            for ci in range(spec.n_components) if any(pt[0] == ci for pt in poles)]
    rows += [row(part.points) for part in spec.constrained_parts()]
    rank = rational_rank(rows)
    forced = {pt for pt in poles if rational_rank(rows + [row({pt})]) == rank}
    return len(poles) - rank, forced


@settings(max_examples=200, deadline=None)
@given(specs())
def test_record_matches_the_rank_definition(spec):
    residue_rank, forced = oracle(spec)
    dd = dimension(spec)
    assert dd.poles == tuple(spec.poles())
    assert dd.residue_rank == residue_rank
    assert set(dd.forced_zero) == forced
    assert [pt for pt in dd.poles if pt in forced] == list(dd.forced_zero)
    base = sum(2 * g + len(orders) - 1 for g, orders in spec.components)
    assert dd.unprojectivized == base - (len(dd.poles) - residue_rank)
    assert dd.projectivized == dd.unprojectivized - 1
