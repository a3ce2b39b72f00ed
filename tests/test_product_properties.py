"""Property tests of the excess-intersection product: boundary divisors
commute.  Skipped where hypothesis is not installed."""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from stratacalc import levelgraphs as lg  # noqa: E402
from stratacalc import tautring as tr  # noqa: E402
from stratacalc.evaluate import Evaluator  # noqa: E402
from stratacalc.strata import StratumSpec  # noqa: E402

EV = Evaluator()


@st.composite
def divisor_pair(draw):
    """Two divisors, drawn independently, of genus 1 (k, 1, -k-1) or of a
    genus-0 stratum with five nonzero orders."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        spec = StratumSpec.connected(1, (k, 1, -k - 1))
    else:
        orders = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                               min_size=4, max_size=4))
        last = -2 - sum(orders)
        assume(last != 0 and last >= -8)
        spec = StratumSpec.connected(0, tuple(orders) + (last,))
    divisors = lg.enumerate_LG1(spec)
    return spec, draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors))


@settings(max_examples=25, deadline=None)
@given(case=divisor_pair())
def test_divisor_products_commute(case):
    spec, a, b = case
    da, db = tr.TautClass.boundary(spec, a), tr.TautClass.boundary(spec, b)
    ab = tr.multiply(da, db, EV)
    assert not (ab - tr.multiply(db, da, EV)).terms
