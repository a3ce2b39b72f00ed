"""Property tests of the Euler characteristic and the Chern polynomial on
strata with closed forms.  Skipped where hypothesis is not installed."""
from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from stratacalc import invariants as inv  # noqa: E402
from stratacalc.evaluate import Evaluator  # noqa: E402
from stratacalc.strata import StratumSpec  # noqa: E402

EV = Evaluator()


@st.composite
def genus0_signature(draw):
    """n = 4 or 5 nonzero orders summing to -2, in any order."""
    n = draw(st.sampled_from([4, 5]))
    orders = draw(st.lists(st.integers(-6, 4).filter(bool),
                           min_size=n - 1, max_size=n - 1))
    last = -2 - sum(orders)
    assume(last != 0 and last >= -10)
    return tuple(orders) + (last,)


@settings(max_examples=100, deadline=None)
@given(mu=genus0_signature())
def test_genus0_chi_closed_form_duality_and_c1(mu):
    spec = StratumSpec.connected(0, mu)
    n = len(mu)
    rep = inv.chern_polynomial(spec, EV)
    assert rep.chi == Fraction(-1) ** (n - 3) * factorial(n - 3)
    assert rep.duality_holds
    assert not (inv.chern_class_terms(spec, 1) - inv.c1_log_cotangent(spec)).terms


@settings(max_examples=12, deadline=None)
@given(k=st.integers(1, 12))
def test_genus1_chi_closed_form_and_duality(k):
    rep = inv.chern_polynomial(StratumSpec.connected(1, (k, 1, -k - 1)), EV)
    assert rep.chi == Fraction(k * (k + 1), 6)
    assert rep.duality_holds
