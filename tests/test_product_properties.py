"""Property tests of the excess-intersection product: boundary divisors
commute, and the product equals the one whose walk takes every split.
Skipped where hypothesis is not installed."""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from stratacalc import levelgraphs as lg  # noqa: E402
from stratacalc import tautring as tr  # noqa: E402
from stratacalc.evaluate import Evaluator  # noqa: E402
from stratacalc.strata import StratumSpec, dimension  # noqa: E402
from oracles import multiply_every_split  # noqa: E402

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


@st.composite
def product_operands(draw):
    """Two operands on genus 0 with five or six points or genus 1
    (k, 1, -k-1), k <= 6: divisors D_a, D_b; D_a and the chain D_b.D_c,
    whose terms lie up to two levels deep once the dimension is 3; D_a and
    D_b + D_c; xi and the normal bundle of D_a through either route; or
    lam on the trivial graph plus D_a with lam on its lower level, and
    D_b."""
    kind = draw(st.sampled_from(["pair", "chain", "sum", "nb", "nb_edge", "lam"]))
    if kind != "chain" and draw(st.booleans()):
        spec = StratumSpec.connected(1, (k := draw(st.integers(1, 6)), 1, -k - 1))
    else:
        n = 6 if kind == "chain" else draw(st.integers(5, 6))
        orders = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                               min_size=n - 1, max_size=n - 1))
        last = -2 - sum(orders)
        assume(last != 0 and last >= -8)
        spec = StratumSpec.connected(0, tuple(orders) + (last,))
    divisors = lg.enumerate_LG1(spec)
    da, db, dc = (draw(st.sampled_from(divisors)) for _ in range(3))
    D = [tr.TautClass.boundary(spec, g) for g in (da, db, dc)]
    if kind == "pair":
        return D[0], D[1]
    if kind == "chain":
        return D[0], tr.multiply(D[1], D[2], EV)
    if kind == "sum":
        return D[0], D[1] + D[2]
    if kind == "nb":
        return tr.TautClass.xi(spec), tr.normal_bundle(spec, da, 1)
    if kind == "nb_edge":
        edge = draw(st.integers(0, len(da.edges) - 1))
        return tr.TautClass.xi(spec), tr.normal_bundle_via_edge(spec, da, edge)
    lam = tr.TautClass(spec, {(lg.trivial_graph(spec), tr._decor({("lam", 0): 1})): 1,
                              (da, tr._decor({("lam", -1): 1})): 1})
    return lam, D[1]


@settings(max_examples=30, deadline=None)
@given(case=product_operands())
def test_product_equals_the_every_split_product(case):
    """The side plan leaves out only splits that no second term meets: the
    product's terms are exactly those of the walk through every split."""
    a, b = case
    assert tr.multiply(a, b, EV).terms == multiply_every_split(a, b).terms


def test_products_with_second_terms_two_levels_deep():
    """D_a times a chain D_b.D_c with terms two levels deep, where the
    walk's first layer is planned for them and its second for them alone,
    equals the every-split product for every D_a."""
    spec = StratumSpec.connected(0, (1, 1, 1, 1, -2, -4))
    assert dimension(spec).projectivized == 3
    D = [tr.TautClass.boundary(spec, g) for g in lg.enumerate_LG1(spec)]
    chain = next(p for p in (tr.multiply(D[0], d, EV) for d in D)
                 if any(g.n_levels_below == 2 for g, _ in p.terms))
    for da in D:
        product = tr.multiply(da, chain, EV)
        assert product.terms == multiply_every_split(da, chain).terms
