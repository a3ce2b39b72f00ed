"""Property tests of the Euler characteristic and the Chern polynomial on
strata with closed forms (genus 0 up to the n = 6 strata of the
euler-sweep workload, and a genus-1 family), of the integers the
Chern graph pass reads per graph, and of the terms of the top Chern class
that ``tautring.integrate`` keeps.  Skipped where hypothesis is not
installed."""
from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from stratacalc import invariants as inv  # noqa: E402
from stratacalc import levelgraphs as lg  # noqa: E402
from stratacalc import tautring as tr  # noqa: E402
from stratacalc.evaluate import Evaluator  # noqa: E402
from stratacalc.strata import StratumSpec, dimension  # noqa: E402

from oracles import c1_direct, integrate_every_term  # noqa: E402

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


@st.composite
def euler_sweep_signature(draw):
    """n = 6 with two to four poles of order >= -9 and zeros whose orders
    sum to at most 7, in any order: the genus-0 strata of the euler-sweep
    workload."""
    def parts(total, k):
        """total as a sum of k positive integers."""
        out = [1] * k
        for i in draw(st.lists(st.integers(0, k - 1), min_size=total - k,
                               max_size=total - k)):
            out[i] += 1
        return out

    poles = draw(st.integers(2, 4))
    zero_sum = draw(st.integers(6 - poles, 7))
    mu = parts(zero_sum, 6 - poles) + [-x for x in parts(zero_sum + 2, poles)]
    return tuple(draw(st.permutations(mu)))


def check_genus0_chi_closed_form_duality_and_c1(mu):
    spec = StratumSpec.connected(0, mu)
    n = len(mu)
    rep = inv.chern_polynomial(spec, EV)
    assert rep.chi == Fraction(-1) ** (n - 3) * factorial(n - 3)
    assert rep.duality_holds
    assert not (inv.chern_class_terms(spec, 1) - c1_direct(spec)).terms


@settings(max_examples=100, deadline=None)
@given(mu=genus0_signature())
def test_genus0_chi_closed_form_duality_and_c1(mu):
    check_genus0_chi_closed_form_duality_and_c1(mu)


# each example is a cold chi + Chern pass of 0.07-0.18 CPU s (eight strata
# of the pool, each in a fresh process), so the count is what the tier-1
# time budget allows
@settings(max_examples=4, deadline=None)
@given(mu=euler_sweep_signature())
def test_genus0_n6_chi_closed_form_duality_and_c1(mu):
    check_genus0_chi_closed_form_duality_and_c1(mu)


@settings(max_examples=12, deadline=None)
@given(k=st.integers(1, 12))
def test_genus1_chi_closed_form_and_duality(k):
    rep = inv.chern_polynomial(StratumSpec.connected(1, (k, 1, -k - 1)), EV)
    assert rep.chi == Fraction(k * (k + 1), 6)
    assert rep.duality_holds



@settings(max_examples=30, deadline=None)
@given(spec=st.one_of(genus0_signature().map(lambda mu: StratumSpec.connected(0, mu)),
                      st.integers(1, 8).map(lambda k: StratumSpec.connected(1, (k, 1, -k - 1)))))
def test_chi_is_the_signed_sum_of_its_rows(spec):
    """chi, summed as one integer pair and reduced once, is (-1)^d times
    the sum of the rows' contributions, each a reduced Fraction: on genus
    0 with n <= 5 and on genus 1 (k, 1, -k-1)."""
    rep = inv.euler_characteristic(spec, EV)
    total = sum((row.contribution for row in rep.rows), Fraction(0))
    assert rep.chi == (-1) ** dimension(spec).projectivized * total
    assert type(rep.chi) is Fraction


PAIRED = StratumSpec.make([(0, (-2, -2, 2)), (0, (-2, -2, 1, 1))],
                          [({(0, 0), (1, 0)}, True), ({(0, 1), (1, 1)}, True)])


@st.composite
def small_stratum(draw):
    """Genus 0 with n = 4, 5 or 6 nonzero orders, or genus 1 (k, 1, -k-1)."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 8))
        return StratumSpec.connected(1, (k, 1, -k - 1))
    n = draw(st.sampled_from([4, 5, 6]))
    orders = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                           min_size=n - 1, max_size=n - 1))
    last = -2 - sum(orders)
    assume(last != 0 and last >= -8)
    return StratumSpec.connected(0, tuple(orders) + (last,))


@settings(max_examples=40, deadline=None)
@given(spec=small_stratum())
@example(spec=PAIRED)
def test_passage_ranks_are_suffix_sums_of_level_dimensions(spec):
    """r_i = N - N_top(delta_i Gamma), computed through the undegeneration
    as the reference, is the suffix sum N_i + ... + N_L of Gamma's own
    level dimensions, which is what the Chern pass reads per graph."""
    n = dimension(spec).unprojectivized
    for L in range(1, dimension(spec).projectivized + 1):
        for g in lg.enumerate_LGL(spec, L):
            tops = [lg.level_stratum(lg.undegenerate(g, [i])[0], spec, 0)[0]
                    for i in range(1, L + 1)]
            ref = [n - dimension(top).unprojectivized for top in tops]
            dims = [u for _, u in lg.level_dims(g, spec)]
            assert [sum(dims[i:]) for i in range(1, L + 1)] == ref
            assert inv._chern_graph_data(spec, g) == (lg.prong_data(g).ell, ref)


@settings(max_examples=30, deadline=None)
@given(spec=st.one_of(genus0_signature().map(lambda mu: StratumSpec.connected(0, mu)),
                      st.integers(1, 8).map(lambda k: StratumSpec.connected(1, (k, 1, -k - 1)))))
@example(spec=StratumSpec.connected(2, (2,)))
@example(spec=StratumSpec.connected(2, (1, 1)))
@example(spec=StratumSpec.make([(0, (2, 2, 1, -3, -4))], [({(0, 3), (0, 4)}, True)]))
def test_top_chern_integral_matches_every_term_integration(spec):
    """integrate, which skips the terms of c_d whose degree on some level
    is not that level's dimension, gives what integrating every term
    gives: on genus 0 with n <= 5, on genus 1 (k, 1, -k-1), on genus 2 and
    on a stratum with a constrained residue part."""
    cd = inv.chern_class_terms(spec, dimension(spec).projectivized)
    assert tr.integrate(cd, EV) == integrate_every_term(cd, EV)


@settings(max_examples=10, deadline=None)
@given(spec=small_stratum())
@example(spec=PAIRED)
@example(spec=StratumSpec.connected(2, (2,)))
@example(spec=StratumSpec.connected(2, (1, 1)))
def test_top_chern_class_is_the_euler_rows_termwise(spec):
    """The terms of c_d that integrate keeps, those whose degree on each
    level is that level's projectivized dimension d_i, are one per level
    graph: ell_Gamma N_top(Gamma) prod_i (xi^[-i])^d_i [D_Gamma], whose
    integral is the graph's row of the Euler characteristic."""
    d = dimension(spec).projectivized
    rows = {row.graph: row for row in inv.euler_characteristic(spec, EV).rows}
    kept = {}
    for (g, dec), c in inv.chern_class_terms(spec, d).terms.items():
        dims = [p for p, _ in lg.level_dims(g, spec)]
        if tr._level_degrees(g, dec) == dims:
            assert g not in kept
            assert dec == tr._decor({("xi", -i): e for i, e in enumerate(dims)})
            assert c == lg.prong_data(g).ell * rows[g].top_dim_unproj
            kept[g] = tr.integrate(tr.TautClass(spec, {(g, dec): c}), EV)
    assert kept == {g: row.contribution for g, row in rows.items()}
