from __future__ import annotations

import json
from fractions import Fraction

import pytest

from stratacalc import levelgraphs as lg
from stratacalc.strata import SpecError, StratumSpec, dimension
from stratacalc.evaluate import (Evaluator, FixtureCollisionError,
                                 FixtureRegistry, UnevaluatableError,
                                 default_registry, shared_evaluator)
from test_levelgraphs import NEGATIVE_DIMENSION_SPECS


EV = Evaluator()


def C(g, mu):
    return StratumSpec.connected(g, mu)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_genus0_single_pole_closed_form():
    # int xi^{n-2} = (-1 - sum a)^{n-2}
    assert EV.xi_top(C(0, (1, 1, 1, -5))) == -4
    assert EV.xi_top(C(0, (0, 0, -2))) == 1
    assert EV.xi_top(C(0, (2, 3, 1, 1, -9))) == (-8) ** 2


def test_xi_top_and_psi_top_answer_only_for_a_realizable_stratum():
    """The public surface judges the ambient stratum: genus 0 (4,-1,-2,-3)
    with {2,3} constrained forces the simple pole's residue to zero, so it
    is empty although its dimension is 0; the strata of negative dimension
    are refused as well."""
    spec = StratumSpec.make([(0, (4, -1, -2, -3))], [({(0, 2), (0, 3)}, True)])
    assert dimension(spec).projectivized == 0
    for stratum in (spec, *NEGATIVE_DIMENSION_SPECS):
        for ask in (lambda ev: ev.xi_top(stratum), lambda ev: ev.psi_top(stratum, {})):
            with pytest.raises(SpecError, match="^ambient stratum not realizable: "):
                ask(Evaluator())


def test_genus1_closed_forms_match_fixture_table():
    reg = default_registry()
    assert EV.xi_top(C(1, (2, -2))) == Fraction(-1, 8)
    assert reg.lookup(C(1, (2, -2))) == Fraction(-1, 8)
    assert EV.xi_top(C(1, (2, 1, -3))) == Fraction(5, 8)
    assert reg.lookup(C(1, (2, 1, -3))) == Fraction(5, 8)
    assert EV.xi_top(C(1, (1, 1, -2))) == 0
    assert reg.lookup(C(1, (1, 1, -2))) == 0


def test_holomorphic_rules():
    assert EV.xi_top(C(1, (0,))) == Fraction(1, 24)
    assert EV.xi_top(C(2, (2,))) == Fraction(-1, 640)
    assert EV.xi_top(C(2, (1, 1))) == 0
    assert EV.xi_top(C(3, (2, 1, 1))) == 0


def test_meromorphic_fixtures():
    assert EV.xi_top(C(2, (5, -3))) == Fraction(-21, 20)
    assert EV.xi_top(C(2, (8, -2, -2, -2))) == Fraction(-4527, 32)


def test_psi_top_genus0():
    spec = C(0, (1, 1, 1, 1, -6))
    assert EV.psi_top(spec, {(0, 0): 1, (0, 1): 1}) == 2
    assert EV.psi_top(spec, {(0, 0): 2}) == 1
    m04 = C(0, (1, 1, -2, -2))
    assert EV.psi_top(m04, {(0, 0): 1}) == 1


def test_psi_top_disconnected_vanishes():
    spec = StratumSpec.make([(0, (1, 1, -4)), (0, (1, 1, -4))])
    assert EV.psi_top(spec, {(0, 0): 1}) == 0


def test_degree_mismatch_is_zero():
    spec = C(0, (1, 1, 1, -5))
    assert EV.integral(spec, {}, 0) == 0
    assert EV.integral(spec, {(0, 0): 5}, 0) == 0


# ---------------------------------------------------------------------------
# recursion routes
# ---------------------------------------------------------------------------

def test_genus0_two_pole_value():
    # bottom stratum of the k=5 family divisors: int xi = -k
    for k, a in [(5, 2), (4, 1), (6, 3)]:
        b = k + 1 - a
        assert EV.xi_top(C(0, (1, k, -a - 1, -b - 1))) == -k


def test_disconnected_xi_value():
    bot = StratumSpec.make([(0, (1, 1, -4)), (0, (2, 2, -6))])
    assert EV.xi_top(bot) == -1


def test_route_independence():
    """Expanding xi at different marked points gives the same value."""
    spec = C(0, (2, 1, 1, -3, -3))
    d = dimension(spec).projectivized
    vals = set()
    for pt in spec.points():
        ev = Evaluator()
        vals.add(ev._expand_xi(spec, {}, d, point=pt))
    assert len(vals) == 1
    assert vals.pop() == EV.xi_top(spec)


def genus0_strata(hyp, sizes, min_poles: int = 1):
    """A hypothesis strategy of genus-0 strata with a number of nonzero
    orders drawn from ``sizes`` and at least ``min_poles`` poles."""
    st = hyp.strategies

    @st.composite
    def draw_spec(draw):
        n = draw(st.sampled_from(sizes))
        orders = draw(st.lists(st.integers(-5, 4).filter(bool),
                               min_size=n - 1, max_size=n - 1))
        orders.append(-2 - sum(orders))
        hyp.assume(orders[-1] and -7 <= orders[-1] <= 6)
        hyp.assume(sum(m < 0 for m in orders) >= min_poles)
        return C(0, tuple(orders))

    return draw_spec()


def test_the_expansion_point_does_not_matter_property():
    """Trading one xi for psi at any point that is not a simple pole, on a
    fresh evaluator, gives the xi-top: random genus-0 strata with four to
    six points and at least two poles.  Skipped where hypothesis is not
    installed."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(genus0_strata(hyp, (4, 5, 6), min_poles=2))
    def check(spec):
        d = dimension(spec).projectivized
        top = Evaluator().xi_top(spec)
        for p in spec.points():
            if spec.order(p) != -1:
                assert Evaluator()._expand_xi(spec, {}, d, point=p) == top, p

    check()


def test_an_order_zero_point_multiplies_the_xi_top_property():
    """The order-0 relation: the xi-top of mu with an added point of order
    0 is -sum over the poles of (|m_j| - 1) times the xi-top of mu, on
    random genus-0 strata mu with three to five points.  Skipped where
    hypothesis is not installed."""
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(genus0_strata(hyp, (3, 4, 5)))
    def check(spec):
        mu = spec.components[0][1]
        factor = -sum(-m - 1 for m in mu if m < 0)
        ev = Evaluator()
        assert ev.xi_top(C(0, mu + (0,))) == factor * ev.xi_top(spec)

    check()


def test_genus0_closed_form_agrees_with_recursion():
    """Single-pole strata evaluated through the generic expansion."""
    for mu in [(1, 1, 1, -5), (1, 1, 1, 1, -6), (3, 1, 2, -8)]:
        spec = C(0, mu)
        d = dimension(spec).projectivized
        ev = Evaluator()
        expanded = ev._expand_xi(spec, {}, d)
        assert expanded == EV.xi_top(spec), mu


def test_residue_constrained_removal():
    # (1,1,-2,-2) with one residue killed: a single point
    spec = StratumSpec.make([(0, (1, 1, -2, -2))], [({(0, 2)}, True)])
    assert dimension(spec).projectivized == 0
    ev = Evaluator()
    assert ev.integral(spec, {}, 0) == 1
    # redundant part drops out: pairing both poles repeats the residue theorem
    spec = StratumSpec.make([(0, (1, 1, -2, -2))], [({(0, 2), (0, 3)}, True)])
    assert dimension(spec).projectivized == 1
    assert ev.xi_top(spec) == EV.xi_top(C(0, (1, 1, -2, -2)))


# ---------------------------------------------------------------------------
# fixtures and caching
# ---------------------------------------------------------------------------

def test_fixture_registration_rules():
    reg = FixtureRegistry()
    spec = C(1, (0,))
    reg.register(spec, Fraction(1, 24), "table")
    reg.register(spec, Fraction(1, 24), "table again")  # idempotent
    with pytest.raises(FixtureCollisionError):
        reg.register(spec, Fraction(1, 25), "conflicting")


def test_fixture_lookup_is_order_insensitive():
    reg = default_registry()
    assert reg.lookup(C(2, (-3, 5))) == Fraction(-21, 20)


def test_default_registries_do_not_share_entries():
    one, two = default_registry(), default_registry()
    assert len(one._entries) == 12 and one._entries == two._entries
    extra = C(3, (7, -3))
    one.register(extra, Fraction(1, 7), "test")
    assert one.lookup(extra) == Fraction(1, 7)
    assert two.lookup(extra) is None and default_registry().lookup(extra) is None
    with pytest.raises(FixtureCollisionError):
        two.register(C(1, (0,)), Fraction(1, 25), "conflicting")
    assert default_registry()._entries == two._entries


def test_fail_loud_names_the_key():
    ev = Evaluator(FixtureRegistry())
    with pytest.raises(UnevaluatableError) as err:
        ev.xi_top(C(3, (4,)))
    assert "xi^d" in str(err.value)


def test_unknown_meromorphic_fails_loud():
    ev = Evaluator(default_registry())
    with pytest.raises(UnevaluatableError):
        ev.xi_top(C(3, (7, -3)))


def test_invalid_spec_raises_on_every_call():
    """Enumeration and integration validate a spec on their memo misses
    only; an invalid spec is never memoized, so every call raises the same
    one-line diagnostic."""
    bad = C(0, (2, -2, -1))
    for call in (lambda: lg.enumerate_LGL(bad, 1), lambda: Evaluator().integral(bad, {}, 0),
                 lambda: EV.integral(bad, {}, 0)):
        messages = []
        for _ in range(2):
            with pytest.raises(SpecError) as err:
                call()
            messages.append(str(err.value))
        assert messages == ["component 0: order sum -1 != 2g-2 = -2"] * 2


def test_cache_transparency():
    spec = C(0, (1, 1, 2, 2, -8))
    warm = Evaluator()
    a = warm.xi_top(spec)
    b = warm.xi_top(spec)  # memoized path
    cold = Evaluator()
    assert a == b == cold.xi_top(spec)


def test_extra_fixture_loading():
    reg = default_registry()
    reg.load_json_obj([{
        "spec": C(3, (7, -3)).to_json_obj(),
        "integrand": {"xi_power": 5},
        "value": "1/7",
        "provenance": "test",
    }])
    ev = Evaluator(reg)
    assert ev.xi_top(C(3, (7, -3))) == Fraction(1, 7)


def test_psi_fixture_loading():
    reg = FixtureRegistry()
    spec = C(2, (1, 1))
    reg.load_json_obj([{"spec": spec.to_json_obj(), "value": "3/7",
                        "integrand": {"psi": {"0.0": 4}}}])
    assert reg.lookup(spec, (((0, 0), 4),)) == Fraction(3, 7)
    assert reg.lookup(spec) is None


def test_psi_fixture_registration_and_lookup():
    reg = FixtureRegistry()
    spec = C(2, (1, 1))
    reg.register(spec, Fraction(3, 7), "test", psi={(0, 0): 4})
    assert reg.lookup(spec, (((0, 0), 4),)) == Fraction(3, 7)
    ev = Evaluator(reg)
    assert ev.integral(spec, {(0, 0): 4}, 0) == Fraction(3, 7)


def test_psi_fixture_key_follows_the_orders_not_the_numbering():
    """psi_(0,0)^2 is 3/8 on genus 1 (2, 1, -3) and 1/2 on (1, 2, -3): the
    two specs share a canonical key, but the point (0, 0) has a different
    order on each, so neither value may answer for the other."""
    a, b = C(1, (2, 1, -3)), C(1, (1, 2, -3))
    values = {a: Fraction(3, 8), b: Fraction(1, 2)}
    for spec, value in values.items():
        assert Evaluator().psi_top(spec, {(0, 0): 2}) == value
    for held, asked in ((a, b), (b, a)):
        reg = default_registry()
        reg.register(held, values[held], "test", psi={(0, 0): 2})
        assert Evaluator(reg).psi_top(asked, {(0, 0): 2}) == values[asked]
        reg.register(asked, values[asked], "test", psi={(0, 0): 2})  # no collision
    # the same integral with the points renumbered is one key
    reg = default_registry()
    reg.register(a, values[a], "test", psi={(0, 0): 2})
    assert reg.lookup(b, (((0, 1), 2),)) == values[a]


def test_psi_at_simple_poles_only_names_its_key():
    """psi is traded for xi at the first psi point that is not a simple
    pole, where m_p + 1 would be zero; with every psi at a simple pole the
    recursion stops with the psi key instead of dividing by zero."""
    reg = default_registry()
    reg.register(C(1, (2, -1, -1)), 1, "test")
    ev = Evaluator(reg)
    assert ev.psi_top(C(1, (2, -1, -1)), {(0, 0): 2}) == Fraction(17, 108)
    with pytest.raises(UnevaluatableError) as err:
        ev.psi_top(C(1, (-1, -1, 2)), {(0, 0): 2})
    key = 'psi (order, exponent) on {"c": [[1, [[2, 0], [-1, 2], [-1, 0]]]]}'
    assert err.value.key == key and err.value.chain == [key]


def test_fixture_key_drops_an_unconstrained_residue_part():
    """An unconstrained residue part imposes no condition, so a spec keys
    its fixtures as the spec without it: a psi fixture on genus 1
    (3, -1, -2) with the unconstrained part {(0, 2)} answers the plain
    spec and the other way round, and without one the missing key of
    either is the plain spec's.  A constrained part keeps the verbatim key,
    without the unconstrained parts."""
    plain = C(1, (3, -1, -2))
    free = StratumSpec.from_json_obj({
        "components": [{"genus": 1, "orders": [3, -1, -2]}],
        "residue_parts": [{"points": [[0, 2]], "constrained": False}]})
    assert free.canonical_key() == plain.canonical_key() == '{"c": [[1, [3, -1, -2]]]}'
    key = 'psi (order, exponent) on {"c": [[1, [[3, 0], [-1, 2], [-2, 0]]]]}'
    for spec in (plain, free):
        with pytest.raises(UnevaluatableError) as err:
            Evaluator(default_registry()).psi_top(spec, {(0, 1): 2})
        assert err.value.key == key and err.value.chain == [key]
    for held, asked in ((free, plain), (plain, free)):
        item = {"spec": held.to_json_obj(), "value": "2/9",
                "integrand": {"psi": {"0.1": 2}}}
        ev = shared_evaluator((json.dumps([item]),))
        assert ev.psi_top(asked, {(0, 1): 2}) == Fraction(2, 9)
    both = StratumSpec.make([(0, (2, 2, -2, -2, -2))],
                            [({(0, 2), (0, 3)}, True), ({(0, 4)}, False)])
    assert both.canonical_key() == StratumSpec(both.components, both.residue_parts[:1]).to_json()


def test_a_fixture_on_a_constrained_spec_answers():
    """A fixture on a spec with a constrained part answers its pure xi^d or
    pure psi integrand before the condition is removed, on that spec with
    that numbering only; the spec without the part has no fixture, so the
    removal alone cannot evaluate it, and a mixed integrand is not read as
    the pure psi fixture of the same exponents."""
    spec = StratumSpec.make([(1, (3, 1, -2, -2))], [({(0, 2), (0, 3)}, True)])
    renumbered = StratumSpec.make([(1, (1, 3, -2, -2))], [({(0, 2), (0, 3)}, True)])
    assert dimension(spec).projectivized == 3
    reg = default_registry()
    reg.register(spec, 12345, "test")
    reg.register(spec, Fraction(-2, 7), "test", psi={(0, 0): 3})
    ev = Evaluator(reg)
    assert ev.xi_top(spec) == 12345
    assert ev.psi_top(spec, {(0, 0): 3}) == Fraction(-2, 7)
    for ask in (lambda: ev.xi_top(renumbered), lambda: ev.psi_top(renumbered, {(0, 1): 3}),
                lambda: ev.integral(spec, {(0, 0): 2}, 1),
                lambda: Evaluator().xi_top(spec)):
        with pytest.raises(UnevaluatableError) as err:
            ask()
        assert err.value.key == 'xi^d on {"c": [[1, [3, 1, -2, -2]]]}'


def test_single_pole_recursion_sweep():
    """Closed form and generic expansion agree for single-pole rational
    strata across a systematic family of signatures."""
    import itertools
    checked = 0
    for n_zeros, max_sum in ((3, 8), (4, 6), (5, 4), (6, 2)):
        for zeros in itertools.combinations_with_replacement(
                range(0, max_sum + 1), n_zeros):
            if sum(zeros) > max_sum:
                continue
            mu = tuple(sorted(zeros, reverse=True)) + (-2 - sum(zeros),)
            spec = C(0, mu)
            d = dimension(spec).projectivized
            assert Evaluator()._expand_xi(spec, {}, d) == EV.xi_top(spec), mu
            checked += 1
    assert checked > 60
