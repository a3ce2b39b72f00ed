from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from math import factorial

import pytest

from stratacalc.exact import rational_str
from stratacalc.strata import ResiduePart, StratumSpec, dimension
from stratacalc.evaluate import Evaluator
from stratacalc import invariants as inv
from stratacalc import levelgraphs as lg
from stratacalc import tautring as tr
from oracles import (evaluate_generator, integrate_every_term, remove_residue_condition,
                     undegeneration_structures_unchecked)


EV = Evaluator()


def C(g, mu):
    return StratumSpec.connected(g, mu)


def find_cherry(spec):
    for g in lg.enumerate_LG1(spec):
        if g.n_vertices == 3 and len(g.edges) == 2:
            bottoms = [v for v in range(3) if g.levels[v] == -1]
            if len(bottoms) == 2:
                return g
    raise AssertionError("no cherry divisor found")


# ---------------------------------------------------------------------------
# xi relation
# ---------------------------------------------------------------------------

def test_xi_as_psi_single_pole():
    spec = C(0, (1, 1, 1, -5))
    cls = tr.xi_as_psi(spec, (0, 3))
    assert len(cls.terms) == 1  # no divisors with the pole below
    ((g, dec), coeff), = cls.terms.items()
    assert g.is_trivial() and coeff == -4


def test_xi_as_psi_913():
    k = 3
    spec = C(1, (k, 1, -k - 1))
    cls = tr.xi_as_psi(spec, (0, 2))
    # -k psi_pole - D3 (the unique divisor with the pole on lower level)
    boundary = [(g, c) for (g, dec), c in cls.terms.items()
                if not g.is_trivial()]
    assert len(boundary) == 1
    g, c = boundary[0]
    assert c == -1 and lg.prong_data(g).ell == 1
    psi_terms = [c for (g, dec), c in cls.terms.items() if g.is_trivial()]
    assert psi_terms == [-k]


def test_xi_as_psi_json_names_the_psi_leg():
    """The psi exponents of a term are keyed by the repr of their tag."""
    obj = tr.xi_as_psi(C(1, (3, 1, -4)), (0, 2)).to_json_obj()
    assert json.dumps(obj, sort_keys=True) == (
        '[{"classes": {}, "coeff": "-1", "graph": "(((-1, 0), (0, 1)), '
        '(((0, 0), 0), ((0, 1), 0), ((0, 2), 0)), ((1, 0, 1),))", "psi": {}}, '
        '{"classes": {}, "coeff": "-3", "graph": "(((0, 1),), '
        '(((0, 0), 0), ((0, 1), 0), ((0, 2), 0)), ())", '
        '"psi": {"(\'leg\', (0, 2))": 1}}]')


def test_integrate_skips_terms_below_the_top_degree():
    """xi^2 + xi on a stratum of dimension 2 integrates to xi-top, and the
    xi term is never evaluated: the boundary integrals that ``integrate``
    sums, in their integer-pair form, are of xi^2 alone."""
    spec = C(1, (3, 1, -4))
    ev = Evaluator()
    calls = []
    boundary_pair = ev._boundary_pair
    ev._boundary_pair = lambda *a: calls.append(a[3]) or boundary_pair(*a)
    cls = tr.TautClass.xi(spec, 2) + tr.TautClass.xi(spec)
    assert len(cls.terms) == 2
    assert tr.integrate(cls, ev) == EV.xi_top(spec) == Fraction(10, 3)
    assert calls == [{0: 2}]


def test_integrate_skips_terms_of_a_wrong_level_degree(monkeypatch):
    """On c_3 of genus 0 (3, 1, 1, 1, -3, -5), integrate skips every term
    whose degree on some level is not that level's dimension: the second
    call, on a warm evaluator, makes one boundary integral per level graph
    of a kept term, 352 in all, and splits no level to expand a lam, where
    integrating every top-degree term makes 636 boundary integrals and 236
    level splittings.  The value is the same.  Both count the integer-pair
    form that ``integrate`` and ``Evaluator.boundary_integral`` share."""
    spec = C(0, (3, 1, 1, 1, -3, -5))
    c3 = inv.chern_class_terms(spec, 3)
    ev = Evaluator()
    assert tr.integrate(c3, ev) == integrate_every_term(c3, ev) == 6
    counts = {"boundary_pair": 0, "level_splits": 0}

    def counting(name, f):
        return lambda *a: counts.__setitem__(name, counts[name] + 1) or f(*a)

    monkeypatch.setattr(ev, "_boundary_pair", counting("boundary_pair", ev._boundary_pair))
    monkeypatch.setattr(lg, "level_splits", counting("level_splits", lg.level_splits))
    assert tr.integrate(c3, ev) == 6
    assert counts == {"boundary_pair": 352, "level_splits": 0}
    assert integrate_every_term(c3, ev) == 6
    assert counts == {"boundary_pair": 352 + 636, "level_splits": 236}


def test_integrate_is_exact_on_coprime_fraction_coefficients():
    """integrate adds its terms as one integer pair and reduces once; it
    equals integrating every term on a class whose coefficients are
    Fractions of coprime denominators (xi^(d-2) times a normal bundle by
    the edge route, whose coefficients are -kappa/ell with ell = 2, plus
    terms scaled by 1/3 and -2/7), and is exactly 0 on a sum of such
    terms that cancels."""
    spec = C(0, (3, 1, 1, -1, -2, -4))
    d = dimension(spec).projectivized
    ev = Evaluator()
    g = next(g for g in lg.enumerate_LG1(spec)
             if g.levels.count(0) == 2 and sorted(k for *_, k in g.edges) == [1, 2])
    xi_d2 = tr.TautClass.xi(spec, d - 2)
    nb = tr.multiply(xi_d2, tr.normal_bundle_via_edge(spec, g, 0), ev)
    D_xi = tr.multiply(tr.TautClass.boundary(spec, g), tr.TautClass.xi(spec, d - 1), ev)
    parts = [tr.integrate(nb, ev), ev.xi_top(spec), tr.integrate(D_xi, ev)]
    assert parts == [Fraction(7, 2), -51, 3]
    cls = nb + tr.TautClass.xi(spec, d).scale(Fraction(1, 3)) + D_xi.scale(Fraction(-2, 7))
    assert Fraction(-1, 2) in cls.terms.values()
    value = tr.integrate(cls, ev)
    assert value == integrate_every_term(cls, ev)
    assert value == parts[0] + parts[1] / 3 - Fraction(2, 7) * parts[2] == Fraction(-201, 14)
    # the two normal-bundle routes, and xi against its psi form, cancel
    cancel = (tr.multiply(xi_d2, tr.normal_bundle(spec, g, 1)
                          - tr.normal_bundle_via_edge(spec, g, 1), ev).scale(Fraction(1, 7))
              + (tr.TautClass.xi(spec, d)
                 - tr.multiply(tr.TautClass.xi(spec, d - 1),
                               tr.xi_as_psi(spec, (0, 0)), ev)).scale(Fraction(1, 3)))
    assert cancel.terms
    assert tr.integrate(cancel, ev) == integrate_every_term(cancel, ev) == 0
    assert type(tr.integrate(cancel, ev)) is Fraction


def test_xi_consistency_through_relation():
    """Integrating xi^d via the class algebra equals the evaluator."""
    for g, mu in [(1, (2, 1, -3)), (0, (1, 1, -2, -2))]:
        spec = C(g, mu)
        d = dimension(spec).projectivized
        cls = tr.TautClass.boundary(spec, lg.trivial_graph(spec))
        for _ in range(d):
            cls = tr.multiply(cls, tr.TautClass.xi(spec), EV)
        assert tr.integrate(cls, EV) == EV.xi_top(spec)


# ---------------------------------------------------------------------------
# normal bundles
# ---------------------------------------------------------------------------

def test_cherry_normal_bundle_degree():
    spec = C(0, (1, 1, 2, 2, -8))
    cherry = find_cherry(spec)
    kappas = sorted(k for _, _, k in cherry.edges)
    assert kappas == [3, 5]
    # both intersection points carry cyclic stack structure ell/kappa_i
    nb = tr.normal_bundle(spec, cherry, 1)
    deg = tr.integrate(nb, EV)
    assert deg == Fraction(-1, 15)
    for ei in range(2):
        via = tr.normal_bundle_via_edge(spec, cherry, ei)
        assert tr.integrate(via, EV) == deg


def test_normal_bundle_routes_agree_on_all_divisors():
    spec = C(1, (5, 1, -6))
    for g in lg.enumerate_LG1(spec):
        base = tr.integrate(tr.normal_bundle(spec, g, 1), EV)
        for ei in range(len(g.edges)):
            assert tr.integrate(tr.normal_bundle_via_edge(spec, g, ei), EV) \
                == base, (g.edges, ei)


def test_single_edge_no_long_degeneration_is_pure_psi():
    spec = C(2, (2,))
    compact = next(g for g in lg.enumerate_LG1(spec)
                   if len(g.edges) == 1 and 0 not in g.genera)
    via = tr.normal_bundle_via_edge(spec, compact, 0)
    kinds = {s[0] for (g, dec), _ in via.terms.items() for s, _e in dec}
    assert kinds <= {"psi"}


def test_divisor_self_intersection_numbers():
    k = 5
    spec = C(1, (k, 1, -k - 1))
    for g in lg.enumerate_LG1(spec):
        kappas = sorted(kk for _, _, kk in g.edges)
        D = tr.TautClass.boundary(spec, g)
        val = tr.integrate(tr.multiply(D, D, EV), EV)
        if len(kappas) == 2 and sum(kappas) == k + 1:
            a = kappas[0]
            gg = math.gcd(a, k + 1 - a)
            ell = math.lcm(a, k + 1 - a)
            delta = Fraction(1, 2) if 2 * a == k + 1 else Fraction(1)
            assert val == -delta * k * gg / ell, ("D1", a)
        if len(kappas) == 2 and sum(kappas) == k:
            a = kappas[0]
            gg = math.gcd(a, k - a)
            ell = math.lcm(a, k - a)
            delta = Fraction(1, 2) if 2 * a == k else Fraction(1)
            assert val == -delta * (k + 1) * gg / ell, ("D5", a)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_disjoint_divisors_multiply_to_zero():
    spec = C(1, (3, 1, -4))
    graphs = lg.enumerate_LG1(spec)
    prods = {}
    for i, a in enumerate(graphs):
        for j, b in enumerate(graphs):
            if i < j:
                p = tr.multiply(tr.TautClass.boundary(spec, a),
                                tr.TautClass.boundary(spec, b), EV)
                prods[(i, j)] = p
    # some pairs meet, some do not; zero products exist and nonzero products
    # are supported on two-level-deeper graphs
    assert any(not p.terms for p in prods.values())
    for p in prods.values():
        for (g, dec), c in p.terms.items():
            assert g.n_levels_below == 2 and not dec


def test_h2_divisor_product_supported_on_lg2():
    spec = C(2, (2,))
    a, b = lg.enumerate_LG1(spec)
    prod = tr.multiply(tr.TautClass.boundary(spec, a),
                       tr.TautClass.boundary(spec, b), EV)
    (g, dec), coeff = next(iter(prod.terms.items()))
    assert g.n_levels_below == 2 and len(prod.terms) == 1
    assert coeff == 1


def test_coefficients_are_exact_at_the_boundary():
    """add_term and scale keep an int or a Fraction as it is and refuse
    anything else, bool included, rather than coerce it."""
    spec = C(2, (2,))
    triv = lg.trivial_graph(spec)
    one = tr.TautClass.boundary(spec, triv)
    for bad in (0.1, 1.0, True, False, "1/2", None):
        with pytest.raises(TypeError):
            one.scale(bad)
        with pytest.raises(TypeError):
            tr.TautClass(spec).add_term(triv, (), bad)
        with pytest.raises(TypeError):
            tr.TautClass(spec, {(triv, ()): bad})
    assert list(one.terms.values()) == [1] and type(one.terms[triv, ()]) is int
    for c in (3, Fraction(1, 10), Fraction(2)):
        (value,) = one.scale(c).terms.values()
        assert value == c and type(value) is type(c)
        cls = tr.TautClass(spec)
        cls.add_term(triv, (), c)
        cls.add_term(triv, (), c)
        assert cls.terms == {(triv, ()): 2 * c}
        assert type(cls.terms[triv, ()]) is type(c)
    assert not one.scale(0).terms
    assert not (one - one).terms


def test_multiply_rejects_mixed_ambient():
    a, b = (tr.TautClass.boundary(spec, lg.trivial_graph(spec))
            for spec in (C(2, (2,)), C(1, (0,))))
    with pytest.raises(ValueError):
        tr.multiply(a, b, EV)


def test_commutativity_and_associativity():
    spec = C(1, (4, 1, -5))
    rng = random.Random(17)
    divisors = [tr.TautClass.boundary(spec, g) for g in lg.enumerate_LG1(spec)]
    classes = divisors + [tr.TautClass.xi(spec)]
    for _ in range(6):
        a, b = rng.sample(classes, 2)
        ab = tr.multiply(a, b, EV)
        ba = tr.multiply(b, a, EV)
        assert not (ab - ba).terms
    for _ in range(4):
        a, b, c = rng.sample(classes, 3)
        lhs = tr.multiply(tr.multiply(a, b, EV), c, EV)
        rhs = tr.multiply(a, tr.multiply(b, c, EV), EV)
        diff = lhs - rhs
        assert not diff.terms or tr.integrate(diff, EV) == 0


def test_exponential_boundary_identity():
    """exp of the weighted boundary equals the graph sum with inverse Todd
    factors of the twisted normal bundles, degree by degree."""
    for g, mu in [(2, (2,)), (1, (2, 1, -3)), (0, (1, 1, 2, 2, -8))]:
        spec = C(g, mu)
        d = dimension(spec).projectivized
        lam = tr.TautClass(spec)
        lam.add_term(lg.trivial_graph(spec), tr._decor({("lam", 0): 1}), 1)
        lhs = tr.TautClass.boundary(spec, lg.trivial_graph(spec))
        power = tr.TautClass.boundary(spec, lg.trivial_graph(spec))
        for m in range(1, d + 1):
            power = tr.multiply(power, lam, EV)
            lhs = lhs + power.scale(Fraction(1, factorial(m)))
        lhs = tr._lam_normalize(lhs)
        rhs = tr.TautClass.boundary(spec, lg.trivial_graph(spec))
        for L in range(1, d + 1):
            for graph in lg.enumerate_LGL(spec, L):
                pd = lg.prong_data(graph)
                poly = tr.poly_one()
                for i in range(1, L + 1):
                    m = tr.poly_scale(tr.nu_poly(graph, i),
                                      pd.ell_levels[i - 1])
                    td_inv = {(): Fraction(1)}
                    mp = tr.poly_one()
                    for j in range(1, d - L + 1):
                        mp = tr.poly_mul(mp, m)
                        td_inv = tr.poly_add(
                            td_inv, tr.poly_scale(mp, Fraction(1, factorial(j + 1))))
                    poly = tr.poly_mul(poly, td_inv)
                for dec, c in poly.items():
                    rhs.add_term(graph, dec, c * pd.ell)
        rhs = tr._lam_normalize(rhs)
        assert not (lhs - rhs).terms, mu


# ---------------------------------------------------------------------------
# residue removal
# ---------------------------------------------------------------------------

def test_remove_residue_condition_codim_one():
    part = ResiduePart(frozenset({(0, 2)}), True)
    spec = StratumSpec.make([(0, (1, 1, -2, -2))], [({(0, 2)}, True)])
    cls = remove_residue_condition(spec, part)
    # [B^R] = -xi here: no boundary terms qualify
    assert tr.integrate(cls, EV) == 1
    assert len(cls.terms) == 1


def test_remove_residue_condition_redundant_part():
    part = ResiduePart(frozenset({(0, 2), (0, 3)}), True)
    spec = StratumSpec.make([(0, (1, 1, -2, -2))], [({(0, 2), (0, 3)}, True)])
    cls = remove_residue_condition(spec, part)
    ((g, dec), coeff), = cls.terms.items()
    assert g.is_trivial() and not dec and coeff == 1


def test_remove_residue_condition_matches_direct_evaluation():
    """Removal route for a genuinely constrained genus-0 spec agrees with
    the evaluator's dispatch."""
    spec = StratumSpec.make([(0, (2, 1, 1, -3, -3))], [({(0, 3)}, True)])
    d = dimension(spec).projectivized
    part = spec.constrained_parts()[0]
    cls = remove_residue_condition(spec, part)
    amb = spec.drop_part(part)
    xi = tr.TautClass.xi(amb, d)
    assert tr.integrate(tr.multiply(cls, xi, EV), EV) == EV.xi_top(spec)


def test_evaluate_generator_examples():
    spec = C(0, (1, 1, 1, 1, -6))
    triv = lg.trivial_graph(spec)
    val = evaluate_generator(spec, triv, {("leg", (0, 0)): 1, ("leg", (0, 1)): 1}, EV)
    assert val == 2
    with pytest.raises(ValueError):
        evaluate_generator(spec, triv, {("leg", (0, 0)): 1}, EV)


def test_normal_bundle_pullback_index_shifts():
    """Structural pullback coherence: the transfer of a scaled divisor
    normal bundle onto a one-step split, whose one passage of the divisor
    sits at the shifted passage, is the scaled normal bundle of the deeper
    graph there."""
    spec = C(1, (4, 1, -5))
    for g in lg.enumerate_LG1(spec):
        pd = lg.prong_data(g)
        nu_scaled = tr.poly_scale(tr.nu_poly(g, 1), pd.ell_levels[0])
        for lev, new_passage in ((0, 2), (-1, 1)):
            for cand, emap in lg.level_splits(g, spec, lev):
                pdc = lg.prong_data(cand)
                transferred = {}
                for dec, c in nu_scaled.items():
                    for dec2, c2 in tr._transfer(dec, cand, (new_passage,), emap).items():
                        transferred[dec2] = transferred.get(dec2, 0) + c * c2
                want = tr.poly_scale(tr.nu_poly(cand, new_passage),
                                     pdc.ell_levels[new_passage - 1])
                assert {k: v for k, v in transferred.items() if v} == want


def test_xi_restricts_to_top_level():
    """Multiplying a boundary class by the ambient xi decorates the graph
    with the top-level tautological class, and by psi at a marked point
    with that psi."""
    spec = C(2, (2,))
    for g in lg.enumerate_LG1(spec):
        prod = tr.multiply(tr.TautClass.boundary(spec, g),
                           tr.TautClass.xi(spec), EV)
        assert len(prod.terms) == 1
        (gg, dec), coeff = next(iter(prod.terms.items()))
        assert gg.n_levels_below == 1 and coeff == 1
        assert dec == ((("xi", 0), 1),)
        psi = tr._decor({("psi", ("leg", (0, 0))): 1})
        prod = tr.multiply(tr.TautClass.boundary(spec, g),
                           tr.TautClass.psi(spec, (0, 0)), EV)
        assert prod.terms == {tr.canonical_decorated(g, psi): 1}


@pytest.mark.parametrize("genus,orders,n_pairs", [
    (0, (1, 1, 1, 1, -3, -3), 28), (0, (2, 1, 1, 1, -1, -6), 32), (2, (2,), 6)])
def test_edge_route_normal_bundle_multiplies_from_either_side(genus, orders, n_pairs):
    """A divisor times an edge-route normal bundle (edge psi in the
    decoration) integrates alike with the normal bundle as either operand,
    for the first four divisors, every edge and the first four divisors
    again.  On genus 2 (2) the banana divisor has two isomorphisms with its
    fine graphs, so the second operand's edge psi is averaged over them."""
    spec = C(genus, orders)
    divs = lg.enumerate_LG1(spec)[:4]
    values = []
    for g in divs:
        for ei in range(len(g.edges)):
            nb = tr.normal_bundle_via_edge(spec, g, ei)
            for h in divs:
                D = tr.TautClass.boundary(spec, h)
                value = tr.integrate(tr.multiply(D, nb, EV), EV)
                assert value == tr.integrate(tr.multiply(nb, D, EV), EV), (g, ei, h)
                values.append(value)
    assert len(values) == n_pairs and any(values)


def test_deep_product_grouping_independence():
    """Products of two two-level-supported classes agree with iterated
    divisor peeling, on quadruples drawn from realized profiles."""
    spec = C(0, (1, 1, 1, 1, -2, -2, -2))
    g1 = lg.enumerate_LG1(spec)
    lg4 = lg.enumerate_LGL(spec, 4)
    seen = set()
    for g in lg4:
        p = lg.profile(g, spec)
        if p in seen or len(seen) >= 3:
            continue
        seen.add(p)
        divs = [tr.TautClass.boundary(spec, g1[i]) for i in p]
        ab = tr.multiply(divs[0], divs[1], EV)
        cd = tr.multiply(divs[2], divs[3], EV)
        lhs = tr.multiply(ab, cd, EV)
        rhs = tr.multiply(tr.multiply(ab, divs[2], EV), divs[3], EV)
        assert lhs.terms, p  # the chosen profile is realized
        assert not (lhs - rhs).terms, p


def test_multiply_walks_each_first_term_once(monkeypatch):
    """The degenerations of a lam-free term of the first operand are walked
    once, whatever the number of terms of the second; the product is the
    sum of the products with each term of the second operand."""
    spec = C(0, (2, 1, 1, -1, -5))
    c1 = inv.c1_log_cotangent(spec)
    first_terms = len(tr._lam_normalize(c1).terms)
    assert first_terms > 1  # and so has the second operand, the same class
    walks = []
    walk = tr._degenerations_of
    monkeypatch.setattr(tr, "_degenerations_of",
                        lambda *args: walks.append(args) or walk(*args))
    product = tr.multiply(c1, c1, EV)
    assert len(walks) == first_terms
    assert tr.integrate(product, EV) == 5
    total = tr.TautClass(spec)
    for key, c in c1.terms.items():
        total = total + tr.multiply(c1, tr.TautClass(spec, {key: c}), EV)
    assert total.terms == product.terms


def test_canonical_decorated_relabel_roundtrip():
    """Decorated canonical forms are invariant under edge reordering, and
    decorations on interchangeable parallel edges are identified."""
    spec = C(2, (2,))
    banana = next(g for g in lg.enumerate_LG1(spec) if len(g.edges) == 2)
    a = tr.canonical_decorated(banana, tr._decor({("psi", ("ein", 0)): 1}))
    b = tr.canonical_decorated(banana, tr._decor({("psi", ("ein", 1)): 1}))
    assert a == b
    swapped = lg.LevelGraph(banana.genera, banana.levels, banana.legs,
                            (banana.edges[1], banana.edges[0]))
    c = tr.canonical_decorated(swapped, tr._decor({("psi", ("ein", 0)): 1}))
    assert c == a


# Integrals of psi^(d-L) at one edge half-point, over every graph with
# 2 <= L < d levels below zero, every edge and both half-points, in the order
# of enumerate_LGL and the edge indices: (terms, non-zero terms, sum, sha256
# of the space-separated values).  Recorded before the boundary integral was
# merged into Evaluator.boundary_integral; never re-record a pin to absorb a
# change.
EDGE_PSI_PINS = {
    (0, (1, 1, 1, 1, 1, -7)): (970, 190, "1055/6",
        "3a03ca2b1c92c4d2b5dba2ef31a42631da45688a298c29db3fbf693480b8de99"),
    (0, (2, 1, 1, 1, -3, -4)): (650, 146, "259/2",
        "d43fbcc8742a73985eeb40f3b77dbc5e8b5dd118518eb9ffb717e1e2a8641c0c"),
    (1, (3, 1, 1, -5)): (340, 101, "5533/72",
        "f3ac3a7f8029506cc87e13eb30812acd72be2fc630fd270a0eb06de247757ac0"),
}


@pytest.mark.parametrize("genus,orders", sorted(EDGE_PSI_PINS))
def test_edge_half_point_psi_integrals_are_pinned(genus, orders):
    spec = C(genus, orders)
    d = dimension(spec).projectivized
    ev = Evaluator()
    vals = [tr.integrate(tr.TautClass(spec, {(g, tr._decor({("psi", (side, ei)): d - L})): 1}), ev)
            for L in range(2, d)
            for g in lg.enumerate_LGL(spec, L)
            for ei in range(len(g.edges))
            for side in ("ein", "eout")]
    text = " ".join(rational_str(v) for v in vals)
    assert (len(vals), sum(1 for v in vals if v), rational_str(sum(vals)),
            hashlib.sha256(text.encode()).hexdigest()) == EDGE_PSI_PINS[genus, orders]


PRODUCT_STRATA = [(0, (1, 1, 1, 1, -3, -3)), (0, (2, 1, 1, 1, -1, -6)),
                  (1, (4, 1, -5)), (2, (2,))]


def _divisor_lam_integrals(genus, orders):
    """integrate of lam_{-1}^{d-1}, lam_{-1}^{d-2} xi_{-1} (where d >= 3) and
    lam_0^{d-1} on each divisor, in the order of enumerate_LG1."""
    spec = C(genus, orders)
    d = dimension(spec).projectivized
    decors = [{("lam", -1): d - 1}] + ([{("lam", -1): d - 2, ("xi", -1): 1}] if d >= 3 else [])
    ev = Evaluator()
    return [tr.integrate(tr.TautClass(spec, {(g, tr._decor(dec)): 1}), ev)
            for g in lg.enumerate_LG1(spec)
            for dec in decors + [{("lam", 0): d - 1}]]


# (terms, non-zero terms, sum, sha256 of the space-separated values) of
# _divisor_lam_integrals, recorded before the decoration transfers were
# merged into one.  A lam on a divisor's bottom level is restricted on the
# splits of that level; moving it there instead changes the genus-0 values.
# Never re-record a pin to absorb a change.
LAM_PINS = {
    (0, (1, 1, 1, 1, -3, -3)): (102, 24, "759",
        "c6c70a12dbcb3728f7f865a0a9132ceac1511b9646aeff3aa8db6deef0652397"),
    (0, (2, 1, 1, 1, -1, -6)): (150, 40, "2611",
        "ceb6c7296a3d4b3c850deb9b2acefc1cb26d0e08901805a7780a3d8e586e5b27"),
    (1, (4, 1, -5)): (14, 6, "51",
        "f402ed33861102a52de32fdc2417ae811d318c078962e18cdea719e9b5d61549"),
    (2, (2,)): (6, 1, "-1/48",
        "33c4097592633637a7f4d81be6c127f56404e0e777cc22bcefb2977487154060"),
}


@pytest.mark.parametrize("genus,orders", PRODUCT_STRATA)
def test_lam_on_a_divisor_integrals_are_pinned(genus, orders):
    vals = _divisor_lam_integrals(genus, orders)
    text = " ".join(rational_str(v) for v in vals)
    assert (len(vals), sum(1 for v in vals if v), rational_str(sum(vals)),
            hashlib.sha256(text.encode()).hexdigest()) == LAM_PINS[genus, orders]


@pytest.mark.parametrize("genus,orders", PRODUCT_STRATA)
def test_integrate_of_products_matches_every_term_integration(genus, orders):
    """D^d of every divisor, D_a.D_b.xi^(d-2) of every pair of divisors and
    xi^(d-2).N_D through both normal-bundle routes, whose terms carry lam
    inside the normal bundles and psi at edge half-points, integrate to the
    values that integrating every top-degree term gives."""
    spec = C(genus, orders)
    d = dimension(spec).projectivized
    divisors = lg.enumerate_LG1(spec)
    xi = tr.TautClass.xi(spec, d - 2)
    classes = []
    for g in divisors:
        power = D = tr.TautClass.boundary(spec, g)
        for _ in range(d - 1):
            power = tr.multiply(power, D)
        classes.append(power)
        classes.append(tr.multiply(xi, tr.normal_bundle(spec, g, 1)))
        classes += [tr.multiply(xi, tr.normal_bundle_via_edge(spec, g, ei))
                    for ei in range(len(g.edges))]
    for a, b in itertools.combinations_with_replacement(divisors, 2):
        classes.append(tr.multiply(tr.multiply(tr.TautClass.boundary(spec, a),
                                               tr.TautClass.boundary(spec, b)), xi))
    values = [tr.integrate(cls, EV) for cls in classes]
    assert any(values)
    assert values == [integrate_every_term(cls, EV) for cls in classes]


@pytest.mark.parametrize("genus,orders", PRODUCT_STRATA)
def test_two_one_step_transfers_are_one_transfer(genus, orders):
    """Every entry one and two splits deep in the walk of a divisor
    decorated with xi on both levels and psi at the zero end of edge 0
    carries, up to decorated isomorphism, the decoration transferred at
    once through the divisor's passages, under one of the isomorphisms of
    its undegeneration with the divisor.  (Only the genus-0 strata have
    graphs three levels deep.)"""
    spec = C(genus, orders)
    decor = tr._decor({("xi", 0): 1, ("xi", -1): 1, ("psi", ("eout", 0)): 1})
    entries = 0
    for g in lg.enumerate_LG1(spec):
        for layer in tr._degenerations_of(spec, g, decor, 2)[1:]:
            for fine, dd, i1 in layer:
                once = {tr.canonical_decorated(fine, d)
                        for ecorr in tr._undegeneration_structures(fine, i1, g)
                        for d in tr._transfer(decor, fine, i1, ecorr)}
                assert tr.canonical_decorated(fine, dd) in once, (g, fine, i1)
                entries += 1
    assert entries


# two strata of the products workload, genus 0 with one pole and genus 1
# (k, 1, -k-1): (divisor pairs D_a.D_b to multiply, None for all of them)
UNDEGENERATION_STRATA = {(0, (2, 1, 1, 1, 1, -8)): 60, (1, (7, 1, -8)): None}


def _leg_and_edge_levels(g: lg.LevelGraph) -> tuple[list, list]:
    return (sorted((pt, g.levels[v]) for pt, v in g.legs),
            sorted((g.levels[u], g.levels[v], k) for u, v, k in g.edges))


@pytest.mark.parametrize("genus,orders", UNDEGENERATION_STRATA)
def test_undegeneration_structures_are_the_unchecked_contraction(genus, orders, monkeypatch):
    """On every call that ``multiply`` makes for D^d of each divisor and for
    D_a.D_b, ``_undegeneration_structures`` returns what contracting and
    ``graph_isomorphisms`` return, and contracts exactly when the
    contraction's leg levels and sorted (upper level, lower level, kappa)
    edges are those of the coarse graph.  Several calls differ from the
    coarse graph in kappa alone."""
    spec = C(genus, orders)
    d = dimension(spec).projectivized
    divisors = lg.enumerate_LG1(spec)
    pairs = [(a, b) for a in divisors for b in divisors]
    if UNDEGENERATION_STRATA[genus, orders] is not None:
        pairs = random.Random(45).sample(pairs, UNDEGENERATION_STRATA[genus, orders])
    contractions = []
    undegenerate = lg.undegenerate
    monkeypatch.setattr(lg, "undegenerate",
                        lambda g, passages: contractions.append(g) or undegenerate(g, passages))
    calls = []
    structures = tr._undegeneration_structures

    def recording(fine, passages, coarse):
        before = len(contractions)
        out = structures(fine, passages, coarse)
        calls.append((fine, passages, coarse, out, len(contractions) > before))
        return out

    monkeypatch.setattr(tr, "_undegeneration_structures", recording)
    for g in divisors:
        power = D = tr.TautClass.boundary(spec, g)
        for _ in range(d - 1):
            power = tr.multiply(power, D)
    for a, b in pairs:
        tr.multiply(tr.TautClass.boundary(spec, a), tr.TautClass.boundary(spec, b))
    monkeypatch.undo()
    kappa_only = 0
    for fine, passages, coarse, out, contracted in calls:
        assert out == undegeneration_structures_unchecked(fine, passages, coarse)
        legs, edges = _leg_and_edge_levels(lg.undegenerate(fine, passages)[0])
        coarse_legs, coarse_edges = _leg_and_edge_levels(coarse)
        assert contracted == (legs == coarse_legs and edges == coarse_edges)
        kappa_only += legs == coarse_legs and edges != coarse_edges and \
            [e[:2] for e in edges] == [e[:2] for e in coarse_edges]
    assert any(out for *_, out, _ in calls) and kappa_only
