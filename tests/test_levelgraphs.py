from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

from stratacalc.strata import ResiduePart, StratumSpec, dimension, validate
from stratacalc import caches, cli
from stratacalc import levelgraphs as lg


H2 = StratumSpec.connected(2, (2,))


def family_13(k: int) -> StratumSpec:
    return StratumSpec.connected(1, (k, 1, -k - 1))


def pair_spec(residue_conditions: bool = True) -> StratumSpec:
    """Two genus-0 components whose first two poles are paired by residue
    conditions; without them, the unconstrained twin."""
    return StratumSpec.make(
        [(0, (-2, -2, 2)), (0, (-2, -2, 1, 1))],
        [({(0, 0), (1, 0)}, True), ({(0, 1), (1, 1)}, True)]
        if residue_conditions else [])


# ---------------------------------------------------------------------------
# enumeration counts
# ---------------------------------------------------------------------------

def test_minimal_genus2_counts():
    assert len(lg.enumerate_LG1(H2)) == 2
    assert len(lg.enumerate_LGL(H2, 2)) == 1
    assert lg.enumerate_LGL(H2, 3) == ()  # codimension bound


def test_pair_spec_divisors():
    spec = pair_spec()
    graphs = lg.enumerate_LG1(spec)
    edgeless = [g for g in graphs if not g.edges]
    # the residue conditions allow exactly one component-exchange divisor,
    # the one with the four-marked component on top
    assert len(edgeless) == 1
    g = edgeless[0]
    top_pts = [pt for pt, v in g.legs if g.levels[v] == 0]
    assert {pt[0] for pt in top_pts} == {1}
    # the inverted graph is rejected by the zero-residue obstruction on the
    # (-2,-2,2)-component; a zero-collision degeneration remains realizable
    assert len(graphs) == 2


def test_913_divisor_inventory_k5():
    k = 5
    spec = family_13(k)
    graphs = lg.enumerate_LG1(spec)
    inventory = Counter()
    ells = {}
    ntops = {}
    for g in graphs:
        pd = lg.prong_data(g)
        kappas = sorted(kk for _, _, kk in g.edges)
        top, _ = lg.level_stratum(g, spec, 0)
        ntop = dimension(top).unprojectivized
        if len(kappas) == 2 and sum(kappas) == k + 1:
            name = "D1"
        elif len(kappas) == 2 and sum(kappas) == k:
            name = "D5"
        elif kappas == [k + 2]:
            name = "D2"
        elif kappas == [1]:
            name = "D3"
        elif kappas == [k - 1]:
            name = "D4"
        else:
            name = "??"
        inventory[name] += 1
        ells.setdefault(name, set()).add(pd.ell)
        ntops.setdefault(name, set()).add(ntop)
    # a <-> k+1-a and a' <-> k-a' identified: 3 + 1 + 1 + 1 + 2 divisors
    assert inventory == {"D1": 3, "D2": 1, "D3": 1, "D4": 1, "D5": 2}
    assert ells["D1"] == {math.lcm(a, k + 1 - a) for a in (1, 2, 3)}
    assert ells["D2"] == {k + 2}
    assert ells["D3"] == {1}
    assert ells["D4"] == {k - 1}
    assert ells["D5"] == {math.lcm(a, k - a) for a in (1, 2)}
    assert (ntops["D1"], ntops["D2"], ntops["D3"], ntops["D4"], ntops["D5"]) \
        == ({1}, {2}, {2}, {1}, {2})


def every_level_enumeration(spec: StratumSpec) -> list[list[tuple]]:
    """The canonical encodings per L of the enumeration that splits every
    level of every (L-1)-level graph and keeps a class once some labelled
    candidate of it is realizable: the reference for the bottom-level
    splits of ``enumerate_LGL``."""
    layers = [[lg.canonicalize(lg.trivial_graph(spec))]]
    for _ in range(dimension(spec).projectivized):
        found: dict[tuple, lg.LevelGraph] = {}
        for g in layers[-1]:
            for lev in range(0, -g.n_levels_below - 1, -1):
                for cand, _ in lg._split_candidates(g, spec, lev):
                    enc = lg.canonical_encoding(cand)
                    if enc not in found and not lg.realizability_issues(cand, spec):
                        found[enc] = lg.canonicalize(cand)
        layers.append([found[k] for k in sorted(found)])
    return [[lg.canonical_encoding(g) for g in layer] for layer in layers]


def assert_bottom_splits_enumerate_every_class(spec: StratumSpec) -> None:
    caches.clear()
    got = [[lg.canonical_encoding(g) for g in lg.enumerate_LGL(spec, L)]
           for L in range(dimension(spec).projectivized + 1)]
    caches.clear()
    assert got == every_level_enumeration(spec), spec


@pytest.mark.parametrize("spec", [
    StratumSpec.connected(0, (2, 1, 1, 1, -3, -4)),
    StratumSpec.connected(0, (3, 1, 1, -1, -2, -4)),
    family_13(5), StratumSpec.connected(2, (2, 2, -2)),
    pair_spec(), pair_spec(residue_conditions=False)])
def test_bottom_splits_enumerate_every_class(spec):
    assert_bottom_splits_enumerate_every_class(spec)


def test_bottom_splits_enumerate_every_class_property():
    """Random genus-0 strata with four or five points and the genus-1
    family (k, 1, -k-1), k <= 8.  Skipped where hypothesis is not
    installed."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def genus0(draw):
        n = draw(st.sampled_from((4, 5)))
        orders = draw(st.lists(st.integers(-5, 4).filter(bool),
                               min_size=n - 1, max_size=n - 1))
        orders.append(-2 - sum(orders))
        hyp.assume(-6 <= orders[-1] <= 5 and orders[-1])
        spec = StratumSpec.connected(0, tuple(sorted(orders, reverse=True)))
        hyp.assume(not validate(spec) and dimension(spec).projectivized >= 1)
        return spec

    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(st.one_of(genus0(), st.integers(1, 8).map(family_13)))
    def check(spec):
        assert_bottom_splits_enumerate_every_class(spec)

    check()


def test_enumeration_judges_the_graphs_it_returns():
    """The verdict runs on the canonical graph that enumeration returns, so
    the level strata and level dimensions it builds are the ones that the
    callers of the returned graphs read: reading them all again builds
    nothing."""
    spec = StratumSpec.connected(0, (2, 1, 1, 1, -3, -4))
    caches.clear()
    graphs = [g for L in range(dimension(spec).projectivized + 1)
              for g in lg.enumerate_LGL(spec, L)]
    before = caches.stats()
    for g in graphs:
        lg.level_dims(g, spec)
    after = caches.stats()
    for name in ("levelgraphs.level_strata", "strata.dimension"):
        assert after[name] == before[name], name


def reference_level_stratum(g: lg.LevelGraph, spec: StratumSpec, lev: int):
    """One level stratum built on its own: the per-level construction that
    the level-strata record replaced."""
    verts = g.vertices_at(lev)
    comps, positions = [], {}
    for cj, v in enumerate(verts):
        points = lg._half_edges(g, spec, v)
        for pj, (tag, _) in enumerate(points):
            positions[tag] = (cj, pj)
        comps.append((g.genera[v], tuple(o for _, o in points)))
    parts = tuple(ResiduePart(frozenset(positions[t] for t in cond), True)
                  for cond in lg.induced_conditions(g, spec).get(lev, ()))
    return StratumSpec(tuple(comps), parts), positions


RECORD_SPECS = [StratumSpec.connected(0, (2, 1, 1, 1, -3, -4)), family_13(5),
                StratumSpec.connected(2, (2, 2, -2)), pair_spec(), pair_spec(False)]


@pytest.mark.parametrize("spec", RECORD_SPECS,
                         ids=["g0_n6", "g1_5_1_m6", "g2_2_2_m2", "pair", "pair_free"])
def test_level_strata_record_matches_the_per_level_build(spec):
    for L in range(dimension(spec).projectivized + 1):
        for g in lg.enumerate_LGL(spec, L):
            record = lg.level_strata(g, spec)
            assert len(record) == L + 1
            for i, sub in enumerate(record):
                ref = reference_level_stratum(g, spec, -i)
                assert sub == ref[0]
                assert lg.level_stratum(g, spec, -i) == ref
            for lev in (1, -L - 1):
                with pytest.raises(ValueError):
                    lg.level_stratum(g, spec, lev)


def test_equal_level_specs_are_one_object():
    """Equal level specs of different graphs are kept once, so a record
    holds references and not copies."""
    spec = StratumSpec.connected(0, (2, 1, 1, 1, -3, -4))
    caches.clear()
    subs = [sub for L in range(dimension(spec).projectivized + 1)
            for g in lg.enumerate_LGL(spec, L) for sub in lg.level_strata(g, spec)]
    assert len(set(subs)) < len(subs)
    assert len({id(sub) for sub in subs}) == len(set(subs))


def test_warm_cli_requests_build_no_level_stratum(monkeypatch, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(StratumSpec.connected(0, (2, 1, 1, -2, -4)).to_json())
    builds = []
    build = lg._build_level_strata

    def counted(g, spec):
        builds.append(g)
        return build(g, spec)

    monkeypatch.setattr(lg, "_build_level_strata", counted)
    for cmd in ("chi", "divisors"):
        caches.clear()
        builds.clear()
        argv = [cmd, "--spec", str(path), "--json"]
        assert cli.run(argv) == 0
        cold = len(builds)
        assert cold
        assert cli.run(argv) == 0
        assert len(builds) == cold, cmd
    capsys.readouterr()


def test_enumeration_invariants_hold():
    spec = family_13(3)
    total = dimension(spec).unprojectivized
    for L in (1, 2):
        for g in lg.enumerate_LGL(spec, L):
            assert not lg.realizability_issues(g, spec)
            dims = lg.level_dims(g, spec)
            assert sum(n for _, n in dims) == total
            assert all(d >= 0 for d, _ in dims)


# ---------------------------------------------------------------------------
# prong data
# ---------------------------------------------------------------------------

def triangle(a: int, b: int, c: int) -> lg.LevelGraph:
    """Three vertices on three levels; enhancements a (levels 0/-1),
    b (0/-2, the long edge) and c (-1/-2)."""
    legs = (((0, 0), 0),)
    return lg.LevelGraph((0, 0, 0), (0, -1, -2), legs,
                         ((0, 1, a), (0, 2, b), (1, 2, c)))


def test_triangle_twist_index():
    for a, b, c in [(2, 4, 6), (1, 1, 1), (3, 5, 7)]:
        pd = lg.prong_data(triangle(a, b, c))
        expected = math.gcd(a, math.gcd(b, c)) * math.lcm(a, b) * \
            math.lcm(b, c) // (a * b * c)
        assert pd.twist_index == expected
        assert pd.orbits == math.gcd(a, math.gcd(b, c))


def test_divisor_prong_examples():
    g = lg.LevelGraph((0, 0), (0, -1), (((0, 0), 1),),
                      ((0, 1, 2), (0, 1, 4)))
    pd = lg.prong_data(g)
    assert (pd.kappa_product, pd.ell, pd.orbits, pd.twist_index) == (8, 4, 2, 1)
    g = lg.LevelGraph((0, 0), (0, -1), (((0, 0), 1),), ((0, 1, 5),))
    pd = lg.prong_data(g)
    assert (pd.kappa_product, pd.ell, pd.orbits, pd.twist_index) == (5, 5, 1, 1)


def test_automorphism_examples():
    assert lg.automorphism_order(triangle(2, 3, 4)) == 1
    banana = lg.LevelGraph((0, 1), (-1, 0), (((0, 0), 0),),
                           ((1, 0, 1), (1, 0, 1)))
    assert lg.automorphism_order(banana) == 2
    distinct = lg.LevelGraph((0, 1), (-1, 0), (((0, 0), 0),),
                             ((1, 0, 1), (1, 0, 3)))
    assert lg.automorphism_order(distinct) == 1


# ---------------------------------------------------------------------------
# undegeneration
# ---------------------------------------------------------------------------

def test_undegenerate_identities():
    spec = H2
    for g in lg.enumerate_LGL(spec, 2):
        L = g.n_levels_below
        assert lg.undegenerate(g, range(1, L + 1)) == lg.canonicalize(g)
        triv = lg.undegenerate(g, [])
        assert triv.n_levels_below == 0
        assert triv == lg.canonicalize(lg.trivial_graph(spec))


def test_triangle_undegenerations():
    t = triangle(2, 4, 6)
    d1 = lg.delta(t, 1)
    d2 = lg.delta(t, 2)
    assert d1.n_levels_below == d2.n_levels_below == 1
    # contracting passage 2 merges the bottom pair, leaving edges a and b
    assert sorted(k for _, _, k in d1.edges) == [2, 4]
    assert sorted(k for _, _, k in d2.edges) == [4, 6]


def test_delta_composition_coherence():
    spec = StratumSpec.connected(0, (1, 1, 2, 2, -8))
    for g in lg.enumerate_LGL(spec, 2):
        # delta_i(g) == delta_1(undegenerate(g, {i, ...})) style coherence
        assert lg.delta(g, 1) == lg.undegenerate(g, [1])
        assert lg.delta(g, 2) == lg.undegenerate(g, [2])


def test_splits_section_property():
    """Splitting a level and then contracting the new passage returns the
    original graph."""
    spec = family_13(3)
    for g in lg.enumerate_LG1(spec):
        for lev in (0, -1):
            for cand, _ in lg.split_level_decorated(g, spec, lev):
                back = lg.undegenerate(cand, [i for i in (1, 2)
                                              if i != -lev + 1])
                assert back == lg.canonicalize(g)


def test_leg_assignments_are_the_product_filtered_by_the_bounds():
    """The pruned search yields exactly the assignments of
    itertools.product(range(V), repeat=n), in that order, whose leg sums
    meet the bounds of a split."""
    for genus, orders in [(0, (3, 1, 1, -1, -2, -4)), (0, (1, 1, -2, -2, -2, 2)),
                          (1, (3, 1, -4)), (2, (4, -2, 0)), (2, (1, 1))]:
        for V in range(2, len(orders) + 2 * genus - 1):
            for t in range(1, V):
                for gvec in lg._genus_vectors_up_to(genus, V):
                    E = genus - sum(gvec) + V - 1
                    want = []
                    for assign in itertools.product(range(V), repeat=len(orders)):
                        legsum = [0] * V
                        for li, slot in enumerate(assign):
                            legsum[slot] += orders[li]
                        if all(legsum[i] <= 2 * gvec[i] - 2 for i in range(t)) \
                                and all(legsum[i] >= 2 * gvec[i] for i in range(t, V)) \
                                and sum(legsum[t:]) + 2 * (V - t) \
                                - 2 * sum(gvec[t:]) >= 2 * E:
                            want.append(assign)
                    assert lg._leg_assignments(orders, t, gvec, E) == want


# ---------------------------------------------------------------------------
# profiles and level dimensions
# ---------------------------------------------------------------------------

def test_profiles_no_repeats_and_unique_order():
    for spec in (H2, family_13(4), StratumSpec.connected(0, (1, 1, 2, 2, -8))):
        lg.profile_order_check(spec)
        assert lg.profile(lg.canonicalize(lg.trivial_graph(spec)), spec) == ()


def test_dimension_merging():
    """Level dimensions of delta_k are block sums of the fine dimensions."""
    for spec in (H2, family_13(3), StratumSpec.connected(0, (1, 1, 1, 1, -6))):
        d = dimension(spec).projectivized
        for L in range(2, d + 1):
            for g in lg.enumerate_LGL(spec, L):
                fine = lg.dimension_profile(g, spec)
                for k in range(1, L + 1):
                    coarse = lg.dimension_profile(lg.delta(g, k), spec)
                    assert coarse[0] == k - 1 + sum(fine[:k])
                    assert coarse[1] == L - k + sum(fine[k:])


def test_913_divisor_level_dims():
    k = 4
    spec = family_13(k)
    for g in lg.enumerate_LG1(spec):
        kappas = sorted(kk for _, _, kk in g.edges)
        if len(kappas) == 2 and sum(kappas) == k + 1:
            assert lg.dimension_profile(g, spec) == [0, 1]


# ---------------------------------------------------------------------------
# labeled degeneration counting
# ---------------------------------------------------------------------------

def _labeled_split_classes(g, spec, lev):
    """Distinct labeled splittings of a level, grouped by the isomorphism
    class of the resulting graph."""
    from stratacalc.tautring import canonical_decorated, _decor
    labeled: dict = {}
    for cand, emap in lg.split_level_decorated(g, spec, lev):
        # pin every surviving old edge with a unique marker exponent
        marks = {("psi", ("ein", emap[ei])): 1000 + ei for ei in emap}
        lab_key = canonical_decorated(cand, _decor(marks))
        if lab_key not in labeled:
            labeled[lab_key] = cand
    groups = Counter()
    reps = {}
    for cand in labeled.values():
        enc = lg.canonical_encoding(cand)
        groups[enc] += 1
        reps[enc] = cand
    return groups, reps


def _split_graph_aut(g, spec, lev, cand, emap_unused=None):
    """automorphism order of the two-level graph the splitting defines over
    the labeled level stratum."""
    # vertices of cand at levels lev, lev-1 with all their attachments
    verts = [v for v in range(cand.n_vertices)
             if cand.levels[v] in (lev, lev - 1)]
    pos = {v: i for i, v in enumerate(verts)}
    genera = tuple(cand.genera[v] for v in verts)
    levels = tuple(0 if cand.levels[v] == lev else -1 for v in verts)
    legs = []
    counter = 0
    edges = []
    for pt, v in cand.legs:
        if v in pos:
            legs.append(((0, counter), pos[v]))
            counter += 1
    for ei, (u, v, k) in enumerate(cand.edges):
        iu, iv = u in pos, v in pos
        if iu and iv and cand.levels[u] == lev and cand.levels[v] == lev - 1:
            edges.append((pos[u], pos[v], k))
        else:
            # edge ends inside the pair of levels are marked points
            if iu and cand.levels[u] in (lev, lev - 1):
                legs.append(((1, ei), pos[u]))
            if iv and cand.levels[v] in (lev, lev - 1):
                legs.append(((2, ei), pos[v]))
    two = lg.LevelGraph(genera, levels, tuple(sorted(legs)), tuple(edges))
    return lg.automorphism_order(two)


def test_labeled_degeneration_count():
    """|J| * |Aut(merged)| == |Aut(split-as-two-level)| * |Aut(Gamma)| for
    every one-step degeneration of the acceptance strata divisors."""
    for spec in (H2, family_13(3)):
        for g in lg.enumerate_LG1(spec):
            for lev in (0, -1):
                groups, reps = _labeled_split_classes(g, spec, lev)
                for enc, count in groups.items():
                    cand = reps[enc]
                    aut_merged = lg.automorphism_order(cand)
                    aut_two = _split_graph_aut(g, spec, lev, cand)
                    assert count * aut_merged == \
                        aut_two * lg.automorphism_order(g), (spec, lev, enc)


def test_graph_report_shape():
    rep = lg.graph_report(lg.enumerate_LG1(H2)[0], H2)
    assert set(rep) == {"vertices", "legs", "edges", "prongs", "profile",
                        "levels"}
    assert rep["prongs"]["ell"] >= 1
