from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from collections import Counter

import pytest

from stratacalc.strata import ResiduePart, SpecError, StratumSpec, _eliminate, dimension, validate
from stratacalc import caches, cli
from stratacalc import levelgraphs as lg
from stratacalc.exact import orbit_count
from oracles import (orbit_count_bfs, realizability_verdict, record_realizability_issues,
                     structural_issues)


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


def reversed_graph(g: lg.LevelGraph) -> lg.LevelGraph:
    """g with its vertices and its edges numbered in reverse."""
    top = g.n_vertices - 1
    return lg.LevelGraph(g.genera[::-1], g.levels[::-1],
                         tuple((pt, top - v) for pt, v in g.legs),
                         tuple((top - u, top - v, k) for u, v, k in g.edges[::-1]))


def reversed_pair_spec() -> StratumSpec:
    """``pair_spec`` with its two constrained parts listed in reverse
    order: the same stratum under another key."""
    spec = pair_spec()
    return StratumSpec(spec.components, spec.residue_parts[::-1])


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


def reference_split_candidates(g: lg.LevelGraph, spec: StratumSpec, lev: int):
    """The every-level split search that ``level_splits`` replaced, kept as
    its reference: every assembled one-step degeneration splitting the
    given level, realizable or not, each with the map from old edge
    indices to new edge indices.

    Each vertex at the level is placed by one split of its points
    (``reference_half_edges``): a (tops, bots, new edges) triple from
    ``_piece_splits_by_orders`` with leg indices read as tags, or the
    whole vertex on top, ``((genus, all tags),), (), ()``, or at the
    bottom, ``(), ((genus, all tags),), ()``.  A choice of one split per
    vertex is kept when something lands on each side.  New vertices that
    can be interchanged come in every order of their slots, so one
    labelled splitting may come several times."""
    options: list[list[tuple]] = []
    for v in g.vertices_at(lev):
        points = reference_half_edges(g, spec, v)
        tags = tuple(tag for tag, _ in points)
        whole = ((g.genera[v], tags),)
        opts = [(whole, (), ()), ((), whole, ())]
        for split in lg._piece_splits_by_orders(g.genera[v], tuple(o for _, o in points)):
            tops, bots = (tuple((gv, tuple(tags[li] for li in lis)) for gv, lis in side)
                          for side in split[:2])
            opts.append((tops, bots, split[2]))
        options.append(opts)

    for choice in itertools.product(*options):
        if any(tops for tops, _, _ in choice) and any(bots for _, bots, _ in choice):
            cand = reference_assemble_split(g, lev, choice)
            if cand is not None:
                yield cand


def reference_assemble_split(g: lg.LevelGraph, lev: int, choice):
    """The graph of one choice of ``reference_split_candidates`` with its
    edge map, or None when an old edge no longer descends.  The vertices
    off the level come first in their order, then per choice its tops and
    its bottoms; the choices' new edges come before the old edges."""
    genera: list[int] = []
    levels: list[int] = []
    legs: dict = {}
    tag_vertex: dict = {}
    new_edges: list[tuple[int, int, int]] = []

    old_to_new: dict[int, int] = {}
    for v in range(g.n_vertices):
        if g.levels[v] != lev:
            old_to_new[v] = len(genera)
            genera.append(g.genera[v])
            # levels above stay, levels below shift down by one
            levels.append(g.levels[v] if g.levels[v] > lev else g.levels[v] - 1)
    for pt, v in g.legs:
        if v in old_to_new:
            legs[pt] = old_to_new[v]

    for tops, bots, sedges in choice:
        base_top = len(genera)
        base_bot = base_top + len(tops)
        for gv, tags in tops + bots:
            nv = len(genera)
            genera.append(gv)
            levels.append(lev if nv < base_bot else lev - 1)
            for tag in tags:
                if tag[0] == "leg":
                    legs[tag[1]] = nv
                else:
                    tag_vertex[tag] = nv
        for (ti, bi, k) in sedges:
            new_edges.append((base_top + ti, base_bot + bi, k))

    edge_map: dict[int, int] = {}
    for ei, (u, w, k) in enumerate(g.edges):
        nu = old_to_new[u] if u in old_to_new else tag_vertex[("eout", ei)]
        nw = old_to_new[w] if w in old_to_new else tag_vertex[("ein", ei)]
        edge_map[ei] = len(new_edges)
        new_edges.append((nu, nw, k))

    cand = lg.LevelGraph(tuple(genera), tuple(levels),
                         tuple(sorted(legs.items())), tuple(new_edges))
    if any(cand.levels[u] <= cand.levels[v] for (u, v, _) in cand.edges):
        return None
    return cand, edge_map


def labelled_key(cand: lg.LevelGraph, emap: dict[int, int]):
    """A labelled splitting up to isomorphism: the canonical form of the
    split graph with every old edge pinned by its index."""
    labels = [(0,)] * len(cand.edges)
    for old, new in emap.items():
        labels[new] = (old + 1,)
    return lg.canonicalize_labelled(cand, labels)


def every_level_enumeration(spec: StratumSpec) -> list[list[tuple]]:
    """The canonical encodings per L of the enumeration that splits every
    level of every (L-1)-level graph with the reference search and keeps a
    class once some labelled candidate of it is realizable: the reference
    for the bottom-level splits of ``enumerate_LGL``."""
    layers = [[lg.canonicalize(lg.trivial_graph(spec))]]
    for _ in range(dimension(spec).projectivized):
        found: dict[tuple, lg.LevelGraph] = {}
        for g in layers[-1]:
            for lev in range(0, -g.n_levels_below - 1, -1):
                for cand, _ in reference_split_candidates(g, spec, lev):
                    enc = lg.canonical_encoding(cand)
                    if enc not in found and not realizability_verdict(cand, spec):
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
    """Enumeration judges the two-level graphs on the canonical graphs it
    returns, and splits the returned graphs of every L from 1 below the
    dimension on their own level strata, so reading the level strata of
    those graphs builds nothing.  The trivial graph is judged from its
    vertex orders, so its record is built on the first read.  The deepest
    graphs are glued from judged two-level graphs and judged by nothing,
    and no verdict is memoized."""
    spec = StratumSpec.connected(0, (2, 1, 1, 1, -3, -4))
    d = dimension(spec).projectivized
    caches.clear()
    layers = [lg.enumerate_LGL(spec, L) for L in range(d + 1)]
    built = caches.stats()["levelgraphs.level_strata"]
    assert "levelgraphs.level_verdict" not in caches.stats()
    for g in itertools.chain(*layers[1:d]):
        lg.level_strata(g, spec)
    assert caches.stats()["levelgraphs.level_strata"] == built
    [triv] = layers[0]
    lg.level_strata(triv, spec)
    built += 1
    assert caches.stats()["levelgraphs.level_strata"] == built
    for g in layers[d]:
        lg.level_strata(g, spec)
    assert caches.stats()["levelgraphs.level_strata"] == built + len(layers[d])


# the strata of the labelled-split reference: symmetric vertices and
# parallel edges (genus 2 and 3), many legs (genus 0), residue conditions
# (the paired stratum, and a constrained part that a level stratum of
# genus 2 (2,2,-2) inherits)
SPLIT_SPECS = [StratumSpec.connected(0, (2, 1, 1, 1, -3, -4)),
               StratumSpec.connected(0, (3, 1, 1, -1, -2, -4)),
               StratumSpec.connected(0, (3, 3, -1, -1, -2, -4)),
               StratumSpec.connected(0, (2, 2, 1, 1, 1, -9)),
               family_13(5), StratumSpec.connected(1, (3, 1, 1, -5)),
               StratumSpec.connected(2, (2, 2, -2)), StratumSpec.connected(2, (4, -2)),
               StratumSpec.connected(2, (1, 1)), StratumSpec.connected(3, (4,)),
               pair_spec(),
               StratumSpec.make([(0, (2, 2, -2, -2, -2))], [({(0, 3), (0, 4)}, True)])]


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=lambda spec: str(spec.components))
def test_level_splits_are_the_labelled_splittings_each_once(spec):
    """For every (graph, level) pair, ``level_splits`` gives exactly the
    distinct realizable labelled splittings of the reference every-level
    search, each once, and every split is realizable."""
    for L in range(dimension(spec).projectivized + 1):
        for g in lg.enumerate_LGL(spec, L):
            for lev in range(0, -L - 1, -1):
                want = {labelled_key(cand, emap)
                        for cand, emap in reference_split_candidates(g, spec, lev)
                        if not realizability_verdict(cand, spec)}
                splits = lg.level_splits(g, spec, lev)
                got = [labelled_key(cand, emap) for cand, emap in splits]
                assert len(set(got)) == len(got), (g, lev)
                assert set(got) == want, (g, lev)
                assert not any(lg.realizability_issues(cand, spec) for cand, _ in splits)


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=lambda spec: str(spec.components))
def test_enumeration_builds_structurally_sound_graphs(spec):
    """The library judges only the level part of realizability, since
    enumeration builds the degree equations, stability, descent, nonempty
    levels and connectivity into every graph: the structural oracle finds
    nothing on any graph that ``enumerate_LGL`` returns at any L, nor on
    any split that ``level_splits`` gives of any of its levels."""
    for L in range(dimension(spec).projectivized + 1):
        for g in lg.enumerate_LGL(spec, L):
            assert structural_issues(g, spec) == [], g
            for lev in range(0, -L - 1, -1):
                for cand, _ in lg.level_splits(g, spec, lev):
                    assert structural_issues(cand, spec) == [], (g, lev, cand)


@pytest.mark.parametrize("spec", [
    reversed_pair_spec(),
    StratumSpec.make([(0, (2, 2, -2, -2, -2))], [({(0, 3), (0, 4)}, False)])],
    ids=["pair_reversed", "unconstrained_part"])
def test_trivial_graph_splits_enumerate_the_stratum_once(spec):
    """The level stratum of the trivial graph sorts its constrained parts
    and drops the unconstrained ones; its splits are the two-level graphs
    of the stratum itself, under the one memo key, and the same labelled
    splittings as the reference search."""
    caches.clear()
    triv = lg.enumerate_LGL(spec, 0)[0]
    assert lg.level_strata(triv, spec)[0] != spec
    lg.enumerate_LG1(spec)
    splits = lg.level_splits(triv, spec, 0)
    assert [key for key in lg._ENUM_CACHE if key[1] == 1] == [(spec, 1)]
    want = {labelled_key(cand, emap) for cand, emap in reference_split_candidates(triv, spec, 0)
            if not realizability_verdict(cand, spec)}
    got = [labelled_key(cand, emap) for cand, emap in splits]
    assert len(set(got)) == len(got) and set(got) == want


def one_part_specs():
    """Genus-0 strata of four to six points, with poles of order >= -5,
    zeros of orders summing to at most 4 and one constrained part over a
    nonempty set of the poles of order <= -2."""
    for n in range(4, 7):
        for orders in itertools.combinations_with_replacement(range(4, -6, -1), n):
            if 0 in orders or sum(orders) != -2 or sum(o for o in orders if o > 0) > 4:
                continue
            poles = [i for i, o in enumerate(orders) if o <= -2]
            for r in range(1, len(poles) + 1):
                for part in itertools.combinations(poles, r):
                    yield StratumSpec.make([(0, orders)], [({(0, i) for i in part}, True)])


# valid specs of negative projectivized dimension: two points on one
# genus-0 component (-1), one point (-2), and a one-point component next
# to a stable one (-1)
NEGATIVE_DIMENSION_SPECS = [
    StratumSpec.connected(0, (1, -3)),
    StratumSpec.connected(0, (-2,)),
    StratumSpec.make([(0, (-2,)), (0, (0, 0, -2))]),
]


@pytest.mark.parametrize("components,vertex", [
    ([(0, (0, -2)), (1, (0,))], 0), ([(1, (0,)), (0, (0, -2))], 0),
    ([(0, (1, -3)), (0, (0, 0, -2))], 0), ([(0, (0, 0, -2)), (0, (1, -3))], 1),
    *[(spec.components, 0) for spec in NEGATIVE_DIMENSION_SPECS]])
def test_an_unstable_component_is_not_realizable(components, vertex):
    """``validate`` accepts a spec with an unstable genus-0 component of
    one or two points, whether the other components give it a dimension
    of at least 0 (the first four) or not (those of negative dimension);
    enumeration refuses it at every L, above the dimension included,
    naming the vertex of the canonical trivial graph."""
    spec = StratumSpec.make(components)
    assert not validate(spec)
    assert (dimension(spec).projectivized < 0) == (spec in NEGATIVE_DIMENSION_SPECS)
    for L in (0, 1, 2):
        with pytest.raises(SpecError) as exc:
            lg.enumerate_LGL(spec, L)
        assert str(exc.value) == f"ambient stratum not realizable: vertex {vertex}: unstable"


def test_one_constrained_part_enumerates_at_every_L():
    """Every realizable stratum of the scan enumerates at every L, so that
    its level dimensions add up (``realizability_issues`` raises otherwise).  A
    component above a level whose poles lie in constrained parts of two or
    more points induces a condition where it lowers the level's residue
    rank; twelve of these strata failed without that condition, among them
    (2,2,-2,-2,-2) with part {3,4}, a level stratum of genus 2 (2,2,-2).
    The fourteen others are not realizable (a simple pole with zero
    residue), six of them of dimension 0."""
    outcomes = Counter()
    for spec in one_part_specs():
        assert not validate(spec)
        d = dimension(spec).projectivized
        try:
            for L in range(d + 1):
                lg.enumerate_LGL(spec, L)
            outcomes["enumerated"] += 1
        except SpecError as exc:
            assert str(exc).startswith("ambient stratum not realizable"), spec
            outcomes["not realizable", d > 0] += 1
    assert outcomes == {"enumerated": 100, ("not realizable", True): 8,
                        ("not realizable", False): 6}


# ---------------------------------------------------------------------------
# the level-strata record against the per-level construction it replaced
# ---------------------------------------------------------------------------

def reference_half_edges(g: lg.LevelGraph, spec: StratumSpec, v: int):
    """The points of vertex v as (tag, order) pairs: its legs in point
    order, then the poles of its incoming edges and the zeros of its
    outgoing edges, each in edge order.  One vertex per call, each call a
    pass over all legs and edges."""
    out = [(("leg", pt), spec.order(pt)) for pt, w in g.legs if w == v]
    out.sort()
    out += [(("ein", ei), -k - 1) for ei, (_, w, k) in enumerate(g.edges) if w == v]
    out += [(("eout", ei), k - 1) for ei, (u, _, k) in enumerate(g.edges) if u == v]
    return out


def reference_induced_conditions(g: lg.LevelGraph, spec: StratumSpec,
                                 first_seen: bool = False):
    """Residue conditions induced on each level, with a fresh union-find
    over the whole auxiliary graph at every level: the construction that
    the one-walk record replaced.  The components of a level come in the
    order of their least members; ``first_seen`` orders them instead by
    the first of their vertices met walking the levels from the top, the
    rule that the least-member order is not."""
    part_of = lg._constrained_part_of(spec)
    legv = g.leg_vertex()
    parts = sorted(set(part_of.values()), key=sorted)
    n = g.n_vertices
    free = [False] * n    # a simple pole, or a pole in no constrained part
    shared = [False] * n  # a pole in a constrained part of two or more points
    for pt, v in g.legs:
        m = spec.order(pt)
        if m == -1 or (m < 0 and pt not in part_of):
            free[v] = True
        elif m < 0 and len(part_of[pt]) >= 2:
            shared[v] = True

    out: dict[int, list[frozenset]] = {}
    for lev in sorted(set(g.levels), reverse=True):
        # auxiliary nodes: vertices above lev (ids 0..n-1) and parts (n+j)
        root = lg._roots(n + len(parts), itertools.chain(
            ((u, v) for (u, v, _) in g.edges if min(g.levels[u], g.levels[v]) > lev),
            ((n + j, legv[pt]) for j, pts in enumerate(parts) for pt in pts
             if g.levels[legv[pt]] > lev)))
        comps: dict[int, list[int]] = {}
        for x in range(n + len(parts)):
            if x >= n or g.levels[x] > lev:
                comps.setdefault(root[x], []).append(x)
        if first_seen:
            walk = sorted(range(n), key=lambda v: (-g.levels[v], v))
            comps = {r: comps[r] for r in sorted(comps, key=lambda r: min(
                walk.index(x) if x < n else x for x in comps[r]))}
        conds: list[frozenset] = []
        extra: list[frozenset] = []  # kept only where they lower the rank
        for comp in comps.values():
            verts = [x for x in comp if x < n]
            if any(free[v] for v in verts):
                continue
            cond = frozenset(
                [("ein", ei) for ei, (u, v, _) in enumerate(g.edges)
                 if g.levels[v] == lev and u in verts]
                + [("leg", pt) for j in comp if j >= n for pt in parts[j - n]
                   if g.levels[legv[pt]] == lev])
            if cond:
                (extra if any(shared[v] for v in verts) else conds).append(cond)
        if extra:
            conds += reference_rank_lowering(g, spec, lev, conds, extra)
        if conds:
            out[lev] = conds
    return out


def reference_rank_lowering(g: lg.LevelGraph, spec: StratumSpec, lev: int, conds, extra):
    """The conditions of ``extra`` that lower the residue rank of level
    ``lev``, each given the residue theorems of the level's vertices,
    ``conds`` and the conditions of ``extra`` kept before it."""
    theorems = [[tag for tag, o in reference_half_edges(g, spec, v) if o < 0]
                for v in g.vertices_at(lev)]
    poles = list(itertools.chain(*theorems))

    def row(tags) -> list[int]:
        return [int(tag in tags) for tag in poles]

    rows = [row(tags) for tags in theorems + conds]
    rank = _eliminate(rows)[0]
    kept = []
    for cond in extra:
        if _eliminate(rows + [row(cond)])[0] > rank:
            rows.append(row(cond))
            rank += 1
            kept.append(cond)
    return kept


def reference_level_stratum(g: lg.LevelGraph, spec: StratumSpec, lev: int,
                            first_seen: bool = False):
    """One level stratum built on its own: the per-level construction that
    the level-strata record replaced."""
    verts = g.vertices_at(lev)
    comps, positions = [], {}
    for cj, v in enumerate(verts):
        points = reference_half_edges(g, spec, v)
        for pj, (tag, _) in enumerate(points):
            positions[tag] = (cj, pj)
        comps.append((g.genera[v], tuple(o for _, o in points)))
    parts = tuple(ResiduePart(frozenset(positions[t] for t in cond), True)
                  for cond in reference_induced_conditions(g, spec, first_seen).get(lev, ()))
    return StratumSpec(tuple(comps), parts), positions


def reference_level_strata(g: lg.LevelGraph, spec: StratumSpec, first_seen: bool = False):
    return tuple(reference_level_stratum(g, spec, -i, first_seen)[0]
                 for i in range(g.n_levels_below + 1))


# the constrained examples whose level dimensions once failed to add up
TWO_POLE_PARTS = [
    StratumSpec.make([(0, (2, 2, -2, -2, -2))], [({(0, 3), (0, 4)}, True)]),
    StratumSpec.make([(0, (2, 2, -1, -1, -2, -2))], [({(0, 4), (0, 5)}, True)]),
    StratumSpec.make([(0, (2, -2, -2)), (0, (2, -2, -2, 0))], [({(0, 1), (1, 1)}, True)]),
]
# genus 3 (4) has levels below two pole-free components of two and one
# vertices, whose conditions come in the order of their least members
RECORD_SPECS = [StratumSpec.connected(0, (2, 1, 1, 1, -3, -4)), family_13(5),
                StratumSpec.connected(2, (2, 2, -2)), pair_spec(), pair_spec(False),
                *TWO_POLE_PARTS, reversed_pair_spec(), StratumSpec.connected(3, (4,))]


@pytest.mark.parametrize("spec", RECORD_SPECS,
                         ids=["g0_n6", "g1_5_1_m6", "g2_2_2_m2", "pair", "pair_free",
                              "g0_2_2_m2_m2_m2", "g0_2_2_m1_m1_m2_m2", "two_components",
                              "pair_reversed", "g3_4"])
def test_level_strata_record_matches_the_per_level_build(spec):
    """On every enumerated graph, and on its copy with the vertices and the
    edges numbered in reverse, where the top levels come first."""
    for L in range(dimension(spec).projectivized + 1):
        for g in itertools.chain.from_iterable(
                (g, reversed_graph(g)) for g in lg.enumerate_LGL(spec, L)):
            record = lg.level_strata(g, spec)
            assert len(record) == L + 1
            for i, sub in enumerate(record):
                ref = reference_level_stratum(g, spec, -i)
                assert sub == ref[0]
                assert lg.level_stratum(g, spec, -i) == ref
            for lev in (1, -L - 1):
                with pytest.raises(ValueError):
                    lg.level_stratum(g, spec, lev)


def test_level_strata_record_matches_the_per_level_build_on_the_scan():
    """The record equals the per-level construction on every graph of the
    100 strata of the one-part scan that enumerate, at every L."""
    specs = graphs = 0
    for spec in one_part_specs():
        try:
            layers = [lg.enumerate_LGL(spec, L)
                      for L in range(dimension(spec).projectivized + 1)]
        except SpecError:
            continue
        specs += 1
        for g in itertools.chain(*layers):
            assert lg.level_strata(g, spec) == reference_level_strata(g, spec), (spec, g)
            graphs += 1
    assert (specs, graphs) == (100, 2505)


def test_level_strata_record_matches_the_per_level_build_property():
    """The record equals the per-level construction on every enumerated
    graph, and on its reversed copy, of random realizable strata: genus 0
    with up to six points, genus 1 with up to four and genus 2 with up to
    three, half of those with poles of order <= -2 given one constrained
    part.  Positive genus brings graphs with a pole-free top vertex, where
    the walk runs without a constrained part.  Skipped where hypothesis is
    not installed."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def record_spec(draw):
        genus = draw(st.integers(0, 2))
        n = draw(st.integers(3 if genus == 0 else 1, (6, 4, 3)[genus]))
        orders = draw(st.lists(st.integers(-5, 5).filter(bool),
                               min_size=n - 1, max_size=n - 1))
        orders.append(2 * genus - 2 - sum(orders))
        hyp.assume(orders[-1] and -7 <= orders[-1] <= 8)
        spec = StratumSpec.connected(genus, tuple(orders))
        higher = [(0, i) for i, m in enumerate(orders) if m <= -2]
        if higher and draw(st.booleans()):
            part = draw(st.lists(st.sampled_from(higher), min_size=1, unique=True))
            spec = StratumSpec.make(spec.components, [(part, True)])
        hyp.assume(not validate(spec))
        try:
            lg.enumerate_LGL(spec, 0)
        except SpecError:
            hyp.assume(False)
        return spec

    # an example enumerates every L, at most about 0.25 CPU s in genus 2
    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(record_spec())
    def check(spec):
        for L in range(dimension(spec).projectivized + 1):
            for g in itertools.chain.from_iterable(
                    (g, reversed_graph(g)) for g in lg.enumerate_LGL(spec, L)):
                assert lg.level_strata(g, spec) == reference_level_strata(g, spec), g

    check()


def test_record_walks_the_levels_only_where_a_condition_can_arise(monkeypatch):
    """``_build_level_strata`` skips the walk of ``_induced_conditions``
    where no condition can arise: on every graph of genus 0
    (2,1,1,1,-3,-4), which has no constrained part and whose vertices that
    no edge enters from above all hold a leg pole.  It walks every graph
    of genus 3 (4), whose top vertices hold no pole, and of each
    ``TWO_POLE_PARTS`` stratum, which has a constrained part."""
    walks = []
    walk = lg._induced_conditions
    monkeypatch.setattr(lg, "_induced_conditions",
                        lambda g, spec, verts: walks.append(g) or walk(g, spec, verts))
    cases = [(StratumSpec.connected(0, (2, 1, 1, 1, -3, -4)), False),
             (StratumSpec.connected(3, (4,)), True),
             *((spec, True) for spec in TWO_POLE_PARTS)]
    for spec, walked in cases:
        graphs = [g for L in range(dimension(spec).projectivized + 1)
                  for g in lg.enumerate_LGL(spec, L)]
        walks.clear()
        for g in graphs:
            assert lg._build_level_strata(g, spec) == reference_level_strata(g, spec)
        assert walks == (graphs if walked else []), spec


def verdict_outcome(judge, g, spec):
    """The issues that ``judge`` finds on g, or the type and text of what
    it raises."""
    try:
        return judge(g, spec)
    except (SpecError, lg.EnumerationError) as exc:
        return type(exc), str(exc)


def test_verdict_from_vertex_orders_matches_the_record_property():
    """The verdict, read from the vertex orders wherever no level can get a
    residue condition, equals the record-based oracle's (the same issue
    texts in the same order, or the same error) on the trivial graph and
    on every two-level candidate, realizable or not, of random strata:
    genus 0 with up to six points, genus 1 with up to four and genus 2
    with up to three, half of those with poles of order <= -2 given one
    constrained part, simple poles and the unrealizable genus 1 (1, -1)
    included.  Skipped where hypothesis is not installed."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def verdict_spec(draw):
        genus = draw(st.integers(0, 2))
        n = draw(st.integers(3 if genus == 0 else 2, (6, 4, 3)[genus]))
        orders = draw(st.lists(st.integers(-5, 5).filter(bool),
                               min_size=n - 1, max_size=n - 1))
        orders.append(2 * genus - 2 - sum(orders))
        hyp.assume(orders[-1] and -7 <= orders[-1] <= 8)
        spec = StratumSpec.connected(genus, tuple(orders))
        higher = [(0, i) for i, m in enumerate(orders) if m <= -2]
        if higher and draw(st.booleans()):
            part = draw(st.lists(st.sampled_from(higher), min_size=1, unique=True))
            spec = StratumSpec.make(spec.components, [(part, True)])
        hyp.assume(not validate(spec))
        return spec

    # an example judges every candidate twice, at most about 0.2 CPU s
    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(verdict_spec())
    @hyp.example(StratumSpec.connected(1, (1, -1)))
    def check(spec):
        for g in itertools.chain([lg.trivial_graph(spec)], lg._split_candidates(spec)):
            assert verdict_outcome(lg.realizability_issues, g, spec) == \
                verdict_outcome(record_realizability_issues, g, spec), g

    check()


def test_vertex_verdict_raises_where_the_record_would():
    """A sound two-level graph judged from its vertex orders, with one
    vertex's genus raised so that its orders no longer sum to 2g - 2,
    raises the ``SpecError`` that validating its level record raises, and
    builds no record on the way."""
    spec = StratumSpec.connected(0, (2, 1, 1, 1, -3, -4))
    g = lg.enumerate_LG1(spec)[0]
    caches.clear()
    assert lg._vertex_orders(g, spec)[2]
    raised = g._replace(genera=(g.genera[0] + 1,) + g.genera[1:])
    with pytest.raises(SpecError) as vertex_path:
        lg.realizability_issues(raised, spec)
    assert caches.stats()["levelgraphs.level_strata"] == 0
    with pytest.raises(SpecError) as record_path:
        record_realizability_issues(raised, spec)
    assert str(vertex_path.value) == str(record_path.value)
    assert "order sum" in str(vertex_path.value)


def test_two_level_enumeration_builds_a_record_only_where_the_walk_is_needed():
    """On cleared memos, enumerating the two-level graphs of genus 0
    (2,1,1,1,-3,-4) judges every graph from its vertex orders and builds
    no level record.  Genus 3 (4), whose top vertices hold no pole, and
    genus 2 (2,2,-2), where a pole-free genus-1 vertex can sit on top,
    build one record for each judged graph with a vertex that no edge
    enters from above and that holds no leg pole."""
    def needs_walk(g, spec):
        entered = {v for u, v, _ in g.edges if g.levels[u] > g.levels[v]}
        poled = {v for pt, v in g.legs if spec.order(pt) < 0}
        return any(v not in entered and v not in poled for v in range(g.n_vertices))

    for spec, walked in [(StratumSpec.connected(0, (2, 1, 1, 1, -3, -4)), False),
                         (StratumSpec.connected(3, (4,)), True),
                         (StratumSpec.connected(2, (2, 2, -2)), True)]:
        caches.clear()
        lg.enumerate_LG1(spec)
        built = caches.stats()["levelgraphs.level_strata"]
        judged = {lg.canonicalize(cand) for cand in lg._split_candidates(spec)}
        judged.add(lg.canonicalize(lg.trivial_graph(spec)))
        assert built == sum(needs_walk(g, spec) for g in judged), spec
        assert (built > 0) == walked, spec


def test_first_seen_component_order_breaks_the_record():
    """Ordering a level's components by the first of their vertices met
    from the top is not the least-member order.  Canonical graphs number
    the lower levels first, so the two differ where two components above
    a level both induce a condition on it: here, in genus 2 (2,2,-2), the
    pole-free genus-1 vertices on levels 0 and -1 above the bottom vertex.
    On the one-part genus-0 scan the two orders agree everywhere, since
    every component above a level that induces a condition there holds a
    pole, and so a point of the one part."""
    spec = StratumSpec.connected(2, (2, 2, -2))
    g = lg.LevelGraph((0, 1, 1), (-2, -1, 0), (((0, 0), 0), ((0, 1), 0), ((0, 2), 0)),
                      ((1, 0, 1), (2, 0, 1)))
    assert g in lg.enumerate_LGL(spec, 2)
    record = lg.level_strata(g, spec)
    first_seen = reference_level_strata(g, spec, first_seen=True)
    assert record == reference_level_strata(g, spec)
    assert [part.points for part in record[2].residue_parts] == \
        [frozenset({(0, 3)}), frozenset({(0, 4)})]
    assert first_seen[2].residue_parts == record[2].residue_parts[::-1]
    assert first_seen != record


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


def test_prong_data_refuses_a_horizontal_edge():
    """An edge of enhancement 0 has no prongs: ``prong_data`` refuses it
    instead of counting orbits of Z/0."""
    g = lg.LevelGraph((0, 0), (0, -1), (((0, 0), 1),), ((0, 1, 2), (0, 1, 0)))
    with pytest.raises(SpecError, match="^horizontal edges have no prong data$"):
        lg.prong_data(g)


def test_automorphism_examples():
    assert lg.automorphism_order(triangle(2, 3, 4)) == 1
    banana = lg.LevelGraph((0, 1), (-1, 0), (((0, 0), 0),),
                           ((1, 0, 1), (1, 0, 1)))
    assert lg.automorphism_order(banana) == 2
    distinct = lg.LevelGraph((0, 1), (-1, 0), (((0, 0), 0),),
                             ((1, 0, 1), (1, 0, 3)))
    assert lg.automorphism_order(distinct) == 1


def test_interchangeable_legless_vertices_keep_their_automorphism():
    """The two legless genus-1 vertices on top of a divisor of genus 2
    (1, 1) have equal initial keys, so ``_vertex_keys`` refines them and
    leaves them tied, and swapping them is an automorphism."""
    g = lg.LevelGraph((0, 1, 1), (-1, 0, 0), (((0, 0), 0), ((0, 1), 0)),
                      ((1, 0, 1), (2, 0, 1)))
    assert g in lg.enumerate_LG1(StratumSpec.connected(2, (1, 1)))
    keys = lg._vertex_keys(g)
    assert keys[1] == keys[2] != keys[0]
    assert lg.automorphism_order(g) == 2


def orbit_count_route(g: lg.LevelGraph) -> tuple[int, int]:
    """(orbits, twist index) with the orbits counted by ``orbit_count`` on
    the crossing rows, on every graph."""
    kappas = [k for _, _, k in g.edges]
    rows = lg._crossing_matrix(g)
    orbits = orbit_count(kappas, rows)
    ell = math.prod(math.lcm(*(k for k, f in zip(kappas, row) if f)) for row in rows)
    return orbits, ell * orbits // math.prod(kappas)


def test_prong_data_is_the_orbit_count_route_on_every_graph():
    """Every graph of genus 0 (5, 2, -1, -1, -1, -6) with one to three
    levels below zero gets the orbits and twist index that ``orbit_count``
    gives, whichever route ``prong_data`` takes; most graphs with two or
    three levels below have an edge across two or more passages."""
    spec = StratumSpec.connected(0, (5, 2, -1, -1, -1, -6))
    long_edged = 0
    for L in (1, 2, 3):
        for g in lg.enumerate_LGL(spec, L):
            pd = lg.prong_data(g)
            assert (pd.orbits, pd.twist_index) == orbit_count_route(g), g
            long_edged += any(g.levels[u] - g.levels[v] > 1 for u, v, _ in g.edges)
    assert long_edged > 100


def test_orbits_of_disjoint_passages_are_k_over_ell():
    """Graphs whose every edge crosses exactly one passage (one to four
    passages, one to three vertices per level, kappa up to 6): the
    crossing rows are disjoint, the orbits number K / ell, and both
    ``orbit_count`` and the breadth-first oracle agree."""
    rng = random.Random(25)
    for _ in range(300):
        L = rng.randint(1, 4)
        per_level = [rng.randint(1, 3) for _ in range(L + 1)]
        levels = tuple(-i for i, n in enumerate(per_level) for _ in range(n))
        at = [[v for v, x in enumerate(levels) if x == -i] for i in range(L + 1)]
        edges = tuple((rng.choice(at[i]), rng.choice(at[i + 1]), rng.randint(1, 6))
                      for i in range(L) for _ in range(rng.randint(1, 2)))
        g = lg.LevelGraph((0,) * len(levels), levels, (((0, 0), 0),), edges)
        pd = lg.prong_data(g)
        kappas = [k for _, _, k in edges]
        rows = lg._crossing_matrix(g)
        assert all(sum(col) == 1 for col in zip(*rows))
        assert pd.orbits == pd.kappa_product // pd.ell == orbit_count(kappas, rows)
        if pd.kappa_product <= 300:
            assert pd.orbits == orbit_count_bfs(kappas, rows)


# ---------------------------------------------------------------------------
# undegeneration
# ---------------------------------------------------------------------------

def test_undegenerate_identities():
    spec = H2
    for g in lg.enumerate_LGL(spec, 2):
        L = g.n_levels_below
        whole = lg.undegenerate(g, range(1, L + 1))[0]
        assert lg.canonicalize(whole) == lg.canonicalize(g)
        triv = lg.canonicalize(lg.undegenerate(g, [])[0])
        assert triv.n_levels_below == 0
        assert triv == lg.canonicalize(lg.trivial_graph(spec))


def test_triangle_undegenerations():
    t = triangle(2, 4, 6)
    d1 = lg.undegenerate(t, [1])[0]
    d2 = lg.undegenerate(t, [2])[0]
    assert d1.n_levels_below == d2.n_levels_below == 1
    # contracting passage 2 merges the bottom pair, leaving edges a and b
    assert sorted(k for _, _, k in d1.edges) == [2, 4]
    assert sorted(k for _, _, k in d2.edges) == [4, 6]


def test_delta_composition_coherence():
    """delta_J(delta_I(g)) = delta_{I_J}(g), where I_J are the passages of
    I at the positions J, on three-level graphs."""
    spec = StratumSpec.connected(0, (1, 1, 1, 1, 1, -7))
    graphs = lg.enumerate_LGL(spec, 3)
    assert graphs
    for g in graphs:
        for I in itertools.combinations((1, 2, 3), 2):
            coarse, emap = lg.undegenerate(g, I)
            assert [coarse.edges[emap[ei]][2] for ei in sorted(emap)] == \
                [k for u, v, k in g.edges if any(g.levels[v] <= -i < g.levels[u] for i in I)]
            for J in ([], [1], [2]):
                I_J = [I[j - 1] for j in J]
                assert (lg.canonicalize(lg.undegenerate(coarse, J)[0])
                        == lg.canonicalize(lg.undegenerate(g, I_J)[0]))


def test_undegenerate_refuses_a_passage_out_of_range():
    for g in lg.enumerate_LGL(H2, 2):
        L = g.n_levels_below
        for passages in ([0], [L + 1], [1, L + 1]):
            with pytest.raises(ValueError, match="passage index out of range"):
                lg.undegenerate(g, passages)


def test_splits_section_property():
    """Splitting a level and then contracting the new passage returns the
    original graph."""
    spec = family_13(3)
    for g in lg.enumerate_LG1(spec):
        for lev in (0, -1):
            for cand, _ in lg.level_splits(g, spec, lev):
                back = lg.canonicalize(lg.undegenerate(cand, [i for i in (1, 2)
                                                              if i != -lev + 1])[0])
                assert back == lg.canonicalize(g)


def test_leg_assignments_are_the_product_filtered_by_the_bounds():
    """The pruned search yields exactly the assignments of
    itertools.product(range(V), repeat=n), in that order, whose leg sums
    meet the bounds of a split and whose slots each hold the legs they need
    to be stable at their largest degree (E - t + 1 on top, E - b + 1 at
    the bottom)."""
    for genus, orders in [(0, (3, 1, 1, -1, -2, -4)), (0, (1, 1, -2, -2, -2, 2)),
                          (0, (2, 2, 1, 1, 1, -9)), (1, (3, 1, -4)), (2, (4, -2, 0)),
                          (2, (1, 1))]:
        for V in range(2, len(orders) + 2 * genus - 1):
            for t in range(1, V):
                for gvec in lg._genus_vectors_up_to(genus, V):
                    E = genus - sum(gvec) + V - 1
                    max_deg = [E - t + 1] * t + [E - (V - t) + 1] * (V - t)
                    want = []
                    for assign in itertools.product(range(V), repeat=len(orders)):
                        legsum = [0] * V
                        for li, slot in enumerate(assign):
                            legsum[slot] += orders[li]
                        if all(legsum[i] <= 2 * gvec[i] - 2 for i in range(t)) \
                                and all(legsum[i] >= 2 * gvec[i] for i in range(t, V)) \
                                and sum(legsum[t:]) + 2 * (V - t) \
                                - 2 * sum(gvec[t:]) >= 2 * E \
                                and all(assign.count(i) >= 3 - 2 * gvec[i] - max_deg[i]
                                        for i in range(V)):
                            want.append(assign)
                    assert lg._leg_assignments(orders, t, gvec, E) == want


def reference_piece_splits(genus: int, orders: tuple[int, ...]):
    """The generate-and-test split search that the pruned
    ``_piece_splits_by_orders`` replaced, kept as its reference.

    Connected two-level splittings of one smooth surface piece, with
    legs referenced by index into ``orders``.

    Returns tuples (tops, bots, edges): tops/bots are ((genus, leg index
    tuple), ...) and edges (top slot, bottom slot, kappa).  Stability caps
    the vertex count at n + 2*genus - 2.
    """
    n = len(orders)
    max_v = n + 2 * genus - 2
    results = []
    for V in range(2, max_v + 1):
        for t in range(1, V):
            b = V - t
            for gvec in lg._genus_vectors_up_to(genus, V):
                b1 = genus - sum(gvec)
                E = b1 + V - 1
                if E < max(t, b):
                    continue
                for assign in reference_leg_assignments(orders, t, gvec, E):
                    legsum = [0] * V
                    legct = [0] * V
                    for li, slot in enumerate(assign):
                        legsum[slot] += orders[li]
                        legct[slot] += 1
                    # bottom vertices: sum over edges of (kappa+1) is fixed
                    svals = [legsum[t + i] + 2 - 2 * gvec[t + i] for i in range(b)]
                    if any(s < 2 for s in svals) or sum(svals) < 2 * E:
                        continue
                    need = [2 * gvec[i] - 2 - legsum[i] for i in range(t)]
                    if any(x < 0 for x in need) or sum(svals) - 2 * E != sum(need):
                        continue
                    bundle_opts = [reference_kappa_bundles(s, E) for s in svals]
                    for bundles in itertools.product(*bundle_opts):
                        if sum(len(bl) for bl in bundles) != E:
                            continue
                        if any(2 * gvec[t + i] - 2 + legct[t + i] + len(bundles[i]) <= 0
                               for i in range(b)):
                            continue
                        edge_list = [(bi, k) for bi, bl in enumerate(bundles)
                                     for k in bl]
                        for tops in itertools.product(range(t), repeat=E):
                            ksum = [0] * t
                            deg = [0] * t
                            for (bi, k), ti in zip(edge_list, tops):
                                ksum[ti] += k - 1
                                deg[ti] += 1
                            if any(deg[i] == 0 or ksum[i] != need[i]
                                   or 2 * gvec[i] - 2 + legct[i] + deg[i] <= 0
                                   for i in range(t)):
                                continue
                            edges = tuple((ti, bi, k)
                                          for (bi, k), ti in zip(edge_list, tops))
                            if not lg._split_connected(t, b, edges):
                                continue
                            tops_data = tuple(
                                (gvec[i], tuple(li for li, s in enumerate(assign) if s == i))
                                for i in range(t))
                            bots_data = tuple(
                                (gvec[t + i], tuple(li for li, s in enumerate(assign) if s == t + i))
                                for i in range(b))
                            results.append((tops_data, bots_data, edges))
    return tuple(results)


def reference_kappa_bundles(s: int, max_edges: int) -> list[tuple[int, ...]]:
    """The bundles of a bottom under ``reference_piece_splits``: the
    nonincreasing tuples of at most ``max_edges`` kappas >= 1 with
    sum(kappa + 1) == s."""
    return [bundle for n in range(1, max_edges + 1)
            for bundle in itertools.combinations_with_replacement(range(s - 1, 0, -1), n)
            if sum(bundle) + n == s]


def reference_leg_assignments(orders: tuple[int, ...], t: int, gvec: tuple[int, ...],
                              E: int) -> list[tuple[int, ...]]:
    """The leg search under ``reference_piece_splits``.

    The assignments of legs to vertex slots (tops 0..t-1, bottoms
    t..V-1) in ``itertools.product`` order, less those whose leg sums
    cannot meet the bounds of a split: a top's at most 2g - 2, a bottom's
    at least 2g, and the bottoms' total at least 2E - 2b + 2 (sum of
    bottom genera).  A depth-first search over the legs drops a branch as
    soon as the legs still to place cannot bring some sum into bounds."""
    n, V = len(orders), len(gvec)
    pos_rest = [0] * (n + 1)
    neg_rest = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        pos_rest[i] = pos_rest[i + 1] + max(orders[i], 0)
        neg_rest[i] = neg_rest[i + 1] + min(orders[i], 0)
    hi = [2 * gv - 2 for gv in gvec[:t]]
    lo = [2 * gv for gv in gvec[t:]]
    bottoms_lo = 2 * E - 2 * (V - t) + 2 * sum(gvec[t:])
    legsum = [0] * V
    assign = [0] * n
    out: list[tuple[int, ...]] = []

    def place(i: int, bottoms: int) -> None:
        if i == n:
            out.append(tuple(assign))
            return
        o, neg, pos = orders[i], neg_rest[i + 1], pos_rest[i + 1]
        for slot in range(V):
            legsum[slot] += o
            bsum = bottoms + o if slot >= t else bottoms
            if bsum + pos >= bottoms_lo \
                    and all(legsum[j] + neg <= hi[j] for j in range(t)) \
                    and all(legsum[t + j] + pos >= lo[j] for j in range(V - t)):
                assign[i] = slot
                place(i + 1, bsum)
            legsum[slot] -= o

    place(0, 0)
    return out




PIECES = ([(0, (2, 2, 1, 1, 1, -9)), (0, (3, 1, 1, 1, 1, -9)), (0, (2, 1, 1, 1, 1, -8)),
           (0, (1, 1, 1, 1, 1, -7)), (0, (3, 2, 2, -1, -2, -6)), (0, (3, 3, -1, -1, -2, -4))]
          + [(1, (k, 1, -k - 1)) for k in range(2, 25)]
          + [(2, (2, 2, -2)), (2, (4, -2)), (2, (1, 1))])


@pytest.mark.parametrize("genus, orders", PIECES, ids=str)
def test_piece_splits_match_the_reference_search(genus, orders):
    """The pruned search returns the reference's entries, each as often;
    their order is not part of the kernel's contract."""
    assert sorted(lg._piece_splits_by_orders(genus, orders)) \
        == sorted(reference_piece_splits(genus, orders))


def test_piece_splits_match_the_reference_search_property():
    """Degree-valid orders of genus <= 2 with at most five vertices in a
    split (n + 2g - 2 <= 5).  Orders are drawn from -4..3, and the last
    one makes the degree, so that the reference search, which takes up to
    about two seconds on a genus-0 piece of seven points, stays fast.
    Skipped where hypothesis is not installed."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def piece(draw):
        genus = draw(st.integers(0, 2))
        orders = draw(st.lists(st.integers(-4, 3), max_size=6 - 2 * genus))
        orders.append(2 * genus - 2 - sum(orders))
        hyp.assume(-10 <= orders[-1] <= 8)
        return genus, tuple(orders)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(piece())
    def check(case):
        assert sorted(lg._piece_splits_by_orders(*case)) == sorted(reference_piece_splits(*case))

    check()


def test_piece_splits_of_a_seven_point_piece_are_pinned():
    """A genus-0 piece with four poles, too slow for the reference search
    (about 2 s): its entries as a multiset, pinned by their count and the
    sha256 of their sorted repr."""
    entries = lg._piece_splits_by_orders(0, (4, -2, -5, -5, -5, 4, 7))
    assert len(entries) == 770
    assert hashlib.sha256(repr(sorted(entries)).encode()).hexdigest() \
        == "f574a567117fab18a6327864baedcd31af02d2d845e678062616d892336f7c0a"


def forced_sides(legs):
    """Sides to force on some of ``legs`` (True: on top): each leg alone
    on either side, and every leg alternately on top and at the bottom,
    starting either way."""
    out = [{leg: up} for leg in legs for up in (True, False)]
    if len(legs) > 1:
        out += [{leg: i % 2 == start for i, leg in enumerate(legs)} for start in (0, 1)]
    return out


LEG_ASSIGNMENT_CASES = [(0, (3, 1, 1, -1, -2, -4)), (0, (1, 1, -2, -2, -2, 2)),
                        (0, (2, 2, 1, 1, 1, -9)), (1, (3, 1, -4)), (2, (4, -2, 0)),
                        (2, (1, 1))]


def test_level_splits_forced_sides_leg_assignments_are_filtered():
    """With forced sides, the leg search yields the unforced assignments
    that put each forced leg on a top (True) or a bottom (False) slot, in
    the same order, on the cases of the unforced search's test."""
    for genus, orders in LEG_ASSIGNMENT_CASES:
        for V in range(2, len(orders) + 2 * genus - 1):
            for t in range(1, V):
                for gvec in lg._genus_vectors_up_to(genus, V):
                    E = genus - sum(gvec) + V - 1
                    every = lg._leg_assignments(orders, t, gvec, E)
                    for sides in forced_sides(range(len(orders))):
                        forced = [sides.get(i) for i in range(len(orders))]
                        want = [a for a in every
                                if all((a[i] < t) == up for i, up in sides.items())]
                        assert lg._leg_assignments(orders, t, gvec, E, forced) == want


@pytest.mark.parametrize("genus, orders", list(dict.fromkeys(LEG_ASSIGNMENT_CASES + PIECES)),
                         ids=str)
def test_level_splits_forced_sides_piece_splits_are_filtered(genus, orders):
    """With forced sides, the piece search returns the unforced entries
    whose tops hold exactly the legs forced on top, each as often."""
    every = lg._piece_splits_by_orders(genus, orders)
    for sides in forced_sides(range(len(orders))):
        forced = [sides.get(i) for i in range(len(orders))]
        want = [split for split in every
                if all((i in {li for _, lis in split[0] for li in lis}) == up
                       for i, up in sides.items())]
        assert sorted(lg._piece_splits_by_orders(genus, orders, forced)) == sorted(want)


def splits_on_sides(splits, lev, sides):
    """The ``level_splits`` entries that put each leg of ``sides`` on the
    upper part of level ``lev`` (True) or on the lower one (False)."""
    return [(cand, emap) for cand, emap in splits
            if all((cand.levels[v] == lev) == sides[pt] for pt, v in cand.legs if pt in sides)]


def split_level_stratum(g, spec, lev):
    """The stratum whose two-level graphs ``level_splits`` glues in."""
    return spec if lev == 0 and g.is_trivial() else lg.level_strata(g, spec)[-lev]


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=lambda spec: str(spec.components))
def test_level_splits_with_sides_are_the_filtered_list(spec):
    """For every (graph, level) pair and forced sides of the legs on the
    level, ``level_splits`` lists the unforced splits that put those legs
    there, in the same order: built with the level stratum's two-level
    graphs out of the memo, and read from them with the memo warm.
    Neither call changes a memo count."""
    for L in range(dimension(spec).projectivized + 1):
        for g in lg.enumerate_LGL(spec, L):
            for lev in range(0, -L - 1, -1):
                full = lg.level_splits(g, spec, lev)
                sub = split_level_stratum(g, spec, lev)
                for sides in forced_sides([pt for pt, v in g.legs if g.levels[v] == lev]):
                    want = splits_on_sides(full, lev, sides)
                    del lg._ENUM_CACHE[sub, 1]
                    before = caches.stats()
                    assert lg.level_splits(g, spec, lev, sides) == want, (g, lev, sides)
                    assert caches.stats() == before
                    lg.enumerate_LG1(sub)
                    before = caches.stats()
                    assert lg.level_splits(g, spec, lev, sides) == want, (g, lev, sides)
                    assert caches.stats() == before


def test_level_splits_with_sides_on_cold_memos_memoize_nothing():
    """With every memo cold but the level record of the graph and the
    dimension of the level stratum, which the unforced call reads too, a
    call with forced sides builds its list and leaves every memo count as
    it was: it stores no list, canonical encoding or level record."""
    spec = StratumSpec.connected(0, (2, 1, 1, 1, -3, -4))
    graphs = [g for L in (0, 1, 2) for g in lg.enumerate_LGL(spec, L)]
    for g in graphs:
        for lev in range(0, -g.n_levels_below - 1, -1):
            for sides in forced_sides([pt for pt, v in g.legs if g.levels[v] == lev]):
                caches.clear()
                dimension(split_level_stratum(g, spec, lev))
                before = caches.stats()
                got = lg.level_splits(g, spec, lev, sides)
                assert caches.stats() == before
                assert got == splits_on_sides(lg.level_splits(g, spec, lev), lev, sides)


def test_divisors_of_huge_orders_take_no_time_per_unit_of_order():
    """A zero of order 10^9 costs the split search no loop over its
    kappas: genus 0 (10^9, 1, 1, -10^9 - 4) has three divisors, with
    ell = 10^9 + 2, 10^9 + 2 and 3, found in well under a second of CPU
    time (under a millisecond in practice)."""
    N = 10 ** 9
    start = time.process_time()
    divisors = lg.enumerate_LG1(StratumSpec.connected(0, (N, 1, 1, -N - 4)))
    assert sorted(lg.prong_data(g).ell for g in divisors) == [3, N + 2, N + 2]
    assert time.process_time() - start < 1.0


def brute_force_LG1(spec: StratumSpec) -> dict[tuple, int]:
    """The two-level graphs of a connected stratum built from scratch,
    sharing no code with the split search: every choice of vertex genera,
    top count, multiset of (top, bottom, kappa) edges and vertex for each
    leg, kept when every vertex meets its degree equation and is stable,
    and then passes the structural oracle (connectivity among them) and
    ``realizability_issues``.  Returns {canonical encoding:
    |Aut|}, where |Aut| is t! b! over the number of vertex numberings that
    give the class, times m! for m parallel edges of equal enhancement."""
    genus, orders = spec.components[0]
    points = list(spec.points())
    kmax = sum(o for o in orders if o > 0) + 1  # a bottom's sum(kappa + 1) <= that + 1
    found: dict[tuple, list] = {}
    for V in range(2, len(orders) + 2 * genus - 1):
        for t in range(1, V):
            levels = (0,) * t + (-1,) * (V - t)
            triples = [(u, v, k) for u in range(t) for v in range(t, V)
                       for k in range(1, kmax + 1)]
            for genera in itertools.product(range(genus + 1), repeat=V):
                if sum(genera) > genus:
                    continue
                E = genus - sum(genera) + V - 1
                for edges in itertools.combinations_with_replacement(triples, E):
                    legsum = [2 * gv - 2 for gv in genera]  # what the legs must add up to
                    valence = [0] * V
                    for u, v, k in edges:
                        legsum[u] -= k - 1
                        legsum[v] += k + 1
                        valence[u] += 1
                        valence[v] += 1
                    for assign in itertools.product(range(V), repeat=len(orders)):
                        sums, count = list(legsum), list(valence)
                        for o, v in zip(orders, assign):
                            sums[v] -= o
                            count[v] += 1
                        if any(sums) or any(2 * gv - 2 + c <= 0 for gv, c in zip(genera, count)):
                            continue
                        g = lg.LevelGraph(genera, levels, tuple(zip(points, assign)), edges)
                        if not realizability_verdict(g, spec):
                            found.setdefault(lg.canonical_encoding(g), [0, g])[0] += 1
    out = {}
    for enc, (numberings, g) in found.items():
        t = g.levels.count(0)
        aut = math.factorial(t) * math.factorial(g.n_vertices - t)
        assert aut % numberings == 0
        out[enc] = aut // numberings
        for m in Counter(g.edges).values():
            out[enc] *= math.factorial(m)
    return out


@pytest.mark.parametrize("spec", [StratumSpec.connected(0, orders) for orders in [
    (1, 1, -2, -2), (2, 1, -1, -4), (3, -1, -1, -3), (1, 1, -1, -1, -2),
    (1, 1, 1, -1, -4), (2, 1, 1, -3, -3), (3, 1, -1, -2, -3), (1, 1, 1, 1, -6),
    (2, 2, -1, -2, -3)]] + [family_13(3), H2], ids=lambda spec: str(spec.components))
def test_lg1_matches_a_brute_force_enumeration(spec):
    """LG_1 of small genus-0 strata, and of genus 1 (3,1,-4) and genus 2
    (2) for parallel edges and automorphisms of order 2."""
    want = brute_force_LG1(spec)
    got = lg.enumerate_LG1(spec)
    assert sorted(lg.canonical_encoding(g) for g in got) == sorted(want)
    assert {lg.canonical_encoding(g): lg.automorphism_order(g) for g in got} == want


# ---------------------------------------------------------------------------
# profiles and level dimensions
# ---------------------------------------------------------------------------

def test_profiles_no_repeats_and_unique_order():
    """``profile_order_check`` returns the profiles it checked for every L
    from 1, each entry the index of delta_i in the sorted LG_1."""
    for spec in (H2, family_13(4), StratumSpec.connected(0, (1, 1, 2, 2, -8))):
        encs = [lg.canonical_encoding(g) for g in lg.enumerate_LG1(spec)]
        checked = lg.profile_order_check(spec)
        assert list(checked) == list(range(1, dimension(spec).projectivized + 1))
        for L, profiles in checked.items():
            assert profiles == [
                tuple(encs.index(lg.canonical_encoding(lg.undegenerate(g, [i])[0]))
                      for i in range(1, L + 1))
                for g in lg.enumerate_LGL(spec, L)]
        assert lg.profile(lg.canonicalize(lg.trivial_graph(spec)), spec) == ()
    with pytest.raises(lg.EnumerationError, match="missing from LG_1"):
        lg.profile(lg.enumerate_LG1(H2)[0], family_13(4))


def test_check_profile_order_refuses_repeats_and_two_orders():
    lg.check_profile_order([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(lg.EnumerationError, match="repeated index"):
        lg.check_profile_order([(0, 1), (2, 2)])
    with pytest.raises(lg.EnumerationError, match="share an index set"):
        lg.check_profile_order([(0, 1), (1, 2), (1, 0)])


def test_dimension_merging():
    """Level dimensions of delta_k are block sums of the fine dimensions."""
    for spec in (H2, family_13(3), StratumSpec.connected(0, (1, 1, 1, 1, -6))):
        d = dimension(spec).projectivized
        for L in range(2, d + 1):
            for g in lg.enumerate_LGL(spec, L):
                fine = [p for p, _ in lg.level_dims(g, spec)]
                for k in range(1, L + 1):
                    coarse = [p for p, _ in lg.level_dims(lg.undegenerate(g, [k])[0], spec)]
                    assert coarse[0] == k - 1 + sum(fine[:k])
                    assert coarse[1] == L - k + sum(fine[k:])


def test_913_divisor_level_dims():
    k = 4
    spec = family_13(k)
    for g in lg.enumerate_LG1(spec):
        kappas = sorted(kk for _, _, kk in g.edges)
        if len(kappas) == 2 and sum(kappas) == k + 1:
            assert [d for d, _ in lg.level_dims(g, spec)] == [0, 1]


# ---------------------------------------------------------------------------
# labeled degeneration counting
# ---------------------------------------------------------------------------

def _labeled_split_classes(g, spec, lev):
    """The labeled splittings of a level (``level_splits`` gives each
    once), grouped by the isomorphism class of the resulting graph."""
    groups = Counter()
    reps = {}
    for cand, _ in lg.level_splits(g, spec, lev):
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
