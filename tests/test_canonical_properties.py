"""Property tests of the one canonical-labelling search in
``stratacalc.levelgraphs``: relabelling the vertices and shuffling the
edges of a level graph leaves its canonical encoding, its automorphism
order and its decorated canonical form unchanged, and its isomorphisms
onto the relabelled copy number |Aut|.  The realizability verdict is
a class invariant too, and so are the classes of a level's splits.
Enumeration leaves each class it stores with the canonical form a fresh
search gives, and the ordering search that returns distinct vertex keys
unrefined finds what refining them on every graph finds.  Skipped where
hypothesis is not installed."""
from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from typing import Sequence

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stratacalc import caches  # noqa: E402
from stratacalc import levelgraphs as lg  # noqa: E402
from stratacalc import tautring as tr  # noqa: E402
from stratacalc.strata import ResiduePart, StratumSpec, dimension  # noqa: E402
from test_levelgraphs import reference_split_candidates  # noqa: E402
from oracles import refined_minimal_orderings, structural_issues  # noqa: E402

# (genus, orders, deepest level): genus 2 and 3 bring vertex automorphisms
# and parallel edges, genus 0 many legs and no symmetry
STRATA = [(0, (1, 1, 2, 2, -8), 2), (1, (2, 1, -3), 2), (2, (1, 1), 3),
          (3, (4,), 2)]


@functools.cache
def graphs() -> tuple[lg.LevelGraph, ...]:
    return tuple(g for genus, orders, top in STRATA for L in range(1, top + 1)
                 for g in lg.enumerate_LGL(StratumSpec.connected(genus, orders), L))


@st.composite
def relabelled(draw):
    """A graph g, a copy h whose vertex perm[j] of g is vertex j and whose
    edge eperm[j] of g is edge j, and (ein, eout) psi exponents per edge
    of g."""
    g = draw(st.sampled_from(graphs()))
    perm = draw(st.permutations(range(g.n_vertices)))
    eperm = draw(st.permutations(range(len(g.edges))))
    exps = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         min_size=len(g.edges), max_size=len(g.edges)))
    return g, relabel(g, perm, eperm), perm, eperm, exps


def relabel(g: lg.LevelGraph, perm: Sequence[int], eperm: Sequence[int]
            ) -> lg.LevelGraph:
    """The copy of g whose vertex j is vertex perm[j] of g and whose edge j
    is edge eperm[j] of g."""
    new = {old: j for j, old in enumerate(perm)}
    return lg.LevelGraph(tuple(g.genera[v] for v in perm),
                         tuple(g.levels[v] for v in perm),
                         tuple(sorted((pt, new[v]) for pt, v in g.legs)),
                         tuple((new[g.edges[i][0]], new[g.edges[i][1]], g.edges[i][2])
                               for i in eperm))


def brute_force_automorphisms(g: lg.LevelGraph) -> int:
    """Vertex permutations keeping genera, levels, legs and the edge
    multiset, times the permutations of parallel edges."""
    legs = dict(g.legs)
    count = 0
    for s in itertools.permutations(range(g.n_vertices)):
        if all(g.genera[s[v]] == g.genera[v] and g.levels[s[v]] == g.levels[v]
               for v in range(g.n_vertices)) \
                and all(s[v] == v for v in legs.values()) \
                and Counter((s[u], s[v], k) for u, v, k in g.edges) == Counter(g.edges):
            count += 1
    for m in Counter(g.edges).values():
        count *= math.factorial(m)
    return count


def edge_decor(exps) -> tr.Decor:
    return tr._decor({("psi", (side, i)): e for i, pair in enumerate(exps)
                      for side, e in zip(("ein", "eout"), pair)} | {("xi", 0): 1})


@settings(max_examples=50, deadline=None)
@given(relabelled())
def test_relabelling_keeps_the_canonical_data(case):
    g, h, perm, eperm, exps = case
    assert lg.canonical_encoding(h) == lg.canonical_encoding(g)
    assert lg.canonicalize(h) == lg.canonicalize(g)
    aut = lg.automorphism_order(g)
    assert lg.automorphism_order(h) == aut == brute_force_automorphisms(g)

    isos = lg.graph_isomorphisms(g, h)
    assert len(isos) == aut
    assert len({(tuple(sorted(vm.items())), tuple(sorted(em.items())))
                for vm, em in isos}) == aut
    for vmap, emap in isos:
        assert sorted(emap.values()) == list(range(len(h.edges)))
        assert all(h.edges[emap[i]] == (vmap[u], vmap[v], k)
                   for i, (u, v, k) in enumerate(g.edges))
        assert all(h.genera[vmap[v]] == g.genera[v] for v in range(g.n_vertices))
    new_vertex = {old: j for j, old in enumerate(perm)}
    new_edge = {old: j for j, old in enumerate(eperm)}
    assert (new_vertex, new_edge) in isos

    assert tr.canonical_decorated(h, ()) == (lg.canonicalize(g), ())
    moved = [exps[i] for i in eperm]
    assert tr.canonical_decorated(h, edge_decor(moved)) == \
        tr.canonical_decorated(g, edge_decor(exps))
    labelled = lg.canonicalize_labelled(h, [tuple(e) for e in moved])
    assert labelled[0] == lg.canonicalize(g)
    assert labelled == lg.canonicalize_labelled(g, [tuple(e) for e in exps])


@st.composite
def tied_graphs(draw):
    """A level graph, sound or not, of up to six vertices on levels 0..-2
    of genus 0 or 1 with up to seven edges of kappa 1..3, parallel ones
    included.  Legs go on some vertices only; when ``tie`` is drawn, two
    legless vertices share a level and a genus, so their initial keys tie
    and only refinement by their edges can part them."""
    n = draw(st.integers(1, 6))
    levels = draw(st.lists(st.integers(-2, 0), min_size=n, max_size=n))
    genera = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    tie = n >= 2 and draw(st.booleans())
    if tie:
        levels[1], genera[1] = levels[0], genera[0]
    bearers = list(range(2 if tie else 0, n))
    legs = tuple(((0, i), draw(st.sampled_from(bearers)))
                 for i in range(draw(st.integers(0, 4)) if bearers else 0))
    pairs = [(u, v) for u in range(n) for v in range(n) if levels[u] > levels[v]]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 3)),
                          max_size=7)) if pairs else []
    return lg.LevelGraph(tuple(genera), tuple(levels), legs,
                         tuple((u, v, k) for (u, v), k in edges))


@settings(max_examples=200, deadline=None)
@given(st.one_of(tied_graphs(), st.sampled_from(graphs())))
def test_distinct_keys_need_no_refinement(g):
    """``_minimal_orderings`` gives the encoding and the list of minimizing
    orderings, in order, that it gives when the vertex keys are refined on
    every graph: on enumerated graphs, whose initial keys are mostly
    distinct, and on random graphs with tied legless vertices, where the
    refinement runs."""
    assert lg._minimal_orderings(g) == refined_minimal_orderings(g)


def test_labelled_form_reads_the_memoized_orderings(monkeypatch):
    """Once a graph's canonical form is memoized, its labelled forms run no
    ordering search of their own: they take the least labels over the
    memoized orderings that reach the canonical encoding."""
    calls = []
    for name in ("_minimal_orderings", "_orderings"):
        search = getattr(lg, name)
        monkeypatch.setattr(lg, name, lambda x, search=search: calls.append(x) or search(x))
    rng = random.Random(20)
    for g in graphs():
        lg._canonical(g)
        calls.clear()
        labels = [(rng.randrange(3),) for _ in g.edges]
        graph, moved = lg.canonicalize_labelled(g, labels)
        assert calls == []
        assert graph == lg.canonicalize(g)
        assert sorted(moved) == sorted(labels)


PAIRED = StratumSpec.make([(0, (-2, -2, 2)), (0, (-2, -2, 1, 1))],
                          [({(0, 0), (1, 0)}, True), ({(0, 1), (1, 1)}, True)])
# the paired-residue stratum comes before its twin with the same parts left
# unconstrained: they share every labelled candidate, and some candidates
# are realizable only in the twin
VERDICT_STRATA = [
    StratumSpec.connected(0, (2, 1, 1, 1, -3, -4)),
    StratumSpec.connected(0, (3, 1, 1, -1, -2, -4)),
    StratumSpec.connected(1, (3, 1, -4)),
    PAIRED,
    StratumSpec(PAIRED.components,
                tuple(ResiduePart(p.points, False) for p in PAIRED.residue_parts)),
]


def test_enumerated_graphs_carry_their_own_canonical_form():
    """Enumeration stores each found class's canonical graph in the
    canonical-form memo with the encoding and minimizing orderings it
    already knows; they are what a fresh ordering search of the stored
    graph gives, in the same order.  It runs before the next test, which
    empties the memos again, so its own clear costs later tests nothing."""
    caches.clear()
    for spec in (StratumSpec.connected(0, (2, 1, 1, 1, -3, -4)),
                 StratumSpec.connected(1, (5, 1, -6)),
                 StratumSpec.connected(2, (2, 2, -2)), PAIRED):
        for L in range(1, dimension(spec).projectivized + 1):
            for g in lg.enumerate_LGL(spec, L):
                enc, orders = lg._minimal_orderings(g)
                assert lg._CANON_CACHE[g] == (enc, tuple(map(tuple, orders)))


def test_realizability_verdict_is_a_class_invariant():
    """Every labelled candidate of the reference every-level split search
    that the structural oracle passes, realizable or not, gets the same
    verdict as a relabelled copy of it."""
    caches.clear()
    rng = random.Random(6)
    verdicts = Counter()
    for spec in VERDICT_STRATA:
        d = dimension(spec).projectivized
        for L in range(d):
            for g in lg.enumerate_LGL(spec, L):
                for lev in range(0, -g.n_levels_below - 1, -1):
                    for cand, _ in reference_split_candidates(g, spec, lev):
                        if structural_issues(cand, spec):
                            continue
                        verdict = lg.realizability_issues(cand, spec)
                        verdicts[bool(verdict)] += 1
                        h = relabel(cand, rng.sample(range(cand.n_vertices), cand.n_vertices),
                                    rng.sample(range(len(cand.edges)), len(cand.edges)))
                        assert structural_issues(h, spec) == []
                        assert lg.realizability_issues(h, spec) == verdict
    assert verdicts[True] and verdicts[False]


def test_split_candidates_are_the_same_classes_under_relabelling():
    """Relabelling a graph permutes the points of its level strata and so
    the labelled splits of each level; ``level_splits`` still gives the
    same classes with the same multiplicities.  Each split is realizable,
    and its edge map sends an old edge to an edge of the same
    enhancement."""
    rng = random.Random(8)
    for spec in VERDICT_STRATA:
        for L in range(dimension(spec).projectivized):
            for g in lg.enumerate_LGL(spec, L):
                h = relabel(g, rng.sample(range(g.n_vertices), g.n_vertices),
                            rng.sample(range(len(g.edges)), len(g.edges)))
                for lev in range(0, -L - 1, -1):
                    classes = []
                    for graph in (g, h):
                        found = Counter()
                        for cand, emap in lg.level_splits(graph, spec, lev):
                            assert lg.realizability_issues(cand, spec) == []
                            assert sorted(emap) == list(range(len(graph.edges)))
                            assert [cand.edges[emap[ei]][2] for ei in emap] == \
                                [k for _, _, k in graph.edges]
                            found[lg.canonical_encoding(cand)] += 1
                        classes.append(found)
                    assert classes[0] == classes[1]
