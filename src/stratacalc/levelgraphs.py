"""Enhanced level graphs indexing the boundary strata of a generalized
stratum: enumeration, canonical labeling, undegeneration, prong arithmetic,
and the induced generalized strata on the individual levels.

Conventions.  Levels are 0, -1, ..., -L; level passage i (1 <= i <= L) sits
between levels -i+1 and -i.  Non-horizontal edges carry an enhancement
kappa >= 1 and always descend strictly.  Marked points are labeled; graph
automorphisms fix every leg.
"""
from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from . import caches
from .exact import orbit_count
from .strata import (DimensionData, Point, ResiduePart, SpecError, StratumSpec, _eliminate,
                     dimension, require_valid)

# point tags inside a level stratum
LegTag = tuple  # ("leg", Point) | ("ein", edge index) | ("eout", edge index)


class LevelGraph(NamedTuple):
    """An enhanced level graph over a fixed ambient stratum.

    genera[v], levels[v] per vertex; legs maps each ambient marked point to
    its vertex; edges are (upper vertex, lower vertex, kappa).
    """

    genera: tuple[int, ...]
    levels: tuple[int, ...]
    legs: tuple[tuple[Point, int], ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_levels_below(self) -> int:
        return -min(self.levels) if self.levels else 0

    def leg_vertex(self) -> dict[Point, int]:
        return dict(self.legs)

    def vertices_at(self, level: int) -> list[int]:
        return [v for v, x in enumerate(self.levels) if x == level]

    def is_trivial(self) -> bool:
        return self.n_levels_below == 0


class ProngData(NamedTuple):
    ell_levels: tuple[int, ...]  # lcm of kappas over each level passage
    ell: int                     # product of the per-passage lcms
    kappa_product: int           # K: product of kappas over all edges
    orbits: int                  # g: prong-matching equivalence classes
    twist_index: int             # e = [Tw : Tw^s]
    aut_order: int


class EnumerationError(RuntimeError):
    """Internal-consistency failure during graph enumeration."""


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------

def _vertex_keys(g: LevelGraph) -> list[tuple]:
    """Each vertex's (level, genus, legs) key, refined by the keys across
    its edges until the classes of equal keys stop splitting.  Keys that
    are already pairwise distinct come back as they are: refinement cannot
    split a class of one, and a refined key leads with the key it refines,
    so both sort the vertices alike."""
    legs_of: list[list[Point]] = [[] for _ in g.genera]
    for pt, v in g.legs:
        legs_of[v].append(pt)
    keys = [(x, gv, tuple(sorted(pts))) for x, gv, pts in zip(g.levels, g.genera, legs_of)]
    if len(set(keys)) == len(keys):
        return keys
    # Weisfeiler-Lehman style refinement with edge profiles
    for _ in range(g.n_vertices):
        prof: list[list] = [[] for _ in range(g.n_vertices)]
        for (u, v, k) in g.edges:
            prof[u].append((1, k, keys[v]))
            prof[v].append((-1, k, keys[u]))
        new = [(keys[v], tuple(sorted(prof[v]))) for v in range(g.n_vertices)]
        if len(set(new)) == len(set(keys)):
            keys = new
            break
        keys = new
    return keys


def _orderings(keys: Sequence[tuple]) -> Iterator[list[int]]:
    """Every vertex ordering that lists the classes of equal refined
    invariants ``keys`` (from ``_vertex_keys``) in sorted order, each class
    in any order: the search of :func:`_minimal_orderings` where two keys
    tie."""
    groups: dict[tuple, list[int]] = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, []).append(v)
    for choice in itertools.product(
            *[itertools.permutations(groups[k]) for k in sorted(groups)]):
        yield [v for grp in choice for v in grp]


def _encode(g: LevelGraph, order: Sequence[int], edges: Sequence[tuple]) -> tuple:
    pos = {v: i for i, v in enumerate(order)}
    verts = tuple((g.levels[v], g.genera[v]) for v in order)
    legs = tuple(sorted((pt, pos[v]) for pt, v in g.legs))
    return (verts, legs, tuple(sorted((pos[e[0]], pos[e[1]]) + e[2:] for e in edges)))


def _minimal_orderings(g: LevelGraph) -> tuple[tuple, list[list[int]]]:
    """The least encoding over the orderings of g, and every ordering that
    reaches it (one per vertex automorphism); every canonical form,
    automorphism and isomorphism comes from this search.  Pairwise distinct
    keys allow one ordering, the vertices sorted by key, which is encoded
    directly."""
    keys = _vertex_keys(g)
    if len(set(keys)) == len(keys):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return _encode(g, order, g.edges), [order]
    best, argmin = None, []
    for order in _orderings(keys):
        enc = _encode(g, order, g.edges)
        if best is None or enc < best:
            best, argmin = enc, [order]
        elif enc == best:
            argmin.append(order)
    return best, argmin


_CANON_CACHE: dict[LevelGraph, tuple[tuple, tuple[tuple[int, ...], ...]]] = \
    caches.memo("levelgraphs.canonical_encoding")


def _canonical(g: LevelGraph) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The canonical encoding and every vertex ordering reaching it."""
    hit = _CANON_CACHE.get(g)
    if hit is None:
        enc, argmin = _minimal_orderings(g)
        hit = _CANON_CACHE[g] = (enc, tuple(map(tuple, argmin)))
    return hit


def canonical_encoding(g: LevelGraph) -> tuple:
    """A complete isomorphism invariant: the least (verts, legs, edges)
    encoding over the vertex orderings compatible with the refined
    invariant classes.  A nested tuple of integers, compared in plain
    tuple order."""
    return _canonical(g)[0]


def _from_encoding(verts: tuple, legs: tuple, edges: tuple) -> LevelGraph:
    return LevelGraph(tuple(v[1] for v in verts), tuple(v[0] for v in verts),
                      legs, edges)


def canonicalize(g: LevelGraph) -> LevelGraph:
    return _from_encoding(*canonical_encoding(g))


def canonicalize_labelled(g: LevelGraph, labels: Sequence[tuple[int, ...]]
                          ) -> tuple[LevelGraph, tuple[tuple[int, ...], ...]]:
    """:func:`canonicalize` for a graph whose edges carry integer labels
    (labels[i] belongs to edge i, all of one length): the canonical graph
    and the labels of its edges, least over the orderings that reach the
    canonical encoding.  Each label rides on its edge's record, so the
    labels also order interchangeable parallel edges."""
    enc, orders = _canonical(g)
    edges = [e + lab for e, lab in zip(g.edges, labels)]
    recs = min(_encode(g, order, edges)[2] for order in orders)
    return _from_encoding(*enc), tuple(r[3:] for r in recs)


def automorphism_order(g: LevelGraph) -> int:
    """Order of the automorphism group fixing all legs and preserving
    levels, genera and enhancements: the vertex automorphisms (orderings
    reaching the canonical encoding) times the permutations of parallel
    edges of equal enhancement."""
    out = len(_canonical(g)[1])
    for m in Counter(g.edges).values():
        out *= math.factorial(m)
    return out


def graph_isomorphisms(a: LevelGraph, b: LevelGraph
                       ) -> list[tuple[dict[int, int], dict[int, int]]]:
    """All isomorphisms a -> b (fixing legs, preserving level, genus and
    enhancement) as (vertex map, edge index map) pairs: one minimizing
    ordering of a against each minimizing ordering of b, with every
    matching of parallel edges."""
    enc_a, orders_a = _canonical(a)
    enc_b, orders_b = _canonical(b)
    if enc_a != enc_b:
        return []
    b_parallel: dict[tuple[int, int, int], list[int]] = {}
    for ei, e in enumerate(b.edges):
        b_parallel.setdefault(e, []).append(ei)
    out = []
    for order_b in orders_b:
        vmap = dict(zip(orders_a[0], order_b))
        a_parallel: dict[tuple[int, int, int], list[int]] = {}
        for ei, (u, v, k) in enumerate(a.edges):
            a_parallel.setdefault((vmap[u], vmap[v], k), []).append(ei)
        for perms in itertools.product(
                *[itertools.permutations(b_parallel[e]) for e in a_parallel]):
            out.append((vmap, {ae: be for aes, bes in zip(a_parallel.values(), perms)
                               for ae, be in zip(aes, bes)}))
    return out


# ---------------------------------------------------------------------------
# prong arithmetic
# ---------------------------------------------------------------------------

def _crossing_matrix(g: LevelGraph) -> list[list[int]]:
    """0/1 rows (one per level passage) marking the edges crossing it."""
    L = g.n_levels_below
    rows = []
    for i in range(1, L + 1):
        rows.append([1 if (g.levels[u] >= -i + 1 and g.levels[v] <= -i) else 0
                     for (u, v, _) in g.edges])
    return rows


_PRONG_CACHE: dict[LevelGraph, ProngData] = caches.memo("levelgraphs.prong_data")


def prong_data(g: LevelGraph) -> ProngData:
    hit = _PRONG_CACHE.get(g)
    if hit is not None:
        return hit
    kappas = [k for (_, _, k) in g.edges]
    if any(k < 1 for k in kappas):
        raise SpecError("horizontal edges have no prong data")
    rows = _crossing_matrix(g)
    ells = tuple(math.lcm(*(k for k, flag in zip(kappas, row) if flag)) for row in rows)
    ell = math.prod(ells)
    bigk = math.prod(kappas)
    if all(g.levels[u] - g.levels[v] == 1 for u, v, _ in g.edges):
        # every edge crosses one passage, so the rows are disjoint and span
        # a product of cyclic groups of orders ell_i: K / ell orbits
        orbits = bigk // ell
    else:
        orbits = orbit_count(kappas, rows)
    # e = [Tw : Tw^s] = [R : Tw^s] / [R : Tw] = prod(ell_i) * orbits / K
    twist = ell * orbits // bigk
    assert ell * orbits % bigk == 0
    out = ProngData(ells, ell, bigk, orbits, twist, automorphism_order(g))
    _PRONG_CACHE[g] = out
    return out


# ---------------------------------------------------------------------------
# undegeneration
# ---------------------------------------------------------------------------

def _find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest ``parent``, halving the path
    on the way; halving never changes which node is a root."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over the nodes 0..n-1 joined by ``pairs``: the root of
    each node's class.  Each pair hangs its first node's root below its
    second's, so the roots depend on the pairs' order;
    ``undegenerate`` numbers its vertices by them."""
    parent = list(range(n))
    for a, b in pairs:
        a, b = _find(parent, a), _find(parent, b)
        if a != b:
            parent[a] = b
    return [_find(parent, x) for x in range(n)]


def _delta_levels(g: LevelGraph, passages: Collection[int]) -> list[int]:
    """The level of each vertex of g in delta_I(g), I = ``passages``: fine
    level -m lands on level -above[m], above[m] the number of passages of I
    above it."""
    above = [0]
    for m in range(1, g.n_levels_below + 1):
        above.append(above[-1] + (m in passages))
    return [-above[-x] for x in g.levels]


def undegenerate(g: LevelGraph, passages: Iterable[int]
                 ) -> tuple[LevelGraph, dict[int, int]]:
    """delta_I: contract every level passage outside I and renormalize,
    returning the graph, uncanonicalized, and the map from surviving old
    edge indices to new edge indices.  I = {1..L} keeps every level; I = {}
    collapses to one level."""
    keep = sorted(set(passages))
    if keep and (keep[0] < 1 or keep[-1] > g.n_levels_below):
        raise ValueError("passage index out of range")
    nl = _delta_levels(g, keep)
    contracted = [(u, v) for (u, v, _) in g.edges if nl[u] == nl[v]]
    root = _roots(g.n_vertices, contracted)
    reps = sorted(set(root))
    idx = {r: i for i, r in enumerate(reps)}
    new = [idx[r] for r in root]
    genera = [0] * len(reps)
    counts = [0] * len(reps)
    for v in range(g.n_vertices):
        genera[new[v]] += g.genera[v]
        counts[new[v]] += 1
    for (u, v) in contracted:
        genera[new[u]] += 1
    for i in range(len(reps)):
        genera[i] -= counts[i] - 1
    levels = tuple(nl[r] for r in reps)
    legs = tuple(sorted((pt, new[v]) for pt, v in g.legs))
    edges = []
    edge_map: dict[int, int] = {}
    for ei, (u, v, k) in enumerate(g.edges):
        if nl[u] != nl[v]:
            edge_map[ei] = len(edges)
            edges.append((new[u], new[v], k))
    return LevelGraph(tuple(genera), levels, legs, tuple(edges)), edge_map


# ---------------------------------------------------------------------------
# level strata and induced residue conditions
# ---------------------------------------------------------------------------

def _constrained_part_of(spec: StratumSpec) -> dict[Point, frozenset[Point]]:
    out: dict[Point, frozenset[Point]] = {}
    for part in spec.constrained_parts():
        for pt in part.points:
            out[pt] = part.points
    return out


def _half_edges(g: LevelGraph, spec: StratumSpec, lev: int | None = None
                ) -> list[list[tuple[LegTag, int]]]:
    """The points of each vertex (each vertex at level ``lev``, where
    given) as (tag, order) pairs, one list per vertex in vertex order: its
    legs in point order, then the poles of its incoming edges and the zeros
    of its outgoing edges, each in edge order.  The points of a level
    stratum are numbered in this order, so the ``graphs`` and ``divisors``
    output depends on it; :func:`level_splits` maps the points of a divisor
    of a level stratum back to these tags.  Built for all those vertices at
    once, from one pass over the legs and two over the edges."""
    out: list[list[tuple[LegTag, int]] | None] = [
        [] if lev is None or x == lev else None for x in g.levels]
    for pt, v in sorted(g.legs):
        if out[v] is not None:
            out[v].append((("leg", pt), spec.order(pt)))
    for ei, (_, w, k) in enumerate(g.edges):
        if out[w] is not None:
            out[w].append((("ein", ei), -k - 1))
    for ei, (u, _, k) in enumerate(g.edges):
        if out[u] is not None:
            out[u].append((("eout", ei), k - 1))
    return out if lev is None else [pts for pts in out if pts is not None]


def _positions(points: Iterable[list[tuple[LegTag, int]]]) -> dict[LegTag, Point]:
    """tag -> (component, point) over the ``_half_edges`` lists of a
    level's vertices, in vertex order."""
    return {tag: (cj, pj) for cj, pts in enumerate(points)
            for pj, (tag, _) in enumerate(pts)}


def _rank_lowering(points: Sequence[list[tuple[LegTag, int]]],
                   conds: list[frozenset[LegTag]], extra: list[frozenset[LegTag]]
                   ) -> list[frozenset[LegTag]]:
    """The conditions of ``extra`` that lower the residue rank of a level
    whose vertices carry the ``_half_edges`` lists ``points``, each given
    the residue theorems of those vertices, ``conds`` and the conditions of
    ``extra`` kept before it."""
    theorems = [[tag for tag, o in pts if o < 0] for pts in points]
    poles = list(itertools.chain(*theorems))

    def row(tags: Collection[LegTag]) -> list[int]:
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


_LEVEL_STRATA: dict[tuple[LevelGraph, StratumSpec], tuple[StratumSpec, ...]] = \
    caches.memo("levelgraphs.level_strata")
# every distinct level spec once: equal specs of different graphs are one
# object, so records hold no copies and memo hits on a spec match by identity
_LEVEL_SPECS: dict[StratumSpec, StratumSpec] = caches.memo("levelgraphs.level_specs")


def _vertex_orders(g: LevelGraph, spec: StratumSpec
                   ) -> tuple[list[list[int]], list[list[int]], bool]:
    """(verts, orders, plain): the vertices of each level, top first; each
    vertex's orders, listed once in the order in which ``_half_edges``
    lists its points; and whether provably no level gets a residue
    condition from :func:`_induced_conditions`.

    That holds where the spec has no constrained part and every vertex
    that no edge enters from above carries a leg pole.  The global residue
    condition binds a level only through a component Y of the graph above
    it with no free pole, and without constrained parts every pole is free.
    A vertex on Y's top level has no edge entering it from above, since the
    upper end of such an edge would lie in Y too; so it carries a leg pole
    and Y escapes.  The rule always holds in genus 0: the orders of a
    genus-0 vertex that no edge enters from above are its legs and the
    zeros k - 1 >= 0 of its outgoing edges, and they sum to -2."""
    comps, levels = spec.components, g.levels
    verts: list[list[int]] = [[] for _ in range(g.n_levels_below + 1)]
    for v, x in enumerate(levels):
        verts[-x].append(v)
    orders: list[list[int]] = [[] for _ in levels]
    escapes = [False] * len(levels)  # a leg pole, or an edge entering from above
    for pt, v in sorted(g.legs):
        m = comps[pt[0]][1][pt[1]]
        orders[v].append(m)
        if m < 0:
            escapes[v] = True
    for u, v, k in g.edges:
        orders[v].append(-k - 1)
        if levels[u] > levels[v]:
            escapes[v] = True
    for u, _, k in g.edges:
        orders[u].append(k - 1)
    return verts, orders, all(escapes) and not spec.constrained_parts()


def _build_level_strata(g: LevelGraph, spec: StratumSpec) -> tuple[StratumSpec, ...]:
    """The level specs of :func:`level_strata`: each vertex's orders from
    :func:`_vertex_orders`, with the residue conditions of
    :func:`_induced_conditions`, whose walk is skipped where
    ``_vertex_orders`` proves that it finds none."""
    verts, orders, plain = _vertex_orders(g, spec)
    if plain:
        conditions: Sequence[tuple[ResiduePart, ...]] = ((),) * len(verts)
    else:
        conditions = _induced_conditions(g, spec, verts)
    genera = g.genera
    out = []
    for vs, parts_here in zip(verts, conditions):
        sub = StratumSpec(tuple([(genera[v], tuple(orders[v])) for v in vs]), parts_here)
        out.append(_LEVEL_SPECS.setdefault(sub, sub))
    return tuple(out)


def _induced_conditions(g: LevelGraph, spec: StratumSpec, verts: Sequence[list[int]]
                        ) -> list[tuple[ResiduePart, ...]]:
    """The residue conditions of each level (``verts[i]`` the vertices of
    level -i), in one walk from the top level down.

    The residue conditions come from the residue-condition variant of the
    global residue condition.  For every level and every connected
    component Y of the auxiliary graph above it (graph vertices plus one
    node per constrained part, joined to the vertices carrying its
    points), the residues at the ends of edges descending from Y to this
    exact level, and at the points of Y's parts on it, sum to zero, unless
    Y escapes through a pole with a free residue: a simple pole or a pole
    in no constrained part.  A component whose only other poles lie in
    constrained parts of two or more points adds its condition only where
    it lowers the level's residue rank, given the conditions before it
    (``_rank_lowering``); elsewhere it is implied by them.  A level's
    conditions come in the order of their components' least members
    (vertices by index, then the parts in sorted order), those of
    ``_rank_lowering`` after the others.

    One union-find over the auxiliary nodes grows as the walk passes each
    level: the vertices of a level join their edges to the levels above
    and their constrained parts once the walk is below them."""
    comps, levels = spec.components, g.levels
    part_of = _constrained_part_of(spec)
    parts = sorted(set(part_of.values()), key=sorted)
    part_index = {pts: x for x, pts in enumerate(parts, g.n_vertices)}
    nodes = g.n_vertices + len(parts)
    parent = list(range(nodes))
    least = list(range(nodes))
    free = [False] * nodes    # a simple pole, or a pole in no constrained part
    shared = [False] * nodes  # a pole in a constrained part of two or more points
    # at each level, the (node, vertex, tag) joins that the walk makes below
    # it; a tag is the end of a condition the level may receive
    joins: list[list[tuple[int, int, LegTag | None]]] = [[] for _ in verts]
    for pt, v in g.legs:
        m = comps[pt[0]][1][pt[1]]
        if m >= 0:
            continue  # residue parts hold poles only
        part = part_of.get(pt)
        if part is None or m == -1:
            free[v] = True
        elif len(part) >= 2:
            shared[v] = True
        if part is not None:
            joins[-levels[v]].append((part_index[part], v, ("leg", pt)))
    for ei, (u, v, _) in enumerate(g.edges):
        lu, lv = levels[u], levels[v]
        joins[-min(lu, lv)].append((u, v, ("ein", ei) if lu > lv else None))

    points = None
    out = []
    for vs, level_joins in zip(verts, joins):
        parts_here: tuple[ResiduePart, ...] = ()
        tags: dict[int, list[LegTag]] = {}
        for x, _, tag in level_joins:
            if tag is not None:
                tags.setdefault(_find(parent, x), []).append(tag)
        conds: list[frozenset[LegTag]] = []
        extra: list[frozenset[LegTag]] = []  # kept only where they lower the rank
        for r in sorted(tags, key=least.__getitem__):
            if not free[r]:
                (extra if shared[r] else conds).append(frozenset(tags[r]))
        if conds or extra:
            if points is None:
                points = _half_edges(g, spec)
            level_points = [points[v] for v in vs]
            if extra:
                conds += _rank_lowering(level_points, conds, extra)
            if conds:
                positions = _positions(level_points)
                parts_here = tuple([ResiduePart(frozenset([positions[t] for t in cond]), True)
                                    for cond in conds])
        out.append(parts_here)
        for a, b, _ in level_joins:
            a, b = _find(parent, a), _find(parent, b)
            if a != b:
                parent[a] = b
                least[b] = min(least[a], least[b])
                free[b] = free[a] or free[b]
                shared[b] = shared[a] or shared[b]
    return out


def level_strata(g: LevelGraph, spec: StratumSpec) -> tuple[StratumSpec, ...]:
    """The generalized strata at the levels of the graph, top level first
    (entry i is level -i): one component per vertex at the level, its
    points listed by ``_half_edges``, with the residue conditions that the
    global residue condition induces on that level (see
    ``_induced_conditions``).  Memoized per (graph, spec); the tuple is
    shared, and so is each spec."""
    hit = _LEVEL_STRATA.get((g, spec))
    if hit is None:
        hit = _LEVEL_STRATA[(g, spec)] = _build_level_strata(g, spec)
    return hit


def level_positions(g: LevelGraph, spec: StratumSpec, lev: int) -> dict[LegTag, Point]:
    """positions[tag] = (component, point) in the level stratum at ``lev``
    for every tag on that level (an ambient leg, an incoming edge pole, or
    an outgoing edge zero); a tag lies on the level exactly when it is a
    key.  Read from the ``_half_edges`` lists of the level's vertices, which
    the level stratum reads, built on every call and not kept: only psi
    exponents and level splits need them, and a dict per level would cost
    more memory than the level specs."""
    return _positions(_half_edges(g, spec, lev))


def level_stratum(g: LevelGraph, spec: StratumSpec, lev: int
                  ) -> tuple[StratumSpec, dict[LegTag, Point]]:
    """The generalized stratum at one level of the graph (the entry of
    :func:`level_strata`) and its :func:`level_positions`.  Raises
    ``ValueError`` for a level with no vertices."""
    if not g.vertices_at(lev):
        raise ValueError(f"no vertices at level {lev}")
    return level_strata(g, spec)[-lev], level_positions(g, spec, lev)


def level_dims(g: LevelGraph, spec: StratumSpec) -> list[tuple[int, int]]:
    """Per-level (projectivized, unprojectivized) dimensions, top first."""
    return [(dd.projectivized, dd.unprojectivized)
            for dd in map(dimension, level_strata(g, spec))]


# ---------------------------------------------------------------------------
# realizability
# ---------------------------------------------------------------------------

def _genus0_zero_residue_ok(sub: StratumSpec, cj: int, dd: DimensionData) -> bool:
    """Existence of a differential on a genus-0 component all of whose pole
    residues vanish, read off the residue record ``dd`` of ``sub``.  Zero
    residues on a rational curve force an exact differential; with poles
    of orders p_i the antiderivative has degree d = sum(p_i - 1), and a
    marked zero of order a needs a <= d - 1 when there are at least two
    poles.  Proven exact for at most two poles.  For three or more it is
    checked, not proven, to be exact: the genus-0 closed form
    chi = (-1)^(n-3) (n-3)! holds on every stratum with at least three
    poles of order >= -6 and zero orders summing to <= 6, for n <= 5 in
    the tests and n = 6, 7 in a one-off scan.
    """
    genus, orders = sub.components[cj]
    if genus != 0:
        return True
    pole_pts = [pt for pt in dd.poles if pt[0] == cj]
    if not all(pt in dd.forced_zero for pt in pole_pts):
        return True
    if len(pole_pts) == 1:
        return True
    d = sum(-orders[pj] - 1 for _, pj in pole_pts)
    return all(a <= d - 1 for a in orders if a > 0)


def realizability_issues(g: LevelGraph, spec: StratumSpec) -> list[str]:
    """The realizability predicate of a graph that meets the degree
    equations, stability, descent and connectivity, as every graph that
    enumeration builds does: nonnegative level dimensions, no simple pole
    with identically vanishing residue, and the genus-0 zero-residue
    obstruction.  Only the trivial graph and the two-level graphs of a
    stratum are judged in enumeration; deeper graphs are glued from the
    judged two-level graphs of level strata (:func:`level_splits`).
    Raises ``SpecError`` when a vertex's orders do not sum to 2g - 2, and
    ``EnumerationError`` when the level dimensions of a realizable graph
    do not add up to the stratum's.

    Where :func:`_vertex_orders` proves that no level gets a residue
    condition, the verdict is read from each vertex's orders alone and no
    level record is built.  A level's residue rows are then the residue
    theorems of its vertices with poles, one per vertex on disjoint poles,
    so a vertex of genus h with n points adds 2h + n - 1 to the level's
    unprojectivized dimension, less one if it has a pole.  That is at
    least 1 on a stable vertex (a genus-0 vertex has a pole and n >= 3),
    so no level dimension is negative.  A pole's residue vanishes
    identically exactly when it is its vertex's only pole; an edge pole
    has order -k - 1 <= -2, so the only issue left is a simple-pole leg
    that is its vertex's only pole.  The genus-0 obstruction needs two
    poles with vanishing residues on one vertex, so it cannot arise."""
    verts, orders, plain = _vertex_orders(g, spec)
    issues: list[str] = []
    nsum = 0
    if plain:
        genera = g.genera
        for i, vs in enumerate(verts):
            for v in vs:
                genus, ords = genera[v], orders[v]
                if sum(ords) != 2 * genus - 2:  # raises as the level record would
                    require_valid(StratumSpec(tuple([(genera[w], tuple(orders[w]))
                                                     for w in vs])))
                poles = [m for m in ords if m < 0]
                nsum += 2 * genus + len(ords) - 1 - bool(poles)
                if poles == [-1]:
                    issues.append(f"level {-i}: simple pole with zero residue")
    else:
        for i, sub in enumerate(level_strata(g, spec)):
            lev = -i
            dd = dimension(sub)
            nsum += dd.unprojectivized
            if dd.projectivized < 0:
                issues.append(f"level {lev}: negative dimension")
                continue
            for pt in dd.poles:
                if pt in dd.forced_zero and sub.order(pt) == -1:
                    issues.append(f"level {lev}: simple pole with zero residue")
            for cj in range(sub.n_components):
                if not _genus0_zero_residue_ok(sub, cj, dd):
                    issues.append(f"level {lev}: genus-0 zero-residue obstruction")
    if not issues:
        total = dimension(spec).unprojectivized
        if nsum != total:
            raise EnumerationError(
                f"level dimension sum {nsum} != stratum dimension {total}")
    return issues


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def trivial_graph(spec: StratumSpec) -> LevelGraph:
    legs = tuple(sorted((pt, pt[0]) for pt in spec.points()))
    return LevelGraph(tuple(g for g, _ in spec.components),
                      tuple(0 for _ in spec.components), legs, ())


def _piece_splits_by_orders(genus: int, orders: tuple[int, ...],
                            forced: Sequence[bool | None] | None = None):
    """Connected two-level splittings of one smooth surface piece, with
    legs referenced by index into ``orders``; given ``forced``, only those
    that put leg i on top where forced[i] is True and at the bottom where
    it is False (the ``sides`` of ``_leg_assignments``).

    Returns a tuple of triples (tops, bots, edges), searched afresh on
    every call: tops/bots are ((genus, leg index tuple), ...) and edges
    (top slot, bottom slot, kappa), bottom by bottom, each bottom's in
    nonincreasing kappa.  Stability caps the vertex count at
    n + 2*genus - 2.  The vertices are numbered slots, so a splitting with
    interchangeable vertices is listed once per numbering of them: entries
    are not distinct labelled splittings, and their order is not part of
    the contract.

    The search runs over vertex counts, top counts, genus vectors and leg
    assignments (``_leg_assignments``), and then places the edges depth
    first, bottom by bottom: each edge takes a kappa no larger than its
    bottom's previous one, so each bottom's kappa multiset comes once, and
    a top whose need sum(kappa - 1) still fits kappa - 1.  A kappa is
    skipped when the bottom's later edges, at most kappa + 1 each and one
    kept for each later bottom, could not carry the rest of its
    sum(kappa + 1)."""
    results = []

    def place(j: int, rem: int, kmax: int, left: int) -> None:
        # bottom j has rem of its sum(kappa + 1) left for edges of kappa <=
        # kmax, and left edges are still to place; the slots, needs and
        # degrees are those of the leg assignment in the loop below
        if rem == 0:
            if deg[t + j] < least[t + j]:
                return
            j += 1
            if j == b:
                # sum(need) == (sum of the bottoms' rem) - 2 * left stays
                # true, so every need is 0 and no edge is left here
                if all(deg[i] >= least[i] for i in range(t)) \
                        and _split_connected(t, b, edges):
                    results.append(sides + (tuple(edges),))
                return
            rem = kmax = s[j]
        # this edge and the bottom's later ones carry at most kappa + 1
        # each, and each later bottom keeps one of the left edges
        lo = max(1, -(-rem // (left - b + 1 + j)) - 1)
        for i in range(t):
            for k in range(min(kmax, rem - 1, need[i] + 1), lo - 1, -1):
                need[i] -= k - 1
                deg[i] += 1
                deg[t + j] += 1
                edges.append((i, j, k))
                place(j, rem - k - 1, k, left - 1)
                edges.pop()
                deg[t + j] -= 1
                deg[i] -= 1
                need[i] += k - 1

    for V in range(2, len(orders) + 2 * genus - 1):
        for t in range(1, V):
            b = V - t
            for gvec in _genus_vectors_up_to(genus, V):
                E = genus - sum(gvec) + V - 1
                for assign in _leg_assignments(orders, t, gvec, E, forced):
                    legs: list[list[int]] = [[] for _ in range(V)]
                    legsum = [0] * V
                    for li, slot in enumerate(assign):
                        legs[slot].append(li)
                        legsum[slot] += orders[li]
                    verts = [(gv, tuple(lis)) for gv, lis in zip(gvec, legs)]
                    sides = (tuple(verts[:t]), tuple(verts[t:]))
                    # a top's edges carry sum(kappa - 1) == need, a bottom's
                    # sum(kappa + 1) == s, and a slot is stable with least edges
                    need = [2 * gvec[i] - 2 - legsum[i] for i in range(t)]
                    s = [legsum[j] + 2 - 2 * gvec[j] for j in range(t, V)]
                    least = [max(1, 3 - 2 * gv - len(lis)) for gv, lis in zip(gvec, legs)]
                    deg = [0] * V
                    edges: list[tuple[int, int, int]] = []
                    place(0, s[0], s[0], E)
    return tuple(results)


def _leg_assignments(orders: tuple[int, ...], t: int, gvec: tuple[int, ...],
                     E: int, sides: Sequence[bool | None] | None = None
                     ) -> list[tuple[int, ...]]:
    """The assignments of legs to vertex slots (tops 0..t-1, bottoms
    t..V-1) in ``itertools.product`` order that can carry a split: a top's
    leg sum is at most 2g - 2, a bottom's at least 2g, the bottoms' total
    at least 2E - 2b + 2 (sum of bottom genera), and each slot has the
    3 - 2g - d legs it needs to be stable at its largest degree d
    (E - t + 1 for a top, E - b + 1 for a bottom).  Given ``sides``, leg i
    runs over the tops only where sides[i] is True and over the bottoms
    only where it is False: the same list, less the assignments that put a
    forced leg on the other side.

    A depth-first search over the legs counts the tops over their bound,
    the bottoms under theirs and the legs the slots lack, and drops a
    branch once the negative legs, the positive legs or all the legs still
    to place are too few for them, or the positive legs too small for the
    bottoms' total."""
    n, V = len(orders), len(gvec)
    b = V - t
    # over the legs from i on: positive sum, negative and positive count
    rest = [(0, 0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        pos, neg_ct, pos_ct = rest[i + 1]
        rest[i] = (pos + max(orders[i], 0), neg_ct + (orders[i] < 0),
                   pos_ct + (orders[i] > 0))
    # gap[j] > 0: a top's leg sum over its bound, a bottom's under it
    gap = [2 - 2 * gv for gv in gvec[:t]] + [2 * gv for gv in gvec[t:]]
    # lack[j] > 0: legs slot j still needs to be stable at its largest degree
    lack = [max(0, 2 - 2 * gv - E + t) for gv in gvec[:t]] + \
        [max(0, 2 - 2 * gv - E + b) for gv in gvec[t:]]
    bottoms_lo = 2 * E - 2 * b + 2 * sum(gvec[t:])
    assign = [0] * n
    out: list[tuple[int, ...]] = []
    slots = [range(V) if sides is None or sides[i] is None else
             range(t) if sides[i] else range(t, V) for i in range(n)]

    def place(i: int, bottoms: int, over: int, under: int, lacking: int) -> None:
        if i == n:
            out.append(tuple(assign))
            return
        o = orders[i]
        pos, neg_ct, pos_ct = rest[i + 1]
        for slot in slots[i]:
            old = gap[slot]
            new = old + o if slot < t else old - o
            moved = (new > 0) - (old > 0)
            if slot < t:
                ov, un, bsum = over + moved, under, bottoms
            else:
                ov, un, bsum = over, under + moved, bottoms + o
            short = lacking - (lack[slot] > 0)
            if ov <= neg_ct and un <= pos_ct and short < n - i \
                    and bsum + pos >= bottoms_lo:
                gap[slot] = new
                lack[slot] -= 1
                assign[i] = slot
                place(i + 1, bsum, ov, un, short)
                lack[slot] += 1
                gap[slot] = old

    place(0, 0, sum(x > 0 for x in gap[:t]), sum(x > 0 for x in gap[t:]), sum(lack))
    return out


def _genus_vectors_up_to(total: int, nv: int):
    """Genus assignments with sum <= total; the difference goes to the
    first Betti number of the local graph."""
    if nv == 0:
        yield ()
        return
    for g0 in range(total + 1):
        for rest in _genus_vectors_up_to(total - g0, nv - 1):
            yield (g0,) + rest


def _split_connected(t: int, b: int, edges: list[tuple[int, int, int]]) -> bool:
    return len(set(_roots(t + b, [(ti, t + bi) for (ti, bi, _) in edges]))) == 1


def _split_candidates(spec: StratumSpec, sides: dict[Point, bool] | None = None
                      ) -> Iterator[LevelGraph]:
    """Every assembled two-level splitting of the trivial graph of the
    stratum, realizable or not; given ``sides``, only those that put each
    of its points on top (True) or at the bottom (False).

    Each component is placed by one split of its points: a (tops, bots,
    new edges) triple from ``_piece_splits_by_orders`` with leg indices
    read as points, or the whole component on top, ``((genus, all
    points),), (), ()``, or at the bottom, ``(), ((genus, all points),),
    ()``.  A choice of one split per component is kept when something
    lands on each side."""
    options: list[list[tuple]] = []
    for ci, (genus, orders) in enumerate(spec.components):
        points = tuple((ci, pi) for pi in range(len(orders)))
        whole = ((genus, points),)
        forced = None if sides is None else [sides.get(pt) for pt in points]
        opts = [opt for opt, against in (((whole, (), ()), False), (((), whole, ()), True))
                if forced is None or against not in forced]
        for split in _piece_splits_by_orders(genus, orders, forced):
            tops, bots = (tuple((gv, tuple(points[li] for li in lis)) for gv, lis in side)
                          for side in split[:2])
            opts.append((tops, bots, split[2]))
        options.append(opts)

    for choice in itertools.product(*options):
        if any(tops for tops, _, _ in choice) and any(bots for _, bots, _ in choice):
            yield _assemble_split(choice)


def _assemble_split(choice: Sequence[tuple]) -> LevelGraph:
    """The graph of one choice of ``_split_candidates``: per choice its
    tops on level 0 and its bottoms on level -1, and its new edges."""
    genera: list[int] = []
    levels: list[int] = []
    legs: list[tuple[Point, int]] = []
    edges: list[tuple[int, int, int]] = []
    for tops, bots, sedges in choice:
        base_top = len(genera)
        base_bot = base_top + len(tops)
        for gv, points in tops + bots:
            nv = len(genera)
            genera.append(gv)
            levels.append(0 if nv < base_bot else -1)
            legs += [(pt, nv) for pt in points]
        edges += [(base_top + ti, base_bot + bi, k) for (ti, bi, k) in sedges]
    return LevelGraph(tuple(genera), tuple(levels), tuple(sorted(legs)), tuple(edges))


def level_splits(g: LevelGraph, spec: StratumSpec, lev: int,
                 sides: dict[Point, bool] | None = None
                 ) -> list[tuple[LevelGraph, dict[int, int]]]:
    """The one-step degenerations of g that split level ``lev``, each with
    the map from old edge indices to new edge indices: one per two-level
    graph of the level stratum (``enumerate_LG1`` of its entry of
    :func:`level_strata`), glued back into g.  So each labelled splitting
    of the level comes once, and each is realizable, since the level
    stratum's enumeration judged it.

    The divisor's points go back to their tags through
    :func:`level_positions`.  The vertices off the level come first in
    their order, those below it one level lower, then the divisor's
    vertices on levels ``lev`` and ``lev - 1``; the divisor's edges come
    first, then the old edges in their order.  Not canonicalized:
    automorphisms of g may identify two splits.  The level stratum of a
    trivial graph is ``spec`` up to the order of its components and parts
    and without its unconstrained parts, so the splits of a trivial graph
    are the two-level graphs of ``spec`` itself, under its own memo key.

    Given ``sides``, a side for some of g's legs on the level (True: the
    upper part), only the splits that put those legs there are listed:
    the full list filtered, in its order (see :func:`_divisors_on_sides`).
    """
    if lev == 0 and g.is_trivial():
        return [(d, {}) for d in _divisors_on_sides(spec, sides)]
    positions = level_positions(g, spec, lev)
    tag_of = {p: tag for tag, p in positions.items()}
    if sides is not None:
        sides = {positions[("leg", pt)]: up for pt, up in sides.items()}
    kept = [v for v in range(g.n_vertices) if g.levels[v] != lev]
    new_of = {v: i for i, v in enumerate(kept)}
    genera = tuple(g.genera[v] for v in kept)
    levels = tuple(x if x > lev else x - 1 for x in (g.levels[v] for v in kept))
    legs = [(pt, new_of[v]) for pt, v in g.legs if v in new_of]
    out = []
    for d in _divisors_on_sides(level_strata(g, spec)[-lev], sides):
        base = len(kept)
        d_legs = list(legs)
        ends: dict[LegTag, int] = {}
        for p, w in d.legs:
            tag = tag_of[p]
            if tag[0] == "leg":
                d_legs.append((tag[1], base + w))
            else:
                ends[tag] = base + w
        edges = [(base + u, base + w, k) for (u, w, k) in d.edges]
        edges += [(new_of[u] if u in new_of else ends[("eout", ei)],
                   new_of[w] if w in new_of else ends[("ein", ei)], k)
                  for ei, (u, w, k) in enumerate(g.edges)]
        graph = LevelGraph(genera + d.genera, levels + tuple(lev + x for x in d.levels),
                           tuple(sorted(d_legs)), tuple(edges))
        out.append((graph, {ei: len(d.edges) + ei for ei in range(len(g.edges))}))
    return out


_ENUM_CACHE: dict[tuple, tuple[LevelGraph, ...]] = caches.memo("levelgraphs.enumerate_LGL")


def _divisors_on_sides(spec: StratumSpec, sides: dict[Point, bool] | None
                       ) -> Sequence[LevelGraph]:
    """``enumerate_LG1(spec)``, or given nonempty ``sides``, its entries
    that put each point of ``sides`` on top (True) or at the bottom
    (False), in its order.  The memo's full list is filtered where it is
    there.  Otherwise only the candidates with those sides are built
    (``_split_candidates``), each class judged once on its canonical graph
    as :func:`enumerate_LGL` judges it, and neither the list nor the
    candidates' encodings enter a memo, which holds full lists only."""
    if not sides:
        return enumerate_LG1(spec)
    full = _ENUM_CACHE.get((spec, 1))
    if full is not None:
        return [d for d in full
                if all((d.levels[v] == 0) == sides[pt] for pt, v in d.legs if pt in sides)]
    if dimension(spec).projectivized < 1:
        return []
    found: dict[tuple, LevelGraph | None] = {}
    for cand in _split_candidates(spec, sides):
        hit = _CANON_CACHE.get(cand)
        enc = hit[0] if hit else _minimal_orderings(cand)[0]
        if enc not in found:
            h = _from_encoding(*enc)
            found[enc] = None if realizability_issues(h, spec) else h
    return [h for _, h in sorted(found.items()) if h is not None]


def enumerate_LGL(spec: StratumSpec, L: int) -> tuple[LevelGraph, ...]:
    """All realizable enhanced level graphs with L levels below zero and no
    horizontal edges, as canonical representatives sorted by encoding.

    The two-level graphs are the realizable splits of the trivial graph
    (``_split_candidates``), each class judged once, on its canonical
    graph.  For L >= 2 the L-level graphs are the splits of the bottom
    level of each (L-1)-level graph (merging the two lowest levels of an
    L-level graph, delta_{1..L-1}, gives one of those), and the splits of
    a level are the two-level graphs of its level stratum glued back in
    (:func:`level_splits`), realizable without a further verdict.  Every
    L first judges the ambient stratum on its trivial graph (L = 0), so a
    stratum that is not realizable, one of negative dimension among them,
    raises ``SpecError`` at every L."""
    key = (spec, L)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    d = dimension(spec).projectivized  # an invalid spec is never cached: it raises on every call
    if L < 0:
        raise ValueError("negative number of levels")
    if L == 0:
        # validate covers all of the trivial graph's soundness but the
        # stability of a component of a disconnected spec
        triv = canonicalize(trivial_graph(spec))
        special = Counter(v for _, v in triv.legs)
        issues = [f"vertex {v}: unstable" for v, genus in enumerate(triv.genera)
                  if 2 * genus - 2 + special[v] <= 0] or realizability_issues(triv, spec)
        if issues:
            raise SpecError("ambient stratum not realizable: " + "; ".join(issues))
        _ENUM_CACHE[key] = (triv,)
        return _ENUM_CACHE[key]
    if L > d:
        enumerate_LGL(spec, 0)  # the stratum's verdict first
        _ENUM_CACHE[key] = ()
        return ()
    found: dict[tuple, LevelGraph] = {}
    seen: set[tuple] = set()
    for g in enumerate_LGL(spec, L - 1):
        cands = (_split_candidates(spec) if L == 1 else
                 (cand for cand, _ in level_splits(g, spec, -g.n_levels_below)))
        for cand in cands:
            enc, orders = _canonical(cand)
            if enc in seen:
                continue
            seen.add(enc)
            h = _from_encoding(*enc)
            # h's vertex j is cand's vertex orders[0][j]; _orderings yields
            # in lexicographic order, so the sorted images of cand's
            # minimizing orderings are h's own list
            inv = {v: j for j, v in enumerate(orders[0])}
            _CANON_CACHE[h] = (enc, tuple(sorted(tuple(inv[v] for v in o)
                                                 for o in orders)))
            if L >= 2 or not realizability_issues(h, spec):
                found[enc] = h
    graphs = tuple(found[k] for k in sorted(found))
    _ENUM_CACHE[key] = graphs
    return graphs


def enumerate_LG1(spec: StratumSpec) -> tuple[LevelGraph, ...]:
    return enumerate_LGL(spec, 1)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def profile(g: LevelGraph, spec: StratumSpec) -> tuple[int, ...]:
    """The indices in ``enumerate_LG1(spec)``, which is sorted by canonical
    encoding, of the two-level undegenerations delta_1, ..., delta_L of g."""
    lg1 = enumerate_LG1(spec)
    out = []
    for i in range(1, g.n_levels_below + 1):
        enc = canonical_encoding(undegenerate(g, [i])[0])
        j = bisect.bisect_left(lg1, enc, key=canonical_encoding)
        if j == len(lg1) or canonical_encoding(lg1[j]) != enc:
            raise EnumerationError("undegeneration missing from LG_1 list")
        out.append(j)
    return tuple(out)


def check_profile_order(profiles: Iterable[tuple[int, ...]]) -> None:
    """Prop.-style consistency of the profiles of one L: no repeated
    entries, and each unordered index set occurs with a single ordering."""
    seen: dict[frozenset, tuple] = {}
    for p in profiles:
        if len(set(p)) != len(p):
            raise EnumerationError(f"repeated index in profile {p}")
        key = frozenset(p)
        if key in seen and seen[key] != p:
            raise EnumerationError(
                f"profiles {seen[key]} and {p} share an index set")
        seen[key] = p


def profile_order_check(spec: StratumSpec, max_L: int | None = None
                        ) -> dict[int, list[tuple[int, ...]]]:
    """The profiles of every L from 1 up to the dimension, or to ``max_L``,
    each L's list passed through :func:`check_profile_order`."""
    enumerate_LGL(spec, 0)  # the stratum's verdict, which no L below gives when top < 1
    d = dimension(spec).projectivized
    top = d if max_L is None else min(d, max_L)
    out = {}
    for L in range(1, top + 1):
        out[L] = [profile(g, spec) for g in enumerate_LGL(spec, L)]
        check_profile_order(out[L])
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def graph_report(g: LevelGraph, spec: StratumSpec) -> dict:
    pd = prong_data(g)
    levels = []
    for i, sub in enumerate(level_strata(g, spec)):
        dd = dimension(sub)
        levels.append({"level": -i, "spec": sub.to_json_obj(),
                       "dim": dd.projectivized, "dim_unproj": dd.unprojectivized})
    return {
        "vertices": [{"genus": gv, "level": lv}
                     for gv, lv in zip(g.genera, g.levels)],
        "legs": [[list(pt), v] for pt, v in g.legs],
        "edges": [[u, v, k] for (u, v, k) in g.edges],
        "prongs": {"ell": pd.ell, "ell_levels": list(pd.ell_levels),
                   "kappa_product": pd.kappa_product, "orbits": pd.orbits,
                   "twist_index": pd.twist_index, "aut": pd.aut_order},
        "profile": list(profile(g, spec)),
        "levels": levels,
    }


def horizontal_divisor_present(spec: StratumSpec) -> bool:
    """Whether the boundary contains the horizontal divisor (an irreducible
    curve with one non-separating horizontal node); bookkeeping only."""
    return any(g >= 1 for g, _ in spec.components)
