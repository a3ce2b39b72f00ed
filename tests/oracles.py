"""Reference implementations that only the tests use: each is checked
against the library routine it shadows, or checks what the library builds.

- ``structural_issues``: the structural half of the realizability
  predicate (legs, degree equations, stability, descent, nonempty levels,
  connectivity and genus per ambient component).  Enumeration builds
  every graph it judges with all of these by construction, so the library
  judges only the level part (``levelgraphs.realizability_issues``); this
  oracle checks every graph that enumeration returns and screens the
  candidates of the reference split searches, which are not sound by
  construction.
- ``record_realizability_issues``: the level part of the realizability
  predicate read from the level-strata record of every graph, the way
  ``levelgraphs.realizability_issues`` reads it only where a level can
  get a residue condition.
- ``orbit_count_bfs``: the breadth-first orbit count behind
  ``exact.orbit_count``.
- ``evaluate_generator``: the integral of a graph decorated with psi
  exponents, through ``tautring.integrate`` of the one-term class.
- ``integrate_every_term``: ``tautring.integrate`` with every top-degree
  term lam-expanded and integrated, none skipped for its level degrees.
- ``c1_direct``: the first Chern class of the log cotangent bundle from
  its closed formula, which degree 1 of ``invariants.chern_class_terms``
  is checked against.
- ``remove_residue_condition``: the class of a residue-constrained stratum
  inside the stratum without the part, the class-level form of the
  relation ``Evaluator._remove_condition`` evaluates.
- ``refined_minimal_orderings``: ``levelgraphs._minimal_orderings`` over
  vertex keys that are refined on every graph
  (``refined_vertex_keys``), also where the initial keys are already
  pairwise distinct and the library returns them as they are.
- ``undegeneration_structures_unchecked``: the edge correspondences of
  ``tautring._undegeneration_structures`` from the contraction and
  ``graph_isomorphisms`` alone, with no invariant compared first.
"""
from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Mapping, Sequence

from stratacalc import levelgraphs as lg
from stratacalc import tautring as tr
from stratacalc.evaluate import Evaluator, removal_divisors, shared_evaluator
from stratacalc.exact import Rational
from stratacalc.levelgraphs import LevelGraph, _roots
from stratacalc.strata import ResiduePart, StratumSpec, dimension, require_valid


def structural_issues(g: LevelGraph, spec: StratumSpec) -> list[str]:
    issues = []
    legv = g.leg_vertex()
    if set(legv) != set(spec.points()):
        issues.append("legs do not match spec points")
    # per-vertex degree and stability
    special = [0] * g.n_vertices
    degsum = [0] * g.n_vertices
    for pt, v in g.legs:
        special[v] += 1
        degsum[v] += spec.order(pt)
    for (u, v, k) in g.edges:
        if k < 1:
            issues.append("nonpositive enhancement")
        if g.levels[u] <= g.levels[v]:
            issues.append("edge does not descend")
        special[u] += 1
        special[v] += 1
        degsum[u] += k - 1
        degsum[v] += -k - 1
    for v in range(g.n_vertices):
        if degsum[v] != 2 * g.genera[v] - 2:
            issues.append(f"vertex {v}: degree equation fails")
        if 2 * g.genera[v] - 2 + special[v] <= 0:
            issues.append(f"vertex {v}: unstable")
    L = g.n_levels_below
    for lev in range(0, -L - 1, -1):
        if not g.vertices_at(lev):
            issues.append(f"level {lev} empty")
    # connectivity and genus per ambient component
    root = _roots(g.n_vertices, [(u, v) for (u, v, _) in g.edges])
    comp_of_piece: dict[int, int] = {}
    for pt, v in g.legs:
        r = root[v]
        if r in comp_of_piece and comp_of_piece[r] != pt[0]:
            issues.append("a connected piece carries legs of two components")
        comp_of_piece[r] = pt[0]
    pieces: dict[int, list[int]] = {}
    for v in range(g.n_vertices):
        pieces.setdefault(root[v], []).append(v)
    if len(pieces) != spec.n_components:
        issues.append("piece count differs from component count")
    for r, vs in pieces.items():
        if r not in comp_of_piece:
            issues.append("piece without legs")
            continue
        ci = comp_of_piece[r]
        ne = sum(1 for (u, v, _) in g.edges if root[u] == r)
        btotal = sum(g.genera[v] for v in vs) + ne - (len(vs) - 1)
        if btotal != spec.components[ci][0]:
            issues.append(f"piece of component {ci}: genus mismatch")
    return issues


def realizability_verdict(g: LevelGraph, spec: StratumSpec) -> list[str]:
    """The verdict on any labelled graph, sound or not: the structural
    oracle, then the library's level part, which is defined only on
    structurally sound graphs."""
    return structural_issues(g, spec) or lg.realizability_issues(g, spec)


def record_realizability_issues(g: LevelGraph, spec: StratumSpec) -> list[str]:
    """The level part of the verdict from each level's residue record:
    negative level dimensions, simple poles with identically vanishing
    residue and the genus-0 zero-residue obstruction, level by level from
    the top.  Raises as the library does: ``SpecError`` on a level spec
    whose orders do not add up, ``EnumerationError`` when the level
    dimensions of a realizable graph do not add up to the stratum's."""
    issues: list[str] = []
    nsum = 0
    for i, sub in enumerate(lg.level_strata(g, spec)):
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
            if not lg._genus0_zero_residue_ok(sub, cj, dd):
                issues.append(f"level {lev}: genus-0 zero-residue obstruction")
    if not issues:
        total = dimension(spec).unprojectivized
        if nsum != total:
            raise lg.EnumerationError(
                f"level dimension sum {nsum} != stratum dimension {total}")
    return issues


def orbit_count_bfs(moduli: Sequence[int], action_rows: Sequence[Sequence[int]]) -> int:
    """Explicit breadth-first orbit count; the permanent test oracle for
    :func:`orbit_count`.  Exponential in the state space, use on small input.
    """
    n = len(moduli)
    if n == 0:
        return 1
    total = 1
    for k in moduli:
        total *= k
    seen: set[tuple[int, ...]] = set()
    orbits = 0
    for start_idx in range(total):
        # decode mixed-radix index
        x = []
        t = start_idx
        for k in moduli:
            x.append(t % k)
            t //= k
        start = tuple(x)
        if start in seen:
            continue
        orbits += 1
        dq = deque([start])
        seen.add(start)
        while dq:
            cur = dq.popleft()
            for row in action_rows:
                for sign in (1, -1):
                    nxt = tuple((c + sign * r) % k for c, r, k in zip(cur, row, moduli))
                    if nxt not in seen:
                        seen.add(nxt)
                        dq.append(nxt)
    return orbits


def evaluate_generator(spec: StratumSpec, g: LevelGraph,
                       psi_exponents: Mapping[tr.Symbol, int],
                       evaluator: Evaluator | None = None) -> Rational:
    """Integral of an additive generator: a graph decorated with per-level
    psi-monomials (keys are point tags as in the decoration symbols)."""
    decor = tr._decor({("psi", tag): e for tag, e in psi_exponents.items()})
    deg = g.n_levels_below + tr.decor_degree(decor)
    if deg != dimension(spec).projectivized:
        raise ValueError("generator degree differs from ambient dimension")
    return tr.integrate(tr.TautClass(spec, {(g, decor): 1}), evaluator)


def integrate_every_term(cls: tr.TautClass, evaluator: Evaluator | None = None) -> Rational:
    """Sum of the integrals of the top-degree terms, each expanded lam-free
    and integrated by ``Evaluator.boundary_integral``, whatever its degree
    on each level."""
    ev = evaluator or shared_evaluator()
    d = dimension(cls.spec).projectivized
    total = Fraction(0)
    for (g, dec), c in cls.terms.items():
        if g.n_levels_below + tr.decor_degree(dec) != d:
            continue
        for fine, fine_decor, cc in tr._lam_free_terms(cls.spec, g, dec, c):
            psi = {s[1]: e for s, e in fine_decor if s[0] == "psi"}
            xi = {s[1]: e for s, e in fine_decor if s[0] == "xi"}
            total += cc * ev.boundary_integral(cls.spec, fine, psi, xi)
    return total


def c1_direct(spec: StratumSpec) -> tr.TautClass:
    """N xi + sum over divisors of (N - N_top) ell [D]."""
    n_unproj = dimension(spec).unprojectivized
    out = tr.TautClass.xi(spec).scale(n_unproj)
    for g in lg.enumerate_LG1(spec):
        ntop = dimension(lg.level_strata(g, spec)[0]).unprojectivized
        out.add_term(g, (), (n_unproj - ntop) * lg.prong_data(g).ell)
    return out


def remove_residue_condition(spec: StratumSpec, part: ResiduePart) -> tr.TautClass:
    """The class of the residue-constrained stratum inside the stratum
    without the chosen part.  Returns the fundamental class when dropping
    the part does not change the dimension."""
    require_valid(spec)
    if part not in spec.residue_parts or not part.constrained:
        raise ValueError("part is not a constrained part of the spec")
    spec0 = spec.drop_part(part)
    if dimension(spec0).projectivized == dimension(spec).projectivized:
        return tr.TautClass.boundary(spec0, lg.trivial_graph(spec0))
    out = tr.TautClass.xi(spec0).scale(-1)
    for g, ell in removal_divisors(spec0, part):
        out.add_term(g, (), -ell)
    return out


def refined_vertex_keys(g: LevelGraph) -> list[tuple]:
    """(level, genus, legs) per vertex, refined by the edge profiles until
    the number of classes stops growing, on every graph."""
    legs_of: dict[int, list] = {v: [] for v in range(g.n_vertices)}
    for pt, v in g.legs:
        legs_of[v].append(pt)
    keys = [(g.levels[v], g.genera[v], tuple(sorted(legs_of[v])))
            for v in range(g.n_vertices)]
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


def refined_minimal_orderings(g: LevelGraph) -> tuple[tuple, list[list[int]]]:
    """The least encoding over the orderings that list the classes of
    ``refined_vertex_keys`` in sorted order, each class in any order, and
    every ordering that reaches it."""
    groups: dict[tuple, list[int]] = {}
    for v, key in enumerate(refined_vertex_keys(g)):
        groups.setdefault(key, []).append(v)
    best, argmin = None, []
    for choice in itertools.product(
            *[itertools.permutations(groups[k]) for k in sorted(groups)]):
        order = [v for grp in choice for v in grp]
        enc = lg._encode(g, order, g.edges)
        if best is None or enc < best:
            best, argmin = enc, [order]
        elif enc == best:
            argmin.append(order)
    return best, argmin


def undegeneration_structures_unchecked(fine: LevelGraph, passages: tuple[int, ...],
                                        coarse: LevelGraph) -> list[dict[int, int]]:
    """Every way delta_I(fine) is isomorphic to ``coarse``, one edge
    correspondence (coarse index -> fine index) each, read off the
    isomorphisms of the contracted graph."""
    contracted, emap = lg.undegenerate(fine, passages)
    inv = {new: old for old, new in emap.items()}
    return [{ce: inv[iso_emap[ce]] for ce in range(len(coarse.edges))}
            for _, iso_emap in lg.graph_isomorphisms(coarse, contracted)]
