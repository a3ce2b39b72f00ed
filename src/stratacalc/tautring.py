"""The tautological-ring calculus on compactified generalized strata.

Classes are exact-rational combinations of decorated boundary strata
(Gamma, monomial), where the monomial mixes per-level tautological-line
classes xi^{[i]}, per-level boundary classes lam^{[i]} (the weighted sum of
the one-step degenerations of level i), and psi-classes at marked points or
edge half-points.  A term stands for the pushforward to the ambient stratum
of the class on D_Gamma whose pullback to the level-product cover is the
product of the per-level pieces; its integral is
K/(|Aut| ell) times the product of the level integrals
(``Evaluator.boundary_integral``).

Every decoration reaches a degeneration through one transfer: a coarse
level's xi and lam move to the top of its fine levels, an edge psi follows
its edge, and lam on a level split in two restricts to lam + xi of the
lower part - xi of the upper part.  One generator yields the one-step
splits of a level, each with the transferred decoration and its decorated
canonical key.  Integrals and products first expand every lam-class, depth
first, over those splits into deeper strata.  An integral first drops every
top-degree term whose degree on some level (its xi and lam there, and the
psi at the legs and edge half-points on it) differs from that level's
dimension: a level integral of the wrong degree is zero, and expanding lam
on a level gives two levels whose dimensions and whose share of the rest of
the decoration both add up to one less, so the mismatch never goes away.
On the top Chern class that leaves one term per level graph, the graph's
Euler row.  Products are then computed
by the excess-intersection formula.  One walk of the level splittings of
a first term gives its degenerations k splits deep for every second term;
each meets a second term, of L2 levels below, through c = L2 - k of the
first term's passages in common, chosen among them directly, and every
common passage contributes a normal-bundle factor

    nu_i = (-xi^{[-i+1]} - lam^{[-i+1]} + xi^{[-i]}) / ell_i.

A trivial second term is the case c = 0, with nothing in common and one
isomorphism: its xi lands on the top level and its psi stays where it is.

The walk splits only towards the second terms.  Its new passages are
always among those a fine graph keeps to meet a second term, so the legs
above a new passage must end strictly above the legs below it in that
term: a level is split only where some second term allows it, and a
split only where its legs went to the sides that term needs.  A leg with
one allowed side is forced there in ``lg.level_splits``, which then
builds no split that puts it on the other.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from .exact import Rational, fraction_sum, multinomial, rational_str
from .strata import Point, StratumSpec, dimension
from . import levelgraphs as lg
from .evaluate import Evaluator, divisors_with_point_low, shared_evaluator

# decoration symbols
#   ("psi", tag)   tag = ("leg", point) | ("ein", ei) | ("eout", ei)
#   ("xi", level)  the level tautological class
#   ("lam", level) sum of ell_new [D] over one-step splits of the level
Symbol = tuple
Decor = tuple  # sorted tuple of (Symbol, exponent)
Poly = dict    # Decor -> int or Fraction: int until a genuinely rational scale


def _decor(d: Mapping[Symbol, int]) -> Decor:
    return tuple(sorted((s, e) for s, e in d.items() if e))


def _dmul(a: Decor, b: Decor) -> Decor:
    out = dict(a)
    for s, e in b:
        out[s] = out.get(s, 0) + e
    return _decor(out)


def poly_one() -> Poly:
    return {(): 1}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = _dmul(da, db)
            out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def poly_scale(a: Poly, c: Rational | int) -> Poly:
    return {d: y for d, x in a.items() if (y := x * c)}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


def poly_pow(a: Poly, n: int) -> Poly:
    out = poly_one()
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def decor_degree(d: Decor) -> int:
    return sum(e for _, e in d)


def nu_poly(g: lg.LevelGraph, passage: int) -> Poly:
    """First Chern class nu_i of the normal bundle of D_Gamma inside the
    stratum where the given level passage i is undone: :func:`scaled_nu_power`
    (passage, 1) over ell_i, the one factor that depends on Gamma."""
    return poly_scale(scaled_nu_power(passage, 1),
                      Fraction(1, lg.prong_data(g).ell_levels[passage - 1]))


def scaled_nu_power(passage: int, k: int) -> Poly:
    """(ell_i nu_i)^k for passage i, where ell_i nu_i = -xi^{[-i+1]} -
    lam^{[-i+1]} + xi^{[-i]} does not depend on the graph: the multinomial
    expansion, with integer coefficients."""
    top, bot = -passage + 1, -passage
    return {_decor({("xi", top): a, ("lam", top): b, ("xi", bot): k - a - b}):
            (-1) ** (a + b) * multinomial(k, (a, b, k - a - b))
            for a in range(k + 1) for b in range(k - a + 1)}


# ---------------------------------------------------------------------------
# canonical decorated form
# ---------------------------------------------------------------------------

def canonical_decorated(g: lg.LevelGraph, decor: Decor) -> tuple[lg.LevelGraph, Decor]:
    """Canonical representative of an isomorphism class of decorated graphs.
    The psi exponents at edge half-points move with their edges, so
    decorations on interchangeable parallel edges are ordered canonically."""
    labels = [[0, 0] for _ in g.edges]  # (ein, eout) exponents per edge
    rest = {}
    for s, e in decor:
        if s[0] == "psi" and s[1][0] == "ein":
            labels[s[1][1]][0] = e
        elif s[0] == "psi" and s[1][0] == "eout":
            labels[s[1][1]][1] = e
        else:
            rest[s] = e
    if not any(map(any, labels)):
        return lg.canonicalize(g), _decor(rest)
    graph, moved = lg.canonicalize_labelled(g, [tuple(lab) for lab in labels])
    for i, (ein, eout) in enumerate(moved):
        rest[("psi", ("ein", i))] = ein
        rest[("psi", ("eout", i))] = eout
    return graph, _decor(rest)


# ---------------------------------------------------------------------------
# TautClass
# ---------------------------------------------------------------------------

def _check_exact(c) -> None:
    """Coefficients are exact: an int (not a bool) or a Fraction."""
    if type(c) is not int and not isinstance(c, Fraction):
        raise TypeError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")


class TautClass:
    """Exact-rational combination of decorated boundary-stratum classes of
    a fixed ambient generalized stratum."""

    def __init__(self, spec: StratumSpec,
                 terms: Mapping[tuple[lg.LevelGraph, Decor], Rational | int] | None = None):
        self.spec = spec
        self._dim = dimension(spec).projectivized
        # coefficients are ints until a genuinely rational scale, else Fractions
        self.terms: dict[tuple[lg.LevelGraph, Decor], int | Fraction] = {}
        if terms:
            for (g, d), c in terms.items():
                self.add_term(g, d, c)

    # -- construction ------------------------------------------------------

    @staticmethod
    def xi(spec: StratumSpec, power: int = 1) -> "TautClass":
        out = TautClass(spec)
        out.add_term(lg.trivial_graph(spec), _decor({("xi", 0): power}), 1)
        return out

    @staticmethod
    def psi(spec: StratumSpec, point: Point, power: int = 1) -> "TautClass":
        out = TautClass(spec)
        out.add_term(lg.trivial_graph(spec),
                     _decor({("psi", ("leg", point)): power}), 1)
        return out

    @staticmethod
    def boundary(spec: StratumSpec, graph: lg.LevelGraph) -> "TautClass":
        out = TautClass(spec)
        out.add_term(graph, (), 1)
        return out

    def add_term(self, g: lg.LevelGraph, decor: Decor, coeff: Rational | int) -> None:
        _check_exact(coeff)
        if not coeff:
            return
        # classes of degree above the dimension vanish
        if g.n_levels_below + decor_degree(decor) > self._dim:
            return
        key = canonical_decorated(g, decor)
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def _merge(self, items, scale: Rational | int = 1) -> None:
        """``add_term(g, d, c * scale)`` for every ((g, d), c) of ``items``,
        trusted: every (g, d) is its own canonical form, of degree at most
        the dimension, and the coefficients are exact, as in the terms of
        another class of this stratum.  So neither the canonical form nor
        the checks run."""
        terms = self.terms
        for key, c in items:
            new = terms.get(key, 0) + c * scale
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)

    def _add_canonical(self, g: lg.LevelGraph, poly: Poly, scale: Rational | int) -> None:
        """:meth:`_merge` of the terms (g, d) of ``poly``: g is its own
        canonical form under decorations without edge psi, and every d is
        such a decoration.  The Chern graph sums add their terms this way."""
        self._merge((((g, d), c) for d, c in poly.items()), scale)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "TautClass") -> "TautClass":
        if other.spec != self.spec:
            raise ValueError("mixed ambient strata")
        out = TautClass(self.spec)
        out.terms = dict(self.terms)
        out._merge(other.terms.items())
        return out

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + other.scale(-1)

    def scale(self, c: Rational | int) -> "TautClass":
        _check_exact(c)
        out = TautClass(self.spec)
        out.terms = {key: y for key, x in self.terms.items() if (y := x * c)}
        return out

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> list:
        out = []
        for (g, d), c in sorted(self.terms.items(),
                                key=lambda kv: (lg.canonical_encoding(kv[0][0]), kv[0][1])):
            psi = {}
            other = {}
            for s, e in d:
                if s[0] == "psi":
                    psi[repr(s[1])] = e
                else:
                    other[f"{s[0]}[{s[1]}]"] = e
            out.append({"graph": repr(lg.canonical_encoding(g)),
                        "psi": psi, "classes": other,
                        "coeff": rational_str(c)})
        return out


# ---------------------------------------------------------------------------
# decoration transfer onto a degeneration
# ---------------------------------------------------------------------------

def _transfer(decor: Decor, fine: lg.LevelGraph, passages: tuple[int, ...],
              edge_corr: Mapping[int, int]) -> Poly:
    """Rewrite a decoration on a coarse graph as a polynomial on a fine
    graph that degenerates it.  ``passages`` are the sorted positions of the
    coarse passages in the fine graph, so coarse level -m begins at fine
    level -passages[m-1] (the top at 0), where its xi and lam move;
    edge_corr maps coarse edge indices to fine ones.  lam on a level that
    the fine graph splits in two restricts to lam + xi of the lower part -
    xi of the upper part, so a lam-free decoration gives one term with
    coefficient 1."""
    if not decor:
        return {(): 1}
    tops = (0,) + passages
    moved: dict[Symbol, int] = {}
    split = []
    for s, e in decor:
        kind, x = s
        if kind == "psi":
            if x[0] != "leg":
                s = ("psi", (x[0], edge_corr[x[1]]))
        elif kind in ("xi", "lam"):
            top = tops[-x]
            s = (kind, -top)
            if kind == "lam":
                parts = (tops + (fine.n_levels_below + 1,))[1 - x] - top
                if parts > 2:
                    raise ValueError("lam on a level split more than once")
                if parts == 2:
                    split.append((-top, e))
                    continue
        else:
            raise ValueError(f"unknown symbol {s}")
        moved[s] = e
    out = {_decor(moved): 1}
    for lev, e in split:
        sub = {_decor({("lam", lev - 1): 1}): 1, _decor({("xi", lev - 1): 1}): 1,
               _decor({("xi", lev): 1}): -1}
        out = poly_mul(out, poly_pow(sub, e))
    return out


def _decorated_splits(spec: StratumSpec, g: lg.LevelGraph, lev: int, decor: Decor,
                      tracked: tuple[int, ...], ups: set[frozenset] | None = None):
    """The one-step splits of a level of g with the decoration transferred:
    (split, positions of the ``tracked`` passages of g in it, transferred
    polynomial, key).  The monomials of a split differ only off its edges,
    and alike for every split of the level, so the ``canonical_decorated``
    form of the first monomial keys the decorated split.  Given ``ups``
    (see :func:`_side_plan`), only the splits whose upper part carries one
    of its sets of the level's legs are kept, before any transfer; a leg
    that goes to one side in every set is forced there in
    ``lg.level_splits``, which then builds no split with it elsewhere."""
    passages = tuple(p if -p + 1 > lev else p + 1 for p in range(1, g.n_levels_below + 1))
    tracked = tuple(passages[p - 1] for p in tracked)
    sides = None
    if ups is not None:
        some, every = frozenset.union(*ups), frozenset.intersection(*ups)
        sides = {pt: pt in every for pt, v in g.legs
                 if g.levels[v] == lev and (pt in every or pt not in some)}
    for cand, emap in lg.level_splits(g, spec, lev, sides):
        if ups is not None and \
                frozenset(pt for pt, v in cand.legs if cand.levels[v] == lev) not in ups:
            continue
        poly = _transfer(decor, cand, passages, emap)
        yield cand, tracked, poly, canonical_decorated(cand, next(iter(poly)))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _lam_free_terms(spec: StratumSpec, g: lg.LevelGraph, decor: Decor,
                    coeff: Rational | int):
    """The lam-free terms (graph, decoration, coefficient) of coeff times one
    decorated term, depth first: its first lam-class lam^{[lev]} is the sum
    of ell_new [D] over the one-step splits of the level, one per decorated
    isomorphism class, and each split with the rest of the decoration
    transferred is expanded in turn."""
    lev = next((s[1] for s, _ in decor if s[0] == "lam"), None)
    if lev is None:
        yield g, decor, coeff
        return
    reduced = dict(decor)
    reduced[("lam", lev)] -= 1
    seen = set()
    for cand, _, poly, key in _decorated_splits(spec, g, lev, _decor(reduced), ()):
        if key in seen:
            continue
        seen.add(key)
        ell_new = lg.prong_data(cand).ell_levels[-lev]
        for d2, c2 in poly.items():
            yield from _lam_free_terms(spec, cand, d2, coeff * ell_new * c2)


def _level_degrees(g: lg.LevelGraph, decor: Decor) -> list[int]:
    """The degree of a decoration on each level of g, top first: the
    exponents of xi and lam at the level, of psi at the legs on it, and of
    psi at the edge half-points on it (ein at the edge's lower vertex, eout
    at its upper vertex)."""
    degrees = [0] * (g.n_levels_below + 1)
    legv = g.leg_vertex()
    for (kind, x), e in decor:
        if kind != "psi":
            lev = x
        elif x[0] == "leg":
            lev = g.levels[legv[x[1]]]
        else:
            u, w, _ = g.edges[x[1]]
            lev = g.levels[w if x[0] == "ein" else u]
        degrees[-lev] += e
    return degrees


def integrate(cls: TautClass, evaluator: Evaluator | None = None) -> Rational:
    """Sum of the integrals of the top-degree terms; terms of lower degree
    integrate to zero by convention.  A term's lam-classes are expanded into
    deeper strata, and a lam-free term is ``Evaluator.boundary_integral`` of
    its psi exponents (keyed by tag) and xi exponents (keyed by level),
    taken as an unreduced integer pair; the pairs are added up by
    ``exact.fraction_sum``, so the sum is reduced once.

    A term whose degree on some level differs from that level's
    projectivized dimension is skipped before any expansion, since it
    integrates to zero: a lam-free one has a level integral of the wrong
    degree, and expanding lam on a level gives splits whose two levels have
    dimensions adding up to one less than the level's, while the rest of the
    decoration loses the one degree of that lam and stays on those two
    levels, so every lam-free descendant of the term is again mismatched."""
    ev = evaluator or shared_evaluator()
    spec = cls.spec
    d = dimension(spec).projectivized
    level_dims: dict[lg.LevelGraph, list[int]] = {}
    pairs = []
    for (g, dec), c in cls.terms.items():
        if g.n_levels_below + decor_degree(dec) != d:
            continue
        dims = level_dims.get(g)
        if dims is None:
            dims = level_dims[g] = [dimension(sub).projectivized
                                    for sub in lg.level_strata(g, spec)]
        if _level_degrees(g, dec) != dims:
            continue
        for fine, fine_decor, cc in _lam_free_terms(spec, g, dec, c):
            psi = {s[1]: e for s, e in fine_decor if s[0] == "psi"}
            xi = {s[1]: e for s, e in fine_decor if s[0] == "xi"}
            num, den = ev._boundary_pair(spec, fine, psi, xi)
            pairs.append((cc.numerator * num, cc.denominator * den))
    return fraction_sum(pairs)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _lam_normalize(cls: TautClass) -> TautClass:
    """Expand every lam-symbol into boundary generators."""
    out = TautClass(cls.spec)
    for (g, decor), coeff in cls.terms.items():
        for fine, fine_decor, c in _lam_free_terms(cls.spec, g, decor, coeff):
            out.add_term(fine, fine_decor, c)
    return out


def _undegeneration_structures(fine: lg.LevelGraph, passages: tuple[int, ...],
                               coarse: lg.LevelGraph) -> list[dict[int, int]]:
    """All ways delta_I(fine) is isomorphic to ``coarse``, one edge
    correspondence (coarse index -> fine index) each.  Two invariants of
    delta_I(fine) are compared with ``coarse`` before it is built: the new
    level of each leg, and the sorted (upper level, lower level, kappa)
    list of the edges that survive; most pairs that a product tries differ
    in one of them."""
    nl = lg._delta_levels(fine, passages)
    if sorted((pt, nl[v]) for pt, v in fine.legs) != \
            sorted((pt, coarse.levels[v]) for pt, v in coarse.legs):
        return []
    if sorted((nl[u], nl[v], k) for u, v, k in fine.edges if nl[u] != nl[v]) != \
            sorted((coarse.levels[u], coarse.levels[v], k) for u, v, k in coarse.edges):
        return []
    contracted, emap = lg.undegenerate(fine, passages)
    inv = {new: old for old, new in emap.items()}
    return [{ce: inv[iso_emap[ce]] for ce in range(len(coarse.edges))}
            for _, iso_emap in lg.graph_isomorphisms(coarse, contracted)]


def _side_plan(g: lg.LevelGraph, lev: int,
               seconds: list[tuple[int, dict[Point, int]]]) -> set[frozenset]:
    """The sets of legs on level ``lev`` of g that a split of the level may
    put on its upper part, so that the split can still lead to a graph that
    meets one of the ``seconds``, each (L2, level of each leg) of a second
    term.  Empty: no split of the level can.

    A fine graph meets a second term g2 through delta_I with I holding
    every passage that the walk made, and delta_I keeps the order of levels
    across a kept passage.  So the split's new passage becomes a passage
    of g2, between its levels t and t - 1 for some t in -L2 + 1, ..., 0:
    the legs above the new passage (the legs above ``lev`` and those its
    upper part takes) end at g2 levels >= t and the legs below it at levels
    < t, and the legs on ``lev`` at levels >= t go up.  Legs on one g2
    level go to one side.  For a divisor g2 (L2 = 1) t is 0: the legs
    above ``lev`` must be on its top level, those below on its bottom
    level."""
    above, on, below = [], [], []
    for pt, v in g.legs:
        x = g.levels[v]
        (above if x > lev else on if x == lev else below).append(pt)
    ups = set()
    for L2, level2 in seconds:
        hi = min((level2[pt] for pt in above), default=0)
        lo = max((level2[pt] for pt in below), default=-L2)
        for t in range(lo + 1, hi + 1):
            ups.add(frozenset(pt for pt in on if level2[pt] >= t))
    return ups


def _degenerations_of(spec: StratumSpec, g: lg.LevelGraph, decor: Decor, extra: int,
                      seconds: list[tuple[int, dict[Point, int]]] | None = None
                      ) -> list[list[tuple]]:
    """Iterated one-step splits of g with its lam-free decoration
    transferred, from one walk: layer k lists the (graph, decoration,
    positions of g's passages) triples k splits deep, deduplicated by
    decorated isomorphism class and passages.  Layer 0 is g itself.

    Given the ``seconds`` of a product, each (L2, level of each leg) of a
    lam-free second term, a split that makes layer k is kept only where
    :func:`_side_plan` allows it for a second term with L2 >= k, the union
    of what they allow; a level that no such second term allows is not
    split.  Without them every split is kept.
    """
    layers = [[(g, decor, tuple(range(1, g.n_levels_below + 1)))]]
    for depth in range(1, extra + 1):
        plan = None if seconds is None else [s for s in seconds if s[0] >= depth]
        nxt: dict = {}
        for graph, dec, passages in layers[-1]:
            for lev in range(0, -graph.n_levels_below - 1, -1):
                ups = None if plan is None else _side_plan(graph, lev, plan)
                if ups is not None and not ups:
                    continue
                for cand, new_passages, [dd], key in _decorated_splits(
                        spec, graph, lev, dec, passages, ups):
                    if (key, new_passages) not in nxt:
                        nxt[key, new_passages] = (cand, dd, new_passages)
        layers.append(list(nxt.values()))
    return layers


def multiply(a: TautClass, b: TautClass, evaluator: Evaluator | None = None) -> TautClass:
    """Excess-intersection product of two tautological classes, both first
    expanded lam-free.  The degenerations of each term of ``a`` come from one
    walk, as deep as the deepest term of ``b`` and the dimension allow.  A
    fine graph k splits below the term meets a term of ``b`` of L2 levels
    below through its k new passages and c = L2 - k old ones in common, once
    per isomorphism of that undegeneration with the term of ``b``, each
    weighing 1/#isomorphisms.  The walk takes only the splits that the side
    plan of the terms of ``b`` allows (:func:`_side_plan`): a split whose
    new passage has a leg above it that ends below, or on the level of, a
    leg below it in every term of ``b`` meets none of them.  ``evaluator``
    is not read; it is kept for callers that pass one."""
    if a.spec != b.spec:
        raise ValueError("mixed ambient strata")
    spec = a.spec
    dim = dimension(spec).projectivized
    an, bn = _lam_normalize(a), _lam_normalize(b)
    deepest = max((g.n_levels_below for g, _ in bn.terms), default=0)
    seconds = [(L2, dict(legs)) for L2, legs in dict.fromkeys(
        (g.n_levels_below, tuple((pt, g.levels[v]) for pt, v in g.legs)) for g, _ in bn.terms)]
    out = TautClass(spec)
    for (g1, d1), c1 in an.terms.items():
        L1 = g1.n_levels_below
        layers = _degenerations_of(spec, g1, d1, min(deepest, dim - L1), seconds)
        for (g2, d2), c2 in bn.terms.items():
            L2, scale = g2.n_levels_below, c1 * c2
            for c in range(max(0, L2 - dim + L1), min(L1, L2) + 1):
                for fine, fine_decor, i1 in layers[L2 - c]:
                    new = tuple(p for p in range(1, fine.n_levels_below + 1) if p not in i1)
                    for common in itertools.combinations(i1, c):
                        i2 = tuple(sorted(new + common))
                        ecorrs = _undegeneration_structures(fine, i2, g2)
                        if not ecorrs:
                            continue
                        weight = Fraction(scale, len(ecorrs)) if len(ecorrs) > 1 else scale
                        nu = poly_one()
                        for p in common:
                            nu = poly_mul(nu, nu_poly(fine, p))
                        for ecorr in ecorrs:
                            [td] = _transfer(d2, fine, i2, ecorr)
                            for dd, cc in poly_mul({_dmul(fine_decor, td): 1}, nu).items():
                                out.add_term(fine, dd, cc * weight)
    return out


# ---------------------------------------------------------------------------
# named classes
# ---------------------------------------------------------------------------

def xi_as_psi(spec: StratumSpec, point: Point) -> TautClass:
    """xi = (m+1) psi_p  -  sum over divisors with p on the lower level of
    ell_Gamma [D_Gamma]."""
    out = TautClass.psi(spec, point).scale(spec.order(point) + 1)
    for g, ell in divisors_with_point_low(spec, point):
        out.add_term(g, (), -ell)
    return out


def normal_bundle(spec: StratumSpec, g: lg.LevelGraph, passage: int) -> TautClass:
    """c1 of the normal bundle of D_Gamma inside the boundary stratum where
    the given passage is undone, as a class supported on D_Gamma."""
    out = TautClass(spec)
    for d, c in nu_poly(g, passage).items():
        out.add_term(g, d, c)
    return out


def normal_bundle_via_edge(spec: StratumSpec, g: lg.LevelGraph, edge: int) -> TautClass:
    """The divisor normal bundle computed through one edge: psi-classes at
    the two edge branches plus a correction over the strata where the edge
    becomes long.

    When the divisor has automorphisms moving the edge, the long-edge locus
    is a fraction of the full boundary stratum: each degeneration is
    weighted by the proportion of its labeled splittings in which the
    chosen edge spans all three levels.
    """
    if g.n_levels_below != 1:
        raise ValueError("edge route applies to divisors only")
    pd = lg.prong_data(g)
    kappa = g.edges[edge][2]
    out = TautClass(spec)
    out.add_term(g, _decor({("psi", ("eout", edge)): 1}), Fraction(-kappa, pd.ell))
    out.add_term(g, _decor({("psi", ("ein", edge)): 1}), Fraction(-kappa, pd.ell))
    counts: dict[tuple, list] = {}
    for lev in (0, -1):
        for cand, emap in lg.level_splits(g, spec, lev):
            u, v, _ = cand.edges[emap[edge]]
            rec = counts.setdefault(lg.canonical_encoding(cand), [cand, lev, 0, 0])
            rec[3] += 1
            if cand.levels[u] == 0 and cand.levels[v] == -2:
                rec[2] += 1
    for cand, lev, n_long, n_total in counts.values():
        if not n_long:
            continue
        a = 1 if lev == 0 else 2
        ell_a = lg.prong_data(cand).ell_levels[a - 1]
        out.add_term(cand, (), Fraction(-ell_a * n_long, pd.ell * n_total))
    return out

