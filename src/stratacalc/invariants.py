"""Headline invariants: orbifold Euler characteristics, the first Chern
class and Chern polynomial of the logarithmic cotangent bundle, closed
forms for hyperelliptic components, and cross-check ledgers.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import NamedTuple, Sequence

from .exact import Rational, binomial, fraction_sum, rational_str
from .strata import StratumSpec, dimension
from . import levelgraphs as lg
from . import tautring as tr
from .evaluate import Evaluator, UnevaluatableError, shared_evaluator


class EulerRow(NamedTuple):
    graph: lg.LevelGraph
    levels_below: int
    kappa_product: int
    top_dim_unproj: int
    aut: int
    level_factors: list[Rational]
    contribution: Rational
    zero_rule: str | None = None

    @property
    def encoding(self) -> str:
        """The canonical encoding of the row's graph, as text; built only
        when read, since a chi-only caller reads none."""
        return repr(lg.canonical_encoding(self.graph))


class EulerReport(NamedTuple):
    spec: StratumSpec
    chi: Rational
    rows: list[EulerRow]

    def to_json_obj(self) -> dict:
        return {
            "spec": self.spec.to_json_obj(),
            "chi": rational_str(self.chi),
            "rows": [{
                "graph": r.encoding, "L": r.levels_below,
                "K": r.kappa_product, "N_top": r.top_dim_unproj,
                "aut": r.aut,
                "level_factors": [rational_str(x) for x in r.level_factors],
                "contribution": rational_str(r.contribution),
                **({"zero_rule": r.zero_rule} if r.zero_rule else {}),
            } for r in self.rows],
        }


def _vanishing_rule(sub: StratumSpec) -> str | None:
    if not sub.is_connected():
        return "disconnected pushforward vanishing"
    if sub.is_holomorphic() and len(sub.components[0][1]) >= 2:
        return "holomorphic non-minimal vanishing"
    return None


def euler_characteristic(spec: StratumSpec,
                         evaluator: Evaluator | None = None) -> EulerReport:
    """Dimension-weighted sum over all level graphs of the products of the
    top xi-power integrals of the level strata.  Each row multiplies
    K * N_top, |Aut| and the numerators and denominators of its level
    factors as integers and reduces them to one fraction."""
    lg.enumerate_LGL(spec, 0)  # the stratum's verdict, which no L below gives when d < 0
    integral = (evaluator or shared_evaluator()).integral
    d = dimension(spec).projectivized
    rows: list[EulerRow] = []
    pairs: list[tuple[int, int]] = []
    for L in range(0, d + 1):
        for g in lg.enumerate_LGL(spec, L):
            pd = lg.prong_data(g)
            subs = lg.level_strata(g, spec)
            ntop = dimension(subs[0]).unprojectivized
            factors: list[Rational] = []
            zero_rule = None
            num, den = pd.kappa_product * ntop, pd.aut_order
            for i, sub in enumerate(subs):
                try:
                    val = integral(sub, {}, dimension(sub).projectivized)
                except UnevaluatableError as err:
                    frame = ("level " + str(-i) + " of a boundary graph of "
                             + spec.canonical_key())
                    raise UnevaluatableError(err.key, err.chain + [frame]) \
                        from None
                factors.append(val)
                num *= val.numerator
                den *= val.denominator
                if val == 0 and zero_rule is None:
                    zero_rule = _vanishing_rule(sub)
            contribution = Fraction(num, den)
            pairs.append((num, den))
            rows.append(EulerRow(g, L, pd.kappa_product, ntop, pd.aut_order,
                                 factors, contribution, zero_rule))
    chi = (-1) ** d * fraction_sum(pairs)
    return EulerReport(spec, chi, rows)


# ---------------------------------------------------------------------------
# Chern classes
# ---------------------------------------------------------------------------

def c1_log_cotangent(spec: StratumSpec) -> tr.TautClass:
    """N xi + sum over divisors of (N - N_top) ell [D]: the degree-1 piece
    of the Chern polynomial's one graph pass."""
    return chern_class_terms(spec, 1)


def _chern_graph_data(spec: StratumSpec, g: lg.LevelGraph) -> tuple[int, list[int]]:
    """The integers the Chern graph sums need of one level graph: ell_Gamma
    and r_i = N - N_top(delta_i Gamma), i = 1..L.  For a realizable graph
    the level dimensions add up to N, so r_i is the suffix sum
    N_i + ... + N_L of Gamma's own unprojectivized level dimensions."""
    rvals, r = [], 0
    for sub in reversed(lg.level_strata(g, spec)[1:]):
        r += dimension(sub).unprojectivized
        rvals.append(r)
    return lg.prong_data(g).ell, rvals[::-1]


def _nu_products(rvals: list[int], high: int):
    """(k_1, ..., k_L) and its weight prod_i binom(r_i - k_{i+1} - ... - k_L, k_i)
    for every tuple with k_i >= 1 and k_1 + ... + k_L <= high.  Tuples
    with a zero binomial are skipped; the k_i are chosen from the last
    passage up, so tuples sharing a tail share its partial weight.  The
    weights are integers; the products of the nu_i come from
    :class:`_NuTable`."""
    def walk(i: int, s: int, ks: tuple[int, ...], weight: int):
        if i == 0:
            yield ks, weight
            return
        for k in range(1, high - s - i + 2):
            b = binomial(rvals[i - 1] - s, k)
            if b:
                yield from walk(i - 1, s + k, (k,) + ks, weight * b)
    yield from walk(len(rvals), 0, (), 1)


class _NuTable(dict):
    """The graph-independent half of the Chern graph sums, for one pass:
    (k_0, k_1, ..., k_L) -> xi^k_0 prod_i (ell_i nu_i)^(k_i - 1), an
    integral Poly (the ell_i nu_i of :func:`tautring.scaled_nu_power` have
    coefficients +-1).  Entries are built on first use, each from the entry
    without k_0 or with k_L dropped, so a pass multiplies once per distinct
    tuple, however many graphs share it."""

    def __missing__(self, ks: tuple[int, ...]) -> tr.Poly:
        if ks[0]:
            xi = tr._decor({("xi", 0): ks[0]})
            poly = {tr._dmul(xi, d): c for d, c in self[(0,) + ks[1:]].items()}
        elif len(ks) == 1:
            poly = tr.poly_one()
        elif ks[-1] == 1:
            poly = self[ks[:-1]]
        else:
            poly = tr.poly_mul(self[ks[:-1]],
                               tr.scaled_nu_power(len(ks) - 1, ks[-1] - 1))
        self[ks] = poly
        return poly


def _chern_pieces(spec: StratumSpec, low: int, high: int) -> list[tr.TautClass]:
    """The pieces of degree 0..min(high, d) of the Chern polynomial of the
    logarithmic cotangent bundle, those below ``low`` left zero, in one pass
    over the level graphs:

        c = sum over Gamma, (k_0, ..., k_L) of
            ell_Gamma binom(N - k_1 - ... - k_L, k_0) W(k_1, ..., k_L)
            xi^k_0 prod_i (ell_i nu_i)^(k_i - 1) [D_Gamma]

    with the integer weight W from :func:`_nu_products`; the term has degree
    k_0 + k_1 + ... + k_L.  The polynomials come from one :class:`_NuTable`
    per pass; per graph only ell_Gamma, the r_i and the binomials are
    computed, and every coefficient is an integer.  The enumerated graphs
    are canonical, so the terms skip the canonical form.
    """
    lg.enumerate_LGL(spec, 0)  # the stratum's verdict, which no L below gives when d < 0
    n_unproj = dimension(spec).unprojectivized
    high = min(high, n_unproj - 1)
    pieces = [tr.TautClass(spec) for _ in range(high + 1)]
    table = _NuTable()
    for L in range(0, high + 1):
        for g in lg.enumerate_LGL(spec, L):
            ell, rvals = _chern_graph_data(spec, g)
            for ks, weight in _nu_products(rvals, high):
                s = sum(ks)
                for k0 in range(max(low - s, 0), high - s + 1):
                    pieces[k0 + s]._add_canonical(
                        g, table[(k0,) + ks], binomial(n_unproj - s, k0) * ell * weight)
    return pieces


def chern_class_terms(spec: StratumSpec, degree: int) -> tr.TautClass:
    """The piece of the given degree of the Chern polynomial of the
    logarithmic cotangent bundle: the one graph pass of
    :func:`chern_polynomial`, keeping only the terms of that degree."""
    pieces = _chern_pieces(spec, degree, degree)
    return pieces[degree] if 0 <= degree < len(pieces) else tr.TautClass(spec)


class ChernReport(NamedTuple):
    spec: StratumSpec
    classes: list[tr.TautClass]       # degree 0 .. d
    top_value: Rational               # integral of c_d
    chi: Rational
    duality_holds: bool

    def to_json_obj(self) -> dict:
        return {
            "spec": self.spec.to_json_obj(),
            "classes": [c.to_json_obj() for c in self.classes],
            "top_value": rational_str(self.top_value),
            "chi": rational_str(self.chi),
            "duality_holds": self.duality_holds,
        }


def chern_polynomial(spec: StratumSpec,
                     evaluator: Evaluator | None = None) -> ChernReport:
    """All graded pieces of the Chern polynomial, built in one pass over the
    level graphs, with the top piece evaluated and compared against the
    Euler characteristic."""
    ev = evaluator or shared_evaluator()
    d = dimension(spec).projectivized
    classes = _chern_pieces(spec, 0, d)
    top_value = tr.integrate(classes[d], ev)
    chi = euler_characteristic(spec, ev).chi
    return ChernReport(spec, classes, top_value, chi,
                       top_value == Fraction(-1) ** d * chi)


def chern_character(spec: StratumSpec, max_degree: int) -> list[tr.TautClass]:
    """Graded pieces (degree 0..max_degree) of the Chern character of the
    logarithmic cotangent bundle, from the graph sum with inverse Todd
    factors of the twisted normal bundles:

        ch = N e^xi - 1 + sum over Gamma with L >= 1 of
             ell_Gamma r_L e^xi prod_i td(line with c1 = -ell_i nu_i)^{-1} [D_Gamma]

    with xi restricted to the top level and td^{-1} = sum_j x^j / (j+1)!.
    The factor after r_L depends only on L: it is the sum over
    (k_0, ..., k_L) of the :class:`_NuTable` entries over k_0! k_1! ... k_L!,
    read from the same per-pass table as the Chern polynomial's pass."""
    lg.enumerate_LGL(spec, 0)  # the stratum's verdict, which no pass below gives when high is 0
    n_unproj = dimension(spec).unprojectivized
    pieces = [tr.TautClass(spec) for _ in range(max_degree + 1)]
    for j, piece in enumerate(pieces):  # the trivial graph: N e^xi - 1
        piece.add_term(lg.trivial_graph(spec), tr._decor({("xi", 0): j}),
                       Fraction(n_unproj, factorial(j)) - (j == 0))
    high = min(max_degree, n_unproj - 1)
    table = _NuTable()
    for L in range(1, high + 1):
        graded: list[tr.Poly] = [{} for _ in range(high + 1)]
        for ks in itertools.product(range(1, high - L + 2), repeat=L):
            s = sum(ks)
            denom = prod(map(factorial, ks))
            for k0 in range(high - s + 1):
                graded[k0 + s] = tr.poly_add(graded[k0 + s], tr.poly_scale(
                    table[(k0,) + ks], Fraction(1, factorial(k0) * denom)))
        for g in lg.enumerate_LGL(spec, L):
            ell, rvals = _chern_graph_data(spec, g)
            if rvals[-1]:
                for piece, poly in zip(pieces, graded):
                    piece._add_canonical(g, poly, rvals[-1] * ell)
    return pieces


# ---------------------------------------------------------------------------
# closed forms and cross-checks
# ---------------------------------------------------------------------------

def hyperelliptic_chi(genus: int, variant: str = "minimal") -> Rational:
    """Euler characteristic of the hyperelliptic component of the minimal
    stratum (2g-2), or of the bi-zero stratum (g-1, g-1)."""
    if genus < 2:
        raise ValueError("hyperelliptic components need genus >= 2")
    if variant == "minimal":
        return Fraction(-1, 4 * genus * (2 * genus + 1))
    if variant == "bi-zero":
        return Fraction(1, (2 * genus + 1) * (2 * genus + 2))
    raise ValueError("variant must be 'minimal' or 'bi-zero'")


# chi values of holomorphic strata used by the cross-check ledger
CHI_HOLOMORPHIC = {
    (0,): Fraction(-1, 12), (2,): Fraction(-1, 40), (1, 1): Fraction(1, 30),
    (4,): Fraction(-55, 504), (3, 1): Fraction(16, 63),
    (2, 2): Fraction(15, 56), (2, 1, 1): Fraction(-6, 7),
    (1, 1, 1, 1): Fraction(11, 3), (6,): Fraction(-1169, 720),
    (5, 1): Fraction(27, 5), (4, 2): Fraction(76, 15),
    (3, 3): Fraction(188, 45), (4, 1, 1): Fraction(-200, 9),
    (3, 2, 1): Fraction(-96, 5), (2, 2, 2): Fraction(-187, 10),
    (8,): Fraction(-4671, 88),
}

# chi values of genus-2 strata with poles used by the cross-check ledger
CHI_MEROMORPHIC = {
    (4, -2): Fraction(-19, 24), (3, 1, -2): Fraction(28, 15),
    (2, 2, -2): Fraction(17, 10), (2, 1, 1, -2): Fraction(-6),
    (1, 1, 1, 1, -2): Fraction(26),
    (4, -1, -1): Fraction(-8, 5), (3, 1, -1, -1): Fraction(-4),
    (2, 2, -1, -1): Fraction(-4), (2, 1, 1, -1, -1): Fraction(14),
    (1, 1, 1, 1, -1, -1): Fraction(-63),
}


def _sym_weight(mu: Sequence[int]) -> Fraction:
    """1 / |Sym| for the multiplicities of the repeated zero orders."""
    w = Fraction(1)
    for val in set(mu):
        mult = sum(1 for x in mu if x == val)
        w /= factorial(mult)
    return w


class CrossCheckResult(NamedTuple):
    name: str
    lhs: Rational
    rhs: Rational

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def cross_check() -> list[CrossCheckResult]:
    """Consistency identities tying the chi tables together.

    First, the genus-3 holomorphic strata with unlabeled zeros glue to the
    projectivized Hodge bundle over the genus-3 moduli space.  Second, the
    strata of the Hodge bundle over the 1-pointed genus-2 moduli space
    twisted by twice the marked point add up to chi(P^2) * chi(M_{2,1});
    the point-forgetting fibration contributes a factor 2-2g-n per extra
    unconstrained marked point.
    """
    H, M = CHI_HOLOMORPHIC, CHI_MEROMORPHIC
    out = []
    lhs = sum(_sym_weight(mu) * H[mu]
              for mu in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
    out.append(CrossCheckResult("genus-3 Hodge bundle gluing",
                                lhs, Fraction(3, 1008)))
    lhs = sum(_sym_weight(mu) * M[mu]
              for mu in [(4, -2), (3, 1, -2), (2, 2, -2), (2, 1, 1, -2),
                         (1, 1, 1, 1, -2)])
    # strata with the marked point a zero of order 0, 1 or 2:
    # (2,0): factor 2-2g-n = -3 over (2); (1,1,0): factor -4 over (1,1)
    lhs += -3 * H[(2,)]
    lhs += -4 * _sym_weight((1, 1)) * H[(1, 1)]
    lhs += H[(2,)]            # marked point is the double zero
    lhs += H[(1, 1)]          # marked point is one of two simple zeros
    out.append(CrossCheckResult("twisted Hodge bundle over M_{2,1}",
                                lhs, Fraction(1, 40)))
    return out
