"""Headline invariants: orbifold Euler characteristics, the first Chern
class and Chern polynomial of the logarithmic cotangent bundle, closed
forms for hyperelliptic components, and cross-check ledgers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .exact import Rational, binomial, rational_str
from .strata import StratumSpec, dimension, require_valid
from . import levelgraphs as lg
from . import tautring as tr
from .evaluate import Evaluator, UnevaluatableError, default_evaluator


@dataclass
class EulerRow:
    encoding: str
    levels_below: int
    kappa_product: int
    top_dim_unproj: int
    aut: int
    level_factors: list[Rational]
    contribution: Rational
    zero_rule: str | None = None


@dataclass
class EulerReport:
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
    top xi-power integrals of the level strata."""
    require_valid(spec)
    ev = evaluator or default_evaluator()
    d = dimension(spec).projectivized
    rows: list[EulerRow] = []
    total = Fraction(0)
    for L in range(0, d + 1):
        for g in lg.enumerate_LGL(spec, L):
            pd = lg.prong_data(g)
            levels = range(0, -L - 1, -1)
            subs = [lg.level_stratum(g, spec, lev)[0] for lev in levels]
            ntop = dimension(subs[0]).unprojectivized
            factors: list[Rational] = []
            zero_rule = None
            prod = Fraction(pd.kappa_product * ntop, pd.aut_order)
            for lev, sub in zip(levels, subs):
                dsub = dimension(sub).projectivized
                try:
                    val = ev.integral(sub, {}, dsub)
                except UnevaluatableError as err:
                    frame = ("level " + str(lev) + " of a boundary graph of "
                             + spec.canonical_key())
                    raise UnevaluatableError(err.key, err.chain + [frame]) \
                        from None
                factors.append(val)
                prod *= val
                if val == 0 and zero_rule is None:
                    zero_rule = _vanishing_rule(sub)
            total += prod
            rows.append(EulerRow(repr(lg.canonical_encoding(g)), L,
                                 pd.kappa_product, ntop, pd.aut_order,
                                 factors, prod, zero_rule))
    chi = Fraction(-1) ** d * total
    return EulerReport(spec, chi, rows)


# ---------------------------------------------------------------------------
# Chern classes
# ---------------------------------------------------------------------------

def c1_log_cotangent(spec: StratumSpec) -> tr.TautClass:
    """N xi + sum over divisors of (N - N_top) ell [D]."""
    require_valid(spec)
    dims = dimension(spec)
    if dims.projectivized == 0:
        return tr.TautClass.zero(spec)
    n_unproj = dims.unprojectivized
    out = tr.TautClass.xi(spec).scale(n_unproj)
    for g in lg.enumerate_LG1(spec):
        top, _ = lg.level_stratum(g, spec, 0)
        ntop = dimension(top).unprojectivized
        out.add_term(g, (), (n_unproj - ntop) * lg.prong_data(g).ell)
    return out


def _chern_graph_data(spec: StratumSpec, g: lg.LevelGraph, high: int
                      ) -> tuple[int, list[int], list[list[tr.Poly]]]:
    """What the Chern graph sums up to degree ``high`` need of one level
    graph: ell_Gamma, the r_i = N - N_top(delta_i Gamma), and the powers
    nu_i^0 .. nu_i^(high - L) of the ell_i-scaled nu_i, i = 1..L."""
    n_unproj = dimension(spec).unprojectivized
    pd = lg.prong_data(g)
    L = g.n_levels_below
    rvals, powers = [], []
    for i in range(1, L + 1):
        top, _ = lg.level_stratum(lg.delta(g, i), spec, 0)
        rvals.append(n_unproj - dimension(top).unprojectivized)
        nu = tr.poly_scale(tr.nu_poly(g, i), pd.ell_levels[i - 1])
        powers.append([tr.poly_one()])
        for _ in range(high - L):
            powers[-1].append(tr.poly_mul(powers[-1][-1], nu))
    return pd.ell, rvals, powers


def _nu_products(rvals: list[int], powers: list[list[tr.Poly]], high: int):
    """(s, P) for every (k_1, ..., k_L) with k_i >= 1 and s = sum k_i <= high,
    where P = prod_i binom(r_i - k_{i+1} - ... - k_L, k_i) nu_i^(k_i - 1).
    Tuples with a zero binomial are skipped; the k_i are chosen from the
    last passage up, so tuples sharing a tail share its partial product."""
    def walk(i: int, s: int, prod: tr.Poly):
        if i == 0:
            yield s, prod
            return
        for k in range(1, high - s - i + 2):
            b = binomial(rvals[i - 1] - s, k)
            if b:
                yield from walk(i - 1, s + k, tr.poly_scale(
                    tr.poly_mul(prod, powers[i - 1][k - 1]), b))
    yield from walk(len(rvals), 0, tr.poly_one())


def _chern_pieces(spec: StratumSpec, low: int, high: int) -> list[tr.TautClass]:
    """The pieces of degree 0..min(high, d) of the Chern polynomial of the
    logarithmic cotangent bundle, those below ``low`` left zero, in one pass
    over the level graphs:

        c = sum over Gamma, (k_0, ..., k_L) of
            ell_Gamma binom(N - k_1 - ... - k_L, k_0) xi^k_0 P(k_1, ..., k_L) [D_Gamma]

    with P from :func:`_nu_products`; the term has degree k_0 + k_1 + ... + k_L.
    """
    require_valid(spec)
    n_unproj = dimension(spec).unprojectivized
    high = min(high, n_unproj - 1)
    pieces = [tr.TautClass.zero(spec) for _ in range(high + 1)]
    for L in range(0, high + 1):
        for g in lg.enumerate_LGL(spec, L):
            ell, rvals, powers = _chern_graph_data(spec, g, high)
            for s, prod in _nu_products(rvals, powers, high):
                for k0 in range(max(low - s, 0), high - s + 1):
                    coeff = binomial(n_unproj - s, k0) * ell
                    xi = tr._decor({("xi", 0): k0})
                    for dec, c in prod.items():
                        pieces[k0 + s].add_term(g, tr._dmul(xi, dec), c * coeff)
    return pieces


def chern_class_terms(spec: StratumSpec, degree: int) -> tr.TautClass:
    """The piece of the given degree of the Chern polynomial of the
    logarithmic cotangent bundle: the one graph pass of
    :func:`chern_polynomial`, keeping only the terms of that degree."""
    pieces = _chern_pieces(spec, degree, degree)
    return pieces[degree] if 0 <= degree < len(pieces) else tr.TautClass.zero(spec)


@dataclass
class ChernReport:
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
    ev = evaluator or default_evaluator()
    d = dimension(spec).projectivized
    classes = _chern_pieces(spec, 0, d)
    # an empty stratum (d < 0) has no classes and integrates to zero
    top_value = tr.integrate(classes[d], ev) if classes else Fraction(0)
    chi = euler_characteristic(spec, ev).chi
    return ChernReport(spec, classes, top_value, chi,
                       top_value == Fraction(-1) ** d * chi)


def chern_character(spec: StratumSpec, max_degree: int) -> list[tr.TautClass]:
    """Graded pieces (degree 0..max_degree) of the Chern character of the
    logarithmic cotangent bundle, from the graph sum with inverse Todd
    factors of the twisted normal bundles.  It reads the same per-graph
    data (ell, r_i, powers of the scaled nu_i) as the Chern polynomial's
    graph pass."""
    require_valid(spec)
    n_unproj = dimension(spec).unprojectivized
    pieces = [tr.TautClass.zero(spec) for _ in range(max_degree + 1)]
    for j, piece in enumerate(pieces):  # the trivial graph: N e^xi - 1
        piece.add_term(lg.trivial_graph(spec), tr._decor({("xi", 0): j}),
                       Fraction(n_unproj, factorial(j)) - (j == 0))
    for L in range(1, min(max_degree, n_unproj - 1) + 1):
        for g in lg.enumerate_LGL(spec, L):
            ell, rvals, powers = _chern_graph_data(spec, g, max_degree)
            coeff = rvals[-1] * ell
            if not coeff:
                continue
            # e^{xi}, xi restricted to the top level, times
            # td(line with c1 = -nu_i)^{-1} = sum_j nu_i^j / (j+1)! for each i
            poly = {tr._decor({("xi", 0): j}): Fraction(1, factorial(j))
                    for j in range(max_degree - L + 1)}
            for row in powers:
                td_inv: tr.Poly = {}
                for j, nu_j in enumerate(row):
                    td_inv = tr.poly_add(
                        td_inv, tr.poly_scale(nu_j, Fraction(1, factorial(j + 1))))
                poly = tr.poly_mul(poly, td_inv)
            for dec, c in poly.items():
                k = L + tr.decor_degree(dec)
                if k <= max_degree:
                    pieces[k].add_term(g, dec, c * coeff)
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


@dataclass
class CrossCheckResult:
    name: str
    lhs: Rational
    rhs: Rational

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def cross_check(chi_holo=None, chi_mero=None) -> list[CrossCheckResult]:
    """Consistency identities tying the chi tables together.

    First, the genus-3 holomorphic strata with unlabeled zeros glue to the
    projectivized Hodge bundle over the genus-3 moduli space.  Second, the
    strata of the Hodge bundle over the 1-pointed genus-2 moduli space
    twisted by twice the marked point add up to chi(P^2) * chi(M_{2,1});
    the point-forgetting fibration contributes a factor 2-2g-n per extra
    unconstrained marked point.
    """
    H = dict(CHI_HOLOMORPHIC)
    H.update(chi_holo or {})
    M = dict(CHI_MEROMORPHIC)
    M.update(chi_mero or {})
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
