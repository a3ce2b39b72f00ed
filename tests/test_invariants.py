from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from stratacalc.strata import SpecError, StratumSpec, dimension
from stratacalc.evaluate import Evaluator, UnevaluatableError
from stratacalc import invariants as inv
from stratacalc import levelgraphs as lg
from stratacalc import tautring as tr

from oracles import c1_direct


EV = Evaluator()


def C(g, mu):
    return StratumSpec.connected(g, mu)


def test_chi_minimal_genus2():
    rep = inv.euler_characteristic(C(2, (2,)), EV)
    assert rep.chi == Fraction(-1, 40)
    contribs = sorted(r.contribution for r in rep.rows)
    assert contribs == sorted([Fraction(-1, 160), Fraction(0),
                               Fraction(-1, 96), Fraction(1, 24)])
    zero_rows = [r for r in rep.rows if r.contribution == 0]
    assert zero_rows[0].zero_rule == "holomorphic non-minimal vanishing"


def test_chi_913_family():
    for k in (2, 3, 4):
        rep = inv.euler_characteristic(C(1, (k, 1, -k - 1)), EV)
        assert rep.chi == Fraction(k * (k + 1), 6), k


def test_chi_genus0_oracle_small():
    for mu in [(1, 1, 1, -5), (1, 1, -2, -2), (0, 0, 1, -3)]:
        rep = inv.euler_characteristic(C(0, mu), EV)
        assert rep.chi == -1, mu
    rep = inv.euler_characteristic(C(0, (1, 1, 2, 2, -8)), EV)
    assert rep.chi == 2


def genus0_three_pole_strata():
    """Genus-0 strata of at most five points with at least three poles, all
    of order >= -6, and zero orders (0 allowed) summing to at most 6."""
    for n in range(3, 6):
        for orders in itertools.combinations_with_replacement(range(6, -7, -1), n):
            if (sum(orders) == -2 and sum(o < 0 for o in orders) >= 3
                    and sum(o for o in orders if o >= 0) <= 6):
                yield orders


def test_chi_genus0_closed_form_with_three_or_more_poles():
    """chi = (-1)^(n-3) (n-3)! on every stratum of the slice.  Its levels
    meet the genus-0 zero-residue check of ``realizability_issues`` where
    that check is not proven exact, with three or more poles: a wrong
    verdict there would move chi off the closed form."""
    strata = list(genus0_three_pole_strata())
    assert len(strata) == 76
    for mu in strata:
        n = len(mu)
        assert inv.euler_characteristic(C(0, mu), EV).chi \
            == (-1) ** (n - 3) * math.factorial(n - 3), mu


def test_chi_sort_invariance():
    """The report is deterministic and the total is independent of the
    graph ordering."""
    spec = C(1, (3, 1, -4))
    rep1 = inv.euler_characteristic(spec, EV)
    rep2 = inv.euler_characteristic(spec, EV)
    assert [r.encoding for r in rep1.rows] == [r.encoding for r in rep2.rows]
    assert sum(r.contribution for r in rep1.rows) == \
        Fraction(-1) ** dimension(spec).projectivized * rep1.chi


def test_c1_coefficients_913():
    k = 4
    spec = C(1, (k, 1, -k - 1))
    n = dimension(spec).unprojectivized
    cls = inv.c1_log_cotangent(spec)
    for (g, dec), coeff in cls.terms.items():
        if g.is_trivial():
            assert dec == (((("xi", 0)), 1),) or dec == ((("xi", 0), 1),)
            assert coeff == n
        else:
            pd = lg.prong_data(g)
            top, _ = lg.level_stratum(g, spec, 0)
            ntop = dimension(top).unprojectivized
            assert coeff == (n - ntop) * pd.ell
            assert ntop in (1, 2)


def test_c1_zero_dimensional_normalizes_to_zero():
    spec = C(0, (1, 1, -4))
    assert dimension(spec).projectivized == 0
    assert not inv.c1_log_cotangent(spec).terms


def test_chern_degree_one_matches_c1():
    for g, mu in [(2, (2,)), (1, (3, 1, -4))]:
        spec = C(g, mu)
        diff = inv.chern_class_terms(spec, 1) - c1_direct(spec)
        assert not diff.terms


def test_chern_top_duality():
    for g, mu in [(2, (2,)), (1, (2, 1, -3)), (1, (3, 1, -4)),
                  (0, (1, 1, 1, -5)), (0, (1, 1, 2, 2, -8))]:
        rep = inv.chern_polynomial(C(g, mu), EV)
        assert rep.duality_holds, mu


def test_chern_character_truncation():
    for g, mu in [(2, (2,)), (1, (3, 1, -4))]:
        spec = C(g, mu)
        ch = inv.chern_character(spec, 2)
        n = dimension(spec).unprojectivized
        # degree 0: rank of the bundle
        ((g0, d0), c0), = ch[0].terms.items()
        assert g0.is_trivial() and not d0 and c0 == n - 1
        assert not (ch[1] - inv.chern_class_terms(spec, 1)).terms
        c1 = inv.chern_class_terms(spec, 1)
        c2 = inv.chern_class_terms(spec, 2)
        want = (tr.multiply(c1, c1, EV) - c2.scale(2)).scale(Fraction(1, 2))
        diff = tr._lam_normalize(ch[2]) - tr._lam_normalize(want)
        assert not diff.terms, mu


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of the sorted-key JSON, recorded before the Chern polynomial, its
# graded pieces and the Chern character were built from one graph pass.
# Never re-record a pin to absorb a change.
def test_chern_character_is_pinned():
    for spec, pin in [
            (C(2, (2,)),
             "0d07690df6ac99a352341cdad6adf4df3e74425672853cacf6f03d188935ab27"),
            (C(1, (2, 1, -3)),
             "239b7f7b4e2813728d0edc535a8433fd5b74ade3004d6ca9a77f8b659da84786")]:
        d = dimension(spec).projectivized
        ch = inv.chern_character(spec, d)
        assert _sha256([piece.to_json_obj() for piece in ch]) == pin


def test_chern_polynomial_with_three_level_passages_is_pinned():
    spec = C(0, (3, 2, 1, 1, -4, -5))
    assert dimension(spec).projectivized == 3
    assert lg.enumerate_LGL(spec, 3)
    rep = inv.chern_polynomial(spec, EV)
    assert rep.duality_holds
    assert _sha256(rep.to_json_obj()) == \
        "9bc836b596a8e76d3caa1a6362b2df8518e9eb8f3508dac6c2e4a3af393d37c8"
    for k, piece in enumerate(rep.classes):
        assert not (piece - inv.chern_class_terms(spec, k)).terms, k


@pytest.mark.parametrize("genus, orders", [(2, (2,)), (1, (2, 1, -3)),
                                           (0, (3, 2, 1, 1, -4, -5))])
def test_chern_pass_is_integral_and_adds_canonical_terms(genus, orders):
    """The Chern polynomial's graph pass stays in integers, and the terms
    it adds without a canonical search are already canonical: every
    enumerated graph is its own canonical form, and every term is its own
    decorated canonical form."""
    spec = C(genus, orders)
    d = dimension(spec).projectivized
    for L in range(d + 1):
        for g in lg.enumerate_LGL(spec, L):
            assert lg.canonicalize(g) == g
    pieces = inv.chern_polynomial(spec, EV).classes
    pieces += [inv.chern_class_terms(spec, k) for k in range(d + 1)]
    for piece in pieces:
        for (g, dec), c in piece.terms.items():
            assert type(c) is int
            assert tr.canonical_decorated(g, dec) == (g, dec)


def test_chern_pass_multiplies_per_tuple_not_per_graph(monkeypatch):
    """The nu-products of a pass are built once per (k_1, ..., k_L) tuple:
    with k_i >= 1 and k_1 + ... + k_L <= d there are 2^d - 1 of them, far
    fewer than the graphs."""
    spec = C(0, (3, 2, 1, 1, -4, -5))
    d = dimension(spec).projectivized
    calls = []
    real = tr.poly_mul
    monkeypatch.setattr(tr, "poly_mul", lambda a, b: calls.append(1) or real(a, b))
    inv._chern_pieces(spec, 0, d)
    assert sum(len(lg.enumerate_LGL(spec, L)) for L in range(d + 1)) > 2 ** d
    assert 0 < len(calls) < 2 ** d


def test_lemma_product_to_sum_polynomial_identity():
    """The product/sum expansion identity in Q[xi, D1, D2] for M = 2:
    the flag product over profiles with signed exponents equals the sum of
    binomial-weighted monomials.  Compared as power series coefficients
    through total degree 5."""
    import itertools as it
    from stratacalc.exact import binomial

    TR = 5  # truncation degree

    def pmul(p, q):
        out = {}
        for a, ca in p.items():
            for b, cb in q.items():
                key = tuple(x + y for x, y in zip(a, b))
                if sum(key) <= TR:
                    out[key] = out.get(key, Fraction(0)) + ca * cb
        return {k: v for k, v in out.items() if v}

    def ppow(p, n):
        out = {(0, 0, 0): Fraction(1)}
        for _ in range(n):
            out = pmul(out, p)
        return out

    def pinv(p):
        # p = 1 + u; inverse as a series
        u = {k: v for k, v in p.items() if any(k)}
        out = {(0, 0, 0): Fraction(1)}
        upow = {(0, 0, 0): Fraction(1)}
        for m in range(1, TR + 1):
            upow = pmul(upow, u)
            for k, v in upow.items():
                out[k] = out.get(k, Fraction(0)) + Fraction(-1) ** m * v
        return {k: v for k, v in out.items() if v}

    for (n0, n1, n2, l1, l2) in [(1, 1, 1, 1, 1), (2, 1, 1, 2, 3),
                                 (1, 2, 1, 3, 2)]:
        nlower = {1: n1 + n2, 2: n2}  # dimensions at and below passage s
        N = n0 + n1 + n2
        ells = {1: l1, 2: l2}
        lhs = {(0, 0, 0): Fraction(1)}
        for js in [(), (1,), (2,), (1, 2)]:
            L = len(js)
            expo = N if L == 0 else nlower[js[-1]]
            for I in it.chain.from_iterable(
                    it.combinations(range(L), r) for r in range(L + 1)):
                term = {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1)}
                for i in I:
                    key = (0, 1, 0) if js[i] == 1 else (0, 0, 1)
                    term[key] = term.get(key, Fraction(0)) + ells[js[i]]
                base = term if (L - len(I)) % 2 == 0 else pinv(term)
                lhs = pmul(lhs, ppow(base, expo))
        rhs = {}
        for k0, k1, k2 in it.product(range(TR + 1), repeat=3):
            if k0 + k1 + k2 > TR:
                continue
            c = (binomial(N - k1 - k2, k0) * binomial(n1 + n2 - k2, k1)
                 * binomial(n2, k2) * l1 ** k1 * l2 ** k2)
            if c:
                rhs[(k0, k1, k2)] = Fraction(c)
        assert lhs == rhs, (n0, n1, n2, l1, l2)


def test_hyperelliptic_closed_forms():
    assert inv.hyperelliptic_chi(3, "minimal") == Fraction(-1, 84)
    assert inv.hyperelliptic_chi(2, "minimal") == Fraction(-1, 40)
    assert inv.hyperelliptic_chi(2, "bi-zero") == Fraction(1, 30)
    with pytest.raises(ValueError):
        inv.hyperelliptic_chi(1)


def test_cross_checks_pass():
    results = inv.cross_check()
    assert all(r.ok for r in results)
    assert results[0].rhs == Fraction(3, 1008)
    assert results[1].rhs == Fraction(1, 40)


def test_cross_check_detects_perturbation(monkeypatch):
    monkeypatch.setitem(inv.CHI_HOLOMORPHIC, (4,), Fraction(-55, 504) + 1)
    bad = inv.cross_check()
    assert not bad[0].ok


def test_constrained_two_component_chi():
    """The 1-dimensional constrained pair: the interior is a rational curve
    minus four points (two relative-scale and two collision degenerations),
    so chi = -2; the duality holds on the constrained ambient too."""
    pair = StratumSpec.make(
        [(0, (-2, -2, 2)), (0, (-2, -2, 1, 1))],
        [({(0, 0), (1, 0)}, True), ({(0, 1), (1, 1)}, True)])
    assert EV.xi_top(pair) == -1
    rep = inv.euler_characteristic(pair, EV)
    assert rep.chi == -2
    assert sorted(r.contribution for r in rep.rows) == [-2, 1, 3]
    assert inv.chern_polynomial(pair, EV).duality_holds


CHI_TABLE = sorted([((sum(mu) + 2) // 2, mu, chi) for mu, chi in inv.CHI_HOLOMORPHIC.items()]
                   + [(2, mu, chi) for mu, chi in inv.CHI_MEROMORPHIC.items()])
CHI_COMPUTED = {(1, (0,)), (2, (2,)), (2, (1, 1))}


@pytest.mark.parametrize("genus,mu,chi", CHI_TABLE,
                         ids=[f"g{g}:{','.join(map(str, mu))}" for g, mu, _ in CHI_TABLE])
def test_chi_table_is_matched_or_unevaluatable(genus, mu, chi):
    """The shipped chi tables bind: every tabled stratum either computes
    the table's value or raises ``UnevaluatableError``, never another
    value.  The strata computed without fixtures stay computed."""
    spec = StratumSpec.connected(genus, mu)
    if (genus, mu) in CHI_COMPUTED:
        assert inv.euler_characteristic(spec, Evaluator()).chi == chi
        return
    try:
        got = inv.euler_characteristic(spec, Evaluator()).chi
    except UnevaluatableError:
        return
    assert got == chi


def test_chi_fail_loud_with_dependency_chain():
    """Strata whose levels need fixtures beyond the shipped table surface
    the exact missing key and the assembly frame."""
    with pytest.raises(UnevaluatableError) as err:
        inv.euler_characteristic(StratumSpec.connected(2, (4, -2)), EV)
    assert "xi^d" in err.value.chain[0]
    assert any("boundary graph" in frame for frame in err.value.chain)


def test_one_verdict_for_a_stratum_of_dimension_0():
    """Genus 0 (4,-1,-2,-3) with {2,3} constrained forces the simple
    pole's residue to zero, so it is empty although its dimension is 0.
    Every entry point that enumerates no graph at L = 0 refuses it as
    ``euler_characteristic`` does; the empty stratum of dimension -1,
    genus 0 (1,-3), is answered with nothing."""
    spec = StratumSpec.make([(0, (4, -1, -2, -3))], [({(0, 2), (0, 3)}, True)])
    assert dimension(spec).projectivized == 0
    for ask in (lg.enumerate_LG1, inv.c1_log_cotangent,
                lambda s: inv.chern_character(s, 2), lambda s: tr.xi_as_psi(s, (0, 0)),
                inv.euler_characteristic, inv.chern_polynomial):
        with pytest.raises(SpecError, match="^ambient stratum not realizable: "):
            ask(spec)
    empty = StratumSpec.connected(0, (1, -3))
    assert lg.enumerate_LG1(empty) == () and lg.enumerate_LGL(empty, 0) == ()
    assert not inv.c1_log_cotangent(empty).terms
    assert all(not c.terms for c in inv.chern_character(empty, 2))
    assert not tr.xi_as_psi(empty, (0, 0)).terms
