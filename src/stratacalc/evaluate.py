"""Exact evaluation of top-degree tautological integrals on generalized
strata: closed forms, the psi/xi boundary recursion, and a fixture registry
for the values the recursion cannot reach.

The engine computes integrals of mixed monomials psi^a * xi^b of top degree.
The two moves are the divisor relation

    xi = (m_p + 1) psi_p - sum_{p on lower level} ell_Gamma [D_Gamma]

used forwards (trading xi for psi, on genus-0 and disconnected strata) and
backwards (trading psi for xi, on positive genus), plus the evaluation of a
boundary term as a product of level integrals weighted by
K / (|Aut| * ell) in ``Evaluator.boundary_integral``.  Every failure
surfaces the exact missing key.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Mapping, Sequence

from . import caches
from .exact import Rational, multinomial, rational_str
from .strata import (Point, SpecError, StratumSpec, _array, _check_keys, _integer, _show,
                     dimension)
from . import levelgraphs as lg


class UnevaluatableError(RuntimeError):
    """No closed form, recursion route, or fixture applies."""

    def __init__(self, key: str, chain: list[str] | None = None):
        self.key = key
        self.chain = chain or [key]
        super().__init__("cannot evaluate: " + " <- ".join(self.chain))


class FixtureCollisionError(ValueError):
    pass


def _key(spec: StratumSpec, psi: tuple = (), xi: int = 0) -> str:
    """The key of the integrand psi^a xi^b of top degree on a spec, the psi
    part given as sorted (point, exponent) pairs.  Without psi it is xi^d.
    A psi part is keyed by each component's genus and multiset of (order,
    exponent) pairs over its points, the components sorted, so that the key
    does not depend on how the points are numbered (specs with constrained
    residue parts keep the verbatim point list and ``canonical_key``),
    after its xi power when that is positive.  Unconstrained residue parts
    impose no condition and do not enter the key."""
    if not psi:
        return "xi^d on " + spec.canonical_key()
    head = f"xi^{xi} psi" if xi else "psi"
    if spec.constrained_parts():
        return f"{head}{list(psi)} on " + spec.canonical_key()
    exps = dict(psi)
    comps = sorted((g, sorted(((m, exps.get((c, p), 0)) for p, m in enumerate(orders)),
                              reverse=True))
                   for c, (g, orders) in enumerate(spec.components))
    return f"{head} (order, exponent) on " + json.dumps({"c": comps})


class FixtureRegistry:
    """Maps (canonical spec, integrand) to exact values, with provenance."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[Rational, str]] = {}

    def register(self, spec: StratumSpec, value: Rational, provenance: str,
                 psi: Mapping[Point, int] | None = None) -> None:
        key = _key(spec, tuple(sorted((psi or {}).items())))
        value = Fraction(value)
        if key in self._entries:
            old, oldprov = self._entries[key]
            if old != value:
                raise FixtureCollisionError(
                    f"fixture collision for {key}: {rational_str(old)} "
                    f"({oldprov}) vs {rational_str(value)} ({provenance})")
            return
        self._entries[key] = (value, provenance)

    def lookup(self, spec: StratumSpec, psi: tuple = ()) -> Rational | None:
        hit = self._entries.get(_key(spec, psi))
        return hit[0] if hit else None

    def load_json_obj(self, items: Sequence[dict]) -> None:
        """Register the items of a fixture file, checked as strictly as a
        spec: a violation raises a one-line ``SpecError`` naming the item's
        position."""
        for i, item in enumerate(_array(items, "fixtures")):
            self.register(*_fixture_entry(item, f"fixtures[{i}]"))


def _fixture_entry(item, where: str) -> tuple:
    """(spec, value, provenance, psi map or None) of one fixture item.  The
    value is an integer or a rational string such as "-3/4"; a psi key
    names a marked point of the spec as "component.point".  The integrand
    has the top degree d of the spec: xi_power, where given, is d for a
    xi item and 0 for a psi item, whose exponents sum to d."""
    _check_keys(item, where, ("spec", "value"), ("integrand", "provenance"))
    try:
        spec = StratumSpec.from_json_obj(item["spec"])
        d = dimension(spec).projectivized
    except SpecError as exc:
        raise SpecError(f"{where}.spec: {exc}") from None
    value = _rational(item["value"], where + ".value")
    provenance = item.get("provenance", "user fixture")
    if not isinstance(provenance, str):
        raise SpecError(f"{where}.provenance: expected a string, "
                        f"got {_show(provenance)}")
    integrand = item.get("integrand", {})
    _check_keys(integrand, where + ".integrand", (), ("xi_power", "psi"))
    if "xi_power" in integrand:
        power = _integer(integrand["xi_power"], where + ".integrand.xi_power")
        # a psi integrand is of top degree in psi alone
        want = 0 if "psi" in integrand else d
        if power != want:
            raise SpecError(f"{where}.integrand.xi_power: expected {want}, got "
                            f"{power} (the spec has projectivized dimension {d})")
    if "psi" not in integrand:
        return spec, value, provenance, None
    where += ".integrand.psi"
    if not isinstance(integrand["psi"], dict):
        raise SpecError(f"{where}: expected an object, got {_show(integrand['psi'])}")
    psi = {}
    for key, exp in integrand["psi"].items():
        m = re.fullmatch(r"(\d+)\.(\d+)", key, re.ASCII)
        pt = (int(m[1]), int(m[2])) if m else None
        if pt not in spec.points():
            raise SpecError(f'{where}: key {_show(key)} is not a marked point '
                            f'"component.point" of the spec')
        if pt in psi:
            raise SpecError(f"{where}: key {_show(key)} names the point "
                            f"{pt[0]}.{pt[1]} a second time")
        if _integer(exp, f"{where}[{key!r}]") < 1:
            raise SpecError(f"{where}[{key!r}]: expected a positive exponent, got {exp}")
        psi[pt] = exp
    if sum(psi.values()) != d:
        raise SpecError(f"{where}: exponents sum to {sum(psi.values())}, expected "
                        f"the projectivized dimension {d}")
    return spec, value, provenance, psi or None


def _rational(x, where: str) -> Fraction:
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecError(f"{where}: expected an integer or a rational string, got {_show(x)}")


_TABLE_XI_TOP = [
    # connected strata, orders sorted descending; minimal holomorphic strata
    # and small meromorphic strata
    ((1, (0,)), Fraction(1, 24), "xi-top table, mu=(0)"),
    ((2, (2,)), Fraction(-1, 640), "xi-top table, mu=(2)"),
    ((3, (4,)), Fraction(-305, 580608), "xi-top table, mu=(4)"),
    ((4, (6,)), Fraction(-87983, 199065600), "xi-top table, mu=(6)"),
    ((0, (0, 0, -2)), Fraction(1), "xi-top table, mu=(0,0,-2)"),
    ((1, (2, -2)), Fraction(-1, 8), "xi-top table, mu=(2,-2)"),
    ((1, (1, 1, -2)), Fraction(0), "xi-top table, mu=(1,1,-2)"),
    ((2, (4, -2)), Fraction(23, 1152),
     "xi-top table, mu=(4,-2); sign ambiguous in source, excluded from checks"),
    ((2, (3, 1, -2)), Fraction(0), "xi-top table, mu=(3,1,-2)"),
    ((1, (2, 1, -3)), Fraction(5, 8), "xi-top table, mu=(2,1,-3)"),
    ((2, (5, -3)), Fraction(-21, 20), "xi-top table, mu=(5,-3)"),
    ((2, (8, -2, -2, -2)), Fraction(-4527, 32), "xi-top table, mu=(8,-2,-2,-2)"),
]


def _table_registry() -> FixtureRegistry:
    reg = FixtureRegistry()
    for (g, mu), val, prov in _TABLE_XI_TOP:
        reg.register(StratumSpec.connected(g, mu), val, prov)
    return reg


_TABLE_ENTRIES = _table_registry()._entries


def default_registry() -> FixtureRegistry:
    """A new registry holding the xi-top table, registered once per
    process; each registry has its own copy, so a later ``register`` on
    one shows in no other."""
    reg = FixtureRegistry()
    reg._entries.update(_TABLE_ENTRIES)
    return reg


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------

PsiMap = Mapping[Point, int]


def _psi_tuple(psi: PsiMap) -> tuple:
    return tuple(sorted((pt, e) for pt, e in psi.items() if e))


class Evaluator:
    """Memoized exact integration of psi/xi monomials on generalized strata."""

    def __init__(self, registry: FixtureRegistry | None = None):
        self.registry = registry if registry is not None else default_registry()
        self._memo: dict[tuple, Rational] = caches.memo("evaluate.integrals")

    # -- public surface ----------------------------------------------------

    # both refuse an invalid spec and a stratum that is not realizable
    # (``enumerate_LGL(spec, 0)``, which an empty stratum passes); level
    # strata are realizable by construction and go to ``integral`` unjudged

    def xi_top(self, spec: StratumSpec) -> Rational:
        lg.enumerate_LGL(spec, 0)
        d = dimension(spec).projectivized
        return self.integral(spec, {}, d)

    def psi_top(self, spec: StratumSpec, psi: PsiMap) -> Rational:
        lg.enumerate_LGL(spec, 0)
        return self.integral(spec, psi, 0)

    def integral(self, spec: StratumSpec, psi: PsiMap, xi: int) -> Rational:
        """Integral of prod psi_p^{a_p} * xi^b over the compactified
        stratum; zero when the degree is not the dimension."""
        pt = _psi_tuple(psi)
        key = (spec, pt, xi)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        try:
            val = self._integral(spec, dict(pt), xi)
        except UnevaluatableError as err:
            frame = _key(spec, pt, xi)
            if err.chain[-1] != frame:
                raise UnevaluatableError(err.key, err.chain + [frame]) from None
            raise
        self._memo[key] = val
        return val

    def boundary_integral(self, spec: StratumSpec, graph: lg.LevelGraph,
                          psi: Mapping[lg.LegTag, int],
                          xi: Mapping[int, int]) -> Rational:
        """Integral over the ambient stratum of the class on D_Gamma given by
        psi exponents at tags (legs or edge half-points) and xi exponents at
        levels: K/(|Aut| ell) times the product of the level integrals, each
        over the psi at the tags on its level and its own xi power."""
        return Fraction(*self._boundary_pair(spec, graph, psi, xi))

    def _boundary_pair(self, spec: StratumSpec, graph: lg.LevelGraph,
                       psi: Mapping[lg.LegTag, int],
                       xi: Mapping[int, int]) -> tuple[int, int]:
        """:meth:`boundary_integral` as an unreduced (numerator, positive
        denominator) pair: the numerators and denominators are multiplied
        as integers, for the caller to reduce once, or to add up with
        ``exact.fraction_sum``."""
        pd = lg.prong_data(graph)
        num, den = pd.kappa_product, pd.aut_order * pd.ell
        for i, sub in enumerate(lg.level_strata(graph, spec)):
            level_psi = {}
            if psi:
                positions = lg.level_positions(graph, spec, -i)
                level_psi = {positions[t]: e for t, e in psi.items() if t in positions}
            factor = self.integral(sub, level_psi, xi.get(-i, 0))
            if not factor:
                return 0, 1
            num *= factor.numerator
            den *= factor.denominator
        return num, den

    # -- dispatch ------------------------------------------------------------

    def _integral(self, spec: StratumSpec, psi: dict[Point, int], xi: int) -> Rational:
        d = dimension(spec).projectivized  # validates the spec on its memo miss
        deg = sum(psi.values()) + xi
        if deg != d or d < 0:  # xi_top asks xi^d, d = -1, of an empty stratum
            return Fraction(0)
        if d == 0:
            return Fraction(1)
        if spec.constrained_parts():
            return self._remove_condition(spec, psi, xi)
        if not spec.is_connected():
            if xi == 0:
                return Fraction(0)
            return self._expand_xi(spec, psi, xi)
        genus, orders = spec.components[0]
        if spec.is_holomorphic() and not psi:
            if len(orders) == 1:
                return self._fixture(spec)
            return Fraction(0)
        if genus == 0:
            if xi == 0:
                return Fraction(multinomial(len(orders) - 3, list(
                    psi.get((0, p), 0) for p in range(len(orders)))))
            poles = [o for o in orders if o < 0]
            if len(poles) == 1 and not psi:
                return Fraction(poles[0] + 1) ** d
            return self._expand_xi(spec, psi, xi)
        # positive genus
        if psi:
            hit = self.registry.lookup(spec, _psi_tuple(psi)) if xi == 0 else None
            if hit is not None:
                return hit
            return self._reverse_psi(spec, psi, xi)
        closed = self._genus1_closed(genus, orders, d)
        if closed is not None:
            return closed
        return self._fixture(spec)

    @staticmethod
    def _genus1_closed(genus: int, orders: tuple[int, ...], d: int) -> Rational | None:
        if genus != 1:
            return None
        mu = tuple(sorted(orders, reverse=True))
        if len(mu) == 2 and mu[1] == -mu[0] and mu[0] >= 2 and d == 1:
            k = mu[0]
            return Fraction(-(k - 1) * (k * k - 1), 24)
        if len(mu) == 3 and mu[1] == 1 and mu[2] == -mu[0] - 1 and mu[0] >= 1 and d == 2:
            k = mu[0]
            return Fraction(k ** 4 - 1, 24)
        return None

    def _fixture(self, spec: StratumSpec) -> Rational:
        val = self.registry.lookup(spec)
        if val is None:
            raise UnevaluatableError(_key(spec))
        return val

    # -- recursion moves -----------------------------------------------------

    def _expand_xi(self, spec: StratumSpec, psi: dict[Point, int], xi: int,
                   point: Point | None = None) -> Rational:
        """Trade one xi for a psi-class plus boundary terms."""
        assert xi >= 1
        p = min(spec.points(), key=lambda q: (spec.order(q), q)) if point is None else point
        m = spec.order(p)
        bumped = dict(psi)
        bumped[p] = bumped.get(p, 0) + 1
        return ((m + 1) * self.integral(spec, bumped, xi - 1)
                - self._boundary_sum(spec, divisors_with_point_low(spec, p), psi, xi - 1))

    def _reverse_psi(self, spec: StratumSpec, psi: dict[Point, int], xi: int) -> Rational:
        """Trade one psi for a xi, on positive-genus strata, at the first psi
        point not a simple pole, where m_p + 1 would be zero."""
        p = next((pt for pt in sorted(psi) if spec.order(pt) != -1), None)
        if p is None:
            raise UnevaluatableError(_key(spec, _psi_tuple(psi), xi))
        m = spec.order(p)
        reduced = dict(psi)
        reduced[p] -= 1
        if not reduced[p]:
            del reduced[p]
        return (self.integral(spec, reduced, xi + 1)
                + self._boundary_sum(spec, divisors_with_point_low(spec, p), reduced, xi)
                ) / (m + 1)

    # -- residue condition removal -------------------------------------------

    def _remove_condition(self, spec: StratumSpec, psi: dict[Point, int], xi: int) -> Rational:
        part = spec.constrained_parts()[-1]
        spec0 = spec.drop_part(part)
        if dimension(spec0).projectivized == dimension(spec).projectivized:
            return self.integral(spec0, psi, xi)
        return (-self.integral(spec0, psi, xi + 1)
                - self._boundary_sum(spec0, removal_divisors(spec0, part), psi, xi))

    def _boundary_sum(self, spec: StratumSpec, divisors: list[tuple[lg.LevelGraph, int]],
                      psi: dict[Point, int], xi: int) -> Rational:
        """Sum over the (Gamma, ell_Gamma) pairs of ``divisors`` of ell_Gamma
        times the boundary integral over D_Gamma of the psi exponents at
        the legs and the power ``xi`` of xi on the top level."""
        legs = {("leg", p): e for p, e in psi.items()}
        return sum((ell * self.boundary_integral(spec, graph, legs, {0: xi})
                    for graph, ell in divisors), Fraction(0))


def divisors_with_point_low(spec: StratumSpec, p: Point) -> list[tuple[lg.LevelGraph, int]]:
    """(Gamma, ell_Gamma) for the divisors with the point p on the lower
    level: the boundary part of xi = (m_p + 1) psi_p - sum ell_Gamma [D_Gamma]."""
    return [(g, lg.prong_data(g).ell) for g in lg.enumerate_LG1(spec)
            if g.levels[g.leg_vertex()[p]] == -1]


def removal_divisors(spec0: StratumSpec, part) -> list[tuple[lg.LevelGraph, int]]:
    """(Gamma, ell_Gamma) for the boundary divisors entering the
    residue-removal relation: graphs where every leg of the part sits on
    the lower level, plus graphs where the condition induced on the top
    level is no extra condition."""
    spec_with = StratumSpec(spec0.components, spec0.residue_parts + (part,))
    out = []
    for graph in lg.enumerate_LG1(spec0):
        legv = graph.leg_vertex()
        if (all(graph.levels[legv[pt]] == -1 for pt in part.points)
                or dimension(lg.level_strata(graph, spec_with)[0]).residue_rank
                == dimension(lg.level_strata(graph, spec0)[0]).residue_rank):
            out.append((graph, lg.prong_data(graph).ell))
    return out


_EVALUATORS: dict[tuple[str, ...], Evaluator] = caches.memo("evaluate.evaluators")


def shared_evaluator(fixture_texts: tuple[str, ...] = ()) -> Evaluator:
    """The process's evaluator over the default registry plus the fixture
    files whose JSON texts are given, in loading order.  The texts are the
    key: a rewritten fixture file gets a new evaluator, never a stale memo.
    Loading errors are raised on every call, since failures are not kept."""
    ev = _EVALUATORS.get(fixture_texts)
    if ev is None:
        reg = default_registry()
        for text in fixture_texts:
            reg.load_json_obj(json.loads(text))
        ev = _EVALUATORS[fixture_texts] = Evaluator(reg)
    return ev

