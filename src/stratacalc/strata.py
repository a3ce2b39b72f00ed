"""Generalized strata of abelian differentials: possibly disconnected, with
linear residue conditions, and their exact dimension theory.

A stratum is described by per-component signatures (genus, zero/pole orders)
together with a list of residue parts.  A part is a set of marked poles of
order <= -2; a *constrained* part imposes that the residues in it sum to
zero.  Unconstrained parts are inert bookkeeping.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import caches

Point = tuple[int, int]  # (component index, marked point index)


class SpecError(ValueError):
    """Raised when a stratum description violates an invariant."""


@dataclass(frozen=True)
class ResiduePart:
    points: frozenset[Point]
    constrained: bool = True


@dataclass(frozen=True)
class StratumSpec:
    """A generalized stratum.

    components: tuple of (genus, orders) pairs; orders are the zero/pole
    orders at the labeled marked points of that component.
    residue_parts: disjoint sets of poles of order <= -2.
    """

    components: tuple[tuple[int, tuple[int, ...]], ...]
    residue_parts: tuple[ResiduePart, ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def connected(genus: int, orders: Sequence[int]) -> "StratumSpec":
        return StratumSpec(((genus, tuple(orders)),))

    @staticmethod
    def make(components: Sequence[tuple[int, Sequence[int]]],
             parts: Sequence[tuple[Iterable[Point], bool]] = ()) -> "StratumSpec":
        comps = tuple((g, tuple(o)) for g, o in components)
        rp = tuple(ResiduePart(frozenset((c, p) for c, p in pts), flag)
                   for pts, flag in parts)
        return StratumSpec(comps, rp)

    # -- basic views -------------------------------------------------------

    @property
    def n_components(self) -> int:
        return len(self.components)

    def points(self) -> list[Point]:
        return [(ci, pi) for ci, (_, orders) in enumerate(self.components)
                for pi in range(len(orders))]

    def order(self, pt: Point) -> int:
        return self.components[pt[0]][1][pt[1]]

    def poles(self) -> list[Point]:
        """Marked points of negative order (simple poles included)."""
        return [pt for pt in self.points() if self.order(pt) < 0]

    def higher_poles(self) -> list[Point]:
        """The set H_p of poles of order <= -2, eligible for residue parts."""
        return [pt for pt in self.points() if self.order(pt) <= -2]

    def constrained_parts(self) -> list[ResiduePart]:
        return [p for p in self.residue_parts if p.constrained]

    def is_connected(self) -> bool:
        return len(self.components) == 1

    def is_holomorphic(self) -> bool:
        return all(o >= 0 for _, orders in self.components for o in orders)

    def drop_part(self, part: ResiduePart) -> "StratumSpec":
        rest = tuple(p for p in self.residue_parts if p is not part and p != part)
        return StratumSpec(self.components, rest)

    def without_parts(self) -> "StratumSpec":
        return StratumSpec(self.components, ())

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "components": [{"genus": g, "orders": list(orders)}
                           for g, orders in self.components],
            "residue_parts": [{"points": sorted([list(pt) for pt in p.points]),
                               "constrained": p.constrained}
                              for p in self.residue_parts],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @staticmethod
    def from_json_obj(obj: dict) -> "StratumSpec":
        """Build a spec from its JSON form, strictly: genera, orders and
        point indices must be integers (not booleans or floats),
        ``constrained`` a boolean, every key known and every required key
        present.  ``residue_parts`` and ``constrained`` may be left out
        (no parts; constrained).  Residue points must name existing
        marked points, each once per part.  A violation raises a one-line
        ``SpecError`` naming its position."""
        _check_keys(obj, "spec", ("components",), ("residue_parts",))
        comps = []
        for ci, comp in enumerate(_array(obj["components"], "components")):
            where = f"components[{ci}]"
            _check_keys(comp, where, ("genus", "orders"))
            genus = _integer(comp["genus"], where + ".genus")
            orders = tuple(_integer(o, f"{where}.orders[{i}]") for i, o
                           in enumerate(_array(comp["orders"], where + ".orders")))
            comps.append((genus, orders))
        parts = []
        for k, part in enumerate(_array(obj.get("residue_parts", []), "residue_parts")):
            where = f"residue_parts[{k}]"
            _check_keys(part, where, ("points",), ("constrained",))
            constrained = part.get("constrained", True)
            if type(constrained) is not bool:
                raise SpecError(f"{where}.constrained: expected true or false, "
                                f"got {_show(constrained)}")
            points: list[Point] = []
            for j, pair in enumerate(_array(part["points"], where + ".points")):
                at = f"{where}.points[{j}]"
                pair = _array(pair, at)
                if len(pair) != 2:
                    raise SpecError(f"{at}: expected a [component, point] pair, "
                                    f"got {_show(pair)}")
                pt = (_integer(pair[0], at), _integer(pair[1], at))
                if not (0 <= pt[0] < len(comps) and 0 <= pt[1] < len(comps[pt[0]][1])):
                    raise SpecError(f"{at}: no marked point {pt}")
                if pt in points:
                    raise SpecError(f"{at}: point {pt} listed twice")
                points.append(pt)
            parts.append(ResiduePart(frozenset(points), constrained))
        return StratumSpec(tuple(comps), tuple(parts))

    @staticmethod
    def from_json(text: str) -> "StratumSpec":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # malformed JSON, or an integer too long to read
            raise SpecError(str(exc)) from None
        return StratumSpec.from_json_obj(obj)

    def canonical_key(self) -> str:
        """Serialization normalized under component reordering and marked
        point reordering inside each component; used for fixture lookup."""
        perms = []
        for g, orders in self.components:
            order_sort = tuple(sorted(orders, reverse=True))
            perms.append((g, order_sort))
        # map each point to (component key, slot of its order in sorted list)
        if not self.residue_parts:
            comps = sorted(perms, key=lambda t: (t[0], t[1]))
            return json.dumps({"c": comps}, sort_keys=True)
        return self.to_json()  # constrained specs: verbatim key (conservative)


def _show(x) -> str:
    text = repr(x)
    return text if len(text) <= 40 else text[:37] + "..."


def _check_keys(obj, where: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object, got {_show(obj)}")
    for key in required:
        if key not in obj:
            raise SpecError(f"{where}: missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise SpecError(f"{where}: unknown key {_show(key)}")


def _array(x, where: str) -> list | tuple:
    if not isinstance(x, (list, tuple)):
        raise SpecError(f"{where}: expected an array, got {_show(x)}")
    return x


def _integer(x, where: str) -> int:
    if type(x) is not int:
        raise SpecError(f"{where}: expected an integer, got {_show(x)}")
    return x


@dataclass(frozen=True)
class DimensionData:
    unprojectivized: int
    projectivized: int
    residue_rank: int


_DIMENSIONS: dict[StratumSpec, DimensionData] = caches.memo("strata.dimension")


def validate(spec: StratumSpec) -> list[str]:
    """Return a list of diagnostics; empty means the spec is valid."""
    issues: list[str] = []
    if not spec.components:
        issues.append("no components")
    for ci, (g, orders) in enumerate(spec.components):
        if g < 0:
            issues.append(f"component {ci}: negative genus")
        if not orders:
            issues.append(f"component {ci}: no marked points")
        if sum(orders) != 2 * g - 2:
            issues.append(
                f"component {ci}: order sum {sum(orders)} != 2g-2 = {2 * g - 2}")
    seen: set[Point] = set()
    hp = set(spec.higher_poles())
    for k, part in enumerate(spec.residue_parts):
        if not part.points:
            issues.append(f"residue part {k}: empty")
        for pt in part.points:
            if pt not in hp:
                issues.append(f"residue part {k}: point {pt} has order > -2")
            if pt in seen:
                issues.append(f"residue part {k}: point {pt} reused across parts")
            seen.add(pt)
    return issues


def require_valid(spec: StratumSpec) -> None:
    issues = validate(spec)
    if issues:
        raise SpecError("; ".join(issues))


def classify(spec: StratumSpec) -> str:
    return "holomorphic" if spec.is_holomorphic() else "meromorphic"


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    if not rows:
        return 0
    mat = [row[:] for row in rows]
    ncols = len(mat[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(mat):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def residue_constraint_rows(spec: StratumSpec) -> tuple[list[Point], list[list[Fraction]], int]:
    """The residue linear algebra of a spec.

    Returns (pole list, constraint rows, rank of the intersection of the
    residue-condition space with the residue-theorem space R).  Rows span
    the annihilator: per-component residue theorem plus one row per
    constrained part.
    """
    poles = spec.poles()
    index = {pt: i for i, pt in enumerate(poles)}
    rows: list[list[Fraction]] = []
    for ci, (_, orders) in enumerate(spec.components):
        comp_poles = [index[(ci, pi)] for pi in range(len(orders)) if orders[pi] < 0]
        if comp_poles:
            row = [Fraction(0)] * len(poles)
            for j in comp_poles:
                row[j] = Fraction(1)
            rows.append(row)
    for part in spec.constrained_parts():
        row = [Fraction(0)] * len(poles)
        for pt in part.points:
            row[index[pt]] = Fraction(1)
        rows.append(row)
    rank = _rank(rows)
    return poles, rows, len(poles) - rank


def residue_subspace_rank(spec: StratumSpec) -> int:
    """dim of (residue condition space) intersected with (residue theorem
    space R), inside the product of the pole coordinate spaces."""
    require_valid(spec)
    _, _, dim = residue_constraint_rows(spec)
    return dim


def dimension(spec: StratumSpec) -> DimensionData:
    """Unprojectivized and projectivized dimension of a generalized stratum.

    N = sum_i (2 g_i + n_i - 1) - (l - dim(constraints cap R)) with l the
    total number of poles.
    """
    hit = _DIMENSIONS.get(spec)
    if hit is not None:
        return hit
    require_valid(spec)
    poles, _, res_rank = residue_constraint_rows(spec)
    base = sum(2 * g + len(orders) - 1 for g, orders in spec.components)
    n_unproj = base - (len(poles) - res_rank)
    hit = _DIMENSIONS[spec] = DimensionData(n_unproj, n_unproj - 1, res_rank)
    return hit


def forced_zero_residues(spec: StratumSpec) -> set[Point]:
    """Poles whose residue vanishes identically on the stratum.

    A pole coordinate is forced to zero when adding the row e_p to the
    constraint system does not change its rank.
    """
    poles, rows, _ = residue_constraint_rows(spec)
    base_rank = _rank(rows)
    out: set[Point] = set()
    for i, pt in enumerate(poles):
        row = [Fraction(0)] * len(poles)
        row[i] = Fraction(1)
        if _rank(rows + [row]) == base_rank:
            out.add(pt)
    return out
