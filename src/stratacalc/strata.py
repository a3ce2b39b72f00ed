"""Generalized strata of abelian differentials: possibly disconnected, with
linear residue conditions, and their exact dimension theory.

A stratum is described by per-component signatures (genus, zero/pole orders)
together with a list of residue parts.  A part is a set of marked poles of
order <= -2; a *constrained* part imposes that the residues in it sum to
zero.  Unconstrained parts are inert bookkeeping.
"""
from __future__ import annotations

import json
import math
from typing import Iterable, NamedTuple, Sequence

from . import caches

Point = tuple[int, int]  # (component index, marked point index)


class SpecError(ValueError):
    """Raised when a stratum description violates an invariant."""


class ResiduePart(NamedTuple):
    points: frozenset[Point]
    constrained: bool = True


class StratumSpec(NamedTuple):
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
        point reordering inside each component; used for fixture lookup.
        Unconstrained residue parts impose no condition and are left out; a
        spec with a constrained part keeps its verbatim key (conservative)."""
        parts = self.constrained_parts()
        if parts:
            return StratumSpec(self.components, tuple(parts)).to_json()
        return json.dumps({"c": sorted((g, sorted(orders, reverse=True))
                                       for g, orders in self.components)})


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


class DimensionData(NamedTuple):
    """The residue record of a spec, from one elimination: both dimensions,
    the poles (simple poles included), the rank of the residue subspace and
    the poles whose residue vanishes identically, in pole order.  A tuple
    keeps the record small: there is one per level stratum."""

    unprojectivized: int
    projectivized: int
    residue_rank: int
    poles: tuple[Point, ...]
    forced_zero: tuple[Point, ...]


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


def _eliminate(rows: list[list[int]]) -> tuple[int, set[int]]:
    """Rank over Q of integer rows, by fraction-free Gauss-Jordan
    elimination, and the columns p whose unit vector e_p lies in the row
    space: exactly those whose pivot row of the reduced echelon form is a
    multiple of e_p."""
    mat = [row[:] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        pv = top[col]
        for i, row in enumerate(mat):
            f = row[col]
            if i != rank and f:
                row = [pv * a - f * b for a, b in zip(row, top)]
                div = math.gcd(*row)
                mat[i] = [a // div for a in row] if div > 1 else row
        pivots.append(col)
    unit = {col for i, col in enumerate(pivots)
            if sum(1 for a in mat[i] if a) == 1}
    return len(pivots), unit


def dimension(spec: StratumSpec) -> DimensionData:
    """The residue record of a generalized stratum, memoized per spec.

    The rows of the residue constraint system are 0/1 vectors over the
    poles: one residue theorem per component with poles and one row per
    constrained part.  One elimination of them gives the residue rank
    r = l - rank (l the number of poles), the unprojectivized dimension
    N = sum_i (2 g_i + n_i - 1) - (l - r), the projectivized N - 1, and
    the poles whose residue is forced to zero.
    """
    hit = _DIMENSIONS.get(spec)
    if hit is not None:
        return hit
    require_valid(spec)
    poles = spec.poles()
    index = {pt: i for i, pt in enumerate(poles)}
    rows = [[0] * len(poles) for _ in range(spec.n_components)]
    for pt, i in index.items():
        rows[pt[0]][i] = 1
    rows = [row for row in rows if any(row)]
    for part in spec.constrained_parts():
        row = [0] * len(poles)
        for pt in part.points:
            row[index[pt]] = 1
        rows.append(row)
    rank, unit = _eliminate(rows)
    base = sum(2 * g + len(orders) - 1 for g, orders in spec.components)
    n_unproj = base - rank
    hit = _DIMENSIONS[spec] = DimensionData(
        n_unproj, n_unproj - 1, len(poles) - rank, tuple(poles),
        tuple(pt for i, pt in enumerate(poles) if i in unit))
    return hit
