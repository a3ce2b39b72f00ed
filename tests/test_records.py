"""The package's records are NamedTuples: their repr, hash, equality and
immutability are those of a tuple of their fields, and memos keyed by a
record find it again when an equal one is built apart."""
from __future__ import annotations

import pytest

from stratacalc import levelgraphs as lg
from stratacalc.evaluate import Evaluator
from stratacalc.invariants import chern_polynomial, cross_check, euler_characteristic
from stratacalc.strata import StratumSpec, dimension

SPEC = StratumSpec.make([(0, (1, 1, -2, -2))], [({(0, 2), (0, 3)}, True)])
GRAPH = lg.LevelGraph((0, 0), (-1, 0), (((0, 0), 0), ((0, 1), 0), ((0, 2), 1), ((0, 3), 1)),
                      ((1, 0, 3),))


def test_repr_keeps_the_field_form():
    assert repr(SPEC) == (
        "StratumSpec(components=((0, (1, 1, -2, -2)),), residue_parts=("
        "ResiduePart(points=frozenset({(0, 2), (0, 3)}), constrained=True),))")
    assert repr(GRAPH) == (
        "LevelGraph(genera=(0, 0), levels=(-1, 0), legs=(((0, 0), 0), ((0, 1), 0), "
        "((0, 2), 1), ((0, 3), 1)), edges=((1, 0, 3),))")
    assert repr(dimension(SPEC)) == (
        "DimensionData(unprojectivized=2, projectivized=1, residue_rank=1, "
        "poles=((0, 2), (0, 3)), forced_zero=())")


def test_hash_is_the_hash_of_the_fields():
    for rec in (SPEC, SPEC.residue_parts[0], dimension(SPEC), GRAPH, lg.prong_data(GRAPH)):
        assert hash(rec) == hash(tuple(rec))


def test_fields_cannot_be_assigned():
    plain = StratumSpec(SPEC.components)
    rep = euler_characteristic(plain, Evaluator())
    for rec in (SPEC, SPEC.residue_parts[0], dimension(SPEC), GRAPH, lg.prong_data(GRAPH),
                rep, rep.rows[0], chern_polynomial(plain, Evaluator()), cross_check()[0]):
        name = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        assert getattr(rec, name) is not None


def test_equal_records_built_apart_share_a_memo_entry():
    spec = StratumSpec.from_json(SPEC.to_json())
    graph = lg.LevelGraph(*(tuple(list(field)) for field in GRAPH))
    assert spec == SPEC and spec is not SPEC
    assert graph == GRAPH and graph.legs is not GRAPH.legs
    assert dimension(spec) is dimension(SPEC)
    assert lg.prong_data(graph) is lg.prong_data(GRAPH)
    assert lg.level_strata(graph, spec) is lg.level_strata(GRAPH, SPEC)

