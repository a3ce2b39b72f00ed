from __future__ import annotations

from stratacalc.strata import StratumSpec, classify, dimension, validate


def two_component_example() -> StratumSpec:
    """The 1-dimensional pair of rational components with cross-component
    residue identifications."""
    return StratumSpec.make(
        [(0, (-2, -2, 2)), (0, (-2, -2, 1, 1))],
        [({(0, 0), (1, 0)}, True), ({(0, 1), (1, 1)}, True)])


def test_validate_examples():
    assert validate(StratumSpec.connected(2, (2,))) == []
    assert classify(StratumSpec.connected(2, (2,))) == "holomorphic"
    spec = StratumSpec.connected(0, (-2, -2, 2))
    assert validate(spec) == []
    assert classify(spec) == "meromorphic"
    bad = StratumSpec.connected(1, (1,))
    assert any("order sum" in msg for msg in validate(bad))


def test_validate_part_rules():
    # a part containing a simple pole is rejected
    spec = StratumSpec.make([(0, (1, 1, -1, -3))], [({(0, 2)}, True)])
    assert any("order > -2" in m for m in validate(spec))
    # reused point across parts
    spec = StratumSpec.make([(0, (2, -2, -2))],
                            [({(0, 1)}, True), ({(0, 1), (0, 2)}, True)])
    assert any("reused" in m for m in validate(spec))


def test_dimension_holomorphic():
    dd = dimension(StratumSpec.connected(2, (2,)))
    assert (dd.unprojectivized, dd.projectivized) == (4, 3)


def test_dimension_meromorphic():
    dd = dimension(StratumSpec.connected(0, (1, 1, 1, 1, -6)))
    assert (dd.unprojectivized, dd.projectivized) == (3, 2)


def test_dimension_connected_formulas():
    # holomorphic: N = 2g-1+n; meromorphic unconstrained: N = 2g-2+n
    for g, mu in [(3, (4,)), (2, (1, 1)), (1, (0,))]:
        n = dimension(StratumSpec.connected(g, mu)).unprojectivized
        assert n == 2 * g - 1 + len(mu)
    for g, mu in [(1, (2, -2)), (0, (1, 1, -2, -2)), (2, (5, -3))]:
        n = dimension(StratumSpec.connected(g, mu)).unprojectivized
        assert n == 2 * g - 2 + len(mu)


def test_two_component_example_dimension():
    spec = two_component_example()
    assert validate(spec) == []
    dd = dimension(spec)
    assert dd.projectivized == 1
    assert dd.residue_rank == 1


def test_residue_rank_trivial_cases():
    # no parts: rank equals dim R
    spec = StratumSpec.make([(0, (1, 1, -2, -2))])
    assert dimension(spec).residue_rank == 1
    # single higher-order pole: residue theorem kills the residue
    spec = StratumSpec.connected(0, (1, 1, -4))
    assert dimension(spec).residue_rank == 0


def test_forced_zero_residues():
    spec = StratumSpec.connected(0, (1, 1, -4))
    assert dimension(spec).forced_zero == ((0, 2),)
    spec = StratumSpec.make([(0, (1, 1, -2, -2))])
    assert dimension(spec).forced_zero == ()
    spec = StratumSpec.make([(0, (1, 1, -2, -2))], [({(0, 2)}, True)])
    assert dimension(spec).forced_zero == ((0, 2), (0, 3))


def test_unconstrained_parts_are_inert():
    free = StratumSpec.make([(0, (1, 1, -2, -2))], [({(0, 2), (0, 3)}, False)])
    assert dimension(free).projectivized == \
        dimension(StratumSpec(free.components)).projectivized
    assert dimension(free).forced_zero == ()


def test_json_roundtrip():
    spec = two_component_example()
    again = StratumSpec.from_json(spec.to_json())
    assert again == spec


def test_additivity_of_unprojectivized_dimension():
    a = StratumSpec.connected(0, (1, 1, -4))
    b = StratumSpec.connected(1, (2, -2))
    ab = StratumSpec.make([(0, (1, 1, -4)), (1, (2, -2))])
    assert dimension(ab).unprojectivized == \
        dimension(a).unprojectivized + dimension(b).unprojectivized
