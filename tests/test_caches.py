from __future__ import annotations

import functools
import importlib
import pkgutil

import stratacalc
import stratacalc.cli
from stratacalc import caches
from stratacalc.evaluate import Evaluator
from stratacalc.invariants import chern_polynomial, euler_characteristic
from stratacalc.strata import StratumSpec

SPEC = StratumSpec.connected(0, (1, 1, 1, -2, -3))  # genus 0, n = 5


def chi_and_chern(spec: StratumSpec):
    ev = Evaluator()
    return (euler_characteristic(spec, ev).to_json_obj(),
            chern_polynomial(spec, ev).to_json_obj())


def test_clear_empties_every_memo_and_keeps_results():
    before = chi_and_chern(SPEC)
    stats = caches.stats()
    assert stats["levelgraphs.enumerate_LGL"] and stats["strata.dimension"]
    assert stats["levelgraphs.level_strata"]
    assert "levelgraphs.level_verdict" not in stats
    caches.clear()
    assert set(caches.stats().values()) == {0}
    assert chi_and_chern(SPEC) == before


def test_per_object_memos_leave_stats_with_their_object():
    caches.clear()
    ev = Evaluator()
    ev.xi_top(SPEC)
    assert caches.stats()["evaluate.integrals"] > 0
    del ev
    assert caches.stats()["evaluate.integrals"] == 0


def _module_state():
    """Every module-level dict and lru_cache of the package, but the
    owner's own registry."""
    out = {}
    for info in pkgutil.iter_modules(stratacalc.__path__):
        if info.name == "caches":
            continue
        module = importlib.import_module(f"stratacalc.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, (dict, functools._lru_cache_wrapper)):
                out[f"{info.name}.{name}"] = value
    return out


def test_every_module_level_memo_is_registered(tmp_path, capsys):
    """Only memos the owner can see grow while the library works."""
    state = _module_state()
    # every memo is a registered dict: no module-level lru_cache
    assert not [name for name, v in state.items()
                if isinstance(v, functools._lru_cache_wrapper)]
    fixed = {name: len(v) for name, v in state.items()
             if isinstance(v, dict) and not isinstance(v, caches.Memo)}
    caches.clear()
    chi_and_chern(StratumSpec.connected(1, (3, 1, -4)))
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC.to_json())
    for cmd in ("info", "divisors", "profiles", "chi", "xi-top", "c1", "chern"):
        assert stratacalc.cli.run([cmd, "--spec", str(spec), "--json"]) == 0
    capsys.readouterr()
    grown = [name for name, v in state.items() if isinstance(v, caches.Memo) and v]
    assert "levelgraphs._ENUM_CACHE" in grown and "strata._DIMENSIONS" in grown
    assert "levelgraphs._LEVEL_STRATA" in grown
    # every registered memo by name: adding or dropping one edits this set
    assert set(caches.stats()) == {
        "evaluate.evaluators", "evaluate.integrals", "levelgraphs.canonical_encoding",
        "levelgraphs.enumerate_LGL", "levelgraphs.level_specs",
        "levelgraphs.level_strata", "levelgraphs.prong_data", "strata.dimension"}
    # strata keeps one per-spec memo: the residue record of `dimension`
    assert [name for name, v in state.items() if name.startswith("strata.")
            and isinstance(v, caches.Memo)] == ["strata._DIMENSIONS"]
    assert {name: len(state[name]) for name in fixed} == fixed
