from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from stratacalc import invariants as inv
from stratacalc.cli import run

SPECS = os.path.join(os.path.dirname(__file__), "..", "demos", "specs")


def spec_path(name: str) -> str:
    return os.path.join(SPECS, name)


def test_chi_command(capsys):
    assert run(["chi", "--spec", spec_path("m13_k2.json")]) == 0
    assert capsys.readouterr().out.strip() == "chi = 1"


def test_chi_verbose_reproduces_displayed_sum(capsys):
    assert run(["chi", "--spec", spec_path("h2_min.json"), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["chi"] == "-1/40"
    contribs = sorted(r["contribution"] for r in obj["rows"])
    assert contribs == sorted(["-1/160", "0", "-1/96", "1/24"])


def test_graphs_command(capsys):
    assert run(["graphs", "--spec", spec_path("h2_min.json"),
                "--levels", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 graphs")


def test_xi_top_command(capsys):
    assert run(["xi-top", "--spec", spec_path("g0_111.json")]) == 0
    assert capsys.readouterr().out.strip() == "-4"


def test_divisors_and_profiles(capsys):
    assert run(["divisors", "--spec", spec_path("m13_k5.json")]) == 0
    out = capsys.readouterr().out
    assert "plus the horizontal divisor" in out
    assert run(["profiles", "--spec", spec_path("m13_k2.json")]) == 0


def test_c1_and_chern(capsys):
    assert run(["c1", "--spec", spec_path("m13_k2.json"), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert any(t["classes"] == {"xi[0]": 1} and t["coeff"] == "3" for t in obj)
    assert run(["chern", "--spec", spec_path("h2_min.json")]) == 0
    out = capsys.readouterr().out
    assert "duality" in out and "True" in out


def test_check_command(capsys):
    assert run(["check", "--tables"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_invalid_spec_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"components": [{"genus": 1, "orders": [1]}], "residue_parts": []}))
    assert run(["info", "--spec", str(bad)]) == 1


def test_missing_fixture_exits_one(tmp_path, capsys):
    spec = tmp_path / "g3.json"
    spec.write_text(json.dumps(
        {"components": [{"genus": 3, "orders": [7, -3]}],
         "residue_parts": []}))
    assert run(["xi-top", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "cannot evaluate" in err


def test_fixture_flag(tmp_path, capsys):
    spec = tmp_path / "g3.json"
    spec.write_text(json.dumps(
        {"components": [{"genus": 3, "orders": [7, -3]}],
         "residue_parts": []}))
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps([{
        "spec": {"components": [{"genus": 3, "orders": [7, -3]}],
                 "residue_parts": []},
        "integrand": {"xi_power": 5},
        "value": "2/3", "provenance": "test"}]))
    assert run(["xi-top", "--spec", str(spec), "--fixtures", str(fix)]) == 0
    assert capsys.readouterr().out.strip() == "2/3"


def test_output_file_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["chi", "--spec", spec_path("m13_k2.json"), "--json",
                    "--out", str(out)]) == 0
    assert out1.read_text() == out2.read_text()


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "stratacalc.cli", "xi-top", "--spec",
         spec_path("g0_111.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-4"


def test_residue_constrained_spec_info(capsys):
    assert run(["info", "--spec", spec_path("pair_residue.json"),
                "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dim"] == 1 and obj["residue_rank"] == 1


# -- the warm request path ---------------------------------------------------

def _connected(genus, orders):
    return {"components": [{"genus": genus, "orders": list(orders)}],
            "residue_parts": []}


WARM_SPECS = {
    "g0_111": None, "h2_min": None, "m13_k2": None, "pair_residue": None,
    "g1_2_0_m2": _connected(1, (2, 0, -2)),  # no fixture: exit 1
    "g1_1_m1": _connected(1, (1, -1)),       # not realizable: exit 1
    "float_orders": _connected(0, (1.5, -3.5)),  # rejected: exit 1
}

WARM_REQUESTS = [
    *[[cmd, "--spec", name, "--json"] for name in ("g0_111", "m13_k2")
      for cmd in ("info", "graphs", "divisors", "profiles", "chi", "xi-top",
                  "c1", "chern")],
    ["chi", "--spec", "h2_min", "--verbose"],
    ["chern", "--spec", "h2_min"],
    ["info", "--spec", "pair_residue"],
    ["check", "--tables"],
    *[[cmd, "--spec", "g1_2_0_m2", "--json"] for cmd in ("chi", "xi-top", "chern")],
    *[[cmd, "--spec", "g1_1_m1", "--json"] for cmd in ("divisors", "profiles", "chi", "c1")],
    ["info", "--spec", "float_orders"],
]


def _spec_files(tmp_path) -> dict[str, str]:
    out = {}
    for name, obj in WARM_SPECS.items():
        if obj is None:
            out[name] = spec_path(name + ".json")
        else:
            out[name] = str(tmp_path / (name + ".json"))
            with open(out[name], "w") as fh:
                json.dump(obj, fh)
    return out


def test_warm_path_matches_a_fresh_process(tmp_path, capsys):
    """Every request gives the same stdout, stderr and exit code when run
    repeatedly and interleaved in one process as in a fresh interpreter."""
    files = _spec_files(tmp_path)
    argvs = [[files.get(a, a) for a in argv] for argv in WARM_REQUESTS]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "stratacalc.cli", *argv],
                              capture_output=True, text=True, env=env)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert {rc for rc, _, _ in fresh} == {0, 1}
    for order in (argvs, argvs[::-1], argvs):
        for argv in order:
            rc = run(argv)
            out, err = capsys.readouterr()
            assert (rc, out, err) == fresh[argvs.index(argv)], argv


def test_rewritten_fixture_file_is_not_stale(tmp_path, capsys):
    spec = tmp_path / "g3.json"
    spec.write_text(json.dumps(_connected(3, (7, -3))))
    fix = tmp_path / "fix.json"
    for value in ("2/3", "5/7"):
        fix.write_text(json.dumps([{"spec": _connected(3, (7, -3)),
                                    "integrand": {"xi_power": 5},
                                    "value": value, "provenance": "test"}]))
        assert run(["xi-top", "--spec", str(spec), "--fixtures", str(fix)]) == 0
        assert capsys.readouterr().out.strip() == value
    assert run(["xi-top", "--spec", str(spec)]) == 1
    assert "cannot evaluate" in capsys.readouterr().err


def test_colliding_fixture_exits_one(tmp_path, capsys):
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps([{"spec": _connected(2, (2,)), "value": "1"}]))
    assert run(["xi-top", "--spec", spec_path("h2_min.json"),
                "--fixtures", str(fix)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fixture collision") and err.count("\n") == 1


# sha256 of the --json stdout, recorded before the canonical-form search was
# merged (the chern pins on g0_cherry, m13_k5 and pair_residue before the
# Chern graph pass was merged, the divisors pin on pair_residue before the
# induced conditions of constrained parts of two or more poles changed).  The LG_1 numbering (divisors, profiles) and
# the order of the decorated terms (c1, chern) follow from the plain tuple
# order of canonical encodings; a drift there changes these bytes.  Never
# re-record a pin to absorb a change.
JSON_SHA256 = {
    ("chi", "m13_k2"):
        "d4011585d4c63c3e223f40d58b52afc4c890f21167d3c2677e93c2bc149a6604",
    ("chi", "pair_residue"):
        "674a98c59c8aa3b2495e0f3d430edddc0e20df05d54a68c2ed664318e0a32f1d",
    ("divisors", "m13_k2"):
        "4b2ccac50493fec02dcbcc0d5c77fb71f7406e760522270e1bccff04edff3bf5",
    ("divisors", "h2_min"):
        "2428010c980fed48ae423f4735fd4f22bdbaed583d27fc732aa0408117f0ce07",
    ("divisors", "g0_111"):
        "bcd776a9f37501e45a62127f740a179e88a4f2cd3e1ceb8ef93f6ca1b51fa803",
    ("divisors", "pair_residue"):
        "9da5bc8697324fc9c6c7879b152539965a4e1635a998af0bb0293d4e920aad41",
    ("profiles", "m13_k2"):
        "3d31c9120fcee2bf868d1921caf96317f5bad6ffc81707769a1c96e9fe1a17ff",
    ("profiles", "h2_min"):
        "4272493df652d5f42aa526c931c3cf2fb8b0c7e5e5e0d2fc1ab0018231028762",
    ("profiles", "g0_111"):
        "b5564178eb9174b7df5c00a8f97858a5bb7f7ee2d05043c0d9426e5953b4ccf9",
    ("c1", "m13_k2"):
        "361c6c865c0513b7f0a08eb8738b976f2f9a06462aa30924e99859094cf052ba",
    ("c1", "h2_min"):
        "cfa9813deeea09237e182fbccfff511873ea061e95c500ac81d39d0d31de991e",
    ("c1", "g0_111"):
        "ed5bf36ddc5885c5e142efb15f8f475087702cae36f4080a3d73bffd12103deb",
    ("chern", "m13_k2"):
        "f5f1942659e6d8d26fa563713175f55c19b4b61c28d89a3f4007225301e68ffe",
    ("chern", "h2_min"):
        "4379836ffd6baa758e37209ec428246c231ea1d7d59042bdc455650cdc4d87d3",
    ("chern", "g0_111"):
        "92d8b93da5a493aec6807e5085fef070f352a693f3e0ff4d52007a8ffa0188d3",
    ("chern", "g0_cherry"):
        "d56de3efb9c45f83144913675e816838fba4ca090b473885f125b026339b6ced",
    ("chern", "m13_k5"):
        "c2198b3e290fbdc714587d6df6a5120a17ed36340d035c7c25524b726732da72",
    ("chern", "pair_residue"):
        "42d5675eee3e238a848bc8d37b59cc058e13e9bb276ac82b5cf865184813dae0",
}


@pytest.mark.parametrize("cmd,spec", sorted(JSON_SHA256))
def test_json_output_is_pinned(cmd, spec, capsys):
    assert run([cmd, "--spec", spec_path(spec + ".json"), "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == JSON_SHA256[cmd, spec]


def _part_spec(components, part):
    return {"components": [{"genus": g, "orders": list(o)} for g, o in components],
            "residue_parts": [{"points": [list(pt) for pt in part]}]}


# strata with a constrained part of two poles whose induced conditions once
# missed a level's condition, so that enumeration failed; with their chi
PART_SPECS = [
    (_part_spec([(0, (2, 2, -2, -2, -2))], [(0, 3), (0, 4)]), "-2"),
    (_part_spec([(0, (2, 2, -1, -1, -2, -2))], [(0, 4), (0, 5)]), "-16"),
    (_part_spec([(0, (2, -2, -2)), (0, (2, -2, -2, 0))], [(0, 1), (1, 1)]), "-1"),
]


@pytest.mark.parametrize("obj,chi", PART_SPECS, ids=["g0_n5", "g0_n6", "two_components"])
def test_constrained_parts_of_two_poles_answer(obj, chi, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    out = {}
    for cmd in ("divisors", "chi", "chern"):
        assert run([cmd, "--spec", str(path), "--json"]) == 0, cmd
        out[cmd] = json.loads(capsys.readouterr().out)
    assert out["divisors"]
    assert out["chi"]["chi"] == out["chern"]["chi"] == chi
    assert out["chern"]["duality_holds"] is True


# -- the input boundary ------------------------------------------------------

BAD_SPECS = [
    ({"components": [{"genus": 0, "orders": [1.5, -3.5]}]}, "orders[0]"),
    ({"components": [{"genus": True, "orders": [0, -2]}]}, "genus"),
    ({"components": [{"genus": "1", "orders": [0]}]}, "genus"),
    ({"components": [{"genus": 0}]}, "missing key 'orders'"),
    ({"components": [{"genus": 1, "orders": [0], "name": "x"}]}, "unknown key"),
    ({"residue_parts": []}, "missing key 'components'"),
    ({"components": [], "extra": 1}, "unknown key"),
    ([{"genus": 0, "orders": [0, 0, -2]}], "expected an object"),
    ({"components": {"genus": 0}}, "expected an array"),
    ({"components": [{"genus": 0, "orders": [0, -2, -2, 2]}],
      "residue_parts": [{"points": [[0, 5]]}]}, "no marked point (0, 5)"),
    ({"components": [{"genus": 0, "orders": [0, -2, -2, 2]}],
      "residue_parts": [{"points": [[0, 1], [0, 1]]}]}, "listed twice"),
    ({"components": [{"genus": 0, "orders": [0, -2, -2, 2]}],
      "residue_parts": [{"points": [[0, 1]], "constrained": 1}]}, "constrained"),
    ({"components": [{"genus": 0, "orders": [0, -2, -2, 2]}],
      "residue_parts": [{"points": [[0, 1, 2]]}]}, "pair"),
]


H2 = {"components": [{"genus": 2, "orders": [2]}]}
G1 = {"components": [{"genus": 1, "orders": [2, 1, -3]}]}

BAD_FIXTURES = [
    ([{"spec": H2}], "fixtures[0]: missing key 'value'"),
    ([{"value": "1"}], "fixtures[0]: missing key 'spec'"),
    ([{"spec": H2, "value": "abc"}], "fixtures[0].value"),
    ([{"spec": H2, "value": 0.5}], "fixtures[0].value"),
    ([{"spec": H2, "value": "1/0"}], "fixtures[0].value"),
    ({"spec": H2, "value": "1"}, "fixtures: expected an array"),
    ([{"spec": G1, "value": "5/8"}, "x"], "fixtures[1]: expected an object"),
    ([{"spec": H2, "value": "1", "note": "x"}], "fixtures[0]: unknown key 'note'"),
    ([{"spec": {"components": [{"genus": 2}]}, "value": "1"}],
     "fixtures[0].spec: components[0]: missing key 'orders'"),
    ([{"spec": H2, "value": "1", "provenance": 3}], "fixtures[0].provenance"),
    ([{"spec": H2, "value": "1", "integrand": {"xi": 4}}],
     "fixtures[0].integrand: unknown key 'xi'"),
    ([{"spec": H2, "value": "1", "integrand": {"xi_power": "4"}}],
     "fixtures[0].integrand.xi_power"),
    ([{"spec": H2, "value": "1", "integrand": {"psi": {"a.b": 1}}}],
     "fixtures[0].integrand.psi: key 'a.b'"),
    ([{"spec": H2, "value": "1", "integrand": {"psi": {"0.0.0": 1}}}],
     "key '0.0.0'"),
    ([{"spec": H2, "value": "1", "integrand": {"psi": {"0.1": 1}}}],
     "key '0.1'"),
    ([{"spec": H2, "value": "1", "integrand": {"psi": {"0.0": "4"}}}],
     "fixtures[0].integrand.psi['0.0']: expected an integer"),
    ([{"spec": H2, "value": "1", "integrand": {"psi": {"0.0": 0}}}],
     "positive exponent"),
    ([{"spec": H2, "value": "1", "integrand": {"psi": [1]}}],
     "fixtures[0].integrand.psi: expected an object"),
    ([{"spec": H2, "value": "1", "integrand": {"xi_power": 2}}],
     "fixtures[0].integrand.xi_power: expected 3, got 2"),
    ([{"spec": H2, "value": "1", "integrand": {"psi": {"0.0": 2}}}],
     "fixtures[0].integrand.psi: exponents sum to 2"),
    ([{"spec": H2, "value": "1", "integrand": {"xi_power": 3, "psi": {"0.0": 3}}}],
     "fixtures[0].integrand.xi_power: expected 0, got 3"),
    ([{"spec": {"components": [{"genus": 2, "orders": [3]}]}, "value": "1"}],
     "fixtures[0].spec: "),
]


def test_bad_specs_exit_one_with_one_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for obj, where in BAD_SPECS:
        path.write_text(json.dumps(obj))
        for cmd in ("info", "chi"):
            assert run([cmd, "--spec", str(path)]) == 1, obj
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1, obj
            assert err.startswith("error: ") and where in err, (obj, err)
    fix = tmp_path / "fix.json"
    for obj, where in BAD_FIXTURES:
        fix.write_text(json.dumps(obj))
        assert run(["xi-top", "--spec", spec_path("m13_k2.json"),
                    "--fixtures", str(fix)]) == 1, obj
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, obj
        assert err.startswith("error: ") and where in err, (obj, err)
    path.write_text("{")
    assert run(["info", "--spec", str(path)]) == 1
    assert capsys.readouterr().err.count("\n") == 1



def test_invalid_spec_gives_the_same_diagnostic_on_every_request(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"components": [{"genus": 0, "orders": [2, -2, -1]}]}))
    for cmd in ("graphs", "divisors", "chi", "xi-top"):
        answers = []
        for _ in range(2):
            rc = run([cmd, "--spec", str(path)])
            answers.append((rc, *capsys.readouterr()))
        assert answers == [(1, "", "error: component 0: order sum -1 != 2g-2 = -2\n")] * 2, cmd


def test_unexpected_error_exits_two_with_one_line(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise KeyError("some\nkey")
    monkeypatch.setattr(inv, "euler_characteristic", boom)
    assert run(["chi", "--spec", spec_path("g0_111.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("internal error: KeyError")


USAGE_ERRORS = [
    (["chi"], "error: the following arguments are required: --spec"),
    (["frobnicate"], "error: argument command: invalid choice: 'frobnicate'"),
    (["chi", "--spec", spec_path("g0_111.json"), "--levels", "one"],
     "error: argument --levels: invalid int value: 'one'"),
    (["graphs", "--spec", spec_path("g0_111.json"), "--levels", "-1"],
     "error: argument --levels: expected a nonnegative integer, got -1"),
    (["profiles", "--spec", spec_path("g0_111.json"), "--levels", "-1"],
     "error: argument --levels: expected a nonnegative integer, got -1"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_usage_error_exits_one_with_one_line(argv, message, capsys):
    try:
        rc = run(argv)
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) escaped run()")
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith(message) and err.count("\n") == 1, err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: stratacalc")


SPEC_COMMANDS = ("info", "graphs", "divisors", "profiles", "chi", "xi-top",
                 "c1", "chern")


def test_empty_stratum_answers_every_command(tmp_path, capsys):
    # genus 0 with orders (1, -3) has projectivized dimension -1
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_connected(0, (1, -3))))
    for cmd in SPEC_COMMANDS:
        assert run([cmd, "--spec", str(path), "--json"]) == 0, cmd
        out, err = capsys.readouterr()
        assert err == "", (cmd, err)
    assert json.loads(out) == {"spec": _connected(0, (1, -3)), "classes": [],
                               "top_value": "0", "chi": "0",
                               "duality_holds": True}
