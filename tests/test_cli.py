from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from stratacalc import invariants as inv, levelgraphs as lg, tautring as tr
from stratacalc.cli import run
from stratacalc.strata import StratumSpec, dimension
from test_levelgraphs import one_part_specs

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
    assert run(["check"]) == 0
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


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["chi", "--spec", spec_path("m13_k2.json"), "--json",
                    "--out", str(out)]) == 0
    assert out1.read_text() == out2.read_text()
    # the --out file of a --json command holds exactly the bytes stdout prints
    for argv in (["chi", "--spec", spec_path("m13_k2.json")],
                 ["profiles", "--spec", spec_path("h2_min.json")], ["check"]):
        path = tmp_path / f"{argv[0]}.json"
        assert run([*argv, "--json", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert run([*argv, "--json"]) == 0
        assert path.read_bytes() == capsys.readouterr().out.encode(), argv


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "stratacalc.cli", "xi-top", "--spec",
         spec_path("g0_111.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-4"


def test_each_command_builds_only_the_output_it_prints(monkeypatch, capsys):
    calls = []

    def spy(owner, name, label):
        real = getattr(owner, name)

        def counted(*args):
            calls.append(label)
            return real(*args)
        monkeypatch.setattr(owner, name, counted)
    spy(inv.EulerReport, "to_json_obj", "chi")
    spy(inv.ChernReport, "to_json_obj", "chern")
    spy(tr.TautClass, "to_json_obj", "class")
    spy(lg, "graph_report", "graph_report")
    for cmd in ("chi", "chern", "graphs", "divisors", "c1"):
        calls.clear()
        assert run([cmd, "--spec", spec_path("m13_k5.json")]) == 0
        capsys.readouterr()
        assert calls == (["class"] if cmd == "c1" else []), cmd
    calls.clear()
    assert run(["c1", "--spec", spec_path("m13_k5.json"), "--json"]) == 0
    assert calls == ["class"]


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
    ["check"],
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


def _simple_pole_chi(tmp_path) -> list[str]:
    """chi of genus 2 (3, 1, -1, -1) with xi-top fixtures that let it reach
    psi integrals at simple poles."""
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps([
        {"spec": _connected(g, mu), "value": 1}
        for g, mu in [(2, (3, 1, -1, -1)), (1, (3, -1, -2)), (1, (2, 0, -1, -1)),
                      (1, (1, 1, -1, -1)), (1, (1, 1, 0, -1, -1)), (1, (2, -1, -1))]]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_connected(2, (3, 1, -1, -1))))
    return ["chi", "--spec", str(spec), "--fixtures", str(fix)]


def test_psi_at_a_simple_pole_is_no_internal_error(tmp_path, capsys):
    """The psi integrals at simple poles that this chi reaches are
    unevaluatable, never an internal error."""
    assert run(_simple_pole_chi(tmp_path)) in (0, 1)
    assert "internal" not in capsys.readouterr().err


def test_a_mixed_psi_xi_frame_names_its_xi_power(tmp_path, capsys):
    """Each frame of the chain names its whole integrand: the psi^2 xi^2 and
    psi xi^3 frames on the disconnected level stratum of projectivized
    dimension 4 carry their xi power, the pure psi and pure xi frames read
    as their fixture keys."""
    assert run(_simple_pole_chi(tmp_path)) == 1
    out, err = capsys.readouterr()
    psi = 'psi (order, exponent) on {"c": [%s[1, [[2, 0], [-1, %d], [-1, 0]]]]}'
    assert (out, err) == ("", "error: cannot evaluate: " + " <- ".join([
        psi % ("", 2), "xi^2 " + psi % ("[1, [[0, 0]]], ", 2),
        "xi^3 " + psi % ("[1, [[0, 0]]], ", 1),
        'xi^d on {"c": [[1, [0]], [1, [2, -1, -1]]]}',
        'level 0 of a boundary graph of {"c": [[2, [3, 1, -1, -1]]]}']) + "\n")


def test_colliding_fixture_exits_one(tmp_path, capsys):
    fix = tmp_path / "fix.json"
    fix.write_text(json.dumps([{"spec": _connected(2, (2,)), "value": "1"}]))
    for cmd in ("xi-top", "chi", "chern"):
        assert run([cmd, "--spec", spec_path("h2_min.json"),
                    "--fixtures", str(fix)]) == 1, cmd
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: fixture collision"), cmd
        assert err.count("\n") == 1, cmd


# sha256 of the --json stdout, recorded before the canonical-form search was
# merged (the chern pins on g0_cherry, m13_k5 and pair_residue before the
# Chern graph pass was merged, the divisors pin on pair_residue before the
# induced conditions of constrained parts of two or more poles changed).  The LG_1 numbering (divisors, profiles) and
# the order of the decorated terms (c1, chern) follow from the plain tuple
# order of canonical encodings; a drift there changes these bytes.  The info,
# graphs, xi-top and check pins were recorded before --json output was written
# by the CLI's own writer instead of json.dumps.  A key is the command with its
# options and the spec the --spec option names, if any.  Never re-record a pin
# to absorb a change.
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
    ("info", "m13_k2"):
        "8bfa1dc8ae807fff2ab34c8ee88ce2c29f76db528f7bcdd3636cffd6ceee2186",
    ("info", "pair_residue"):
        "229db6d2adc90face9a6f3e01563a82c9d50cc24db7cf86591235a703d09cecb",
    ("graphs --levels 1", "h2_min"):
        "2428010c980fed48ae423f4735fd4f22bdbaed583d27fc732aa0408117f0ce07",
    ("graphs --levels 1", "g0_cherry"):
        "b46b6881982b24d10b3ea2087a777fecc3f3e5a62e8d876ec1dca61e75a08be0",
    ("graphs --levels 2", "h2_min"):
        "9f3ced0597b22d5606cf0e5a94b5dd0c5f23b7595bf95b8612947f366c9c7611",
    ("graphs --levels 2", "g0_cherry"):
        "fa1461236a418a920179e18d4a621d0d1b5c77eca84ee42ac2649753d344d146",
    ("xi-top", "g0_111"):
        "ff8760cd3174a07cffe3dd22b5fd96501660145bf85f5edb35f852b3bbde3001",
    ("xi-top", "h2_min"):
        "7150245e8d49594f945317c2f364d37374f20c269d500a80be5eb3241c5a9553",
    ("check", None):
        "4fd7ccc9f0472387be1c02b5e26998f600b6d8c603598f7d49c02644e6cd7710",
}


def _argv(cmd: str, spec: str | None) -> list[str]:
    """The command line of a pin key: the command, its --spec, its options."""
    name, *options = cmd.split()
    return [name, *(["--spec", spec_path(spec + ".json")] if spec else []), *options]


@pytest.mark.parametrize("cmd,spec", list(JSON_SHA256),
                         ids=[f"{c}-{s}" for c, s in JSON_SHA256])
def test_json_output_is_pinned(cmd, spec, capsys):
    assert run([*_argv(cmd, spec), "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == JSON_SHA256[cmd, spec]


# sha256 of the text stdout (no --json) of every command, recorded before
# each handler was made to build only the output it prints.  A key is the
# command with its options and the spec the --spec option names, if any.
TEXT_SHA256 = {
    ("info", "g0_111"):
        "ec1845753506b3b30ca10101db83b115295bfc619e82584e2335ab93d81fdec3",
    ("info", "g0_cherry"):
        "8e6d4533347163bc94fb402248c1df4d541c87eedc8f342bd87f9a577b9c38ef",
    ("info", "h2_min"):
        "b01531b069769d040d64d5a21722d7c3418eb070af3acbddd85e6d5382a89e13",
    ("info", "m13_k2"):
        "27cf4fd046400c5cb105bed0233e1703762516cfcd299f2aabc032cbe894212f",
    ("info", "m13_k5"):
        "27cf4fd046400c5cb105bed0233e1703762516cfcd299f2aabc032cbe894212f",
    ("info", "pair_residue"):
        "c897a8b8f5786709cb8e10e491209957620149540e4dcb503bd2f79058f85b4a",
    ("graphs", "g0_111"):
        "85f3b57fdd8ed3c24c44fc624cb0decd0c63b446e5bbdf01d65fd2fdaf19e813",
    ("graphs", "g0_cherry"):
        "cf4ccbae60d1b9d2a808e0e604d37b4ae704a538efa81f8b0a13dd132432930d",
    ("graphs", "h2_min"):
        "761c8340c832d99b1701c1aebba1a54e2d057ce7fa9e3d6ee2f4d544a7d72c42",
    ("graphs", "m13_k2"):
        "781d6a295d4b9fef96a9bd45faefd20894680160a57742c7fd440436f65bc77a",
    ("graphs", "m13_k5"):
        "8a1626379d57fc5d018839ea680823e11fb1468ec8c2f76279dec44d0678a228",
    ("graphs", "pair_residue"):
        "71b9b3c1c96d5a908ae0e55481e9df42be4158e90185acf159e1c59750c64b88",
    ("divisors", "g0_111"):
        "28f023b9cdc237f99b0592dd8c96631722e68865c684cbf543cc10a56d92575e",
    ("divisors", "g0_cherry"):
        "171587ba1d94da960e8b839af9a6f83dfebd96eb794a3cacbd5b80bcbf3e24a3",
    ("divisors", "h2_min"):
        "b8cdd236c49786060d39012ea227dd6c969ddcabecf4b8bf3719a76e4c181ee5",
    ("divisors", "m13_k2"):
        "eead6086cd7b57bc7504883807dba33538a3c449b5e05fdca20449a1261525ea",
    ("divisors", "m13_k5"):
        "9e284cf29e51c5d9efa78d6a0dbc3f22fb8953ef35b9637c63e12bf08fa485ce",
    ("divisors", "pair_residue"):
        "e2f9d5628285b665559f97dc84d739478b09f3fed4b948d8e99065047da93f8a",
    ("profiles", "g0_111"):
        "ac5b32cc2a62172e60d185ce9e852d8e248cf67cace1c4a5206a7da0af8f01ea",
    ("profiles", "g0_cherry"):
        "1da1c7f1c59e09ca73241af7e996c610a4a849c31b7970c18604744d1ec8cd45",
    ("profiles", "h2_min"):
        "4a50f10fe649113a4a11c207a404e753a9c7e16a84be0f79d79418f117d971b2",
    ("profiles", "m13_k2"):
        "c1edf3a4e20587c8fe43656cb3540f8e1809b5dafdf37cc6ef811b8b56a5444e",
    ("profiles", "m13_k5"):
        "f775a58df65860df8b00e0e8ab7ef2aa960e9125b0f68e259b9f345a1d084173",
    ("profiles", "pair_residue"):
        "53906565fe3a4175ebc9049f9077d1ade6efe384f4be369ff04fc84b1eb0de3f",
    ("chi", "g0_111"):
        "707c670de0fb8b8f0d2fc0ad3cdee7452d349d57091933d33c982df4d04f05a4",
    ("chi", "g0_cherry"):
        "3a393fa900612766d5236936c1d19c2471c93c12a929a787a9af231d568ae465",
    ("chi", "h2_min"):
        "45dc70ca94f09082ae5f00abda6c6cf136c46ea8cbba1455de2a51f4c0ec2518",
    ("chi", "m13_k2"):
        "28ff45fd7207cff8c425d553bbf0089356da4863ce4fdf726e899697c02fd7bb",
    ("chi", "m13_k5"):
        "38e50449e88a127ed7f262bcb3836fcf54c292a0be412db335d079a8bfa5f6bd",
    ("chi", "pair_residue"):
        "296f066cb6fa9bf0ed6da6b5e77217ecd68a6fede77f1615dedf483dc7322e90",
    ("xi-top", "g0_111"):
        "8fbfec21acf8f74313698199401f9eb352920bd889b4865b272e657167808aa0",
    ("xi-top", "g0_cherry"):
        "6169555d9248be7e184f52250129b0d66c9932af74f4ac7bc716c20013fca362",
    ("xi-top", "h2_min"):
        "a868eafba834b7297f5eb59fa50a84421c4ed7e74a104e5800599943059255c2",
    ("xi-top", "m13_k2"):
        "d7b04a4fe1f44f6c6220e30fa319aee4ccbe24b2d621184fd9cebd6c958ba48b",
    ("xi-top", "m13_k5"):
        "20d2add851bf39edcc6b5e830930f962db7e19dffa2cab8610eed551eda6c302",
    ("xi-top", "pair_residue"):
        "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28",
    ("c1", "g0_111"):
        "62e1db796b5abcd4e69fe4bfedf3c598a2d484bb48d633ca6587b0fade7f5fd2",
    ("c1", "g0_cherry"):
        "4d7d0cd7bad377a6530adc39b469b9efb67091fba94cd6494b61b91831459b9f",
    ("c1", "h2_min"):
        "751369a8c18268d729b1d942a889a7927d243f8502783905cc608bfb225e0c7f",
    ("c1", "m13_k2"):
        "2a9b8ba7e39dace49d95ff179ccb6b066d94e2b200b501dc2ab84a23f4f04296",
    ("c1", "m13_k5"):
        "01240e82a191b27adadd5fdde033e21a925c50543cb11054d22ff62ebe83fa54",
    ("c1", "pair_residue"):
        "065cd5665163360089086a7fc2e205b0f9480441649a112b88b0476bae6f03eb",
    ("chern", "g0_111"):
        "7ccb70b295fbc15f16ec0b3763e2cd25faba101830eefa0430fe7e7cb943659e",
    ("chern", "g0_cherry"):
        "86c6936ae1fbdb1346db2ea2ea0d28c96a52207fe31d4a818ecf4a2154a27e15",
    ("chern", "h2_min"):
        "2bfa29d7d301425592954429990cd07617243487cfd85a7813a86c0a69f1440f",
    ("chern", "m13_k2"):
        "3542c994425398d9d5d180f507668f2238807781ed90e94b216d4ace7667a255",
    ("chern", "m13_k5"):
        "c30fd4b975788d2cfa3085946555ab63c3972fe404052097b7beac98cb60a657",
    ("chern", "pair_residue"):
        "36ec51c0e165cedad50052c18ca7e1f44de149f45cbd9580089bcc0ed983441c",
    ("chi --verbose", "g0_111"):
        "748b93f8d5a6fd523202d049e60cc2de7c417b318c43e60c3800fbb6f16e90ae",
    ("chi --verbose", "g0_cherry"):
        "00d8072b78647b3b47c24924ad7b5a64122da77d7c2dee00646bb7ddd1015a4d",
    ("chi --verbose", "h2_min"):
        "b3ac723923efe8a1fecb67bec70885b889d944c885cd0358cf365323267fe5d3",
    ("chi --verbose", "m13_k2"):
        "ebc4aa30a2ae59f9fbaba811fb1397856df07575efc04cc910e1369ed8f5cf9f",
    ("chi --verbose", "m13_k5"):
        "69d1acfad13aa84179249a0a1c47edb327fb1b6aca7d81ff1947eb012848e8ae",
    ("chi --verbose", "pair_residue"):
        "ce87946387165bc01310a9b8d7b2b0eda6688ac6c1d89e90e52174ec3d3be0e8",
    ("graphs --levels 2", "g0_cherry"):
        "1322da41ab5e79f23568105ed1fe9da0871c75abc1ca8682a5a798dc23826c14",
    ("graphs --levels 2", "m13_k5"):
        "9bf133e2939a609981b147c879e8529e04921780eef2fb050ff4bcd8eabb866f",
    ("profiles --levels 1", "g0_cherry"):
        "7a922b8252fefff6e84435ed4da3f06d98abc4430fb656298e5160c058c78a18",
    ("profiles --levels 1", "m13_k5"):
        "88aed396abfd379ff5120d5db3352255acdd2a9835570e4dfc597bfdb7b4b687",
    ("check", None):
        "14c8b3a224663d9a9108b839656c0df3b061b1f3b8b9ceebccbe2aca0676992b",
}


@pytest.mark.parametrize("cmd,spec", list(TEXT_SHA256),
                         ids=[f"{c}-{s}" for c, s in TEXT_SHA256])
def test_text_output_is_pinned(cmd, spec, capsys):
    assert run(_argv(cmd, spec)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == TEXT_SHA256[cmd, spec]


# exit code and stderr of chern on strata with an integral it cannot
# evaluate, recorded before the lam-classes were expanded by one generator.
# The expansion is depth first in term order, so the first missing integral,
# the one named, does not move.  Never re-record a pin to absorb a change.
CHERN_DIAGNOSTICS = {
    (2, (4, -2)):
        'error: cannot evaluate: xi^d on {"c": [[1, [2, 0, -2]]]}\n',
    (2, (2, 2, -2)):
        'error: cannot evaluate: xi^d on {"c": [[2, [2, 2, -2]]]}\n',
    (3, (4,)):
        'error: cannot evaluate: xi^d on {"c": [[1, [4, -2, -2]]]}'
        ' <- xi^d on {"components": [{"genus": 1, "orders": [4, -2, -2]}],'
        ' "residue_parts": [{"constrained": true, "points": [[0, 1]]}]}'
        ' <- xi^d on {"components": [{"genus": 1, "orders": [4, -2, -2]}],'
        ' "residue_parts": [{"constrained": true, "points": [[0, 1]]},'
        ' {"constrained": true, "points": [[0, 2]]}]}\n',
}


@pytest.mark.parametrize("genus,orders", sorted(CHERN_DIAGNOSTICS))
def test_chern_diagnostic_is_pinned(genus, orders, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_connected(genus, orders)))
    assert run(["chern", "--spec", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err.encode()) == ("", CHERN_DIAGNOSTICS[genus, orders].encode())


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
    ([{"spec": G1, "value": "1", "integrand": {"psi": {"0.0": 2, "00.0": 2}}}],
     "fixtures[0].integrand.psi: key '00.0' names the point 0.0 a second time"),
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
    for cmd in ("info", "graphs", "divisors", "profiles", "chi", "xi-top", "c1", "chern"):
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
    (["graphs", "--spec", spec_path("g0_111.json"), "--levels", "one"],
     "error: argument --levels: invalid int value: 'one'"),
    (["graphs", "--spec", spec_path("g0_111.json"), "--levels", "-1"],
     "error: argument --levels: expected a nonnegative integer, got -1"),
    (["profiles", "--spec", spec_path("g0_111.json"), "--levels", "-1"],
     "error: argument --levels: expected a nonnegative integer, got -1"),
    (["chi", "--spec", spec_path("g0_111.json"), "--levels", "1"],
     "error: unrecognized arguments: --levels 1"),
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


# the options each command reads besides --json and --out
READS = {
    "info": ("--spec",), "divisors": ("--spec",), "c1": ("--spec",),
    "graphs": ("--spec", "--levels"), "profiles": ("--spec", "--levels"),
    "chi": ("--spec", "--fixtures", "--verbose"),
    "xi-top": ("--spec", "--fixtures"), "chern": ("--spec", "--fixtures"),
    "check": (),
}
# arguments for each option; --tables is an option of no command, check included
OPTION_ARGS = {"--spec": [spec_path("g0_111.json")], "--tables": [],
               "--fixtures": [spec_path("g0_111.json")], "--levels": ["1"],
               "--verbose": []}


@pytest.mark.parametrize("cmd,option", [(cmd, option) for cmd in READS
                                        for option in OPTION_ARGS
                                        if option not in READS[cmd]])
def test_an_option_the_command_does_not_read_is_refused(cmd, option, capsys):
    argv = [cmd, *(["--spec", spec_path("g0_111.json")] if "--spec" in READS[cmd] else []),
            option, *OPTION_ARGS[option]]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith(f"error: unrecognized arguments: {option}"), err


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


# disconnected specs with an unstable genus-0 component of two points, of
# dimension 1 and 0
UNSTABLE_COMPONENT_SPECS = [
    StratumSpec.make([(0, (0, -2)), (1, (0,))]),
    StratumSpec.make([(0, (1, -3)), (0, (0, 0, -2))]),
]


def test_a_stratum_that_is_not_realizable_is_refused_by_every_command(tmp_path, capsys):
    """Every command that reads a spec, but ``info``, gives the one verdict
    of ``enumerate_LGL(spec, 0)`` on the ambient stratum: the fourteen
    strata of the one-part scan with a simple pole whose residue is forced
    to zero, six of them of dimension 0, and the strata with an unstable
    component exit 1 with one stderr line, whether or not the command
    enumerates a graph below the top level."""
    refused = [spec for spec in one_part_specs()
               if any(spec.order(pt) == -1 for pt in dimension(spec).forced_zero)]
    assert len(refused) == 14
    assert sum(dimension(spec).projectivized == 0 for spec in refused) == 6
    path = tmp_path / "spec.json"
    for spec in refused + UNSTABLE_COMPONENT_SPECS:
        path.write_text(spec.to_json())
        assert run(["info", "--spec", str(path)]) == 0
        capsys.readouterr()
        for cmd in SPEC_COMMANDS[1:]:
            assert run([cmd, "--spec", str(path)]) == 1, (cmd, spec)
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1, (cmd, spec, err)
            assert err.startswith("error: ambient stratum not realizable: "), (cmd, spec, err)
