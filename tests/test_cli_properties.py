"""Property tests of the command line: random spec JSON never gives a
traceback, and the ``--json`` writer prints what ``json.dumps`` prints.
Skipped where hypothesis is not installed."""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stratacalc import levelgraphs as lg  # noqa: E402
from stratacalc.cli import _json_text, run  # noqa: E402

json_leaf = (st.none() | st.booleans() | st.integers(-6, 6)
             | st.floats(allow_nan=True) | st.text(max_size=4))
json_value = st.recursive(
    json_leaf, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=8)


@st.composite
def balanced_component(draw):
    """A component whose orders sum to 2g - 2, so that many are valid."""
    genus = draw(st.integers(0, 1))
    orders = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    return {"genus": genus, "orders": orders + [2 * genus - 2 - sum(orders)]}


component = balanced_component() | st.fixed_dictionaries(
    {"genus": st.integers(0, 1) | json_leaf,
     "orders": st.lists(st.integers(-4, 4), min_size=1, max_size=4)
     | json_value})
spec_like = st.fixed_dictionaries(
    {"components": st.lists(component, min_size=1, max_size=2)},
    optional={"residue_parts": st.lists(st.fixed_dictionaries(
        {"points": st.lists(st.lists(st.integers(-1, 3), min_size=2, max_size=2),
                            max_size=2)},
        optional={"constrained": st.booleans() | json_leaf}), max_size=2),
        "junk": json_value})


@settings(max_examples=150, deadline=None)
@given(obj=spec_like | json_value, cmd=st.sampled_from(["info", "divisors"]))
def test_random_spec_json_never_shows_a_traceback(obj, cmd):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run([cmd, "--spec", path, "--json"])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == (rc != 0)


# what the CLI may print: str or int keys (one kind a dict, as sort_keys needs),
# text with quotes, backslashes, control and non-ASCII characters, ints beyond
# 64 bits, bools, None, and empty containers
exact_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600')
                     | st.characters(), max_size=6)
exact_leaf = (st.none() | st.booleans() | exact_text | st.integers()
              | st.integers(2 ** 64, 2 ** 200) | st.integers(-2 ** 200, -2 ** 64))
exact_value = st.recursive(
    exact_leaf, lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(exact_text, inner, max_size=4)
    | st.dictionaries(st.integers(-50, 50), inner, max_size=4), max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(obj=exact_value)
def test_json_writer_prints_what_json_dumps_prints(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


inexact = (st.floats() | st.fractions() | st.tuples(st.booleans(), exact_value).map(
    lambda kv: dict([kv])))


@settings(max_examples=100, deadline=None)
@given(obj=exact_value, bad=inexact, depth=st.integers(0, 3), data=st.data())
def test_json_writer_refuses_a_float_a_fraction_or_a_bool_key(obj, bad, depth, data):
    for _ in range(depth):
        bad = data.draw(st.sampled_from([lambda x: [x], lambda x: (x,),
                                         lambda x: {"k": x}, lambda x: {-3: x}]))(bad)
    with pytest.raises(TypeError):
        _json_text(data.draw(st.sampled_from([bad, [obj, bad], {"a": obj, "b": bad}])))


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), {True: 1}],
                         ids=["float", "Fraction", "bool key"])
def test_an_inexact_answer_is_an_internal_error(bad, monkeypatch, capsys):
    monkeypatch.setattr(lg, "graph_report", lambda g, spec: {"ell": 1, "x": [bad]})
    spec = os.path.join(os.path.dirname(__file__), "..", "demos", "specs", "g0_111.json")
    assert run(["graphs", "--spec", spec, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("internal error: TypeError: ")
