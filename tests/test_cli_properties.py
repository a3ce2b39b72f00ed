"""Property tests of the command line: random spec JSON never gives a
traceback.  Skipped where hypothesis is not installed."""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stratacalc.cli import run  # noqa: E402

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
