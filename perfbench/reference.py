"""Reference checks for every benchmark operation.

Exact values are compared as rationals.  Closed forms are used where the
theory gives one:

- chi of a connected genus-0 stratum with n points is (-1)^(n-3) (n-3)!;
- chi of the genus-1 stratum (k, 1, -k-1) is k(k+1)/6;
- the top Chern number is (-1)^d chi (the duality flag must hold);
- the self-intersection of a two-edge divisor of (k, 1, -k-1) has the
  closed form below.

Everything else is compared with ``reference.json``, recorded from the
library by ``record.py`` and cross-validated there by a second route.
"""
from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def load() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _connected(spec: dict):
    if len(spec["components"]) != 1 or spec["residue_parts"]:
        return None
    c = spec["components"][0]
    return c["genus"], tuple(c["orders"])


def projective_dim(spec: dict) -> int:
    """Dimension of a stratum without residue parts: one residue theorem
    per component that has poles."""
    n = sum(2 * c["genus"] + len(c["orders"]) - 1 for c in spec["components"])
    n -= sum(1 for c in spec["components"] if any(o < 0 for o in c["orders"]))
    return n - 1


def closed_chi(spec: dict) -> Fraction | None:
    conn = _connected(spec)
    if conn is None:
        return None
    g, mu = conn
    if g == 0:
        n = len(mu)
        return Fraction(-1) ** (n - 3) * factorial(n - 3)
    if g == 1 and len(mu) == 3 and mu[1] == 1 and mu[2] == -mu[0] - 1:
        k = mu[0]
        return Fraction(k * (k + 1), 6)
    return None


def genus1_self_intersection(k: int, kappas: list[int]) -> Fraction | None:
    """D^2 for a divisor of (k, 1, -k-1) with two edges of enhancements
    a <= b: -delta k gcd/lcm when a + b = k + 1, -delta (k+1) gcd/lcm when
    a + b = k, with delta = 1/2 for equal enhancements."""
    if len(kappas) != 2:
        return None
    a, b = kappas
    delta = Fraction(1, 2) if a == b else Fraction(1)
    if a + b == k + 1:
        return -delta * k * math.gcd(a, b) / math.lcm(a, b)
    if a + b == k:
        return -delta * (k + 1) * math.gcd(a, b) / math.lcm(a, b)
    return None


def product_key(op: dict) -> str:
    if op["kind"] == "power":
        return f"{op['label']} P {op['div']}"
    if op["kind"] == "pair":
        a, b = sorted((op["a"], op["b"]))
        return f"{op['label']} D {a} {b}"
    return f"{op['label']} N {op['div']}"


def cli_key(cmd: str, label: str) -> str:
    return f"{cmd} {label}"


def check(op: dict, res: dict, ref: dict) -> str | None:
    """None when the result is correct, else a one-line reason."""
    if "error" in res:
        return res["error"]
    kind = op["kind"]
    if kind == "cli":
        want = ref["cli"].get(cli_key(op["cmd"], op["label"]))
        if want is None:
            return "no golden output"
        if res["rc"] != op["expect_rc"] or res["rc"] != want["rc"]:
            return f"exit code {res['rc']}, expected {want['rc']}"
        if res["sha256"] != want["sha256"] or res["bytes"] != want["bytes"]:
            return "output differs from the golden output"
        return None
    if kind in ("chi", "chern"):
        want = closed_chi(op["spec"])
        if want is None or Fraction(res["chi"]) != want:
            return f"chi {res['chi']} != {want}"
        if kind == "chern":
            top = Fraction(-1) ** projective_dim(op["spec"]) * want
            if not res["duality"] or Fraction(res["top"]) != top:
                return f"top Chern number {res['top']} != {top}"
        return None
    want_kappas = ref["divisor_kappas"][op["label"]]
    idx = [op["a"], op["b"]] if kind == "pair" else [op["div"]]
    if res["kappas"] != [want_kappas[i] for i in idx]:
        return "divisor numbering changed"
    value = Fraction(res["value"])
    if Fraction(ref["products"][product_key(op)]) != value:
        return f"{product_key(op)} = {value}, golden {ref['products'][product_key(op)]}"
    conn = _connected(op["spec"])
    if kind == "power" and conn and conn[0] == 1:
        closed = genus1_self_intersection(conn[1][0], res["kappas"][0])
        if closed is not None and closed != value:
            return f"self-intersection {value} != closed form {closed}"
    return None
