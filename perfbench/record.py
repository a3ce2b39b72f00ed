"""Record ``reference.json``: golden values and outputs of the library at the
current commit, each cross-validated by a second route as it is recorded.

    python3 perfbench/record.py [euler] [products] [cli]

Parts (all by default; a partial run keeps the other parts of the file):

euler     reference cost of chi + chern for every stratum of the
          euler-sweep pools, the fastest of three timings in a fresh child;
          used only to draw batches of equal size.  chi and the duality
          are checked against their closed forms.
products  divisor enhancements and the values of every power, pair and
          normal bundle the products workload can draw.  Second routes:
          D^d = N_D D^(d-2) with N_D the normal bundle; the normal bundle
          through the level formula and through every edge; D_a D_b in both
          orders; xi replaced by its psi/divisor expression.
cli       stdout digest and exit code of every request the queries
          workload can send.  Second routes: the same request through
          ``python3 -m stratacalc.cli`` in a new process, byte for byte,
          and the parsed JSON against the library call behind it.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import reference
import run
import workloads
import worker

sys.path.insert(0, run.SRC)

from stratacalc import levelgraphs as lg  # noqa: E402
from stratacalc import tautring as tr  # noqa: E402
from stratacalc.evaluate import Evaluator  # noqa: E402
from stratacalc.exact import rational_str  # noqa: E402
from stratacalc.strata import StratumSpec, dimension  # noqa: E402


class CrossCheckError(AssertionError):
    """Two routes to a recorded value disagree."""


def agree(what: str, *values) -> None:
    if len(set(values)) != 1:
        raise CrossCheckError(f"{what}: routes disagree: {values}")


def record_euler(ref: dict, passes: int = 3) -> None:
    """Fastest of several passes over the pool, one fresh child per stratum
    and pass: on a shared machine, contention only ever slows a child."""
    pool = workloads.euler_genus0_pool() + workloads.euler_genus1_pool()
    costs: dict[str, float] = {}
    for _ in range(passes):
        for spec in pool:
            ops = [workloads._op(kind, spec) for kind in ("chi", "chern")]
            result, _, _ = run.spawn_child(run.write_ops(ops, "record"))
            for op, res in zip(ops, result["results"]):
                why = reference.check(op, res, ref)
                if why:
                    raise CrossCheckError(f"{op['label']}: {why}")
            lab = ops[0]["label"]
            costs[lab] = min(costs.get(lab, float("inf")), round(result["run_s"] * 1000, 1))
        print(f"euler: pass done, {len(costs)} strata", flush=True)
    ref["euler_cost_ms"] = costs


def record_products(ref: dict) -> None:
    kappas, values = {}, {}
    for spec_obj in workloads.products_genus0_pool() + workloads.products_genus1_pool():
        lab = workloads.label(spec_obj)
        spec = StratumSpec.from_json_obj(spec_obj)
        d = dimension(spec).projectivized
        divs = lg.enumerate_LG1(spec)
        kappas[lab] = [sorted(k for _, _, k in g.edges) for g in divs]
        ev = Evaluator()
        zero = next(pt for pt in spec.points() if spec.order(pt) > 0)

        def value(kind, **kw):
            op = workloads._op(kind, spec_obj, **kw)
            return tr.integrate(worker.product_class(op, spec, ev), ev)

        for i, g in enumerate(divs):
            D = tr.TautClass.boundary(spec, g)
            nb = tr.normal_bundle(spec, g, 1)
            via_nb = nb
            for _ in range(d - 2):
                via_nb = tr.multiply(via_nb, D, ev)
            power = value("power", div=i)
            agree(f"{lab} D{i}^{d}", power, tr.integrate(via_nb, ev))
            if spec.components[0][0] == 1:
                closed = reference.genus1_self_intersection(spec.components[0][1][0],
                                                            kappas[lab][i])
                if closed is not None:
                    agree(f"{lab} D{i}^2 closed form", power, closed)
            values[f"{lab} P {i}"] = str(power)
            routes = [value("nb", div=i, edge=None)]
            routes += [value("nb", div=i, edge=e) for e in range(len(g.edges))]
            agree(f"{lab} N_D{i}", *routes)
            values[f"{lab} N {i}"] = str(routes[0])
        for a in range(len(divs)):
            for b in range(a + 1, len(divs)):
                routes = [value("pair", a=a, b=b), value("pair", a=b, b=a)]
                if d > 2:
                    xi = tr.xi_as_psi(spec, zero)
                    for _ in range(d - 3):
                        xi = tr.multiply(xi, tr.xi_as_psi(spec, zero), ev)
                    cls = tr.multiply(tr.TautClass.boundary(spec, divs[a]),
                                      tr.TautClass.boundary(spec, divs[b]), ev)
                    routes.append(tr.integrate(tr.multiply(cls, xi, ev), ev))
                agree(f"{lab} D{a} D{b}", *routes)
                values[f"{lab} D {a} {b}"] = str(routes[0])
        print(f"products {lab}: {len(divs)} divisors", flush=True)
    ref["divisor_kappas"] = kappas
    ref["products"] = values


def _json_view(cmd: str, obj):
    """The part of a request's JSON output that the library call behind it
    determines on its own."""
    if cmd in ("chi", "chern", "info"):
        want_keys = {"chi": ["chi"], "chern": ["top_value", "chi", "duality_holds"],
                     "info": ["dim"]}[cmd]
        return {k: obj[k] for k in want_keys}
    if cmd == "divisors":
        return len(obj)
    if cmd == "profiles":
        return sorted(obj)
    return obj


def record_cli(ref: dict) -> None:
    requests = [(cmd, spec, 0) for spec in workloads.queries_pool()
                for cmd in workloads.CLI_COMMANDS]
    requests += [(cmd, spec, 1) for cmd, spec in workloads.queries_diagnostics()]
    ops = [workloads._op("cli", spec, cmd=cmd, expect_rc=rc) for cmd, spec, rc in requests]
    spec_dir = os.path.join(os.path.dirname(run.write_ops(ops, "record")), "specs")
    env = dict(os.environ, PYTHONPATH=run.SRC)
    goldens = {}
    for op in ops:
        res = worker.run_op(op, spec_dir)
        path = worker.spec_path(spec_dir, op)
        proc = subprocess.run([sys.executable, "-m", "stratacalc.cli", op["cmd"],
                               "--spec", path, "--json"], env=env, capture_output=True)
        key = reference.cli_key(op["cmd"], op["label"])
        agree(f"{key} exit code", res["rc"], proc.returncode, op["expect_rc"])
        agree(f"{key} output", res["sha256"], hashlib.sha256(proc.stdout).hexdigest())
        if res["rc"] == 0:
            spec = StratumSpec.from_json_obj(op["spec"])
            got = _json_view(op["cmd"], json.loads(proc.stdout))
            lib = worker.direct_call(op["cmd"], spec)
            if op["cmd"] == "xi-top":
                lib = {"xi_top": rational_str(lib)}
            lib = _json_view(op["cmd"], json.loads(json.dumps(lib)))
            agree(f"{key} against the library", json.dumps(got, sort_keys=True),
                  json.dumps(lib, sort_keys=True))
            closed = reference.closed_chi(op["spec"])
            if op["cmd"] == "chi" and closed is not None:
                agree(f"{key} closed form", Fraction(got["chi"]), closed)
            if op["cmd"] == "chern":
                agree(f"{key} duality", got["duality_holds"], True)
        goldens[key] = {"rc": res["rc"], "bytes": res["bytes"], "sha256": res["sha256"]}
    print(f"cli: {len(goldens)} requests", flush=True)
    ref["cli"] = goldens


def main() -> int:
    parts = sys.argv[1:] or ["euler", "products", "cli"]
    os.makedirs(run.WORK, exist_ok=True)
    ref = reference.load() if os.path.exists(reference.REFERENCE_FILE) else {}
    for part in parts:
        {"euler": record_euler, "products": record_products, "cli": record_cli}[part](ref)
        with open(reference.REFERENCE_FILE, "w") as fh:
            json.dump(ref, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
