"""One benchmark child: a fresh interpreter that sets up stratacalc and runs
one operation list, then writes its timings and outputs as JSON.

    python3 perfbench/worker.py SRC_DIR OPS_FILE RESULT_FILE [--trace | --setup-only]

Every run starts in a fresh interpreter because ``stratacalc.levelgraphs``
keeps process-wide caches that would otherwise turn repeats into cache
hits.  The child runs on one thread; the parent times set-up from its spawn
to ``ready`` below, on the system-wide monotonic clock.  Right after
``ready``, and between operations, the child times a fixed calibration
chunk (``calibrate``) that tells the parent how fast the host ran it.

With ``--trace`` each operation is run stage by stage (levelgraphs, exact,
strata, evaluate, tautring, invariants, cli) with a span per stage, kept in
memory and written out with the result.
"""
import time

import contextlib
import hashlib
import io
import json
import os
import sys


def main() -> int:
    src, ops_file, result_file = sys.argv[1:4]
    mode = sys.argv[4] if len(sys.argv) > 4 else ""
    sys.path.insert(0, src)
    import stratacalc
    from stratacalc.evaluate import default_registry
    default_registry()
    ready = time.monotonic()
    if not os.path.abspath(stratacalc.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"stratacalc imported from {stratacalc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"ready": ready, "cal_setup": [calibrate() for _ in range(SETUP_CAL_CHUNKS)]}
    if mode != "--setup-only":
        with open(ops_file) as fh:
            ops = json.load(fh)
        spec_dir = os.path.join(os.path.dirname(ops_file), "specs")
        if mode == "--trace":
            result.update(run_traced(ops, spec_dir))
        else:
            result.update(run_plain(ops, spec_dir))
    with open(result_file, "w") as fh:
        json.dump(result, fh)
    return 0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

CAL_EVERY_S = 0.05
SETUP_CAL_CHUNKS = 3


def calibrate() -> float:
    """Seconds one fixed chunk of pure-Python work takes now: exact
    fractions summed into a dict with tuple keys and sorted now and then,
    4-7 ms on the baseline machine.  It runs no stratacalc code, so a
    change to the program leaves it alone, while a host that runs the child
    slower for a while slows it alike."""
    from fractions import Fraction
    t = time.perf_counter()
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(600):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + x * (i % 5 + 1) / (i % 3 + 2)
        if i % 40 == 0:
            sorted(acc, key=lambda k: (k[1], k[0]))
    return time.perf_counter() - t


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def spec_path(spec_dir: str, op: dict) -> str:
    return os.path.join(spec_dir, hashlib.sha1(op["label"].encode()).hexdigest() + ".json")


def _divisor(spec, i):
    from stratacalc import levelgraphs as lg
    return lg.enumerate_LG1(spec)[i]


def _xi_fill(spec, cls, ev, d):
    """cls times xi^(d - 2), the filler that brings a codimension-2 class
    to top degree."""
    from stratacalc import tautring as tr
    return tr.multiply(cls, tr.TautClass.xi(spec, d - 2), ev) if d > 2 else cls


def product_class(op: dict, spec, ev):
    """The tautological class a products operation integrates."""
    from stratacalc import tautring as tr
    from stratacalc.strata import dimension
    d = dimension(spec).projectivized
    kind = op["kind"]
    if kind == "power":
        D = tr.TautClass.boundary(spec, _divisor(spec, op["div"]))
        out = D
        for _ in range(d - 1):
            out = tr.multiply(out, D, ev)
        return out
    if kind == "pair":
        Da = tr.TautClass.boundary(spec, _divisor(spec, op["a"]))
        Db = tr.TautClass.boundary(spec, _divisor(spec, op["b"]))
        return _xi_fill(spec, tr.multiply(Da, Db, ev), ev, d)
    g = _divisor(spec, op["div"])
    nb = tr.normal_bundle(spec, g, 1) if op["edge"] is None \
        else tr.normal_bundle_via_edge(spec, g, op["edge"])
    return _xi_fill(spec, nb, ev, d)


def run_op(op: dict, spec_dir: str) -> dict:
    """Run one operation the way a client of the library would."""
    from stratacalc import cli, invariants as inv, tautring as tr
    from stratacalc.evaluate import Evaluator
    from stratacalc.strata import StratumSpec
    kind = op["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        argv = [op["cmd"], "--spec", spec_path(spec_dir, op), "--json"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        text = out.getvalue().encode()
        return {"rc": rc, "bytes": len(text),
                "sha256": hashlib.sha256(text).hexdigest()}
    spec = StratumSpec.from_json_obj(op["spec"])
    if kind == "chi":
        return {"chi": str(inv.euler_characteristic(spec, Evaluator()).chi)}
    if kind == "chern":
        rep = inv.chern_polynomial(spec, Evaluator())
        return {"chi": str(rep.chi), "top": str(rep.top_value),
                "duality": rep.duality_holds}
    ev = Evaluator()
    return {"value": str(tr.integrate(product_class(op, spec, ev), ev)),
            "kappas": _kappas(op, spec)}


def _kappas(op, spec):
    """Sorted enhancements of the divisors an operation names, so that the
    reference check can confirm the index still means the same divisor."""
    idx = [op["a"], op["b"]] if op["kind"] == "pair" else [op["div"]]
    return [sorted(k for _, _, k in _divisor(spec, i).edges) for i in idx]


def run_plain(ops: list, spec_dir: str) -> dict:
    """Run the operations, with a calibration chunk before the first, after
    the last and between two whenever CAL_EVERY_S have passed since the
    previous chunk; chunk time is left out of ``run_s``."""
    results, lat, cal = [], [], [calibrate()]
    t0 = last = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last >= CAL_EVERY_S:
            cal.append(calibrate())
            last = time.perf_counter()
        t = time.perf_counter()
        try:
            res = run_op(op, spec_dir)
        except Exception as exc:  # an unexpected exception is a failed operation
            res = {"error": f"{type(exc).__name__}: {exc}"}
        lat.append(time.perf_counter() - t)
        results.append(res)
    run_s = time.perf_counter() - t0 - sum(cal[1:])
    cal.append(calibrate())
    return {"run_s": run_s, "latency_s": lat, "results": results, "cal": cal}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent index, op id) and named counters,
    kept in memory until the child exits."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def visit(self, name: str, items) -> None:
        """Count items visited and remember them, for the distinct share."""
        items = list(items)
        self.count(name, len(items))
        self.distinct.setdefault(name, set()).update(items)


def crossing_rows(g) -> list[list[int]]:
    """0/1 rows, one per level passage, marking the edges that cross it."""
    return [[1 if g.levels[u] >= -i + 1 and g.levels[v] <= -i else 0
             for (u, v, _) in g.edges]
            for i in range(1, g.n_levels_below + 1)]


def direct_call(cmd: str, spec):
    """The library call behind a CLI command, without argument parsing,
    file reading or JSON printing."""
    from stratacalc import invariants as inv, levelgraphs as lg
    from stratacalc.evaluate import Evaluator, default_registry
    from stratacalc.strata import classify, dimension, require_valid
    if cmd == "info":
        require_valid(spec)
        dd = dimension(spec)
        return {"type": classify(spec), "dim": dd.projectivized,
                "horizontal_divisor": lg.horizontal_divisor_present(spec)}
    if cmd == "divisors":
        return [lg.graph_report(g, spec) for g in lg.enumerate_LG1(spec)]
    if cmd == "profiles":
        d = dimension(spec).projectivized
        lg.profile_order_check(spec, d)
        return {L: [lg.profile(g, spec) for g in lg.enumerate_LGL(spec, L)]
                for L in range(1, d + 1)}
    if cmd == "chi":
        return inv.euler_characteristic(spec, Evaluator(default_registry())).to_json_obj()
    if cmd == "xi-top":
        return Evaluator(default_registry()).xi_top(spec)
    if cmd == "c1":
        return inv.c1_log_cotangent(spec).to_json_obj()
    return inv.chern_polynomial(spec, Evaluator(default_registry())).to_json_obj()


def traced_op(op: dict, spec_dir: str, tr_: Tracer, seen: set) -> dict:
    """Run one operation stage by stage, lowest layer first.  Lower stages
    warm the caches the later ones read, so the invariants spans approximate
    self time.  Expected diagnostics stop the library stages early."""
    from stratacalc import cli, exact, invariants as inv, levelgraphs as lg
    from stratacalc import tautring as tr
    from stratacalc.evaluate import Evaluator, UnevaluatableError
    from stratacalc.strata import SpecError, StratumSpec, dimension, validate

    spec = StratumSpec.from_json_obj(op["spec"])
    kind = op["kind"]
    cmd = op.get("cmd", kind)
    first_visit = op["label"] not in seen
    seen.add(op["label"])
    out: dict = {}
    try:
        if validate(spec):
            raise SpecError("invalid spec")
        d = dimension(spec).projectivized
        with tr_.span("levelgraphs.enumerate"):
            graphs = [g for L in range(d + 1) for g in lg.enumerate_LGL(spec, L)]
        tr_.count("levelgraphs.graphs", len(graphs))
        with tr_.span("levelgraphs.prong_data"):
            for g in graphs:
                lg.prong_data(g)
        with tr_.span("exact.orbit_count"):
            for g in graphs:
                if g.edges:
                    exact.orbit_count([k for _, _, k in g.edges], crossing_rows(g))
                    tr_.count("exact.orbit_count_calls")
        with tr_.span("levelgraphs.level_stratum"):
            subs = [lg.level_stratum(g, spec, lev)[0] for g in graphs
                    for lev in range(0, -g.n_levels_below - 1, -1)]
        with tr_.span("strata.dimension"):
            dims = [dimension(s).projectivized for s in subs]
        tr_.visit("strata.dimension_calls", subs)
        ev = Evaluator()
        with tr_.span("evaluate.integral"):
            for s, ds in zip(subs, dims):
                ev.integral(s, {}, ds)
        tr_.visit("evaluate.integrals", zip(subs, dims))

        if kind in ("power", "pair", "nb"):
            with tr_.span("tautring.multiply"):
                cls = product_class(op, spec, ev)
            with tr_.span("tautring.integrate"):
                out["value"] = str(tr.integrate(cls, ev))
            tr_.count("tautring.terms", len(cls.terms))
            out["kappas"] = _kappas(op, spec)
        elif cmd in ("chern", "c1") and d > 0:
            with tr_.span("invariants.c1"):
                c1 = inv.c1_log_cotangent(spec)
            with tr_.span("tautring.multiply"):
                prod = tr.multiply(c1, tr.TautClass.xi(spec, d - 1), ev)
            with tr_.span("tautring.integrate"):
                tr.integrate(prod, ev)
            tr_.count("tautring.terms", len(prod.terms))
            if cmd == "chern":
                with tr_.span("invariants.chern_classes"):
                    top = inv.chern_class_terms(spec, d)
                with tr_.span("tautring.integrate"):
                    tr.integrate(top, ev)
                tr_.count("tautring.terms", len(top.terms))

        if cmd == "chi" or (kind != "cli" and first_visit):
            with tr_.span("invariants.chi"):
                chi = inv.euler_characteristic(spec, ev).chi
            if kind == "chi":
                out["chi"] = str(chi)
        if cmd == "chern" or (kind not in ("cli", "chi") and first_visit):
            with tr_.span("invariants.chern"):
                rep = inv.chern_polynomial(spec, ev)
            if kind == "chern":
                out.update(chi=str(rep.chi), top=str(rep.top_value),
                           duality=rep.duality_holds)
    except (SpecError, UnevaluatableError):
        if op.get("expect_rc") != 1:
            raise

    # cli: the request as a client sends it, then the same library call
    # issued directly.  Library workloads ask once per stratum: chi or chern
    # for euler operations, the divisor list for products.
    if kind == "cli" or first_visit:
        cli_cmd = cmd if kind in ("cli", "chi", "chern") else "divisors"
        buf, err = io.StringIO(), io.StringIO()
        argv = [cli_cmd, "--spec", spec_path(spec_dir, op), "--json"]
        with tr_.span("cli.run"):
            t = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            t_cli = time.perf_counter() - t
        with tr_.span("cli.direct"):
            t = time.perf_counter()
            try:
                direct_call(cli_cmd, spec)
            except (SpecError, UnevaluatableError):
                pass
            t_direct = time.perf_counter() - t
        text = buf.getvalue().encode()
        tr_.count("cli.output_bytes", len(text))
        tr_.samples.setdefault("cli.overhead_s", []).append(t_cli - t_direct)
        if kind == "cli":
            out = {"rc": rc, "bytes": len(text),
                   "sha256": hashlib.sha256(text).hexdigest()}
    return out


def run_traced(ops: list, spec_dir: str) -> dict:
    tr_ = Tracer()
    seen: set = set()
    results = []
    t0 = time.monotonic()
    for i, op in enumerate(ops):
        tr_.op_id = i
        try:
            with tr_.span("op"):
                res = traced_op(op, spec_dir, tr_, seen)
        except Exception as exc:
            res = {"error": f"{type(exc).__name__}: {exc}"}
        results.append(res)
    counts = dict(tr_.counts)
    counts.update({name + "_distinct": len(items)
                   for name, items in tr_.distinct.items()})
    return {"run_s": time.monotonic() - t0, "results": results,
            "spans": tr_.spans, "counts": counts, "samples": tr_.samples}


if __name__ == "__main__":
    sys.exit(main())
