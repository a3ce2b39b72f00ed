"""stratacalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The parent draws the operation list from the seed, then starts fresh child
interpreters one after another (never two at once) that each set up
stratacalc and run their own draw of the workload, while another child
still fits in S seconds or fewer than MIN_CHILDREN have finished.
Set-up-only children add samples of set-up time.  Every output is checked
against ``reference.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, in reference seconds (see
``speed_factor``), over all of the run's children:

    setup_s      spawn to first operation ready (import + default_registry),
                 median of all set-up samples
    run_s        time of one child's operation list, median
    op_p50_ms    median operation latency, the children's operations pooled
    op_tail_ms   latency at TAIL_PERCENTILE, which leaves at least ten
                 operations beyond it at the run's minimum size
    peak_rss_mb  peak resident memory of a child (rusage), median

With ``--trace 1`` one untraced child is followed by traced children whose
spans give the per-layer metrics; the spans are written to
``perfbench/.work/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import reference
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")

# fewest children per run; times a child's fewest operations they give the
# run's minimum size, at which TAIL_PERCENTILE leaves ten operations beyond
MIN_CHILDREN = {"euler-sweep": 6, "products": 12, "queries": 2}
# euler-sweep has 12 operations a child, products at least 86, queries 2500
TAIL_PERCENTILE = {"euler-sweep": 75.0, "products": 99.0, "queries": 99.5}
SETUP_SAMPLES = 15
# the time worker.calibrate takes at the reference speed
CAL_REF_S = 0.006
CHILD_TIMEOUT_S = 150.0
# children always read compiled bytecode, cached under the work directory,
# whatever the caller's environment says, so set-up time means the same
# on every machine
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")

# which end-to-end metric each layer should move, and on which workload
LAYER_MAP = {
    "levelgraphs": [["run_s", "euler-sweep"]],
    "exact": [["run_s", "euler-sweep"]],
    "strata": [["run_s", "euler-sweep"], ["op_p50_ms", "queries"]],
    "evaluate": [["run_s", "euler-sweep"], ["op_p50_ms", "queries"]],
    "tautring": [["run_s", "products"], ["op_p50_ms", "products"],
                 ["op_tail_ms", "queries"]],
    "invariants": [["run_s", "euler-sweep"]],
    "cli": [["op_p50_ms", "queries"]],
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def speed_factor(cal: list) -> float:
    """Reference seconds per second of a child, from its calibration
    chunks.  The shared host the baseline was taken on runs a process up to
    1.5 times slower for minutes at a time, and one of its two vCPUs runs a
    process slower than the other, every kind of Python work alike; a
    child's times multiplied by this factor read as if the host
    ran the calibration chunk in CAL_REF_S.  The mean of the chunk times,
    not their median, weighs the slow and fast stretches of the child as
    its operations met them."""
    return CAL_REF_S / statistics.fmean(cal)


def spawn_child(ops_file: str, mode: str = "") -> tuple[dict, float, float]:
    """Run one child to completion; return its result, set-up seconds in
    reference seconds and peak RSS in MB."""
    res_file = os.path.join(WORK, f"result-{os.getpid()}.json")
    if os.path.exists(res_file):
        os.remove(res_file)
    argv = [sys.executable, WORKER, SRC, ops_file, res_file] + ([mode] if mode else [])
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, cwd=ROOT, env=CHILD_ENV)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > t0 + CHILD_TIMEOUT_S:
                raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(res_file):
        raise BenchError(f"child exited with code {proc.returncode}")
    with open(res_file) as fh:
        result = json.load(fh)
    os.remove(res_file)
    setup = (result["ready"] - t0) * speed_factor(result["cal_setup"])
    return result, setup, usage.ru_maxrss / 1024.0


def write_ops(ops: list, name: str) -> str:
    """Write an operation list, with one spec file per stratum for the CLI,
    under the work directory; return the list's path."""
    spec_dir = os.path.join(WORK, "specs")
    os.makedirs(spec_dir, exist_ok=True)
    for op in ops:
        path = worker.spec_path(spec_dir, op)
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(op["spec"], fh)
    ops_file = os.path.join(WORK, f"ops-{name}.json")
    with open(ops_file, "w") as fh:
        json.dump(ops, fh)
    return ops_file


def quantile(sorted_xs: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def count_failures(ops: list, results: list, ref: dict, failures: list) -> int:
    bad = 0
    for op, res in zip(ops, results):
        why = reference.check(op, res, ref)
        if why is not None:
            bad += 1
            if len(failures) < 5:
                failures.append(f"{op['kind']} {op.get('cmd', '')} {op['label']}: {why}")
    return bad


class Run:
    """The children of one run: child i runs draw i of the seed."""

    def __init__(self, workload: str, seed: int, ref: dict):
        self.workload, self.seed, self.ref = workload, seed, ref
        self.ops: list[list] = []
        self.results: list[dict] = []
        self.setups: list[float] = []
        self.rss: list[float] = []

    def child(self, i: int, mode: str = "") -> dict:
        while len(self.ops) <= i:
            self.ops.append(workloads.generate(self.workload, self.seed,
                                               len(self.ops), self.ref))
        ops_file = write_ops(self.ops[i], f"{self.workload}-{self.seed}-{i}")
        result, setup, rss = spawn_child(ops_file, mode)
        result["ops"] = self.ops[i]
        self.setups.append(setup)
        self.rss.append(rss)
        return result

    def probe(self) -> None:
        """A set-up-only child: one more sample of set-up time."""
        self.setups.append(spawn_child(write_ops([], "probe"), "--setup-only")[1])

    def repeat(self, seconds: float, min_children: int, mode: str = "") -> list[dict]:
        """Children one after another until at least min_children have run
        and the next, taking as long as the last, would end after the time
        is up.  Untraced children are each followed by set-up probes, so
        that min_children of them give SETUP_SAMPLES set-up samples spread
        over the run, topped up at the end if need be."""
        probes = max(1, math.ceil(SETUP_SAMPLES / min_children) - 1)
        start = time.monotonic()
        out: list[dict] = []
        last = 0.0
        while len(out) < min_children or time.monotonic() + last - start <= seconds:
            t = time.monotonic()
            out.append(self.child(len(out), mode))
            for _ in range(0 if mode else probes):
                self.probe()
            last = time.monotonic() - t
        while not mode and len(self.setups) < SETUP_SAMPLES:
            self.probe()
        return out

    def failures(self, results: list[dict], failures: list) -> int:
        return sum(count_failures(r["ops"], r["results"], self.ref, failures)
                   for r in results)


def measure(run: Run, seconds: float) -> dict:
    results = run.repeat(seconds, MIN_CHILDREN[run.workload])
    failures: list[str] = []
    failed = run.failures(results, failures)
    factors = [speed_factor(r["cal"]) for r in results]
    lat = sorted(x * f * 1000 for r, f in zip(results, factors)
                 for x in r["latency_s"])
    pct = TAIL_PERCENTILE[run.workload]
    if len(lat) * (100 - pct) / 100 < 10:
        raise BenchError(f"{len(lat)} operations leave fewer than ten beyond p{pct:g}")
    return {
        "attempted": sum(len(r["ops"]) for r in results), "failed": failed,
        "failures": failures, "children": len(results),
        "tail_percentile": pct, "samples": len(lat),
        "wall_run_s": statistics.median(r["run_s"] for r in results),
        "speed_factor": statistics.median(factors),
        "metrics": {
            "setup_s": (statistics.median(run.setups), "s"),
            "run_s": (statistics.median(r["run_s"] * f
                                        for r, f in zip(results, factors)), "s"),
            "op_p50_ms": (statistics.median(lat), "ms"),
            "op_tail_ms": (quantile(lat, pct), "ms"),
            "peak_rss_mb": (statistics.median(run.rss), "MB"),
        },
    }


def layer_metrics(r: dict) -> dict:
    """Per-layer totals of one traced child."""
    busy: dict[str, float] = {}
    for name, t0, t1, _, _ in r["spans"]:
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
    c = r["counts"]
    enum_s = busy.get("levelgraphs.enumerate", 0.0)
    overhead = r["samples"].get("cli.overhead_s", [0.0])
    return {
        "levelgraphs.enumerate_s": (enum_s, "s"),
        "levelgraphs.graphs": (c.get("levelgraphs.graphs", 0), "count"),
        "levelgraphs.graphs_per_s": (c.get("levelgraphs.graphs", 0) / enum_s
                                     if enum_s else 0.0, "1/s"),
        "levelgraphs.prong_data_s": (busy.get("levelgraphs.prong_data", 0.0), "s"),
        "levelgraphs.level_stratum_s": (busy.get("levelgraphs.level_stratum", 0.0), "s"),
        "exact.orbit_count_s": (busy.get("exact.orbit_count", 0.0), "s"),
        "exact.orbit_count_calls": (c.get("exact.orbit_count_calls", 0), "count"),
        "strata.dimension_s": (busy.get("strata.dimension", 0.0), "s"),
        "strata.dimension_calls": (c.get("strata.dimension_calls", 0), "count"),
        "strata.level_strata_distinct_ratio": (
            c.get("strata.dimension_calls_distinct", 0)
            / max(1, c.get("strata.dimension_calls", 0)), "ratio"),
        "evaluate.integral_s": (busy.get("evaluate.integral", 0.0), "s"),
        "evaluate.integrals": (c.get("evaluate.integrals", 0), "count"),
        "evaluate.repeat_ratio": (
            1 - c.get("evaluate.integrals_distinct", 0)
            / max(1, c.get("evaluate.integrals", 0)), "ratio"),
        "tautring.multiply_s": (busy.get("tautring.multiply", 0.0), "s"),
        "tautring.integrate_s": (busy.get("tautring.integrate", 0.0), "s"),
        "tautring.terms": (c.get("tautring.terms", 0), "count"),
        "invariants.chi_s": (busy.get("invariants.chi", 0.0), "s"),
        "invariants.chern_s": (busy.get("invariants.chern", 0.0), "s"),
        "cli.run_s": (busy.get("cli.run", 0.0), "s"),
        "cli.overhead_ms": (statistics.median(overhead) * 1000, "ms"),
        "cli.output_bytes": (c.get("cli.output_bytes", 0), "bytes"),
        "trace.total_s": (r["run_s"], "s"),
    }


def measure_traced(run: Run, seconds: float, out_file: str) -> dict:
    """An untraced child on draw 0, then traced children on draws 0, 1, ...
    until the time is up; per-layer metrics are medians over the traced
    children, the overhead is traced over untraced time of draw 0."""
    start = time.monotonic()
    plain = run.child(0)
    traced = run.repeat(seconds - (time.monotonic() - start), 1, "--trace")
    failures: list[str] = []
    failed = run.failures([plain] + traced, failures)
    per_child = [layer_metrics(r) for r in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_child), unit)
               for name, (_, unit) in per_child[0].items()}
    metrics["trace.overhead_ratio"] = (traced[0]["run_s"] / plain["run_s"], "ratio")
    with open(out_file, "w") as fh:
        json.dump({"untraced_run_s": plain["run_s"],
                   "traced_run_s": traced[0]["run_s"],
                   "layer_map": LAYER_MAP,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": traced[0]["spans"]}, fh)
    return {"attempted": sum(len(r["ops"]) for r in [plain] + traced),
            "failed": failed, "failures": failures, "children": len(traced),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "stratacalc", "__init__.py")):
        print(f"error: no stratacalc package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        ref = reference.load()
        run = Run(args.workload, args.seed, ref)
        spawn_child(write_ops([], "probe"), "--setup-only")  # compiles bytecode; not measured
        if args.trace:
            out_file = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
            rep = measure_traced(run, args.seconds, out_file)
        else:
            rep = measure(run, args.seconds)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in rep["failures"]:
        print(f"FAILED {line}")
    print(f"{args.workload} seed={args.seed}: {rep['children']} children, "
          f"{rep['attempted']} operations; ops_failed_frac = "
          f"{rep['failed'] / rep['attempted']:.4g} ({rep['failed']}/{rep['attempted']})")
    if args.trace:
        print(f"spans and layer map: {out_file}")
        for layer, targets in LAYER_MAP.items():
            print(f"  {layer}: " + ", ".join(f"{m} on {w}" for m, w in targets))
    else:
        print(f"op_tail_ms is p{rep['tail_percentile']:g} of {rep['samples']} operations; "
              f"wall-clock run_s {rep['wall_run_s']:.4g} s at a median speed "
              f"factor of {rep['speed_factor']:.4g} reference s/s")
    for name, (value, unit) in rep["metrics"].items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": rep["failed"] == 0, "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rep["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
