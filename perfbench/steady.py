"""Steadiness check: repeat each workload with different seeds and report
each end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--workloads a,b]
    python3 perfbench/steady.py --sizes [--seeds 10]

``--sizes`` runs nothing: it draws the first children of each seed and
prints the size of each draw (operations, and for euler-sweep the summed
reference cost), to confirm that every seed stays in the same band.

The spread is the distance between the first and third quartiles of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric is steady when its spread is below a third of its bound;
the exit code is 1 when any spread other than setup_s exceeds its bound.
Runs are sequential, one at a time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(bench: dict, workload: str, seed: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def draw_sizes(workloads_: list[str], seeds: range, children: int = 8) -> None:
    import reference
    import workloads
    ref = reference.load()
    cost = ref["euler_cost_ms"]
    for workload in workloads_:
        for seed in seeds:
            draws = [workloads.generate(workload, seed, i, ref) for i in range(children)]
            ops = [len(d) for d in draws]
            ms = [sum(cost.get(op["label"], 0) for op in d if op["kind"] == "chi")
                  for d in draws]
            line = f"{workload:12s} seed {seed:3d}: operations {min(ops)}-{max(ops)}"
            if any(ms):
                line += f", reference cost {min(ms):.0f}-{max(ms):.0f} ms"
            print(line)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--sizes", action="store_true")
    args = ap.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    if args.sizes:
        draw_sizes(args.workloads.split(","), seeds)
        return 0
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    unsteady = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            res = one_run(bench, workload, seed)
            if not res["correct"]:
                print(f"{workload} seed {seed}: {res['failed']} failed operations")
                unsteady = True
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={res['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "UNSTEADY")
            if spread > bounds[name] and name != "setup_s":
                unsteady = True
            print(f"  {workload:12s} {name:12s} median {med:10.4g}  spread "
                  f"{spread:6.3f}  bound {bounds[name]:.2f}  {verdict}", flush=True)
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
