"""Command-line surface: compute boundary combinatorics and invariants of
a stratum described by a JSON spec file.

Commands: info, graphs, divisors, profiles, chi, xi-top, c1, chern, check.
Diagnostics, a bad command line among them, exit with status 1,
internal-consistency failures and any other unexpected error with 2;
either way stderr gets one line.  Only ``--help`` exits through
``SystemExit``.

``run`` may be called many times in one process: the argument parser is
built on the first call, and requests with the same fixture files share
one evaluator and its memo (see ``evaluate.shared_evaluator``).
"""
from __future__ import annotations

import argparse
import json
import sys

from .exact import rational_str
from .strata import SpecError, StratumSpec, classify, dimension, validate
from . import levelgraphs as lg
from . import invariants as inv
from .evaluate import Evaluator, FixtureCollisionError, UnevaluatableError, shared_evaluator


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_spec(path: str) -> StratumSpec:
    return StratumSpec.from_json(_read(path))


def _evaluator(args) -> Evaluator:
    return shared_evaluator(tuple(_read(path) for path in args.fixtures or ()))


def _emit(args, obj, text_lines) -> None:
    out = json.dumps(obj, indent=2, sort_keys=True) if args.json \
        else "\n".join(text_lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _table(rows: list[list[str]]) -> list[str]:
    if not rows:
        return ["(empty)"]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
            for r in rows]


def cmd_info(args) -> int:
    spec = _load_spec(args.spec)
    issues = validate(spec)
    if issues:
        print("invalid spec: " + "; ".join(issues), file=sys.stderr)
        return 1
    dd = dimension(spec)
    obj = {"spec": spec.to_json_obj(), "type": classify(spec),
           "dim": dd.projectivized, "dim_unprojectivized": dd.unprojectivized,
           "residue_rank": dd.residue_rank,
           "components": spec.n_components,
           "horizontal_divisor": lg.horizontal_divisor_present(spec)}
    _emit(args, obj, [f"{k}: {v}" for k, v in obj.items() if k != "spec"])
    return 0


def cmd_graphs(args) -> int:
    spec = _load_spec(args.spec)
    L = args.levels if args.levels is not None else 1
    graphs = lg.enumerate_LGL(spec, L)
    reports = [lg.graph_report(g, spec) for g in graphs]
    lines = [f"{len(graphs)} graphs with {L} levels below zero"]
    for i, r in enumerate(reports):
        lines.append(f"[{i}] vertices={r['vertices']} edges={r['edges']} "
                     f"ell={r['prongs']['ell']} K={r['prongs']['kappa_product']} "
                     f"aut={r['prongs']['aut']} profile={r['profile']}")
    _emit(args, reports, lines)
    return 0


def cmd_divisors(args) -> int:
    spec = _load_spec(args.spec)
    graphs = lg.enumerate_LG1(spec)
    rows = [["#", "ell", "K", "orbits", "aut", "N_top", "dims"]]
    reports = []
    for i, g in enumerate(graphs):
        pd = lg.prong_data(g)
        rep = lg.graph_report(g, spec)
        dims = [lev["dim"] for lev in rep["levels"]]
        rows.append([str(i), str(pd.ell), str(pd.kappa_product),
                     str(pd.orbits), str(pd.aut_order),
                     str(rep["levels"][0]["dim_unproj"]), str(dims)])
        reports.append(rep)
    lines = _table(rows)
    if lg.horizontal_divisor_present(spec):
        lines.append("plus the horizontal divisor")
    _emit(args, reports, lines)
    return 0


def cmd_profiles(args) -> int:
    spec = _load_spec(args.spec)
    d = dimension(spec).projectivized
    top = min(d, args.levels) if args.levels is not None else d
    out = {}
    for L in range(1, top + 1):
        profiles = [lg.profile(g, spec) for g in lg.enumerate_LGL(spec, L)]
        lg.check_profile_order(profiles)
        out[L] = [list(p) for p in profiles]
    lines = [f"profiles consistent through L={top}"]
    for L, ps in out.items():
        lines.append(f"L={L}: {ps}")
    _emit(args, out, lines)
    return 0


def cmd_chi(args) -> int:
    spec = _load_spec(args.spec)
    rep = inv.euler_characteristic(spec, _evaluator(args))
    obj = rep.to_json_obj()
    lines = [f"chi = {rational_str(rep.chi)}"]
    if args.verbose:
        rows = [["graph", "L", "K", "N_top", "aut", "factors", "contribution"]]
        for r in rep.rows:
            rows.append([r.encoding[:40], str(r.levels_below),
                         str(r.kappa_product), str(r.top_dim_unproj),
                         str(r.aut),
                         " ".join(rational_str(x) for x in r.level_factors),
                         rational_str(r.contribution)])
        lines += _table(rows)
    _emit(args, obj, lines)
    return 0


def cmd_xi_top(args) -> int:
    spec = _load_spec(args.spec)
    val = _evaluator(args).xi_top(spec)
    _emit(args, {"xi_top": rational_str(val)}, [rational_str(val)])
    return 0


def cmd_c1(args) -> int:
    spec = _load_spec(args.spec)
    cls = inv.c1_log_cotangent(spec)
    _emit(args, cls.to_json_obj(),
          [json.dumps(t, sort_keys=True) for t in cls.to_json_obj()])
    return 0


def cmd_chern(args) -> int:
    spec = _load_spec(args.spec)
    rep = inv.chern_polynomial(spec, _evaluator(args))
    obj = rep.to_json_obj()
    lines = [f"c_top integral = {rational_str(rep.top_value)}",
             f"chi = {rational_str(rep.chi)}",
             f"duality (-1)^d chi == c_top: {rep.duality_holds}"]
    _emit(args, obj, lines)
    if not rep.duality_holds:
        print("internal consistency failure: top Chern class does not "
              "match the Euler characteristic", file=sys.stderr)
        return 2
    return 0


def cmd_check(args) -> int:
    results = inv.cross_check()
    obj = [{"name": r.name, "lhs": rational_str(r.lhs),
            "rhs": rational_str(r.rhs), "ok": r.ok} for r in results]
    lines = [f"{'PASS' if r.ok else 'FAIL'}  {r.name}: "
             f"{rational_str(r.lhs)} vs {rational_str(r.rhs)}"
             for r in results]
    _emit(args, obj, lines)
    return 0 if all(r.ok for r in results) else 2


class UsageError(Exception):
    """A command line that argparse rejects."""


def _levels(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    # raise instead of printing usage and exiting, so that ``run`` writes one
    # line and returns 1; the subcommand parsers inherit this class
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="stratacalc",
        description="exact boundary combinatorics and intersection numbers "
                    "of strata of abelian differentials")
    sub = p.add_subparsers(dest="command", required=True)
    handlers = {
        "info": cmd_info, "graphs": cmd_graphs, "divisors": cmd_divisors,
        "profiles": cmd_profiles, "chi": cmd_chi, "xi-top": cmd_xi_top,
        "c1": cmd_c1, "chern": cmd_chern, "check": cmd_check,
    }
    for name, fn in handlers.items():
        sp = sub.add_parser(name)
        if name != "check":
            sp.add_argument("--spec", required=True, help="stratum JSON file")
        else:
            sp.add_argument("--tables", action="store_true",
                            help="check the shipped chi tables")
        sp.add_argument("--fixtures", nargs="*", default=[],
                        help="extra fixture JSON files")
        sp.add_argument("--levels", type=_levels, default=None)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out", default=None)
        sp.add_argument("--verbose", action="store_true")
        sp.set_defaults(handler=fn)
    return p


_PARSER: argparse.ArgumentParser | None = None


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).splitlines())


def run(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        return args.handler(args)
    except (UsageError, SpecError, OSError, UnicodeDecodeError,
            json.JSONDecodeError, FixtureCollisionError,
            UnevaluatableError) as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 1
    except lg.EnumerationError as exc:
        print(f"internal consistency failure: {_one_line(exc)}", file=sys.stderr)
        return 2
    except Exception as exc:  # the CLI boundary: never a traceback
        print(f"internal error: {type(exc).__name__}: {_one_line(exc)}",
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
