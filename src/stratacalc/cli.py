"""Command-line surface: compute boundary combinatorics and invariants of
a stratum described by a JSON spec file.

Commands: info, graphs, divisors, profiles, chi, xi-top, c1, chern, check,
each taking the options that ``COMMANDS`` names plus ``--json`` and
``--out``; any other option is a usage error.  Diagnostics, a bad command
line among them, exit with status 1, internal-consistency failures and any
other unexpected error with 2; either way stderr gets one line.  Only
``--help`` exits through ``SystemExit``.

``--json`` output is written by ``_json_text``: the bytes of ``json.dumps``
with ``indent=2`` and ``sort_keys=True`` plus a newline, from exact values
only (ints and rational strings, never a float).

``run`` may be called many times in one process: the argument parser is
built on the first call, and requests with the same fixture files share
one evaluator and its memo (see ``evaluate.shared_evaluator``).
"""
from __future__ import annotations

import argparse
import json
import sys

from .exact import rational_str
from .strata import SpecError, StratumSpec, classify, dimension
from . import levelgraphs as lg
from . import invariants as inv
from .evaluate import Evaluator, FixtureCollisionError, UnevaluatableError, shared_evaluator


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_spec(path: str) -> StratumSpec:
    """The spec of the file, refused unless it is valid and its stratum is
    realizable: every command reading a spec but ``info`` answers only for
    such a stratum."""
    spec = StratumSpec.from_json(_read(path))
    lg.enumerate_LGL(spec, 0)  # raises unless realizable
    return spec


def _evaluator(args) -> Evaluator:
    return shared_evaluator(tuple(_read(path) for path in args.fixtures or ()))


_quote, _int = json.encoder.encode_basestring_ascii, int.__repr__


def _json_text(o, nl: str = "\n") -> str:
    """The very text that ``json.dumps`` gives for ``o`` under ``indent=2`` and
    ``sort_keys=True``, written by a direct recursion: any indent sends
    ``json`` to its pure-Python encoder, which takes about three times as long.
    Only what the CLI prints is accepted: dicts with str or int keys, lists,
    tuples, str, int, bools and None.  Anything else, a float or a bool key
    among them, raises ``TypeError``, so no inexact value reaches an answer.
    ``nl`` is the newline and indent of the line that ``o`` ends on."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return _int(o)
    inner = nl + "  "
    if t is dict:
        if not o:
            return "{}"
        items = []
        for k in sorted(o):
            v = o[k]
            kt, vt = type(k), type(v)
            if kt is str:
                key = _quote(k)
            elif kt is int:
                key = f'"{_int(k)}"'
            else:
                raise TypeError(f"keys must be str or int, not {kt.__name__}")
            text = (_quote(v) if vt is str else _int(v) if vt is int
                    else _json_text(v, inner))
            items.append(f"{key}: {text}")
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_quote(v) if type(v) is str else _int(v) if type(v) is int
             else _json_text(v, inner) for v in o]) + nl + "]"
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(args, out) -> None:
    """Print ``out``: the JSON object under ``--json``, else the text lines."""
    text = _json_text(out) if args.json else "\n".join(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
            for r in rows]


def cmd_info(args) -> int:
    spec = StratumSpec.from_json(_read(args.spec))
    dd = dimension(spec)  # raises SpecError on an invalid spec
    obj = {"spec": spec.to_json_obj(), "type": classify(spec),
           "dim": dd.projectivized, "dim_unprojectivized": dd.unprojectivized,
           "residue_rank": dd.residue_rank, "components": spec.n_components,
           "horizontal_divisor": lg.horizontal_divisor_present(spec)}
    _emit(args, obj if args.json else
          [f"{k}: {v}" for k, v in obj.items() if k != "spec"])
    return 0


def cmd_graphs(args) -> int:
    spec = _load_spec(args.spec)
    L = args.levels if args.levels is not None else 1
    graphs = lg.enumerate_LGL(spec, L)
    if args.json:
        _emit(args, [lg.graph_report(g, spec) for g in graphs])
        return 0
    lines = [f"{len(graphs)} graphs with {L} levels below zero"]
    for i, g in enumerate(graphs):
        pd = lg.prong_data(g)
        vertices = [{"genus": gv, "level": lv} for gv, lv in zip(g.genera, g.levels)]
        lines.append(f"[{i}] vertices={vertices} edges={[list(e) for e in g.edges]} "
                     f"ell={pd.ell} K={pd.kappa_product} aut={pd.aut_order} "
                     f"profile={list(lg.profile(g, spec))}")
    _emit(args, lines)
    return 0


def cmd_divisors(args) -> int:
    spec = _load_spec(args.spec)
    graphs = lg.enumerate_LG1(spec)
    if args.json:
        _emit(args, [lg.graph_report(g, spec) for g in graphs])
        return 0
    rows = [["#", "ell", "K", "orbits", "aut", "N_top", "dims"]]
    for i, g in enumerate(graphs):
        pd = lg.prong_data(g)
        dims = lg.level_dims(g, spec)
        rows.append([str(x) for x in (i, pd.ell, pd.kappa_product, pd.orbits,
                                      pd.aut_order, dims[0][1], [d for d, _ in dims])])
    lines = _table(rows)
    if lg.horizontal_divisor_present(spec):
        lines.append("plus the horizontal divisor")
    _emit(args, lines)
    return 0


def cmd_profiles(args) -> int:
    spec = _load_spec(args.spec)
    out = {L: [list(p) for p in profiles]
           for L, profiles in lg.profile_order_check(spec, args.levels).items()}
    top = max(out, default=0)  # the deepest L checked
    _emit(args, out if args.json else
          [f"profiles consistent through L={top}",
           *(f"L={L}: {ps}" for L, ps in out.items())])
    return 0


def cmd_chi(args) -> int:
    spec = _load_spec(args.spec)
    rep = inv.euler_characteristic(spec, _evaluator(args))
    out = rep.to_json_obj() if args.json else [f"chi = {rational_str(rep.chi)}"]
    if args.verbose and not args.json:
        rows = [["graph", "L", "K", "N_top", "aut", "factors", "contribution"]]
        for r in rep.rows:
            rows.append([r.encoding[:40], str(r.levels_below), str(r.kappa_product),
                         str(r.top_dim_unproj), str(r.aut),
                         " ".join(rational_str(x) for x in r.level_factors),
                         rational_str(r.contribution)])
        out += _table(rows)
    _emit(args, out)
    return 0


def cmd_xi_top(args) -> int:
    spec = _load_spec(args.spec)
    val = rational_str(_evaluator(args).xi_top(spec))
    _emit(args, {"xi_top": val} if args.json else [val])
    return 0


def cmd_c1(args) -> int:
    spec = _load_spec(args.spec)
    terms = inv.c1_log_cotangent(spec).to_json_obj()
    _emit(args, terms if args.json else [json.dumps(t, sort_keys=True) for t in terms])
    return 0


def cmd_chern(args) -> int:
    spec = _load_spec(args.spec)
    rep = inv.chern_polynomial(spec, _evaluator(args))
    _emit(args, rep.to_json_obj() if args.json else
          [f"c_top integral = {rational_str(rep.top_value)}",
           f"chi = {rational_str(rep.chi)}",
           f"duality (-1)^d chi == c_top: {rep.duality_holds}"])
    if not rep.duality_holds:
        print("internal consistency failure: top Chern class does not "
              "match the Euler characteristic", file=sys.stderr)
        return 2
    return 0


def cmd_check(args) -> int:
    results = inv.cross_check()
    _emit(args, [{"name": r.name, "lhs": rational_str(r.lhs),
                  "rhs": rational_str(r.rhs), "ok": r.ok} for r in results]
          if args.json else
          [f"{'PASS' if r.ok else 'FAIL'}  {r.name}: "
           f"{rational_str(r.lhs)} vs {rational_str(r.rhs)}" for r in results])
    return 0 if all(r.ok for r in results) else 2


# each command's handler and the options it reads besides --json and --out
COMMANDS = {
    "info": (cmd_info, ("--spec",)),
    "graphs": (cmd_graphs, ("--spec", "--levels")),
    "divisors": (cmd_divisors, ("--spec",)),
    "profiles": (cmd_profiles, ("--spec", "--levels")),
    "chi": (cmd_chi, ("--spec", "--fixtures", "--verbose")),
    "xi-top": (cmd_xi_top, ("--spec", "--fixtures")),
    "c1": (cmd_c1, ("--spec",)),
    "chern": (cmd_chern, ("--spec", "--fixtures")),
    "check": (cmd_check, ()),
}


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


_OPTIONS = {
    "--spec": dict(required=True, help="stratum JSON file"),
    "--fixtures": dict(nargs="*", default=[], help="extra fixture JSON files"),
    "--levels": dict(type=_levels, default=None),
    "--verbose": dict(action="store_true"), "--json": dict(action="store_true"),
    "--out": dict(default=None),
}


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
    for name, (fn, options) in COMMANDS.items():
        sp = sub.add_parser(name)
        for option in (*options, "--json", "--out"):
            sp.add_argument(option, **_OPTIONS[option])
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
    except (UsageError, SpecError, OSError, UnicodeDecodeError, json.JSONDecodeError,
            FixtureCollisionError, UnevaluatableError) as exc:
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
