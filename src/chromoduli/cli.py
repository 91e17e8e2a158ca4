"""Command-line surface.

Subcommands wrap the library one-to-one (chromatic, omega, chambers,
critical-points, chi, kapranov, parse); `verify` runs every route on the
same inputs and cross-checks the results.  `simple_routes(graph, m)` is the
one table of the simple-graph routes: the six verify-row keys in row order,
each mapped to a zero-argument callable, over one arrangement per (graph, m).
`run_routes(routes)` is the one loop that calls a table's routes and sorts
each outcome into a value, a budget skip or a failure; every verify row,
`scripts/route_table.py` and the acceptance tests run their routes through it.

Exit codes: 0 all agree, 1 disagreement or solver failure, 2 parse/usage
error (malformed graph, weights and constraint files included), 3 budget
exceeded, 141 stdout closed by its reader before all output was written
(as by `| head`), with nothing on stderr.  JSON goes to stdout (JSON lines
for verify), diagnostics to stderr: a solver error outside verify, such as
a Newton chamber that does not converge, prints one "error:" line and no
JSON.  verify checks every graph and m before its first row; a route that
then raises EngineConsistencyError or ConvergenceError is recorded in its
row as "failed": {route: reason} with "agree": false, printed as
"error: <route>: <reason>" on stderr, and the other routes and rows still
run.  A subcommand takes only the budget flags it reads: omega, chi and
kapranov --budget-terms; chambers --budget-orientations and --budget-lp;
critical-points --budget-orientations; verify all three.  Each cap is a
non-negative integer; a negative one is a usage error.  `main` parses
the arguments after a known subcommand with that subcommand's own parser
(`build_parser(command)`); only a missing or unknown subcommand and the
top-level help build the full parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import arrangement as arr_mod
from . import critical as crit_mod
from . import digraph_poly as dig_mod
from . import moduli as mod_mod
from . import orientations as ori_mod
from .errors import BudgetExceededError, ConvergenceError, EngineConsistencyError, GraphParseError
from .graphs import Digraph, SimpleGraph, chromatic_polynomial, graph_to_json, load_graph_file

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # stdout closed by its reader: the shell's code for a death by SIGPIPE

DATA_DIR = Path(__file__).parent / "data"
DEFAULT_SUITE = (DATA_DIR / "paw.txt", DATA_DIR / "instar.txt")

# Each `--budget-<name>` flag and the library default it overrides.
BUDGETS = {
    "orientations": ori_mod.DEFAULT_CANDIDATE_BUDGET,
    "lp": arr_mod.DEFAULT_LP_FUNCTIONAL_BUDGET,
    "terms": mod_mod.DEFAULT_TERM_CAP,
}

_NEEDS = {SimpleGraph: "a simple graph file", Digraph: "a digraph file (header line 'digraph')"}


def _emit(obj, pretty=False):
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load(path, kind=None, command=None):
    """Read a graph file; with `kind`, reject the other kind of graph for `command`."""
    try:
        graph = load_graph_file(path)
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from exc
    if kind is not None and not isinstance(graph, kind):
        raise GraphParseError(f"{command} needs {_NEEDS[kind]}")
    return graph


def _is_number(value):
    """True for a JSON number (bool is an int subclass, but `true` is not a number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_weights(path, expected):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not (isinstance(data, list) and len(data) == expected and all(map(_is_number, data))):
        raise GraphParseError(f"weights file must hold a JSON array of {expected} numbers")
    try:
        return [float(x) for x in data]
    except OverflowError:  # an integer literal past the float range
        raise GraphParseError("weights must be finite") from None


def _signed_chromatic(graph: SimpleGraph, x: int) -> int:
    return (-1) ** graph.n * chromatic_polynomial(graph).evaluate(x)


def cmd_parse(args):
    _emit(graph_to_json(_load(args.graph)), args.pretty)
    return EXIT_OK


def cmd_chromatic(args):
    graph = _load(args.graph, SimpleGraph, args.command)
    poly = chromatic_polynomial(graph)
    _emit(
        {
            "graph": graph_to_json(graph),
            "coefficients": list(poly.coefficients),
            "degree": poly.degree,
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_omega(args):
    graph = _load(args.graph)
    mode = args.mode
    if isinstance(graph, Digraph) and mode == "undirected":
        raise GraphParseError("digraph input needs --mode in or --mode out")
    g, m = args.g, args.m
    if g < 0 or m < 0 or (2 * g - 2 + m <= 0 and (g, m) != (1, 0)):
        raise GraphParseError(f"need 2g-2+m > 0 (or g=1, m=0), got g={g}, m={m}")
    out = {"g": g, "m": m, "mode": mode, "graph": graph_to_json(graph)}
    if (g, m) == (1, 0):
        if isinstance(graph, SimpleGraph):
            chi = chromatic_polynomial(graph)
        else:
            chi, _, consistent = dig_mod.chi_checked(graph, mode, args.budget_terms)
            if not consistent:
                raise EngineConsistencyError(f"closed formula and engine table disagree on chi_{mode}")
        out["value"] = (-1) ** (graph.n - 1) * chi.derivative_at_zero()
        out["route"] = "chromatic-derivative"
    else:
        engine_m = m + 2 * g
        value, stats = mod_mod.omega_with_stats(graph, engine_m, mode, args.budget_terms)
        out["value"] = value
        out["engine_m"] = engine_m
        out["route"] = "engine" if g == 0 else "engine-genus-reduced"
        out["terms_peak"] = stats["terms_peak"]
        out["terms_final"] = stats["terms_final"]
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_chambers(args):
    graph = _load(args.graph, SimpleGraph, args.command)
    arr = arr_mod.build_arrangement(graph, args.m)
    out = {"graph": graph_to_json(graph), "m": args.m}
    counts = []
    if args.method in ("bijective", "both"):
        cb = arr_mod.bounded_chambers_bijective(arr, args.budget_orientations)
        out["count_bijective"] = len(cb)
        out["chambers"] = [c.to_json() for c in cb]
        counts.append(len(cb))
    if args.method in ("lp", "both"):
        cl = arr_mod.bounded_chambers_lp(arr, args.budget_lp)
        out["count_lp"] = len(cl)
        out.setdefault("chambers", [c.to_json() for c in cl])
        counts.append(len(cl))
        if args.method == "both":
            out["sign_vectors_match"] = {c.signs for c in cb} == {c.signs for c in cl}
    _emit(out, args.pretty)
    if len(set(counts)) > 1 or out.get("sign_vectors_match") is False:
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_critical_points(args):
    graph = _load(args.graph, SimpleGraph, args.command)
    arr = arr_mod.build_arrangement(graph, args.m)
    if args.weights:
        weights = _load_weights(args.weights, len(arr.terms))
    else:
        weights = crit_mod.default_weights(arr, args.seed)
    chambers = arr_mod.bounded_chambers_bijective(arr, args.budget_orientations)
    _emit([r.to_json() for r in crit_mod.solve_all_chambers(arr, weights, chambers)], args.pretty)
    return EXIT_OK


def cmd_chi(args):
    graph = _load(args.graph, Digraph, args.command)
    if args.mode == "both":
        report = dig_mod.digraph_polynomial_report(graph, args.budget_terms)
        out, consistent = report.to_json(), report.consistent
    else:
        chi, route, consistent = dig_mod.chi_checked(graph, args.mode, args.budget_terms)
        out = {
            f"chi_{args.mode}": list(chi.coefficients),
            f"route_{args.mode}": route,
            "consistent": consistent,
            "advisories": dig_mod.advisory_flags(chi, f"chi_{args.mode}"),
        }
    out["graph"] = graph_to_json(graph)
    _emit(out, args.pretty)
    return EXIT_OK if consistent else EXIT_DISAGREE


def _labels(value):
    """True for a JSON array of marking labels: integers or strings, but not `true`
    or `false`, which would merge with the labels 1 and 0."""
    return isinstance(value, list) and all(
        isinstance(x, (int, str)) and not isinstance(x, bool) for x in value
    )


def cmd_kapranov(args):
    with open(args.constraints, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if "constraints" not in data:
            raise GraphParseError('a constraints object needs a "constraints" key')
        raw = data["constraints"]
        markings = data.get("markings")
    else:
        raw = data
        markings = None
    if not isinstance(raw, list) or (markings is not None and not _labels(markings)):
        raise GraphParseError("constraints must be a JSON array, markings an array of integers or strings")
    constraints = []
    for item in raw:
        pair = [item.get("subset"), item.get("marking")] if isinstance(item, dict) else item
        # [subset, marking]: a list of labels, then one label
        if not (isinstance(pair, list) and len(pair) == 2 and _labels(pair[0]) and _labels(pair[1:])):
            raise GraphParseError(f"constraint {json.dumps(item)} needs a subset array and a marking")
        constraints.append((frozenset(pair[0]), pair[1]))
    if markings is None:
        markings = frozenset().union(*(s for s, _ in constraints))
    value, stats = mod_mod.kapranov_degree_with_stats(
        constraints, frozenset(markings), term_cap=args.budget_terms
    )
    _emit(
        {
            "degree": value,
            "cerberus": stats["cerberus"],
            "terms_peak": stats["terms_peak"],
            "terms_final": stats["terms_final"],
        },
        args.pretty,
    )
    return EXIT_OK


def simple_routes(graph, m, budgets=BUDGETS, seed=0):
    """The verify-row routes of a simple graph at m: row key -> zero-argument callable.

    Every callable returns (-1)^n chi(-(m-2)) when the routes agree, or
    raises BudgetExceededError past its budget (`budgets` maps each BUDGETS
    name to its cap).  Newton (`seed` picks its weights) runs on the
    bijective chambers, computed once per table: the table keeps the
    chambers, or the BudgetExceededError that refused them.  The callables
    look up the library functions when called.
    """
    arr = arr_mod.build_arrangement(graph, m)
    outcome = []  # the bijective chambers, or the budget error that refused them

    def bijective():
        if not outcome:
            try:
                outcome.append(arr_mod.bounded_chambers_bijective(arr, budgets["orientations"]))
            except BudgetExceededError as exc:
                outcome.append(exc)
        if isinstance(outcome[0], BudgetExceededError):
            raise outcome[0]
        return outcome[0]

    def critical_points():
        return len(crit_mod.solve_all_chambers(arr, crit_mod.default_weights(arr, seed), bijective()))

    return {
        "chromatic": lambda: _signed_chromatic(graph, -(m - 2)),
        "stanley": lambda: ori_mod.stanley_pair_count(graph, m - 2, budgets["orientations"]),
        "chambers_bijective": lambda: len(bijective()),
        "chambers_lp": lambda: len(arr_mod.bounded_chambers_lp(arr, budgets["lp"])),
        "critical_points": critical_points,
        "engine_omega": lambda: mod_mod.omega(graph, m, "undirected", budgets["terms"]),
    }


def report_failure(route, exc):
    """A route's solver failure as one line: the first line of the message, or
    else the exception's class name.  Also printed to stderr as `error: <route>: <reason>`."""
    lines = str(exc).splitlines()
    reason = lines[0] if lines else type(exc).__name__
    print(f"error: {route}: {reason}", file=sys.stderr)
    return reason


def run_routes(routes):
    """Call each route of a table in order: (values, skipped, failed, seconds).

    `values` maps each route that returned to its value.  A route that raises
    BudgetExceededError is listed in `skipped`; one that raises
    EngineConsistencyError or ConvergenceError maps in `failed` to its
    `report_failure` reason.  `seconds` maps every route to its wall time.
    Any other exception propagates.
    """
    values, skipped, failed, seconds = {}, [], {}, {}
    for key, route in routes.items():
        start = time.perf_counter()
        try:
            values[key] = route()
        except BudgetExceededError:
            skipped.append(key)
        except (EngineConsistencyError, ConvergenceError) as exc:
            failed[key] = report_failure(key, exc)
        seconds[key] = time.perf_counter() - start
    return values, skipped, failed, seconds


def _verify_simple_row(graph, name, m, args):
    budgets = {key: getattr(args, f"budget_{key}") for key in BUDGETS}
    values, skipped, failed, _ = run_routes(simple_routes(graph, m, budgets, args.seed))
    row = {
        "graph": name,
        "kind": "simple",
        "m": m,
        "values": values,
        "skipped": sorted(skipped),
        "agree": len(set(values.values())) == 1 and not failed,
    }
    if failed:
        row["failed"] = failed
    return row


def _verify_digraph_row(graph, name, m, args, reports):
    """Digraph rows check the two engine values against the polynomial routes.

    The row's one route, `engine`, returns the four values and whether they
    agree.  The polynomial report does not depend on m: `reports` maps a
    digraph to its report, shared by the rows of one verify run.
    """

    def engine():
        if graph not in reports:
            reports[graph] = dig_mod.digraph_polynomial_report(graph, args.budget_terms)
        report = reports[graph]
        sign = (-1) ** graph.n
        values = {
            "omega_in": mod_mod.omega(graph, m, "in", args.budget_terms),
            "chi_in_eval": sign * report.chi_in.evaluate(-(m - 2)),
            "omega_out": mod_mod.omega(graph, m, "out", args.budget_terms),
            "chi_out_eval": sign * report.chi_out.evaluate(-(m - 2)),
        }
        agree = (
            report.consistent
            and values["omega_in"] == values["chi_in_eval"]
            and values["omega_out"] == values["chi_out_eval"]
        )
        return values, agree

    results, skipped, failed, _ = run_routes({"engine": engine})
    row = {"graph": name, "kind": "digraph", "m": m, "skipped": skipped, "agree": not failed}
    if results:
        row["values"], row["agree"] = results["engine"]
    if failed:
        row["failed"] = failed
    return row


def _pretty_verify(rows):
    header = f"{'graph':14s} {'m':>2s} {'kind':8s} {'values':40s} {'agree':5s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = {
            **row.get("values", {}),
            **dict.fromkeys(row.get("failed", ()), "failed"),
            **dict.fromkeys(row["skipped"], "skipped"),
        }
        rendered = " ".join(f"{k}={v}" for k, v in sorted(cells.items()))
        print(f"{row['graph']:14s} {row['m']:>2d} {row['kind']:8s} {rendered:40s} {row['agree']}")


def cmd_verify(args):
    paths = [Path(p) for p in args.graph] if args.graph else list(DEFAULT_SUITE)
    ms = [int(tok) for tok in str(args.m).split(",")]
    # every input is checked before the first row, in the order the rows meet them
    graphs = [_load(paths[0])]
    for m in ms:
        if m < 3:
            raise ValueError(f"m must be at least 3, got {m}")
    graphs += [_load(path) for path in paths[1:]]
    rows = []
    reports = {}
    for path, graph in zip(paths, graphs):
        for m in ms:
            if isinstance(graph, SimpleGraph):
                rows.append(_verify_simple_row(graph, path.name, m, args))
            else:
                rows.append(_verify_digraph_row(graph, path.name, m, args, reports))
    if args.pretty:
        _pretty_verify(rows)
    else:
        for row in rows:
            _emit(row)
    if any(not row["agree"] for row in rows):
        return EXIT_DISAGREE
    if any(row["skipped"] for row in rows):
        return EXIT_BUDGET
    return EXIT_OK


def _cap(text):
    """The value of a `--budget-*` flag: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a budget cannot be negative, got {value}")
    return value


def _add_common(sub, budgets=(), graph_required=True, needs_m=False):
    if graph_required:
        sub.add_argument("--graph", required=True, help="graph file path")
    if needs_m:
        sub.add_argument("--m", type=int, required=True, help="number of extra markings")
    sub.add_argument("--pretty", action="store_true")
    for name in budgets:
        sub.add_argument(f"--budget-{name}", type=_cap, default=BUDGETS[name])


def _parse_parser(p):
    _add_common(p)
    p.set_defaults(func=cmd_parse)


def _chromatic_parser(p):
    _add_common(p)
    p.set_defaults(func=cmd_chromatic)


def _omega_parser(p):
    _add_common(p, ("terms",), needs_m=True)
    p.add_argument("--g", type=int, default=0, help="genus (handled by exact reduction)")
    p.add_argument("--mode", choices=["undirected", "in", "out"], default="undirected")
    p.set_defaults(func=cmd_omega)


def _chambers_parser(p):
    _add_common(p, ("orientations", "lp"), needs_m=True)
    p.add_argument("--method", choices=["bijective", "lp", "both"], default="both")
    p.set_defaults(func=cmd_chambers)


def _critical_points_parser(p):
    _add_common(p, ("orientations",), needs_m=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", help="JSON array of positive weights, one per functional")
    p.set_defaults(func=cmd_critical_points)


def _chi_parser(p):
    _add_common(p, ("terms",))
    p.add_argument("--mode", choices=["in", "out", "both"], default="both")
    p.set_defaults(func=cmd_chi)


def _kapranov_parser(p):
    _add_common(p, ("terms",), graph_required=False)
    p.add_argument("--constraints", required=True)
    p.set_defaults(func=cmd_kapranov)


def _verify_parser(p):
    p.add_argument("--graph", action="append", help="graph file; repeatable (default: shipped suite)")
    p.add_argument("--m", default="3,4", help="comma-separated list of extra-marking counts")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, tuple(BUDGETS), graph_required=False)
    p.set_defaults(func=cmd_verify)


# Each subcommand in help order: its one-line help and the function adding its arguments.
_SUBCOMMANDS = {
    "parse": ("echo a parsed graph file as JSON", _parse_parser),
    "chromatic": ("chromatic polynomial coefficients", _chromatic_parser),
    "omega": ("intersection number of a graph", _omega_parser),
    "chambers": ("bounded chambers of the graph arrangement", _chambers_parser),
    "critical-points": ("one certified critical point per chamber", _critical_points_parser),
    "chi": ("digraph polynomials (in/out)", _chi_parser),
    "kapranov": ("degree of a constraint system from a JSON file", _kapranov_parser),
    "verify": ("run all routes and cross-check them", _verify_parser),
}


@functools.cache  # built once: each build leaves argparse formatter cycles for the collector
def build_parser(command=None):
    """The parser of one subcommand, which reads the arguments after its name;
    without one, the full CLI parser with every subcommand as a subparser.

    The subcommand's own parser has the prog "chromoduli <command>" of the
    full parser's subparser, so its help and usage errors read the same.
    Errors about the subcommand itself (missing or unknown) and the
    top-level help need the full parser.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"chromoduli {command}")
        _SUBCOMMANDS[command][1](parser)
        parser.set_defaults(command=command)
        return parser
    parser = argparse.ArgumentParser(
        prog="chromoduli",
        description="Graph intersection numbers cross-checked through independent routes",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(subs.add_parser(name, help=help_text))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is left goes to devnull, so that the
        # interpreter's last flush has no pipe to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ValueError, OSError, KeyError) as exc:  # GraphParseError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (EngineConsistencyError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
