#!/usr/bin/env python3
"""Time every route of `cli.simple_routes` and print one table row per graph.

    python3 scripts/route_table.py K5@4 C6@4 Petersen@3 [--repeat R]

A graph is `K<n>`, `C<n>`, `P<n>` or `E<n>` (complete, cycle, path or
edgeless on n vertices), `Q3`, `Petersen`, `paw`, or the path of a graph
file; `@M` gives the number of extra markings.  Each repetition builds a
fresh table and calls its routes in row order, so the Newton route
(`critical_points`) runs on the bijective chambers already computed and its
time leaves them out.  The routes run through `cli.run_routes`, the loop of
`chromoduli verify`, which times each one.  A cell is the median wall time
in seconds over the repetitions, `budget` when the route exceeds its
default budget, or `failed` when it raises EngineConsistencyError or
ConvergenceError; a failed route prints `error: <route>: <reason>` to
stderr once, and the other routes and rows still run.  The value column is
the routes' common value, or every distinct value when they disagree.  The
rows follow the layout of the route table in ROADMAP.md, which leaves out
`chromatic` (a few milliseconds here).

Exit codes: 0 when every row agrees, 1 when a row disagrees or a route
failed, 2 when an argument names no simple graph or no M, or M is below 3
(one `error:` line on stderr; every argument is checked before the table
is printed).
"""

import argparse
import itertools
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chromoduli import cli  # noqa: E402
from chromoduli.graphs import SimpleGraph, load_graph_file  # noqa: E402

COLUMNS = ("stanley", "chambers_bijective", "chambers_lp", "critical_points", "engine_omega")


def named_graph(name):
    """The graph a name stands for, or the simple graph in the file it names."""
    kind, size = name[:1], name[1:]
    if name == "paw":
        return SimpleGraph.of(range(4), [(0, 1), (1, 2), (0, 2), (0, 3)])
    if name == "Q3":
        return SimpleGraph.of(range(8), [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    if name == "Petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return SimpleGraph.of(range(10), outer + spokes + inner)
    if kind in "KCPE" and size.isdigit() and int(size) > 0:
        n = int(size)
        edges = {
            "K": itertools.combinations(range(n), 2),
            "C": [(i, (i + 1) % n) for i in range(n)],
            "P": [(i, i + 1) for i in range(n - 1)],
            "E": [],
        }[kind]
        return SimpleGraph.of(range(n), edges)
    graph = load_graph_file(name)
    if not isinstance(graph, SimpleGraph):
        raise ValueError(f"{name} is not a simple graph")
    return graph


def parse_case(case):
    """(name, graph, m) for a `GRAPH@M` argument; ValueError or OSError if it names none or M is below 3."""
    name, at, m = case.rpartition("@")
    if not (at and m.isdigit()):
        raise ValueError(f"{case}: expected GRAPH@M with M a number of extra markings")
    graph, m = named_graph(name), int(m)
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    return name, graph, m


def route_row(graph, m, repeat):
    """({route: median seconds, "budget" or "failed"}, the set of values).

    A route past its budget or failed is not run again in later repetitions.
    """
    times = {key: [] for key in ("chromatic",) + COLUMNS}
    values = set()
    for _ in range(repeat):
        routes = {key: route for key, route in cli.simple_routes(graph, m).items() if isinstance(times[key], list)}
        found, skipped, failed, seconds = cli.run_routes(routes)
        values.update(found.values())
        times.update(dict.fromkeys(skipped, "budget"))
        times.update(dict.fromkeys(failed, "failed"))
        for key in found:
            times[key].append(seconds[key])
    return {key: t if isinstance(t, str) else statistics.median(t) for key, t in times.items()}, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="+", metavar="GRAPH@M")
    parser.add_argument("--repeat", type=int, default=1, help="repetitions per row (median)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    try:
        cases = [parse_case(case) for case in args.cases]
        print("| graph, m | value | " + " | ".join(COLUMNS) + " |")
        print("|---" * (len(COLUMNS) + 2) + "|")
        agree = True
        for name, graph, m in cases:
            times, values = route_row(graph, m, args.repeat)
            agree = agree and len(values) == 1 and "failed" not in times.values()
            value = " / ".join(f"{v:,}" for v in sorted(values))
            cells = [t if isinstance(t, str) else f"{t:.3f}" for t in map(times.get, COLUMNS)]
            print(f"| {name}, {m} | {value} | " + " | ".join(cells) + " |", flush=True)
    except (ValueError, OSError) as exc:  # a bad case
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_PARSE
    return cli.EXIT_OK if agree else cli.EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
