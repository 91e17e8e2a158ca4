"""The benchmark's workloads: fixed case lists, relabelled by the workload seed.

A case is one `chromoduli verify` call for one (graph, m), one engine
`omega_with_stats` call, or one `digraph_polynomial_report` call.  Graphs are
plain data here, `{"name", "n", "edges", "directed"}` with vertices 0..n-1,
so that this module and the oracle never import the package under test.

The seed picks one vertex relabelling per graph (the isomorphism class stays
fixed) and the Newton weight seed passed to `verify --seed`.  The same seed
gives the same cases.
"""

from __future__ import annotations

import random
from pathlib import Path

FIXTURE_DIR = Path("src") / "chromoduli" / "data"


def read_graph_file(path):
    """Parse the package's plain graph format without importing the package."""
    lines = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    directed = lines[0].lower() == "digraph"
    if directed:
        lines = lines[1:]
    n, count = (int(tok) for tok in lines[0].split())
    edges = [tuple(int(tok) for tok in ln.split()) for ln in lines[1 : 1 + count]]
    return {"name": Path(path).stem, "n": n, "edges": edges, "directed": directed}


def graph_text(graph):
    """The graph in the package's file format."""
    head = ["digraph"] if graph["directed"] else []
    body = [f"{u} {w}" for u, w in graph["edges"]]
    return "\n".join(head + [f"{graph['n']} {len(graph['edges'])}"] + body) + "\n"


def _simple(name, n, edges):
    return {"name": name, "n": n, "edges": list(edges), "directed": False}


def _digraph(name, n, arcs):
    return {"name": name, "n": n, "edges": list(arcs), "directed": True}


def reverse(graph):
    return _digraph(graph["name"] + "_rev", graph["n"], [(w, u) for u, w in graph["edges"]])


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def complete(n):
    return [(u, w) for u in range(n) for w in range(u + 1, n)]


def _relabel(graph, rng):
    perm = list(range(graph["n"]))
    rng.shuffle(perm)
    edges = sorted((perm[u], perm[w]) for u, w in graph["edges"])
    rng.shuffle(edges)
    return dict(graph, edges=edges)


# Route probe: one tiny simple-graph row and one tiny digraph row.  They run
# every module once, so every layer's time is measured on every workload;
# together they cost about 1% of a pass.
P3 = _simple("P3", 3, path(3))
ARC2 = _digraph("arc2", 2, [(0, 1)])


def _verify(graph, m):
    return {"kind": "verify", "graph": graph, "m": m}


def _probe():
    return [_verify(P3, 3), _verify(ARC2, 3)]


def _verify_dense():
    # The shipped fixtures at m=3,4 are exactly what a bare `chromoduli
    # verify` runs.  The dense 4-vertex graphs run at m=3 only: C4 at m=4
    # costs about 5 s and K4 at m=4 10-14 s, so either would cut the passes
    # a run can time to one or two.
    paw = read_graph_file(FIXTURE_DIR / "paw.txt")
    instar = read_graph_file(FIXTURE_DIR / "instar.txt")
    c4, k4 = _simple("C4", 4, cycle(4)), _simple("K4", 4, complete(4))
    pairs = [(paw, 3), (paw, 4), (instar, 3), (instar, 4), (c4, 3), (k4, 3)]
    return [_verify(g, m) for g, m in pairs]


def _engine_sparse():
    # E5 at m=5 is the engine's peak in terms and memory.  P5 and C5 at m=5
    # (about 3 s and 2.5 s) are left out so that a run times three passes.
    graphs = [_simple("E5", 5, []), _simple("P5", 5, path(5)), _simple("C5", 5, cycle(5))]
    pairs = [(graphs[0], 4), (graphs[0], 5), (graphs[1], 4), (graphs[2], 4)]
    return [{"kind": "omega", "graph": g, "m": m} for g, m in pairs] + _probe()


def _digraph_interp():
    # Two 4-vertex digraphs, each interpolated from engine values at
    # m=3..7: the directed 4-cycle and the symmetric K4.  Each is isomorphic
    # to its own reversal, so reversing it would only repeat the same work.
    # Reversal is checked on the 3-vertex in-star, a DAG whose two
    # polynomials differ; no 3-vertex digraph with a directed cycle has
    # differing polynomials.  A 4-vertex DAG is left out: its report costs
    # 6-11 s, about as much as the two above together, and the in-star
    # already checks the DAG closed forms.
    dcycle4 = _digraph("dcycle4", 4, cycle(4))
    sym_k4 = _digraph("symK4", 4, complete(4) + [(w, u) for u, w in complete(4)])
    instar = read_graph_file(FIXTURE_DIR / "instar.txt")
    graphs = [dcycle4, sym_k4, instar, reverse(instar)]
    # The reports run the digraph modules; the probe's simple row runs the rest.
    return [{"kind": "digraph_report", "graph": g} for g in graphs] + [_verify(P3, 3)]


WORKLOADS = {
    "verify_dense": _verify_dense,
    "engine_sparse": _engine_sparse,
    "digraph_interp": _digraph_interp,
}


def newton_seed(seed):
    return seed % (1 << 32)


def cases(workload, seed):
    """The workload's cases for this seed, each with a unique `id`."""
    out = []
    for case in WORKLOADS[workload]():
        graph = case["graph"]
        rng = random.Random(f"{workload}/{seed}/{graph['name']}")
        case = dict(case, graph=_relabel(graph, rng))
        suffix = f"@m={case['m']}" if "m" in case else ""
        case["id"] = f"{case['kind']}:{graph['name']}{suffix}"
        out.append(case)
    return out
