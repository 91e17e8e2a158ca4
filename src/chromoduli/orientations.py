"""Stanley's route: compatible (coloring, acyclic orientation) pairs by brute force.

Everything here iterates over all 2^|E| orientations (and all k^|V| colorings
where needed), and the candidate budget caps that product.  Performance is
explicitly not the point: this is the route the others are checked against,
and its code is its own.  The bijective chambers (`arrangement`) enumerate
their pairs colouring first, with their own orientation search.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceededError
from .graphs import SimpleGraph, topological_order

DEFAULT_CANDIDATE_BUDGET = 1 << 24


def acyclic_orientations(graph: SimpleGraph, candidate_budget=DEFAULT_CANDIDATE_BUDGET):
    """All acyclic orientations, as tuples of arcs aligned with sorted edges.

    Orientation masks are scanned in ascending order, so the result order is
    deterministic.
    """
    edges = graph.edges
    if 2 ** len(edges) > candidate_budget:
        raise BudgetExceededError(
            f"2^{len(edges)} orientation candidates exceed budget {candidate_budget}"
        )
    out = []
    for mask in range(2 ** len(edges)):
        arcs = tuple(
            (u, w) if not (mask >> i) & 1 else (w, u)
            for i, (u, w) in enumerate(edges)
        )
        if topological_order(graph.vertices, arcs) is not None:
            out.append(arcs)
    return out


def stanley_pair_count(graph: SimpleGraph, k, candidate_budget=DEFAULT_CANDIDATE_BUDGET):
    """Number of pairs (coloring sigma: V -> {1..k}, acyclic orientation O)
    such that every arc u -> w of O has sigma(u) >= sigma(w)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    n = graph.n
    cost = (k ** n) * (2 ** len(graph.edges))
    if cost > candidate_budget:
        raise BudgetExceededError(f"{cost} candidate evaluations exceed budget {candidate_budget}")
    orientations = acyclic_orientations(graph, candidate_budget)
    vs = graph.vertices
    count = 0
    for colors in itertools.product(range(1, k + 1), repeat=n):
        sigma = dict(zip(vs, colors))
        for arcs in orientations:
            if all(sigma[u] >= sigma[w] for u, w in arcs):
                count += 1
    return count
