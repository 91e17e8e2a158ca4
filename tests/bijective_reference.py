"""The bijective chambers pair by pair: the tests' reference for `bounded_chambers_bijective`.

Every acyclic orientation (`orientations.acyclic_orientations`, all 2^|E|
scanned) times every coloring, kept when each arc u -> w has
sigma(u) >= sigma(w).  Each compatible pair gives the witness of
`pair_witness`, whose class orders come from `graphs.topological_order`,
and its chamber is certified by substitution.  This is the route's
enumeration before it went colouring first; it shares no code with the
route beyond `_signs_at` and `Chamber`.
"""

import itertools
import math

from chromoduli.arrangement import Chamber, _signs_at
from chromoduli.errors import EngineConsistencyError
from chromoduli.graphs import topological_order
from chromoduli.orientations import acyclic_orientations


def pair_witness(graph, m, sigma, arcs):
    """Interior point for the chamber of a compatible (coloring, orientation) pair: numerators and d.

    Vertices of color c live in (c-1, c), at equally spaced offsets k/(t+1);
    within a color class, an arc u -> w forces x_u > x_w.  A class has
    t <= n vertices, so d = lcm(2..n+1) is a common denominator.
    """
    d = math.lcm(*range(2, graph.n + 2))
    witness = {}
    for color in range(1, m - 1):
        group = [v for v in graph.vertices if sigma[v] == color]
        if not group:
            continue
        gset = set(group)
        sub_arcs = [(u, w) for (u, w) in arcs if u in gset and w in gset]
        order = topological_order(group, sub_arcs)
        if order is None:
            raise EngineConsistencyError("orientation restricted to a color class has a cycle")
        t = len(group)
        for position, v in enumerate(order):
            witness[v] = (color - 1) * d + (t - position) * (d // (t + 1))
    return tuple(witness[v] for v in graph.vertices), d


def pair_to_chamber(arr, sigma, arcs):
    """The chamber of a compatible pair; ValueError if an arc climbs in color."""
    if not all(sigma[u] >= sigma[w] for u, w in arcs):
        raise ValueError("orientation is not compatible with the coloring")
    nums, d = pair_witness(arr.graph, arr.m, sigma, arcs)
    return Chamber(_signs_at(arr, nums, d), nums, d)


def reference_chambers(arr):
    """One chamber per compatible pair, sorted by sign vector; a chamber found twice raises."""
    graph, k = arr.graph, arr.m - 2
    chambers = []
    for arcs in acyclic_orientations(graph):
        for colors in itertools.product(range(1, k + 1), repeat=graph.n):
            sigma = dict(zip(graph.vertices, colors))
            if all(sigma[u] >= sigma[w] for u, w in arcs):
                chambers.append(pair_to_chamber(arr, sigma, arcs))
    if len({c.signs for c in chambers}) != len(chambers):
        raise EngineConsistencyError("distinct pairs produced the same chamber")
    chambers.sort(key=lambda c: c.signs)
    return chambers
