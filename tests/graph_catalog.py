"""Shared small-graph catalog (one representative per isomorphism class) and random graphs."""

import itertools

from hypothesis import settings
from hypothesis import strategies as st

from chromoduli.graphs import Digraph, SimpleGraph

# The cross-route oracle tests' example count; the profile in conftest.py
# makes every run draw the same examples.
ORACLE_SETTINGS = settings(max_examples=20)

PAW_EDGES = [(1, 2), (2, 3), (1, 3), (1, 4)]


def paw_graph():
    """Triangle with a pendant edge, vertex labels 1..4."""
    return SimpleGraph.of([1, 2, 3, 4], PAW_EDGES)


def instar_digraph():
    """Three vertices, two arcs into the middle one."""
    return Digraph.of([0, 1, 2], [(0, 1), (2, 1)])


# (name, vertex count, edges); 4-vertex entries cover all 11 isomorphism classes.
CATALOG = [
    ("K1", 1, []),
    ("E2", 2, []),
    ("K2", 2, [(0, 1)]),
    ("E3", 3, []),
    ("K2+1", 3, [(0, 1)]),
    ("P3", 3, [(0, 1), (1, 2)]),
    ("K3", 3, [(0, 1), (1, 2), (0, 2)]),
    ("E4", 4, []),
    ("K2+2", 4, [(0, 1)]),
    ("2K2", 4, [(0, 1), (2, 3)]),
    ("P3+1", 4, [(0, 1), (1, 2)]),
    ("P4", 4, [(0, 1), (1, 2), (2, 3)]),
    ("star", 4, [(0, 1), (0, 2), (0, 3)]),
    ("K3+1", 4, [(0, 1), (1, 2), (0, 2)]),
    ("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("paw", 4, [(0, 1), (1, 2), (0, 2), (0, 3)]),
    ("diamond", 4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)]),
    ("K4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
]


class DenseFunctional:
    """One functional a.z + b of a graph's arrangement as a dense coefficient row, and its tag.

    The tests' reference for `Arrangement.terms` and `Arrangement.tag`:
    `dense_functionals` builds each straight from the graph and m.
    """

    def __init__(self, coefficients, constant, tag):
        self.coefficients, self.constant, self.tag = coefficients, constant, tag

    def value(self, z, d=1):
        """d * f(z / d): the value at z, or its d-fold from numerators z over d > 0."""
        return sum(a * x for a, x in zip(self.coefficients, z)) + self.constant * d


def dense_functionals(graph, m):
    """The arrangement's functionals in its order: the levels z_v - i
    (i = 0..m-2) vertex by vertex, then the edges z_u - z_w."""
    vs = graph.vertices
    levels = [DenseFunctional([int(x == v) for x in vs], -i, ("level", v, i)) for v in vs for i in range(m - 1)]
    edges = [DenseFunctional([(x == u) - (x == w) for x in vs], 0, ("edge", u, w)) for u, w in graph.edges]
    return levels + edges


def symmetric_digraph(graph):
    """The digraph with both arcs u -> w and w -> u for every edge of `graph`."""
    return Digraph.of(graph.vertices, [a for u, w in graph.edges for a in ((u, w), (w, u))])


def is_monic(poly):
    """True for a nonzero IntPolynomial whose leading coefficient is 1."""
    return bool(poly.coefficients) and poly.coefficients[-1] == 1


def all_graphs_up_to_4():
    return [(name, SimpleGraph.of(range(n), edges)) for name, n, edges in CATALOG]


def graphs_with_at_most(k):
    return [(name, g) for name, g in all_graphs_up_to_4() if g.n <= k]


@st.composite
def simple_graphs(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph.of(range(n), [p for p, k in zip(pairs, keep) if k])


@st.composite
def graphs_and_m(draw):
    """A graph with n <= 5 at m = 3 or n <= 4 at m = 4 (the chamber routes' reach)."""
    m = draw(st.sampled_from([3, 4]))
    return draw(simple_graphs(max_n=5 if m == 3 else 4)), m


@st.composite
def symmetric_graphs_and_m(draw):
    """A graph with a forced automorphism at m = 3..5, in the chamber routes' reach.

    A twin of a random vertex (joined to it or not), two disjoint copies of
    a graph, or a cycle with a chord; at most 6 vertices at m = 3 and 4 at
    m = 4, 5.
    """
    m = draw(st.integers(3, 5))
    most = 6 if m == 3 else 4
    kind = draw(st.sampled_from(["twin", "copies", "chord"]))
    if kind == "twin":
        g = draw(simple_graphs(max_n=most - 1))
        v = draw(st.sampled_from(g.vertices))
        twin = [(g.n, w) for w in g.neighbors(v)] + ([(g.n, v)] if draw(st.booleans()) else [])
        return SimpleGraph.of(range(g.n + 1), list(g.edges) + twin), m
    if kind == "copies":
        g = draw(simple_graphs(max_n=most // 2))
        copy = [(u + g.n, w + g.n) for u, w in g.edges]
        return SimpleGraph.of(range(2 * g.n), list(g.edges) + copy), m
    n = draw(st.integers(4, most))
    chord = (0, draw(st.integers(2, n - 2)))
    return SimpleGraph.of(range(n), [(i, (i + 1) % n) for i in range(n)] + [chord]), m


@st.composite
def digraphs(draw, max_n):
    """A random digraph on 0..n-1, n <= max_n; directed cycles allowed."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.permutations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph.of(range(n), [p for p, k in zip(pairs, keep) if k])


@st.composite
def acyclic_digraphs(draw, max_n):
    """A random graph, n <= max_n, oriented along a random vertex order."""
    g = draw(simple_graphs(max_n=max_n))
    rank = {v: i for i, v in enumerate(draw(st.permutations(g.vertices)))}
    return Digraph.of(g.vertices, [(u, w) if rank[u] < rank[w] else (w, u) for u, w in g.edges])
