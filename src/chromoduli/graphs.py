"""Simple graphs, digraphs, and exact integer polynomials.

Vertex labels are sorted by Python's own `<`, and an edge starts at its
smaller end; labels that do not compare, such as integers mixed with
strings, raise TypeError when a graph is built.

The chromatic polynomial is computed by memoized deletion-contraction with
the edgeless graph (chi = x^n) as base case.  Contraction immediately
simplifies: loops are dropped and parallel edges merged, so multigraphs are
never materialized.

`automorphism_generators` returns a generating set of a graph's
automorphism group, one automorphism per (stabiliser level, new orbit
point), found by a backtracking search pruned by adjacency and by the
colour refinement that `canonical_key` also runs.

`Value` is the immutable plain-class base of the package's value classes,
here and in `arrangement`, `critical` and `digraph_poly`.
"""

from __future__ import annotations

from .errors import GraphParseError

_set = object.__setattr__


class Value:
    """An immutable value: a plain class, not a dataclass, so that importing
    the package builds no code for it.

    A subclass names its fields in `__slots__` (plus "__dict__" if it keeps
    cached properties) and sets them in its `__init__` with `_set`.
    Assigning or deleting a field raises AttributeError; two values are
    equal when they are of the same class with equal fields, and equal
    values hash equal.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy would set the slots one by one, which __setattr__
        # refuses; they rebuild the value through __init__ instead
        return (self.__class__, self._values())


def _norm_edge(u, w):
    if u == w:
        raise ValueError(f"loop edge at {u!r} is not allowed")
    return (u, w) if u < w else (w, u)


class SimpleGraph(Value):
    """Finite simple graph: labeled vertices, unordered edges, no loops."""

    __slots__ = ("vertices", "edges")  # edges: pairs (u, w) with u < w, sorted

    def __init__(self, vertices, edges):
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)

    @classmethod
    def of(cls, vertices, edges=()):
        vs = tuple(sorted(set(vertices)))
        if not vs:
            raise ValueError("vertex set must be nonempty")
        vset = set(vs)
        norm = set()
        for u, w in edges:
            if u not in vset or w not in vset:
                raise ValueError(f"edge ({u!r}, {w!r}) has an endpoint outside the vertex set")
            norm.add(_norm_edge(u, w))
        return cls(vs, tuple(sorted(norm)))

    @property
    def n(self):
        return len(self.vertices)

    def neighbors(self, v):
        out = []
        for u, w in self.edges:
            if u == v:
                out.append(w)
            elif w == v:
                out.append(u)
        return tuple(sorted(out))

    def closed_neighborhood(self, v):
        if v not in self.vertices:
            raise ValueError(f"{v!r} is not a vertex")
        return frozenset((v,) + self.neighbors(v))

    def degree(self, v):
        return len(self.neighbors(v))

    def delete_edge(self, e):
        edge = _norm_edge(*e)
        if edge not in self.edges:
            raise ValueError(f"unknown edge {e!r}")
        return SimpleGraph(self.vertices, tuple(x for x in self.edges if x != edge))

    def contract_edge(self, e):
        """Contract e, naming the merged vertex after the smaller endpoint."""
        edge = _norm_edge(*e)
        if edge not in self.edges:
            raise ValueError(f"unknown edge {e!r}")
        keep, drop = edge  # keep is the smaller label
        remap = lambda x: keep if x == drop else x
        new_edges = set()
        for u, w in self.edges:
            if (u, w) == edge:
                continue
            a, b = remap(u), remap(w)
            if a != b:
                new_edges.add(_norm_edge(a, b))
        new_vertices = tuple(v for v in self.vertices if v != drop)
        return SimpleGraph(new_vertices, tuple(sorted(new_edges)))


class Digraph(Value):
    """Finite simple digraph: no loops, no repeated arcs; opposite arcs allowed."""

    __slots__ = ("vertices", "arcs")  # arcs: ordered pairs (tail, head), sorted

    def __init__(self, vertices, arcs):
        _set(self, "vertices", vertices)
        _set(self, "arcs", arcs)

    @classmethod
    def of(cls, vertices, arcs=()):
        vs = tuple(sorted(set(vertices)))
        if not vs:
            raise ValueError("vertex set must be nonempty")
        vset = set(vs)
        seen = set()
        for u, w in arcs:
            if u not in vset or w not in vset:
                raise ValueError(f"arc ({u!r}, {w!r}) has an endpoint outside the vertex set")
            if u == w:
                raise ValueError(f"loop arc at {u!r} is not allowed")
            if (u, w) in seen:
                raise ValueError(f"repeated arc ({u!r}, {w!r})")
            seen.add((u, w))
        return cls(vs, tuple(sorted(seen)))

    @property
    def n(self):
        return len(self.vertices)

    def in_degree(self, v):
        return sum(1 for _, w in self.arcs if w == v)

    def out_degree(self, v):
        return sum(1 for u, _ in self.arcs if u == v)

    def in_neighborhood(self, v):
        """v together with its in-neighbors."""
        if v not in self.vertices:
            raise ValueError(f"{v!r} is not a vertex")
        return frozenset([v] + [u for u, w in self.arcs if w == v])

    def out_neighborhood(self, v):
        if v not in self.vertices:
            raise ValueError(f"{v!r} is not a vertex")
        return frozenset([v] + [w for u, w in self.arcs if u == v])

    def reverse(self):
        return Digraph.of(self.vertices, [(w, u) for u, w in self.arcs])

    def is_acyclic(self):
        return topological_order(self.vertices, self.arcs) is not None


def topological_order(vertices, arcs):
    """Kahn's algorithm; smallest available label first.  None if cyclic."""
    indeg = {v: 0 for v in vertices}
    out = {v: [] for v in vertices}
    for u, w in arcs:
        indeg[w] += 1
        out[u].append(w)
    ready = sorted(v for v in vertices if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        changed = False
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort()
    return order if len(order) == len(list(vertices)) else None


class IntPolynomial(Value):
    """Dense univariate polynomial with arbitrary-precision integer coefficients.

    coefficients[d] multiplies x^d; the tuple carries no trailing zeros.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"non-integer coefficient {c!r}")
        _set(self, "coefficients", tuple(coeffs))

    @classmethod
    def monomial(cls, degree, coefficient=1):
        return cls((0,) * degree + (coefficient,))

    @property
    def degree(self):
        return len(self.coefficients) - 1  # -1 for the zero polynomial

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative_at_zero(self):
        return self.coefficients[1] if len(self.coefficients) > 1 else 0

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coefficients))
        out = [0] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__


def chromatic_polynomial(graph: SimpleGraph) -> IntPolynomial:
    """Chromatic polynomial via deletion-contraction.

    The recursion always splits on the lexicographically smallest edge, and
    the memo cache (local to this call) is keyed by a canonical form of the
    edge set, so equal keys imply isomorphic graphs.
    """
    return _deletion_contraction(graph, {})


def _deletion_contraction(g, cache):
    # module-level, so that no function -> cell -> function cycle keeps `cache` alive
    if not g.edges:
        return IntPolynomial.monomial(g.n)
    key = canonical_key(g)
    if key not in cache:
        e = g.edges[0]
        value = _deletion_contraction(g.delete_edge(e), cache)
        cache[key] = value - _deletion_contraction(g.contract_edge(e), cache)
    return cache[key]


def _refined_colors(graph: SimpleGraph):
    """Colour refinement from the degrees: one colour per vertex, in vertex order.

    The colours depend on the graph alone, not on its labels, so every
    automorphism maps each vertex to one of its own colour.
    """
    pos = {v: i for i, v in enumerate(graph.vertices)}
    nbrs = [[] for _ in pos]
    for u, w in graph.edges:
        nbrs[pos[u]].append(pos[w])
        nbrs[pos[w]].append(pos[u])
    color = [len(x) for x in nbrs]
    for _ in range(len(nbrs)):
        sig = [(c, tuple(sorted([color[w] for w in x]))) for c, x in zip(color, nbrs)]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if new == color:
            break
        color = new
    return color


def canonical_key(graph: SimpleGraph):
    """Best-effort canonical form: relabel by color-refined vertex order.

    Equal keys imply isomorphic graphs (hence equal chromatic polynomials);
    isomorphic relabelings often, but not necessarily, share a key.
    """
    color = _refined_colors(graph)
    order = sorted(range(len(color)), key=lambda i: (color[i], i))  # vertices are sorted
    pos = {graph.vertices[i]: p for p, i in enumerate(order)}
    edges = tuple(sorted(tuple(sorted((pos[u], pos[w]))) for u, w in graph.edges))
    return (len(order), edges)


def automorphism_generators(graph: SimpleGraph):
    """A generating set of the automorphism group of `graph`, as a tuple.

    Each generator is a tuple p over vertex positions: p[i] is the position,
    in `graph.vertices`, of the image of the i-th vertex.  The search fixes
    the base 0, 1, ..., n-1 and works up from the deepest level: at level i
    the generators found so far fix 0..i-1, and for each vertex c of i's
    colour outside the orbit of i under them, a backtracking search looks
    for an automorphism that fixes 0..i-1 and sends i to c.  Each one found
    is kept and the orbit regrown, so one generator is kept per (level, new
    orbit point): the generators form a strong generating set, and |Aut(G)|
    is the product over i of the orbit of i under the generators that fix
    0..i-1.  The search maps vertices in base order, each to an unused
    vertex of its refined colour (`_refined_colors`) whose adjacency to the
    vertices mapped so far matches.  The edgeless and complete graphs on n
    vertices take n - 1 searches, one per level.  An arrangement calls it
    once, when its symmetries are first read (`Arrangement.symmetries`).
    """
    vs = graph.vertices
    n = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    adj = [0] * n  # bitmask of each vertex's neighbours
    for u, w in graph.edges:
        adj[pos[u]] |= 1 << pos[w]
        adj[pos[w]] |= 1 << pos[u]
    color = _refined_colors(graph)
    generators = []
    for i in range(n - 2, -1, -1):
        candidates = [c for c in range(i + 1, n) if color[c] == color[i]]
        orbit = orbit_of(i, generators) if candidates else ()
        for c in candidates:
            found = None if c in orbit else _extend(adj, color, list(range(i)), c)
            if found is not None:
                generators.append(found)
                orbit = orbit_of(i, generators)
    return tuple(generators)


def orbit_of(point, generators):
    """The orbit of `point` under the group that the permutations `generators`
    (tuples, g[x] the image of x) generate."""
    orbit = {point}
    queue = [point]
    for x in queue:
        for g in generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                queue.append(g[x])
    return orbit


def _extend(adj, color, image, target):
    """An automorphism extending `image` (the images of positions 0..k-1) by k -> target, or None."""
    k = len(image)
    if color[target] != color[k] or target in image:
        return None
    if any(((adj[k] >> j) ^ (adj[target] >> image[j])) & 1 for j in range(k)):
        return None
    image = image + [target]
    if len(image) == len(adj):
        return tuple(image)
    for c in range(len(adj)):
        found = _extend(adj, color, image, c)
        if found is not None:
            return found
    return None


def parse_graph_text(text):
    """Parse the plain text format: optional 'digraph' header, then 'n m' and m pair lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty graph file")
    directed = False
    if lines[0].lower() == "digraph":
        directed = True
        lines = lines[1:]
        if not lines:
            raise GraphParseError("missing 'n m' header after 'digraph'")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphParseError(f"non-integer header {lines[0]!r}") from exc
    if n <= 0:
        raise GraphParseError("vertex count must be positive")
    body = lines[1:]
    if len(body) != m:
        raise GraphParseError(f"expected {m} edge lines, found {len(body)}")
    pairs = []
    for ln in body:
        toks = ln.split()
        if len(toks) != 2:
            raise GraphParseError(f"expected 'u v', got {ln!r}")
        try:
            u, w = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise GraphParseError(f"non-integer endpoint in {ln!r}") from exc
        if not (0 <= u < n and 0 <= w < n):
            raise GraphParseError(f"endpoint out of range in {ln!r}")
        pairs.append((u, w))
    if not directed:
        seen = set()
        for u, w in pairs:
            key = frozenset((u, w))
            if key in seen:
                raise GraphParseError(f"parallel edge {u} {w}")
            seen.add(key)
    try:
        if directed:
            return Digraph.of(range(n), pairs)
        return SimpleGraph.of(range(n), pairs)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def load_graph_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def graph_to_json(g):
    """JSON echo of a parsed graph or digraph."""
    if isinstance(g, Digraph):
        return {
            "kind": "digraph",
            "vertices": list(g.vertices),
            "arcs": [list(a) for a in g.arcs],
        }
    return {
        "kind": "graph",
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
    }
