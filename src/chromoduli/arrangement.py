"""The level-plus-edge hyperplane arrangement of a graph and its bounded chambers.

For a graph G and integer m >= 3 the arrangement consists of the level
functionals z_v - i (v a vertex, i = 0..m-2) and the edge functionals
z_u - z_w.  Each is a difference z_j - z_k + c with z_n = 0, and
`Arrangement.terms` holds it in that one form, as (j, k, c);
`Arrangement.tag` names it.  Bounded chambers are enumerated two
independent ways:

* bijectively, from pairs (coloring, acyclic orientation) with an explicit
  interior witness, colouring first: only the edges inside a colour class
  are free, and a depth-first search over them on vertex bitmasks visits
  each acyclic orientation once, so the work follows the chambers emitted
  (the route shares no enumeration with `orientations`), and
* by depth-first sign-vector search, restricted a priori to the open cube
  (0, m-2)^V, which contains every bounded chamber, splitting on the edge
  functionals before the inner levels.  Each candidate region is a
  system of strict difference constraints over the nodes 0..n, decided by
  the shortest-path closure of `lp.Region`: an empty region is refused
  with a cycle of weight <= 0 as its certificate, and a chamber's witness
  is the closure's potentials over n+1.

Every chamber carries its witness as integer numerators over one
denominator, and is certified by exact substitution of that witness.

The reflection z -> (m-2)*1 - z maps the arrangement onto itself: it sends
the hyperplane z_v = i to z_v = m-2-i and fixes every edge hyperplane.  So
does every automorphism of G, acting by permuting coordinates.
`Arrangement.symmetries` holds the reflection and one map per generator of
Aut(G) (`graphs.automorphism_generators`), each certified once per
arrangement as a signed permutation of the functionals found by exact
lookup.  The LP search uses them to search one orientation per orbit, the
Newton route to draw one weight per orbit of functionals; both carry a
chamber to the rest of its orbit one generator at a time (`_orbit`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import BudgetExceededError, EngineConsistencyError
from .graphs import SimpleGraph, Value, _set, automorphism_generators
from .lp import Region
from .orientations import DEFAULT_CANDIDATE_BUDGET

DEFAULT_LP_FUNCTIONAL_BUDGET = 64


class Arrangement(Value):
    """The functionals of a graph's arrangement at m, as terms (j, k, c):
    f(z) = z[j] - z[k] + c over vertex positions and z[n] = 0, so the level
    z_v - i is (v, n, -i) and the edge z_u - z_w is (u, w, 0).  The levels
    come vertex by vertex, then the edges.  Its `__dict__` holds the cached
    `symmetries`, which take no part in equality."""

    __slots__ = ("graph", "m", "terms", "__dict__")

    def __init__(self, graph, m, terms):
        _set(self, "graph", graph)
        _set(self, "m", m)
        _set(self, "terms", terms)

    @property
    def dimension(self):
        return self.graph.n

    def tag(self, i):
        """Functional i as ("level", v, i) or ("edge", u, w), in vertex labels."""
        j, k, c = self.terms[i]
        vs = self.graph.vertices
        return ("level", vs[j], -c) if k == self.dimension else ("edge", vs[j], vs[k])

    @functools.cached_property
    def symmetries(self):
        """The certified generators of the arrangement's symmetry group (`_symmetries`)."""
        return _symmetries(self)


class Chamber(Value):
    """Sign vector over the arrangement's functional order plus an interior witness nums / d.

    The signs are +1 / -1 per functional, the numerators one int per
    vertex, and d > 0 their common denominator.
    """

    __slots__ = ("signs", "nums", "d")

    def __init__(self, signs, nums, d):
        _set(self, "signs", signs)
        _set(self, "nums", nums)
        _set(self, "d", d)

    @property
    def witness(self):
        """The interior witness, as reduced Fractions."""
        from fractions import Fraction  # here, so that importing the package does not import fractions

        return tuple(Fraction(x, self.d) for x in self.nums)

    @property
    def sign_string(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def to_json(self):
        """JSON fields; every chamber found is bounded."""
        return {
            "signs": self.sign_string,
            "witness": [_reduced(x, self.d) for x in self.nums],
            "bounded": True,
        }


def _reduced(x, d):
    """x / d in lowest terms as "num/den", as a Fraction prints its numerator and denominator."""
    g = math.gcd(x, d)
    return f"{x // g}/{d // g}"


def build_arrangement(graph: SimpleGraph, m: int) -> Arrangement:
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    n = graph.n
    pos = {v: j for j, v in enumerate(graph.vertices)}
    terms = [(j, n, -i) for j in range(n) for i in range(m - 1)]
    terms += [(pos[u], pos[w], 0) for u, w in graph.edges]
    if len(terms) != (m - 1) * n + len(graph.edges):
        raise EngineConsistencyError("arrangement has the wrong number of hyperplanes")
    return Arrangement(graph, m, tuple(terms))


class _Symmetry:
    """An affine symmetry of an arrangement and the signed permutation it induces.

    The point map sends z to y with y[perm[j]] = offset + scale * z[j]:
    a permutation of the coordinates, followed by the reflection
    z -> (m-2)*1 - z when scale = -1 (offset m-2; otherwise offset 0).  Every
    functional pulls back to a functional up to sign, f_i(y) = sign[i] *
    f_{index[i]}(z), so the chamber with signs s goes to the chamber with
    signs s'_i = sign[i] * s_{index[i]}.
    """

    __slots__ = ("perm", "scale", "offset", "index", "sign")

    def __init__(self, perm, scale, offset, index, sign):
        self.perm, self.scale, self.offset, self.index, self.sign = perm, scale, offset, index, sign

    def signs(self, s):
        """The image of the sign vector s (a 0 entry stays 0)."""
        return tuple(map(operator.mul, self.sign, map(s.__getitem__, self.index)))

    def point(self, z, d=1):
        """The image of the point z, or of integer numerators z over d > 0, as numerators over d."""
        y = list(z)
        for x, p in zip(z, self.perm):
            y[p] = x if self.scale > 0 else self.offset * d - x
        return y


def _symmetries(arr):
    """The reflection z -> (m-2)*1 - z, then one symmetry per generator of Aut(G).

    An automorphism acts by permuting coordinates.  Each map is certified
    exactly: every functional f(y) = y[j] - y[k] + b (`Arrangement.terms`)
    pulls back to +-(z[j'] - z[k'] + b'), and (j', k', b') is looked up in
    the arrangement; a functional whose image is not there raises
    EngineConsistencyError.  The reflection sends z_v = i to z_v = m-2-i
    and fixes every edge hyperplane, with sign -1 on every functional.
    The maps generate the group by which the LP search and the Newton
    route divide their work, certified once per arrangement as
    `Arrangement.symmetries`.
    """
    n, c = arr.dimension, arr.m - 2
    terms = arr.terms
    index = {term: i for i, term in enumerate(terms)}
    maps = [(tuple(range(n)), -1)] + [(p, 1) for p in automorphism_generators(arr.graph)]
    symmetries = []
    for perm, scale in maps:
        offset = c if scale < 0 else 0
        inv = [n] * (n + 1)  # z[n] = 0 = y[n] stays put
        for x, p in enumerate(perm):
            inv[p] = x
        # y[p] = offset + scale * z[inv[p]], so f(y) = scale * (z[j'] - z[k'] + b')
        keys = [(inv[j], inv[k], scale * (b + offset) if k == n else scale * b) for j, k, b in terms]
        image = [index.get(key) for key in keys]
        sign = [scale] * len(keys)
        for q, i in enumerate(image):
            if i is None:  # -(z[k'] - z[j'] - b'), or no functional at all
                j, k, b = keys[q]
                image[q], sign[q] = index.get((k, j, -b)), -scale
                if image[q] is None:
                    tag = arr.tag(q)
                    raise EngineConsistencyError(f"the image of {tag} under a symmetry is not in the arrangement")
        symmetries.append(_Symmetry(tuple(perm), scale, offset, tuple(image), tuple(sign)))
    return tuple(symmetries)


def _orbit(symmetries, signs, item, move):
    """The orbit of a sign vector under the group the symmetries generate.

    Returns {image: move(g_k, ... move(g_1, item))} along the first path of
    generators g_1..g_k that reaches each image, breadth-first, so `move`
    meets a parent before its images; `item` belongs to `signs`.  The LP
    search maps chambers, and the Newton route start points, along these paths.
    """
    orbit = {signs: item}
    queue = [(signs, item)]
    for s, x in queue:
        for g in symmetries:
            t = g.signs(s)
            if t not in orbit:
                orbit[t] = y = move(g, x)
                queue.append((t, y))
    return orbit


def _arc(term, side):
    """The half-space side * (z_j - z_k + c) > 0, term = (j, k, c), as the constraint z_b - z_a < w: (a, b, w)."""
    j, k, c = term
    return (j, k, c) if side > 0 else (k, j, -c)


def _signs_at(arr, nums, d):
    """The sign of every functional at the witness nums / d, by exact substitution in integers."""
    z = list(nums) + [0]
    signs = []
    for j, k, c in arr.terms:
        val = z[j] - z[k] + c * d
        if val == 0:
            raise EngineConsistencyError("witness lies on a hyperplane")
        signs.append(1 if val > 0 else -1)
    return tuple(signs)


def _image(arr, symmetry, chamber):
    """The chamber that `symmetry` maps `chamber` to, its witness certified by substitution."""
    nums = tuple(symmetry.point(chamber.nums, chamber.d))
    signs = symmetry.signs(chamber.signs)
    if _signs_at(arr, nums, chamber.d) != signs:
        raise EngineConsistencyError("mapped LP witness lies outside its chamber")
    return Chamber(signs, nums, chamber.d)


def _orientations(n, free):
    """Every acyclic orientation of the edges `free` (vertex positions 0..n-1), depth-first.

    Yields above[v], the bitmask of the positions u with an arc u -> v.
    Each edge in turn is oriented both ways, skipping an arc u -> w when w
    already reaches u; reach[x] is the bitmask of the positions x reaches,
    x included.  One of the two arcs always passes, so no branch dies and
    the search visits at most len(free) nodes per orientation.  The last
    edge's children are yielded at once, with no reachability of their own.
    """
    last = len(free) - 1
    if last < 0:
        yield [0] * n
        return
    stack = [(0, [1 << v for v in range(n)], [0] * n)]
    while stack:
        i, reach, above = stack.pop()
        a, b = free[i]
        for u, w in ((a, b), (b, a)):
            if not reach[w] >> u & 1:
                child = above[:]
                child[w] |= 1 << u
                if i == last:
                    yield child
                else:
                    gain = reach[w]
                    stack.append((i + 1, [r | gain if r >> u & 1 else r for r in reach], child))


def _place_class(nums, group, above, base, step):
    """Write the witness numerators of one colour class of positions `group`, ascending.

    The class's order is Kahn's rule on bitmasks: the lowest position whose
    in-class predecessors (`above`) are all placed goes next.  The vertex at
    place p (from 0) of t gets base + (t - p) * step, so every arc u -> w
    of the class has x_u > x_w.
    """
    rest = 0
    for v in group:
        rest |= 1 << v
    for rank in range(len(group), 0, -1):
        for v in group:
            if rest >> v & 1 and not above[v] & rest:
                break
        else:
            raise EngineConsistencyError("orientation restricted to a color class has a cycle")
        rest ^= 1 << v
        nums[v] = base + rank * step


def bounded_chambers_bijective(arr: Arrangement, candidate_budget=DEFAULT_CANDIDATE_BUDGET):
    """One chamber of `arr` per compatible (coloring, acyclic orientation) pair of its graph.

    Colouring first (Stanley, Discrete Math. 5, 1973): a compatible
    orientation sends every edge between two colour classes from the
    higher colour to the lower, so only the edges inside a class are free,
    and their acyclic orientations (`_orientations`) complete the pairs.
    The witness puts a class of colour c and t vertices in (c-1, c), at the
    offsets (t - p)/(t+1) over its order p = 0..t-1 (`_place_class`); vertex
    positions follow the sorted labels, and d = lcm(2..n+1) is a
    common denominator.  Every witness is certified by substitution
    (`_signs_at`), and two pairs that give one chamber raise
    EngineConsistencyError.

    The budget caps the colourings visited plus the chambers emitted,
    counted as the enumeration runs; past it, BudgetExceededError.
    """
    n, k = arr.dimension, arr.m - 2
    if k**n > candidate_budget:
        raise BudgetExceededError(f"{k}^{n} colorings exceed budget {candidate_budget}")
    pos = {v: j for j, v in enumerate(arr.graph.vertices)}
    edges = [(pos[u], pos[w]) for u, w in arr.graph.edges]
    d = math.lcm(*range(2, n + 2))
    steps = [d // (t + 1) for t in range(n + 1)]
    nums = [0] * n  # every class rewrites its vertices for each chamber
    used = 0
    chambers = []
    seen = set()
    for colors in itertools.product(range(k), repeat=n):  # colour c, from 0, fills (c, c+1)
        used += 1
        groups = [[] for _ in range(k)]
        for v, c in enumerate(colors):
            groups[c].append(v)
        free = [(a, b) for a, b in edges if colors[a] == colors[b]]
        for above in _orientations(n, free):
            for c, group in enumerate(groups):
                _place_class(nums, group, above, c * d, steps[len(group)])
            used += 1
            if used > candidate_budget:
                raise BudgetExceededError(f"colorings plus chambers exceed budget {candidate_budget}")
            witness = tuple(nums)
            signs = _signs_at(arr, witness, d)
            if signs in seen:
                raise EngineConsistencyError("distinct pairs produced the same chamber")
            seen.add(signs)
            chambers.append(Chamber(signs, witness, d))
    chambers.sort(key=lambda c: c.signs)
    return chambers


def _regions(region, terms, first, skip):
    """Every nonempty region that signs all of `terms`, as (signs, region).

    Depth-first, the + side first, each side adding its arc (`_arc`) to the
    parent's closure; the first term is split only on the sides in `first`,
    and a full sign tuple in `skip`, read as the walk goes, is passed over
    before its arc is added.
    """
    stack = [((), region, None)]  # (signs so far, the parent region, the arc the last sign adds)
    while stack:
        signs, region, arc = stack.pop()
        done = len(signs) == len(terms)
        if done and signs in skip:
            continue
        if arc is not None:
            region = region.with_arc(*arc)
            if region is None:
                continue
        if done:
            yield signs, region
            continue
        for side in first if not signs else (-1, 1):  # the + side is pushed last, so searched first
            stack.append((signs + (side,), region, _arc(terms[len(signs)], side)))


def bounded_chambers_lp(arr: Arrangement, functional_budget=DEFAULT_LP_FUNCTIONAL_BUDGET):
    """All bounded chambers by incremental sign-vector search over difference constraints.

    Every bounded chamber satisfies 0 < z_v < m-2 coordinatewise, so the
    search fixes those signs up front and only splits on the remaining
    functionals, depth-first: the edge functionals (k < n) first, then the
    inner levels.  Each side of a split adds one strict difference constraint to
    the region's shortest-path closure (`lp.Region.with_arc`), in O((n+1)^2)
    when the region stays nonempty; an empty one is refused with a cycle of
    weight <= 0 as its certificate.  A full sign vector's witness is the
    closure's potentials from z_n = 0, over n+1, so every functional is at
    least 1/(n+1) from 0 there.  Each result is certified by substituting
    its witness into every functional: the signs must equal the chamber's,
    cube signs included, so it is also bounded.

    The search divides by the group that `Arrangement.symmetries`
    generates: the reflection and the automorphisms of G.  When the graph
    has an edge, the first split is an edge functional, which the
    reflection maps to minus itself, so it separates every chamber from its
    mirror image: only its + side is searched.  A full edge-sign pattern
    (an orientation; the empty one at the root of an edgeless graph, whose
    orbit is itself) has its level subtree searched only if it is not in
    the orbit of an orientation searched before, and is skipped before its
    constraint is added.  Once an orientation's levels are searched, its
    chambers are mapped at once to every other orientation of its orbit,
    on either side of the first split, each by the generator that reaches
    it on `_orbit`'s first path; every mapped chamber is certified by
    substitution like the others, and a final check refuses any sign
    vector found twice.  On K5 at m=4 the search decides 284 regions beyond
    the cube and refuses 107 of them.
    """
    terms = arr.terms
    if len(terms) > functional_budget:
        raise BudgetExceededError(
            f"{len(terms)} functionals exceed LP search budget {functional_budget}"
        )
    n, m = arr.dimension, arr.m
    cube = Region.empty(n + 1)
    base = [0] * len(terms)  # the cube's signs
    edges, levels = [], []  # the functionals split on: the edges (k < n), then the inner levels
    for i, (_, k, c) in enumerate(terms):
        if k < n:
            edges.append(i)
        elif c in (0, 2 - m):  # the levels z_v - 0 and z_v - (m-2)
            base[i] = 1 if c == 0 else -1
            cube = cube.with_arc(*_arc(terms[i], base[i]))
        else:
            levels.append(i)
    if edges and arr.symmetries[0].index[edges[0]] != edges[0]:
        raise EngineConsistencyError("the first split of the LP search is not its own mirror")

    chambers = []
    mapped = set()  # the orientations of every orbit searched so far
    for orientation, region in _regions(cube, [terms[i] for i in edges], (1,), mapped):
        at = dict(zip(edges, orientation))  # the signs split on: this orientation's, then a leaf's levels
        pattern = tuple(at.get(i, 0) for i in range(len(terms)))
        own = []
        for sides, leaf in _regions(region, [terms[i] for i in levels], (-1, 1), ()):
            at.update(zip(levels, sides))
            signs = tuple(at.get(i, side) for i, side in enumerate(base))
            nums = tuple(leaf.dist[n][:n])
            if _signs_at(arr, nums, n + 1) != signs:
                raise EngineConsistencyError("LP witness lies outside its chamber")
            own.append(Chamber(signs, nums, n + 1))
        orbit = _orbit(arr.symmetries, pattern, own, lambda g, cs: [_image(arr, g, c) for c in cs])
        mapped.update(tuple(image[i] for i in edges) for image in orbit)
        for images in orbit.values():
            chambers += images
    if len({c.signs for c in chambers}) != len(chambers):
        raise EngineConsistencyError("LP search found a chamber twice")
    chambers.sort(key=lambda c: c.signs)
    return chambers
