"""The level-plus-edge hyperplane arrangement of a graph and its bounded chambers.

For a graph G and integer m >= 3 the arrangement consists of the level
functionals z_v - i (v a vertex, i = 0..m-2) and the edge functionals
z_u - z_w.  Bounded chambers are enumerated two independent ways:

* bijectively, from pairs (coloring, acyclic orientation) with an explicit
  interior witness, and
* by depth-first sign-vector search, restricted a priori to the open cube
  (0, m-2)^V, which contains every bounded chamber, splitting on the edge
  functionals before the inner levels.  Each candidate region
  solves a margin LP, warm-started from the tableau of its nearest solved
  ancestor and re-optimized by the dual simplex, and its optimum is
  certified by an exact dual; each chamber found is certified by exact
  substitution of the witness it carries.

The reflection z -> (m-2)*1 - z maps the arrangement onto itself: it sends
the hyperplane z_v = i to z_v = m-2-i and fixes every edge hyperplane.  So
does every automorphism of G, acting by permuting coordinates.
`Arrangement.symmetries` holds the reflection and one map per generator of
Aut(G) (`graphs.automorphism_generators`), each certified once per
arrangement as a signed permutation of the functionals found by exact
lookup.  The LP search uses them to search one orientation per orbit and
map the rest; the Newton route, to draw one weight per orbit of
functionals and to start each chamber at the image of a critical point of
its orbit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, EngineConsistencyError
from .graphs import SimpleGraph, automorphism_generators, topological_order
from .lp import Tableau
from .orientations import DEFAULT_CANDIDATE_BUDGET, acyclic_orientations

DEFAULT_LP_FUNCTIONAL_BUDGET = 64
_MARGIN_CAP = 1


@dataclass(frozen=True)
class AffineFunctional:
    """Exact affine functional a.z + b with an identifying tag."""

    coefficients: tuple  # ints, aligned with the arrangement vertex order
    constant: int
    tag: tuple  # ("level", v, i) or ("edge", u, w)

    def value(self, z, d=1):
        """d * f(z / d): the value at z, or its d-fold from integer numerators z over d > 0."""
        return sum(map(operator.mul, self.coefficients, z)) + self.constant * d

    @property
    def weight(self):
        """L1 norm of the coefficient vector; scales LP margins."""
        return sum(abs(a) for a in self.coefficients)


@dataclass(frozen=True)
class Arrangement:
    graph: SimpleGraph
    m: int
    functionals: tuple

    @property
    def dimension(self):
        return self.graph.n

    @functools.cached_property
    def sparse(self):
        """One (j, k, constant) per functional, so that f(z) = z[j] - z[k] + constant.

        The point z carries one extra coordinate z[n] = 0: a level functional
        z_v - i is (v, n, -i) and an edge functional z_u - z_w is (u, w, 0).
        """
        n = self.dimension
        terms = []
        for f in self.functionals:
            a = f.coefficients
            terms.append((a.index(1), a.index(-1) if -1 in a else n, f.constant))
        return tuple(terms)

    @functools.cached_property
    def symmetries(self):
        """The certified generators of the arrangement's symmetry group (`_symmetries`)."""
        return _symmetries(self)


@dataclass(frozen=True)
class Chamber:
    """Sign vector over the arrangement's functional order plus an interior witness."""

    signs: tuple  # +1 / -1 per functional
    witness: tuple  # exact rationals
    bounded: bool

    @property
    def sign_string(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def to_json(self):
        return {
            "signs": self.sign_string,
            "witness": [f"{x.numerator}/{x.denominator}" for x in self.witness],
            "bounded": self.bounded,
        }


def build_arrangement(graph: SimpleGraph, m: int) -> Arrangement:
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    vs = graph.vertices
    pos = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    fns = []
    for v in vs:
        for i in range(m - 1):
            coeffs = tuple(1 if j == pos[v] else 0 for j in range(n))
            fns.append(AffineFunctional(coeffs, -i, ("level", v, i)))
    for u, w in graph.edges:
        coeffs = tuple(1 if j == pos[u] else -1 if j == pos[w] else 0 for j in range(n))
        fns.append(AffineFunctional(coeffs, 0, ("edge", u, w)))
    if len(fns) != (m - 1) * n + len(graph.edges):
        raise EngineConsistencyError("arrangement has the wrong number of hyperplanes")
    return Arrangement(graph, m, tuple(fns))


class _Symmetry:
    """An affine symmetry of an arrangement and the signed permutation it induces.

    The point map sends z to y with y[perm[j]] = offset + scale * z[j]:
    a permutation of the coordinates, followed by the reflection
    z -> (m-2)*1 - z when scale = -1 (offset m-2; otherwise offset 0).  Every
    functional pulls back to a functional up to sign, f_i(y) = sign[i] *
    f_{index[i]}(z), so the chamber with signs s goes to the chamber with
    signs s'_i = sign[i] * s_{index[i]}.  A plain class, not a dataclass,
    so that importing the module builds no code for it.
    """

    __slots__ = ("perm", "scale", "offset", "index", "sign")

    def __init__(self, perm, scale, offset, index, sign):
        self.perm, self.scale, self.offset, self.index, self.sign = perm, scale, offset, index, sign

    def signs(self, s):
        """The image of the sign vector s (a 0 entry stays 0)."""
        return tuple(map(operator.mul, self.sign, map(s.__getitem__, self.index)))

    def point(self, z):
        y = list(z)
        for x, p in zip(z, self.perm):
            y[p] = x if self.scale > 0 else self.offset - x
        return y

    def after(self, other):
        """The composition self o other: `other` maps first."""
        return _Symmetry(
            tuple(map(self.perm.__getitem__, other.perm)),
            self.scale * other.scale,
            self.scale * other.offset + self.offset,
            tuple(map(other.index.__getitem__, self.index)),
            tuple(map(operator.mul, self.sign, map(other.sign.__getitem__, self.index))),
        )


def _symmetries(arr):
    """The reflection z -> (m-2)*1 - z, then one symmetry per generator of Aut(G).

    An automorphism acts by permuting coordinates.  Each map is certified
    exactly: every functional f(y) = y[j] - y[k] + b (`Arrangement.sparse`)
    pulls back to +-(z[j'] - z[k'] + b'), and (j', k', b') is looked up in
    the arrangement; a functional whose image is not there raises
    EngineConsistencyError.  The reflection sends z_v = i to z_v = m-2-i
    and fixes every edge hyperplane, with sign -1 on every functional.
    Closed under composition, the maps form the group by which the LP
    search and the Newton route divide their work, certified once per
    arrangement as `Arrangement.symmetries`.
    """
    n, c = arr.dimension, arr.m - 2
    sparse = arr.sparse
    index = {term: i for i, term in enumerate(sparse)}
    maps = [(tuple(range(n)), -1)] + [(p, 1) for p in automorphism_generators(arr.graph)]
    symmetries = []
    for perm, scale in maps:
        offset = c if scale < 0 else 0
        inv = [n] * (n + 1)  # z[n] = 0 = y[n] stays put
        for x, p in enumerate(perm):
            inv[p] = x
        # y[p] = offset + scale * z[inv[p]], so f(y) = scale * (z[j'] - z[k'] + b')
        keys = [(inv[j], inv[k], scale * (b + offset) if k == n else scale * b) for j, k, b in sparse]
        image = [index.get(key) for key in keys]
        sign = [scale] * len(keys)
        for q, i in enumerate(image):
            if i is None:  # -(z[k'] - z[j'] - b'), or no functional at all
                j, k, b = keys[q]
                image[q], sign[q] = index.get((k, j, -b)), -scale
                if image[q] is None:
                    tag = arr.functionals[q].tag
                    raise EngineConsistencyError(f"the image of {tag} under a symmetry is not in the arrangement")
        symmetries.append(_Symmetry(tuple(perm), scale, offset, tuple(image), tuple(sign)))
    return tuple(symmetries)


def _orbit(symmetries, signs, item, move):
    """The orbit of a sign vector under the group the symmetries generate.

    Returns {image: move(g_k, ... move(g_1, item))} along the first path of
    generators g_1..g_k that reaches each image; `item` belongs to `signs`.
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


def _margin_row(f, side, shift):
    """The margin-LP row of the half-space side * f > 0, in the variables (z, u).

    The region's weighted margin t satisfies side * f(z) >= weight * t; in
    u = t + shift this reads  -side*a.z + weight*u <= side*b + weight*shift,
    whose right-hand side is >= 0 once shift >= |b| (every weight is >= 1).
    """
    w = f.weight
    return [-side * a for a in f.coefficients] + [w], side * f.constant + w * shift


def _cube(arr):
    """The root of the LP search: the open cube (0, m-2)^V.

    Returns the fixed cube signs (functional index -> sign), the indices of
    the free functionals in split order, edges first and then levels, each
    in arrangement order, and the solved margin tableau of the cube: its
    rows are the cube's and the cap u <= _MARGIN_CAP + shift, which keeps
    every margin LP bounded.  shift = m-2 is the largest |constant| of any
    functional, so the cube's LP starts feasible at the slack basis and is
    solved by the primal simplex; it is the one LP built from scratch.
    """
    m, dim = arr.m, arr.dimension
    fixed = {}
    free_idx = []
    for idx, f in enumerate(arr.functionals):
        kind = f.tag[0]
        if kind == "level" and f.tag[2] == 0:
            fixed[idx] = 1
        elif kind == "level" and f.tag[2] == m - 2:
            fixed[idx] = -1
        else:
            free_idx.append(idx)
    free_idx.sort(key=lambda i: arr.functionals[i].tag[0] != "edge")
    shift = m - 2
    rows = [_margin_row(arr.functionals[i], s, shift) for i, s in fixed.items()]
    rows.append(([0] * dim + [1], _MARGIN_CAP + shift))
    root = Tableau([a for a, _ in rows], [bi for _, bi in rows], [0] * dim + [1])
    if root.primal() is not None:
        raise EngineConsistencyError("margin LP of the cube came back unbounded")
    root.optimum()  # certified like every warm optimum
    return fixed, free_idx, root


def _solve_region(solved, rows, shift):
    """Warm-start the margin LP of a region: a solved ancestor's tableau plus `rows`.

    The appended rows leave the ancestor's optimal basis dual-feasible, so
    the dual simplex re-optimizes; the optimum is certified on the region's
    full row set.  Returns the region's tableau and its witness with
    positive margin, as integer numerators over the tableau's denominator
    D, or None when the region has no strict interior (margin <= 0).
    """
    tab = solved.with_rows(rows)
    tab.dual()
    x, _ = tab.optimum()
    if x[-1] <= shift * tab.D:
        return None
    return tab, (x[:-1], tab.D)


def _signs_at(arr, witness):
    """The sign of every functional at the witness, by exact substitution over its common denominator."""
    d = math.lcm(*(x.denominator for x in witness))
    z = [x.numerator * (d // x.denominator) for x in witness] + [0]
    signs = []
    for j, k, c in arr.sparse:
        val = z[j] - z[k] + c * d
        if val == 0:
            raise EngineConsistencyError("witness lies on a hyperplane")
        signs.append(1 if val > 0 else -1)
    return tuple(signs)


def _image(arr, symmetry, chamber):
    """The chamber that `symmetry` maps `chamber` to, its witness certified by substitution."""
    witness = tuple(symmetry.point(chamber.witness))
    signs = symmetry.signs(chamber.signs)
    if _signs_at(arr, witness) != signs:
        raise EngineConsistencyError("mapped LP witness lies outside its chamber")
    return Chamber(signs, witness, True)


def _pair_witness(graph: SimpleGraph, m, sigma, arcs):
    """Interior point for the chamber of a compatible (coloring, orientation) pair.

    Vertices of color c live in (c-1, c), at equally spaced offsets k/(t+1);
    within a color class, an arc u -> w forces x_u > x_w.
    """
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
            witness[v] = Fraction(color - 1) + Fraction(t - position, t + 1)
    return tuple(witness[v] for v in graph.vertices)


def bounded_chambers_bijective(arr: Arrangement, candidate_budget=DEFAULT_CANDIDATE_BUDGET):
    """One chamber of `arr` per compatible (coloring, acyclic orientation) pair of its graph."""
    graph, m = arr.graph, arr.m
    k = m - 2
    cost = (k ** graph.n) * (2 ** len(graph.edges))
    if cost > candidate_budget:
        raise BudgetExceededError(f"{cost} pair candidates exceed budget {candidate_budget}")
    chambers = []
    seen = set()
    for arcs in acyclic_orientations(graph, candidate_budget):
        for colors in itertools.product(range(1, k + 1), repeat=graph.n):
            sigma = dict(zip(graph.vertices, colors))
            if not all(sigma[u] >= sigma[w] for u, w in arcs):
                continue
            witness = _pair_witness(graph, m, sigma, arcs)
            signs = _signs_at(arr, witness)
            if signs in seen:
                raise EngineConsistencyError("distinct pairs produced the same chamber")
            seen.add(signs)
            chambers.append(Chamber(signs, witness, True))
    chambers.sort(key=lambda c: c.signs)
    return chambers


def bounded_chambers_lp(arr: Arrangement, functional_budget=DEFAULT_LP_FUNCTIONAL_BUDGET):
    """All bounded chambers by incremental sign-vector search with exact LPs.

    Every bounded chamber satisfies 0 < z_v < m-2 coordinatewise, so the
    search fixes those signs up front and only splits on the remaining
    functionals, depth-first: the edge functionals first, then the inner
    levels.  A split keeps the region's witness on the side it already
    lies on; the other side is a region whose margin LP is warm-started
    from the tableau of its nearest solved ancestor, with the rows added
    since appended, and re-optimized by the dual simplex.  Only the
    tableaux of the current search path are alive.  Each result is
    certified by substituting its witness into every functional: the signs
    must equal the chamber's, cube signs included, so it is also bounded.

    When the graph has an edge, the search divides by the group that
    `Arrangement.symmetries` generates: the reflection and the
    automorphisms of G.  The first split is an edge functional, which the
    reflection maps to minus itself, so it separates every chamber from its
    mirror image: only its + side is searched.  A full edge-sign pattern
    (an orientation) reached there has its level subtree searched only if
    it is not the image of an orientation searched before; when it is
    searched, every other orientation of its orbit, on either side of the
    first split, is registered with the symmetry that maps it there, and is
    skipped without an LP.  A registered orientation's chambers are the
    images of its representative's under that symmetry; every mapped
    chamber is certified by substitution like the others, and a final check
    refuses any sign vector found twice.  On K5 at m=4 the search solves
    192 warm LPs (1,159 with the reflection alone, 2,321 without symmetry).
    """
    fns = arr.functionals
    if len(fns) > functional_budget:
        raise BudgetExceededError(
            f"{len(fns)} functionals exceed LP search budget {functional_budget}"
        )
    shift = arr.m - 2
    fixed, free_idx, root = _cube(arr)
    split = [arr.sparse[i] for i in free_idx]
    edges = [i for i in free_idx if fns[i].tag[0] == "edge"]
    if edges and arr.symmetries[0].index[edges[0]] != edges[0]:
        raise EngineConsistencyError("the first split of the LP search is not its own mirror")

    chambers = []
    found = {}  # searched orientation -> its chambers
    mapped = {}  # orientation -> (searched orientation, symmetry onto it)
    # (free signs so far, witness (numerators padded by z[n] = 0, denominator)
    # or None while unsolved, nearest solved tableau, rows added since)
    stack = [((), ([shift] * arr.dimension + [0], 2), root, ())]
    while stack:
        sides, point, solved, pending = stack.pop()
        at_orientation = len(sides) == len(edges) > 0
        if at_orientation and sides in mapped:
            continue
        if point is None:
            res = _solve_region(solved, pending, shift)
            if res is None:
                continue
            solved, (z, d) = res
            point, pending = (z + [0], d), ()
        if at_orientation:
            found[sides] = []
            pattern = [0] * len(fns)
            for i, side in zip(edges, sides):
                pattern[i] = side
            # each image with the symmetry onto it; the orientation itself has None
            orbit = _orbit(arr.symmetries, tuple(pattern), None, lambda g, h: g if h is None else g.after(h))
            for image, symmetry in orbit.items():
                if symmetry is not None:
                    mapped[tuple(image[i] for i in edges)] = (sides, symmetry)
        if len(sides) == len(free_idx):
            signs = dict(fixed)
            signs.update(zip(free_idx, sides))
            sign_vec = tuple(signs[i] for i in range(len(fns)))
            witness = tuple(Fraction(v, point[1]) for v in point[0][:-1])
            if _signs_at(arr, witness) != sign_vec:
                raise EngineConsistencyError("LP witness lies outside its chamber")
            chamber = Chamber(sign_vec, witness, True)
            chambers.append(chamber)
            if edges:
                found[sides[: len(edges)]].append(chamber)
            continue
        j, k, c = split[len(sides)]
        z, d = point
        val = z[j] - z[k] + c * d
        # the + side is pushed last, so searched first
        for side in (1,) if edges and not sides else (-1, 1):
            row = _margin_row(fns[free_idx[len(sides)]], side, shift)
            kept = point if side * val > 0 else None
            stack.append((sides + (side,), kept, solved, pending + (row,)))

    for rep, symmetry in mapped.values():
        chambers += [_image(arr, symmetry, chamber) for chamber in found[rep]]
    if len({c.signs for c in chambers}) != len(chambers):
        raise EngineConsistencyError("LP search found a chamber twice")
    chambers.sort(key=lambda c: c.signs)
    return chambers
