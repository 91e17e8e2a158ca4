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
the hyperplane z_v = i to z_v = m-2-i and fixes every edge hyperplane.
`_mirror` returns that permutation of the functionals, found by exact
lookup; the LP search uses it to search one side of its first edge split
only, and the Newton route to pair its weights and start points.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, EngineConsistencyError
from .graphs import SimpleGraph, topological_order
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


def _mirror(arr):
    """The index of f' for each functional f = a.z + b, where f' = a.z - (m-2)*sum(a) - b.

    f((m-2)*1 - z) = -f'(z), so the reflection z -> (m-2)*1 - z sends the
    chamber with signs s to the one with signs s'_i = -s_{mirror(i)}.  f'
    is looked up exactly on (coefficients, constant); a functional without
    its f' in the arrangement raises EngineConsistencyError.
    """
    c = arr.m - 2
    index = {(f.coefficients, f.constant): i for i, f in enumerate(arr.functionals)}
    mirror = []
    for f in arr.functionals:
        j = index.get((f.coefficients, -c * sum(f.coefficients) - f.constant))
        if j is None:
            raise EngineConsistencyError(f"the reflection of {f.tag} is not in the arrangement")
        mirror.append(j)
    return tuple(mirror)


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


def _signs_at(functionals, witness):
    """The sign of every functional at the witness, by exact substitution over its common denominator."""
    d = math.lcm(*(x.denominator for x in witness))
    z = [x.numerator * (d // x.denominator) for x in witness]
    signs = []
    for f in functionals:
        val = f.value(z, d)
        if val == 0:
            raise EngineConsistencyError("witness lies on a hyperplane")
        signs.append(1 if val > 0 else -1)
    return tuple(signs)


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
            signs = _signs_at(arr.functionals, witness)
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

    When the graph has an edge, the first split is an edge functional, its
    own mirror (`_mirror`), so it separates every chamber from its mirror
    image: only its + side is searched, and each chamber found there adds
    its mirror, with signs s'_i = -s_{mirror(i)} and witness (m-2) - x,
    certified by substitution like the others.  A final check refuses any
    sign vector found twice.  On K5 at m=4 the search solves 1,159 warm
    LPs (2,321 searching both sides; 2,960 splitting on levels first).
    """
    fns = arr.functionals
    if len(fns) > functional_budget:
        raise BudgetExceededError(
            f"{len(fns)} functionals exceed LP search budget {functional_budget}"
        )
    shift = arr.m - 2
    fixed, free_idx, root = _cube(arr)
    center = ([shift] * arr.dimension, 2)
    mirrored = bool(free_idx) and fns[free_idx[0]].tag[0] == "edge"
    if mirrored:
        mirror = _mirror(arr)
        if mirror[free_idx[0]] != free_idx[0]:
            raise EngineConsistencyError("the first split of the LP search is not its own mirror")

    chambers = []
    # (free signs so far, witness (numerators, denominator) or None while
    # unsolved, nearest solved tableau, rows added since)
    stack = [((), center, root, ())]
    while stack:
        sides, point, solved, pending = stack.pop()
        if point is None:
            res = _solve_region(solved, pending, shift)
            if res is None:
                continue
            (solved, point), pending = res, ()
        if len(sides) == len(free_idx):
            signs = dict(fixed)
            signs.update(zip(free_idx, sides))
            sign_vec = tuple(signs[i] for i in range(len(fns)))
            witness = tuple(Fraction(v, point[1]) for v in point[0])
            if _signs_at(fns, witness) != sign_vec:
                raise EngineConsistencyError("LP witness lies outside its chamber")
            chambers.append(Chamber(sign_vec, witness, True))
            continue
        f = fns[free_idx[len(sides)]]
        val = f.value(*point)
        # the + side is pushed last, so searched first
        for side in (1,) if mirrored and not sides else (-1, 1):
            row = _margin_row(f, side, shift)
            kept = point if side * val > 0 else None
            stack.append((sides + (side,), kept, solved, pending + (row,)))

    if mirrored:
        for chamber in chambers[:]:
            sign_vec = tuple(-chamber.signs[j] for j in mirror)
            witness = tuple(shift - x for x in chamber.witness)
            if _signs_at(fns, witness) != sign_vec:
                raise EngineConsistencyError("mirrored LP witness lies outside its chamber")
            chambers.append(Chamber(sign_vec, witness, True))
    if len({c.signs for c in chambers}) != len(chambers):
        raise EngineConsistencyError("LP search found a chamber twice")
    chambers.sort(key=lambda c: c.signs)
    return chambers
