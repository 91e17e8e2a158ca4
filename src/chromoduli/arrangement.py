"""The level-plus-edge hyperplane arrangement of a graph and its bounded chambers.

For a graph G and integer m >= 3 the arrangement consists of the level
functionals z_v - i (v a vertex, i = 0..m-2) and the edge functionals
z_u - z_w.  Bounded chambers are enumerated two independent ways:

* bijectively, from pairs (coloring, acyclic orientation) with an explicit
  interior witness, and
* by incremental sign-vector search with exact-LP feasibility certificates,
  restricted a priori to the open cube (0, m-2)^V, which contains every
  bounded chamber; each chamber found is certified by exact substitution
  of the witness it carries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, EngineConsistencyError
from .graphs import SimpleGraph, topological_order
from .lp import solve_lp
from .orientations import DEFAULT_CANDIDATE_BUDGET, acyclic_orientations

DEFAULT_LP_FUNCTIONAL_BUDGET = 64
_MARGIN_CAP = 1


@dataclass(frozen=True)
class AffineFunctional:
    """Exact affine functional a.z + b with an identifying tag."""

    coefficients: tuple  # ints, aligned with the arrangement vertex order
    constant: int
    tag: tuple  # ("level", v, i) or ("edge", u, w)

    def value(self, z):
        return sum(a * x for a, x in zip(self.coefficients, z) if a) + self.constant

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


def _margin_lp(functionals, signs):
    """Maximize the weighted margin t over the region {sign_i * f_i > 0}.

    The LP runs in u = t + B, with B the largest |constant| among the
    functionals: each row's right-hand side s*b + weight*B is then >= 0
    (every weight is at least 1), so z = 0, u = 0 is feasible at the slack
    basis.  The margin is capped at _MARGIN_CAP so the LP is bounded; any
    answer but an optimum is an engine fault.  Returns a witness with
    positive margin, or None when the sign vector has no strict interior.
    """
    dim = len(functionals[0].coefficients)
    shift = max(abs(f.constant) for f in functionals)
    rows = []
    rhs = []
    for f, s in zip(functionals, signs):
        w = f.weight
        rows.append([-s * a for a in f.coefficients] + [w])
        rhs.append(s * f.constant + w * shift)
    rows.append([0] * dim + [1])
    rhs.append(_MARGIN_CAP + shift)
    objective = [0] * dim + [1]
    sol = solve_lp(rows, rhs, objective)
    if sol.status != "optimal":
        raise EngineConsistencyError(f"margin LP came back {sol.status}, not optimal")
    if sol.x[dim] <= shift:
        return None
    return sol.x[:dim]


def _signs_at(functionals, witness):
    signs = []
    for f in functionals:
        val = f.value(witness)
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
    functionals.  A split keeps the region's witness on the side it already
    lies on and solves a margin LP for the other side.  Each result is
    certified by substituting its witness into every functional: the signs
    must equal the chamber's, cube signs included, so it is also bounded.
    """
    fns = arr.functionals
    if len(fns) > functional_budget:
        raise BudgetExceededError(
            f"{len(fns)} functionals exceed LP search budget {functional_budget}"
        )
    m = arr.m
    fixed = {}
    free_idx = []
    for idx, f in enumerate(fns):
        kind = f.tag[0]
        if kind == "level" and f.tag[2] == 0:
            fixed[idx] = 1
        elif kind == "level" and f.tag[2] == m - 2:
            fixed[idx] = -1
        else:
            free_idx.append(idx)

    center = tuple(Fraction(m - 2, 2) for _ in range(arr.dimension))
    regions = [(fixed, center)]
    for idx in free_idx:
        f = fns[idx]
        next_regions = []
        for signs, witness in regions:
            val = f.value(witness)
            for side in (1, -1):
                trial = dict(signs)
                trial[idx] = side
                if side * val > 0:
                    next_regions.append((trial, witness))
                    continue
                order = sorted(trial)
                res = _margin_lp([fns[i] for i in order], [trial[i] for i in order])
                if res is not None:
                    next_regions.append((trial, res))
        regions = next_regions

    chambers = []
    for signs, witness in regions:
        sign_vec = tuple(signs[i] for i in range(len(fns)))
        if _signs_at(fns, witness) != sign_vec:
            raise EngineConsistencyError("LP witness lies outside its chamber")
        chambers.append(Chamber(sign_vec, witness, True))
    chambers.sort(key=lambda c: c.signs)
    return chambers


def chamber_to_pair(arr: Arrangement, chamber: Chamber):
    """Coloring sigma(v) = ceil(x_v) and orientation u -> w iff x_u > x_w."""
    if not chamber.bounded:
        raise ValueError("chamber must be bounded")
    graph = arr.graph
    x = dict(zip(graph.vertices, chamber.witness))
    sigma = {v: math.ceil(x[v]) for v in graph.vertices}
    arcs = tuple((u, w) if x[u] > x[w] else (w, u) for u, w in graph.edges)
    return sigma, arcs


def pair_to_chamber(arr: Arrangement, sigma, arcs):
    graph = arr.graph
    if not all(sigma[u] >= sigma[w] for u, w in arcs):
        raise ValueError("orientation is not compatible with the coloring")
    witness = _pair_witness(graph, arr.m, sigma, arcs)
    signs = _signs_at(arr.functionals, witness)
    return Chamber(signs, witness, True)
