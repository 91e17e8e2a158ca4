"""Exact genus-zero intersection calculus on boundary strata of marked-curve spaces.

A stratum is a stable tree of genus-zero components with distinct marking
labels attached; every node carries at least three flags (markings plus edge
germs).  Cutting a tree edge splits the marking set in two, and the stratum
is uniquely encoded by the laminar family of these splits, stored here as
bitmasks normalized to exclude a fixed anchor label.  A class is a formal
integer combination of strata, optionally decorated with cotangent-class
exponents at flags, held as a dict from (splits, decorations) to nonzero
integer coefficients.

The engine folds pulled-back cotangent classes into a starting class,
keeping every cotangent class symbolic:

* multiplying by the pullback of the cotangent class at i from the space
  marked by a subset S uses  pi^* psi_i = psi_i - sum_{T} D_{{i} u T},  the
  sum over nonempty sets T of markings outside S (zero when |S| = 3).  The
  psi_i term raises the exponent at the flag of marking i; each divisor
  either refines a node (adds a compatible split), self-intersects (an
  existing split acquires minus-cotangent decorations at the two germs of its
  edge), or vanishes (crossing split);
* a term is dropped as soon as some node carries a total exponent above its
  valence minus three, the dimension of that node's factor.  Refinement
  splits a node into two of smaller total dimension and self-intersection
  only raises exponents, so such a term never revives;
* at the end every term has top degree (edges plus exponents equal n - 3),
  so every node is exact, and a node with k flags and exponents a_f
  contributes the genus-zero multinomial (k-3)! / prod a_f!.  A term's value
  is its coefficient times the product over its nodes.

Coefficients stay integers throughout; each multinomial is an exact integer
quotient.  Every fold starts from the fundamental class: `kapranov_degree`
is one fold, and `omega` and `omega_coefficients` fold one local integral
per distinct block.

`omega` splits its integral at the point class instead of folding once over
the whole space.  The point class pulled back from the m extra markings is
the sum of caterpillar strata, one per map sigma from the vertices to the
caterpillar's m - 2 nodes; node t is a copy of the space marked by three
special flags s1, s2, s3 and the vertices sigma^-1(t).  On such a stratum
the factor of vertex v restricts to its node as the pullback of psi_v from
the space marked by {s1, s2, s3} and the vertices of N(v) at that node, N
the closed (or in-, or out-) neighborhood.  Hence

    omega(G, m) = sum over sigma of prod over t of K(sigma^-1(t))
                = sum over set partitions pi of V with |pi| <= m - 2
                  of (m-2)(m-3)...(m-1-|pi|) * prod over B in pi of K(B)
                = sum over j of c_j (m-2)(m-3)...(m-1-j),

    c_j = sum over set partitions pi of V into j blocks of prod K(B),

where the local integral K(B) is the fold of the constraints
({s1, s2, s3} u (N(v) n B), v), v in B, into the fundamental class of the
space marked by {s1, s2, s3} u B, and K(empty) = 1.  A vertex v of B whose
neighborhood meets B only in v, and which lies in no other member's
neighborhood, can be dropped: K(B) = K(B - v).  Its factor is then the
pulled-back point class of the four-marked space {s1, s2, s3, v}; splitting
there puts every other vertex on the side of s1 and s2, since a vertex on
v's side carries classes pulled back from a space of one dimension less.
After stripping such vertices, K is memoized on the block's relabelled
local neighborhoods, so each distinct local integral is folded once per
call.

No K and so no c_j depends on m, and the falling factorial vanishes for
j > m - 2: omega is a polynomial in m of degree |V|, with leading
coefficient c_|V| = prod over v of K({v}) = K(empty)^|V| = 1, since the
vertex of a singleton block is always dropped.
`omega_coefficients` returns the whole table c_0..c_|V|; `omega` computes
it up to j = min(m - 2, |V|) only and sums it at m.  The pulled-back point
class itself is never built here; the tests' reference
(`tests/boundary_reference.py`) builds it to fold over the whole space.
"""

from __future__ import annotations

import itertools
import math

from .errors import BudgetExceededError, EngineConsistencyError
from .graphs import Digraph, SimpleGraph, label_sort_key

DEFAULT_TERM_CAP = 10_000_000


class _Ctx:
    """Fixed marking set with its label-to-bit encoding."""

    __slots__ = ("labels", "bit", "n", "full", "anchor")

    def __init__(self, marking_set):
        self.labels = tuple(sorted(set(marking_set), key=label_sort_key))
        if len(self.labels) < 3:
            raise ValueError("marking set needs at least three labels")
        self.bit = {lab: i for i, lab in enumerate(self.labels)}
        self.n = len(self.labels)
        self.full = (1 << self.n) - 1
        self.anchor = 1 << (self.n - 1)

    def mask(self, labels):
        m = 0
        for lab in labels:
            if lab not in self.bit:
                raise ValueError(f"{lab!r} is not in the marking set")
            m |= 1 << self.bit[lab]
        return m

    def norm(self, m):
        """The side of the bipartition not containing the anchor label."""
        return m if not (m & self.anchor) else self.full ^ m


def _compatible(a, b):
    return (a & b) == 0 or (a | b) == a or (a | b) == b


def _accum(terms, key, coeff):
    val = terms.get(key, 0) + coeff
    if val:
        terms[key] = val
    elif key in terms:
        del terms[key]


def _decor_bump(decor, flag, delta):
    d = dict(decor)
    d[flag] = d.get(flag, 0) + delta
    if d[flag] == 0:
        del d[flag]
    return tuple(sorted(d.items()))


def _mul_term(splits, decor, q):
    """Product of one decorated stratum with the divisor of split q."""
    if q in splits:
        return (
            (splits, _decor_bump(decor, (1, q, 0), 1), -1),
            (splits, _decor_bump(decor, (1, q, 1), 1), -1),
        )
    for t in splits:
        if not _compatible(q, t):
            return ()
    return ((tuple(sorted(splits + (q,))), decor, 1),)


def _node_of(ctx, splits, flag):
    """The node holding a flag.

    Node ids are the split masks, and ctx.full for the root.  Flags are
    (0, bit) for markings, (1, mask, 0) for the germ at the node on the mask
    side of that edge and (1, mask, 1) for the germ at its parent.
    """
    if flag[0] == 1 and flag[2] == 0:
        return flag[1]
    inner = 1 << flag[1] if flag[0] == 0 else flag[1]
    # The splits strictly containing `inner` form a chain, whose smallest set
    # is also its smallest mask.
    return min((t for t in splits if t & inner == inner and t != inner), default=ctx.full)


def _valence(ctx, splits, node):
    """Number of flags at a node: its own markings, child germs and parent germ."""
    covered = 0
    kids = 0
    for t in reversed(splits):  # splits ascend, so a set comes before its subsets
        if t != node and t & node == t and not t & covered:
            covered |= t
            kids += 1
    return (node & ~covered).bit_count() + kids + (node != ctx.full)


def _node_exponents(ctx, splits, decor):
    """Cotangent exponents grouped by the node carrying their flag."""
    loads = {}
    for flag, exp in decor:
        loads.setdefault(_node_of(ctx, splits, flag), []).append(exp)
    return loads


def _alive(ctx, splits, decor):
    """False when some node's exponents exceed the dimension of its factor."""
    for node, exps in _node_exponents(ctx, splits, decor).items():
        if sum(exps) > _valence(ctx, splits, node) - 3:
            return False
    return True


def _integrate_symbolic(ctx, terms):
    """Degree of a top-degree class: per node, the multinomial (k-3)!/prod a_f!."""
    top = ctx.n - 3
    total = 0
    for (splits, decor), coeff in terms.items():
        if len(splits) + sum(exp for _, exp in decor) != top:
            raise EngineConsistencyError(
                f"stratum with {len(splits)} edges and cotangent degree "
                f"{sum(exp for _, exp in decor)} is not of top degree {top}"
            )
        for node, exps in _node_exponents(ctx, splits, decor).items():
            load = sum(exps)
            if load != _valence(ctx, splits, node) - 3:
                raise EngineConsistencyError("a node's cotangent degree differs from its dimension")
            multinomial = math.factorial(load)
            for exp in exps:
                multinomial //= math.factorial(exp)
            coeff *= multinomial
        total += coeff
    return total


def _fold_pullbacks(ctx, terms, pullbacks, term_cap):
    """Degree of a class times the pulled-back cotangent classes, with term stats.

    The class is `terms`, a map from (splits, decorations) to nonzero integer
    coefficients on the marking set of `ctx`.  `pullbacks` lists (subset, i):
    one factor pi^* psi_i from the space marked by the subset.  See the module
    docstring for the product, the pruning and the integration.
    """
    stats = {"terms_peak": len(terms), "terms_final": 0}
    for subset, mark in pullbacks:
        sub = ctx.mask(subset)
        out = {}
        if sub.bit_count() > 3:  # the cotangent class of a three-marked line is zero
            psi = (0, ctx.bit[mark])
            own = 1 << ctx.bit[mark]
            forgotten = ctx.full ^ sub
            divisors = []
            extra = forgotten
            while extra:
                divisors.append(ctx.norm(own | extra))
                extra = (extra - 1) & forgotten
            for (splits, decor), coeff in terms.items():
                bumped = _decor_bump(decor, psi, 1)
                if _alive(ctx, splits, bumped):
                    _accum(out, (splits, bumped), coeff)
                for q in divisors:
                    for s2, d2, c2 in _mul_term(splits, decor, q):
                        if _alive(ctx, s2, d2):
                            _accum(out, (s2, d2), -coeff * c2)
        if len(out) > term_cap:
            raise BudgetExceededError(f"{len(out)} strata exceed the term cap {term_cap}")
        terms = out
        stats["terms_peak"] = max(stats["terms_peak"], len(terms))
    stats["terms_final"] = len(terms)
    return _integrate_symbolic(ctx, terms), stats


def cerberus_check(constraints):
    """Union condition for a nonvanishing degree: every nonempty set K of
    constraints must satisfy |union of their subsets| >= |K| + 3.

    A False answer guarantees the degree is zero.
    """
    sets = []
    for subset, mark in constraints:
        s = frozenset(subset)
        if mark not in s:
            raise ValueError(f"marking {mark!r} must belong to its subset")
        if len(s) < 3:
            raise ValueError("constraint subsets need at least three markings")
        sets.append(s)
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, r):
            union = frozenset().union(*combo)
            if len(union) < r + 3:
                return False
    return True


def kapranov_degree_with_stats(constraints, marking_set, term_cap=DEFAULT_TERM_CAP):
    """Degree of a product of pulled-back cotangent classes, with term statistics.

    Zero when the union condition fails; otherwise folds the constraints one
    by one into the fundamental class, keeping the cotangent classes
    symbolic, and integrates at the end.  The stats carry the union check's
    answer as `cerberus`, so that no caller runs its 2^k subsets again.
    """
    full = frozenset(marking_set)
    ctx = _Ctx(full)
    constraints = [(frozenset(s), i) for s, i in constraints]
    if len(constraints) != ctx.n - 3:
        raise ValueError(f"need exactly {ctx.n - 3} constraints, got {len(constraints)}")
    if not all(subset <= full for subset, _ in constraints):
        raise ValueError("constraint subset must lie inside the marking set")
    if not cerberus_check(constraints):  # also checks each mark and subset size
        return 0, {"terms_peak": 1, "terms_final": 0, "cerberus": False}
    value, stats = _fold_pullbacks(ctx, {((), ()): 1}, constraints, term_cap)
    return value, {**stats, "cerberus": True}


def kapranov_degree(constraints, marking_set, term_cap=DEFAULT_TERM_CAP):
    value, _ = kapranov_degree_with_stats(constraints, marking_set, term_cap)
    return value


def _neighborhood(graph, v, mode):
    if mode == "undirected":
        if not isinstance(graph, SimpleGraph):
            raise ValueError("undirected mode needs a simple graph")
        return graph.closed_neighborhood(v)
    if mode == "in":
        if not isinstance(graph, Digraph):
            raise ValueError("in mode needs a digraph")
        return graph.in_neighborhood(v)
    if mode == "out":
        if not isinstance(graph, Digraph):
            raise ValueError("out mode needs a digraph")
        return graph.out_neighborhood(v)
    raise ValueError(f"unknown mode {mode!r}")


def _local_key(block, nbhds):
    """A caterpillar node's local constraints, isolated vertices stripped.

    `block` is a bitmask of vertex indices and `nbhds[i]` the bitmask of
    vertex i's neighborhood.  A vertex whose neighborhood meets the block only
    in itself, and which lies in no other member's neighborhood, is dropped.
    The rest are relabelled 0..k-1 in vertex order; the key lists each one's
    neighborhood within the block in these labels.
    """
    members = [i for i in range(len(nbhds)) if block >> i & 1]
    covered = 0
    for i in members:
        covered |= nbhds[i] & block & ~(1 << i)
    kept = [i for i in members if covered >> i & 1 or nbhds[i] & block != 1 << i]
    return tuple(tuple(j for j, u in enumerate(kept) if nbhds[i] >> u & 1) for i in kept)


def _local_integral(key, term_cap):
    """K of a node with local constraints `key` (as from `_local_key`), with stats.

    The node is the space marked by its vertices 0..k-1 plus three special
    flags k, k+1, k+2; vertex i carries the pullback of its cotangent class
    from the space marked by the special flags and its local neighborhood.
    """
    k = len(key)
    special = frozenset(range(k, k + 3))
    pullbacks = [(special | frozenset(nbhd), i) for i, nbhd in enumerate(key)]
    return _fold_pullbacks(_Ctx(special | frozenset(range(k))), {((), ()): 1}, pullbacks, term_cap)


def _table(graph, nodes, mode, term_cap):
    """The list c_0..c_L, L = min(nodes, |V|), plus term stats.

    c_j sums the product of the local integrals K over the set partitions of
    the vertices into exactly j blocks; no c_j depends on m.  Each distinct
    K is folded once per call.  `terms_peak` is the most terms any local
    fold reached and `terms_final` sums the distinct folds' final term
    counts; `term_cap` bounds each local fold.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    nbhds = [sum(1 << index[u] for u in _neighborhood(graph, v, mode)) for v in graph.vertices]
    stats = {"terms_peak": 1, "terms_final": 0}
    memo = {}

    def node_integral(block):
        key = _local_key(block, nbhds)
        if key not in memo:
            memo[key], fold = _local_integral(key, term_cap)
            stats["terms_peak"] = max(stats["terms_peak"], fold["terms_peak"])
            stats["terms_final"] += fold["terms_final"]
        return memo[key]

    return _partitions((1 << len(nbhds)) - 1, min(nodes, len(nbhds)), node_integral), stats


def _partitions(rest, nodes, node_integral):
    """c_0..c_nodes: the sums over partitions of the vertices of `rest` into
    exactly j blocks, j <= nodes, of the product of K over the blocks."""
    # module-level, so that no function -> cell -> function cycle keeps the memo alive
    if not rest:
        return [1]
    low = rest & -rest  # the block holding the lowest vertex comes first
    others = rest ^ low
    table = [0] * (nodes + 1)
    sub = others
    while True:
        block = low | sub
        if nodes > 1 or block == rest:  # what is left needs a node of its own
            k = node_integral(block)
            for j, c in enumerate(_partitions(rest ^ block, nodes - 1, node_integral)):
                table[j + 1] += k * c
        if not sub:
            break
        sub = (sub - 1) & others
    return table


def omega_coefficients(graph, mode="undirected", term_cap=DEFAULT_TERM_CAP):
    """The tuple c_0..c_n with omega(graph, m) = sum of c_j (m-2)(m-3)...(m-1-j).

    c_j sums the product of the blocks' local integrals K over the set
    partitions of the n vertices into j blocks; see the module docstring.
    """
    table, _ = _table(graph, graph.n, mode, term_cap)
    return tuple(table)


def omega_with_stats(graph, m, mode="undirected", term_cap=DEFAULT_TERM_CAP):
    """The graph's intersection number with m extra markings, plus term stats.

    Sums c_j (m-2)(m-3)...(m-1-j) over the coefficient table c_0..c_L of
    `omega_coefficients`, cut at L = min(m - 2, n): a partition into more
    than m - 2 blocks has no caterpillar placement.  The stats are those of
    the table's local folds.
    """
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    table, stats = _table(graph, m - 2, mode, term_cap)
    value = 0
    falling = 1
    for j, c in enumerate(table):
        value += c * falling
        falling *= m - 2 - j
    return value, stats


def omega(graph, m, mode="undirected", term_cap=DEFAULT_TERM_CAP):
    value, _ = omega_with_stats(graph, m, mode, term_cap)
    return value
