"""Exact genus-zero intersection numbers by a recursion along boundary divisors.

A constraint system on the markings X = {0, ..., n-1} is a list of pairs
(S, i) with i in S, S a subset of X.  The pair stands for pi_S^* psi_i: the
cotangent class at i on the space marked by S, pulled back along the map
that forgets the markings outside S.  Its degree is the integral of the
product of its classes over the space marked by X, of dimension n - 3.
`_degree` computes it, with subsets as bitmasks and markings as bit
positions.

Every system holds n - 3 constraints, so its product is of top degree:
the callers check the count, and the step below keeps it (`_degree` raises
EngineConsistencyError on any other count).  Base cases:

* n = 3 and no constraint: the space is a point, so the degree is 1;
* a subset of three markings: its space is a point, where psi is 0;
* a marking x in no subset: every class is pulled back along the map that
  forgets x, so the product comes from a space of dimension n - 4, below its
  degree n - 3, and is 0.

Step.  Expand the constraint (S, i) with the smallest subset, and let j, k be
the two lowest markings of S - {i}.  On the space marked by S,
psi_i = sum of D_I over the I with i in I, j and k not in I and |I| >= 2
(Kock, "Notes on psi classes", 2001).  Along the forgetful map D_I pulls back
to the sum of D_J over the J with J n S = I.  So the constraint is the sum of
D_J over J in X with i in J, j and k not in J and |J n S| >= 2, each divisor
once and with sign +1.  D_J is the product of the spaces marked by J u {o}
and by (X - J) u {o}, o the node (Keel, 1992), so the rest of the product
restricts to D_J one constraint at a time and its degree there is the
product of two smaller degrees.  For a constraint (S_w, w) let w's side be
the part of J or X - J holding w, near = S_w n (w's side) and far the rest
of S_w.  On a curve of D_J, forget the markings outside S_w and stabilize:

* far empty: the other component keeps no marking of S_w and is contracted
  to the node, so the map factors through w's side: (S_w, w) on w's side;
* near = {w} and |far| >= 2: w's component keeps only w and the node and is
  contracted, so w lands at the node of the other component.  The map
  factors through the other side with o read as w: (far u {o}, o) on the
  other side;
* otherwise |near| >= 2 and far is nonempty.  If |far| >= 2 the curve stays
  on the divisor D_near of the space marked by S_w, where psi_w is the
  cotangent class of w's component; if |far| = 1 that marking lands at the
  node.  Either way: (near u {o}, w) on w's side.

(near = {w} with |far| = 1 would need |S_w| = 2.)  The n - 4 constraints
left go one to a side, and the two sides' dimensions add up to n - 4, so
a side whose count differs from its dimension makes the other's differ
too: the product is then of top degree on neither, the term is 0, and the
step skips it.  Every term is nonnegative.  Each side's system is
relabelled to its markings in increasing order, then o, with its
constraints sorted; `memo` maps each such system to its degree, so a
subproblem is computed once per call.  The recursion sees constraint
systems only, never the graph they came from.

`omega` splits its integral at the point class instead of integrating once
over the whole space.  The point class pulled back from the m extra markings
is the sum of caterpillar strata, one per map sigma from the vertices to the
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

where the local integral K(B) is the degree of the constraints
({s1, s2, s3} u (N(v) n B), v), v in B, on the markings {s1, s2, s3} u B,
and K(empty) = 1.  A vertex v of B whose neighborhood meets B only in v, and
which lies in no other member's neighborhood, can be dropped: K(B) = K(B - v).
Its factor is then the pulled-back point class of the four-marked space
{s1, s2, s3, v}; splitting there puts every other vertex on the side of s1
and s2, since a vertex on v's side carries classes pulled back from a space
of one dimension less.  K is looked up by block, and `_partitions` sums the
products over partitions as a subset DP memoized on (vertices left, nodes
left).

No K and so no c_j depends on m, and the falling factorial vanishes for
j > m - 2: omega is a polynomial in m of degree |V|, with leading
coefficient c_|V| = prod over v of K({v}) = K(empty)^|V| = 1, since the
vertex of a singleton block is always dropped.
`omega_coefficients` returns the whole table c_0..c_|V|; `omega` computes
it up to j = min(m - 2, |V|) only and sums it at m.  The pulled-back point
class itself is never built here; the tests' reference
(`tests/boundary_reference.py`) builds it to integrate over the whole space.
"""

from __future__ import annotations

from .errors import BudgetExceededError, EngineConsistencyError
from .graphs import Digraph, SimpleGraph

DEFAULT_TERM_CAP = 10_000_000


def _compress(mask, side):
    """The bits of `mask` at the positions of `side`, packed low in their order."""
    out = 0
    bit = 1
    while side:
        low = side & -side
        if mask & low:
            out |= bit
        bit <<= 1
        side ^= low
    return out


def _relabel(side, constraints):
    """One side's constraints, relabelled to the markings of `side` in order."""
    return tuple(sorted((_compress(s, side), (side & ((1 << w) - 1)).bit_count()) for s, w in constraints))


def _degree(n, constraints, memo, cap):
    """Degree of a constraint system on the markings 0..n-1; see the module docstring.

    `constraints` is a sorted tuple of (subset mask, marking) pairs.  `memo`
    maps each system met so far to its degree; past `cap` systems the call
    raises BudgetExceededError.  A count other than n - 3 raises
    EngineConsistencyError: no caller passes one.
    """
    if len(constraints) != n - 3:
        raise EngineConsistencyError(f"{len(constraints)} constraints on {n} markings, not {n - 3}")
    key = (n, constraints)
    value = memo.get(key)
    if value is None:
        value = memo[key] = _split(n, constraints, memo, cap)
        if len(memo) > cap:
            raise BudgetExceededError(f"{len(memo)} subproblems exceed the term cap {cap}")
    return value


def _split(n, constraints, memo, cap):
    """The base cases, then the sum over the divisors D_J whose sides keep the count."""
    if n == 3:
        return 1
    full = (1 << n) - 1
    covered = 0
    for s, _ in constraints:
        if s.bit_count() == 3:
            return 0
        covered |= s
    if covered != full:
        return 0
    pick = min(range(len(constraints)), key=lambda c: constraints[c][0].bit_count())
    s, i = constraints[pick]
    rest = constraints[:pick] + constraints[pick + 1 :]
    own = 1 << i
    inner = s ^ own
    inner &= inner - 1  # drop j
    inner &= inner - 1  # drop k
    outside = full ^ s
    node = 1 << n
    total = 0
    near_i = inner
    while near_i:  # J n S = {i} u near_i
        extra = outside
        while True:  # J - S = extra
            part = own | near_i | extra
            other = full ^ part
            mine, theirs = [], []
            for sw, w in rest:
                if part >> w & 1:
                    home, away = mine, theirs
                    near = sw & part
                else:
                    home, away = theirs, mine
                    near = sw & other
                far = sw ^ near
                if not far:
                    home.append((sw, w))
                elif near == 1 << w and far & (far - 1):
                    away.append((far | node, n))
                else:
                    home.append((near | node, w))
            size = part.bit_count()
            if len(mine) == size - 2:
                left = _degree(size + 1, _relabel(part | node, mine), memo, cap)
                if left:
                    total += left * _degree(n - size + 1, _relabel(other | node, theirs), memo, cap)
            if not extra:
                break
            extra = (extra - 1) & outside
        near_i = (near_i - 1) & inner
    return total


def _augment(left, adjacent, owner, seen):
    """Kuhn's step: match `left` to a marking, rematching along an alternating path."""
    for mark in adjacent[left]:
        if mark not in seen:
            seen.add(mark)
            if mark not in owner or _augment(owner[mark], adjacent, owner, seen):
                owner[mark] = left
                return True
    return False


def cerberus_check(constraints):
    """Union condition for a nonvanishing degree: every nonempty set K of
    constraints must satisfy |union of their subsets| >= |K| + 3.

    A False answer guarantees the degree is zero.  By Hall's theorem the
    condition holds if and only if, for each constraint c, the constraints
    with c taken four times can be matched to distinct markings of their
    subsets.  One matching of all constraints is found first; each c then
    extends a copy of it by three augmenting paths.
    """
    sets = []
    for subset, mark in constraints:
        s = frozenset(subset)
        if mark not in s:
            raise ValueError(f"marking {mark!r} must belong to its subset")
        if len(s) < 3:
            raise ValueError("constraint subsets need at least three markings")
        sets.append(s)
    owner = {}
    if not all(_augment(c, sets, owner, set()) for c in range(len(sets))):
        return False
    k = len(sets)
    for s in sets:
        adjacent = sets + [s, s, s]
        trial = dict(owner)
        if not all(_augment(copy, adjacent, trial, set()) for copy in range(k, k + 3)):
            return False
    return True


def label_sort_key(label):
    """A total order over markings that mix integers and strings: integers first."""
    if isinstance(label, int):
        return (0, label, "")
    return (1, 0, str(label))


def kapranov_degree_with_stats(constraints, marking_set, term_cap=DEFAULT_TERM_CAP):
    """Degree of a product of pulled-back cotangent classes, with work statistics.

    Zero when the union condition fails; otherwise the boundary recursion
    of `_degree`.  `terms_peak` and `terms_final` both count the distinct
    subproblems of the recursion, and `term_cap` caps them.  The stats carry
    the union check's answer as `cerberus`, so that no caller runs it again.
    """
    labels = sorted(set(marking_set), key=label_sort_key)
    if len(labels) < 3:
        raise ValueError("marking set needs at least three labels")
    full = frozenset(labels)
    constraints = [(frozenset(s), i) for s, i in constraints]
    if len(constraints) != len(labels) - 3:
        raise ValueError(f"need exactly {len(labels) - 3} constraints, got {len(constraints)}")
    if not all(subset <= full for subset, _ in constraints):
        raise ValueError("constraint subset must lie inside the marking set")
    if not cerberus_check(constraints):  # also checks each mark and subset size
        return 0, {"terms_peak": 1, "terms_final": 0, "cerberus": False}
    bit = {lab: b for b, lab in enumerate(labels)}
    system = tuple(sorted((sum(1 << bit[lab] for lab in s), bit[i]) for s, i in constraints))
    memo = {}
    value = _degree(len(labels), system, memo, term_cap)
    return value, {"terms_peak": len(memo), "terms_final": len(memo), "cerberus": True}


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


def _local_integral(key, memo, term_cap):
    """K of a node with local constraints `key` (as from `_local_key`).

    The node is the space marked by its vertices 0..k-1 plus three special
    flags k, k+1, k+2; vertex i carries the pullback of its cotangent class
    from the space marked by the special flags and its local neighborhood.
    `memo` and `term_cap` are those of `_degree`.
    """
    k = len(key)
    special = 0b111 << k
    constraints = tuple(sorted((special | sum(1 << u for u in nbhd), i) for i, nbhd in enumerate(key)))
    return _degree(k + 3, constraints, memo, term_cap)


def _table(graph, nodes, mode, term_cap):
    """The list c_0..c_L, L = min(nodes, |V|), plus work stats.

    c_j sums the product of the local integrals K over the set partitions of
    the vertices into exactly j blocks; no c_j depends on m.  All local
    integrals of a call share one memo of subproblems.  `terms_peak` is the
    most subproblems one local integral added to it, at least 1, and
    `terms_final` the subproblems of the whole call; `term_cap` caps the
    latter.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    nbhds = [sum(1 << index[u] for u in _neighborhood(graph, v, mode)) for v in graph.vertices]
    stats = {"terms_peak": 1, "terms_final": 0}
    memo = {}
    blocks = {}

    def node_integral(block):
        value = blocks.get(block)
        if value is None:
            before = len(memo)
            value = blocks[block] = _local_integral(_local_key(block, nbhds), memo, term_cap)
            stats["terms_peak"] = max(stats["terms_peak"], len(memo) - before)
        return value

    table = _partitions((1 << len(nbhds)) - 1, min(nodes, len(nbhds)), node_integral, {})
    stats["terms_final"] = len(memo)
    return table, stats


def _partitions(rest, nodes, node_integral, memo):
    """c_0..c_L, L = min(nodes, |rest|): the sums over partitions of the vertices
    of `rest` into exactly j blocks, j <= L, of the product of K over the blocks.

    `memo` maps (rest, L) to its list, so the sum runs once per subset of the
    vertices and node count.
    """
    # module-level, so that no function -> cell -> function cycle keeps the memo alive
    if not rest:
        return [1]
    nodes = min(nodes, rest.bit_count())
    table = memo.get((rest, nodes))
    if table is not None:
        return table
    if nodes == 1:  # one block holds every vertex left
        return memo.setdefault((rest, 1), [0, node_integral(rest)])
    low = rest & -rest  # the block holding the lowest vertex comes first
    others = rest ^ low
    table = [0] * (nodes + 1)
    sub = others
    while True:
        block = low | sub
        k = node_integral(block)
        if k:
            for j, c in enumerate(_partitions(rest ^ block, nodes - 1, node_integral, memo)):
                table[j + 1] += k * c
        if not sub:
            break
        sub = (sub - 1) & others
    memo[(rest, nodes)] = table
    return table


def omega_coefficients(graph, mode="undirected", term_cap=DEFAULT_TERM_CAP):
    """The tuple c_0..c_n with omega(graph, m) = sum of c_j (m-2)(m-3)...(m-1-j).

    c_j sums the product of the blocks' local integrals K over the set
    partitions of the n vertices into j blocks; see the module docstring.
    """
    table, _ = _table(graph, graph.n, mode, term_cap)
    return tuple(table)


def omega_with_stats(graph, m, mode="undirected", term_cap=DEFAULT_TERM_CAP):
    """The graph's intersection number with m extra markings, plus work stats.

    Sums c_j (m-2)(m-3)...(m-1-j) over the coefficient table c_0..c_L of
    `omega_coefficients`, cut at L = min(m - 2, n): a partition into more
    than m - 2 blocks has no caterpillar placement.  The stats count the
    subproblems of the table's local integrals (see `_table`).
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
