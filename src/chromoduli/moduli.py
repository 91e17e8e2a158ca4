"""Exact genus-zero intersection calculus on boundary strata of marked-curve spaces.

A stratum is a stable tree of genus-zero components with distinct marking
labels attached; every node carries at least three flags (markings plus edge
germs).  Cutting a tree edge splits the marking set in two, and the stratum
is uniquely encoded by the laminar family of these splits, stored here as
bitmasks normalized to exclude a fixed anchor label.  A class is a formal
integer combination of strata, optionally decorated with cotangent-class
exponents at flags.

The engine (`omega`, `kapranov_degree`) folds pulled-back cotangent classes
into a starting class, keeping every cotangent class symbolic:

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
quotient.

The older route rewrites every cotangent class into boundary divisors
(`psi_as_boundary`, `pullback_psi`, `expand_psi_decorations`) and counts the
undecorated top strata (`integrate`).  The engine no longer takes it; it is
kept, with its public contracts, as the reference the tests compare against.
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

    def unmask(self, m):
        return frozenset(lab for lab, i in self.bit.items() if (m >> i) & 1)

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


class ClassExpression:
    """Formal integer combination of decorated boundary strata on one marking set."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms  # (splits tuple, decor tuple) -> nonzero int

    @classmethod
    def zero(cls, marking_set):
        return cls(_Ctx(marking_set), {})

    @classmethod
    def unit(cls, marking_set):
        """The fundamental class: the stratum with no edges."""
        return cls(_Ctx(marking_set), {((), ()): 1})

    @property
    def marking_set(self):
        return frozenset(self.ctx.labels)

    @property
    def term_count(self):
        return len(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def has_decorations(self):
        return any(decor for _, decor in self.terms)

    def __eq__(self, other):
        if not isinstance(other, ClassExpression):
            return NotImplemented
        return self.ctx.labels == other.ctx.labels and self.terms == other.terms

    def __add__(self, other):
        if self.ctx.labels != other.ctx.labels:
            raise ValueError("marking sets differ")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _accum(out, key, coeff)
        return ClassExpression(self.ctx, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return ClassExpression(self.ctx, {})
        return ClassExpression(self.ctx, {k: scalar * c for k, c in self.terms.items()})

    __rmul__ = __mul__

    def strata(self):
        """Label-level view: (splits as frozensets, decoration dict, coefficient)."""
        for (splits, decor), coeff in sorted(self.terms.items()):
            sets = tuple(self.ctx.unmask(m) for m in splits)
            psi = {}
            for flag, exp in decor:
                if flag[0] == 0:
                    psi[("mark", self.ctx.labels[flag[1]])] = exp
                else:
                    psi[("germ", self.ctx.unmask(flag[1]), flag[2])] = exp
            yield sets, psi, coeff


def boundary_divisor(marking_set, part):
    """The divisor class of two-component curves split along the given part."""
    ctx = _Ctx(marking_set)
    q = ctx.norm(ctx.mask(part))
    size = q.bit_count()
    if size < 2 or size > ctx.n - 2:
        raise ValueError("divisor part must have between 2 and n-2 markings on each side")
    return ClassExpression(ctx, {((q,), ()): 1})


def psi_as_boundary(marking_set, i, j, k):
    """Express the cotangent class at i through divisors separating i from j, k.

    With exactly three markings the class vanishes and the zero expression is
    returned.  Part of the boundary-expansion reference route.
    """
    ctx = _Ctx(marking_set)
    if len({i, j, k}) != 3:
        raise ValueError("i, j, k must be three distinct markings")
    for lab in (i, j, k):
        if lab not in ctx.bit:
            raise ValueError(f"{lab!r} is not in the marking set")
    if ctx.n == 3:
        return ClassExpression(ctx, {})
    rest = sorted(set(ctx.labels) - {i, j, k}, key=label_sort_key)
    terms = {}
    for r in range(1, len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            q = ctx.norm(ctx.mask((i,) + extra))
            _accum(terms, ((q,), ()), 1)
    return ClassExpression(ctx, terms)


def pullback_divisor(part, sub_marking_set, marking_set):
    """Pull a divisor back along the map forgetting markings outside the subset.

    The result sums the divisors whose part consists of the given part plus
    any subset of the forgotten markings.
    """
    sub = frozenset(sub_marking_set)
    full = frozenset(marking_set)
    part = frozenset(part)
    if not part <= sub or not sub <= full:
        raise ValueError("need part within the subset within the marking set")
    if len(part) < 2 or len(part) > len(sub) - 2:
        raise ValueError("divisor part must have between 2 and n-2 markings on each side")
    ctx = _Ctx(full)
    extras = sorted(full - sub, key=label_sort_key)
    terms = {}
    for r in range(len(extras) + 1):
        for extra in itertools.combinations(extras, r):
            q = ctx.norm(ctx.mask(tuple(part) + extra))
            _accum(terms, ((q,), ()), 1)
    return ClassExpression(ctx, terms)


def pullback_psi(sub_marking_set, i, marking_set, anchors=None):
    """Pullback of the cotangent class at i from the subset-marked space.

    The class is first written as a divisor sum on the small space (against
    two anchor markings, by default the two smallest others) and each divisor
    is pulled back; the result is a pure divisor expression.  Integrated
    answers do not depend on the anchor choice.  Part of the
    boundary-expansion reference route; the engine keeps the class symbolic.
    """
    sub = frozenset(sub_marking_set)
    full = frozenset(marking_set)
    if i not in sub or not sub <= full:
        raise ValueError("need the marking inside the subset inside the marking set")
    if len(sub) < 3:
        raise ValueError("subset must keep at least three markings")
    ctx = _Ctx(full)
    if len(sub) == 3:
        return ClassExpression(ctx, {})
    if anchors is None:
        j, k = sorted(sub - {i}, key=label_sort_key)[:2]
    else:
        j, k = anchors
    if len({i, j, k}) != 3 or j not in sub or k not in sub:
        raise ValueError("anchors must be two further distinct markings of the subset")
    rest = sorted(sub - {i, j, k}, key=label_sort_key)
    extras = sorted(full - sub, key=label_sort_key)
    terms = {}
    for r in range(1, len(rest) + 1):
        for inner in itertools.combinations(rest, r):
            base = (i,) + inner
            for s in range(len(extras) + 1):
                for outer in itertools.combinations(extras, s):
                    q = ctx.norm(ctx.mask(base + outer))
                    _accum(terms, ((q,), ()), 1)
    return ClassExpression(ctx, terms)


def point_class_pullback(small_marking_set, marking_set, caterpillar_order=None):
    """Pullback of a point class along the map forgetting extra markings.

    A point on the small space is represented by a fixed zero-dimensional
    caterpillar stratum (markings in sorted order unless an explicit order is
    given); its pullback sums over all attachments of the extra markings to
    the caterpillar's nodes.  Any ordering represents the same class.
    """
    small = frozenset(small_marking_set)
    full = frozenset(marking_set)
    if not small <= full:
        raise ValueError("small marking set must be contained in the marking set")
    if len(small) < 3:
        raise ValueError("small marking set needs at least three labels")
    ctx = _Ctx(full)
    if len(small) == 3:
        return ClassExpression(ctx, {((), ()): 1})
    order = list(caterpillar_order) if caterpillar_order is not None else sorted(
        small, key=label_sort_key
    )
    if set(order) != small or len(order) != len(small):
        raise ValueError("caterpillar order must be a permutation of the small marking set")
    k = len(order)
    node_count = k - 2
    node_marks = [set() for _ in range(node_count)]
    node_marks[0] = {order[0], order[1]}
    for t in range(1, node_count - 1):
        node_marks[t] = {order[t + 1]}
    node_marks[node_count - 1] |= {order[k - 2], order[k - 1]}
    extras = sorted(full - small, key=label_sort_key)
    terms = {}
    for assignment in itertools.product(range(node_count), repeat=len(extras)):
        prefix = 0
        splits = []
        for t in range(node_count - 1):
            prefix |= ctx.mask(node_marks[t])
            for lab, at in zip(extras, assignment):
                if at == t:
                    prefix |= 1 << ctx.bit[lab]
            splits.append(ctx.norm(prefix))
        _accum(terms, (tuple(sorted(splits)), ()), 1)
    return ClassExpression(ctx, terms)


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


def multiply_by_divisor(expr: ClassExpression, part, marking_set=None):
    """Multiply an expression by the boundary divisor with the given part."""
    ctx = expr.ctx
    if marking_set is not None and frozenset(marking_set) != expr.marking_set:
        raise ValueError("marking set does not match the expression")
    q = ctx.norm(ctx.mask(part))
    size = q.bit_count()
    if size < 2 or size > ctx.n - 2:
        raise ValueError("divisor part must have between 2 and n-2 markings on each side")
    out = {}
    for (splits, decor), coeff in expr.terms.items():
        for s2, d2, c2 in _mul_term(splits, decor, q):
            _accum(out, (s2, d2), coeff * c2)
    return ClassExpression(ctx, out)


def _mul_by_divisor_sum(expr: ClassExpression, divisors: ClassExpression, term_cap=None):
    """Multiply by a pure divisor expression, term by term (reference route)."""
    if expr.ctx.labels != divisors.ctx.labels:
        raise ValueError("marking sets differ")
    out = {}
    for (dsplits, ddecor), dcoeff in divisors.terms.items():
        if ddecor or len(dsplits) != 1:
            raise ValueError("multiplier must be a pure divisor expression")
        q = dsplits[0]
        for (splits, decor), coeff in expr.terms.items():
            for s2, d2, c2 in _mul_term(splits, decor, q):
                _accum(out, (s2, d2), coeff * c2 * dcoeff)
        if term_cap is not None and len(out) > term_cap:
            raise BudgetExceededError(f"{len(out)} strata exceed the term cap {term_cap}")
    return ClassExpression(expr.ctx, out)


def _tree_structure(ctx, splits):
    """Parent map and per-node sorted flag lists for a laminar split family.

    Node ids are the split masks; the root is ctx.full.  Flags are
    (0, bit) for markings, (1, mask, 0) for the germ at the node on the
    mask side of that edge, (1, mask, 1) for the germ at its parent.
    """
    order = sorted(splits, key=lambda m: (m.bit_count(), m))
    parent = {}
    for idx, mk in enumerate(order):
        par = ctx.full
        for other in order[idx + 1:]:
            if mk & other == mk and other != mk:
                par = other
                break
        parent[mk] = par
    children = {node: [] for node in order}
    children[ctx.full] = []
    for mk in order:
        children[parent[mk]].append(mk)
    flags = {}
    for node, kids in children.items():
        kid_union = 0
        for c in kids:
            kid_union |= c
        marks = (node if node != ctx.full else ctx.full) & ~kid_union
        fl = [(0, b) for b in range(ctx.n) if (marks >> b) & 1]
        if node != ctx.full:
            fl.append((1, node, 0))
        fl.extend((1, c, 1) for c in kids)
        flags[node] = sorted(fl)
    return parent, flags


def _flag_node(ctx, splits, parent, flag):
    if flag[0] == 1:
        return flag[1] if flag[2] == 0 else parent[flag[1]]
    bit = 1 << flag[1]
    best = None
    for mk in splits:
        if mk & bit and (best is None or mk.bit_count() < best.bit_count()):
            best = mk
    return best if best is not None else ctx.full


def _flag_content(ctx, flag, node):
    """Markings on the far side of a flag as seen from its node."""
    if flag[0] == 0:
        return 1 << flag[1]
    mask, side = flag[1], flag[2]
    return (ctx.full ^ mask) if side == 0 else mask


def _expand_term_once(ctx, splits, decor):
    """Rewrite one cotangent exponent; None if the term carries none."""
    if not decor:
        return None
    flag, _exp = decor[0]
    parent, flags = _tree_structure(ctx, splits)
    node = _flag_node(ctx, splits, parent, flag)
    node_flags = flags[node]
    if len(node_flags) == 3:
        return ()  # the cotangent class of a three-flag component vanishes
    rest = [f for f in node_flags if f != flag]
    others = rest[2:]  # rest[:2] are the anchor flags
    base_decor = _decor_bump(decor, flag, -1)
    self_content = _flag_content(ctx, flag, node)
    out = []
    for r in range(1, len(others) + 1):
        for picked in itertools.combinations(others, r):
            content = self_content
            for f in picked:
                content |= _flag_content(ctx, f, node)
            q = ctx.norm(content)
            out.append((tuple(sorted(splits + (q,))), base_decor, 1))
    return out


def expand_psi_decorations(expr: ClassExpression, term_cap=DEFAULT_TERM_CAP):
    """Rewrite cotangent exponents to pure boundary strata, one flag at a time.

    Each rewrite preserves codimension and strictly lowers the total
    exponent degree, so this terminates; running it on an already-pure
    expression is the identity.  Part of the boundary-expansion reference
    route.
    """
    ctx = expr.ctx
    terms = expr.terms
    while True:
        changed = False
        out = {}
        for (splits, decor), coeff in terms.items():
            res = _expand_term_once(ctx, splits, decor)
            if res is None:
                _accum(out, (splits, decor), coeff)
            else:
                changed = True
                for s2, d2, c2 in res:
                    _accum(out, (s2, d2), coeff * c2)
        if len(out) > term_cap:
            raise BudgetExceededError(f"{len(out)} strata exceed the term cap {term_cap}")
        terms = out
        if not changed:
            return ClassExpression(ctx, terms)


def integrate(expr: ClassExpression, marking_set=None):
    """Degree of a fully expanded class: total coefficient of the strata with
    the maximal number of edges (all components three-flagged).  Part of the
    boundary-expansion reference route."""
    if marking_set is not None and frozenset(marking_set) != expr.marking_set:
        raise ValueError("marking set does not match the expression")
    if expr.has_decorations:
        raise ValueError("expression still carries cotangent exponents; expand first")
    top = expr.ctx.n - 3
    return sum(c for (splits, _), c in expr.terms.items() if len(splits) == top)


def _node_of(ctx, splits, flag):
    """The node holding a flag (node ids as in `_tree_structure`)."""
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


def _fold_pullbacks(expr: ClassExpression, pullbacks, term_cap):
    """Degree of expr times the pulled-back cotangent classes, with term stats.

    `pullbacks` lists (subset, i): one factor pi^* psi_i from the space marked
    by the subset.  See the module docstring for the product, the pruning and
    the integration.
    """
    ctx = expr.ctx
    terms = expr.terms
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


def kapranov_degree_with_stats(constraints, marking_set, shortcut=True, term_cap=DEFAULT_TERM_CAP):
    """Degree of a product of pulled-back cotangent classes, with term statistics.

    Folds the constraints one by one into the fundamental class, keeping the
    cotangent classes symbolic, and integrates at the end.
    """
    full = frozenset(marking_set)
    ctx = _Ctx(full)
    constraints = [(frozenset(s), i) for s, i in constraints]
    if len(constraints) != ctx.n - 3:
        raise ValueError(f"need exactly {ctx.n - 3} constraints, got {len(constraints)}")
    for subset, mark in constraints:
        if not subset <= full:
            raise ValueError("constraint subset must lie inside the marking set")
        if mark not in subset:
            raise ValueError(f"marking {mark!r} must belong to its subset")
        if len(subset) < 3:
            raise ValueError("constraint subsets need at least three markings")
    stats = {"terms_peak": 1, "terms_final": 0}
    if shortcut and (
        any(len(s) == 3 for s, _ in constraints) or not cerberus_check(constraints)
    ):
        return 0, stats
    return _fold_pullbacks(ClassExpression.unit(full), constraints, term_cap)


def kapranov_degree(constraints, marking_set, shortcut=True, term_cap=DEFAULT_TERM_CAP):
    value, _ = kapranov_degree_with_stats(constraints, marking_set, shortcut, term_cap)
    return value


def _fresh_marks(vertices, m):
    used = set(vertices)
    names = []
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    candidates = itertools.chain(
        alphabet, ("".join(p) for p in itertools.product(alphabet, repeat=2))
    )
    for name in candidates:
        if name not in used:
            names.append(name)
            if len(names) == m:
                return tuple(names)
    raise ValueError("could not allocate fresh marking labels")  # pragma: no cover


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


def omega_with_stats(graph, m, mode="undirected", term_cap=DEFAULT_TERM_CAP):
    """The graph's intersection number with m extra markings, plus term stats.

    The marking set is the vertex set plus m fresh labels; a pulled-back
    point class is multiplied by one pulled-back cotangent class per vertex,
    with the per-vertex subset given by its (closed, in-, or out-)
    neighborhood together with the fresh labels.
    """
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    marks = _fresh_marks(graph.vertices, m)
    full = frozenset(graph.vertices) | frozenset(marks)
    pullbacks = [(_neighborhood(graph, v, mode) | frozenset(marks), v) for v in graph.vertices]
    return _fold_pullbacks(point_class_pullback(frozenset(marks), full), pullbacks, term_cap)


def omega(graph, m, mode="undirected", term_cap=DEFAULT_TERM_CAP):
    value, _ = omega_with_stats(graph, m, mode, term_cap)
    return value
