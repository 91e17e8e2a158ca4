"""The boundary-expansion route: the tests' reference for the symbolic engine.

It rewrites every cotangent class into boundary divisors (`psi_as_boundary`,
`pullback_psi`, `expand_psi_decorations`) and counts the undecorated top
strata (`integrate`).  Classes are `ClassExpression` values: the stratum
fold's term dicts (see `fold_reference`) with their marking set and integer
arithmetic.  `point_class_pullback` builds the pulled-back point class that
the global fold starts from; the engine itself never takes this route and
never builds that class.
"""

import itertools

from chromoduli.errors import BudgetExceededError
from chromoduli.moduli import DEFAULT_TERM_CAP, label_sort_key

from fold_reference import _accum, _Ctx, _decor_bump, _mul_term


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


def _unmask(ctx, m):
    return frozenset(lab for lab, i in ctx.bit.items() if (m >> i) & 1)


def strata(expr: ClassExpression):
    """Label-level view: (splits as frozensets, decoration dict, coefficient)."""
    for (splits, decor), coeff in sorted(expr.terms.items()):
        sets = tuple(_unmask(expr.ctx, m) for m in splits)
        psi = {}
        for flag, exp in decor:
            if flag[0] == 0:
                psi[("mark", expr.ctx.labels[flag[1]])] = exp
            else:
                psi[("germ", _unmask(expr.ctx, flag[1]), flag[2])] = exp
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
    returned.
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
    answers do not depend on the anchor choice.
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
    """Multiply by a pure divisor expression, term by term."""
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
    expression is the identity.
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
    the maximal number of edges (all components three-flagged)."""
    if marking_set is not None and frozenset(marking_set) != expr.marking_set:
        raise ValueError("marking set does not match the expression")
    if any(decor for _, decor in expr.terms):
        raise ValueError("expression still carries cotangent exponents; expand first")
    top = expr.ctx.n - 3
    return sum(c for (splits, _), c in expr.terms.items() if len(splits) == top)
