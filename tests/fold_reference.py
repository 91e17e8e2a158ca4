"""The stratum fold: the tests' reference for the engine's boundary recursion.

A stratum is a stable tree of genus-zero components with distinct marking
labels attached; every node carries at least three flags (markings plus edge
germs).  Cutting a tree edge splits the marking set in two, and the stratum
is uniquely encoded by the laminar family of these splits, stored here as
bitmasks normalized to exclude a fixed anchor label.  A class is a formal
integer combination of strata, optionally decorated with cotangent-class
exponents at flags, held as a dict from (splits, decorations) to nonzero
integer coefficients.

`_fold_pullbacks` folds pulled-back cotangent classes into a starting class,
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
quotient.  The fold shares no code with `chromoduli.moduli`, whose recursion
splits along boundary divisors instead of multiplying strata.
"""

import math

from chromoduli.errors import BudgetExceededError, EngineConsistencyError
from chromoduli.moduli import label_sort_key


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
