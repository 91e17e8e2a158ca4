"""Exact linear programming: primal and dual simplex with Bland's rule on an integer tableau.

A `Tableau` holds  max c.x  subject to  A x <= b  with x free and integer
data.  Its entries are Python ints over one shared positive denominator D
(Edmonds/Bareiss fraction-free pivoting).  The variables are numbered 1..n
for the x+ parts, n+1..2n for the x- parts, then one slack per row in row
order.  The tableau is condensed (the dictionary form of lrs): a row, the
objective row included, stores only its right-hand side in column 0 and
one entry per nonbasic variable, so every row is 2n+1 entries wide
whatever the number of rows.  `cols[k]` names the variable of stored
column k (`cols[0]` = 0 for the right-hand side) and `basis[i]` that of
row i, whose own column would be the unit column D.  When an x+ part is
basic its x- part is nonbasic, and its stored column is the negated unit
column: -D in that row and 0 elsewhere.  One pivot routine serves two
loops:

* `primal` keeps a primal-feasible basis and follows Bland's rule: the
  lowest-numbered variable with a positive reduced profit enters, the
  minimum ratio leaves, ties to the lowest basic variable;
* `dual` keeps a dual-feasible basis and follows the dual Bland rule: the
  row with a negative right-hand side and the lowest basic variable
  leaves, the variable with the minimum ratio enters, ties to the lowest
  variable.

Pivoting on the entry p = R[k] of row R = T[r] exchanges basis[r] and
cols[k].  Every other row X, the objective row included, goes to
(X*p - X[k]*R) // D, a division that is always exact, and its column k
becomes that of the leaving variable, -X[k]; R is kept except that its
column k becomes the old D; then D = p.  A negative p (every dual pivot)
negates R first, so D stays positive, and flips the signs of the new
column k.  Ties are broken by variable number, not by storage position,
so the pivot sequence is that of the full-width tableau; ratios are
compared by cross-multiplication, so it is also that of a Fraction
tableau.

`with_rows` is the warm start: it copies a tableau and appends rows, each
written in the current basis as D*row - sum_i row[basis_i]*T_i, with its
own slack basic, so no stored column is added.  The copy shares the row
lists with the original (a pivot replaces rows, never edits them) but not
`cols` or `basis`.  The reduced profits do not change, so an optimal basis
stays dual-feasible and `dual` re-optimizes in a few pivots.

`solve_lp(A, b, c)` is the one-shot entry: it scales rational data once (A
and b together by the lcm L of their denominators, c by the lcm of its
own), requires b >= 0 so that x = 0 is feasible at the slack basis, and
runs `primal` with no phase 1; a negative right-hand side raises
ValueError.

Every answer carries a certificate, re-checked exactly on the integer
data; a failed check raises EngineConsistencyError:

* optimal: the point x with A x <= b and a dual vector y >= 0 with
  y A = c and y.b = c.x, read off the stored slack columns of the final
  objective row (a basic slack's entry is 0), which proves x optimal
  (`Tableau.optimum`);
* unbounded: an improving ray d with A d <= 0 and c.d > 0.

A dual loop that finds no entering column has proved the rows infeasible;
it raises EngineConsistencyError, since every LP built here is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import EngineConsistencyError


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "unbounded"
    x: tuple | None = None
    objective: Fraction | None = None
    ray: tuple | None = None
    dual: tuple | None = None  # with x: y >= 0, y A = c, y.b = objective


def _scaled(values):
    """The integers k*v for the lcm k of the values' denominators, and k."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    k = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (k // v.denominator) for v in values], k


def _check_optimal(A, b, c, x, y, d):
    """Certify x/d optimal for max c.x s.t. A x <= b by the dual y/d (all integers, d > 0).

    x must be feasible, and y >= 0 with y A = c and y.b = c.x; then every
    feasible point z has c.z = y A z <= y.b = c.x.
    """
    if any(sum(map(mul, row, x)) > d * bi for row, bi in zip(A, b)):
        raise EngineConsistencyError("optimal point violates a constraint")
    if any(v < 0 for v in y):
        raise EngineConsistencyError("optimal dual has a negative entry")
    yA = [0] * len(c)
    for v, row in zip(y, A):
        if v:
            yA = [s + v * a for s, a in zip(yA, row)]
    if yA != [d * cj for cj in c]:
        raise EngineConsistencyError("optimal dual does not reproduce the objective")
    if sum(map(mul, y, b)) != sum(map(mul, c, x)):
        raise EngineConsistencyError("optimal dual bound differs from the optimal value")


class Tableau:
    """max c.x s.t. A x <= b, x free, integer data: a condensed simplex tableau over the denominator D."""

    def __init__(self, A, b, c):
        """The slack basis, which is primal-feasible when b >= 0."""
        n = len(c)
        self.n = n
        self.A, self.b, self.c = list(A), list(b), list(c)
        self.T = [[bi] + list(row) + [-v for v in row] for row, bi in zip(A, b)]
        self.obj = [0] + self.c + [-v for v in self.c]
        self.cols = list(range(2 * n + 1))
        self.basis = [2 * n + 1 + i for i in range(len(A))]
        self.D = 1

    def with_rows(self, rows):
        """A copy with the rows (a, b_i) appended, each written in the current basis.

        The copy keeps the basis and its reduced profits; an appended row's
        right-hand side may be negative, which `dual` then repairs.  Rows
        are shared with the original until a pivot replaces them.
        """
        new = object.__new__(Tableau)
        new.n, new.c, new.D, new.obj = self.n, self.c, self.D, self.obj
        new.A = self.A + [a for a, _ in rows]
        new.b = self.b + [bi for _, bi in rows]
        new.T = self.T[:]
        new.cols = self.cols[:]
        new.basis = self.basis[:]
        for a, bi in rows:
            new._append(a, bi)
        return new

    def _append(self, a, bi):
        """Append a.x <= bi with its slack basic: D*row - sum_i row[basis_i]*T_i clears the basic columns."""
        n, D = self.n, self.D
        coef = [bi] + list(a) + [-v for v in a]  # by variable, 0 the right-hand side; a slack has none
        row = [D * coef[v] if v <= 2 * n else 0 for v in self.cols]
        for X, v in zip(self.T, self.basis):
            f = coef[v] if v <= 2 * n else 0
            if f:
                row = [r - f * w for r, w in zip(row, X)]
        self.basis.append(2 * n + 1 + len(self.T))
        self.T.append(row)

    def _pivot(self, leave, k):
        """Exchange basis[leave] and cols[k]; every other row X goes to (X*p - X[k]*R) // D."""
        T, D = self.T, self.D
        R = T[leave]
        p = R[k]
        s = 1
        if p < 0:
            R, p, s = [-v for v in R], -p, -1
        for i, X in enumerate(T):
            if i == leave:
                continue
            f = X[k]
            if f:
                X = [(v * p - f * w) // D for v, w in zip(X, R)]
                X[k] = -s * f
                T[i] = X
            elif p != D:
                T[i] = [v * p // D for v in X]
        f = self.obj[k]
        if f:
            self.obj = [(v * p - f * w) // D for v, w in zip(self.obj, R)]
            self.obj[k] = -s * f
        elif p != D:
            self.obj = [v * p // D for v in self.obj]
        R = R[:] if s > 0 else R  # an unnegated R may be shared with the tableau this one copies
        R[k] = s * D
        T[leave] = R
        self.D = p
        self.basis[leave], self.cols[k] = self.cols[k], self.basis[leave]

    def primal(self):
        """Bland's rule from a primal-feasible basis.

        Returns None at an optimum, or the stored column of the entering
        variable when no row bounds it: that column spans an improving ray.
        """
        T, basis, cols = self.T, self.basis, self.cols
        width = len(cols)
        while True:
            obj = self.obj
            enter = None
            for k in range(1, width):
                if obj[k] > 0 and (enter is None or cols[k] < cols[enter]):
                    enter = k
            if enter is None:
                return None
            leave = None
            for i, X in enumerate(T):
                a = X[enter]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    lhs = X[0] * T[leave][enter]
                    rhs = T[leave][0] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                return enter
            self._pivot(leave, enter)

    def dual(self):
        """The dual Bland rule from a dual-feasible basis, up to an optimum."""
        T, basis, cols = self.T, self.basis, self.cols
        width = len(cols)
        while True:
            leave = None
            for i, X in enumerate(T):
                if X[0] < 0 and (leave is None or basis[i] < basis[leave]):
                    leave = i
            if leave is None:
                return
            R, obj = T[leave], self.obj
            enter = None
            for k in range(1, width):
                a = R[k]
                if a >= 0:
                    continue
                if enter is None:
                    enter = k
                    continue
                # min ratio obj[k] / a over a < 0, compared with both denominators negative
                lhs, rhs = obj[k] * R[enter], obj[enter] * a
                if lhs < rhs or (lhs == rhs and cols[k] < cols[enter]):
                    enter = k
            if enter is None:
                raise EngineConsistencyError("dual simplex found no entering column: the rows are infeasible")
            self._pivot(leave, enter)

    def optimum(self):
        """The optimal point x and its dual y, integers over D, certified by `_check_optimal`."""
        n = self.n
        vals = [0] * (2 * n + 1)
        for X, v in zip(self.T, self.basis):
            if v <= 2 * n:
                vals[v] = X[0]
        x = [vals[1 + j] - vals[1 + n + j] for j in range(n)]
        y = [0] * len(self.T)
        for v, r in zip(self.cols, self.obj):
            if v > 2 * n:
                y[v - 2 * n - 1] = -r
        _check_optimal(self.A, self.b, self.c, x, y, self.D)
        return x, y


def solve_lp(A, b, c):
    """max c.x s.t. A x <= b, x free, b >= 0; entries are ints, Fractions or anything Fraction takes."""
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A):
        raise ValueError("inconsistent row length")
    flat, L = _scaled([v for row in A for v in row] + list(b))
    A = [flat[i * n:(i + 1) * n] for i in range(m)]
    b = flat[m * n:]
    if any(v < 0 for v in b):
        raise ValueError("right-hand side must be nonnegative")
    c, Lc = _scaled(c)
    tab = Tableau(A, b, c)
    enter = tab.primal()
    D = tab.D
    if enter is not None:
        var = tab.cols[enter]
        d = [0] * (2 * n + 1 + m)
        d[var] = D
        for X, v in zip(tab.T, tab.basis):
            d[v] = -X[enter]
        ray = [d[1 + j] - d[1 + n + j] for j in range(n)]
        if any(sum(a * v for a, v in zip(row, ray)) > 0 for row in A):
            raise EngineConsistencyError("unbounded ray leaves the feasible cone")
        if sum(cj * v for cj, v in zip(c, ray)) <= 0:
            raise EngineConsistencyError("unbounded ray does not improve the objective")
        # the tableau's slack is L times the unscaled one: report a unit step of the latter
        unit = L if var > 2 * n else 1
        return LpSolution(status="unbounded", ray=tuple(Fraction(unit * v, D) for v in ray))
    x, y = tab.optimum()
    return LpSolution(
        status="optimal",
        x=tuple(Fraction(v, D) for v in x),
        objective=Fraction(sum(cj * v for cj, v in zip(c, x)), D * Lc),
        dual=tuple(Fraction(L * v, D * Lc) for v in y),
    )
