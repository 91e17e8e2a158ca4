"""Exact linear programming: primal and dual simplex with Bland's rule on an integer tableau.

A `Tableau` holds  max c.x  subject to  A x <= b  with x free and integer
data.  Its entries are Python ints over one shared positive denominator D
(Edmonds/Bareiss fraction-free pivoting).  Columns: 0 the right-hand side,
1..n the x+ parts, n+1..2n the x- parts, then one slack per row in row
order.  One pivot routine serves two loops:

* `primal` keeps a primal-feasible basis and follows Bland's rule: the
  lowest column with a positive reduced profit enters, the minimum ratio
  leaves, ties to the lowest basic column;
* `dual` keeps a dual-feasible basis and follows the dual Bland rule: the
  row with a negative right-hand side and the lowest basic column leaves,
  the column with the minimum ratio enters, ties to the lowest column.

Pivoting on the entry p of row R sends every other row X, the objective
row included, to (X*p - X[col]*R) // D, a division that is always exact,
keeps R, and sets D = p.  A negative p (every dual pivot) negates R first,
so D stays positive.  Ratios are compared by cross-multiplication, so the
pivot sequence is that of a Fraction tableau.

`with_rows` is the warm start: it copies a tableau and appends rows, each
written in the current basis as D*row - sum_i row[basis_i]*T_i, with its
own slack basic.  The reduced profits do not change, so an optimal basis
stays dual-feasible and `dual` re-optimizes in a few pivots.

`solve_lp(A, b, c)` is the one-shot entry: it scales rational data once (A
and b together by the lcm L of their denominators, c by the lcm of its
own), requires b >= 0 so that x = 0 is feasible at the slack basis, and
runs `primal` with no phase 1; a negative right-hand side raises
ValueError.

Every answer carries a certificate, re-checked exactly on the integer
data; a failed check raises EngineConsistencyError:

* optimal: the point x with A x <= b and a dual vector y >= 0 with
  y A = c and y.b = c.x, read off the slack columns of the final objective
  row, which proves x optimal (`Tableau.optimum`);
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
    """max c.x s.t. A x <= b, x free, integer data: a simplex tableau over the denominator D."""

    def __init__(self, A, b, c):
        """The slack basis, which is primal-feasible when b >= 0."""
        n, m = len(c), len(A)
        self.n = n
        self.A, self.b, self.c = list(A), list(b), list(c)
        self.T = [
            [bi] + list(row) + [-v for v in row] + [int(k == i) for k in range(m)]
            for i, (row, bi) in enumerate(zip(A, b))
        ]
        self.obj = [0] + self.c + [-v for v in self.c] + [0] * m
        self.basis = [2 * n + 1 + i for i in range(m)]
        self.D = 1

    def with_rows(self, rows):
        """A copy with the rows (a, b_i) appended, each written in the current basis.

        The copy keeps the basis and its reduced profits; an appended row's
        right-hand side may be negative, which `dual` then repairs.
        """
        new = object.__new__(Tableau)
        pad = [0] * len(rows)
        new.n, new.c, new.D = self.n, self.c, self.D
        new.A = self.A + [a for a, _ in rows]
        new.b = self.b + [bi for _, bi in rows]
        new.T = [X + pad for X in self.T]
        new.obj = self.obj + pad
        new.basis = self.basis[:]
        for a, bi in rows:
            new._append(a, bi)
        return new

    def _append(self, a, bi):
        """Append a.x <= bi with its slack basic: D*row - sum_i row[basis_i]*T_i clears the basic columns."""
        n, D, T = self.n, self.D, self.T
        slack = 2 * n + 1 + len(T)
        row = [D * bi] + [D * v for v in a] + [-D * v for v in a] + [0] * (len(self.obj) - 2 * n - 1)
        row[slack] = D
        for X, col in zip(T, self.basis):
            if col <= 2 * n:
                f = a[col - 1] if col <= n else -a[col - n - 1]
                if f:
                    row = [v - f * w for v, w in zip(row, X)]
        T.append(row)
        self.basis.append(slack)

    def _pivot(self, leave, enter):
        T, D = self.T, self.D
        R = T[leave]
        p = R[enter]
        if p < 0:
            R[:] = [-v for v in R]
            p = -p
        for X in T + [self.obj]:
            if X is R:
                continue
            f = X[enter]
            if f:
                X[:] = [(v * p - f * w) // D for v, w in zip(X, R)]
            elif p != D:
                X[:] = [v * p // D for v in X]
        self.D = p
        self.basis[leave] = enter

    def primal(self):
        """Bland's rule from a primal-feasible basis.

        Returns None at an optimum, or the entering column that no row
        bounds, which spans an improving ray.
        """
        T, obj, basis = self.T, self.obj, self.basis
        width = len(obj)
        while True:
            enter = next((j for j in range(1, width) if obj[j] > 0), None)
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
        T, obj, basis = self.T, self.obj, self.basis
        width = len(obj)
        while True:
            leave = None
            for i, X in enumerate(T):
                if X[0] < 0 and (leave is None or basis[i] < basis[leave]):
                    leave = i
            if leave is None:
                return
            R = T[leave]
            enter = None
            for j in range(1, width):
                a = R[j]
                # min ratio obj[j] / a over a < 0, compared with both denominators negative
                if a < 0 and (enter is None or obj[j] * R[enter] < obj[enter] * a):
                    enter = j
            if enter is None:
                raise EngineConsistencyError("dual simplex found no entering column: the rows are infeasible")
            self._pivot(leave, enter)

    def optimum(self):
        """The optimal point x and its dual y, integers over D, certified by `_check_optimal`."""
        n = self.n
        vals = [0] * len(self.obj)
        for X, col in zip(self.T, self.basis):
            vals[col] = X[0]
        x = [vals[1 + j] - vals[1 + n + j] for j in range(n)]
        y = [-v for v in self.obj[2 * n + 1:]]
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
        d = [0] * len(tab.obj)
        d[enter] = D
        for X, col in zip(tab.T, tab.basis):
            d[col] = -X[enter]
        ray = [d[1 + j] - d[1 + n + j] for j in range(n)]
        if any(sum(a * v for a, v in zip(row, ray)) > 0 for row in A):
            raise EngineConsistencyError("unbounded ray leaves the feasible cone")
        if sum(cj * v for cj, v in zip(c, ray)) <= 0:
            raise EngineConsistencyError("unbounded ray does not improve the objective")
        # the tableau's slack is L times the unscaled one: report a unit step of the latter
        unit = L if enter > 2 * n else 1
        return LpSolution(status="unbounded", ray=tuple(Fraction(unit * v, D) for v in ray))
    x, y = tab.optimum()
    return LpSolution(
        status="optimal",
        x=tuple(Fraction(v, D) for v in x),
        objective=Fraction(sum(cj * v for cj, v in zip(c, x)), D * Lc),
        dual=tuple(Fraction(L * v, D * Lc) for v in y),
    )
