"""Exact linear programming: two-phase simplex with Bland's rule on an integer tableau.

Solves  max c.x  subject to  A x <= b  with x free.  The rational data are
scaled once: A and b together by the lcm L of their denominators (one L for
the whole system, so the phase-1 objective and the pivot path do not
change), c by the lcm of its own.  The tableau then holds Python ints over
one shared positive denominator D (Edmonds/Bareiss fraction-free pivoting):
pivoting on the entry p of row R sends every other row X, objective rows
included, to (X*p - X[col]*R) // D, a division that is always exact, keeps
R, and sets D = p; when p < 0, R is negated first.  Entering and leaving
columns follow Bland's rule, the ratio test by cross-multiplication, so the
pivot sequence is that of a Fraction tableau.

Every answer carries a certificate, re-checked exactly on the scaled
integer data; a failed check raises EngineConsistencyError:

* optimal: the point x with A x <= b and a dual vector y >= 0 with
  y A = c and y.b = c.x, read off the slack columns of the final objective
  row, which proves x optimal;
* infeasible: a Farkas vector y >= 0 with y A = 0 and y.b < 0;
* unbounded: an improving ray d with A d <= 0 and c.d > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EngineConsistencyError


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple | None = None
    objective: Fraction | None = None
    farkas: tuple | None = None
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
    if any(sum(a * v for a, v in zip(row, x)) > d * bi for row, bi in zip(A, b)):
        raise EngineConsistencyError("optimal point violates a constraint")
    if any(v < 0 for v in y):
        raise EngineConsistencyError("optimal dual has a negative entry")
    if any(sum(v * row[j] for v, row in zip(y, A)) != d * cj for j, cj in enumerate(c)):
        raise EngineConsistencyError("optimal dual does not reproduce the objective")
    if sum(v * bi for v, bi in zip(y, b)) != sum(cj * v for cj, v in zip(c, x)):
        raise EngineConsistencyError("optimal dual bound differs from the optimal value")


def solve_lp(A, b, c):
    """max c.x s.t. A x <= b, x free; entries are ints, Fractions or anything Fraction takes."""
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A):
        raise ValueError("inconsistent row length")
    flat, L = _scaled([v for row in A for v in row] + list(b))
    A = [flat[i * n:(i + 1) * n] for i in range(m)]
    b = flat[m * n:]
    c, Lc = _scaled(c)

    eps = [1 if b[i] >= 0 else -1 for i in range(m)]
    art_rows = [i for i in range(m) if eps[i] == -1]
    art_col = {row: 2 * n + m + k for k, row in enumerate(art_rows)}
    ncols = 2 * n + m + len(art_rows)

    # Tableau rows: [xp | xn | slack | artificial | rhs], all over D.
    T = []
    for i in range(m):
        row = [0] * (ncols + 1)
        for j in range(n):
            row[j] = eps[i] * A[i][j]
            row[n + j] = -eps[i] * A[i][j]
        row[2 * n + i] = eps[i]
        if i in art_col:
            row[art_col[i]] = 1
        row[ncols] = eps[i] * b[i]
        T.append(row)
    basis = [art_col[i] if i in art_col else 2 * n + i for i in range(m)]
    live = list(range(m))
    blocked = set()
    D = 1

    def pivot(pr, pc, objrows):
        nonlocal D
        p = T[pr][pc]
        if p < 0:
            T[pr] = [-v for v in T[pr]]
            p = -p
        R = T[pr]
        for X in [T[i] for i in live if i != pr] + objrows:
            f = X[pc]
            if f:
                X[:] = [(v * p - f * w) // D for v, w in zip(X, R)]
            elif p != D:
                X[:] = [v * p // D for v in X]
        D = p
        basis[pr] = pc

    def run_simplex(objrow):
        """Bland's rule; mutates T/basis and objrow. Returns entering col on
        unboundedness, None at optimality."""
        while True:
            enter = next((j for j in range(ncols) if objrow[j] > 0 and j not in blocked), None)
            if enter is None:
                return None
            leave = None
            for i in live:
                a = T[i][enter]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    lhs = T[i][ncols] * T[leave][enter]
                    rhs = T[leave][ncols] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                return enter
            pivot(leave, enter, [objrow])

    def reduced_costs(cost):
        objrow = [D * v for v in cost] + [0]
        for i in live:
            cb = cost[basis[i]]
            if cb != 0:
                objrow = [v - cb * w for v, w in zip(objrow, T[i])]
        return objrow

    if art_rows:
        cost1 = [0] * ncols
        for col in art_col.values():
            cost1[col] = -1
        obj1 = reduced_costs(cost1)
        if run_simplex(obj1) is not None:
            raise EngineConsistencyError("phase-1 objective, bounded above by 0, went unbounded")
        if sum(cost1[basis[i]] * T[i][ncols] for i in live) < 0:
            y = [-obj1[2 * n + i] for i in range(m)]
            if any(v < 0 for v in y):
                raise EngineConsistencyError("Farkas vector has a negative entry")
            if any(sum(v * row[j] for v, row in zip(y, A)) != 0 for j in range(n)):
                raise EngineConsistencyError("Farkas vector does not annihilate the constraint rows")
            if sum(v * bi for v, bi in zip(y, b)) >= 0:
                raise EngineConsistencyError("Farkas vector does not separate the right-hand side")
            return LpSolution(status="infeasible", farkas=tuple(Fraction(v, D) for v in y))
        # Drive any residual artificials out of the basis.
        for i in list(live):
            if basis[i] in art_col.values():
                col = next((j for j in range(2 * n + m) if T[i][j] != 0), None)
                if col is None:
                    live.remove(i)  # redundant row
                else:
                    pivot(i, col, [])
        blocked.update(art_col.values())

    cost2 = [0] * ncols
    for j in range(n):
        cost2[j] = c[j]
        cost2[n + j] = -c[j]
    obj2 = reduced_costs(cost2)
    enter = run_simplex(obj2)
    if enter is not None:
        d = [0] * ncols
        d[enter] = D
        for i in live:
            d[basis[i]] = -T[i][enter]
        ray = [d[j] - d[n + j] for j in range(n)]
        if any(sum(a * v for a, v in zip(row, ray)) > 0 for row in A):
            raise EngineConsistencyError("unbounded ray leaves the feasible cone")
        if sum(cj * v for cj, v in zip(c, ray)) <= 0:
            raise EngineConsistencyError("unbounded ray does not improve the objective")
        # the tableau's slack is L times the unscaled one: report a unit step of the latter
        unit = L if enter >= 2 * n else 1
        return LpSolution(status="unbounded", ray=tuple(Fraction(unit * v, D) for v in ray))

    vals = [0] * ncols
    for i in live:
        vals[basis[i]] = T[i][ncols]
    x = [vals[j] - vals[n + j] for j in range(n)]
    y = [-obj2[2 * n + i] for i in range(m)]
    _check_optimal(A, b, c, x, y, D)
    return LpSolution(
        status="optimal",
        x=tuple(Fraction(v, D) for v in x),
        objective=Fraction(sum(cj * v for cj, v in zip(c, x)), D * Lc),
        dual=tuple(Fraction(L * v, D * Lc) for v in y),
    )
