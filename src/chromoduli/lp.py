"""Exact linear programming: one-phase simplex with Bland's rule on an integer tableau.

Solves  max c.x  subject to  A x <= b  with x free and b >= 0, so x = 0 is
feasible and the simplex starts at the slack basis with no phase 1; a
negative right-hand side raises ValueError.  The rational data are scaled
once: A and b together by the lcm L of their denominators, c by the lcm of
its own.  The tableau then holds Python ints over one shared positive
denominator D (Edmonds/Bareiss fraction-free pivoting): pivoting on the
entry p > 0 of row R sends every other row X, the objective row included,
to (X*p - X[col]*R) // D, a division that is always exact, keeps R, and
sets D = p.  Entering and leaving columns follow Bland's rule, the ratio
test by cross-multiplication, so the pivot sequence is that of a Fraction
tableau.

Every answer carries a certificate, re-checked exactly on the scaled
integer data; a failed check raises EngineConsistencyError:

* optimal: the point x with A x <= b and a dual vector y >= 0 with
  y A = c and y.b = c.x, read off the slack columns of the final objective
  row, which proves x optimal;
* unbounded: an improving ray d with A d <= 0 and c.d > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    if any(sum(a * v for a, v in zip(row, x)) > d * bi for row, bi in zip(A, b)):
        raise EngineConsistencyError("optimal point violates a constraint")
    if any(v < 0 for v in y):
        raise EngineConsistencyError("optimal dual has a negative entry")
    if any(sum(v * row[j] for v, row in zip(y, A)) != d * cj for j, cj in enumerate(c)):
        raise EngineConsistencyError("optimal dual does not reproduce the objective")
    if sum(v * bi for v, bi in zip(y, b)) != sum(cj * v for cj, v in zip(c, x)):
        raise EngineConsistencyError("optimal dual bound differs from the optimal value")


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
    ncols = 2 * n + m

    # Tableau rows: [xp | xn | slack | rhs], all over D, starting at the slack basis.
    T = [row + [-v for v in row] + [int(k == i) for k in range(m)] + [bi]
         for i, (row, bi) in enumerate(zip(A, b))]
    basis = [2 * n + i for i in range(m)]
    obj = c + [-v for v in c] + [0] * (m + 1)
    D = 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
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
            d = [0] * ncols
            d[enter] = D
            for i in range(m):
                d[basis[i]] = -T[i][enter]
            ray = [d[j] - d[n + j] for j in range(n)]
            if any(sum(a * v for a, v in zip(row, ray)) > 0 for row in A):
                raise EngineConsistencyError("unbounded ray leaves the feasible cone")
            if sum(cj * v for cj, v in zip(c, ray)) <= 0:
                raise EngineConsistencyError("unbounded ray does not improve the objective")
            # the tableau's slack is L times the unscaled one: report a unit step of the latter
            unit = L if enter >= 2 * n else 1
            return LpSolution(status="unbounded", ray=tuple(Fraction(unit * v, D) for v in ray))
        R = T[leave]
        p = R[enter]
        for X in T + [obj]:
            if X is R:
                continue
            f = X[enter]
            if f:
                X[:] = [(v * p - f * w) // D for v, w in zip(X, R)]
            elif p != D:
                X[:] = [v * p // D for v in X]
        D = p
        basis[leave] = enter

    vals = [0] * ncols
    for i in range(m):
        vals[basis[i]] = T[i][ncols]
    x = [vals[j] - vals[n + j] for j in range(n)]
    y = [-obj[2 * n + i] for i in range(m)]
    _check_optimal(A, b, c, x, y, D)
    return LpSolution(
        status="optimal",
        x=tuple(Fraction(v, D) for v in x),
        objective=Fraction(sum(cj * v for cj, v in zip(c, x)), D * Lc),
        dual=tuple(Fraction(L * v, D * Lc) for v in y),
    )
