"""The Fraction-tableau simplex: the tests' reference LP solver.

max c.x  subject to  A x <= b  with x free, by a two-phase simplex with
Bland's rule in `Fraction` arithmetic, normalising the pivot row and
eliminating the pivot column on every pivot.  With b >= 0 there is no
artificial column and phase 1 is skipped.  Every answer carries a
certificate, re-checked exactly; a failed check raises
EngineConsistencyError:

* optimal: the point x and a dual vector y >= 0 with y A = c and
  y.b = c.x, read off the final reduced costs of the slack columns
  (`_check_optimal`);
* unbounded: an improving ray d with A d <= 0 and c.d > 0;
* infeasible (only possible with some b_i < 0): a Farkas vector y >= 0
  with y A = 0 and y.b < 0.

`margin_lp` decides a system of strict difference constraints with it, by
the margin LP that `chromoduli.lp`'s shortest-path closure replaced.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from chromoduli.errors import EngineConsistencyError


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: tuple | None = None
    objective: Fraction | None = None
    ray: tuple | None = None
    dual: tuple | None = None  # with x: y >= 0, y A = c, y.b = objective


def _check_optimal(A, b, c, x, y, d):
    """Certify x/d optimal for max c.x s.t. A x <= b by the dual y/d (d > 0).

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


def solve_lp(A, b, c):
    """max c.x s.t. A x <= b, x free; A is a list of rows of Fractions."""
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    if any(len(row) != n for row in A):
        raise ValueError("inconsistent row length")

    eps = [1 if b[i] >= 0 else -1 for i in range(m)]
    art_rows = [i for i in range(m) if eps[i] == -1]
    art_col = {row: 2 * n + m + k for k, row in enumerate(art_rows)}
    ncols = 2 * n + m + len(art_rows)

    # Tableau rows: [xp | xn | slack | artificial | rhs]
    T = []
    for i in range(m):
        row = [Fraction(0)] * (ncols + 1)
        for j in range(n):
            row[j] = eps[i] * A[i][j]
            row[n + j] = -eps[i] * A[i][j]
        row[2 * n + i] = Fraction(eps[i])
        if i in art_col:
            row[art_col[i]] = Fraction(1)
        row[ncols] = eps[i] * b[i]
        T.append(row)
    basis = [art_col[i] if i in art_col else 2 * n + i for i in range(m)]
    live = list(range(m))
    blocked = set()

    def pivot(pr, pc):
        piv = T[pr][pc]
        T[pr] = [v / piv for v in T[pr]]
        for i in live:
            if i != pr and T[i][pc] != 0:
                f = T[i][pc]
                T[i] = [v - f * w for v, w in zip(T[i], T[pr])]
        basis[pr] = pc

    def run_simplex(objrow):
        """Bland's rule; mutates T/basis and objrow. Returns entering col on
        unboundedness, None at optimality."""
        while True:
            enter = None
            for j in range(ncols):
                if j not in blocked and objrow[j] > 0:
                    enter = j
                    break
            if enter is None:
                return None
            leave = None
            best = None
            for i in live:
                if T[i][enter] > 0:
                    ratio = T[i][ncols] / T[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return enter
            pivot(leave, enter)
            f = objrow[enter]
            objrow[:] = [v - f * w for v, w in zip(objrow, T[leave])]

    def reduced_costs(cost):
        objrow = list(cost) + [Fraction(0)]
        for i in live:
            cb = cost[basis[i]]
            if cb != 0:
                objrow = [v - cb * w for v, w in zip(objrow, T[i])]
        return objrow

    if art_rows:
        cost1 = [Fraction(0)] * ncols
        for col in art_col.values():
            cost1[col] = Fraction(-1)
        obj1 = reduced_costs(cost1)
        if run_simplex(obj1) is not None:
            raise EngineConsistencyError("phase-1 objective, bounded above by 0, went unbounded")
        value1 = sum(cost1[basis[i]] * T[i][ncols] for i in live)
        if value1 < 0:
            y = tuple(-obj1[2 * n + i] for i in range(m))
            if any(v < 0 for v in y):
                raise EngineConsistencyError("Farkas vector has a negative entry")
            if any(sum(y[i] * A[i][j] for i in range(m)) != 0 for j in range(n)):
                raise EngineConsistencyError("Farkas vector does not annihilate the constraint rows")
            if sum(y[i] * b[i] for i in range(m)) >= 0:
                raise EngineConsistencyError("Farkas vector does not separate the right-hand side")
            return LpSolution(status="infeasible")
        # Drive any residual artificials out of the basis.
        for i in list(live):
            if basis[i] in art_col.values():
                col = next(
                    (j for j in range(2 * n + m) if T[i][j] != 0),
                    None,
                )
                if col is None:
                    live.remove(i)  # redundant row
                else:
                    pivot(i, col)
        blocked.update(art_col.values())

    cost2 = [Fraction(0)] * ncols
    for j in range(n):
        cost2[j] = c[j]
        cost2[n + j] = -c[j]
    obj2 = reduced_costs(cost2)
    enter = run_simplex(obj2)
    if enter is not None:
        d = [Fraction(0)] * ncols
        d[enter] = Fraction(1)
        for i in live:
            d[basis[i]] = -T[i][enter]
        ray = tuple(d[j] - d[n + j] for j in range(n))
        if any(sum(A[i][j] * ray[j] for j in range(n)) > 0 for i in range(m)):
            raise EngineConsistencyError("unbounded ray leaves the feasible cone")
        if sum(c[j] * ray[j] for j in range(n)) <= 0:
            raise EngineConsistencyError("unbounded ray does not improve the objective")
        return LpSolution(status="unbounded", ray=ray)

    vals = [Fraction(0)] * ncols
    for i in live:
        vals[basis[i]] = T[i][ncols]
    x = tuple(vals[j] - vals[n + j] for j in range(n))
    # a slack's reduced cost is minus its row's dual; a row dropped as redundant has none
    y = tuple(-obj2[2 * n + i] if i in live else Fraction(0) for i in range(m))
    _check_optimal(A, b, c, x, y, 1)
    objective = sum(c[j] * x[j] for j in range(n))
    return LpSolution(status="optimal", x=x, objective=objective, dual=y)


def margin_lp(size, arcs):
    """The largest margin t <= 1 of the strict constraints z_b - z_a < w, one per arc (a, b, w).

    max t s.t. z_b - z_a + t <= w per arc over the nodes 0..size-1, with
    z_0 = 0; t is written u - s, s the largest |w|, so that every
    right-hand side is >= 0 and no phase 1 runs.  The answer is positive
    exactly when the strict system has a solution.
    """
    s = max((abs(w) for _, _, w in arcs), default=0)
    A = [[0] * size + [1], [1] + [0] * size, [-1] + [0] * size]
    b = [1 + s, 0, 0]
    for a, head, w in arcs:
        row = [0] * (size + 1)
        row[head] += 1
        row[a] -= 1
        row[size] = 1
        A.append(row)
        b.append(w + s)
    sol = solve_lp(A, b, [0] * size + [1])
    if sol.status != "optimal":
        raise EngineConsistencyError("the capped margin LP has no optimum")
    return sol.objective - s
