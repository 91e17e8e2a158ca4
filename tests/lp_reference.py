"""The Fraction-tableau simplex: the tests' reference for `chromoduli.lp`.

A two-phase simplex with Bland's rule in `Fraction` arithmetic, normalising
the pivot row and eliminating the pivot column on every pivot.  With b >= 0,
the only right-hand sides `chromoduli.lp` takes, there is no artificial
column and phase 1 is skipped; phase 2 then takes the same entering and
leaving decisions as that module's integer tableau, so the two return equal
answers (its optimal dual aside, which this one does not compute).  Only
a system with some b_i < 0 can be infeasible; this module checks a Farkas
vector for it and answers "infeasible", a status `chromoduli.lp` never
returns.
"""

from fractions import Fraction

from chromoduli.errors import EngineConsistencyError
from chromoduli.lp import LpSolution


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
    if any(sum(A[i][j] * x[j] for j in range(n)) > b[i] for i in range(m)):
        raise EngineConsistencyError("optimal point violates a constraint")
    objective = sum(c[j] * x[j] for j in range(n))
    return LpSolution(status="optimal", x=x, objective=objective)
