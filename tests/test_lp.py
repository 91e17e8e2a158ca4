import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from chromoduli import lp
from chromoduli.errors import EngineConsistencyError
from chromoduli.lp import solve_lp

from lp_reference import solve_lp as reference_solve_lp


def test_simple_optimum():
    # max x + y s.t. x <= 1, y <= 2
    sol = solve_lp([[1, 0], [0, 1]], [1, 2], [1, 1])
    assert sol.status == "optimal"
    assert sol.x == (Fraction(1), Fraction(2))
    assert sol.objective == 3


def test_exact_rational_optimum():
    # max y s.t. 3y <= 1, -x <= 0, x + y <= 1
    sol = solve_lp([[0, 3], [-1, 0], [1, 1]], [1, 0, 1], [0, 1])
    assert sol.status == "optimal"
    assert sol.x[1] == Fraction(1, 3)


def test_negative_right_hand_side_is_refused():
    # x = 0 must be feasible: the simplex starts at the slack basis, with no phase 1
    with pytest.raises(ValueError):
        solve_lp([[1], [-1]], [0, Fraction(-1, 2)], [1])


def test_unbounded_with_ray_certificate():
    A = [[-1, 0]]
    b = [0]
    c = [1, 0]
    sol = solve_lp(A, b, c)
    assert sol.status == "unbounded"
    ray = sol.ray
    assert sum(c[j] * ray[j] for j in range(2)) > 0
    assert all(sum(A[i][j] * ray[j] for j in range(2)) <= 0 for i in range(1))


def test_no_constraints():
    assert solve_lp([], [], [0, 0]).status == "optimal"
    assert solve_lp([], [], [1, 0]).status == "unbounded"


def test_degenerate_equality_like():
    # x <= 0 and -x <= 0 pin x = 0
    sol = solve_lp([[1], [-1]], [0, 0], [1])
    assert sol.status == "optimal"
    assert sol.x == (Fraction(0),)
    assert sol.objective == 0


def test_random_instances_against_scipy():
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(20240401)
    agree = unbounded = 0
    for _ in range(80):
        m = rng.randint(1, 5)
        n = rng.randint(1, 3)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 3) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        ours = solve_lp(A, b, c)
        ref = scipy_linprog(
            [-x for x in c], A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs"
        )
        if ref.status == 0:
            assert ours.status == "optimal"
            assert abs(float(ours.objective) - (-ref.fun)) <= 1e-7
            agree += 1
        else:
            # b >= 0 makes x = 0 feasible, so the only other answer is unbounded
            assert ref.status == 3 and ours.status == "unbounded"
            unbounded += 1
    assert agree > 10 and unbounded > 10  # the sample must include plenty of both


def test_optimal_dual_certificate():
    # max x + y s.t. x <= 1, y <= 2, x + y <= 5/2: the third row binds with x
    A = [[1, 0], [0, 1], [1, 1]]
    b = [1, 2, Fraction(5, 2)]
    c = [1, 1]
    sol = solve_lp(A, b, c)
    assert sol.status == "optimal" and sol.objective == Fraction(5, 2)
    y = sol.dual
    assert all(v >= 0 for v in y)
    assert [sum(y[i] * A[i][j] for i in range(3)) for j in range(2)] == c
    assert sum(y[i] * b[i] for i in range(3)) == sol.objective


def test_dual_is_rescaled_from_the_integer_data():
    # fractional A, b and c are scaled by different lcms before solving
    A = [[Fraction(1, 2), 0], [0, Fraction(1, 3)], [-1, 0], [0, -1]]
    b = [Fraction(3, 4), 1, 0, 0]
    c = [Fraction(2, 5), Fraction(1, 7)]
    sol = solve_lp(A, b, c)
    assert sol.x == (Fraction(3, 2), Fraction(3))
    assert sol.dual == (Fraction(4, 5), Fraction(3, 7), 0, 0)


def test_check_optimal_accepts_a_certified_optimum():
    # max x s.t. x <= 1, -x <= 0: x = 1 with y = (1, 0), all over d = 2
    lp._check_optimal([[1], [-1]], [1, 0], [1], x=[2], y=[2, 0], d=2)


@pytest.mark.parametrize(
    "x,y",
    [
        ([2], [2, 1]),  # perturbed dual: y A != c
        ([2], [3, 1]),  # perturbed dual: y A = c, but y.b != c.x
        ([2], [-2, -4]),  # negative dual
        ([1], [2, 0]),  # feasible but suboptimal point
        ([4], [2, 0]),  # infeasible point
    ],
)
def test_check_optimal_rejects_a_wrong_certificate(x, y):
    with pytest.raises(EngineConsistencyError):
        lp._check_optimal([[1], [-1]], [1, 0], [1], x=x, y=y, d=2)


def _random_rational(rng):
    if rng.random() < 0.3:
        return 0
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 4, 6]))


def test_matches_the_fraction_tableau_on_random_rational_lps():
    rng = random.Random(20261018)
    statuses = Counter()
    for _ in range(2000):
        m = rng.randint(0, 7)
        n = rng.randint(1, 4)
        A = [[_random_rational(rng) for _ in range(n)] for _ in range(m)]
        b = [abs(_random_rational(rng)) for _ in range(m)]
        c = [_random_rational(rng) for _ in range(n)]
        ours = solve_lp(A, b, c)
        assert replace(ours, dual=None) == reference_solve_lp(A, b, c)
        statuses[ours.status] += 1
    assert statuses.keys() == {"optimal", "unbounded"}
    assert min(statuses.values()) >= 300


def test_dual_simplex_after_an_added_row_matches_the_fraction_tableau():
    # optimize, append a row the optimum violates, re-optimize by the dual
    # simplex: the optimal value equals a cold solve on all the rows; a
    # second sibling solved from the same parent afterwards must see the
    # parent as it was, not the first sibling's pivots
    rng = random.Random(20261019)
    warm = second = 0
    for _ in range(2000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 5) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        tab = lp.Tableau(A, b, c)
        if tab.primal() is not None:
            continue
        x, y = tab.optimum()
        parent = repr((tab.D, tab.obj, tab.T, tab.cols, tab.basis))
        solved = 0
        for _ in range(2):
            row = [rng.randint(-4, 4) for _ in range(n)]
            rhs = rng.randint(0, 3)
            if sum(a * v for a, v in zip(row, x)) <= rhs * tab.D:
                continue
            child = tab.with_rows([(row, rhs)])
            child.dual()
            cx, _ = child.optimum()
            ref = reference_solve_lp(A + [row], b + [rhs], c)
            assert ref.status == "optimal"
            assert Fraction(sum(cj * v for cj, v in zip(c, cx)), child.D) == ref.objective
            assert tab.optimum() == (x, y)  # the parent tableau is left as it was
            assert repr((tab.D, tab.obj, tab.T, tab.cols, tab.basis)) == parent
            assert child.cols is not tab.cols
            solved += 1
        warm += solved
        second += solved == 2
    assert warm > 200 and second > 50


def test_dual_simplex_with_no_entering_column_raises():
    # max x s.t. x <= 1, then x >= 2 appended: the rows are infeasible
    tab = lp.Tableau([[1]], [1], [1])
    assert tab.primal() is None
    child = tab.with_rows([([-1], -2)])
    with pytest.raises(EngineConsistencyError, match="no entering column"):
        child.dual()
