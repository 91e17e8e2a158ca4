import itertools
import random
from fractions import Fraction

import pytest

import lp_reference
from chromoduli.errors import EngineConsistencyError
from chromoduli.lp import Region

from lp_reference import margin_lp, solve_lp

# The first tests check the Fraction simplex of lp_reference.py, the
# reference by which the later ones check the closure of `chromoduli.lp`.


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


def test_negative_right_hand_side_runs_phase_one():
    # x <= 0 and x >= 1/2 are infeasible, certified by a Farkas vector;
    # x <= 1 and x >= 1/2 are not, and min x is 1/2 with its dual
    assert solve_lp([[1], [-1]], [0, Fraction(-1, 2)], [1]).status == "infeasible"
    sol = solve_lp([[1], [-1]], [1, Fraction(-1, 2)], [-1])
    assert sol.status == "optimal" and sol.x == (Fraction(1, 2),) and sol.dual == (0, 1)


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
    # fractional A, b and c; the dual is exact in the data's own scale
    A = [[Fraction(1, 2), 0], [0, Fraction(1, 3)], [-1, 0], [0, -1]]
    b = [Fraction(3, 4), 1, 0, 0]
    c = [Fraction(2, 5), Fraction(1, 7)]
    sol = solve_lp(A, b, c)
    assert sol.x == (Fraction(3, 2), Fraction(3))
    assert sol.dual == (Fraction(4, 5), Fraction(3, 7), 0, 0)


def test_check_optimal_accepts_a_certified_optimum():
    # max x s.t. x <= 1, -x <= 0: x = 1 with y = (1, 0), all over d = 2
    lp_reference._check_optimal([[1], [-1]], [1, 0], [1], x=[2], y=[2, 0], d=2)


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
        lp_reference._check_optimal([[1], [-1]], [1, 0], [1], x=x, y=y, d=2)


def _random_rational(rng):
    if rng.random() < 0.3:
        return 0
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 4, 6]))


def _cold_closure(size, arcs):
    """All-pairs shortest distances of the integer arcs, by Floyd-Warshall from scratch."""
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(size)] for i in range(size)]
    for a, b, w in arcs:
        dist[a][b] = min(dist[a][b], size * w - 1)
    for k, i, j in itertools.product(range(size), repeat=3):
        dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return dist


def _random_arcs(rng, size, count):
    return [(a, b, rng.randint(-2, 3)) for a, b in (rng.sample(range(size), 2) for _ in range(count))]


def test_closure_matches_the_fraction_tableau_on_random_difference_systems():
    # add random strict constraints z_b - z_a < w one at a time, up to the
    # first refusal: the margin LP of the last region kept has a positive
    # optimum, that of the refused one does not; a kept region's potentials
    # satisfy each of its constraints with slack >= 1/size
    rng = random.Random(20261019)
    refused = kept = 0
    for _ in range(120):
        size = rng.randint(2, 6)
        # a box |z_v - z_0| < 3 first, so every potential is finite
        arcs = [arc for v in range(1, size) for arc in ((0, v, 3), (v, 0, 3))]
        region = Region.empty(size)
        for arc in arcs:
            region = region.with_arc(*arc)
        for arc in _random_arcs(rng, size, rng.randint(1, 3 * size)):
            child = region.with_arc(*arc)
            if child is None:
                assert margin_lp(size, arcs + [arc]) <= 0
                cycle = region.cycle(*arc)
                assert cycle[-1] == arc and sum(w for _, _, w in cycle) <= 0
                refused += 1
                break
            region = child
            arcs.append(arc)
            z = region.dist[rng.randrange(size)]
            assert all(z[b] - z[a] <= size * w - 1 for a, b, w in arcs)
        assert margin_lp(size, arcs) > 0
        kept += len(arcs)
    assert refused > 50 and kept > 1000


def test_an_added_arc_matches_a_cold_closure_and_leaves_the_parent():
    # the O(size^2) update equals Floyd-Warshall on all the arcs; two
    # children of one region share its unchanged rows and leave it as it was
    rng = random.Random(20261020)
    children = 0
    for _ in range(300):
        size = rng.randint(2, 6)
        region = Region.empty(size)
        for arc in _random_arcs(rng, size, rng.randint(1, 2 * size)):
            region = region.with_arc(*arc) or region
        parent = repr(region.dist)
        arcs = list(region.arcs())
        assert region.dist == _cold_closure(size, arcs)
        for arc in _random_arcs(rng, size, 2):
            child = region.with_arc(*arc)
            if child is not None:
                assert child.dist == _cold_closure(size, arcs + [arc])
                assert list(child.arcs()) == [arc] + arcs
                children += 1
            assert repr(region.dist) == parent
    assert children > 300


@pytest.mark.parametrize(
    "broken",
    [
        lambda cycle: cycle[1:],  # does not close
        lambda cycle: [(a, b, w + 5) for a, b, w in cycle],  # arcs the region does not have
        lambda cycle: cycle + cycle[:1],  # an arc twice: the walk breaks
        lambda cycle: [(0, 1, 1), (1, 0, 0)],  # the region's own cycle, of weight 1 > 0
    ],
    ids=["open", "foreign-arcs", "broken-walk", "positive-weight"],
)
def test_a_refusal_whose_cycle_does_not_certify_raises(monkeypatch, broken):
    # z_1 - z_0 < 1 and z_0 - z_1 < -1 sum to 0 < 0 around the cycle 0 -> 1 -> 0
    region = Region.empty(2).with_arc(0, 1, 1).with_arc(1, 0, 0)
    assert region.cycle(1, 0, -1) == [(0, 1, 1), (1, 0, -1)]
    assert region.with_arc(1, 0, -1) is None
    real = Region.cycle
    monkeypatch.setattr(Region, "cycle", lambda self, a, b, w: broken(real(self, a, b, w)))
    with pytest.raises(EngineConsistencyError, match="refused region's cycle"):
        region.with_arc(1, 0, -1)
