import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from chromoduli import arrangement, critical, lp
from chromoduli.arrangement import (
    Chamber,
    _symmetries,
    bounded_chambers_bijective,
    bounded_chambers_lp,
    build_arrangement,
)
from chromoduli.critical import (
    critical_point_reports,
    default_weights,
    gradient,
    hessian,
    log_master,
    solve_all_chambers,
    solve_chamber,
)
from chromoduli.errors import ConvergenceError, EngineConsistencyError
from chromoduli.graphs import SimpleGraph, chromatic_polynomial

from graph_catalog import (
    ORACLE_SETTINGS,
    all_graphs_up_to_4,
    dense_functionals,
    graphs_and_m,
    paw_graph,
    symmetric_graphs_and_m,
)

K1 = SimpleGraph.of([0])
K2 = SimpleGraph.of([0, 1], [(0, 1)])


def _interior_samples(arr, count, seed, low=0.05):
    fns = dense_functionals(arr.graph, arr.m)
    A = np.array([f.coefficients for f in fns], dtype=float)
    b = np.array([f.constant for f in fns], dtype=float)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = rng.uniform(low, arr.m - 2 - low, arr.dimension)
        if np.min(np.abs(A @ z + b)) > 1e-3:
            out.append(z)
    return out


def test_log_master_single_vertex():
    arr = build_arrangement(K1, 3)
    assert log_master(arr, [1.0, 1.0], [0.5]) == pytest.approx(2 * math.log(0.5))


def test_log_master_symmetry_k2():
    arr = build_arrangement(K2, 3)
    u = [1.0, 1.5, 1.0, 1.5, 0.7]
    assert log_master(arr, u, [0.25, 0.75]) == pytest.approx(log_master(arr, u, [0.75, 0.25]))


def test_log_master_blows_down_toward_wall():
    arr = build_arrangement(K1, 3)
    vals = [log_master(arr, [1.0, 1.0], [z]) for z in (0.5, 0.9, 0.99, 0.999)]
    assert vals == sorted(vals, reverse=True)


def test_log_master_rejects_wall_point():
    arr = build_arrangement(K1, 3)
    with pytest.raises(ValueError):
        log_master(arr, [1.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        gradient(arr, [1.0, 1.0], [0.0])


def test_point_of_the_wrong_dimension_is_rejected():
    # a level functional reads the coordinate after the last one as 0
    arr = build_arrangement(K1, 3)
    for bad in ([], [0.5, 0.25]):
        with pytest.raises(ValueError, match="coordinates"):
            log_master(arr, [1.0, 1.0], bad)


def test_gradient_zero_point_single_vertex():
    arr = build_arrangement(K1, 3)
    for u0, u1 in [(1.0, 1.0), (2.0, 1.0), (0.6, 1.9)]:
        z = u0 / (u0 + u1)
        assert gradient(arr, [u0, u1], [z]) == pytest.approx([0.0], abs=1e-12)


def test_gradient_decouples_on_edgeless_graph():
    g = SimpleGraph.of(range(3))
    arr = build_arrangement(g, 4)
    u = default_weights(arr, seed=5)
    z = np.array([0.3, 1.7, 0.9])
    grad = gradient(arr, u, z)
    single = build_arrangement(K1, 4)
    for j in range(3):
        uj = u[3 * j:3 * (j + 1)]
        assert grad[j] == pytest.approx(gradient(single, uj, [z[j]])[0])


def test_gradient_matches_central_differences():
    arr = build_arrangement(paw_graph(), 3)
    u = default_weights(arr, seed=1)
    h = 1e-7
    for z in _interior_samples(arr, 25, seed=2):
        g = gradient(arr, u, z)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (log_master(arr, u, z + e) - log_master(arr, u, z - e)) / (2 * h)
            assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(g[j]))


def test_hessian_negative_definite_inside():
    arr = build_arrangement(K2, 3)
    u = default_weights(arr, seed=3)
    for z in _interior_samples(arr, 10, seed=4):
        H = hessian(arr, u, z)
        np.linalg.cholesky(-np.asarray(H))  # raises if not positive definite


def _oracle(arr, u, z):
    """log_master, gradient and Hessian from the matrix form f = A z + b, with
    the magnitudes of their summands, against which each error is measured."""
    fns = dense_functionals(arr.graph, arr.m)
    A = np.array([f.coefficients for f in fns], dtype=float)
    b = np.array([f.constant for f in fns], dtype=float)
    u = np.asarray(u)
    f = A @ z + b
    terms = u * np.log(np.abs(f))
    return (
        (terms.sum(), np.abs(terms).sum()),
        (A.T @ (u / f), np.abs(A).T @ np.abs(u / f)),
        (-(A.T * (u / f**2)) @ A, (np.abs(A).T * (u / f**2)) @ np.abs(A)),
    )


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4])
def test_kernels_match_the_matrix_form(name, g, m):
    # relative to the summands' magnitudes, so that cancellation in a sum
    # near zero does not hide or fake an error
    arr = build_arrangement(g, m)
    u = default_weights(arr, seed=m)
    for z in _interior_samples(arr, 5, seed=g.n + len(g.edges)):
        value, grad, hess = log_master(arr, u, z), gradient(arr, u, z), hessian(arr, u, z)
        assert type(value) is float and type(grad) is list and type(hess) is list
        assert all(type(x) is float for x in grad + [x for row in hess for x in row])
        for got, (want, scale) in zip((value, grad, hess), _oracle(arr, u, z)):
            assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * scale), name


def test_cholesky_factors_a_positive_definite_matrix():
    a = [[4.0, 2.0, -2.0], [2.0, 10.0, 2.0], [-2.0, 2.0, 6.0]]
    factor = critical._cholesky(a)
    padded = np.array([row + [0.0] * (3 - len(row)) for row in factor])
    assert np.allclose(padded, np.linalg.cholesky(np.array(a)), rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 0.0], [0.0, -1.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, math.nan]],
    ],
    ids=["indefinite", "negative-pivot", "singular", "zero", "nan"],
)
def test_cholesky_rejects_a_matrix_that_is_not_positive_definite(a):
    assert critical._cholesky(a) is None


def test_newton_raises_when_a_step_cannot_factor(monkeypatch):
    arr = build_arrangement(paw_graph(), 3)
    chamber = bounded_chambers_bijective(arr)[0]
    monkeypatch.setattr(critical, "_cholesky", lambda a: None)
    with pytest.raises(ConvergenceError, match="not negative definite"):
        solve_chamber(arr, default_weights(arr), chamber)


def test_failed_certificate_at_the_optimum_is_reported(monkeypatch):
    # with equal weights the witness 1/2 of K1 is already the critical point,
    # so the only factorization is the certificate's
    arr = build_arrangement(K1, 3)
    (chamber,) = bounded_chambers_bijective(arr)
    assert solve_chamber(arr, [1.0, 1.0], chamber).gradient_inf_norm == 0.0
    monkeypatch.setattr(critical, "_cholesky", lambda a: None)
    message = re.escape(f"chamber {chamber.sign_string}: Hessian not negative definite at iteration 1")
    with pytest.raises(ConvergenceError, match=f"^{message}$"):
        solve_chamber(arr, [1.0, 1.0], chamber)
    with pytest.raises(ConvergenceError, match=f"^{message}$"):
        solve_all_chambers(arr, [1.0, 1.0], [chamber])


def test_solve_single_vertex_balanced():
    arr = build_arrangement(K1, 3)
    (c,) = bounded_chambers_bijective(arr)
    r = solve_chamber(arr, [1.0, 1.0], c)
    assert r.point[0] == pytest.approx(0.5, abs=1e-12)
    assert r.gradient_inf_norm <= 1e-10


def test_solve_single_vertex_weighted():
    arr = build_arrangement(K1, 3)
    (c,) = bounded_chambers_bijective(arr)
    r = solve_chamber(arr, [2.0, 1.0], c)
    assert r.point[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_solve_k2_all_chambers():
    arr = build_arrangement(K2, 3)
    chambers = bounded_chambers_bijective(arr)
    u = default_weights(arr, seed=7)
    reports = solve_all_chambers(arr, u, chambers)
    assert len(reports) == 2
    assert all(r.gradient_inf_norm <= 1e-10 for r in reports)


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4])
def test_count_matches_chambers_and_chromatic(name, g, m):
    expected = (-1) ** g.n * chromatic_polynomial(g).evaluate(-(m - 2))
    assert len(bounded_chambers_bijective(build_arrangement(g, m))) == expected
    assert len(critical_point_reports(g, m, seed=0)) == expected


@settings(ORACLE_SETTINGS, max_examples=50)  # 20 draw no 5-vertex graph
@given(graphs_and_m())
def test_newton_count_matches_chromatic_on_random_graphs(graph_and_m):
    g, m = graph_and_m
    expected = (-1) ** g.n * chromatic_polynomial(g).evaluate(-(m - 2))
    assert len(critical_point_reports(g, m)) == expected


def test_solutions_distinct_and_off_walls():
    reports = critical_point_reports(paw_graph(), 3, seed=0)
    assert len(reports) == 12
    pts = np.array([r.point for r in reports])
    # coordinates stay away from the integer levels and from one another
    assert np.min(np.abs(pts - np.round(pts))) >= 1e-8
    for p in pts:
        diffs = np.abs(np.subtract.outer(p, p))[np.triu_indices(len(p), 1)]
        assert np.min(diffs) >= 1e-8
    gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    assert np.min(gaps[np.triu_indices(len(pts), 1)]) >= 1e-8


def test_certificate_uses_the_public_gradient_and_hessian():
    arr = build_arrangement(paw_graph(), 3)
    u = default_weights(arr, seed=0)
    reports = critical_point_reports(paw_graph(), 3, seed=0)
    assert len(reports) == 12
    for r in reports:
        assert r.gradient_inf_norm == np.max(np.abs(gradient(arr, u, r.point)))
        np.linalg.cholesky(-np.asarray(hessian(arr, u, r.point)))  # raises if not positive definite


def test_newton_does_not_call_the_public_functions(monkeypatch):
    def public(*args, **kwargs):
        raise AssertionError("Newton must run the private kernels")

    for name in ("log_master", "gradient", "hessian"):
        monkeypatch.setattr(critical, name, public)
    reports = critical_point_reports(paw_graph(), 3, seed=0)
    assert len(reports) == 12


def test_iteration_budget_raises_and_reports(monkeypatch):
    # the first chamber's failure ends the run: no report is made for any chamber
    arr = build_arrangement(paw_graph(), 3)
    chambers = bounded_chambers_bijective(arr)
    u = default_weights(arr, seed=0)
    monkeypatch.setattr(critical, "MAX_ITERATIONS", 1)
    first = f"^chamber {re.escape(chambers[0].sign_string)}: gradient norm .* after 1 iterations$"
    with pytest.raises(ConvergenceError, match=first):
        solve_chamber(arr, u, chambers[0])
    with pytest.raises(ConvergenceError, match=first):
        solve_all_chambers(arr, u, chambers)


def test_weight_validation():
    arr = build_arrangement(K1, 3)
    with pytest.raises(ValueError):
        log_master(arr, [1.0], [0.5])
    with pytest.raises(ValueError):
        log_master(arr, [1.0, -1.0], [0.5])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            log_master(arr, [1.0, bad], [0.5])


def test_solving_is_deterministic():
    first = critical_point_reports(paw_graph(), 3, seed=0)
    second = critical_point_reports(paw_graph(), 3, seed=0)
    assert [r.sign_string for r in first] == [r.sign_string for r in second]
    assert [r.point for r in first] == [r.point for r in second]


def test_critical_route_solves_no_lp(monkeypatch):
    # nor does it decide a region by the LP route's closure
    def no_lp(*args, **kwargs):
        raise AssertionError("the critical-point route must not solve an LP")

    monkeypatch.setattr(lp.Region, "empty", no_lp)
    monkeypatch.setattr(lp.Region, "with_arc", no_lp)
    k4 = SimpleGraph.of(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    reports = critical_point_reports(k4, 3)
    assert len(reports) == 24


def test_witness_outside_chamber_is_rejected():
    arr = build_arrangement(K2, 3)
    chamber = bounded_chambers_bijective(arr)[0]
    x0, x1 = chamber.nums
    swapped = Chamber(chamber.signs, (x1, x0), chamber.d)  # wrong side of z_0 = z_1
    with pytest.raises(EngineConsistencyError, match="witness lies outside it"):
        solve_chamber(arr, [1.0] * 5, swapped)


def test_default_weights_deterministic_and_in_range():
    arr = build_arrangement(K2, 3)
    u1 = np.asarray(default_weights(arr, seed=11))
    u2 = default_weights(arr, seed=11)
    assert np.array_equal(u1, u2)
    assert np.all((u1 >= 0.5) & (u1 <= 2.0))


def _automorphisms(g):
    """Every automorphism of g, by a scan of all n! vertex maps."""
    edges = {frozenset(e) for e in g.edges}
    for image in itertools.permutations(g.vertices):
        perm = dict(zip(g.vertices, image))
        if {frozenset((perm[u], perm[w])) for u, w in g.edges} == edges:
            yield perm


def _brute_force_group(arr):
    """The group <Aut(G), reflection> as maps of tags and of points (numerators over d)."""
    c = arr.m - 2
    pos = {v: i for i, v in enumerate(arr.graph.vertices)}
    for perm in _automorphisms(arr.graph):
        for reflect in (False, True):
            def tag(t, perm=perm, reflect=reflect):
                if t[0] == "edge":
                    return ("edge", frozenset((perm[t[1]], perm[t[2]])))
                return ("level", perm[t[1]], c - t[2] if reflect else t[2])

            def point(z, d=1, perm=perm, reflect=reflect):
                y = [None] * len(z)
                for v, x in zip(arr.graph.vertices, z):
                    y[pos[perm[v]]] = c * d - x if reflect else x
                return y

            yield tag, point


def _key(t):
    return ("edge", frozenset(t[1:])) if t[0] == "edge" else t


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4, 5])
def test_default_weights_are_one_draw_per_mirror_pair(name, g, m):
    # a mirror pair shares one draw, and so does each orbit of functionals
    # under the automorphisms and the reflection together
    arr = build_arrangement(g, m)
    mirror = _symmetries(arr)[0].index
    u = default_weights(arr, seed=m)
    assert u == default_weights(arr, seed=m)
    assert all(0.5 <= w <= 2.0 for w in u)
    assert all(u[i] == u[j] for i, j in enumerate(mirror))
    fns = dense_functionals(g, m)
    weight = {_key(f.tag): w for f, w in zip(fns, u)}
    orbits = set()
    for tag, _ in _brute_force_group(arr):
        assert all(weight[tag(f.tag)] == w for f, w in zip(fns, u))
    for f in fns:
        orbits.add(frozenset(tag(f.tag) for tag, _ in _brute_force_group(arr)))
    assert len(set(u)) == len(orbits)


def _brute_force_chamber_orbits(arr, chambers):
    """The number of orbits of the chambers under <Aut(G), reflection>, by substitution."""
    fns, maps = dense_functionals(arr.graph, arr.m), [point for _, point in _brute_force_group(arr)]
    orbits = set()
    for chamber in chambers:
        # integer numerators over d; the point maps send d*z to d*(image of z)
        d = math.lcm(*(x.denominator for x in chamber.witness))
        z = [int(x * d) for x in chamber.witness]
        images = [point(z, d) for point in maps]
        orbits.add(min(tuple(1 if f.value(y, d) > 0 else -1 for f in fns) for y in images))
    return len(orbits)


def _spy_starts(monkeypatch):
    real = critical.solve_chamber
    runs = []

    def spy(arr, weights, chamber, index=0, kernel=None, start=None):
        report = real(arr, weights, chamber, index, kernel, start)
        runs.append((start, report))
        return report

    monkeypatch.setattr(critical, "solve_chamber", spy)
    return runs


def test_mirror_started_chambers_are_certified_at_their_own_points(monkeypatch):
    # under the default weights the image of a converged critical point of
    # a chamber's orbit is the chamber's own, up to rounding, so Newton stops
    # at once there; the paw's group (its automorphism and the reflection)
    # acts freely on its 72 chambers at m=4, in 18 orbits
    runs = _spy_starts(monkeypatch)
    arr = build_arrangement(paw_graph(), 4)
    u = default_weights(arr, seed=0)
    reports = critical_point_reports(paw_graph(), 4, seed=0)
    assert len(reports) == 72
    mapped = [r for start, r in runs if start is not None]
    assert len(mapped) == 54
    for r in mapped:
        assert r.iterations <= 2
        assert r.gradient_inf_norm == np.max(np.abs(gradient(arr, u, r.point))) <= 1e-10
        np.linalg.cholesky(-np.asarray(hessian(arr, u, r.point)))  # raises if not positive definite


@pytest.mark.parametrize(
    "name,m,orbits",
    [("paw", 4, 18), ("K4", 3, 1), ("C4", 4, 9)],
    ids=["paw-m4", "K4-m3", "C4-m4"],
)
def test_newton_solves_one_chamber_per_orbit_in_full(monkeypatch, name, m, orbits):
    runs = _spy_starts(monkeypatch)
    g = dict(all_graphs_up_to_4())[name]
    reports = critical_point_reports(g, m, seed=0)
    arr = build_arrangement(g, m)
    chambers = bounded_chambers_bijective(arr)
    assert len(reports) == len(chambers) and _brute_force_chamber_orbits(arr, chambers) == orbits
    assert sum(start is None for start, _ in runs) == orbits


def test_newton_refuses_a_generator_that_is_no_automorphism(monkeypatch):
    # swapping vertices 0 and 1 of the paw sends the edge 0-3 to the non-edge 1-3
    monkeypatch.setattr(arrangement, "automorphism_generators", lambda graph: [(1, 0, 2, 3)])
    arr = build_arrangement(dict(all_graphs_up_to_4())["paw"], 3)
    with pytest.raises(EngineConsistencyError, match="not in the arrangement"):
        default_weights(arr)
    with pytest.raises(EngineConsistencyError, match="not in the arrangement"):
        solve_all_chambers(arr, [1.0] * len(arr.terms), bounded_chambers_bijective(arr))


@settings(ORACLE_SETTINGS, max_examples=30)
@given(symmetric_graphs_and_m())
def test_routes_divide_by_the_symmetry_of_random_symmetric_graphs(graph_and_m):
    # graphs with a forced automorphism: the LP route returns the bijective
    # sign vectors, Newton converges on every chamber, and it solves one
    # chamber per orbit in full, the orbits counted over all n! vertex maps
    g, m = graph_and_m
    arr = build_arrangement(g, m)
    chambers = bounded_chambers_bijective(arr)
    assert [c.signs for c in bounded_chambers_lp(arr)] == [c.signs for c in chambers]
    with pytest.MonkeyPatch.context() as patch:
        runs = _spy_starts(patch)
        reports = solve_all_chambers(arr, default_weights(arr), chambers)
    assert len(reports) == len(chambers)
    assert sum(start is None for start, _ in runs) == _brute_force_chamber_orbits(arr, chambers)
