from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromoduli import arrangement, lp
from chromoduli.arrangement import (
    bounded_chambers_bijective,
    bounded_chambers_lp,
    build_arrangement,
    chamber_to_pair,
    pair_to_chamber,
)
from chromoduli.errors import BudgetExceededError, EngineConsistencyError
from chromoduli.graphs import SimpleGraph, chromatic_polynomial

from graph_catalog import ORACLE_SETTINGS, all_graphs_up_to_4, graphs_and_m, paw_graph, simple_graphs

K2 = SimpleGraph.of([0, 1], [(0, 1)])
K3 = SimpleGraph.of(range(3), [(0, 1), (1, 2), (0, 2)])


def test_build_counts():
    assert len(build_arrangement(SimpleGraph.of([0]), 3).functionals) == 2
    assert len(build_arrangement(K2, 3).functionals) == 5
    assert len(build_arrangement(paw_graph(), 3).functionals) == 12  # 4*2 + 4 edges


def test_build_rejects_small_m():
    with pytest.raises(ValueError):
        build_arrangement(K2, 2)


def test_functional_structure():
    arr = build_arrangement(K2, 4)
    levels = [f for f in arr.functionals if f.tag[0] == "level"]
    edges = [f for f in arr.functionals if f.tag[0] == "edge"]
    assert len(levels) == 6 and len(edges) == 1
    for f in levels:
        v, i = f.tag[1], f.tag[2]
        assert f.constant == -i
        assert sorted(f.coefficients) == [0, 1]
        assert f.weight == 1
    (e,) = edges
    assert sorted(e.coefficients) == [-1, 1] and e.constant == 0 and e.weight == 2
    # deterministic order: all vertex levels first, then edges
    tags = [f.tag[0] for f in arr.functionals]
    assert tags == ["level"] * 6 + ["edge"]


def test_single_vertex_chamber():
    arr = build_arrangement(SimpleGraph.of([0]), 3)
    chambers = bounded_chambers_bijective(arr)
    assert len(chambers) == 1
    assert chambers[0].witness == (Fraction(1, 2),)
    assert len(bounded_chambers_lp(arr)) == 1


def test_edgeless_chamber_counts():
    for n in (1, 2, 3):
        for m in (3, 4):
            g = SimpleGraph.of(range(n))
            assert len(bounded_chambers_bijective(build_arrangement(g, m))) == (m - 2) ** n


def test_k2_lp_chambers():
    # hand count: the five lines cut two bounded triangles out of the unit square
    arr = build_arrangement(K2, 3)
    chambers = bounded_chambers_lp(arr)
    assert len(chambers) == 2
    assert len(chambers) == (-1) ** 2 * chromatic_polynomial(K2).evaluate(-1)


def test_k3_lp_chambers():
    arr = build_arrangement(K3, 3)
    assert len(bounded_chambers_lp(arr)) == 6
    assert 6 == (-1) ** 3 * chromatic_polynomial(K3).evaluate(-1)


def test_paw_both_routes():
    g = paw_graph()
    arr = build_arrangement(g, 3)
    cb = bounded_chambers_bijective(arr)
    cl = bounded_chambers_lp(arr)
    assert len(cb) == len(cl) == 12


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4])
def test_routes_agree_and_match_chromatic(name, g, m):
    expected = (-1) ** g.n * chromatic_polynomial(g).evaluate(-(m - 2))
    arr = build_arrangement(g, m)
    cb = bounded_chambers_bijective(arr)
    cl = bounded_chambers_lp(arr)
    assert len(cb) == len(cl) == expected
    assert {c.signs for c in cb} == {c.signs for c in cl}


@pytest.mark.parametrize("m", [3, 4])
def test_witnesses_inside_open_cube(m):
    for name, g in all_graphs_up_to_4():
        if g.n > 3:
            continue
        for c in bounded_chambers_bijective(build_arrangement(g, m)):
            assert all(0 < x < m - 2 for x in c.witness)


def test_chamber_to_pair_single_vertex():
    g = SimpleGraph.of([0])
    arr = build_arrangement(g, 3)
    (c,) = bounded_chambers_bijective(arr)
    sigma, arcs = chamber_to_pair(arr, c)
    assert sigma == {0: 1} and arcs == ()


def test_chamber_to_pair_k2_orientation():
    arr = build_arrangement(K2, 3)
    chambers = bounded_chambers_lp(arr)
    for c in chambers:
        sigma, arcs = chamber_to_pair(arr, c)
        assert sigma == {0: 1, 1: 1}
        x = dict(zip(K2.vertices, c.witness))
        (a,) = arcs
        assert x[a[0]] > x[a[1]]


def test_round_trip_k3_exhaustive():
    arr = build_arrangement(K3, 3)
    for c in bounded_chambers_bijective(arr):
        sigma, arcs = chamber_to_pair(arr, c)
        back = pair_to_chamber(arr, sigma, arcs)
        assert back.signs == c.signs
        sigma2, arcs2 = chamber_to_pair(arr, back)
        assert sigma2 == sigma and arcs2 == arcs


def test_pair_to_chamber_rejects_incompatible():
    arr = build_arrangement(K2, 4)
    with pytest.raises(ValueError):
        pair_to_chamber(arr, {0: 1, 1: 2}, ((0, 1),))  # 0 -> 1 needs sigma[0] >= sigma[1]


def test_chamber_to_pair_requires_bounded():
    arr = build_arrangement(K2, 3)
    (c, _) = bounded_chambers_lp(arr)
    unbounded = type(c)(signs=c.signs, witness=c.witness, bounded=False)
    with pytest.raises(ValueError):
        chamber_to_pair(arr, unbounded)


@pytest.mark.parametrize(
    "name,m,lp_calls",
    [
        pytest.param("paw", 3, 22, id="paw-22"),
        pytest.param("K4", 3, 62, id="K4-62"),
        pytest.param("K4", 4, 302, id="K4-m4-302"),
        pytest.param("paw", 4, 150, id="paw-m4-150"),
    ],
)
def test_lp_search_solves_no_lp_per_chamber(monkeypatch, name, m, lp_calls):
    # a warm LP only for a split side the region's witness misses, none per
    # chamber; the cube's own LP is the one solved from scratch
    g = dict(all_graphs_up_to_4())[name]
    real = arrangement._solve_region
    calls = []

    def counting_solve_region(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arrangement, "_solve_region", counting_solve_region)
    chambers = bounded_chambers_lp(build_arrangement(g, m))
    assert len(chambers) == (-1) ** g.n * chromatic_polynomial(g).evaluate(-(m - 2))
    assert len(calls) == lp_calls


@pytest.mark.parametrize("name,m", [("paw", 4), ("K4", 3)])
def test_warm_optimum_equals_a_cold_solve_on_the_same_rows(monkeypatch, name, m):
    # the optimal margin is unique even where the witness is not
    real = lp.Tableau.dual
    checked = []

    def compared_dual(tab):
        real(tab)
        x, _ = tab.optimum()
        cold = lp.solve_lp(tab.A, tab.b, tab.c)
        assert cold.status == "optimal"
        assert cold.objective == Fraction(sum(c * v for c, v in zip(tab.c, x)), tab.D)
        checked.append(cold.objective)

    monkeypatch.setattr(lp.Tableau, "dual", compared_dual)
    g = dict(all_graphs_up_to_4())[name]
    bounded_chambers_lp(build_arrangement(g, m))
    assert len(checked) > 50
    assert any(v <= m - 2 for v in checked)  # empty regions are among them


def test_lp_search_witness_is_pinned():
    # the search's pivot path decides which point of a chamber it returns
    arr = build_arrangement(dict(all_graphs_up_to_4())["P4"], 4)
    witnesses = {c.sign_string: c.witness for c in bounded_chambers_lp(arr)}
    assert witnesses["++-++-++-++---+"] == (
        Fraction(7, 6),
        Fraction(3, 2),
        Fraction(11, 6),
        Fraction(7, 6),
    )


def test_lp_search_surfaces_an_uncertified_optimum(monkeypatch):
    # a margin LP whose dual no longer proves its optimum must stop the search
    real = lp._check_optimal

    def perturbed_dual(A, b, c, x, y, d):
        real(A, b, c, x, [v + 1 for v in y], d)

    monkeypatch.setattr(lp, "_check_optimal", perturbed_dual)
    with pytest.raises(EngineConsistencyError):
        bounded_chambers_lp(build_arrangement(paw_graph(), 3))


def test_lp_search_surfaces_a_margin_lp_that_is_not_optimal(monkeypatch):
    # every region's LP is feasible, so a dual simplex that finds no entering
    # column is a fault and must not drop the region; here each edge row is
    # replaced by u >= cap + shift + 1, which the cap row contradicts
    real = arrangement._margin_row

    def infeasible_edge_row(f, side, shift):
        if f.tag[0] != "edge":
            return real(f, side, shift)
        dim = len(f.coefficients)
        return [0] * dim + [-1], -(arrangement._MARGIN_CAP + shift + 1)

    monkeypatch.setattr(arrangement, "_margin_row", infeasible_edge_row)
    with pytest.raises(EngineConsistencyError, match="no entering column"):
        bounded_chambers_lp(build_arrangement(paw_graph(), 3))


def test_margin_lp_tells_an_empty_region_from_a_chamber():
    # a region is the cube's solved tableau plus its rows, re-optimized by the
    # dual simplex; on K2 at m=4 the region z_0 < 1 < z_1 < z_0 is empty and
    # z_1 < 1 < z_0 is a chamber; the edge is split on first
    arr = build_arrangement(K2, 4)
    fns = arr.functionals
    fixed, free_idx, root = arrangement._cube(arr)
    assert fixed == {0: 1, 2: -1, 3: 1, 5: -1} and free_idx == [6, 1, 4]

    def rows(sides):
        return [arrangement._margin_row(fns[i], s, 2) for i, s in zip(free_idx, sides)]

    assert arrangement._solve_region(root, rows([1, -1, 1]), 2) is None
    _, (z, d) = arrangement._solve_region(root, rows([1, 1, -1]), 2)
    witness = tuple(Fraction(v, d) for v in z)
    assert arrangement._signs_at(fns, witness) == (1, 1, -1, 1, -1, -1, 1)


@settings(ORACLE_SETTINGS, max_examples=50)
@given(graphs_and_m())
def test_lp_route_matches_bijective_route_on_random_graphs(graph_and_m):
    g, m = graph_and_m
    arr = build_arrangement(g, m)
    cl, cb = bounded_chambers_lp(arr), bounded_chambers_bijective(arr)
    assert [c.signs for c in cl] == [c.signs for c in cb]


@pytest.mark.parametrize("n,m", [(6, 3), (5, 4)], ids=["n6-m3", "n5-m4"])
@settings(ORACLE_SETTINGS, max_examples=10)
@given(data=st.data())
def test_lp_route_matches_bijective_route_on_random_larger_graphs(n, m, data):
    arr = build_arrangement(data.draw(simple_graphs(min_n=n, max_n=n)), m)
    cl, cb = bounded_chambers_lp(arr), bounded_chambers_bijective(arr)
    assert [c.signs for c in cl] == [c.signs for c in cb]


def test_lp_witness_outside_chamber_is_rejected(monkeypatch):
    real = arrangement._solve_region

    def off_by_far(solved, rows, shift):
        res = real(solved, rows, shift)
        if res is None:
            return None
        tab, (z, d) = res
        return tab, ([v + 10 * d for v in z], d)

    monkeypatch.setattr(arrangement, "_solve_region", off_by_far)
    with pytest.raises(EngineConsistencyError):
        bounded_chambers_lp(build_arrangement(paw_graph(), 3))


def test_lp_budget():
    arr = build_arrangement(paw_graph(), 3)
    with pytest.raises(BudgetExceededError):
        bounded_chambers_lp(arr, functional_budget=5)


def test_bijective_budget():
    with pytest.raises(BudgetExceededError):
        bounded_chambers_bijective(build_arrangement(paw_graph(), 4), candidate_budget=10)


def test_chamber_json():
    (c,) = bounded_chambers_bijective(build_arrangement(SimpleGraph.of([0]), 3))
    blob = c.to_json()
    assert blob == {"signs": "+-", "witness": ["1/2"], "bounded": True}


def test_enumeration_deterministic():
    g = paw_graph()
    arr = build_arrangement(g, 3)
    assert bounded_chambers_bijective(arr) == bounded_chambers_bijective(arr)
    assert bounded_chambers_lp(arr) == bounded_chambers_lp(arr)
