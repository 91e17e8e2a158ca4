from fractions import Fraction

import pytest
from hypothesis import given, settings

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

from graph_catalog import ORACLE_SETTINGS, all_graphs_up_to_4, graphs_and_m, paw_graph

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
        pytest.param("K4", 4, 398, id="K4-m4-398"),
    ],
)
def test_lp_search_solves_no_lp_per_chamber(monkeypatch, name, m, lp_calls):
    # an LP only for a split side the region's witness misses, none per chamber
    g = dict(all_graphs_up_to_4())[name]
    real = arrangement.solve_lp
    calls = []

    def counting_solve_lp(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arrangement, "solve_lp", counting_solve_lp)
    chambers = bounded_chambers_lp(build_arrangement(g, m))
    assert len(chambers) == (-1) ** g.n * chromatic_polynomial(g).evaluate(-(m - 2))
    assert len(calls) == lp_calls


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
    # the capped margin LP is feasible and bounded, so any other answer is a
    # fault and must not drop the region
    def unbounded(A, b, c):
        return lp.LpSolution(status="unbounded", ray=tuple(c))

    monkeypatch.setattr(arrangement, "solve_lp", unbounded)
    with pytest.raises(EngineConsistencyError, match="unbounded"):
        bounded_chambers_lp(build_arrangement(paw_graph(), 3))


def test_margin_lp_tells_an_empty_region_from_a_chamber():
    # the LP runs in t + B with every right-hand side >= 0 (a negative one
    # would raise ValueError); on K2 at m=3 the region z_0 < 0 < z_1 < z_0
    # is empty and 0 < z_1 < z_0 < 1 is a chamber
    fns = build_arrangement(K2, 3).functionals
    assert arrangement._margin_lp(fns, [-1, -1, 1, -1, 1]) is None
    witness = arrangement._margin_lp(fns, [1, -1, 1, -1, 1])
    assert arrangement._signs_at(fns, witness) == (1, -1, 1, -1, 1)


@settings(ORACLE_SETTINGS, max_examples=50)
@given(graphs_and_m())
def test_lp_route_matches_bijective_route_on_random_graphs(graph_and_m):
    g, m = graph_and_m
    arr = build_arrangement(g, m)
    cl, cb = bounded_chambers_lp(arr), bounded_chambers_bijective(arr)
    assert [c.signs for c in cl] == [c.signs for c in cb]


def test_lp_witness_outside_chamber_is_rejected(monkeypatch):
    real = arrangement._margin_lp

    def off_by_far(functionals, signs):
        witness = real(functionals, signs)
        return None if witness is None else tuple(x + 10 for x in witness)

    monkeypatch.setattr(arrangement, "_margin_lp", off_by_far)
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
