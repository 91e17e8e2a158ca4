import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromoduli import arrangement, lp
from chromoduli.arrangement import (
    Chamber,
    _pair_witness,
    _signs_at,
    _symmetries,
    bounded_chambers_bijective,
    bounded_chambers_lp,
    build_arrangement,
)
from chromoduli.errors import BudgetExceededError, EngineConsistencyError
from chromoduli.graphs import SimpleGraph, automorphism_generators, chromatic_polynomial

from graph_catalog import ORACLE_SETTINGS, all_graphs_up_to_4, graphs_and_m, paw_graph, simple_graphs

K2 = SimpleGraph.of([0, 1], [(0, 1)])
K3 = SimpleGraph.of(range(3), [(0, 1), (1, 2), (0, 2)])


def chamber_to_pair(arr, chamber):
    """Coloring sigma(v) = ceil(x_v) and orientation u -> w iff x_u > x_w."""
    if not chamber.bounded:
        raise ValueError("chamber must be bounded")
    graph = arr.graph
    x = dict(zip(graph.vertices, chamber.witness))
    sigma = {v: math.ceil(x[v]) for v in graph.vertices}
    arcs = tuple((u, w) if x[u] > x[w] else (w, u) for u, w in graph.edges)
    return sigma, arcs


def pair_to_chamber(arr, sigma, arcs):
    if not all(sigma[u] >= sigma[w] for u, w in arcs):
        raise ValueError("orientation is not compatible with the coloring")
    witness = _pair_witness(arr.graph, arr.m, sigma, arcs)
    return Chamber(_signs_at(arr, witness), witness, True)


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
        pytest.param("paw", 3, 8, id="paw-m3"),
        pytest.param("K4", 3, 25, id="K4-m3"),
        pytest.param("K4", 4, 35, id="K4-m4"),
        pytest.param("paw", 4, 40, id="paw-m4"),
    ],
)
def test_lp_search_solves_no_lp_per_chamber(monkeypatch, name, m, lp_calls):
    # a warm LP only for a split side the region's witness misses, none per
    # chamber, none on the mirrored half and none below an orientation that
    # is the image of one searched before; the cube's own LP is the one
    # solved from scratch
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


@pytest.mark.parametrize("name,m", [("paw", 4), ("K4", 4)])
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
    # the reflection alone (no automorphism generators) leaves 74 and 150
    # warm LPs to compare; the whole group would leave 40 and 35
    monkeypatch.setattr(arrangement, "automorphism_generators", lambda graph: [])
    g = dict(all_graphs_up_to_4())[name]
    bounded_chambers_lp(build_arrangement(g, m))
    assert len(checked) > 50
    assert any(v <= m - 2 for v in checked)  # empty regions are among them


def test_lp_search_witness_is_pinned():
    # the search's pivot path decides which point of a chamber it returns;
    # the first edge z_0 - z_1 is + on the searched half, and a chamber of
    # the other half carries its mirror's witness reflected, 2 - x; the
    # orientation ++- is searched, and the reversal of P4 maps its chambers
    # onto those of +--, which is not
    arr = build_arrangement(dict(all_graphs_up_to_4())["P4"], 4)
    witnesses = {c.sign_string: c.witness for c in bounded_chambers_lp(arr)}
    assert witnesses["++-++-++-++-++-"] == (
        Fraction(11, 6),
        Fraction(3, 2),
        Fraction(7, 6),
        Fraction(3, 2),
    )
    assert witnesses["++-++-++-++---+"] == (
        Fraction(7, 6),
        Fraction(3, 2),
        Fraction(11, 6),
        Fraction(3, 2),
    )
    assert witnesses["+--+--+--+--++-"] == tuple(2 - x for x in witnesses["++-++-++-++---+"])
    assert witnesses["++-++-++-++-+--"] == tuple(reversed(witnesses["++-++-++-++-++-"]))


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_mirror_is_an_involution_that_negates_the_reflected_functional(name, g, m):
    # the reflection is the first symmetry: f((m-2)*1 - z) = -f'(z) exactly,
    # at random rational points
    arr = build_arrangement(g, m)
    fns, reflection = arr.functionals, _symmetries(arr)[0]
    mirror = reflection.index
    assert reflection.perm == tuple(range(g.n)) and reflection.sign == (-1,) * len(fns)
    assert sorted(mirror) == list(range(len(fns)))
    assert all(mirror[j] == i for i, j in enumerate(mirror))
    rng = random.Random(m * 100 + g.n)
    for _ in range(5):
        z = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(g.n)]
        reflected = [m - 2 - x for x in z]
        assert reflection.point(z) == reflected
        for f, j in zip(fns, mirror):
            assert f.value(reflected) == -fns[j].value(z)
    for f, j in zip(fns, mirror):
        if f.tag[0] == "edge":
            assert j == fns.index(f)
        else:
            assert fns[j].tag == ("level", f.tag[1], m - 2 - f.tag[2])


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 5])
def test_every_symmetry_maps_each_functional_onto_one_up_to_sign(name, g, m):
    # f_i(y) = sign_i * f_{index_i}(z) exactly, y the image of z; the
    # automorphisms after the reflection fix the levels' constants
    arr = build_arrangement(g, m)
    fns = arr.functionals
    symmetries = _symmetries(arr)
    assert len(symmetries) == 1 + len(automorphism_generators(g))
    rng = random.Random(m * 100 + len(g.edges))
    for symmetry in symmetries:
        assert sorted(symmetry.index) == list(range(len(fns)))
        for _ in range(3):
            z = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(g.n)]
            y = symmetry.point(z)
            for f, i, e in zip(fns, symmetry.index, symmetry.sign):
                assert f.value(y) == e * fns[i].value(z)
    for symmetry in symmetries[1:]:
        assert symmetry.scale == 1 and symmetry.offset == 0
        assert all(fns[i].tag[2] == f.tag[2] for f, i in zip(fns, symmetry.index) if f.tag[0] == "level")


def test_composed_symmetries_act_as_one():
    # (g o h)(z) = g(h(z)), and the signs compose the same way
    arr = build_arrangement(dict(all_graphs_up_to_4())["K4"], 4)
    symmetries = _symmetries(arr)
    chamber = bounded_chambers_lp(arr)[0]
    for g in symmetries:
        for h in symmetries:
            gh = g.after(h)
            assert gh.point(chamber.witness) == g.point(h.point(chamber.witness))
            assert gh.signs(chamber.signs) == g.signs(h.signs(chamber.signs))
            assert _signs_at(arr, tuple(gh.point(chamber.witness))) == gh.signs(chamber.signs)


@pytest.mark.parametrize(
    "wrong,message",
    [("identity", "mapped LP witness"), ("edges-swapped", "not its own mirror")],
    ids=["identity", "edges-swapped"],
)
def test_lp_search_refuses_a_wrong_mirror(monkeypatch, wrong, message):
    # the identity negates every sign, cube signs too, so the reflected
    # witness misses its chamber; swapping the first two edges moves the
    # first split off its own mirror
    def wrong_mirror(arr):
        reflection, *rest = real(arr)
        mirror = list(range(len(arr.functionals))) if wrong == "identity" else list(reflection.index)
        if wrong == "edges-swapped":
            first, second = [i for i, f in enumerate(arr.functionals) if f.tag[0] == "edge"][:2]
            mirror[first], mirror[second] = second, first
        broken = arrangement._Symmetry(reflection.perm, -1, reflection.offset, tuple(mirror), reflection.sign)
        return (broken, *rest)

    real = arrangement._symmetries
    monkeypatch.setattr(arrangement, "_symmetries", wrong_mirror)
    with pytest.raises(EngineConsistencyError, match=message):
        bounded_chambers_lp(build_arrangement(paw_graph(), 4))


@pytest.mark.parametrize(
    "generator",
    [(1, 0, 2, 3), (0, 1, 2, 2)],
    ids=["not-an-automorphism", "not-a-permutation"],
)
def test_lp_search_refuses_a_generator_that_is_no_automorphism(monkeypatch, generator):
    # swapping vertices 0 and 1 of the paw sends the edge 0-3 to the
    # non-edge 1-3; a map that is not onto leaves vertex 3 without a preimage
    monkeypatch.setattr(arrangement, "automorphism_generators", lambda graph: [generator])
    with pytest.raises(EngineConsistencyError, match="under a symmetry is not in the arrangement"):
        bounded_chambers_lp(build_arrangement(dict(all_graphs_up_to_4())["paw"], 4))


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
    assert arrangement._signs_at(arr, witness) == (1, 1, -1, 1, -1, -1, 1)


@settings(ORACLE_SETTINGS, max_examples=50)
@given(graphs_and_m(), st.booleans())
def test_lp_route_matches_bijective_route_on_random_graphs(graph_and_m, edgeless):
    # an edgeless graph is searched whole, a graph with an edge by halves
    g, m = graph_and_m
    if edgeless:
        g = SimpleGraph.of(g.vertices)
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
