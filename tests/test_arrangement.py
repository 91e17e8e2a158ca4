import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromoduli import arrangement
from chromoduli.arrangement import (
    Chamber,
    _arc,
    _orbit,
    _orientations,
    _place_class,
    _symmetries,
    bounded_chambers_bijective,
    bounded_chambers_lp,
    build_arrangement,
)
from chromoduli.errors import BudgetExceededError, EngineConsistencyError
from chromoduli.graphs import SimpleGraph, automorphism_generators, chromatic_polynomial
from chromoduli.lp import Region
from chromoduli.orientations import acyclic_orientations, stanley_pair_count

from graph_catalog import (
    ORACLE_SETTINGS,
    all_graphs_up_to_4,
    dense_functionals,
    graphs_and_m,
    paw_graph,
    simple_graphs,
)
from bijective_reference import pair_to_chamber, reference_chambers
from lp_reference import margin_lp, solve_lp

K2 = SimpleGraph.of([0, 1], [(0, 1)])
K3 = SimpleGraph.of(range(3), [(0, 1), (1, 2), (0, 2)])


def chamber_to_pair(arr, chamber):
    """Coloring sigma(v) = ceil(x_v) and orientation u -> w iff x_u > x_w."""
    graph = arr.graph
    x = dict(zip(graph.vertices, chamber.witness))
    sigma = {v: math.ceil(x[v]) for v in graph.vertices}
    arcs = tuple((u, w) if x[u] > x[w] else (w, u) for u, w in graph.edges)
    return sigma, arcs


def test_build_counts():
    assert len(build_arrangement(SimpleGraph.of([0]), 3).terms) == 2
    assert len(build_arrangement(K2, 3).terms) == 5
    assert len(build_arrangement(paw_graph(), 3).terms) == 12  # 4*2 + 4 edges


def test_build_rejects_small_m():
    with pytest.raises(ValueError):
        build_arrangement(K2, 2)


def test_functional_structure():
    # f = z[j] - z[k] + c with z[2] = 0: all vertex levels first, then edges
    arr = build_arrangement(SimpleGraph.of(["a", "b"], [("a", "b")]), 4)
    assert arr.terms == ((0, 2, 0), (0, 2, -1), (0, 2, -2), (1, 2, 0), (1, 2, -1), (1, 2, -2), (0, 1, 0))
    assert [arr.tag(i) for i in range(7)] == [
        ("level", "a", 0),
        ("level", "a", 1),
        ("level", "a", 2),
        ("level", "b", 0),
        ("level", "b", 1),
        ("level", "b", 2),
        ("edge", "a", "b"),
    ]


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4, 5])
def test_terms_and_tags_match_the_dense_functionals(name, g, m):
    # each term (j, k, c) is the dense row with +1 at j and -1 at k (none at
    # the pinned k = n) and constant c, in the same order and with the same tag
    arr = build_arrangement(g, m)
    fns = dense_functionals(g, m)
    assert len(arr.terms) == len(fns) == (m - 1) * g.n + len(g.edges)
    for i, (f, (j, k, c)) in enumerate(zip(fns, arr.terms)):
        row = [0] * (g.n + 1)
        row[j] += 1
        row[k] -= 1
        assert row[: g.n] == f.coefficients and c == f.constant and arr.tag(i) == f.tag


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


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4, 5])
def test_bijective_route_equals_the_pair_reference(name, g, m):
    # colouring first on vertex bitmasks, against every (orientation,
    # colouring) pair of the reference: the same chambers, witnesses and order
    arr = build_arrangement(g, m)
    assert bounded_chambers_bijective(arr) == reference_chambers(arr)


@pytest.mark.parametrize("labels", ["int", "reversed-int", "string"])
def test_bijective_route_equals_the_pair_reference_on_random_graphs(labels):
    # vertex positions follow the label order, which reversed ints and
    # strings scramble against the order the graph is built in
    relabel = {"int": lambda v: v, "reversed-int": lambda v: -v, "string": lambda v: f"v{7 * v % 11}"}[labels]
    rng = random.Random(f"bijective/{labels}")
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = [(relabel(a), relabel(b)) for a, b in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        arr = build_arrangement(SimpleGraph.of(map(relabel, range(n)), edges), rng.randint(3, 5 if n <= 4 else 4))
        assert bounded_chambers_bijective(arr) == reference_chambers(arr), (arr.graph, arr.m)


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
def test_orientation_search_visits_each_acyclic_orientation_once(name, g):
    # the catalog's labels are the positions 0..n-1
    found = [tuple(above) for above in _orientations(g.n, list(g.edges))]
    expected = {tuple(sum(1 << u for u, w in arcs if w == v) for v in g.vertices) for arcs in acyclic_orientations(g)}
    assert len(found) == len(set(found)) and set(found) == expected


def test_class_order_is_kahns_lowest_ready_position_first():
    # one arc 2 -> 0: 1 and 2 are ready, 1 goes first, then 2, then 0
    nums = [0] * 3
    _place_class(nums, [0, 1, 2], [1 << 2, 0, 0], 10, 1)
    assert nums == [11, 13, 12]


def test_a_class_with_no_ready_vertex_raises():
    # 0 -> 1 -> 2 -> 0: every vertex waits on another, so no order exists
    with pytest.raises(EngineConsistencyError, match="color class has a cycle"):
        _place_class([0] * 3, [0, 1, 2], [1 << 2, 1 << 0, 1 << 1], 0, 1)


def _count_decisions(monkeypatch, check=None):
    """Spy on `Region.with_arc`: the regions kept and refused, each passed to `check` if given."""
    real = Region.with_arc
    counts = {"kept": 0, "refused": 0}

    def counting(region, a, b, w):
        child = real(region, a, b, w)
        counts["refused" if child is None else "kept"] += 1
        if check:
            check(region, (a, b, w), child)
        return child

    monkeypatch.setattr(Region, "with_arc", counting)
    return counts


@pytest.mark.parametrize(
    "name,m,kept,refused",
    [
        pytest.param("paw", 3, 18, 2, id="paw-m3"),
        pytest.param("K4", 3, 31, 11, id="K4-m3"),
        pytest.param("K4", 4, 45, 17, id="K4-m4"),
        pytest.param("paw", 4, 63, 17, id="paw-m4"),
    ],
)
def test_lp_search_solves_no_lp_per_chamber(monkeypatch, name, m, kept, refused):
    # one closure update or refusal per region decided, the cube's 8 arcs
    # included; none on the mirrored half and none below an orientation that
    # is the image of one searched before
    g = dict(all_graphs_up_to_4())[name]
    counts = _count_decisions(monkeypatch)
    chambers = bounded_chambers_lp(build_arrangement(g, m))
    assert len(chambers) == (-1) ** g.n * chromatic_polynomial(g).evaluate(-(m - 2))
    assert counts == {"kept": kept, "refused": refused}


def _potential_lp(region, arc, v):
    """max Z_v - Z_s, s the last node, s.t. Z_b - Z_a <= size*w - 1 for the region's arcs and `arc`."""
    size = len(region.dist)
    A, b = [], []
    for a_, b_, w in [arc, *region.arcs()]:
        row = [0] * size
        row[b_], row[a_] = 1, -1
        A.append(row)
        b.append(size * w - 1)
    A += [[0] * (size - 1) + [1], [0] * (size - 1) + [-1]]  # Z_s = 0
    return solve_lp(A, b + [0, 0], [int(j == v) for j in range(size)])


@pytest.mark.parametrize("name,m", [("paw", 4), ("K4", 4)])
def test_warm_optimum_equals_a_cold_solve_on_the_same_rows(monkeypatch, name, m):
    # a kept region's potential dist[s][v] is the optimum of the integer
    # system's LP, solved cold by the Fraction simplex (unbounded while the
    # cube is being built); a refused region's margin LP has optimum <= 0
    checked = []

    def compared(region, arc, child):
        if child is None:
            assert margin_lp(len(region.dist), [arc, *region.arcs()]) <= 0
            checked.append(True)
            return
        if counts["kept"] % 2:
            return  # every other kept region, to save the simplex's time
        v = len(checked) % (len(region.dist) - 1)
        cold = _potential_lp(region, arc, v)
        if child.dist[-1][v] == float("inf"):  # the cube is not closed yet
            assert cold.status == "unbounded"
        else:
            assert cold.status == "optimal" and cold.objective == child.dist[-1][v]
        checked.append(False)

    counts = _count_decisions(monkeypatch, compared)
    g = dict(all_graphs_up_to_4())[name]
    bounded_chambers_lp(build_arrangement(g, m))
    assert len(checked) > 25 and sum(checked) > 5


def test_lp_search_witness_is_pinned():
    # a witness is the closure's potentials from z_n = 0, over n+1 = 5; the
    # first edge z_0 - z_1 is + on the searched half, and a chamber of the
    # other half carries its mirror's witness reflected, 2 - x; the
    # orientation ++- is searched, and the reversal of P4 maps its chambers
    # onto those of +--, which is not
    arr = build_arrangement(dict(all_graphs_up_to_4())["P4"], 4)
    witnesses = {c.sign_string: c.witness for c in bounded_chambers_lp(arr)}
    assert witnesses["++-++-++-++-++-"] == (
        Fraction(9, 5),
        Fraction(8, 5),
        Fraction(7, 5),
        Fraction(9, 5),
    )
    assert witnesses["++-++-++-++---+"] == (
        Fraction(6, 5),
        Fraction(7, 5),
        Fraction(8, 5),
        Fraction(6, 5),
    )
    assert witnesses["+--+--+--+--++-"] == tuple(2 - x for x in witnesses["++-++-++-++---+"])
    assert witnesses["++-++-++-++-+--"] == tuple(reversed(witnesses["++-++-++-++-++-"]))
    # on K4 at m=4 the orientation with every edge + is the only one
    # searched; `_orbit` reaches that of +--+--+--+--+++--+ by swapping
    # vertices 2 and 3, then 1 and 2, and its witness is the searched
    # chamber's under those two maps in that order, not the other
    k4 = build_arrangement(dict(all_graphs_up_to_4())["K4"], 4)
    _, swap23, swap12, _ = k4.symmetries
    paths = _orbit(k4.symmetries, (0,) * 12 + (1,) * 6, (), lambda g, path: path + (g,))
    assert len(paths) == 24 and paths[(0,) * 12 + (1, 1, 1, -1, -1, 1)] == (swap23, swap12)
    witnesses = {c.sign_string: c.witness for c in bounded_chambers_lp(k4)}
    searched = witnesses["+--+--+--+--++++++"]
    assert witnesses["+--+--+--+--+++--+"] == tuple(swap12.point(swap23.point(searched)))
    assert witnesses["+--+--+--+--+++--+"] == (Fraction(4, 5), Fraction(1, 5), Fraction(3, 5), Fraction(2, 5))
    assert tuple(swap23.point(swap12.point(searched))) != witnesses["+--+--+--+--+++--+"]


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_mirror_is_an_involution_that_negates_the_reflected_functional(name, g, m):
    # the reflection is the first symmetry: f((m-2)*1 - z) = -f'(z) exactly,
    # at random rational points
    arr = build_arrangement(g, m)
    fns, reflection = dense_functionals(g, m), _symmetries(arr)[0]
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
            assert fns[j] is f
        else:
            assert fns[j].tag == ("level", f.tag[1], m - 2 - f.tag[2])


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 5])
def test_every_symmetry_maps_each_functional_onto_one_up_to_sign(name, g, m):
    # f_i(y) = sign_i * f_{index_i}(z) exactly, y the image of z; the
    # automorphisms after the reflection fix the levels' constants
    arr = build_arrangement(g, m)
    fns = dense_functionals(g, m)
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
        mirror = list(range(len(arr.terms))) if wrong == "identity" else list(reflection.index)
        if wrong == "edges-swapped":
            first, second = [i for i in range(len(arr.terms)) if arr.tag(i)[0] == "edge"][:2]
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
    # a refusal whose cycle sums to a positive weight certifies nothing and
    # must stop the search: here every cycle is swapped for the cube's
    # 0 < z_0 < 1, which is a cycle of the region's arcs of weight 1
    monkeypatch.setattr(Region, "cycle", lambda region, a, b, w: [(0, 4, 0), (4, 0, 1)])
    with pytest.raises(EngineConsistencyError, match="positive weight"):
        bounded_chambers_lp(build_arrangement(paw_graph(), 3))


def test_lp_search_surfaces_a_margin_lp_that_is_not_optimal(monkeypatch):
    # a refusal whose cycle does not close is no certificate either
    real = Region.cycle
    monkeypatch.setattr(Region, "cycle", lambda region, a, b, w: real(region, a, b, w)[1:])
    with pytest.raises(EngineConsistencyError, match="does not close"):
        bounded_chambers_lp(build_arrangement(paw_graph(), 3))


def test_margin_lp_tells_an_empty_region_from_a_chamber():
    # on K2 at m=4 (nodes z_0, z_1 and z_n = z_2 = 0) the region
    # z_0 < 1 < z_1 < z_0 is empty, refused by a cycle of weight 0 through
    # z_n, and z_1 < 1 < z_0 is a chamber; the edge is split on first
    arr = build_arrangement(K2, 4)
    terms = arr.terms
    cube = Region.empty(3)
    for i, side in {0: 1, 2: -1, 3: 1, 5: -1}.items():
        cube = cube.with_arc(*_arc(terms[i], side))

    def region(sides):
        r = cube
        for i, side in zip([6, 1], sides):
            r = r.with_arc(*_arc(terms[i], side))
        return r, _arc(terms[4], sides[2])

    empty, last = region([1, -1, 1])
    assert empty.with_arc(*last) is None
    assert empty.cycle(*last) == [(2, 0, 1), (0, 1, 0), (1, 2, -1)]
    chamber, last = region([1, 1, -1])
    nums = chamber.with_arc(*last).dist[2][:2]
    assert nums == [5, 2]  # (5/3, 2/3): each functional at least 1/3 from 0
    assert arrangement._signs_at(arr, nums, 3) == (1, 1, -1, 1, -1, -1, 1)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", [3, 4, 5])
def test_lp_route_searches_an_edgeless_graph_from_its_one_orientation(n, m):
    # the root is the empty orientation, whose orbit is itself: every
    # chamber is searched, none mapped
    arr = build_arrangement(SimpleGraph.of(range(n)), m)
    cl = bounded_chambers_lp(arr)
    assert len(cl) == (m - 2) ** n
    assert [c.signs for c in cl] == [c.signs for c in bounded_chambers_bijective(arr)]


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


@st.composite
def regions_in_split_order(draw):
    """A graph with 2 <= n <= 6 at m = 3..5, its cube signs, and free signs taken in split order.

    The free functionals come edges first, then inner levels, each in
    arrangement order.  Their signs follow a random point of the cube up
    to a random position, flip there and are random after it, so that both
    chambers and empty regions come up.
    """
    m = draw(st.integers(3, 5))
    g = draw(simple_graphs(max_n=6, min_n=2))
    arr, fns = build_arrangement(g, m), dense_functionals(g, m)
    cube = {i: 1 if f.tag[2] == 0 else -1 for i, f in enumerate(fns) if f.tag[0] == "level" and f.tag[2] in (0, m - 2)}
    order = sorted((i for i in range(len(fns)) if i not in cube), key=lambda i: fns[i].tag[0] != "edge")
    rng = random.Random(draw(st.integers(0, 2**32)))
    point = [rng.randint(1, 6 * (m - 2) - 1) for _ in range(arr.dimension)]
    sides = [1 if fns[i].value(point, 6) >= 0 else -1 for i in order]
    if order and rng.random() < 3 / 4:  # else the point's own chamber, or a region on a hyperplane through it
        flip = rng.randrange(len(order))
        sides[flip:] = [-sides[flip]] + [rng.choice([1, -1]) for _ in order[flip + 1 :]]
    return arr, list(cube.items()) + list(zip(order, sides))


def _margin_optimum(arr, signs, scipy_linprog):
    """The region's largest margin t <= 1 by the Fraction simplex, cross-checked by scipy.

    side * f(z) >= t per functional, in u = t + (m-2) so that every
    right-hand side is >= 0; the region is nonempty exactly when t > 0.
    """
    shift, dim = arr.m - 2, arr.dimension
    fns = dense_functionals(arr.graph, arr.m)
    A, b = [[0] * dim + [1]], [1 + shift]
    for i, side in signs:
        f = fns[i]
        A.append([-side * a for a in f.coefficients] + [1])
        b.append(side * f.constant + shift)
    exact = solve_lp(A, b, [0] * dim + [1])
    assert exact.status == "optimal"
    floating = scipy_linprog([0] * dim + [-1], A_ub=A, b_ub=b, bounds=[(None, None)] * (dim + 1), method="highs")
    assert floating.status == 0 and abs(-floating.fun - float(exact.objective)) <= 1e-7
    return exact.objective - shift


@settings(ORACLE_SETTINGS, max_examples=40)
@given(regions_in_split_order())
def test_closure_decides_each_region_as_its_margin_lp(case):
    # the constraints are added in the search's order up to the first
    # refusal: the closure keeps a region exactly when its margin LP has a
    # positive optimum, every refusal's cycle sums to <= 0, and a full sign
    # vector's witness is at least 1/(n+1) from every hyperplane
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    arr, signs = case
    n = arr.dimension
    region = Region.empty(n + 1)
    for count, (i, side) in enumerate(signs, 1):
        arc = _arc(arr.terms[i], side)
        child = region.with_arc(*arc)
        if child is None:
            assert sum(w for _, _, w in region.cycle(*arc)) <= 0
            assert _margin_optimum(arr, signs[:count], scipy_linprog) <= 0
            break
        region = child
    assert _margin_optimum(arr, signs[: count - (child is None)], scipy_linprog) > 0
    if child is not None:
        nums = region.dist[n][:n]
        fns = dense_functionals(arr.graph, arr.m)
        assert all(side * fns[i].value(nums, n + 1) >= 1 for i, side in signs)


def test_lp_witness_outside_chamber_is_rejected(monkeypatch):
    # potentials moved by 10 off every region's closure leave the cube
    real = Region.with_arc

    def off_by_far(region, a, b, w):
        child = real(region, a, b, w)
        if child is not None:
            child.dist[-1] = [x + 10 * len(child.dist) for x in child.dist[-1]]
        return child

    monkeypatch.setattr(Region, "with_arc", off_by_far)
    with pytest.raises(EngineConsistencyError, match="LP witness lies outside its chamber"):
        bounded_chambers_lp(build_arrangement(paw_graph(), 3))


def test_lp_budget():
    arr = build_arrangement(paw_graph(), 3)
    with pytest.raises(BudgetExceededError):
        bounded_chambers_lp(arr, functional_budget=5)


def test_bijective_budget():
    with pytest.raises(BudgetExceededError):
        bounded_chambers_bijective(build_arrangement(paw_graph(), 4), candidate_budget=10)


@pytest.mark.parametrize(
    "g,m,total",
    [(paw_graph(), 4, 2**4 + 72), (SimpleGraph.of(range(4), itertools.combinations(range(4), 2)), 4, 2**4 + 120)],
    ids=["paw@4", "K4@4"],
)
def test_bijective_budget_counts_colorings_plus_chambers(g, m, total):
    arr = build_arrangement(g, m)
    assert len(bounded_chambers_bijective(arr, candidate_budget=total)) == total - (m - 2) ** g.n
    with pytest.raises(BudgetExceededError):
        bounded_chambers_bijective(arr, candidate_budget=total - 1)


def test_bijective_budget_refuses_too_many_colorings_before_any_chamber(monkeypatch):
    # 3^5 colorings alone pass a cap of 200, so no witness is built
    monkeypatch.setattr(arrangement, "_signs_at", lambda *args: pytest.fail("a chamber was built"))
    with pytest.raises(BudgetExceededError, match=r"3\^5 colorings exceed budget 200"):
        bounded_chambers_bijective(build_arrangement(SimpleGraph.of(range(5)), 5), candidate_budget=200)


def test_k6_at_m5_is_within_the_bijective_budget_but_not_stanleys():
    # 3^6 colorings plus 20,160 chambers, against Stanley's 3^6 * 2^15 candidates
    k6 = SimpleGraph.of(range(6), itertools.combinations(range(6), 2))
    chambers = bounded_chambers_bijective(build_arrangement(k6, 5))
    assert len(chambers) == 20160 == chromatic_polynomial(k6).evaluate(-3)
    with pytest.raises(BudgetExceededError):
        stanley_pair_count(k6, 3)


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
def test_witness_numerators_read_as_their_fractions(name, g):
    # bijective witnesses are over lcm(2..n+1), LP witnesses over n+1; x / d
    # rounds as float(Fraction(x, d)) does, so Newton starts where it did
    # from Fraction witnesses
    arr = build_arrangement(g, 4)
    routes = ((bounded_chambers_bijective(arr), math.lcm(*range(2, g.n + 2))), (bounded_chambers_lp(arr), g.n + 1))
    for chambers, d in routes:
        for c in chambers:
            assert c.d == d and c.witness == tuple(Fraction(x, d) for x in c.nums)
            assert [x / c.d for x in c.nums] == [float(x) for x in c.witness]


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
@pytest.mark.parametrize("m", [3, 4, 5])
def test_witness_strings_are_the_reduced_fractions(name, g, m):
    # to_json reduces nums / d with math.gcd, so that printing a chamber
    # needs no Fraction; it must print what the Fraction prints
    arr = build_arrangement(g, m)
    for c in bounded_chambers_bijective(arr) + bounded_chambers_lp(arr):
        assert c.to_json()["witness"] == [f"{x.numerator}/{x.denominator}" for x in c.witness]


def test_witness_string_of_zero_and_negative_numerators():
    c = Chamber((1, -1, 1), (0, -3, 4), 6)
    assert c.to_json()["witness"] == ["0/1", "-1/2", "2/3"]
    assert c.witness == (Fraction(0), Fraction(-1, 2), Fraction(2, 3))


def test_arrangement_computes_its_cached_properties_once(monkeypatch):
    calls = []

    def counted(arr):
        calls.append(arr)
        return real(arr)

    real = arrangement._symmetries
    monkeypatch.setattr(arrangement, "_symmetries", counted)
    arr = build_arrangement(paw_graph(), 3)
    assert arr.symmetries is arr.symmetries
    assert len(calls) == 1
    # the cached value takes no part in equality or hashing
    fresh = build_arrangement(paw_graph(), 3)
    assert fresh == arr and hash(fresh) == hash(arr) and "symmetries" not in vars(fresh)
    assert build_arrangement(paw_graph(), 4) != arr


def test_chamber_json():
    (c,) = bounded_chambers_bijective(build_arrangement(SimpleGraph.of([0]), 3))
    blob = c.to_json()
    assert blob == {"signs": "+-", "witness": ["1/2"], "bounded": True}


def test_enumeration_deterministic():
    g = paw_graph()
    arr = build_arrangement(g, 3)
    assert bounded_chambers_bijective(arr) == bounded_chambers_bijective(arr)
    assert bounded_chambers_lp(arr) == bounded_chambers_lp(arr)
