import copy
import inspect
import itertools
import math
import pickle
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromoduli import graphs
from chromoduli.errors import GraphParseError
from chromoduli.graphs import (
    Digraph,
    IntPolynomial,
    SimpleGraph,
    automorphism_generators,
    canonical_key,
    chromatic_polynomial,
    graph_to_json,
    parse_graph_text,
)

from chromoduli.arrangement import build_arrangement, bounded_chambers_bijective
from chromoduli.critical import critical_point_reports
from chromoduli.digraph_poly import DigraphPolynomialReport, digraph_polynomial_report

from graph_catalog import all_graphs_up_to_4, instar_digraph, is_monic, paw_graph, symmetric_digraph


def proper_coloring_count(graph, k):
    """Brute-force count of proper colorings with colors {1..k}.

    Independent of the deletion-contraction route; used as its oracle.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    vs = graph.vertices
    count = 0
    for colors in itertools.product(range(k), repeat=len(vs)):
        sigma = dict(zip(vs, colors))
        if all(sigma[u] != sigma[w] for u, w in graph.edges):
            count += 1
    return count


@st.composite
def simple_graphs(draw, max_vertices=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = list(itertools.combinations(range(n), 2))
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    else:
        edges = []
    return SimpleGraph.of(range(n), edges)


def test_delete_edge_k2():
    g = SimpleGraph.of([0, 1], [(0, 1)]).delete_edge((0, 1))
    assert g.edges == () and g.vertices == (0, 1)


def test_delete_edge_triangle_gives_path():
    g = SimpleGraph.of(range(3), [(0, 1), (1, 2), (0, 2)]).delete_edge((0, 2))
    assert g.edges == ((0, 1), (1, 2))


def test_delete_edge_paw_structure():
    g = paw_graph().delete_edge((1, 4))
    assert set(g.vertices) == {1, 2, 3, 4}
    assert set(g.edges) == {(1, 2), (1, 3), (2, 3)}
    assert g.degree(4) == 0


def test_delete_unknown_edge():
    with pytest.raises(ValueError, match="unknown edge"):
        SimpleGraph.of([0, 1], [(0, 1)]).delete_edge((0, 2))


def test_contract_k2():
    g = SimpleGraph.of([0, 1], [(0, 1)]).contract_edge((0, 1))
    assert g.vertices == (0,) and g.edges == ()


def test_contract_triangle_merges_parallel():
    g = SimpleGraph.of(range(3), [(0, 1), (1, 2), (0, 2)]).contract_edge((0, 1))
    assert g.vertices == (0, 2) and g.edges == ((0, 2),)


def test_contract_path_hand_check():
    g = SimpleGraph.of(["a", "b", "c"], [("a", "b"), ("b", "c")]).contract_edge(("a", "b"))
    assert g.vertices == ("a", "c") and g.edges == (("a", "c"),)


def test_contract_unknown_edge():
    with pytest.raises(ValueError, match="unknown edge"):
        SimpleGraph.of(range(3), [(0, 1)]).contract_edge((1, 2))


def test_no_loops_or_dangling_edges():
    with pytest.raises(ValueError):
        SimpleGraph.of([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.of([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        SimpleGraph.of([])


def test_chromatic_paw():
    assert chromatic_polynomial(paw_graph()).coefficients == (0, -2, 5, -4, 1)


def test_chromatic_edgeless():
    for n in range(1, 5):
        assert chromatic_polynomial(SimpleGraph.of(range(n))) == IntPolynomial.monomial(n)


def test_chromatic_k3_matches_coloring_oracle():
    g = SimpleGraph.of(range(3), [(0, 1), (1, 2), (0, 2)])
    chi = chromatic_polynomial(g)
    # brute-force proper-coloring counts at x = 0..3: 0, 0, 0, 6
    assert [proper_coloring_count(g, k) for k in range(4)] == [0, 0, 0, 6]
    assert chi.coefficients == (0, 2, -3, 1)
    assert [chi.evaluate(k) for k in range(4)] == [0, 0, 0, 6]


@settings(max_examples=40)
@given(simple_graphs(), st.integers(min_value=0, max_value=4))
def test_chromatic_counts_proper_colorings(g, k):
    assert chromatic_polynomial(g).evaluate(k) == proper_coloring_count(g, k)


@settings(max_examples=40)
@given(simple_graphs(max_vertices=5))
def test_deletion_contraction_identity_every_edge(g):
    chi = chromatic_polynomial(g)
    for e in g.edges:
        assert chi == chromatic_polynomial(g.delete_edge(e)) - chromatic_polynomial(
            g.contract_edge(e)
        )


@settings(max_examples=40)
@given(simple_graphs())
def test_chromatic_shape(g):
    chi = chromatic_polynomial(g)
    assert is_monic(chi) and chi.degree == g.n
    assert chi.coefficients[0] == 0
    for d, c in enumerate(chi.coefficients):
        if c != 0:
            assert (c > 0) == ((-1) ** (g.n - d) > 0)


def test_canonical_key_relabelings_of_k3():
    a = SimpleGraph.of([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    b = SimpleGraph.of([7, 11, 42], [(11, 7), (42, 11), (7, 42)])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_separates_k3_from_path():
    k3 = SimpleGraph.of(range(3), [(0, 1), (1, 2), (0, 2)])
    p3 = SimpleGraph.of(range(3), [(0, 1), (1, 2)])
    assert canonical_key(k3) != canonical_key(p3)


def test_canonical_key_deterministic():
    g = paw_graph()
    assert canonical_key(g) == canonical_key(paw_graph())


def _closure(generators, n):
    """The group the position maps generate, as a set of tuples."""
    group = {tuple(range(n))}
    queue = list(group)
    for h in queue:
        for g in generators:
            gh = tuple(g[x] for x in h)
            if gh not in group:
                group.add(gh)
                queue.append(gh)
    return group


def _automorphism_count(g):
    """|Aut(g)| by a scan of all n! vertex maps."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    edges = {frozenset((pos[u], pos[w])) for u, w in g.edges}
    return sum(
        {frozenset((p[a], p[b])) for a, b in map(tuple, edges)} == edges
        for p in itertools.permutations(range(g.n))
    )


def _check_generators(g):
    generators = automorphism_generators(g)
    edges = set(g.edges)
    for p in generators:
        image = {v: g.vertices[p[i]] for i, v in enumerate(g.vertices)}
        assert sorted(p) == list(range(g.n))
        assert {tuple(sorted((image[u], image[w]))) for u, w in g.edges} == edges
    assert len(_closure(generators, g.n)) == _automorphism_count(g)
    return generators


@pytest.mark.parametrize("name,g", all_graphs_up_to_4())
def test_automorphism_generators_generate_the_whole_group(name, g):
    _check_generators(g)


@settings(max_examples=60)
@given(simple_graphs())
def test_automorphism_generators_generate_the_whole_group_of_random_graphs(g):
    _check_generators(g)


def test_automorphism_generators_on_labelled_vertices():
    # positions follow the vertex order, not the labels; the paw's one
    # automorphism swaps its two triangle vertices of degree 2
    assert automorphism_generators(paw_graph()) == ((0, 2, 1, 3),)
    assert automorphism_generators(SimpleGraph.of(["a", "b"], [("a", "b")])) == ((1, 0),)


def _failed_extensions(g):
    """The generators of g, and how often `_extend` runs out of candidates
    (its final `return None`) while finding them."""
    lines, first = inspect.getsourcelines(graphs._extend)
    last = first + len(lines) - 1
    hits = 0

    def tracer(frame, event, arg):
        nonlocal hits
        if frame.f_code is not graphs._extend.__code__:
            return None
        if event == "line" and frame.f_lineno == last:
            hits += 1
        return tracer

    sys.settrace(tracer)
    try:
        generators = automorphism_generators(g)
    finally:
        sys.settrace(None)
    return generators, hits


@pytest.mark.parametrize(
    "edges,order,failed",
    [
        ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], 12, 2),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6), (6, 7), (5, 7)], 60, 9),
    ],
    ids=["prism", "C5+C3"],
)
def test_automorphism_search_backtracks_past_a_dead_end(edges, order, failed):
    # a vertex of the right colour and adjacency can still leave no way to
    # map the rest: the search backs out of it and the group stays whole
    g = SimpleGraph.of(range(max(map(max, edges)) + 1), edges)
    generators, hits = _failed_extensions(g)
    assert hits == failed
    assert len(_closure(generators, g.n)) == _automorphism_count(g) == order


def test_labels_that_do_not_compare_are_refused():
    # labels are ordered by Python's `<`, which does not order an int and a str
    with pytest.raises(TypeError):
        SimpleGraph.of([0, "a"], [(0, "a")])
    with pytest.raises(TypeError):
        Digraph.of([0, "a"], [("a", 0)])


@pytest.mark.parametrize("complete", [False, True], ids=["E8", "K8"])
def test_automorphism_generators_of_the_symmetric_group_take_one_search_per_level(complete):
    # one generator per level, and the orbit of each base point under the
    # generators fixing the earlier ones has every later point: 8! in all
    g = SimpleGraph.of(range(8), itertools.combinations(range(8), 2) if complete else ())
    start = time.perf_counter()
    generators = automorphism_generators(g)
    assert time.perf_counter() - start < 0.5
    assert len(generators) == 7
    order = 1
    for i in range(8):
        fixing = [p for p in generators if all(p[j] == j for j in range(i))]
        orbit = {i}
        queue = [i]
        for x in queue:
            for p in fixing:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    queue.append(p[x])
        order *= len(orbit)
    assert order == math.factorial(8)


def test_evaluate_examples():
    chi = chromatic_polynomial(paw_graph())
    assert chi.evaluate(-1) == 12
    for n in range(5):
        for k in range(4):
            assert IntPolynomial.monomial(n).evaluate(-k) == (-k) ** n
    assert IntPolynomial((0, 2, -3, 1)).derivative_at_zero() == 2


def test_polynomial_normalization_and_arithmetic():
    assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert IntPolynomial(()).degree == -1
    p = IntPolynomial((1, 1))
    assert (p * p).coefficients == (1, 2, 1)
    assert (p - p).coefficients == ()
    assert (3 * p).coefficients == (3, 3)
    with pytest.raises(TypeError):
        IntPolynomial((1.5,))


def _one_value_of_each_class():
    """One instance of each value class, built by the package itself."""
    arr = build_arrangement(paw_graph(), 3)
    return [
        paw_graph(),
        instar_digraph(),
        chromatic_polynomial(paw_graph()),
        arr,
        bounded_chambers_bijective(arr)[0],
        critical_point_reports(paw_graph(), 3)[0],
        digraph_polynomial_report(instar_digraph()),
    ]


@pytest.mark.parametrize("value", _one_value_of_each_class(), ids=lambda v: type(v).__name__)
def test_value_fields_cannot_be_assigned_or_deleted(value):
    for name in type(value).__slots__:
        if name != "__dict__":
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", _one_value_of_each_class(), ids=lambda v: type(v).__name__)
def test_equal_values_hash_equal_and_round_trip(value):
    twin = pickle.loads(pickle.dumps(value))
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert copy.copy(value) == value
    assert repr(twin) == repr(value) and repr(value).startswith(type(value).__name__ + "(")


def test_values_of_different_classes_never_compare_equal():
    g = SimpleGraph.of(range(3), [(0, 1)])
    d = Digraph.of(range(3), [(0, 1)])
    assert (g.vertices, g.edges) == (d.vertices, d.arcs)
    assert g != d and d != g and not g == d
    assert g != (g.vertices, g.edges) and (g.vertices, g.edges) != g
    assert d != (d.vertices, d.arcs)
    assert len({g, d, SimpleGraph.of([2, 1, 0], [(1, 0)])}) == 2
    assert repr(g) == "SimpleGraph(vertices=(0, 1, 2), edges=((0, 1),))"


def test_value_constructors_take_keywords_and_defaults():
    p = IntPolynomial(coefficients=[1, 1, 0])
    assert p == IntPolynomial((1, 1)) and hash(p) == hash(IntPolynomial((1, 1)))
    assert type(p.coefficients) is tuple
    report = DigraphPolynomialReport(chi_in=p, chi_out=p, route_in="engine", route_out="engine", consistent=True)
    assert report.advisories == ()


def test_polynomial_strips_trailing_zeros_and_rejects_non_integers():
    assert IntPolynomial([0, 0]).coefficients == ()
    assert IntPolynomial((0, 3, 0)).coefficients == (0, 3)
    for bad in ((1.5,), (1, 2.0), (Fraction(1, 2),), ("1",)):
        with pytest.raises(TypeError):
            IntPolynomial(bad)


def test_digraph_basics():
    d = Digraph.of([0, 1, 2], [(0, 1), (2, 1)])
    assert d.in_degree(1) == 2 and d.out_degree(1) == 0
    assert d.in_neighborhood(1) == frozenset({0, 1, 2})
    assert d.out_neighborhood(0) == frozenset({0, 1})
    assert d.is_acyclic()
    assert d.reverse().arcs == ((1, 0), (1, 2))
    assert Digraph.of(range(2), [(0, 1), (1, 0)]).is_acyclic() is False
    with pytest.raises(ValueError, match="repeated"):
        Digraph.of(range(2), [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="loop"):
        Digraph.of(range(2), [(0, 0)])


def test_reverse_swaps_neighborhoods_on_every_three_vertex_digraph():
    pairs = list(itertools.permutations(range(3), 2))
    digraphs = {
        Digraph.of(range(3), arcs) for r in range(7) for arcs in itertools.combinations(pairs, r)
    }
    assert len(digraphs) == 64
    for d in digraphs:
        rev = d.reverse()
        assert rev in digraphs and rev.reverse() == d
        for v in d.vertices:
            assert rev.in_neighborhood(v) == d.out_neighborhood(v)
            assert rev.out_neighborhood(v) == d.in_neighborhood(v)


def test_digraph_from_symmetric():
    g = SimpleGraph.of(range(3), [(0, 1), (1, 2)])
    d = symmetric_digraph(g)
    assert set(d.arcs) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    for v in g.vertices:
        assert d.in_neighborhood(v) == d.out_neighborhood(v) == g.closed_neighborhood(v)


def test_parse_graph_and_digraph():
    g = parse_graph_text("4 4\n0 1\n1 2\n0 2\n0 3\n")
    assert isinstance(g, SimpleGraph)
    assert set(g.edges) == {(0, 1), (1, 2), (0, 2), (0, 3)}
    d = parse_graph_text("digraph\n3 2\n0 1\n2 1\n")
    assert isinstance(d, Digraph)
    assert set(d.arcs) == {(0, 1), (2, 1)}
    assert graph_to_json(g)["kind"] == "graph"
    assert graph_to_json(d)["arcs"] == [[0, 1], [2, 1]]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "garbage",
        "2 1\n0 0\n",
        "2 2\n0 1\n0 1\n",
        "2 1\n0 5\n",
        "2 1\n",
        "x y\n",
        "digraph\n",
        "0 0\n",
        "2 1\n0 1 1\n",
        "2 1\n0 x\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphParseError):
        parse_graph_text(text)


def test_parse_opposite_arcs_allowed():
    d = parse_graph_text("digraph\n2 2\n0 1\n1 0\n")
    assert set(d.arcs) == {(0, 1), (1, 0)}
