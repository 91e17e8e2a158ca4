import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chromoduli.errors import BudgetExceededError
from chromoduli.graphs import SimpleGraph, chromatic_polynomial
from chromoduli.orientations import acyclic_orientations, stanley_pair_count

from graph_catalog import ORACLE_SETTINGS, graphs_with_at_most, paw_graph, simple_graphs


def _has_directed_cycle(vertices, arcs):
    """Independent DFS-based cycle check (the production path uses Kahn)."""
    out = {v: [] for v in vertices}
    for u, w in arcs:
        out[u].append(w)
    state = {v: 0 for v in vertices}  # 0 new, 1 active, 2 done

    def dfs(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or (state[w] == 0 and dfs(w)):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and dfs(v) for v in vertices)


def test_single_edge_two_orientations():
    g = SimpleGraph.of([0, 1], [(0, 1)])
    assert acyclic_orientations(g) == [((0, 1),), ((1, 0),)]


def test_k3_six_of_eight():
    # enumerating all 2^3 orientations by hand leaves out the two cyclic ones
    g = SimpleGraph.of(range(3), [(0, 1), (1, 2), (0, 2)])
    got = acyclic_orientations(g)
    assert len(got) == 6


def test_paw_twelve():
    assert len(acyclic_orientations(paw_graph())) == 12


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_orientations_are_acyclic_and_cover_edges(n, data):
    possible = list(itertools.combinations(range(n), 2))
    edges = data.draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    ) if possible else []
    g = SimpleGraph.of(range(n), edges)
    for arcs in acyclic_orientations(g):
        assert not _has_directed_cycle(g.vertices, arcs)
        assert len(arcs) == len(g.edges)
        assert {frozenset(a) for a in arcs} == {frozenset(e) for e in g.edges}


def test_orientation_budget():
    g = SimpleGraph.of(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(BudgetExceededError):
        acyclic_orientations(g, candidate_budget=8)


def test_stanley_edgeless():
    for n in (1, 2, 3):
        g = SimpleGraph.of(range(n))
        for k in (1, 2, 3):
            assert stanley_pair_count(g, k) == k**n


def test_stanley_k2_k1():
    # both orientations of the single edge are compatible with the constant coloring
    g = SimpleGraph.of([0, 1], [(0, 1)])
    assert stanley_pair_count(g, 1) == 2
    assert stanley_pair_count(g, 1) == (-1) ** 2 * chromatic_polynomial(g).evaluate(-1)


def test_stanley_paw_k1():
    assert stanley_pair_count(paw_graph(), 1) == 12


def test_stanley_budget():
    g = SimpleGraph.of(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(BudgetExceededError):
        stanley_pair_count(g, 3, candidate_budget=100)
    with pytest.raises(ValueError):
        stanley_pair_count(g, 0)


@pytest.mark.parametrize("name,g", graphs_with_at_most(4))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stanley_equals_signed_chromatic(name, g, k):
    chi = chromatic_polynomial(g)
    assert stanley_pair_count(g, k) == (-1) ** g.n * chi.evaluate(-k)


@ORACLE_SETTINGS
@given(simple_graphs(max_n=5), st.sampled_from([3, 4]))
def test_stanley_matches_chromatic_on_random_graphs(g, m):
    chi = chromatic_polynomial(g)
    assert stanley_pair_count(g, m - 2) == (-1) ** g.n * chi.evaluate(-(m - 2))


@pytest.mark.parametrize("name,g", graphs_with_at_most(4))
def test_orientation_count_is_stanley_at_one(name, g):
    assert len(acyclic_orientations(g)) == stanley_pair_count(g, 1)


def test_deterministic_order():
    g = paw_graph()
    assert acyclic_orientations(g) == acyclic_orientations(g)
