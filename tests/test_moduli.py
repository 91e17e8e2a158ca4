import gc
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromoduli import cli, moduli, orientations
from chromoduli.digraph_poly import digraph_polynomial_report
from chromoduli.errors import BudgetExceededError, EngineConsistencyError
from chromoduli.graphs import IntPolynomial, SimpleGraph, chromatic_polynomial
from chromoduli.moduli import (
    DEFAULT_TERM_CAP,
    cerberus_check,
    kapranov_degree,
    omega,
    omega_coefficients,
    omega_with_stats,
)

import boundary_reference
import fold_reference
from boundary_reference import (
    ClassExpression,
    _mul_by_divisor_sum,
    boundary_divisor,
    expand_psi_decorations,
    integrate,
    multiply_by_divisor,
    psi_as_boundary,
    point_class_pullback,
    pullback_divisor,
    pullback_psi,
    strata,
)
from fold_reference import _Ctx, _fold_pullbacks
from graph_catalog import (
    ORACLE_SETTINGS,
    all_graphs_up_to_4,
    digraphs,
    graphs_with_at_most,
    instar_digraph,
    paw_graph,
    simple_graphs,
    symmetric_digraph,
)

P4 = frozenset("ijkl")
P5 = frozenset(range(1, 6))


def _sum_divisors(P, parts):
    out = ClassExpression.zero(P)
    for part in parts:
        out = out + boundary_divisor(P, part)
    return out


def _fold(expr, divisor_sums):
    """Multiply an expression by divisor expressions, expanding as the engine does."""
    for d in divisor_sums:
        expr = _mul_by_divisor_sum(expr, d)
        expr = expand_psi_decorations(expr)
    return expr


def _extra_marks(graph, m):
    marks = frozenset(f"x{j}" for j in range(m))
    if marks & set(graph.vertices):
        raise ValueError("vertex labels collide with the extra markings")
    return marks


def _omega_by_expansion(graph, m, mode="undirected"):
    """The engine's value through the boundary-expansion reference route."""
    marks = _extra_marks(graph, m)
    P = frozenset(graph.vertices) | marks
    base = point_class_pullback(marks, P)
    psis = [pullback_psi(moduli._neighborhood(graph, v, mode) | marks, v, P) for v in graph.vertices]
    return integrate(_fold(base, psis))


def _omega_by_global_fold(graph, m, mode="undirected", term_cap=DEFAULT_TERM_CAP):
    """omega as one symbolic fold over the whole pulled-back point class."""
    marks = _extra_marks(graph, m)
    P = frozenset(graph.vertices) | marks
    pullbacks = [(moduli._neighborhood(graph, v, mode) | marks, v) for v in graph.vertices]
    base = point_class_pullback(marks, P)
    return _fold_pullbacks(base.ctx, base.terms, pullbacks, term_cap)


def _kapranov_by_expansion(constraints, P):
    psis = [pullback_psi(subset, mark, P) for subset, mark in constraints]
    return integrate(_fold(ClassExpression.unit(P), psis))


def _symbolic_fold(expr, pullbacks=()):
    return _fold_pullbacks(expr.ctx, expr.terms, pullbacks, DEFAULT_TERM_CAP)


def _kapranov_by_fold(constraints, P):
    """The degree by the symbolic fold alone, without the union-condition shortcut."""
    return _symbolic_fold(ClassExpression.unit(P), constraints)[0]


def _local_integral_by_fold(key):
    """K of a local key (as from `moduli._local_key`) by the symbolic fold."""
    k = len(key)
    special = frozenset(range(k, k + 3))
    pullbacks = [(special | frozenset(nbhd), i) for i, nbhd in enumerate(key)]
    return _kapranov_by_fold(pullbacks, special | frozenset(range(k)))


def _local_integral(key):
    return moduli._local_integral(key, {}, DEFAULT_TERM_CAP)


def test_psi_four_markings_single_divisor():
    got = psi_as_boundary(P4, "i", "j", "k")
    assert got == boundary_divisor(P4, {"i", "l"})


def test_psi_five_markings_three_divisors():
    got = psi_as_boundary(P5, 1, 2, 3)
    assert got == _sum_divisors(P5, [{1, 4}, {1, 5}, {1, 4, 5}])
    assert got.term_count == 3


def test_psi_three_markings_vanishes():
    assert psi_as_boundary(frozenset("abc"), "a", "b", "c").is_zero


def test_psi_validation():
    with pytest.raises(ValueError):
        psi_as_boundary(P4, "i", "i", "j")
    with pytest.raises(ValueError):
        psi_as_boundary(P4, "i", "j", "z")


def test_divisor_bipartition_identity():
    assert boundary_divisor(P5, {1, 2}) == boundary_divisor(P5, {3, 4, 5})
    with pytest.raises(ValueError):
        boundary_divisor(P4, {"i"})
    with pytest.raises(ValueError):
        boundary_divisor(P4, {"i", "j", "k"})


def test_pullback_divisor_identity_on_full_subset():
    assert pullback_divisor({1, 2}, P5, P5) == boundary_divisor(P5, {1, 2})


def test_pullback_divisor_two_terms():
    P = frozenset("abcde")
    got = pullback_divisor({"a", "b"}, frozenset("abcd"), P)
    assert got == _sum_divisors(P, [{"a", "b"}, {"a", "b", "e"}])


def test_pullback_divisor_term_count():
    P = frozenset(range(7))
    got = pullback_divisor({0, 1}, frozenset({0, 1, 2, 3}), P)
    assert got.term_count == 2 ** 3


def test_pullback_psi_full_subset_four_markings():
    got = pullback_psi(P4, "i", P4)
    assert got == boundary_divisor(P4, {"i", "l"})


def test_pullback_psi_three_marking_target_vanishes():
    assert pullback_psi(frozenset("abc"), "a", frozenset("abcdef")).is_zero


def test_pullback_psi_anchor_invariance_under_integration():
    # expressions differ termwise across anchors but integrate identically
    # against point-class pullbacks
    P = frozenset(range(6))
    sub = frozenset({0, 1, 2, 3, 4})
    rng = random.Random(7)
    anchor_pairs = list(itertools.permutations(sorted(sub - {0}), 2))
    base = point_class_pullback(frozenset({3, 4, 5}), P)
    for _ in range(6):
        j, k = rng.choice(anchor_pairs)
        ja, ka = rng.choice(anchor_pairs)
        lhs = _fold(base, [pullback_psi(sub, 0, P, (j, k)), pullback_psi(P, 5, P)])
        rhs = _fold(base, [pullback_psi(sub, 0, P, (ja, ka)), pullback_psi(P, 5, P)])
        assert integrate(lhs) == integrate(rhs)


def test_multiply_unit_gives_divisor():
    unit = ClassExpression.unit(P5)
    assert multiply_by_divisor(unit, {1, 2}) == boundary_divisor(P5, {1, 2})


def test_multiply_self_intersection_decorations():
    d = boundary_divisor(P5, {1, 2})
    prod = multiply_by_divisor(d, {1, 2})
    assert prod.term_count == 2
    strata_list = list(strata(prod))
    assert all(coeff == -1 for _, _, coeff in strata_list)
    assert all(sum(psi.values()) == 1 for _, psi, _ in strata_list)
    # expansion: the exponent on the two-marking component vanishes, the other
    # refines to the three-component chain
    expanded = expand_psi_decorations(prod)
    chain = ClassExpression.zero(P5)
    chain = chain - multiply_by_divisor(boundary_divisor(P5, {1, 2}), {3, 4})
    assert expanded == chain
    assert integrate(expanded) == -1


def test_multiply_disjoint_divisors_chain():
    d12 = boundary_divisor(P5, {1, 2})
    prod = multiply_by_divisor(d12, {3, 4})
    assert prod.term_count == 1
    ((splits, psi, coeff),) = list(strata(prod))
    assert coeff == 1 and not psi and len(splits) == 2


def test_multiply_crossing_divisors_vanish():
    d = boundary_divisor(P5, {1, 2})
    assert multiply_by_divisor(d, {2, 3}).is_zero


def test_expand_exponent_on_three_flag_component_vanishes():
    d = boundary_divisor(P4, {"i", "j"})
    prod = multiply_by_divisor(d, {"i", "j"})
    # both sides of the edge have three flags, so everything dies
    assert expand_psi_decorations(prod).is_zero


def test_expand_exponent_on_four_flag_component_single_refinement():
    # self-intersecting D_{12} on five markings decorates both edge germs; the
    # germ on the two-marking side dies (three flags), the one on the
    # four-flag side expands into exactly one refined stratum
    prod = multiply_by_divisor(boundary_divisor(P5, {1, 2}), {1, 2})
    expanded = expand_psi_decorations(prod)
    assert expanded.term_count == 1
    ((splits, psi, coeff),) = list(strata(expanded))
    assert coeff == -1 and not psi and len(splits) == 2


def test_expand_idempotent():
    expr = _sum_divisors(P5, [{1, 2}, {1, 3}])
    assert expand_psi_decorations(expr) == expr
    once = expand_psi_decorations(multiply_by_divisor(expr, {1, 2}))
    assert expand_psi_decorations(once) == once


def test_point_class_three_markings_is_unit():
    P = frozenset("abcx")
    assert point_class_pullback(frozenset("abc"), P) == ClassExpression.unit(P)


def test_point_class_four_markings_four_strata():
    P = frozenset({1, 2, 3, 4, 5, 6})
    got = point_class_pullback(frozenset({1, 2, 3, 4}), P)
    assert got.term_count == 4  # two caterpillar nodes, two free labels
    assert integrate(point_class_pullback(frozenset({1, 2, 3, 4}), frozenset({1, 2, 3, 4}))) == 1


def test_point_class_caterpillar_order_is_immaterial():
    g = SimpleGraph.of(range(2), [(0, 1)])
    marks = ("a", "b", "c", "d")
    P = frozenset(range(2)) | frozenset(marks)
    psis = [pullback_psi(frozenset({v}) | set(g.neighbors(v)) | set(marks), v, P) for v in (0, 1)]
    results = set()
    for order in itertools.permutations(marks):
        base = point_class_pullback(frozenset(marks), P, caterpillar_order=order)
        results.add(integrate(_fold(base, psis)))
    assert results == {6}  # omega of a single edge with four extra markings


def _psi_monomial(n, exponents):
    ctx = _Ctx(range(n))
    decor = tuple(sorted(((0, ctx.bit[lab]), e) for lab, e in exponents.items() if e))
    return ClassExpression(ctx, {((), decor): 1})


def _psi_power_integral(n, exponents):
    """Integral of a pure cotangent monomial over the n-marking space."""
    return integrate(expand_psi_decorations(_psi_monomial(n, exponents)))


def test_cotangent_powers_integrate_to_multinomials():
    # independent oracle: the genus-zero string-equation values
    # (n-3)! / prod(e_i!) for exponents summing to n-3, reached both by the
    # boundary expansion and by the engine's symbolic integration
    for n in (4, 5, 6, 7):
        for pattern in itertools.combinations_with_replacement(range(n), n - 3):
            exps = {}
            for lab in pattern:
                exps[lab] = exps.get(lab, 0) + 1
            want = math.factorial(n - 3)
            for e in exps.values():
                want //= math.factorial(e)
            assert _psi_power_integral(n, exps) == want, (n, exps)
            assert _symbolic_fold(_psi_monomial(n, exps)) == (want, {"terms_peak": 1, "terms_final": 1})


def test_symbolic_fold_prunes_overloaded_node():
    # psi_0 * pi^* psi_0 on five markings, pulled back from {0,1,2,3}: the
    # divisor term D_{04} leaves psi_0 on a three-flag node, so it is dropped
    expr = _psi_monomial(5, {0: 1})
    value, stats = _symbolic_fold(expr, [(frozenset({0, 1, 2, 3}), 0)])
    assert stats == {"terms_peak": 1, "terms_final": 1}
    assert value == 1 == integrate(_fold(expr, [pullback_psi({0, 1, 2, 3}, 0, range(5))]))


def test_symbolic_fold_rejects_wrong_degree():
    with pytest.raises(EngineConsistencyError):
        _symbolic_fold(ClassExpression.unit(P5))
    with pytest.raises(EngineConsistencyError):
        _symbolic_fold(_psi_monomial(5, {0: 1, 1: 2}))


def test_integrate_unit_three_markings():
    assert integrate(ClassExpression.unit(frozenset("abc"))) == 1


def test_integrate_cross_ratio_chain():
    # product of point-class pullbacks from the four-marking subsets {1,2,3,j}
    for n in (4, 5, 6, 7):
        P = frozenset(range(1, n + 1))
        expr = point_class_pullback(frozenset({1, 2, 3, 4}), P)
        expr = _fold(expr, [point_class_pullback(frozenset({1, 2, 3, j}), P) for j in range(5, n + 1)])
        assert integrate(expr) == 1


def test_integrate_wrong_codimension_is_zero():
    assert integrate(boundary_divisor(P5, {1, 2})) == 0
    assert integrate(ClassExpression.unit(P5)) == 0


def test_integrate_rejects_decorations():
    prod = multiply_by_divisor(boundary_divisor(P5, {1, 2}), {1, 2})
    with pytest.raises(ValueError):
        integrate(prod)


def test_cerberus_all_full_sets():
    P = frozenset(range(8))
    constraints = [(P, k) for k in range(5)]
    assert cerberus_check(constraints) is True


def test_cerberus_small_union_fails():
    s = frozenset({1, 2, 3, 4})
    assert cerberus_check([(s, 1), (s, 2)]) is False


def test_cerberus_validation():
    with pytest.raises(ValueError):
        cerberus_check([({1, 2, 3}, 9)])
    with pytest.raises(ValueError):
        cerberus_check([({1, 2}, 1)])


def _cerberus_by_subsets(constraints):
    """The union condition by brute force over all 2^k sets of constraints."""
    sets = [frozenset(s) for s, _ in constraints]
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(sets, r):
            if len(frozenset().union(*combo)) < r + 3:
                return False
    return True


def test_cerberus_matches_the_subset_loop():
    rng = random.Random(2024)
    answers = []
    for _ in range(600):
        n = rng.randint(4, 9)
        constraints = []
        for _ in range(rng.randint(0, n)):
            subset = rng.sample(range(n), rng.randint(3, min(n, rng.choice((3, 4, 5, n)))))
            constraints.append((frozenset(subset), rng.choice(subset)))
        answers.append(cerberus_check(constraints))
        assert answers[-1] is _cerberus_by_subsets(constraints), constraints
    assert min(answers.count(True), answers.count(False)) >= 100


def test_cerberus_twenty_constraints():
    # 2^20 sets of constraints for the subset loop; Hall's theorem needs a
    # few augmenting paths per constraint
    markings = range(23)
    holds = [(frozenset(markings), i) for i in range(20)]
    assert cerberus_check(holds) is True
    short = holds[:19] + [(frozenset({0, 1, 2, 3}), 0)]
    assert cerberus_check(short) is True
    crowded = [(frozenset(range(i % 5, i % 5 + 4)), i % 5) for i in range(20)]
    assert cerberus_check(crowded) is False


def _random_constraint_system(rng, n):
    P = list(range(n))
    constraints = []
    for _ in range(n - 3):
        size = rng.randint(3, min(n, 5))
        subset = rng.sample(P, size)
        constraints.append((frozenset(subset), rng.choice(subset)))
    return constraints, frozenset(P)


def test_cerberus_false_implies_zero_degree():
    rng = random.Random(99)
    seen_false = 0
    for _ in range(60):
        constraints, P = _random_constraint_system(rng, rng.randint(5, 7))
        if not cerberus_check(constraints):
            seen_false += 1
            assert _kapranov_by_fold(constraints, P) == 0
    assert seen_false >= 10


def test_cerberus_true_implies_positive_degree_spot_checks():
    rng = random.Random(5)
    seen_true = 0
    for _ in range(40):
        constraints, P = _random_constraint_system(rng, rng.randint(5, 7))
        if all(len(s) > 3 for s, _ in constraints) and cerberus_check(constraints):
            seen_true += 1
            assert _kapranov_by_fold(constraints, P) > 0
    assert seen_true >= 5


def test_kapranov_cross_ratio_family():
    for n in (4, 5, 6):
        P = frozenset(range(1, n + 1))
        constraints = [(frozenset({1, 2, 3, j}), j) for j in range(4, n + 1)]
        assert kapranov_degree(constraints, P) == 1


def test_kapranov_flagship_example():
    P = frozenset([1, 2, 3, 4, "a", "b", "c"])
    extras = {"a", "b", "c"}
    constraints = [
        (frozenset({1, 2, 3, 4}) | extras, 1),
        (frozenset({1, 2, 3}) | extras, 2),
        (frozenset({1, 2, 3}) | extras, 3),
        (frozenset({1, 4}) | extras, 4),
    ]
    assert kapranov_degree(constraints, P) == 12
    assert _kapranov_by_fold(constraints, P) == 12


def test_kapranov_constraint_order_invariance():
    P = frozenset([1, 2, 3, 4, "a", "b", "c"])
    extras = {"a", "b", "c"}
    constraints = [
        (frozenset({1, 2, 3, 4}) | extras, 1),
        (frozenset({1, 2, 3}) | extras, 2),
        (frozenset({1, 2, 3}) | extras, 3),
        (frozenset({1, 4}) | extras, 4),
    ]
    rng = random.Random(3)
    for _ in range(5):
        shuffled = constraints[:]
        rng.shuffle(shuffled)
        assert kapranov_degree(shuffled, P) == 12


def test_kapranov_three_marking_subset_vanishes():
    P = frozenset(range(1, 6))
    constraints = [(frozenset({1, 2, 3}), 1), (P, 2)]
    assert kapranov_degree(constraints, P) == 0
    assert _kapranov_by_fold(constraints, P) == 0


def test_kapranov_wrong_count():
    with pytest.raises(ValueError):
        kapranov_degree([(P5, 1)], P5)


def test_recursion_refuses_a_count_no_caller_passes():
    # callers check the count, and the step recurses only into sides that
    # keep it, so a system off its dimension is a bug, not a degree of 0
    with pytest.raises(EngineConsistencyError, match="1 constraints on 5 markings, not 2"):
        moduli._degree(5, ((0b11111, 0),), {}, 10)


def test_omega_paw():
    assert omega(paw_graph(), 3) == 12


def test_omega_edgeless_base_case():
    for n in (1, 2, 3):
        for m in (3, 4, 5):
            assert omega(SimpleGraph.of(range(n)), m) == (m - 2) ** n


def test_omega_instar_in_mode():
    # chi_in is x^3 - 2x^2, so the in-variant value at m=3 is -chi_in(-1) = 3
    assert omega(instar_digraph(), 3, "in") == 3


def test_omega_five_cycle():
    c5 = SimpleGraph.of(range(5), [(i, (i + 1) % 5) for i in range(5)])
    # chromatic polynomial of an n-cycle: (x-1)^n + (-1)^n (x-1)
    assert (-1) ** 5 * chromatic_polynomial(c5).evaluate(-1) == 30
    assert omega(c5, 3) == 30


def test_omega_complete_graphs_factorial():
    for n in (2, 3, 4, 5):
        kn = SimpleGraph.of(range(n), itertools.combinations(range(n), 2))
        assert omega(kn, 3) == math.factorial(n)


def test_omega_random_five_vertex_graphs_match_chromatic():
    rng = random.Random(123)
    possible = list(itertools.combinations(range(5), 2))
    for _ in range(10):
        g = SimpleGraph.of(range(5), rng.sample(possible, rng.randint(0, 10)))
        assert omega(g, 3) == (-1) ** 5 * chromatic_polynomial(g).evaluate(-1)


def test_omega_symmetrized_digraph_matches_chromatic():
    g = SimpleGraph.of(range(3), [(0, 1), (1, 2)])
    d = symmetric_digraph(g)
    chi = chromatic_polynomial(g)
    for m in (3, 4):
        expected = (-1) ** g.n * chi.evaluate(-(m - 2))
        assert omega(d, m, "in") == omega(d, m, "out") == omega(g, m) == expected


@pytest.mark.parametrize("name,g", graphs_with_at_most(3))
@pytest.mark.parametrize("m", [3, 4])
def test_omega_deletion_contraction(name, g, m):
    for e in g.edges:
        assert omega(g, m) == omega(g.delete_edge(e), m) + omega(g.contract_edge(e), m)


def test_omega_mode_validation():
    with pytest.raises(ValueError):
        omega(paw_graph(), 3, "in")
    with pytest.raises(ValueError):
        omega(instar_digraph(), 3, "undirected")
    with pytest.raises(ValueError):
        omega(paw_graph(), 2)


def test_omega_term_cap():
    # the cap bounds the distinct subproblems of one call: three disjoint
    # edges at m=5 need 13, the paw at m=4 needs 9
    three_k2 = SimpleGraph.of(range(6), [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(BudgetExceededError):
        omega(three_k2, 5, term_cap=12)
    assert omega_with_stats(three_k2, 5, term_cap=13) == (1728, {"terms_peak": 13, "terms_final": 13})
    assert omega(paw_graph(), 4, term_cap=9) == 72


def test_omega_edgeless_five_term_peak():
    # every block's vertices are stripped, so each local integral is K(empty):
    # one subproblem, where the boundary expansion peaked at 20,913 strata
    value, stats = omega_with_stats(SimpleGraph.of(range(5)), 5)
    assert value == 3 ** 5
    assert stats == {"terms_peak": 1, "terms_final": 1}


def test_omega_edgeless_six_term_peak():
    # the global fold peaked at 170,688 strata
    value, stats = omega_with_stats(SimpleGraph.of(range(6)), 5)
    assert value == 3 ** 6
    assert stats == {"terms_peak": 1, "terms_final": 1}


def test_omega_at_one_node_reads_one_block():
    # at m=3 the only partition is the one block of all vertices; walking
    # every block of E30 instead would take 2^29 steps
    assert omega_with_stats(SimpleGraph.of(range(30)), 3) == (1, {"terms_peak": 1, "terms_final": 1})


def test_omega_many_extra_markings():
    p3 = SimpleGraph.of(range(3), [(0, 1), (1, 2)])
    assert omega(p3, 800) == -chromatic_polynomial(p3).evaluate(-798)


def _chi_from_table(graph):
    """(-1)^n sum of c_j (-x)(-x-1)...(-x-j+1) over the engine's table c_0..c_n."""
    chi = IntPolynomial(())
    falling = IntPolynomial((1,))
    for j, c in enumerate(omega_coefficients(graph)):
        chi = chi + falling * c
        falling = falling * IntPolynomial((-j, -1))
    return chi * (-1) ** graph.n


def test_omega_coefficients_give_chromatic_polynomial_on_catalog():
    # omega(G, m) = (-1)^n chi_G(-(m-2)) as one identity of polynomials
    for name, g in all_graphs_up_to_4():
        assert _chi_from_table(g) == chromatic_polynomial(g), name


@ORACLE_SETTINGS
@given(simple_graphs(max_n=6))
def test_omega_coefficients_give_chromatic_polynomial_on_random_graphs(g):
    assert _chi_from_table(g) == chromatic_polynomial(g)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph.of(range(10), outer + inner + [(i, i + 5) for i in range(5)])


def test_omega_petersen():
    g = _petersen()
    assert omega(g, 3) == 16_680
    assert _chi_from_table(g) == chromatic_polynomial(g)


def test_omega_coefficients_complete_eleven():
    # chi(K_n) = x(x-1)...(x-n+1); its subset DP walks 3^11 / 2 submasks
    k11 = SimpleGraph.of(range(11), itertools.combinations(range(11), 2))
    chi = IntPolynomial((1,))
    for j in range(11):
        chi = chi * IntPolynomial((-j, 1))
    assert _chi_from_table(k11) == chi


def test_local_key_strips_only_isolated_vertices():
    p3 = [0b011, 0b111, 0b110]  # closed neighborhoods of the path 0-1-2
    assert moduli._local_key(0b101, p3) == ()
    assert moduli._local_key(0b111, p3) == ((0, 1), (0, 1, 2), (1, 2))
    assert moduli._local_key(0b110, p3) == ((0, 1), (0, 1))
    instar_in = [0b001, 0b111, 0b100]  # in-neighborhoods of 0 -> 1 <- 2
    assert moduli._local_key(0b101, instar_in) == ()
    assert moduli._local_key(0b111, instar_in) == ((0,), (0, 1, 2), (2,))


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(
            SimpleGraph.of(range(6), [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)]),
            id="C6-with-chords",
        ),
        pytest.param(SimpleGraph.of(range(6), [(i, i + 1) for i in range(5)]), id="P6"),
        pytest.param(SimpleGraph.of(range(5), itertools.combinations(range(5), 2)), id="K5"),
    ],
)
def test_local_integral_counts_acyclic_orientations_block_by_block(g, monkeypatch):
    # at m=3 the split leaves one node, so K(B) = omega(G[B], 3): the number of
    # acyclic orientations of the induced subgraph.  The count is this test's
    # oracle only; the engine must never reach for it.
    def induced(block):
        keep = {v for i, v in enumerate(g.vertices) if block >> i & 1}
        return SimpleGraph.of(keep, [(u, w) for u, w in g.edges if u in keep and w in keep])

    blocks = range(1, 1 << g.n)
    expected = [len(orientations.acyclic_orientations(induced(block))) for block in blocks]

    def refuse(*args, **kwargs):
        raise AssertionError("the engine counted acyclic orientations")

    monkeypatch.setattr(orientations, "acyclic_orientations", refuse)
    index = {v: i for i, v in enumerate(g.vertices)}
    nbhds = [sum(1 << index[u] for u in g.closed_neighborhood(v)) for v in g.vertices]
    local = [_local_integral(moduli._local_key(b, nbhds)) for b in blocks]
    assert local == expected


def test_engine_keeps_cotangent_classes_symbolic(monkeypatch):
    # the engine neither expands cotangent classes over whole strata (the
    # boundary-expansion route) nor multiplies strata (the stratum fold):
    # both stay in the tests as its references
    def refuse(*args, **kwargs):
        raise AssertionError("the engine took a reference route")

    for name in ("expand_psi_decorations", "pullback_psi", "_mul_by_divisor_sum", "integrate"):
        assert not hasattr(moduli, name)
        monkeypatch.setattr(boundary_reference, name, refuse)
    for name in ("_Ctx", "_mul_term", "_integrate_symbolic", "_fold_pullbacks"):
        assert not hasattr(moduli, name)
        monkeypatch.setattr(fold_reference, name, refuse)
    paw = paw_graph()
    assert omega(paw, 4) == chromatic_polynomial(paw).evaluate(-2)
    P = frozenset([1, 2, 3, 4, "a", "b", "c"])
    extras = {"a", "b", "c"}
    constraints = [
        (frozenset({1, 2, 3, 4}) | extras, 1),
        (frozenset({1, 2, 3}) | extras, 2),
        (frozenset({1, 2, 3}) | extras, 3),
        (frozenset({1, 4}) | extras, 4),
    ]
    assert kapranov_degree(constraints, P) == 12


@st.composite
def constraint_systems(draw, max_n):
    n = draw(st.integers(4, max_n))
    constraints = []
    for _ in range(n - 3):
        subset = draw(st.sets(st.integers(0, n - 1), min_size=3))
        constraints.append((frozenset(subset), draw(st.sampled_from(sorted(subset)))))
    return constraints, frozenset(range(n))


@ORACLE_SETTINGS
@given(simple_graphs(max_n=5), st.sampled_from([3, 4]))
def test_omega_random_graphs_match_chromatic(g, m):
    assert omega(g, m) == (-1) ** g.n * chromatic_polynomial(g).evaluate(-(m - 2))


@ORACLE_SETTINGS
@given(digraphs(max_n=3), st.sampled_from(["in", "out"]), st.sampled_from([3, 4]))
def test_omega_random_digraphs_match_expansion(d, mode, m):
    assert omega(d, m, mode) == _omega_by_expansion(d, m, mode)


@ORACLE_SETTINGS
@given(constraint_systems(max_n=7))
def test_kapranov_random_systems_match_expansion(system):
    constraints, P = system
    assert _kapranov_by_fold(constraints, P) == _kapranov_by_expansion(constraints, P)


@ORACLE_SETTINGS
@given(constraint_systems(max_n=8))
def test_kapranov_random_systems_match_fold(system):
    constraints, P = system
    assert kapranov_degree(constraints, P) == _kapranov_by_fold(constraints, P)


@st.composite
def local_keys(draw, max_k):
    """Local neighborhoods on 0..k-1, each holding its own vertex."""
    k = draw(st.integers(0, max_k))
    return tuple(tuple(sorted(draw(st.sets(st.integers(0, k - 1))) | {i})) for i in range(k))


@ORACLE_SETTINGS
@given(local_keys(max_k=5))
def test_local_integral_random_keys_match_fold(key):
    assert _local_integral(key) == _local_integral_by_fold(key)


@ORACLE_SETTINGS
@given(simple_graphs(max_n=5), st.sampled_from([3, 4, 5]))
def test_omega_random_graphs_match_global_fold(g, m):
    assert omega(g, m) == _omega_by_global_fold(g, m)[0]


@ORACLE_SETTINGS
@given(digraphs(max_n=4), st.sampled_from(["in", "out"]), st.sampled_from([3, 4]))
def test_omega_random_digraphs_match_global_fold(d, mode, m):
    assert omega(d, m, mode) == _omega_by_global_fold(d, m, mode)[0]


@st.composite
def local_constraints_with_isolated_vertex(draw, max_k):
    """Local neighborhoods on 0..k-1, and the same with an isolated vertex inserted."""
    k = draw(st.integers(0, max_k))
    nbhds = [draw(st.sets(st.integers(0, k - 1))) | {i} for i in range(k)]
    v = draw(st.integers(0, k))
    shift = [j if j < v else j + 1 for j in range(k)]
    with_v = [tuple(sorted(shift[j] for j in nb)) for nb in nbhds]
    with_v.insert(v, (v,))
    return tuple(tuple(sorted(nb)) for nb in nbhds), tuple(with_v)


@ORACLE_SETTINGS
@given(local_constraints_with_isolated_vertex(max_k=4))
def test_isolated_vertex_leaves_local_integral_unchanged(pair):
    without, with_v = pair
    assert _local_integral(with_v) == _local_integral(without)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: omega(paw_graph(), 4), id="omega"),
        pytest.param(lambda: chromatic_polynomial(paw_graph()), id="chromatic"),
        pytest.param(lambda: digraph_polynomial_report(instar_digraph()), id="digraph-report"),
        pytest.param(
            lambda: cli.main(["verify", "--graph", str(cli.DATA_DIR / "paw.txt"), "--m", "3"]),
            id="cli-verify",
        ),
    ],
)
def test_call_leaves_no_cyclic_garbage(call):
    # a recursive closure (function -> cell -> function) would keep its memo
    # alive until the cyclic collector runs; so would a parser built per CLI
    # call (argparse formatters hold cycles).  The warm-up call builds what is
    # built once per process, the CLI parser.
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_all_coefficients_are_integers():
    _, stats = omega_with_stats(paw_graph(), 4)
    assert stats["terms_final"] >= stats["terms_peak"] >= 1
    expr = point_class_pullback(frozenset("abcd"), frozenset("abcdxy"))
    assert all(isinstance(c, int) for c in expr.terms.values())


def test_expression_arithmetic():
    a = boundary_divisor(P5, {1, 2})
    b = boundary_divisor(P5, {1, 3})
    assert (a + b) - a == b
    assert (2 * a).terms == {k: 2 * c for k, c in a.terms.items()}
    assert (0 * a).is_zero
    with pytest.raises(ValueError):
        a + ClassExpression.unit(P4)
