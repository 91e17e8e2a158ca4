import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromoduli.digraph_poly import (
    advisory_flags,
    chi_acyclic,
    chi_engine,
    digraph_polynomial_report,
)
from chromoduli.graphs import Digraph, IntPolynomial, SimpleGraph, chromatic_polynomial
from chromoduli.moduli import omega

from graph_catalog import (
    ORACLE_SETTINGS,
    acyclic_digraphs,
    digraphs,
    instar_digraph,
    is_monic,
    symmetric_digraph,
)

CYCLE3 = Digraph.of(range(3), [(0, 1), (1, 2), (2, 0)])


def test_chi_acyclic_instar():
    d = instar_digraph()
    assert chi_acyclic(d, "in").coefficients == (0, 0, -2, 1)  # x^3 - 2x^2
    assert chi_acyclic(d, "out").coefficients == (0, 1, -2, 1)  # x^3 - 2x^2 + x


def test_chi_acyclic_edgeless():
    d = Digraph.of(range(3))
    assert chi_acyclic(d, "in") == IntPolynomial.monomial(3)
    assert chi_acyclic(d, "out") == IntPolynomial.monomial(3)


def test_chi_acyclic_rejects_cycles():
    with pytest.raises(ValueError):
        chi_acyclic(CYCLE3, "in")
    with pytest.raises(ValueError):
        chi_acyclic(instar_digraph(), "sideways")


def test_chi_engine_edgeless():
    for n in (1, 2, 3):
        d = Digraph.of(range(n))
        assert chi_engine(d, "in") == IntPolynomial.monomial(n)


def test_chi_engine_instar():
    d = instar_digraph()
    assert chi_engine(d, "in").coefficients == (0, 0, -2, 1)
    assert chi_engine(d, "out").coefficients == (0, 1, -2, 1)


def test_chi_engine_symmetrization_recovers_chromatic():
    g = SimpleGraph.of(range(3), [(0, 1), (1, 2)])
    d = symmetric_digraph(g)
    chi = chromatic_polynomial(g)
    assert chi_engine(d, "in") == chi
    assert chi_engine(d, "out") == chi


def _lagrange_integer(points):
    """Exact Lagrange interpolation through (x, y) pairs; coefficients must be integers."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        numerator = [Fraction(1)]  # prod over j != i of (x - x_j)
        denominator = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            grown = [Fraction(0)] * (len(numerator) + 1)
            for d, c in enumerate(numerator):
                grown[d + 1] += c
                grown[d] -= xj * c
            numerator = grown
            denominator *= xi - xj
        scale = Fraction(yi) / denominator
        for d, c in enumerate(numerator):
            coeffs[d] += scale * c
    assert all(c.denominator == 1 for c in coeffs), coeffs
    return IntPolynomial(tuple(int(c) for c in coeffs))


@ORACLE_SETTINGS
@given(digraphs(max_n=4), st.sampled_from(["in", "out"]))
def test_chi_engine_matches_interpolated_engine_values(d, mode):
    # n + 1 engine values determine a degree-n polynomial; two more must lie on it
    n = d.n
    sign = (-1) ** n
    points = [(-(m - 2), sign * omega(d, m, mode)) for m in range(3, n + 4)]
    chi = chi_engine(d, mode)
    assert chi == _lagrange_integer(points)
    for m in (n + 4, n + 5):
        assert sign * chi.evaluate(-(m - 2)) == omega(d, m, mode)


def _three_vertex_digraphs():
    pairs = list(itertools.permutations(range(3), 2))
    for mask in range(2 ** len(pairs)):
        arcs = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        yield Digraph.of(range(3), arcs)


def test_route_agreement_all_two_vertex_digraphs():
    pairs = [(0, 1), (1, 0)]
    for mask in range(4):
        arcs = [pairs[i] for i in range(2) if (mask >> i) & 1]
        d = Digraph.of(range(2), arcs)
        for mode in ("in", "out"):
            engine = chi_engine(d, mode)
            if d.is_acyclic():
                assert engine == chi_acyclic(d, mode)


def test_route_agreement_sampled_three_vertex_digraphs():
    sample = [d for i, d in enumerate(_three_vertex_digraphs()) if i % 7 == 0]
    for d in sample:
        for mode in ("in", "out"):
            engine = chi_engine(d, mode)
            assert is_monic(engine) and engine.degree == 3
            if d.is_acyclic():
                assert engine == chi_acyclic(d, mode)


def test_edge_reversal_swaps_polynomials():
    for d in (instar_digraph(), CYCLE3):
        rep = digraph_polynomial_report(d)
        rev = digraph_polynomial_report(d.reverse())
        assert rev.chi_in == rep.chi_out and rev.chi_out == rep.chi_in


@ORACLE_SETTINGS
@given(acyclic_digraphs(max_n=4))
def test_acyclic_routes_agree_on_random_digraphs(d):
    report = digraph_polynomial_report(d)
    assert report.consistent
    assert chi_engine(d, "in") == chi_acyclic(d, "in") == report.chi_in
    assert chi_engine(d, "out") == chi_acyclic(d, "out") == report.chi_out


@ORACLE_SETTINGS
@given(digraphs(max_n=4))
def test_reversal_swaps_polynomials_on_random_digraphs(d):
    rep, rev = digraph_polynomial_report(d), digraph_polynomial_report(d.reverse())
    assert (rev.chi_in, rev.chi_out) == (rep.chi_out, rep.chi_in)


def test_report_routes_and_consistency():
    rep = digraph_polynomial_report(instar_digraph())
    assert rep.consistent
    assert rep.route_in == rep.route_out == "acyclic-formula"
    repc = digraph_polynomial_report(CYCLE3)
    assert repc.consistent
    assert repc.route_in == repc.route_out == "engine"
    assert repc.chi_in == repc.chi_out  # the directed triangle is reversal-symmetric




def test_advisories_warn_but_never_fail():
    # x^3 - 2x^2 is negative at x = 1: flagged, not fatal
    warns = advisory_flags(IntPolynomial((0, 0, -2, 1)), "chi_in")
    assert any("negative value" in w for w in warns)
    rep = digraph_polynomial_report(instar_digraph())
    assert rep.consistent and rep.advisories
    # alternation and log-concavity violations are reported too
    assert advisory_flags(IntPolynomial((0, 1, 2, 1)), "p")
    assert any("log-concave" in w for w in advisory_flags(IntPolynomial((0, 1, 1, 9, 1)), "p"))
