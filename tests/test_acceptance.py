"""Acceptance criteria, one test per criterion, each printing a PASS line.

Numbering follows the project checklist; every tolerance is pinned here.
"""

import json
import random
import time

import numpy as np

from chromoduli import cli
from chromoduli.arrangement import build_arrangement
from chromoduli.critical import critical_point_reports, default_weights, gradient, log_master
from chromoduli.digraph_poly import chi_acyclic, chi_engine, digraph_polynomial_report
from chromoduli.graphs import SimpleGraph, canonical_key, chromatic_polynomial
from chromoduli.moduli import DEFAULT_TERM_CAP, cerberus_check, omega

from fold_reference import _Ctx, _fold_pullbacks
from graph_catalog import all_graphs_up_to_4, dense_functionals, paw_graph, instar_digraph

_OMEGA_CACHE = {}


def cached_omega(graph, m):
    key = (canonical_key(graph), m)
    if key not in _OMEGA_CACHE:
        _OMEGA_CACHE[key] = omega(graph, m)
    return _OMEGA_CACHE[key]


def signed_chromatic(graph, m):
    return (-1) ** graph.n * chromatic_polynomial(graph).evaluate(-(m - 2))


def test_criterion_1_flagship_five_way_agreement():
    start = time.perf_counter()
    g = paw_graph()
    routes = cli.simple_routes(g, 3)
    assert list(routes) == [
        "chromatic",
        "stanley",
        "chambers_bijective",
        "chambers_lp",
        "critical_points",
        "engine_omega",
    ]
    values, skipped, failed, _ = cli.run_routes(routes)
    assert not skipped and not failed and set(values.values()) == {12}, values
    reports = critical_point_reports(g, 3, seed=0)
    assert all(r.gradient_inf_norm <= 1e-10 for r in reports)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"flagship took {elapsed:.1f}s"
    print(f"\ncriterion 1 (flagship, all five oracles = 12): PASS [{elapsed:.1f}s]")


def test_criterion_2_main_theorem_sweep():
    start = time.perf_counter()
    for name, g in all_graphs_up_to_4():
        for m in (3, 4, 5):
            assert cached_omega(g, m) == signed_chromatic(g, m), (name, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    print(f"\ncriterion 2 (main identity, 18 graphs x m=3,4,5): PASS [{elapsed:.1f}s]")


def test_criterion_3_edgeless_base_case():
    for n in range(1, 6):
        g = SimpleGraph.of(range(n))
        for m in (3, 4, 5):
            assert cached_omega(g, m) == (m - 2) ** n, (n, m)
    print("\ncriterion 3 (edgeless base case, n <= 5): PASS")


def test_criterion_4_omega_deletion_contraction():
    for name, g in all_graphs_up_to_4():
        for e in g.edges:
            deleted, contracted = g.delete_edge(e), g.contract_edge(e)
            for m in (3, 4, 5):
                assert cached_omega(g, m) == cached_omega(deleted, m) + cached_omega(
                    contracted, m
                ), (name, e, m)
    print("\ncriterion 4 (deletion-contraction of the intersection numbers): PASS")


def test_criterion_5_complete_graph_critical_points():
    start = time.perf_counter()
    for n, expected in ((3, 6), (4, 24)):
        g = SimpleGraph.of(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])
        reports = critical_point_reports(g, 3, seed=0)
        assert len(reports) == expected
        pts = np.array([r.point for r in reports])
        assert np.min(np.abs(pts - np.round(pts))) >= 1e-8  # never near an integer level
        for p in pts:
            diffs = np.abs(np.subtract.outer(p, p))[np.triu_indices(len(p), 1)]
            assert np.min(diffs) >= 1e-8  # coordinates pairwise distinct
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"critical points took {elapsed:.1f}s"
    print(f"\ncriterion 5 (3! and 4! certified critical points): PASS [{elapsed:.1f}s]")


def test_criterion_6_digraph_polynomials():
    d = instar_digraph()
    closed_in, closed_out = chi_acyclic(d, "in"), chi_acyclic(d, "out")
    assert closed_in.coefficients == (0, 0, -2, 1)
    assert closed_out.coefficients == (0, 1, -2, 1)
    assert chi_engine(d, "in") == closed_in
    assert chi_engine(d, "out") == closed_out
    rep, rev = digraph_polynomial_report(d), digraph_polynomial_report(d.reverse())
    assert rev.chi_in == rep.chi_out and rev.chi_out == rep.chi_in
    print("\ncriterion 6 (digraph polynomials, both routes + reversal): PASS")


def test_criterion_7_cerberus_soundness():
    rng = random.Random(20240501)
    checked = 0
    falsified = 0
    while checked < 200:
        n = rng.randint(4, 8)
        labels = list(range(n))
        constraints = []
        for _ in range(n - 3):
            size = rng.randint(3, min(n, rng.choice((3, 4, 4, 5, n))))
            subset = rng.sample(labels, size)
            constraints.append((frozenset(subset), rng.choice(subset)))
        checked += 1
        if not cerberus_check(constraints):
            falsified += 1
            # the symbolic fold from the fundamental class, without the shortcut
            assert _fold_pullbacks(_Ctx(labels), {((), ()): 1}, constraints, DEFAULT_TERM_CAP)[0] == 0
    assert falsified >= 50, f"only {falsified} false instances sampled"
    print(f"\ncriterion 7 (union condition soundness, {falsified}/200 false cases): PASS")


def test_criterion_8_gradient_finite_differences():
    rng = np.random.default_rng(77)
    h = 1e-7
    points_checked = 0
    for name, g in all_graphs_up_to_4():
        arr = build_arrangement(g, 3)
        u = default_weights(arr, seed=13)
        fns = dense_functionals(g, 3)
        A = np.array([f.coefficients for f in fns], dtype=float)
        b = np.array([f.constant for f in fns], dtype=float)
        sampled = 0
        while sampled < 6:
            z = rng.uniform(0.05, 0.95, g.n)
            if np.min(np.abs(A @ z + b)) < 1e-3:
                continue
            sampled += 1
            points_checked += 1
            grad = gradient(arr, u, z)
            for j in range(g.n):
                e = np.zeros(g.n)
                e[j] = h
                fd = (log_master(arr, u, z + e) - log_master(arr, u, z - e)) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(grad[j])), (name, j)
    assert points_checked >= 100
    print(f"\ncriterion 8 (gradient vs central differences at {points_checked} points): PASS")


def test_criterion_9_verify_determinism(capsys):
    argv = ["verify", "--seed", "3"]
    code1 = cli.main(list(argv))
    first = capsys.readouterr().out
    code2 = cli.main(list(argv))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first.encode() == second.encode()
    for line in first.strip().splitlines():
        json.loads(line)
    print("\ncriterion 9 (byte-identical verify runs): PASS")
