"""Reference values computed without the package under test, and the case checks.

* Chromatic polynomials come from brute-force proper-colouring counts at
  x = 0..n, interpolated with exact Fractions.
* A simple graph's intersection number with m extra markings is
  (-1)^n chi(-(m-2)).
* An acyclic digraph's in/out polynomials are prod(x - indeg) and
  prod(x - outdeg); a symmetric digraph's are both chi of its underlying
  graph.  Any digraph's are monic integer polynomials of degree n, and
  reversing the arcs swaps them.

Polynomials are coefficient lists, constant term first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

SIMPLE_ROUTES = (
    "chromatic",
    "stanley",
    "chambers_bijective",
    "chambers_lp",
    "critical_points",
    "engine_omega",
)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def evaluate(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def interpolate(points):
    """Exact Lagrange interpolation; raises unless every coefficient is an integer."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for d in range(len(basis) - 1):
                    basis[d] -= xj * basis[d + 1]
                denom *= xi - xj
        for d, c in enumerate(basis):
            coeffs[d] += Fraction(yi) * c / denom
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError(f"non-integer interpolant {coeffs}")
    return _trim(int(c) for c in coeffs)


def proper_colourings(n, edges, x):
    return sum(
        all(col[u] != col[w] for u, w in edges)
        for col in itertools.product(range(x), repeat=n)
    )


def chromatic(n, edges):
    """Chromatic polynomial of a simple graph on vertices 0..n-1."""
    return interpolate([(x, proper_colourings(n, edges, x)) for x in range(n + 1)])


def simple_value(graph, m):
    return (-1) ** graph["n"] * evaluate(chromatic(graph["n"], graph["edges"]), -(m - 2))


def is_acyclic(n, arcs):
    indeg = [0] * n
    for _, w in arcs:
        indeg[w] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for u, w in arcs:
            if u == v:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    return seen == n


def digraph_polys(graph):
    """(chi_in, chi_out) where a closed form applies, else None."""
    n, arcs = graph["n"], [tuple(a) for a in graph["edges"]]
    if is_acyclic(n, arcs):
        polys = []
        for end in (1, 0):  # in-degree counts heads, out-degree tails
            poly = [1]
            for v in range(n):
                poly = poly_mul(poly, [-sum(1 for a in arcs if a[end] == v), 1])
            polys.append(poly)
        return tuple(polys)
    arcset = set(arcs)
    if all((w, u) in arcset for u, w in arcs):
        chi = chromatic(n, sorted({tuple(sorted(a)) for a in arcs}))
        return chi, chi
    return None


def _check_simple_row(case, row):
    want = simple_value(case["graph"], case["m"])
    values = row.get("values", {})
    if set(values) != set(SIMPLE_ROUTES):
        return f"routes {sorted(values)} instead of all five"
    wrong = {k: v for k, v in values.items() if v != want}
    return f"{wrong} differ from the reference {want}" if wrong else None


def _check_digraph_row(case, row):
    values = row.get("values", {})
    if values.get("omega_in") != values.get("chi_in_eval") or values.get(
        "omega_out"
    ) != values.get("chi_out_eval"):
        return f"engine and polynomial values differ: {values}"
    polys = digraph_polys(case["graph"])
    if polys is not None:
        sign = (-1) ** case["graph"]["n"]
        want = [sign * evaluate(p, -(case["m"] - 2)) for p in polys]
        if [values.get("omega_in"), values.get("omega_out")] != want:
            return f"{values} differ from the reference in/out values {want}"
    return None


def check_verify(case, output):
    """None when a `verify --graph G --m M` call is right, else the reason."""
    if output.get("exit_code") != 0:
        return f"exit code {output.get('exit_code')}"
    rows = output.get("rows", [])
    if len(rows) != 1:
        return f"{len(rows)} rows instead of 1"
    row = rows[0]
    if row.get("agree") is not True or row.get("skipped") or row.get("m") != case["m"]:
        return f"row {row} does not agree, skips a route or has the wrong m"
    if case["graph"]["directed"]:
        return _check_digraph_row(case, row)
    return _check_simple_row(case, row)


def check_omega(case, output):
    want = simple_value(case["graph"], case["m"])
    if output.get("value") != want:
        return f"omega {output.get('value')} instead of {want}"
    if not output.get("terms_peak", 0) > 0:
        return "no terms_peak statistic"
    return None


def check_report(case, output):
    n = case["graph"]["n"]
    if output.get("consistent") is not True:
        return "report is not consistent"
    for key in ("chi_in", "chi_out"):
        poly = output.get(key)
        if not (isinstance(poly, list) and len(poly) == n + 1 and poly[-1] == 1):
            return f"{key} {poly} is not monic of degree {n}"
        if not all(isinstance(c, int) for c in poly):
            return f"{key} {poly} has non-integer coefficients"
    polys = digraph_polys(case["graph"])
    if polys is not None and [output["chi_in"], output["chi_out"]] != list(polys):
        return f"{output['chi_in']}, {output['chi_out']} differ from the reference {list(polys)}"
    return None


CHECKS = {"verify": check_verify, "omega": check_omega, "digraph_report": check_report}


def check_pass(cases, results):
    """Reasons, by case id, for every case of one pass that failed.

    A case fails when it raised, exited nonzero or disagreed with the
    reference.  A digraph report also fails when the report for its reversal
    (an isomorphic copy of it, within the same pass) does not swap chi_in and
    chi_out.
    """
    failures = {}
    by_id = {}
    for case, result in zip(cases, results):
        if result.get("id") != case["id"]:
            failures[case["id"]] = f"result for {result.get('id')!r} in its place"
            continue
        if "error" in result:
            failures[case["id"]] = result["error"]
            continue
        reason = CHECKS[case["kind"]](case, result["output"])
        if reason:
            failures[case["id"]] = reason
        else:
            by_id[case["id"]] = (case, result["output"])
    for case in cases[len(results):]:
        failures[case["id"]] = "not run"
    reports = [(c, o) for c, o in by_id.values() if c["kind"] == "digraph_report"]
    for case, out in reports:
        rev = sorted((w, u) for u, w in case["graph"]["edges"])
        for other, other_out in reports:
            if _is_isomorphic(case["graph"]["n"], rev, other["graph"]) and (
                out["chi_in"] != other_out["chi_out"] or out["chi_out"] != other_out["chi_in"]
            ):
                failures.setdefault(case["id"], f"reversal {other['id']} does not swap chi_in/chi_out")
    return failures


def _is_isomorphic(n, arcs, graph):
    target = set(map(tuple, graph["edges"]))
    if n != graph["n"] or len(arcs) != len(target):
        return False
    return any(
        {(p[u], p[w]) for u, w in arcs} == target for p in itertools.permutations(range(n))
    )
