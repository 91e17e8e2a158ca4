"""Tests of the benchmark's own oracle, checks, workloads and span analysis.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, layer_metrics  # noqa: E402

ROOT = HERE.parent


def poly_from_roots(roots):
    poly = [1]
    for r in roots:
        poly = oracle.poly_mul(poly, [-r, 1])
    return poly


def poly_sum(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chromatic_closed_forms(n):
    assert oracle.chromatic(n, []) == [0] * n + [1]  # E_n: x^n
    assert oracle.chromatic(n, workloads.complete(n)) == poly_from_roots(range(n))  # K_n
    # P_n: x (x-1)^(n-1)
    assert oracle.chromatic(n, workloads.path(n)) == poly_from_roots([0] + [1] * (n - 1))
    if n >= 3:  # C_n: (x-1)^n + (-1)^n (x-1)
        want = poly_sum(poly_from_roots([1] * n), [(-1) ** n * c for c in (-1, 1)])
        assert oracle.chromatic(n, workloads.cycle(n)) == want


def test_simple_value_is_signed_chromatic():
    paw = workloads.read_graph_file(ROOT / "src/chromoduli/data/paw.txt")
    assert oracle.simple_value(paw, 3) == 12  # the README's five-way answer
    assert oracle.simple_value({"n": 5, "edges": []}, 5) == 3**5


def test_digraph_closed_forms():
    instar = workloads.read_graph_file(ROOT / "src/chromoduli/data/instar.txt")
    chi_in, chi_out = oracle.digraph_polys(instar)
    assert chi_in == [0, 0, -2, 1]  # x^3 - 2x^2, as in the README
    assert oracle.digraph_polys(workloads.reverse(instar)) == (chi_out, chi_in)
    sym = {"n": 3, "edges": [(0, 1), (1, 0), (1, 2), (2, 1)], "directed": True}
    assert oracle.digraph_polys(sym) == (oracle.chromatic(3, workloads.path(3)),) * 2
    assert oracle.digraph_polys({"n": 4, "edges": workloads.cycle(4), "directed": True}) is None


def test_interpolate_rejects_fractional_data():
    with pytest.raises(ValueError):
        oracle.interpolate([(0, 0), (1, 1), (2, 3)])  # x(x+1)/2


def _good_results(cases):
    """Outputs the package would print for these cases, built from the oracle."""
    results = []
    for case in cases:
        g = case["graph"]
        if case["kind"] == "verify" and not g["directed"]:
            want = oracle.simple_value(g, case["m"])
            row = {"agree": True, "m": case["m"], "skipped": [], "values": dict.fromkeys(oracle.SIMPLE_ROUTES, want)}
            output = {"exit_code": 0, "rows": [row]}
        elif case["kind"] == "verify":
            sign = (-1) ** g["n"]
            vin, vout = (sign * oracle.evaluate(p, -(case["m"] - 2)) for p in oracle.digraph_polys(g))
            values = {"omega_in": vin, "chi_in_eval": vin, "omega_out": vout, "chi_out_eval": vout}
            output = {"exit_code": 0, "rows": [{"agree": True, "m": case["m"], "skipped": [], "values": values}]}
        elif case["kind"] == "omega":
            output = {"value": oracle.simple_value(g, case["m"]), "terms_peak": 1}
        else:
            chi_in, chi_out = oracle.digraph_polys(g)
            output = {"chi_in": chi_in, "chi_out": chi_out, "consistent": True}
        results.append({"id": case["id"], "output": output, "seconds": 0.1})
    return results


def _small_cases():
    instar = workloads.read_graph_file(ROOT / "src/chromoduli/data/instar.txt")
    raw = [
        {"kind": "verify", "graph": workloads.P3, "m": 3},
        {"kind": "verify", "graph": workloads.ARC2, "m": 4},
        {"kind": "omega", "graph": {"name": "C4", "n": 4, "edges": workloads.cycle(4), "directed": False}, "m": 4},
        {"kind": "digraph_report", "graph": instar},
        {"kind": "digraph_report", "graph": workloads.reverse(instar)},
    ]
    return [dict(c, id=f"case{i}") for i, c in enumerate(raw)]


def test_right_outputs_pass():
    cases = _small_cases()
    assert oracle.check_pass(cases, _good_results(cases)) == {}


@pytest.mark.parametrize(
    "index, corrupt",
    [
        (0, lambda out: out["rows"][0]["values"].update(stanley=999)),
        (0, lambda out: out["rows"][0]["values"].pop("chambers_lp")),
        (0, lambda out: out.update(exit_code=1)),
        (1, lambda out: out["rows"][0]["values"].update(omega_in=0, chi_in_eval=0)),
        (2, lambda out: out.update(value=out["value"] + 1)),
        (3, lambda out: out.update(chi_in=[0, 0, -3, 1])),
        (3, lambda out: out.update(consistent=False)),
    ],
)
def test_corrupted_value_counts_as_failed_case(index, corrupt):
    cases = _small_cases()
    results = _good_results(cases)
    corrupt(results[index]["output"])
    assert list(oracle.check_pass(cases, results)) == [cases[index]["id"]]


def test_reversal_must_swap_polynomials():
    cases = _small_cases()
    results = _good_results(cases)
    # The cyclic 3-vertex digraph has no closed form; only the swap can catch it.
    tri = {"name": "tri", "n": 3, "edges": workloads.cycle(3), "directed": True}
    cases += [dict(kind="digraph_report", graph=tri, id="tri"), dict(kind="digraph_report", graph=workloads.reverse(tri), id="tri_rev")]
    results += [
        {"id": "tri", "output": {"chi_in": [0, 1, -3, 1], "chi_out": [0, 2, -3, 1], "consistent": True}},
        {"id": "tri_rev", "output": {"chi_in": [0, 1, -3, 1], "chi_out": [0, 2, -3, 1], "consistent": True}},
    ]
    assert set(oracle.check_pass(cases, results)) == {"tri", "tri_rev"}


def test_raised_and_missing_cases_fail():
    cases = _small_cases()
    results = _good_results(cases)[:3]
    results[1] = {"id": results[1]["id"], "error": "EngineConsistencyError: boom", "seconds": 0.1}
    assert set(oracle.check_pass(cases, results)) == {"case1", "case3", "case4"}


def test_cases_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.cases(name, 7) == workloads.cases(name, 7)
        ids = [c["id"] for c in workloads.cases(name, 7)]
        assert len(ids) == len(set(ids))
    # Relabelling keeps the isomorphism class, hence the reference value.
    a, b = workloads.cases("engine_sparse", 1), workloads.cases("engine_sparse", 2)
    assert [c["graph"]["edges"] for c in a] != [c["graph"]["edges"] for c in b]
    assert [oracle.simple_value(c["graph"], c["m"]) for c in a if c["kind"] == "omega"] == [
        oracle.simple_value(c["graph"], c["m"]) for c in b if c["kind"] == "omega"
    ]


def test_layer_metrics_self_and_inclusive_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["arrangement.bounded_chambers_lp", 1.0, 5.0, 0, 3],
        ["lp.solve_lp", 1.0, 2.0, 1, None],
        ["lp.solve_lp", 2.0, 4.0, 1, None],
        ["critical.solve_all_chambers", 5.0, 9.0, 0, None],
        ["arrangement.interior_point", 5.0, 6.0, 4, None],
        ["lp.solve_lp", 5.0, 6.0, 5, None],
        ["moduli.omega", 9.0, 9.5, 0, None],
        ["moduli.omega_with_stats", 9.0, 9.5, 7, 40],
        ["moduli.expand_psi_decorations", 9.1, 9.2, 8, 25],
        ["moduli.expand_psi_decorations", 9.3, 9.4, 8, 40],
    ]
    m = layer_metrics(spans)
    assert m["cli.verify_self_s"] == pytest.approx(10 - 4 - 4 - 0.5)
    assert m["arrangement.lp_search_s"] == 4.0
    assert m["arrangement.chambers"] == 3
    assert m["arrangement.lp_yield"] == 1.5  # 3 chambers from 2 LPs inside the search
    assert m["lp.solve_calls"] == 3 and m["lp.solve_s"] == 4.0
    assert m["critical.solve_s"] == 4.0 and m["critical.interior_point_s"] == 1.0
    assert m["moduli.omega_calls"] == 1 and m["moduli.omega_s"] == 0.5
    assert m["moduli.fold_steps"] == 2 and m["moduli.terms_total"] == 65
    assert m["moduli.terms_peak"] == 40
    assert math.isclose(m["moduli.expand_psi_s"], 0.2)


def test_tracer_wraps_names_where_callers_look_them_up():
    script = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from tracer import Tracer\n"
        "import chromoduli.cli as cli\n"
        "t = Tracer().install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--graph', 'src/chromoduli/data/paw.txt', '--m', '3'])\n"
        "print(json.dumps([code, t.spans]))\n"
    )
    env = {"PYTHONPATH": "src", "PATH": ""}
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    code, spans = json.loads(out.stdout)
    assert code == 0
    names = {s[0] for s in spans}
    for name in ("cli.main", "cli.cmd_verify", "graphs.chromatic_polynomial", "lp.solve_lp",
                 "arrangement.interior_point", "critical.solve_chamber", "moduli.omega_with_stats"):
        assert name in names
    m = layer_metrics(spans)
    assert m["arrangement.chambers"] == 12 and m["lp.solve_calls"] > 12


def test_benchmark_json_names_every_printed_metric():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reversal_check_skips_digraphs_of_another_size():
    # Same number of arcs, different vertex counts: never isomorphic.
    dcycle4 = {"name": "dcycle4", "n": 4, "edges": workloads.cycle(4), "directed": True}
    sym_p3 = {"name": "symP3", "n": 3, "edges": [(0, 1), (1, 0), (1, 2), (2, 1)], "directed": True}
    chi_p3 = oracle.chromatic(3, workloads.path(3))
    cases = [dict(kind="digraph_report", graph=dcycle4, id="c4"), dict(kind="digraph_report", graph=sym_p3, id="p3")]
    results = [
        {"id": "c4", "output": {"chi_in": [0, -3, 6, -4, 1], "chi_out": [0, -3, 6, -4, 1], "consistent": True}},
        {"id": "p3", "output": {"chi_in": chi_p3, "chi_out": chi_p3, "consistent": True}},
    ]
    assert oracle.check_pass(cases, results) == {}
