import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import chromoduli
from chromoduli import arrangement, cli, critical, digraph_poly, moduli
from chromoduli.errors import BudgetExceededError, ConvergenceError, EngineConsistencyError
from chromoduli.graphs import (
    IntPolynomial,
    SimpleGraph,
    automorphism_generators,
    chromatic_polynomial,
    graph_to_json,
    load_graph_file,
)

from graph_catalog import ORACLE_SETTINGS, graphs_and_m, paw_graph

PAW = str(cli.DATA_DIR / "paw.txt")
INSTAR = str(cli.DATA_DIR / "instar.txt")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_echo(capsys):
    code, out = run(capsys, "parse", "--graph", PAW)
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "graph" and blob["vertices"] == [0, 1, 2, 3]


def test_chromatic_paw(capsys):
    code, out = run(capsys, "chromatic", "--graph", PAW)
    assert code == 0
    assert json.loads(out)["coefficients"] == [0, -2, 5, -4, 1]


def test_omega_genus_zero(capsys):
    code, out = run(capsys, "omega", "--graph", PAW, "--m", "3")
    blob = json.loads(out)
    assert code == 0 and blob["value"] == 12 and blob["route"] == "engine"


def test_omega_genus_reduced(capsys):
    code, out = run(capsys, "omega", "--graph", PAW, "--m", "3", "--g", "1")
    blob = json.loads(out)
    assert code == 0
    assert blob["value"] == 240  # chi at -3 with positive sign
    assert blob["route"] == "engine-genus-reduced" and blob["engine_m"] == 5


def test_omega_genus_one_no_markings(capsys):
    code, out = run(capsys, "omega", "--graph", PAW, "--m", "0", "--g", "1")
    blob = json.loads(out)
    assert code == 0
    assert blob["value"] == 2 and blob["route"] == "chromatic-derivative"


def test_omega_genus_one_no_markings_instar(capsys):
    # chi_out = x^3 - 2x^2 + x and chi_in = x^3 - 2x^2: signed linear coefficients
    code, out = run(capsys, "omega", "--graph", INSTAR, "--g", "1", "--m", "0", "--mode", "out")
    assert code == 0 and json.loads(out)["value"] == 1
    code, out = run(capsys, "omega", "--graph", INSTAR, "--g", "1", "--m", "0", "--mode", "in")
    assert code == 0 and json.loads(out)["value"] == 0


def test_omega_digraph_needs_mode(capsys):
    code, _ = run(capsys, "omega", "--graph", INSTAR, "--m", "3")
    assert code == cli.EXIT_PARSE
    code, out = run(capsys, "omega", "--graph", INSTAR, "--m", "3", "--mode", "in")
    assert code == 0 and json.loads(out)["value"] == 3


def test_omega_term_budget_caps_each_local_fold(tmp_path, capsys):
    # the edgeless graph's local integrals are all K(empty), one subproblem,
    # so a budget far below the old global fold's peak is enough
    edgeless = tmp_path / "e6.txt"
    edgeless.write_text("6 0\n")
    code, out = run(capsys, "omega", "--graph", str(edgeless), "--m", "5", "--budget-terms", "1000")
    assert code == 0 and json.loads(out)["value"] == 729


def test_malformed_graph_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _ = run(capsys, "chromatic", "--graph", str(bad))
    assert code == cli.EXIT_PARSE
    code, _ = run(capsys, "chromatic", "--graph", str(tmp_path / "missing.txt"))
    assert code == cli.EXIT_PARSE


def test_chambers_both_methods(capsys):
    code, out = run(capsys, "chambers", "--graph", PAW, "--m", "3")
    blob = json.loads(out)
    assert code == 0
    assert blob["count_bijective"] == blob["count_lp"] == 12
    assert blob["sign_vectors_match"] is True


def test_chambers_disagreement_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(cli.arr_mod, "bounded_chambers_lp", lambda arr, budget: [])
    code, out = run(capsys, "chambers", "--graph", PAW, "--m", "3")
    assert code == cli.EXIT_DISAGREE


def test_critical_points_json(capsys):
    code, out = run(capsys, "critical-points", "--graph", PAW, "--m", "3")
    reports = json.loads(out)
    assert code == 0 and len(reports) == 12
    assert all(r["converged"] and r["gradient_inf_norm"] <= 1e-10 for r in reports)


def test_critical_points_weights_file(tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([1.0] * 12))
    code, out = run(capsys, "critical-points", "--graph", PAW, "--m", "3", "--weights", str(weights))
    assert code == 0 and len(json.loads(out)) == 12
    weights.write_text(json.dumps([1.0] * 3))
    code, _ = run(capsys, "critical-points", "--graph", PAW, "--m", "3", "--weights", str(weights))
    assert code == cli.EXIT_PARSE


def test_critical_points_asymmetric_weights_file_converges(tmp_path, capsys, monkeypatch):
    # weights that differ within orbits of functionals: the image of a
    # converged critical point of a chamber's orbit is then only a start
    # point, and Newton goes on from it; 18 of the 72 chambers start at
    # their witnesses
    real = critical.solve_chamber
    starts = []

    def spy(*args):
        starts.append(args[-1])
        return real(*args)

    monkeypatch.setattr(critical, "solve_chamber", spy)
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([0.5 + 0.1 * i for i in range(16)]))
    code, out = run(capsys, "critical-points", "--graph", PAW, "--m", "4", "--weights", str(weights))
    reports = json.loads(out)
    assert code == 0 and len(reports) == 72
    assert all(r["converged"] and r["gradient_inf_norm"] <= 1e-10 for r in reports)
    assert sum(s is not None for s in starts) == 54
    mapped = [r["iterations"] for r, s in zip(reports, starts) if s is not None]
    assert max(mapped) > 1


@pytest.mark.parametrize(
    "entry",
    [[1.0], None, "1", True, float("nan"), float("inf"), 10**400],
    ids=["list", "null", "string", "true", "NaN", "Infinity", "past-float-range"],
)
def test_critical_points_malformed_weight_exit_two(tmp_path, capsys, entry):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([1.0] * 11 + [entry]))
    code = cli.main(["critical-points", "--graph", PAW, "--m", "3", "--weights", str(weights)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["critical-points", "verify"])
def test_negative_seed_exit_two(capsys, command):
    code = cli.main([command, "--graph", PAW, "--m", "3", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE and captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"


def test_critical_points_failed_run_prints_one_error_line_and_no_json(capsys, monkeypatch):
    monkeypatch.setattr(critical, "MAX_ITERATIONS", 1)
    code = cli.main(["critical-points", "--graph", PAW, "--m", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DISAGREE and captured.out == ""
    first = re.escape(_paw_chambers(3)[0].sign_string)
    reason = r"gradient norm \S+ above 1e-10 after 1 iterations"
    assert re.fullmatch(rf"error: chamber {first}: {reason}\n", captured.err)


def _paw_chambers(m):
    return arrangement.bounded_chambers_bijective(arrangement.build_arrangement(paw_graph(), m))


def _count_arrangements(monkeypatch):
    calls = []
    build = arrangement.build_arrangement

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    # critical.py holds its own reference to the function
    monkeypatch.setattr(arrangement, "build_arrangement", counted)
    monkeypatch.setattr(critical, "build_arrangement", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--graph", PAW, "--m", "3"],
        ["chambers", "--graph", PAW, "--m", "3", "--method", "both"],
        ["critical-points", "--graph", PAW, "--m", "3"],
    ],
    ids=["verify", "chambers", "critical-points"],
)
def test_one_arrangement_per_graph_and_m(capsys, monkeypatch, argv):
    calls = _count_arrangements(monkeypatch)
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(calls) == 1


def test_critical_point_reports_build_one_arrangement(monkeypatch):
    calls = _count_arrangements(monkeypatch)
    assert len(critical.critical_point_reports(paw_graph(), 3)) == 12
    assert len(calls) == 1


def test_one_table_certifies_the_symmetry_group_once(monkeypatch):
    # the LP route and both Newton steps read one `Arrangement.symmetries`
    calls = []
    search = arrangement.automorphism_generators

    def counted(graph):
        calls.append(graph)
        return search(graph)

    monkeypatch.setattr(arrangement, "automorphism_generators", counted)
    values = {name: route() for name, route in cli.simple_routes(paw_graph(), 4).items()}
    assert values == dict.fromkeys(values, 72)
    assert len(calls) == 1


def test_run_routes_sorts_each_outcome_and_times_every_route(capsys):
    def over_budget():
        raise BudgetExceededError("past the cap")

    def diverged():
        raise ConvergenceError("chamber ++: no convergence\nsecond line")

    routes = {"one": lambda: 1, "budget": over_budget, "newton": diverged, "two": lambda: 2}
    values, skipped, failed, seconds = cli.run_routes(routes)
    assert values == {"one": 1, "two": 2} and skipped == ["budget"]
    assert failed == {"newton": "chamber ++: no convergence"}
    assert list(seconds) == list(routes) and all(t >= 0 for t in seconds.values())
    assert capsys.readouterr().err == "error: newton: chamber ++: no convergence\n"
    with pytest.raises(ZeroDivisionError):  # any other error is the caller's
        cli.run_routes({"one": lambda: 1, "broken": lambda: 1 // 0})


def test_one_table_enumerates_refused_bijective_chambers_once(capsys, monkeypatch):
    calls = []
    enumerate_chambers = arrangement.bounded_chambers_bijective

    def counted(arr, budget):
        calls.append(budget)
        return enumerate_chambers(arr, budget)

    monkeypatch.setattr(arrangement, "bounded_chambers_bijective", counted)
    code, out = run(capsys, "verify", "--graph", PAW, "--m", "4", "--budget-orientations", "50")
    assert code == cli.EXIT_BUDGET and calls == [50]
    assert json.loads(out)["skipped"] == ["chambers_bijective", "critical_points", "stanley"]


def test_every_simple_route_on_a_graph_without_automorphisms():
    # the reflection is then the whole generating set; no catalog graph is
    # this asymmetric
    g = SimpleGraph.of(range(6), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)])
    assert automorphism_generators(g) == ()
    for m, expected in [(3, 48), (4, 648)]:
        values = {name: route() for name, route in cli.simple_routes(g, m).items()}
        assert values == dict.fromkeys(values, expected)


@settings(ORACLE_SETTINGS, max_examples=50)  # 20 draw no 5-vertex graph
@given(graphs_and_m())
def test_every_simple_route_matches_chromatic_on_random_graphs(graph_and_m):
    g, m = graph_and_m
    expected = (-1) ** g.n * chromatic_polynomial(g).evaluate(-(m - 2))
    values = {name: route() for name, route in cli.simple_routes(g, m).items()}
    assert values == dict.fromkeys(values, expected)


def test_chi_instar(capsys):
    code, out = run(capsys, "chi", "--graph", INSTAR)
    blob = json.loads(out)
    assert code == 0
    assert blob["chi_in"] == [0, 0, -2, 1] and blob["chi_out"] == [0, 1, -2, 1]
    code, out = run(capsys, "chi", "--graph", INSTAR, "--mode", "in")
    blob = json.loads(out)
    assert "chi_out" not in blob and blob["chi_in"] == [0, 0, -2, 1]
    assert blob["advisories"] == ["chi_in: negative value -1 at x=1"]


def test_chi_one_mode_keeps_only_its_advisories(capsys):
    # chi_in = x^3 - 2x^2 is -1 at x = 1; chi_out = x(x - 1)^2 draws no advisory
    code, out = run(capsys, "chi", "--graph", INSTAR, "--mode", "out")
    blob = json.loads(out)
    assert code == 0 and blob["chi_out"] == [0, 1, -2, 1]
    assert blob["advisories"] == []


def test_chi_one_mode_takes_one_engine_table(tmp_path, capsys, monkeypatch):
    # a digraph with directed cycles: only the engine applies, in the asked mode only
    cyclic = tmp_path / "cyclic.txt"
    cyclic.write_text("digraph\n4 5\n0 1\n1 2\n2 0\n2 3\n3 1\n")
    modes = []
    engine = digraph_poly.omega_coefficients

    def counted(graph, mode, *args):
        modes.append(mode)
        return engine(graph, mode, *args)

    monkeypatch.setattr(digraph_poly, "omega_coefficients", counted)
    code, out = run(capsys, "chi", "--graph", str(cyclic), "--mode", "out")
    assert code == 0 and json.loads(out)["route_out"] == "engine"
    assert modes == ["out"]


def test_chi_rejects_simple_graph(capsys):
    code, _ = run(capsys, "chi", "--graph", PAW)
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize(
    "argv,message",
    [
        (["chromatic", "--graph", INSTAR], "chromatic needs a simple graph file"),
        (["chambers", "--graph", INSTAR, "--m", "3"], "chambers needs a simple graph file"),
        (["critical-points", "--graph", INSTAR, "--m", "3"], "critical-points needs a simple graph file"),
        (["chi", "--graph", PAW], "chi needs a digraph file (header line 'digraph')"),
    ],
    ids=["chromatic", "chambers", "critical-points", "chi"],
)
def test_graph_kind_mismatch_message(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_each_subcommand_takes_only_the_budgets_it_reads():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, sub in subs.choices.items()
    }
    assert options == {
        "parse": ["--graph", "--pretty"],
        "chromatic": ["--graph", "--pretty"],
        "omega": ["--graph", "--m", "--pretty", "--budget-terms", "--g", "--mode"],
        "chambers": ["--graph", "--m", "--pretty", "--budget-orientations", "--budget-lp", "--method"],
        "critical-points": ["--graph", "--m", "--pretty", "--budget-orientations", "--seed", "--weights"],
        "chi": ["--graph", "--pretty", "--budget-terms", "--mode"],
        "kapranov": ["--pretty", "--budget-terms", "--constraints"],
        "verify": [
            "--graph", "--m", "--seed", "--pretty",
            "--budget-orientations", "--budget-lp", "--budget-terms",
        ],
    }


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
def test_parser_of_one_subcommand_reads_as_the_full_parser(command, monkeypatch):
    # `main` parses the arguments after a known subcommand with that
    # subcommand's own parser; its help must read exactly as the full
    # parser's subparser's
    monkeypatch.setenv("COLUMNS", "80")
    full, one = cli.build_parser(), cli.build_parser(command)
    assert one.prog == f"chromoduli {command}"
    assert not any(isinstance(a, argparse._SubParsersAction) for a in one._actions)
    assert one.format_help() == _subparsers(full)[command].format_help()


def test_an_unread_flag_is_reported_under_its_subcommands_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["parse", "--graph", PAW, "--budget-lp", "3"])
    assert exc.value.code == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        "usage: chromoduli parse [-h] --graph GRAPH [--pretty]\n"
        "chromoduli parse: error: unrecognized arguments: --budget-lp 3\n"
    )


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--pretty", "verify"]], ids=["missing", "unknown", "flag-first"])
def test_a_missing_or_unknown_subcommand_is_a_usage_error_of_the_full_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage: chromoduli [-h]") and "\nchromoduli: error: " in err


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(f"    {name} " in out for name in cli._SUBCOMMANDS)


def test_parsed_arguments_match_the_full_parser():
    # the subcommand's own parser gives the same namespace, `command` included
    argvs = [
        ["omega", "--graph", PAW, "--m", "3", "--budget-terms", "7"],
        ["verify", "--budget-lp", "5", "--graph", PAW, "--graph", INSTAR],
        ["kapranov", "--constraints", "c.json"],
    ]
    for argv in argvs:
        assert cli.build_parser(argv[0]).parse_args(argv[1:]) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [["parse", "--graph", PAW, "--budget-lp", "3"], ["chi", "--graph", INSTAR, "--budget-orientations", "3"]],
)
def test_unread_budget_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_read_budget_flags_are_accepted():
    parser = cli.build_parser()
    args = parser.parse_args(["omega", "--graph", PAW, "--m", "3", "--budget-terms", "7"])
    assert args.budget_terms == 7
    args = parser.parse_args(["verify", "--budget-lp", "5"])
    assert args.budget_lp == 5 and args.budget_terms == cli.BUDGETS["terms"]


@pytest.mark.parametrize("flag", [f"--budget-{name}" for name in cli.BUDGETS])
def test_a_negative_budget_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--graph", PAW, "--m", "3", flag, "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_PARSE and captured.out == ""
    message = f"chromoduli verify: error: argument {flag}: a budget cannot be negative, got -1"
    assert captured.err.splitlines()[-1] == message
    # a cap of 0 is a cap: the route it bounds is skipped
    code, out = run(capsys, "verify", "--graph", PAW, "--m", "3", flag, "0")
    assert code == cli.EXIT_BUDGET and json.loads(out)["skipped"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["chambers", "--graph", "K4", "--m", "4", "--budget-lp", "5"], "18 functionals exceed LP search budget 5"),
        (["omega", "--graph", PAW, "--m", "4", "--budget-terms", "0"], "1 subproblems exceed the term cap 0"),
    ],
    ids=["lp", "terms"],
)
def test_a_subcommand_over_budget_exits_three_with_one_line(tmp_path, capsys, argv, message):
    k4 = tmp_path / "K4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code = cli.main([str(k4) if arg == "K4" else arg for arg in argv])
    assert (code, *capsys.readouterr()) == (cli.EXIT_BUDGET, "", f"budget: {message}\n")


def test_parse_pretty_is_sorted_json_indented_by_two(capsys):
    code, out = run(capsys, "parse", "--graph", PAW, "--pretty")
    assert code == 0
    assert out == json.dumps(graph_to_json(load_graph_file(PAW)), indent=2, sort_keys=True) + "\n"


def test_a_non_integer_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chambers", "--graph", PAW, "--m", "3", "--budget-lp", "abc"])
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_PARSE and captured.out == ""
    message = "chromoduli chambers: error: argument --budget-lp: invalid int value: 'abc'"
    assert captured.err.splitlines()[-1] == message


def test_genus_zero_with_one_marking_is_a_usage_error(capsys):
    code = cli.main(["omega", "--graph", PAW, "--m", "1"])
    assert (code, *capsys.readouterr()) == (
        cli.EXIT_PARSE,
        "",
        "error: need 2g-2+m > 0 (or g=1, m=0), got g=0, m=1\n",
    )


def test_kapranov_file(tmp_path, capsys):
    payload = {
        "markings": [1, 2, 3, 4, "a", "b", "c"],
        "constraints": [
            {"subset": [1, 2, 3, 4, "a", "b", "c"], "marking": 1},
            {"subset": [1, 2, 3, "a", "b", "c"], "marking": 2},
            {"subset": [1, 2, 3, "a", "b", "c"], "marking": 3},
            {"subset": [1, 4, "a", "b", "c"], "marking": 4},
        ],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "kapranov", "--constraints", str(path))
    blob = json.loads(out)
    assert code == 0 and blob["degree"] == 12 and blob["cerberus"] is True


def test_kapranov_bare_list_infers_markings(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps([[[1, 2, 3, 4], 4]]))
    code, out = run(capsys, "kapranov", "--constraints", str(path))
    assert code == 0 and json.loads(out)["degree"] == 1


@pytest.mark.parametrize(
    "payload",
    [{"constraints": 5}, {"constraints": [[5, 1]]}, [[[1, 2, 3, 4], [1]]], {"markings": [1, 2, 3]}],
    ids=["constraints-not-a-list", "subset-not-a-list", "marking-is-a-list", "no-constraints-key"],
)
def test_kapranov_malformed_file_exit_two(tmp_path, capsys, payload):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["kapranov", "--constraints", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    if isinstance(payload, dict) and "constraints" not in payload:
        assert err == 'error: a constraints object needs a "constraints" key\n'


@pytest.mark.parametrize(
    "payload",
    [
        {"markings": [1, 2, 3, 4, True], "constraints": [[[1, 2, 3, 4], 4]]},
        {"markings": [1, 2, 3, 4], "constraints": [[[1, 2, 3, True], True]]},
        [[[1, 2, 3, 4], True]],
    ],
    ids=["in-markings", "in-subset", "as-marking"],
)
def test_kapranov_boolean_label_exit_two(tmp_path, capsys, payload):
    # `true` is an int in Python and would merge with the label 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["kapranov", "--constraints", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_kapranov_wrong_count_skips_union_check(tmp_path, capsys, monkeypatch):
    # a file with the wrong count must fail on the count alone, before the
    # union check looks at its constraints
    def refuse(constraints):
        raise AssertionError("the union check ran before the count check")

    monkeypatch.setattr(moduli, "cerberus_check", refuse)
    path = tmp_path / "c.json"
    constraints = [[list(range(10)), i % 10] for i in range(20)]
    path.write_text(json.dumps({"markings": list(range(30)), "constraints": constraints}))
    code = cli.main(["kapranov", "--constraints", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err == "error: need exactly 27 constraints, got 20\n"


@pytest.mark.parametrize("holds", [True, False], ids=["union-holds", "union-fails"])
def test_kapranov_runs_the_union_check_once(tmp_path, capsys, monkeypatch, holds):
    calls = []
    check = moduli.cerberus_check

    def counted(constraints):
        calls.append(constraints)
        return check(constraints)

    monkeypatch.setattr(moduli, "cerberus_check", counted)
    # with a three-marking subset the union {1, 2, 3} of one constraint is too small
    subsets = [[1, 2, 3, 4], [1, 2, 3, 4, 5]] if holds else [[1, 2, 3], [1, 2, 3, 4, 5]]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"markings": [1, 2, 3, 4, 5], "constraints": [[s, 1] for s in subsets]}))
    code, out = run(capsys, "kapranov", "--constraints", str(path))
    assert code == cli.EXIT_OK and json.loads(out)["cerberus"] is holds
    assert len(calls) == 1


def test_verify_default_suite(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4  # two fixtures x two m values
    paw_rows = [r for r in rows if r["kind"] == "simple"]
    assert all(r["agree"] for r in rows)
    assert paw_rows[0]["values"] == {
        "chromatic": 12,
        "stanley": 12,
        "chambers_bijective": 12,
        "chambers_lp": 12,
        "critical_points": 12,
        "engine_omega": 12,
    }


def test_verify_digraph_builds_one_report(capsys, monkeypatch):
    calls = {"omega_coefficients": 0, "omega_with_stats": 0}

    def count(module, name):
        engine = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return engine(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # each name is patched where the package looks it up
    count(digraph_poly, "omega_coefficients")
    count(moduli, "omega_with_stats")
    code, _ = run(capsys, "verify", "--graph", INSTAR, "--m", "3,4")
    assert code == 0
    # one report takes one table per mode; each row adds in and out at its m
    assert calls == {"omega_coefficients": 2, "omega_with_stats": 4}


def test_verify_deterministic_output(capsys):
    _, first = run(capsys, "verify", "--graph", PAW, "--m", "3", "--seed", "7")
    _, second = run(capsys, "verify", "--graph", PAW, "--m", "3", "--seed", "7")
    assert first == second


def test_verify_budget_exit_three(capsys):
    code, out = run(capsys, "verify", "--graph", PAW, "--m", "3", "--budget-orientations", "4")
    assert code == cli.EXIT_BUDGET
    row = json.loads(out.strip().splitlines()[0])
    assert "stanley" in row["skipped"]


def test_verify_disagreement_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(cli.mod_mod, "omega", lambda *a, **k: 13)
    code, out = run(capsys, "verify", "--graph", PAW, "--m", "3")
    assert code == cli.EXIT_DISAGREE
    row = json.loads(out.strip().splitlines()[0])
    assert row["agree"] is False


def test_engine_failure_exit_one_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise EngineConsistencyError("a refused region's cycle does not close")

    monkeypatch.setattr(cli.arr_mod, "bounded_chambers_lp", broken)
    code = cli.main(["verify", "--graph", PAW, "--m", "3"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DISAGREE
    assert err.splitlines() == ["error: chambers_lp: a refused region's cycle does not close"]
    assert "Traceback" not in err


def test_verify_records_a_failed_route_and_runs_every_row(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise EngineConsistencyError("a refused region's cycle sums to a positive weight\nsecond line")

    monkeypatch.setattr(arrangement, "bounded_chambers_lp", broken)
    c4 = tmp_path / "c4.txt"
    c4.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    code = cli.main(["verify", "--graph", PAW, "--graph", str(c4), "--m", "3"])
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert code == cli.EXIT_DISAGREE
    assert [row["graph"] for row in rows] == ["paw.txt", "c4.txt"]
    for row in rows:
        assert row["failed"] == {"chambers_lp": "a refused region's cycle sums to a positive weight"}
        assert row["agree"] is False
        assert len(row["values"]) == 5 and len(set(row["values"].values())) == 1
    assert captured.err.splitlines() == ["error: chambers_lp: a refused region's cycle sums to a positive weight"] * 2


def test_verify_records_a_failed_digraph_engine(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise EngineConsistencyError("engine table lost a state\nsecond line")

    monkeypatch.setattr(cli.mod_mod, "omega", broken)
    code = cli.main(["verify", "--graph", INSTAR, "--m", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DISAGREE and captured.err == "error: engine: engine table lost a state\n"
    assert json.loads(captured.out) == {
        "agree": False,
        "failed": {"engine": "engine table lost a state"},
        "graph": "instar.txt",
        "kind": "digraph",
        "m": 3,
        "skipped": [],
    }


def test_verify_checks_every_input_before_the_first_row(tmp_path, capsys, monkeypatch):
    def no_row(*args, **kwargs):
        pytest.fail("a row ran before every input was checked")

    monkeypatch.setattr(cli, "_verify_simple_row", no_row)
    monkeypatch.setattr(cli, "_verify_digraph_row", no_row)
    missing = str(tmp_path / "missing.txt")
    for graphs, ms, first_error in [
        ([PAW], "4,2", "error: m must be at least 3, got 2"),
        ([INSTAR, PAW], "3,1,2", "error: m must be at least 3, got 1"),
        ([PAW, missing], "3", f"error: cannot read {missing}: "),
        ([missing, PAW], "2", f"error: cannot read {missing}: "),
    ]:
        argv = [arg for path in graphs for arg in ("--graph", path)]
        code = cli.main(["verify", *argv, "--m", ms])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(first_error)


def test_verify_rows_carry_no_failed_key_when_every_route_runs(capsys):
    _, out = run(capsys, "verify", "--graph", PAW, "--graph", INSTAR, "--m", "3")
    assert all("failed" not in json.loads(line) for line in out.splitlines())


def test_verify_pretty_table(capsys):
    code, out = run(capsys, "verify", "--pretty", "--graph", PAW, "--m", "3")
    assert code == 0
    assert out.splitlines()[2] == (
        "paw.txt         3 simple   chambers_bijective=12 chambers_lp=12 chromatic=12"
        " critical_points=12 engine_omega=12 stanley=12 True"
    )


def test_verify_pretty_table_names_failed_and_skipped_routes(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise EngineConsistencyError("final margin LP lost a feasible region")

    monkeypatch.setattr(arrangement, "bounded_chambers_lp", broken)
    code, out = run(capsys, "verify", "--pretty", "--graph", PAW, "--m", "3")
    assert code == cli.EXIT_DISAGREE
    assert "chambers_lp=failed" in out.splitlines()[2] and out.splitlines()[2].endswith(" False")
    monkeypatch.undo()
    argv = ["verify", "--pretty", "--graph", PAW, "--graph", INSTAR, "--m", "3"]
    code, out = run(capsys, *argv, "--budget-orientations", "4", "--budget-terms", "1")
    assert code == cli.EXIT_BUDGET
    paw_row, instar_row = out.splitlines()[2:]
    assert "chambers_lp=12" in paw_row and "stanley=skipped" in paw_row
    assert instar_row.split()[3:] == ["engine=skipped", "True"]


def test_a_wrong_closed_formula_fails_the_acyclic_check(capsys, monkeypatch):
    # x^n is the closed formula of the edgeless digraph only; the engine must catch it
    monkeypatch.setattr(digraph_poly, "chi_acyclic", lambda graph, mode: IntPolynomial.monomial(graph.n))
    assert digraph_poly.digraph_polynomial_report(load_graph_file(INSTAR)).consistent is False
    for argv in (["chi", "--graph", INSTAR], ["chi", "--graph", INSTAR, "--mode", "in"]):
        code, out = run(capsys, *argv)
        assert code == cli.EXIT_DISAGREE and json.loads(out)["consistent"] is False
    code, out = run(capsys, "verify", "--graph", INSTAR, "--m", "3")
    assert code == cli.EXIT_DISAGREE and json.loads(out)["agree"] is False
    code = cli.main(["omega", "--graph", INSTAR, "--g", "1", "--m", "0", "--mode", "in"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DISAGREE and captured.out == ""
    assert captured.err == "error: closed formula and engine table disagree on chi_in\n"


def _python(*args):
    """Run a fresh interpreter with this package first on its path."""
    src = str(Path(chromoduli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_importing_the_cli_leaves_heavy_modules_unloaded():
    # start-up is most of a short CLI call: the value classes are plain
    # classes, not dataclasses (which import inspect), and `fractions`
    # (which imports decimal) is imported only by `Chamber.witness`; -S
    # keeps site-packages' own start-up imports out of the check
    heavy = ["dataclasses", "decimal", "fractions", "inspect"]
    code = f"import sys, chromoduli.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = _python("-S", "-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["parse", "--graph", PAW, "--pretty"], ["chambers", "--graph", PAW, "--m", "5", "--method", "lp"]],
    ids=["parse", "chambers"],
)
def test_a_closed_stdout_exits_141_in_silence(argv, unbuffered):
    # the pipe's read end is closed before the child writes, so its first
    # write (unbuffered) or its flush (buffered) meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(chromoduli.__file__).resolve().parent.parent)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "chromoduli.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (cli.EXIT_PIPE, "")


def test_lp_chambers_run_under_optimize(tmp_path):
    # the LP certificates, cold and warm, must survive `python -O`, which
    # strips asserts; K5 at m=4 runs thousands of warm LPs
    for n, chambers in [(4, 120), (5, 720)]:
        edges = [(u, w) for u in range(n) for w in range(u + 1, n)]
        path = tmp_path / f"k{n}.txt"
        path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {w}\n" for u, w in edges))
        argv = ["chambers", "--graph", str(path), "--m", "4", "--method", "lp"]
        result = _python("-O", "-m", "chromoduli.cli", *argv)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["count_lp"] == chambers


def test_verify_pretty_runs_under_optimize():
    # every certificate check must survive `python -O`, which strips asserts;
    # m=4 adds margin LPs whose optimal witness is not unique
    result = _python("-O", "-m", "chromoduli.cli", "verify", "--pretty", "--m", "3,4")
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]  # below the header and its rule
    assert len(rows) == 4
    assert all(row.split()[-1] == "True" for row in rows)


def test_start_up_and_verify_import_no_numpy():
    # the package runs on the standard library; numpy serves the tests only
    script = (
        "import sys\n"
        "import chromoduli.cli as cli\n"
        "print('numpy' in sys.modules)\n"
        f"code = cli.main(['verify', '--graph', {PAW!r}, '--m', '3'])\n"
        "print('numpy' in sys.modules, code)\n"
    )
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "False 0"


# critical-points with -H replaced by the zero matrix, which no Cholesky factors
SINGULAR_HESSIAN = """
import sys
from chromoduli import cli, critical

derivatives = critical._derivatives


def singular(kernel, n, f):
    g, _ = derivatives(kernel, n, f)
    return g, [[0.0] * n for _ in range(n)]


critical._derivatives = singular
sys.exit(cli.main(sys.argv[1:]))
"""


# verify with a mirror map that sends every functional to itself: the LP
# route's reflected witnesses then miss their chambers
IDENTITY_MIRROR = """
import sys
from chromoduli import arrangement, cli

symmetries = arrangement._symmetries


def identity_mirror(arr):
    r, *rest = symmetries(arr)
    identity = tuple(range(len(arr.terms)))
    return (arrangement._Symmetry(r.perm, r.scale, r.offset, identity, r.sign), *rest)


arrangement._symmetries = identity_mirror
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_broken_mirror_fails_the_lp_route_without_traceback(flags):
    result = _python(*flags, "-c", IDENTITY_MIRROR, "verify", "--graph", PAW, "--m", "3")
    assert result.returncode == cli.EXIT_DISAGREE
    assert result.stderr == "error: chambers_lp: mapped LP witness lies outside its chamber\n"
    (row,) = [json.loads(line) for line in result.stdout.splitlines()]
    assert row["failed"] == {"chambers_lp": "mapped LP witness lies outside its chamber"}
    assert row["agree"] is False and set(row["values"].values()) == {12}


# verify with a point map that moves no point: the LP route's mapped
# witnesses and Newton's mapped starts then stay in their orbit's first chamber
IDENTITY_POINT = """
import sys
from chromoduli import arrangement, cli

arrangement._Symmetry.point = lambda symmetry, z, d=1: list(z)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_an_identity_point_map_fails_the_lp_and_newton_routes_without_traceback(flags):
    result = _python(*flags, "-c", IDENTITY_POINT, "verify", "--graph", PAW, "--m", "3")
    lp = "mapped LP witness lies outside its chamber"
    newton = "chamber +-+-+-+----+: mapped start lies outside it"  # the first chamber started at an image
    assert result.returncode == cli.EXIT_DISAGREE
    assert result.stderr == f"error: chambers_lp: {lp}\nerror: critical_points: {newton}\n"
    (row,) = [json.loads(line) for line in result.stdout.splitlines()]
    assert row["failed"] == {"chambers_lp": lp, "critical_points": newton}
    assert row["agree"] is False and set(row["values"].values()) == {12} and len(row["values"]) == 4


# verify with refusals whose cycles lose their first arc: the LP route's
# certificates then fail
OPEN_CYCLE = """
import sys
from chromoduli import cli, lp

cycle = lp.Region.cycle
lp.Region.cycle = lambda region, a, b, w: cycle(region, a, b, w)[1:]
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_an_open_refusal_cycle_fails_the_lp_route_without_traceback(flags):
    result = _python(*flags, "-c", OPEN_CYCLE, "verify", "--graph", PAW, "--m", "3")
    assert result.returncode == cli.EXIT_DISAGREE
    assert result.stderr == "error: chambers_lp: a refused region's cycle does not close\n"
    (row,) = [json.loads(line) for line in result.stdout.splitlines()]
    assert row["failed"] == {"chambers_lp": "a refused region's cycle does not close"}
    assert row["agree"] is False and set(row["values"].values()) == {12}


# verify with a generator that swaps vertices 0 and 1 of the paw, which is no
# automorphism: the edge 0-3 goes to the non-edge 1-3
WRONG_GENERATOR = """
import sys
from chromoduli import arrangement, cli

arrangement.automorphism_generators = lambda graph: [(1, 0, 2, 3)]
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_wrong_generator_fails_the_lp_and_newton_routes_without_traceback(flags):
    result = _python(*flags, "-c", WRONG_GENERATOR, "verify", "--graph", PAW, "--m", "3")
    reason = "the image of ('edge', 0, 3) under a symmetry is not in the arrangement"
    assert result.returncode == cli.EXIT_DISAGREE
    assert result.stderr == f"error: chambers_lp: {reason}\nerror: critical_points: {reason}\n"
    (row,) = [json.loads(line) for line in result.stdout.splitlines()]
    assert row["failed"] == {"chambers_lp": reason, "critical_points": reason}
    assert row["agree"] is False and set(row["values"]) == {
        "chromatic",
        "stanley",
        "chambers_bijective",
        "engine_omega",
    }


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_failed_factorization_exits_one_naming_the_chamber(flags):
    result = _python(*flags, "-c", SINGULAR_HESSIAN, "critical-points", "--graph", PAW, "--m", "3")
    assert result.returncode == cli.EXIT_DISAGREE and result.stdout == ""
    first = _paw_chambers(3)[0].sign_string
    assert result.stderr == f"error: chamber {first}: Hessian not negative definite at iteration 1\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_weight_past_the_float_range_of_newton_exits_one_naming_the_chamber(tmp_path, flags):
    # the 1e300 edge term swamps the rest of -H, which then rounds to a singular matrix
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([1.0] * 11 + [1e300]))
    argv = ["critical-points", "--graph", PAW, "--m", "3", "--weights", str(weights)]
    result = _python(*flags, "-m", "chromoduli.cli", *argv)
    assert result.returncode == cli.EXIT_DISAGREE and result.stdout == ""
    first = re.escape(_paw_chambers(3)[0].sign_string)
    reason = r"Hessian not negative definite at iteration \d+"
    assert re.fullmatch(rf"error: chamber {first}: {reason}\n", result.stderr)


# verify with a Newton budget of one iteration, which no chamber's witness meets
NEWTON_BUDGET_OF_ONE = """
import sys
from chromoduli import cli, critical

critical.MAX_ITERATIONS = 1
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_newton_failure_fails_the_critical_points_route_of_verify(flags):
    result = _python(*flags, "-c", NEWTON_BUDGET_OF_ONE, "verify", "--graph", PAW, "--m", "3")
    assert result.returncode == cli.EXIT_DISAGREE
    (row,) = [json.loads(line) for line in result.stdout.splitlines()]
    reason = row["failed"]["critical_points"]
    assert list(row["failed"]) == ["critical_points"] and reason.startswith("chamber ")
    assert row["agree"] is False and "critical_points" not in row["values"]
    assert set(row["values"].values()) == {12}
    assert result.stderr == f"error: critical_points: {reason}\n"
