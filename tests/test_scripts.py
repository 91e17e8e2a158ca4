import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chromoduli import arrangement, critical
from chromoduli.digraph_poly import advisory_flags
from chromoduli.errors import EngineConsistencyError
from chromoduli.graphs import IntPolynomial

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digraph_survey_runs():
    # the route cross-checks must survive `python -O`, which strips asserts
    result = subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / "digraph_survey.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "  digraphs: 64\n" in result.stdout
    assert "  negative value: 6\n" in result.stdout  # tallied by kind, not by value
    assert "  distinct polynomial pairs: 6\n" in result.stdout


def test_digraph_survey_tallies_advisories_by_kind():
    survey = _load_script("digraph_survey")
    # x^2 - 2x is -1 at x = 1, x^2 - 3x is -2 at x = 1 and at x = 2
    kinds = [
        survey.advisory_kind(w)
        for coefficients in ((0, -2, 1), (0, -3, 1))
        for w in advisory_flags(IntPolynomial(coefficients), "chi_in")
    ]
    assert kinds == ["negative value"] * 3
    # x^2 + x + 1 breaks sign alternation; x^2 - x + 4 is not log-concave (1 < 4 * 1)
    assert [survey.advisory_kind(w) for w in advisory_flags(IntPolynomial((1, 1, 1)))] == [
        "breaks sign alternation"
    ]
    assert [survey.advisory_kind(w) for w in advisory_flags(IntPolynomial((4, -1, 1)))] == ["not log-concave"]


def test_route_table_prints_one_row_per_graph():
    # under `python -O` too; P3 at m=3 is (-1)^3 chi(-1) = 4 on every route
    result = subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / "route_table.py"), "P3@3", "--repeat", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, rule, row = result.stdout.splitlines()
    assert header == (
        "| graph, m | value | stanley | chambers_bijective | chambers_lp | critical_points | engine_omega |"
    )
    assert rule == "|---" * 7 + "|"
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    assert cells[:2] == ["P3, 3", "4"] and len(cells) == 7
    assert all(float(seconds) >= 0 for seconds in cells[2:])


def test_route_table_names_graphs():
    table = _load_script("route_table")
    assert table.named_graph("K4").edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert len(table.named_graph("C6").edges) == 6 and len(table.named_graph("E3").edges) == 0
    assert len(table.named_graph("Q3").edges) == 12 and len(table.named_graph("Petersen").edges) == 15
    times, values = table.route_row(table.named_graph("paw"), 3, 1)
    assert values == {12} and set(times) == {"chromatic", *table.COLUMNS}


def test_route_table_marks_a_failed_route_and_runs_the_rest(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise EngineConsistencyError("a refused region's cycle does not close\nsecond line")

    monkeypatch.setattr(arrangement, "bounded_chambers_lp", broken)
    monkeypatch.setattr(critical, "MAX_ITERATIONS", 1)  # no chamber's witness is its critical point
    table = _load_script("route_table")
    times, values = table.route_row(table.named_graph("P3"), 3, 2)
    failed = {"chambers_lp", "critical_points"}
    assert {key for key, t in times.items() if t == "failed"} == failed and values == {4}
    assert all(isinstance(times[key], float) for key in times.keys() - failed)
    lp_error = "error: chambers_lp: a refused region's cycle does not close"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == lp_error and err[1].startswith("error: critical_points: chamber ")
    assert table.main(["P3@3", "C4@3"]) == 1
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:]
    assert [row.split(" | ")[4:6] for row in rows] == [["failed", "failed"]] * 2
    assert captured.err.splitlines()[::2] == [lp_error] * 2


@pytest.mark.parametrize(
    "argv",
    [["K0@3"], ["paw"], ["paw@x"], ["src/chromoduli/data/instar.txt@3"], ["paw@3", "paw@2"]],
    ids=["K0@3", "paw", "paw@x", "src/chromoduli/data/instar.txt@3", "paw@3-paw@2"],
)
def test_route_table_rejects_a_bad_case_without_traceback(argv):
    # every case is checked before the header, so a bad one prints no row
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "route_table.py"), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=SCRIPTS.parent,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")


def _copy_of_src(tmp_path, old=None, new=None):
    """A checkout holding a copy of this `src`, with `old` replaced by `new` in cli.py if given."""
    shutil.copytree(SCRIPTS.parent / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if old is not None:
        cli_py = tmp_path / "src" / "chromoduli" / "cli.py"
        text = cli_py.read_text(encoding="utf-8")
        assert text.count(old) == 1
        cli_py.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


def test_compare_cli_finds_no_difference_with_an_unchanged_copy(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_cli.py"), str(_copy_of_src(tmp_path))],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [f"{len(_load_script('compare_cli').CASES)} cases, 2 modes: 0 differ"]


@pytest.mark.parametrize(
    "old,new,case,what",
    [
        ('"degree": value,', '"degree": value + 1,', "kapranov", "stdout"),
        ("need 2g-2+m > 0", "need 2g - 2 + m > 0", "error-genus", "stderr"),
    ],
    ids=["stdout", "stderr"],
)
def test_compare_cli_names_the_case_an_altered_line_changes(tmp_path, capsys, monkeypatch, old, new, case, what):
    compare = _load_script("compare_cli")
    cases = dict(compare.CASES)
    monkeypatch.setattr(compare, "CASES", [(name, cases[name]) for name in ("omega-paw@3", "kapranov", "error-genus")])
    assert compare.main([str(_copy_of_src(tmp_path, old, new))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{case} (plain): {what}",
        f"{case} (-O): {what}",
        "3 cases, 2 modes: 2 differ",
    ]
