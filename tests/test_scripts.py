import importlib.util
import subprocess
import sys
from pathlib import Path

from chromoduli.digraph_poly import advisory_flags
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


def test_verify_fixtures_runs_under_optimize():
    # every certificate check must survive `python -O`, which strips asserts;
    # m=4 adds margin LPs whose optimal witness is not unique
    result = subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / "verify_fixtures.py"), "--m", "3,4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]  # below the header and its rule
    assert len(rows) == 4
    assert all(row.split()[-1] == "True" for row in rows)
