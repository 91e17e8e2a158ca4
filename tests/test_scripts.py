import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_digraph_survey_runs():
    # the interpolation certificates must survive `python -O`, which strips asserts
    result = subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / "digraph_survey.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "  digraphs: 64\n" in result.stdout
    assert "  distinct polynomial pairs: 6\n" in result.stdout


def test_verify_fixtures_runs_under_optimize():
    # every certificate check must survive `python -O`, which strips asserts
    result = subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / "verify_fixtures.py"), "--m", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]  # below the header and its rule
    assert len(rows) == 2
    assert all(row.split()[-1] == "True" for row in rows)
