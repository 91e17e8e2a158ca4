import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_digraph_survey_runs():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "digraph_survey.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "  digraphs: 64\n" in result.stdout
    assert "  distinct polynomial pairs: 6\n" in result.stdout
