import ast
from pathlib import Path

import chromoduli

PACKAGE = Path(chromoduli.__file__).parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_package_has_no_bare_assert():
    # `python -O` strips assert statements; every certificate check must raise
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts  # a moved scripts/ directory must not pass unchecked
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + scripts:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
