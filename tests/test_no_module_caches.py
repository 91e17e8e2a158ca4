import ast
from pathlib import Path

import chromoduli

PACKAGE = Path(chromoduli.__file__).parent


def _caches(decorator):
    """True for functools.cache or functools.lru_cache, called or not, however imported."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in ("cache", "lru_cache")


def test_package_functions_keep_no_process_wide_cache():
    # a module-level cache outlives every arrangement and hides repeated
    # work; build_parser caches argparse objects, not results
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and any(map(_caches, node.decorator_list)):
                found.append(f"{path.stem}.{node.name}")
    assert found == ["cli.build_parser"]
