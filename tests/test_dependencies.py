"""Every third-party module the package imports is a declared dependency."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "airymax"


def _top_level_imports(path):
    """Top-level names of absolute imports anywhere in a file, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    # every dependency here is imported under its distribution name
    declared = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
                for req in requirements}
    imported = {(name, path.relative_to(PACKAGE).as_posix())
                for path in sorted(PACKAGE.rglob("*.py"))
                for name in _top_level_imports(path)
                if name not in sys.stdlib_module_names and name != "airymax"}
    # the walk must see imports made inside functions (finite_n imports mpmath there)
    assert ("mpmath", "finite_n.py") in imported
    missing = sorted((name, where) for name, where in imported if name not in declared)
    assert not missing, f"imported but not in [project] dependencies: {missing}"
