"""The package imports exactly its declared dependencies, no production
module imports an oracle, `import airymax` loads no scipy module, and the CLI
runs where scipy cannot be imported."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "airymax"
PRODUCTION = ("special", "painleve", "airy2", "finite_n", "mc", "errors")
# the oracle layer and its consumers; __init__ re-exports all of them
ORACLES = {"lax", "fredholm", "oracles", "validation", "cli", "__init__"}


def _imports(path):
    """Dotted names of the imports anywhere in a file, function bodies
    included.  Relative imports resolve inside airymax, whose modules sit side
    by side, and `from airymax import x` names airymax.x."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = ".".join(filter(None, ["airymax", node.module]))
            if base == "airymax":
                yield from (f"airymax.{alias.name}" for alias in node.names)
            else:
                yield base


def _top_level_imports(path):
    return {name.split(".")[0] for name in _imports(path)}


def _package_imports(path):
    """The airymax modules a file imports; the package itself is __init__."""
    for name in _imports(path):
        parts = name.split(".")
        if parts[0] == "airymax":
            yield parts[1] if len(parts) > 1 else "__init__"


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
    missing = sorted((name, where) for name, where in imported if name not in declared)
    assert not missing, f"imported but not in [project] dependencies: {missing}"
    unused = sorted(declared - {name for name, _ in imported})
    assert not unused, f"in [project] dependencies but never imported: {unused}"


def test_import_walk_sees_function_level_imports(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import numpy as np\nfrom .errors import DomainError\n\n\ndef f():\n"
                      "    from mpmath import mp\n    import scipy.special\n"
                      "    from . import lax, special\n    import airymax.fredholm\n"
                      "    from airymax import oracles\n    from airymax.cli import main\n"
                      "    import airymax\n")
    assert sorted(_top_level_imports(source)) == ["airymax", "mpmath", "numpy", "scipy"]
    assert sorted(_package_imports(source)) == ["__init__", "cli", "errors", "fredholm",
                                                "lax", "oracles", "special"]


def test_production_never_imports_oracles():
    found = sorted((name, module) for name in PRODUCTION
                   for module in _package_imports(PACKAGE / f"{name}.py")
                   if module in ORACLES)
    assert not found, f"production modules importing an oracle: {found}"


def _run(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout


def test_import_loads_no_scipy():
    out = _run("import sys, airymax; print(' '.join(sorted(m for m in sys.modules "
               "if m.split('.')[0] == 'scipy')))")
    assert out.strip() == ""


def test_cli_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    outputs = [tmp_path / f"{name}.csv" for name in ("tw_f1", "finite_n", "jpdf")]
    commands = [["tw-f1"], ["finite-n", "-N", "2"],
                ["jpdf", "--s-min", "-2", "--s-max", "2", "--w-max", "1", "--w-step", "0.5"]]
    commands = [argv + ["-o", str(out)] for argv, out in zip(commands, outputs)]
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from airymax.cli import main\n"
            f"print([main(argv) for argv in {commands!r}])")
    assert _run(code).strip().splitlines()[-1] == "[0, 0, 0]"
    assert all(out.stat().st_size > 0 for out in outputs)
