"""How the package is laid out: its modules' import layers, its builders and its tooling.

The modules behind a run form layers, each importing only those below it:
config (the schema) <- report (the output files) <- analysis (the pipeline)
<- cli (argument parsing and dispatch).  An ast scan of src/trimtest/*.py
finds each module's package imports, relative or absolute.  Another finds
who calls the pair-estimator builders: `comparison_estimator` is the one
builder of a comparison, and no estimator loops over the draws of its
weight block (the bootstrap engine alone evaluates draws one at a time).
The console script that pyproject.toml declares must name a callable,
which otherwise only an installed package's `trimtest --help` would show,
and a failing hypothesis test must not end the test session.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trimtest"


def _package_imports(path: Path) -> set[str]:
    """The trimtest modules a file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "trimtest":
                    continue
                parts = parts[1:]
            # `from . import m` and `from trimtest import m` name modules.
            found.update([parts[0]] if parts and parts[0] else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("trimtest."))
    return found


@pytest.mark.parametrize(
    "module, above",
    [("config", {"report", "analysis", "cli"}), ("report", {"analysis", "cli"}), ("analysis", {"cli"})],
)
def test_a_layer_imports_no_layer_above_it(module, above):
    assert _package_imports(PACKAGE / f"{module}.py") & above == set()


def test_only_the_module_entry_point_imports_cli():
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py") if path.name != "cli.py" and "cli" in _package_imports(path)
    )
    assert importers == ["__main__.py"]


def test_the_scan_sees_every_import_form(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from .config import AnalysisConfig\nfrom . import report\nimport trimtest.cli\n"
        "from trimtest.analysis import run_analysis\nfrom trimtest import errors\n"
        "import numpy as np\nfrom scipy import stats\n",
        encoding="utf-8",
    )
    assert _package_imports(source) == {"config", "report", "cli", "analysis", "errors"}


_BUILDERS = {"regression_comparison_estimator", "lstat_pair_estimator"}


def _builder_callers(path: Path) -> set[str]:
    """The functions of a file that call a pair-estimator builder (innermost def), "" at module level."""
    found = set()

    def visit(node, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee in _BUILDERS:
                found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _weight_loops(path: Path) -> set[str]:
    """The functions of a file that loop or recurse over the rows of their `row_weights` parameter."""
    found = set()
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if "row_weights" not in {a.arg for a in function.args.args + function.args.kwonlyargs}:
            continue
        for node in ast.walk(function):
            loop = isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
            if loop and any(isinstance(n, ast.Name) and n.id == "row_weights" for n in ast.walk(node.iter)):
                found.add(function.name)
    return found


def test_only_comparison_estimator_builds_a_pair():
    callers = {
        f"{path.name}:{function}" for path in PACKAGE.glob("*.py") for function in _builder_callers(path)
    }
    assert callers == {"estimators.py:comparison_estimator"}


def test_no_estimator_loops_over_its_draws():
    assert _weight_loops(PACKAGE / "estimators.py") == set()


def test_the_builder_scans_see_a_hand_built_pair_and_a_per_draw_loop(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from . import estimators\n"
        "def analysis(comparison):\n"
        "    return estimators.regression_comparison_estimator(comparison)\n"
        "def build(specs):\n"
        "    def block(data, row_weights):\n"
        "        return [lstat_pair_estimator(specs, specs)(data, w) for w in row_weights]\n"
        "    return block\n"
        "def loop(data, row_weights):\n"
        "    for w in row_weights[:, None]:\n"
        "        pass\n"
        "def rows(data, row_weights):\n"
        "    return sum(len(w) for w in range(len(data)))\n",
        encoding="utf-8",
    )
    assert _builder_callers(source) == {"analysis", "block"}
    assert _weight_loops(source) == {"block", "loop"}


def test_console_scripts_name_callables():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["scripts"], "pyproject.toml declares no console script"
    for script, target in project["scripts"].items():
        module, _, attribute = target.partition(":")
        entry = importlib.import_module(module)
        for name in attribute.split("."):
            entry = getattr(entry, name)
        assert callable(entry), f"console script {script!r} names {target}, which is not callable"


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # On a failing example hypothesis imports libcst, whose import of
    # mypy_extensions.TypedDict warns DeprecationWarning; pyproject.toml
    # must not turn that into an error that aborts the session.
    pytest.importorskip("hypothesis")
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout and "INTERNALERROR" not in run.stdout + run.stderr
