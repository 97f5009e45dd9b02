"""How the package is laid out: its modules' import layers and its console script.

The modules behind a run form layers, each importing only those below it:
config (the schema) <- report (the output files) <- analysis (the pipeline)
<- cli (argument parsing and dispatch).  An ast scan of src/trimtest/*.py
finds each module's package imports, relative or absolute.  The console
script that pyproject.toml declares must name a callable, which otherwise
only an installed package's `trimtest --help` would show.
"""

from __future__ import annotations

import ast
import importlib
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
