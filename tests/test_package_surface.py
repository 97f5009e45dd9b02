"""Every top-level package name is reached from the package itself.

A function or class that only tests call is dead weight in the library.
The scan parses src/trimtest/*.py and counts a name as used when another
top-level statement of the package reads it as a bare name, reads it as an
attribute of an imported module, or imports it with `from ... import`.  An
attribute read on any other object does not count: `report.critical_value`
is a field, not a call of the function `critical_value`.  Re-exports in
__init__.py do not count, and neither do references inside the name's own
definition.  One test pins the engine entry point that the benchmark's
tracer wraps, and the last one that random streams are built in one place.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trimtest"

# Independent reference routes that the acceptance criteria check the
# pipeline against; nothing in the package calls them.
KEEP = {
    "lstat_eval_via_integral",
    "quantile_process_cov_kernel",
    "mc_covariance",
    "critical_value",  # acceptance criterion 6 calls it
}


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names a file binds to modules with `import m` or `import m as a`."""
    return {
        a.asname or a.name.split(".")[0]
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Import)
        for a in sub.names
    }


def _referenced(node: ast.AST, modules: set[str]) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in modules
        ):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _scan():
    """(definitions, references): (name, site) pairs and (site, names) pairs."""
    definitions: list[tuple[str, tuple[str, int]]] = []
    references: list[tuple[tuple[str, int], set[str]]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = _module_aliases(tree)
        for i, stmt in enumerate(tree.body):
            site = (path.name, i)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((stmt.name, site))
            if path.name != "__init__.py":
                references.append((site, _referenced(stmt, modules)))
    return definitions, references


def test_every_top_level_name_is_used_inside_the_package():
    definitions, references = _scan()
    unused = sorted(
        name
        for name, site in definitions
        if name not in KEEP
        and not any(name in names for ref_site, names in references if ref_site != site)
    )
    assert unused == [], f"defined but reached only from outside the package: {unused}"


def test_keep_list_names_still_exist():
    definitions, _ = _scan()
    assert KEEP <= {name for name, _ in definitions}


def test_pipeline_stage_calls_the_bootstrap_engine(monkeypatch):
    # perfbench's tracer replaces trimtest.bootstrap.bootstrap_pipeline in
    # every module that binds it and reads `iterations` and `n_failed`
    # from what each call returns.
    import numpy as np

    import trimtest.analysis
    import trimtest.bootstrap
    from trimtest import PanelDataset

    assert trimtest.analysis.bootstrap_pipeline is trimtest.bootstrap.bootstrap_pipeline
    returned = []
    engine = trimtest.bootstrap.bootstrap_pipeline

    def recorded(*args, **kwargs):
        returned.append(engine(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(trimtest.analysis, "bootstrap_pipeline", recorded)
    scheme = {"kind": "quantile_trim", "columns": ["x"], "upper_q": 0.9}
    config = trimtest.analysis.AnalysisConfig.from_dict(
        {
            "input": "unused.csv",
            "model": {"type": "lstat", "statistics": [{"column": "x"}]},
            "comparisons": [
                {"name": name, "baseline": {"kind": "all_ones"}, "adjusted": scheme}
                for name in ("a", "b")
            ],
            "bootstrap": {"iterations": 25, "seed": 3},
        }
    )
    data = PanelDataset({"x": np.random.default_rng(0).normal(size=50)}, np.arange(50))
    trimtest.analysis.run_analysis(config, data=data)
    assert returned
    for result in returned:
        assert (result.iterations, result.n_failed) == (25, 0)


def test_random_streams_are_built_only_by_the_stream_table():
    # Every generator and seed comes from bootstrap.random_stream, whose
    # table gives each stream keys no other stream uses; a SeedSequence or
    # default_rng built anywhere else could reuse another stream's bits.
    constructors = {"SeedSequence", "default_rng"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.name, getattr(stmt, "name", None)) == ("bootstrap.py", "random_stream"):
                continue
            for sub in ast.walk(stmt):
                name = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", None)
                if name in constructors:
                    found.append(f"{path.name}:{sub.lineno} {name}")
    assert found == [], f"random streams built outside bootstrap.random_stream: {found}"
