"""Every top-level package name and public method is reached from the package itself.

A function, class or method that only tests call is dead weight in the
library.  The scan parses src/trimtest/*.py and counts a top-level name as
used when another top-level statement of the package reads it as a bare
name, reads it as an attribute of an imported module, or imports it with
`from ... import`.  An attribute read on any other object does not count:
`report.critical_value` is a field, not a call of the function
`critical_value`.  A public method or property of a public class counts as
used when the package reads an attribute of its name on any object outside
its own definition.  Re-exports in __init__.py do not count, and neither do
references inside the name's own definition.  KEEP lists, with its reason,
each name the package keeps for callers outside it.  One test pins the
engine entry point that the benchmark's tracer wraps, one runs README's
"Library use" example, and the last one checks that random streams are
built in one place.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trimtest"

# Name, or Class.method, -> why the package keeps it though nothing in it calls it.
_REFERENCE_ROUTE = "an independent reference route the acceptance criteria check the pipeline against"
KEEP = {
    "lstat_eval_via_integral": _REFERENCE_ROUTE,
    "quantile_process_cov_kernel": _REFERENCE_ROUTE,
    "mc_covariance": _REFERENCE_ROUTE,
    "critical_value": "acceptance criterion 6 calls it",
    "DGPSpec.univariate": "the acceptance criteria build their designs with it",
    "DGPSpec.linear_regression": "the acceptance criteria build their designs with it",
    "DGPSpec.panel": "the constructor of the third DGP kind, beside the two the acceptance criteria call",
    "RegressionFit.coef": "acceptance criterion 10 reads coefficients by name with it",
    "WeightScheme.quantile_trim": "the acceptance criteria build their schemes with it",
    "WeightScheme.winsorize": "the acceptance criteria build their schemes with it",
    "WeightScheme.custom": "the acceptance criteria build their schemes with it",
    "PanelDataset.take_rows": "the benchmark's tracer wraps it",
    "PanelDataset.take_clusters": "the benchmark's tracer wraps it",
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


def _methods():
    """(definitions, reads): ("Class.method", node) for each public method or
    property of a public class, and every attribute read outside __init__.py."""
    definitions, reads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                definitions.extend(
                    (f"{stmt.name}.{sub.name}", sub)
                    for sub in stmt.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("_")
                )
        if path.name != "__init__.py":
            reads.extend(
                sub for sub in ast.walk(tree) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            )
    return definitions, reads


def test_every_public_method_is_used_inside_the_package():
    definitions, reads = _methods()
    unused = []
    for qualified, node in definitions:
        name, own = qualified.split(".")[1], set(map(id, ast.walk(node)))
        if qualified not in KEEP and not any(read.attr == name and id(read) not in own for read in reads):
            unused.append(qualified)
    assert unused == [], f"methods reached only from outside the package: {unused}"


def test_keep_list_names_still_exist():
    definitions, _ = _scan()
    methods, _ = _methods()
    assert set(KEEP) <= {name for name, _ in definitions} | {name for name, _ in methods}
    assert all(KEEP.values())


def test_readme_library_use_runs(capsys):
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (Library use)", "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    # The robustness report's three numbers, then the analysis's joint p-value.
    assert [len(line.split()) for line in printed] == [3, 1, 0]
    assert all(0.0 <= float(p) <= 1.0 for p in (printed[0].split()[2], printed[1]))


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
    # table gives each stream keys no other stream uses, or from the draw
    # stream's block derivation, which reproduces it bit for bit; a
    # SeedSequence, bit generator or Generator built anywhere else could
    # reuse another stream's bits.  Annotations build nothing.
    constructors = {"SeedSequence", "default_rng", "PCG64", "Generator"}
    allowed = {("bootstrap.py", name) for name in ("random_stream", "_draw_pool", "_draw_rngs")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        annotations = {
            id(sub)
            for node in ast.walk(tree)
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
            if annotation is not None
            for sub in ast.walk(annotation)
        }
        for stmt in tree.body:
            if (path.name, getattr(stmt, "name", None)) in allowed:
                continue
            for sub in ast.walk(stmt):
                name = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", None)
                if name in constructors and id(sub) not in annotations:
                    found.append(f"{path.name}:{sub.lineno} {name}")
    assert found == [], f"random streams built outside bootstrap.random_stream and _draw_rngs: {found}"
