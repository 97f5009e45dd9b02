"""Every top-level package name is reached from the package itself.

A function or class that only tests call is dead weight in the library.
The scan parses src/trimtest/*.py and counts a name as used when another
top-level statement of the package refers to it as a name, an attribute or
an import.  Re-exports in __init__.py do not count, and neither do
references inside the name's own definition.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trimtest"

# Independent reference routes that the acceptance criteria check the
# pipeline against; nothing in the package calls them.
KEEP = {"lstat_eval_via_integral", "quantile_process_cov_kernel", "mc_covariance"}


def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
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
        for i, stmt in enumerate(tree.body):
            site = (path.name, i)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((stmt.name, site))
            if path.name != "__init__.py":
                references.append((site, _referenced(stmt)))
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
