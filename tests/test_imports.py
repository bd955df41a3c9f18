"""Which runtime modules each package module imports, read from its source."""
import ast
from pathlib import Path

import olghousing

PACKAGE = Path(olghousing.__file__).parent


def _imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


IMPORTS = {path.name: _imported_modules(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_the_import_table_covers_the_package():
    assert {"cli.py", "solver.py", "analytics.py", "regimes.py"} <= IMPORTS.keys()


def test_only_the_path_record_and_its_analytics_import_numpy():
    # the path columns are numpy arrays today; no other layer takes numpy on
    assert {name for name, modules in IMPORTS.items() if "numpy" in modules} <= {
        "solver.py", "analytics.py"}


def test_no_module_imports_csv():
    # each CSV row is one %-format string over its record
    assert [name for name, modules in IMPORTS.items() if "csv" in modules] == []
