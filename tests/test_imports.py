"""Which runtime modules the package imports: per module from its source, and in a new
process; and which names it exports."""
import ast
import importlib
from collections import Counter
from pathlib import Path

import olghousing
from test_cli import run_python

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


def test_no_module_imports_numpy():
    # path columns are float lists and the analytics run on math
    assert [name for name, modules in IMPORTS.items() if "numpy" in modules] == []


def test_no_module_imports_csv():
    # each CSV row is one %-format string over its record
    assert [name for name, modules in IMPORTS.items() if "csv" in modules] == []


def _loaded_modules(statement):
    """Top-level names of the modules a fresh interpreter holds after ``statement``."""
    result = run_python(f"import sys; {statement}; print(*sorted(sys.modules))")
    assert result.returncode == 0, result.stderr
    return {name.split(".")[0] for name in result.stdout.decode().split()}


def test_the_cli_loads_no_numeric_library():
    # measured against a bare interpreter, so that what its site hooks load
    # does not count; statistics would bring fractions and decimal along
    loaded = _loaded_modules("import olghousing.cli") - _loaded_modules("pass")
    assert not loaded & {"numpy", "scipy", "statistics", "fractions", "decimal"}


# the package's names before it joined the modules' __all__
EARLIER_NAMES = {
    "CesAggregator", "HousingUtility", "EconomyParams", "Thresholds", "Regime", "RegimeTag",
    "SteadyStateKind", "SteadyStateReport", "Determinacy", "LongRunKind", "WelfareClass",
    "CreditTransform", "thresholds", "classify", "fundamental_steady_state",
    "bubbly_steady_state", "gamma1_steady_state", "steady_state", "welfare_class",
    "credit_transform", "Segment", "EndowmentPath", "BeliefSchedule", "TerminalKind",
    "EquilibriumPath", "backward_step", "solve_path", "solve_scenario", "Verdict",
    "EfficiencyBranch", "BubbleVerdict", "EfficiencyVerdict", "detect_bubble",
    "efficiency_test", "tail_growth", "AnnouncementSpec", "RunConfig", "main", "ModelError",
    "DomainError", "BranchError", "RegimeError", "LoanError", "SolverError", "HorizonError",
    "ApplicabilityError", "ConfigError",
}
# every module but the package and its ``python -m`` entry, which runs the CLI
MODULES = [importlib.import_module(f"olghousing.{name[:-3]}") for name in IMPORTS
           if name not in ("__init__.py", "__main__.py")]


def test_each_public_name_is_listed_once_by_the_module_that_defines_it():
    listed = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in listed.items() if count > 1] == []
    assert [(module.__name__, name) for module in MODULES for name in module.__all__
            if getattr(module, name).__module__ != module.__name__] == []


def test_the_namespace_is_the_join_of_the_module_lists():
    assert len(EARLIER_NAMES) == 47
    joined = {name for module in MODULES if module.__name__ != "olghousing.roots"
              for name in module.__all__}
    assert sorted(olghousing.__all__) == sorted(joined | {"__version__"})
    assert set(olghousing.__all__) == EARLIER_NAMES | {
        "Column", "EisCondition", "Gamma1Condition", "__version__"}
    for name in olghousing.__all__:
        getattr(olghousing, name)
    # the root finder stays internal
    assert "newton" not in olghousing.__all__
