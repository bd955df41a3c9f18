"""Span tracing of the olghousing layers, from outside the package.

``install`` rebinds each layer's public entry points to wrappers that
record a span (name, start, end, parent, request id) per call, in every
module of the package that holds a reference to them (``cli`` imports
names directly, so its bindings are rebound too). ``CesAggregator.value``
and ``.partials`` get counters only, because they run thousands of times
per path. Spans stay in memory until the benchmark run ends.

Run as a script, this module is the traced CLI process of the ``cli_cold``
workload: ``python3 bench/spans.py TRACE_FILE SUBCOMMAND ...`` times the
imports, runs ``olghousing.cli.main`` traced and writes its spans to
TRACE_FILE before exiting with the CLI's status.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from functools import wraps

# span name prefix -> module and public entry points of that layer
LAYER_ENTRIES = {
    "cli": ("olghousing.cli", ("main",)),
    "regimes": ("olghousing.regimes", (
        "classify", "thresholds", "fundamental_steady_state", "bubbly_steady_state",
        "gamma1_steady_state", "welfare_class", "credit_transform")),
    "solver": ("olghousing.solver", ("solve_path", "solve_scenario")),
    "analytics": ("olghousing.analytics", ("detect_bubble", "efficiency_test")),
}
PACKAGE_MODULES = ("olghousing", "olghousing.cli", "olghousing.regimes",
                   "olghousing.solver", "olghousing.analytics")
COUNTED_METHODS = ("value", "partials")
LAYERS = ("import", "cli", "regimes", "solver", "analytics", "other")
ROOT_SPAN = "request"
# the program's import stack, timed one module after another
IMPORTS = (("import.numpy", "numpy"), ("import.scipy_optimize", "scipy.optimize"),
           ("import.olghousing", "olghousing"))


class Tracer:
    """In-memory span and counter store for one benchmark run.

    A span is ``[request, span_id, parent_id, name, start, end]`` with
    ``time.perf_counter`` times; ``parent_id`` is None for a request's root.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_residual = 0.0
        self._stack: list[int] = []
        self.request = None

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self.request, len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[1])
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None) -> int:
        """Record a finished span (for spans measured in another process)."""
        self.spans.append([self.request, len(self.spans), parent, name, start, end])
        return len(self.spans) - 1

    def observe_path(self, name: str, path) -> None:
        self.max_residual = max(self.max_residual, float(path.residuals.max()))
        if name == "solver.solve_path":
            self.counts["solver.dates"] += path.T + 1

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if name.startswith("solver."):
                self.observe_path(name, result)
            return result
        return traced

    def counter(self, name: str, fn):
        """Count calls of an aggregator method ``fn(agg, y, z)``.

        The fixed signature keeps the wrapper cheap: it runs about 50 times
        per solved date.
        """
        counts = self.counts

        @wraps(fn)
        def counted(agg, y, z):
            counts[name] += 1
            return fn(agg, y, z)
        return counted


def install(tracer: Tracer):
    """Rebind the traced entry points; returns a function that undoes it."""
    modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
    undo = []

    def rebind(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append((module, attr, original))

    for layer, (module_name, names) in LAYER_ENTRIES.items():
        module = importlib.import_module(module_name)
        for name in names:
            original = getattr(module, name)
            rebind(original, tracer.wrap(f"{layer}.{name}", original))

    cli = importlib.import_module("olghousing.cli")
    from_dict = vars(cli.RunConfig)["from_dict"]
    cli.RunConfig.from_dict = classmethod(tracer.wrap("cli.RunConfig.from_dict", from_dict.__func__))
    undo.append((cli.RunConfig, "from_dict", from_dict))

    ces = importlib.import_module("olghousing.preferences").CesAggregator
    for method in COUNTED_METHODS:
        original = vars(ces)[method]
        setattr(ces, method, tracer.counter(f"preferences.{method}_calls", original))
        undo.append((ces, method, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[2] is not None:
            children.setdefault(span[2], []).append((span[4], span[5]))
    out = {}
    for span in spans:
        start, end = span[4], span[5]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(span[1], ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[span[1]] = (end - start) - covered
    return out


def layer_of(name: str) -> str:
    layer = name.split(".")[0]
    return layer if layer in LAYERS else "other"


def layer_self_times(spans: list[list]) -> Counter:
    """Self time summed per layer; the root request span counts as 'other'."""
    totals: Counter = Counter()
    own = self_times(spans)
    for span in spans:
        totals[layer_of(span[3])] += own[span[1]]
    return totals


def timed_imports() -> list[list]:
    """Import the program; returns ``[span name, start, end]`` per module."""
    imports = []
    for name, module in IMPORTS:
        start = time.perf_counter()
        importlib.import_module(module)
        imports.append([name, start, time.perf_counter()])
    return imports


def _traced_cli(trace_file: str, argv: list[str]) -> int:
    imports = timed_imports()
    cli = importlib.import_module("olghousing.cli")
    tracer = Tracer()
    install(tracer)
    status = cli.main(argv)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"imports": imports, "spans": tracer.spans,
                   "counts": tracer.counts, "max_residual": tracer.max_residual}, fh)
    return status


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
