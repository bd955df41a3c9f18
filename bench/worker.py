"""One benchmark worker: a fresh single process for one workload.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORK_DIR [--setup-only]

It imports the program (timing numpy, scipy.optimize and olghousing one
after the other), loads the workload's inputs and prints ``ready``; the
parent times set-up up to that line. Unless ``--setup-only`` is given, it
then runs the workload's closed loop (one client, the next request issued
when the previous one has finished and been checked) until SECONDS have
passed, and prints one JSON line with the results.

With TRACE=1 every request runs twice, untraced and traced, in alternating
order; the traced runs give the per-layer metrics and the pairs give the
tracing overhead.
"""
from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# the tail latency is the value with this many samples beyond it
TAIL_BEYOND = 10


def import_program() -> dict[str, float]:
    """Import the program from this checkout; returns seconds per module."""
    sys.path.insert(0, str(workloads.SRC))
    times = {name: end - start for name, start, end in spans.timed_imports()}
    origin = Path(sys.modules["olghousing"].__file__).resolve()
    if workloads.SRC not in origin.parents:
        raise SystemExit(f"olghousing imported from {origin}, not from {workloads.SRC}")
    return times


class Runner:
    """Executes and checks the requests of one workload."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        ref = workloads.load_reference(workload)
        self.workload = workload
        self.work_dir = work_dir
        self.expected = ref["expected"]
        self.stream = workloads.request_stream(workload, ref["pool"], seed)
        if workload == "regime_grid":
            self.params = {e["id"]: workloads.economy(e)
                           for e in workloads.grid_sample(ref["pool"], seed)}
        else:
            import olghousing.cli
            for entry in ref["pool"]:
                olghousing.cli.RunConfig.from_dict(entry["config"])
            self.configs = workloads.write_configs(ref["pool"], work_dir)
            self.env = workloads.child_env()
        self.tracer = spans.Tracer()
        self.bytes_out = 0
        self.child_imports: dict[str, list[float]] = {}

    def run(self, entry: dict, traced: bool) -> tuple[float, list[str]]:
        """Latency in seconds and correctness errors of one request."""
        self.tracer.request = entry["id"]
        if self.workload == "cli_cold":
            return self._run_cold(entry, traced)
        out = None
        if self.workload == "long_horizon":
            argv, out = workloads.cli_argv(entry, self.configs[entry["id"]], self.work_dir)
        uninstall = spans.install(self.tracer) if traced else None
        root = self.tracer.open(spans.ROOT_SPAN) if traced else None
        start = time.perf_counter()
        try:
            if self.workload == "regime_grid":
                outcome = workloads.run_cell(entry, self.params[entry["id"]])
            else:
                outcome = workloads.run_main(argv)
        except Exception as exc:  # a raising request is a failed request
            outcome = exc
        latency = time.perf_counter() - start
        if traced:
            self.tracer.close(root)
            uninstall()
        if isinstance(outcome, Exception):
            return latency, [f"{entry['id']}: raised {type(outcome).__name__}: {outcome}"]
        if self.workload == "regime_grid":
            return latency, check.check_cell(self.expected[entry["id"]], *outcome)
        status, stdout, stderr = outcome
        return latency, self._check_cli(entry, status, stdout, stderr, out, traced)

    def _run_cold(self, entry: dict, traced: bool) -> tuple[float, list[str]]:
        argv, out = workloads.cli_argv(entry, self.configs[entry["id"]], self.work_dir)
        trace_file = self.work_dir / "trace.json" if traced else None
        status, stdout, stderr, start, end = workloads.run_child(argv, self.env, trace_file)
        if traced and trace_file.exists():  # a failed process leaves no trace
            self._merge_child_trace(trace_file, start, end)
        return end - start, self._check_cli(entry, status, stdout, stderr, out, traced)

    def _merge_child_trace(self, trace_file: Path, start: float, end: float) -> None:
        """Graft a CLI process's spans under a request span measured here.

        Both processes read the same monotonic clock. The ``import`` span
        runs from process spawn to the end of ``import olghousing``.
        """
        doc = json.loads(trace_file.read_text(encoding="utf-8"))
        trace_file.unlink()
        tracer = self.tracer
        root = tracer.add(spans.ROOT_SPAN, start, end, None)
        imported = tracer.add("import", start, doc["imports"][-1][2], root)
        for name, a, b in doc["imports"]:
            tracer.add(name, a, b, imported)
            self.child_imports.setdefault(name, []).append(b - a)
        ids = {}
        for _, sid, parent, name, a, b in doc["spans"]:
            ids[sid] = tracer.add(name, a, b, root if parent is None else ids[parent])
        tracer.counts.update(doc["counts"])
        tracer.max_residual = max(tracer.max_residual, doc["max_residual"])

    def _check_cli(self, entry, status, stdout, stderr, out, traced) -> list[str]:
        out_text = None
        if out is not None and out.exists():
            out_text = out.read_text(encoding="utf-8")
            out.unlink()
        if traced:
            self.bytes_out += len(stdout.encode()) + len((out_text or "").encode())
        errors = check.check_cli(self.expected[entry["id"]], status, stdout, stderr,
                                 out_text, workloads.stdout_kind(entry))
        return [f"{entry['id']}: {e}" for e in errors]


def latency_metrics(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "latency_p50_s": statistics.median(ordered),
        "latency_tail_s": ordered[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "samples": n,
    }


def layer_metrics(runner: Runner, imports: dict, traced_wall: float,
                  untraced_wall: float, n: int) -> dict:
    tracer = runner.tracer
    own = spans.layer_self_times(tracer.spans)
    calls = {layer: 0 for layer in spans.LAYERS}
    for span in tracer.spans:
        if "." in span[3]:
            calls[spans.layer_of(span[3])] += 1
    if runner.child_imports:
        imports = {name: statistics.fmean(values) for name, values in runner.child_imports.items()}
    dates = tracer.counts["solver.dates"]
    metrics = {f"{name}_s": imports[name] for name, _ in spans.IMPORTS}
    metrics.update({
        "cli.self_s": own["cli"] / n,
        "cli.bytes_out": runner.bytes_out / n,
        "solver.self_s": own["solver"] / n,
        "solver.calls": calls["solver"] / n,
        "solver.dates": dates / n,
        "solver.max_residual": tracer.max_residual,
        "preferences.value_calls_per_date": tracer.counts["preferences.value_calls"] / max(dates, 1),
        "preferences.partials_calls_per_date":
            tracer.counts["preferences.partials_calls"] / max(dates, 1),
        "regimes.self_s": own["regimes"] / n,
        "regimes.calls": calls["regimes"] / n,
        "analytics.self_s": own["analytics"] / n,
        "analytics.calls": calls["analytics"] / n,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    for layer in spans.LAYERS:
        metrics[f"{layer}.share"] = own[layer] / traced_wall
    return metrics


def main() -> None:
    workload, seed, seconds, trace, work_dir = sys.argv[1:6]
    seed, seconds, trace, work_dir = int(seed), float(seconds), trace == "1", Path(work_dir)
    imports = import_program()
    runner = Runner(workload, seed, work_dir)
    print("ready", flush=True)
    if "--setup-only" in sys.argv[6:]:
        return

    latencies, traced_lat, failures = [], [], []
    attempted = failed = completed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        entry = next(runner.stream)
        modes = (False,) if not trace else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            latency, errors = runner.run(entry, traced)
            attempted += 1
            if errors:
                failed += 1
                failures.extend(errors[:10 - len(failures)])
            elif not traced:
                completed += 1
            (traced_lat if traced else latencies).append(latency)
        i += 1

    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    busy = sum(latencies)
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "versions": {"python": platform.python_version(),
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
        "end_to_end": dict(latency_metrics(latencies),
                           throughput_rps=completed / busy,
                           peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0),
    }
    if trace:
        result["per_layer"] = layer_metrics(runner, imports, sum(traced_lat), busy,
                                            len(traced_lat))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
