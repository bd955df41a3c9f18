"""Tests of the benchmark itself (not of the program).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import shutil
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work_dir():
    path = BENCH / ".work" / "tests"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)


def _inputs(workload: str, seed: int, where: Path) -> bytes:
    """Everything the program receives for a seed: request order and configs."""
    pool = workloads.load_reference(workload)["pool"]
    order = [entry["id"] for entry in islice(workloads.request_stream(workload, pool, seed), 600)]
    blob = json.dumps(order).encode()
    if workload == "regime_grid":
        return blob + json.dumps(workloads.grid_sample(pool, seed), sort_keys=True).encode()
    where.mkdir()
    paths = workloads.write_configs(pool, where)
    return blob + b"".join(paths[key].read_bytes() for key in sorted(paths))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, work_dir):
    first = _inputs(workload, 11, work_dir / "a")
    assert _inputs(workload, 11, work_dir / "b") == first
    assert _inputs(workload, 12, work_dir / "c") != first


def test_grid_sample_covers_every_regime():
    pool = workloads.load_reference("regime_grid")["pool"]
    sample = workloads.grid_sample(pool, 3)
    assert len(sample) == len(pool) // workloads.GRID_STRATUM
    assert {entry["tag"] for entry in sample} == set(workloads.REGIME_TERMINAL) | {"BubblePossibility"}


def _solve_request(work_dir: Path):
    """The README solve request of cli_cold, run in this process."""
    ref = workloads.load_reference("cli_cold")
    entry = next(e for e in ref["pool"] if e["id"] == "solve")
    config = workloads.write_configs([entry], work_dir)["solve"]
    argv, out = workloads.cli_argv(entry, config, work_dir)
    status, stdout, stderr = workloads.run_main(argv)
    return ref["expected"]["solve"], status, stdout, stderr, out.read_text(encoding="utf-8")


def _perturb_csv(text: str, row: int, column: str, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    k = header.index(column)
    cells[k] = repr(float(cells[k]) * factor)
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def test_check_accepts_the_program_output(work_dir):
    ref, status, stdout, stderr, out = _solve_request(work_dir)
    assert check.check_cli(ref, status, stdout, stderr, out, "json") == []
    nudged = _perturb_csv(out, 100, "P", 1.0 + 1e-12)
    assert check.check_cli(ref, status, stdout, stderr, nudged, "json") == []


@pytest.mark.parametrize("column", ["P", "q", "c_y"])
def test_check_rejects_a_path_perturbed_by_1e_6(work_dir, column):
    ref, status, stdout, stderr, out = _solve_request(work_dir)
    bad = _perturb_csv(out, 100, column, 1.0 + 1e-6)
    errors = check.check_cli(ref, status, stdout, stderr, bad, "json")
    assert errors and f"row 100 {column}" in errors[0]


def test_check_rejects_a_reference_perturbed_by_1e_6(work_dir):
    ref, status, stdout, stderr, out = _solve_request(work_dir)
    bad_ref = json.loads(json.dumps(ref))
    row = bad_ref["out"]["rows"][150][1]
    row[5] *= 1.0 + 1e-6  # the price column
    assert check.check_cli(bad_ref, status, stdout, stderr, out, "json")
    bad_ref = json.loads(json.dumps(ref))
    bad_ref["stdout"]["bubble"]["fundamental_value_0"] *= 1.0 + 1e-6
    assert check.check_cli(bad_ref, status, stdout, stderr, out, "json")


def test_check_enforces_the_error_contract_and_residual_bound(work_dir):
    ref, status, stdout, stderr, out = _solve_request(work_dir)
    assert check.check_cli(ref, status, stdout, "warning\n", out, "json")
    assert check.check_cli(ref, 1, stdout, stderr, out, "json")
    doc = json.loads(stdout)
    doc["max_residual"] = 2e-10
    assert check.check_cli(ref, status, json.dumps(doc), stderr, out, "json")


def test_check_rejects_a_perturbed_grid_path():
    ref = workloads.load_reference("regime_grid")
    entry = ref["pool"][0]
    regime, path, bubble, efficiency = workloads.run_cell(entry, workloads.economy(entry))
    expected = ref["expected"][entry["id"]]
    assert check.check_cell(expected, regime, path, bubble, efficiency) == []
    path.P[path.T // 2] *= 1.0 + 1e-6
    assert check.check_cell(expected, regime, path, bubble, efficiency)


def _traced(tracer: spans.Tracer, request: str, call):
    tracer.request = request
    uninstall = spans.install(tracer)
    root = tracer.open(spans.ROOT_SPAN)
    try:
        call()
    finally:
        tracer.close(root)
        uninstall()
    return root


def test_trace_self_times_sum_to_the_request_time(work_dir):
    import olghousing
    originals = (olghousing.solve_path, olghousing.cli.classify,
                 olghousing.CesAggregator.value, olghousing.cli.RunConfig.from_dict)
    tracer = spans.Tracer()
    entry = workloads.load_reference("regime_grid")["pool"][1]
    params = workloads.economy(entry)
    config = workloads.write_configs(
        [e for e in workloads.load_reference("cli_cold")["pool"] if e["id"] == "credit"], work_dir)
    argv, _ = workloads.cli_argv({"command": "credit", "id": "credit", "out": True},
                                 config["credit"], work_dir)
    roots = [_traced(tracer, "cell", lambda: workloads.run_cell(entry, params)),
             _traced(tracer, "main", lambda: workloads.run_main(argv))]
    assert (olghousing.solve_path, olghousing.cli.classify, olghousing.CesAggregator.value,
            olghousing.cli.RunConfig.from_dict) == originals
    own = spans.self_times(tracer.spans)
    for root in roots:
        members = [s for s in tracer.spans if s[0] == root[0]]
        names = {s[3] for s in members}
        assert {"solver.solve_path", "regimes.classify"} <= names
        assert sum(own[s[1]] for s in members) == pytest.approx(root[5] - root[4], rel=1e-9)
        assert all(own[s[1]] >= -1e-12 for s in members)
    assert "cli.main" in {s[3] for s in tracer.spans if s[0] == "main"}
    assert tracer.counts["preferences.value_calls"] > 0
