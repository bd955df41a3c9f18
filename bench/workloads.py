"""Workload inputs and how one request of each workload is executed.

Every workload draws its requests from a pool recorded in
``reference/<workload>.json`` together with the expected outputs. The
seed only selects from that pool, so any seed yields requests whose
outputs the reference covers:

* ``cli_cold``: the five README configs, each cycle in a seeded order;
* ``long_horizon``: eight request kinds at T=2000 (T=600 for GammaAbove1),
  each cycle in a seeded order, each request one of three recorded e1/e2
  variants of its kind picked by the seed;
* ``regime_grid``: the pool's economies sorted by recorded work and cut
  into strata of two; the seed picks one economy per stratum (256 in
  all) and their order, and the loop cycles through that sample.

The program only sees the generated config files (or, for
``regime_grid``, the economies built from the sampled parameters).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REF_DIR = BENCH / "reference"
WORKLOADS = ("cli_cold", "long_horizon", "regime_grid")
GRID_STRATUM = 2
# entry point of a plain CLI process, as the console script enters it
CLI_ENTRY = "import sys; from olghousing.cli import main; sys.exit(main())"


def load_reference(workload: str) -> dict:
    with open(REF_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def grid_sample(pool: list[dict], seed: int) -> list[dict]:
    """One economy per stratum of similar recorded work, in seeded order."""
    rng = _rng("regime_grid", seed)
    ranked = sorted(pool, key=lambda e: (e["work"], e["id"]))
    sample = [rng.choice(ranked[i:i + GRID_STRATUM])
              for i in range(0, len(ranked), GRID_STRATUM)]
    rng.shuffle(sample)
    return sample


def request_stream(workload: str, pool: list[dict], seed: int):
    """Endless seeded sequence of pool entries for one workload."""
    if workload == "regime_grid":
        sample = grid_sample(pool, seed)
        while True:
            yield from sample
    rng = _rng(workload, seed)
    kinds: dict[str, list[dict]] = {}
    for entry in pool:
        kinds.setdefault(entry["kind"], []).append(entry)
    names = sorted(kinds)
    while True:
        rng.shuffle(names)
        for name in names:
            yield rng.choice(kinds[name])


def write_configs(pool: list[dict], work_dir: Path) -> dict[str, Path]:
    """Write each CLI request's config file; returns id -> path."""
    paths = {}
    for entry in pool:
        path = work_dir / f"{entry['id']}.json"
        path.write_text(json.dumps(entry["config"], sort_keys=True) + "\n", encoding="utf-8")
        paths[entry["id"]] = path
    return paths


def cli_argv(entry: dict, config: Path, work_dir: Path) -> tuple[list[str], Path | None]:
    """Arguments of one CLI request and its --out file, if any."""
    argv = [entry["command"], "--config", str(config)] + entry.get("flags", [])
    out = None
    if entry.get("out"):
        out = work_dir / f"{entry['id']}.csv"
        argv += ["--out", str(out)]
    return argv, out


def stdout_kind(entry: dict) -> str:
    """Whether a CLI request prints CSV or JSON on standard output."""
    if entry.get("out") or entry["command"] == "regimes" or "json" in entry.get("flags", []):
        return "json"
    return "csv"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OLG_LOG", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict, trace_file: Path | None = None):
    """One fresh CLI process; returns (status, stdout, stderr, start, end)."""
    if trace_file is None:
        cmd = [sys.executable, "-c", CLI_ENTRY] + argv
    else:
        cmd = [sys.executable, str(BENCH / "spans.py"), str(trace_file)] + argv
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    end = time.perf_counter()
    return proc.returncode, stdout, stderr, start, end


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI request; returns (status, stdout, stderr)."""
    import olghousing.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = olghousing.cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def economy(entry: dict):
    import olghousing
    p = entry["params"]
    return olghousing.EconomyParams(
        agg=olghousing.CesAggregator(beta=p["beta"], sigma=p["sigma"]),
        housing=olghousing.HousingUtility(gamma=p["gamma"], m=p["m"]),
        G=p["G"], e1=p["e1"], e2=p["e2"],
    )


# terminal that each regime's long run calls for; BubblePossibility economies
# carry their own choice in the pool
REGIME_TERMINAL = {
    "Fundamental": "Fundamental",
    "BubbleNecessity": "Bubbly",
    "CobbDouglasFundamental": "Gamma1",
    "PathologicalGammaAbove1": "GammaAbove1",
}


def run_cell(entry: dict, params):
    """classify, solve_path with the regime's terminal, then the analytics.

    Calls go through the package namespace so that traced rebinding applies.
    """
    import olghousing
    regime = olghousing.classify(params)
    terminal = REGIME_TERMINAL.get(regime.tag.value, entry.get("terminal"))
    path = olghousing.solve_path(params, None, terminal, entry["T"])
    bubble = olghousing.detect_bubble(path)
    efficiency = olghousing.efficiency_test(path)
    return regime, path, bubble, efficiency
