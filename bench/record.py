"""Record the benchmark's request pools and reference outputs.

    PYTHONPATH=src python3 bench/record.py

Builds the pools from fixed seeds (closed-form CES thresholds keep every
economy inside its intended regime, away from the thresholds), runs each
request once through the program in this checkout, and writes
``bench/reference/<workload>.json``. Run it only when the outputs are
meant to change; the benchmark checks every request against these files.
"""
from __future__ import annotations

import json
import math
import random
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# the README configs
README_ECONOMY = {"beta": 0.5, "sigma": 1.0, "gamma": 0.5, "m": 0.1, "G": 1.1}
README_SOLVE = dict(README_ECONOMY, e1=105.0, e2=95.0, T=200)
README_SCENARIO = dict(README_ECONOMY, e1=95.0, e2=105.0, T=120, announcements=[
    {"announce_date": 0, "effective_date": 0, "e1": 95.0, "e2": 105.0},
    {"announce_date": 40, "effective_date": 40, "e1": 105.0, "e2": 95.0},
    {"announce_date": 80, "effective_date": 80, "e1": 95.0, "e2": 105.0},
])
README_CREDIT = dict(README_ECONOMY, e1=100.0, e2=120.0, T=200, **{"lambda": 0.2})
README_SWEEP = {"beta": 0.5, "sigma": 1.0, "m": 0.1, "G": 1.1,
                "gamma_inv_min": 1.25, "gamma_inv_max": 2.0,
                "w_inv_min": 0.92, "w_inv_max": 1.07, "resolution": 8}

LONG_T = 2000
# GammaAbove1 paths raise near T=1000 (ROADMAP item 3b), and well before
# that the share 1 - s falls below ~1e-7 and the residual exceeds the 1e-10
# bound (gamma=1.5 from T~400); gamma=1.2 at T=600 keeps 1 - s ~ 5e-5
GAMMA_ABOVE_1 = 1.2
GAMMA_ABOVE_1_T = 600
LONG_VARIANTS = 3
# relative e1/e2 jitter; with the README economy (w_f* = 0.953, w_b* = 1)
# it keeps w = 0.905 (bubbly) and w = 1.105 (fundamental) inside their regimes
LONG_JITTER = 0.015

GRID_POOL = 512
GRID_T = 100
GRID_TAGS = ("Fundamental", "BubblePossibility", "BubbleNecessity",
             "CobbDouglasFundamental", "PathologicalGammaAbove1")
# minimum log distance of the income ratio from each threshold, scaled by
# sigma; it bounds the unstable eigenvalue away from 1, so the terminal pad
# (28 / log lambda1) stays below about 1000 dates and G**(T + pad) finite
# (ROADMAP item 3a overflows beyond that)
GRID_MARGIN = 0.03
# above this curvature some T=100 GammaAbove1 paths push 1 - s below ~1e-7
# and break the residual bound, or raise (gamma~2.1, G~1.11; ROADMAP item 3b)
GRID_GAMMA_MAX = 1.6


def cli_cold_pool() -> list[dict]:
    return [
        {"id": "regimes", "kind": "regimes", "command": "regimes", "config": README_SOLVE},
        {"id": "solve", "kind": "solve", "command": "solve", "config": README_SOLVE, "out": True},
        {"id": "scenario", "kind": "scenario", "command": "scenario",
         "config": README_SCENARIO, "out": True},
        {"id": "credit", "kind": "credit", "command": "credit", "config": README_CREDIT, "out": True},
        {"id": "sweep", "kind": "sweep", "command": "sweep", "config": README_SWEEP},
    ]


def _jitter(rng: random.Random, value: float) -> float:
    return round(value * (1.0 + rng.uniform(-LONG_JITTER, LONG_JITTER)), 6)


def long_horizon_pool() -> list[dict]:
    rng = random.Random("long_horizon-pool")
    bubbly = dict(README_ECONOMY, e1=105.0, e2=95.0, T=LONG_T)
    fundamental = dict(README_ECONOMY, e1=95.0, e2=105.0, T=LONG_T)
    kinds = {
        "bubbly": ("solve", bubbly, []),
        "fundamental": ("solve", fundamental, []),
        "gamma1": ("solve", dict(README_ECONOMY, gamma=1.0, e1=100.0, e2=100.0, T=LONG_T), []),
        "gamma_above_1": ("solve", dict(README_ECONOMY, gamma=GAMMA_ABOVE_1, e1=100.0, e2=100.0,
                                        T=GAMMA_ABOVE_1_T), []),
        "credit": ("credit", dict(README_CREDIT, T=LONG_T), []),
        # two scenario kinds, so that a run holds well over ten of its
        # slowest requests and the tail latency stays within one kind
        "scenario_fb": ("scenario", fundamental, []),
        "scenario_bf": ("scenario", bubbly, []),
        "bubbly_json": ("solve", bubbly, ["--format", "json"]),
    }
    pool = []
    for kind, (command, base, flags) in kinds.items():
        for v in range(LONG_VARIANTS):
            config = dict(base, e1=_jitter(rng, base["e1"]), e2=_jitter(rng, base["e2"]))
            if command == "scenario":
                # four beliefs alternating between the two endowment levels
                levels = [(config["e1"], config["e2"]), (config["e2"], config["e1"])]
                config["announcements"] = [
                    {"announce_date": d, "effective_date": d,
                     "e1": levels[k % 2][0], "e2": levels[k % 2][1]}
                    for k, d in enumerate((0, 500, 1000, 1500))
                ]
            entry = {"id": f"{kind}-{v}", "kind": kind, "command": command,
                     "config": config, "flags": flags}
            if not flags:
                entry["out"] = True
            pool.append(entry)
    return pool


def _ces_thresholds(beta: float, sigma: float, gamma: float, G: float) -> tuple[float, float]:
    ratio = beta / (1.0 - beta)
    return ((ratio * G ** (gamma - sigma)) ** (1.0 / sigma),
            (ratio * G ** (1.0 - sigma)) ** (1.0 / sigma))


def _grid_economy(rng: random.Random, tag: str) -> dict:
    while True:
        p = {"beta": rng.uniform(0.35, 0.65), "sigma": rng.uniform(0.6, 1.8),
             "m": rng.uniform(0.05, 0.2), "G": rng.uniform(1.03, 1.12), "e1": 100.0}
        if tag == "CobbDouglasFundamental":
            p["gamma"], w = 1.0, rng.uniform(0.7, 1.4)
        elif tag == "PathologicalGammaAbove1":
            p["gamma"], w = rng.uniform(1.1, GRID_GAMMA_MAX), rng.uniform(0.7, 1.4)
        else:
            p["gamma"] = rng.uniform(0.2, 0.8)
            w_f, w_b = _ces_thresholds(p["beta"], p["sigma"], p["gamma"], p["G"])
            lo, hi = {"Fundamental": (w_b, 1.5 * w_b),
                      "BubblePossibility": (w_f, w_b),
                      "BubbleNecessity": (0.7 * w_f, w_f)}[tag]
            w = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            margin = min(abs(math.log(w / w_f)), abs(math.log(w / w_b))) * p["sigma"]
            if margin < GRID_MARGIN:
                continue
        p = {k: round(v, 6) for k, v in p.items()}
        p["e2"] = round(p["e1"] * w, 6)
        return p


def regime_grid_pool() -> list[dict]:
    rng = random.Random("regime_grid-pool")
    pool = []
    for i in range(GRID_POOL):
        tag = GRID_TAGS[i % len(GRID_TAGS)]
        entry = {"id": f"cell-{i}", "tag": tag, "T": GRID_T, "params": _grid_economy(rng, tag)}
        if tag == "BubblePossibility":
            entry["terminal"] = ("Fundamental", "Bubbly")[(i // len(GRID_TAGS)) % 2]
        pool.append(entry)
    return pool


def record_cli(pool: list[dict], in_process: bool) -> dict:
    expected = {}
    work = workloads.BENCH / ".work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        configs = workloads.write_configs(pool, work)
        for entry in pool:
            argv, out = workloads.cli_argv(entry, configs[entry["id"]], work)
            if in_process:
                status, stdout, stderr = workloads.run_main(argv)
            else:
                status, stdout, stderr, _, _ = workloads.run_child(argv, workloads.child_env())
            out_text = out.read_text(encoding="utf-8") if out is not None else None
            kind = workloads.stdout_kind(entry)
            if status != 0 or stderr:
                raise SystemExit(f"{entry['id']}: exit {status}: {stderr}")
            digest = check.cli_digest(status, stdout, out_text, kind)
            errors = check.check_cli(digest, status, stdout, stderr, out_text, kind)
            if errors:
                raise SystemExit(f"{entry['id']}: {errors[0]}")
            expected[entry["id"]] = digest
    finally:
        shutil.rmtree(work)
    return expected


def record_grid(pool: list[dict]) -> dict:
    import olghousing
    expected = {}
    for entry in pool:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            regime, path, bubble, efficiency = workloads.run_cell(entry, workloads.economy(entry))
        finally:
            uninstall()
        if regime.tag.value != entry["tag"] or regime.boundary is not None:
            raise SystemExit(f"{entry['id']}: classified {regime.tag.value}, meant {entry['tag']}")
        digest = check.cell_digest(regime, path, bubble, efficiency)
        if check.check_cell(digest, regime, path, bubble, efficiency):
            raise SystemExit(f"{entry['id']}: residual above {check.RESIDUAL_BOUND}")
        entry["work"] = tracer.counts["preferences.value_calls"]
        expected[entry["id"]] = digest
    if not olghousing.__file__.startswith(str(workloads.SRC)):
        raise SystemExit(f"olghousing imported from {olghousing.__file__}, not from src/")
    return expected


def main() -> None:
    targets = sys.argv[1:] or list(workloads.WORKLOADS)
    for workload in targets:
        if workload == "cli_cold":
            pool = cli_cold_pool()
            expected = record_cli(pool, in_process=False)
        elif workload == "long_horizon":
            pool = long_horizon_pool()
            expected = record_cli(pool, in_process=True)
        else:
            pool = regime_grid_pool()
            expected = record_grid(pool)
        doc = {"pool": pool, "expected": expected}
        path = workloads.REF_DIR / f"{workload}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"{workload}: {len(pool)} requests -> {path.relative_to(workloads.ROOT)}"
              f" ({path.stat().st_size // 1024} KiB)")


if __name__ == "__main__":
    main()
