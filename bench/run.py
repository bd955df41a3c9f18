"""Benchmark of the olghousing program, end to end and by layer.

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all        # every workload, one after another

Each workload runs in fresh single-process workers started from this
checkout's ``src/``. Set-up (fresh process, import, input loading) is
timed in several set-up-only workers plus the measuring worker, and the
median is reported. The measuring worker then runs the workload's closed
loop for ``--seconds`` and checks every output against the recorded
reference (see ``check.py``); a request that exits non-zero, raises or
fails the check counts as failed.

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric listed in ``BENCHMARK.json``; with
``--trace 1`` it holds every per-layer metric instead, from a run where
each request also runs traced (see ``spans.py``). Earlier lines record the
environment (Python, numpy and scipy versions, CPU model, nproc, seed,
commit), the tail percentile and its sample count, and the metrics in
readable form. If the program or a worker fails, the benchmark prints no
result and exits with status 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH, ROOT, WORKLOADS
# set-up-only workers per run; the measuring worker adds one more sample
SETUP_RUNS = 2
# a worker that outlives its measuring time by this much is stopped
GRACE_S = 120


class BenchError(Exception):
    """The benchmark could not produce a result."""


def metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """The checkout's commit when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def start_worker(args, work_dir: Path, setup_only: bool):
    """Start a worker; returns it and its set-up time (spawn to 'ready')."""
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(work_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, 10)
        raise BenchError(f"{args.workload} worker failed during set-up")
    return proc, setup


def finish(proc, timeout: float) -> str:
    """Wait for a worker and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


def run_workload(args) -> dict:
    work_dir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_RUNS):
            proc, setup = start_worker(args, work_dir, setup_only=True)
            finish(proc, GRACE_S)
            setups.append(setup)
        proc, setup = start_worker(args, work_dir, setup_only=False)
        setups.append(setup)
        out = finish(proc, args.seconds + GRACE_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{args.workload} worker printed no result") from None
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def report(args, result: dict, spec: dict) -> dict:
    """Print one workload's details and return its result object."""
    kind = "per_layer" if args.trace else "end_to_end"
    values = result[kind]
    missing = sorted(set(spec[kind]) - set(values))
    if missing:
        raise BenchError(f"{args.workload}: no value for {', '.join(missing)}")
    e2e = result["end_to_end"]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "requests": result["attempted"],
        "fail_frac": result["failed"] / result["attempted"],
        "latency_samples": e2e["samples"],
        "latency_tail_percentile": e2e["tail_percentile"],
        "setup_samples_s": result["setup_samples"],
        "failures": result["failures"],
    }
    print(json.dumps({"detail": detail}))
    for name, unit in spec[kind].items():
        print(f"  {args.workload:<13} {name:<38} {values[name]:>14.6g} {unit}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec[kind].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "olghousing" / "__init__.py").is_file():
        print(f"no olghousing package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = metric_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {"python": platform.python_version(), "cpu": cpu_model(),
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "seed": args.seed, "commit": git_commit(), "source_sha256": source_digest()}
    outputs = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            result = run_workload(one)
            env.update(result["versions"])
            if name == names[0]:
                print(json.dumps({"env": env}))
            outputs[name] = report(one, result, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(outputs[names[0]]))
    else:
        print(json.dumps({
            "correct": all(o["correct"] for o in outputs.values()),
            "attempted": sum(o["attempted"] for o in outputs.values()),
            "failed": sum(o["failed"] for o in outputs.values()),
            "metrics": {f"{w}.{k}": v for w, o in outputs.items() for k, v in o["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
