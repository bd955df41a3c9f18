"""Golden bytes of the command line: every subcommand, format and curvature branch.

Each case runs ``main`` in-process on a fixed config and compares sha256
digests of its standard output, standard error and ``--out`` file, plus its
exit status, with digests recorded from a known-good build. A refactor that
claims to leave the CLI unchanged must keep every digest. To re-record them
after a deliberate output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and paste the printed ``GOLDEN`` mapping over the one below.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from olghousing.cli import main

BASE = {"beta": 0.5, "sigma": 1.0, "gamma": 0.5, "m": 0.1, "G": 1.1}

CONFIGS = {
    "fundamental": dict(BASE, e1=95.0, e2=105.0, T=80),
    "possibility": dict(BASE, e1=100.0, e2=98.0, T=80, terminal="Bubbly"),
    "necessity": dict(BASE, e1=105.0, e2=95.0, T=80),
    "gamma1": dict(BASE, gamma=1.0, e1=100.0, e2=100.0, T=60),
    "gamma_above_1": dict(BASE, gamma=1.5, e1=100.0, e2=100.0, T=60),
    "scenario": dict(BASE, e1=95.0, e2=105.0, T=120, announcements=[
        {"announce_date": 0, "effective_date": 0, "e1": 95.0, "e2": 105.0},
        {"announce_date": 40, "effective_date": 40, "e1": 105.0, "e2": 95.0},
        {"announce_date": 80, "effective_date": 80, "e1": 95.0, "e2": 105.0},
    ]),
    "credit": dict(BASE, e1=100.0, e2=120.0, T=80, **{"lambda": 0.2}),
    # gamma = 2, 1, 2/3, 0.5, 0.4 against income ratios on both sides of
    # both thresholds, one of them on the w_b_star boundary
    "sweep": {"beta": 0.5, "sigma": 1.0, "m": 0.1, "G": 1.1,
              "gamma_inv_min": 0.5, "gamma_inv_max": 2.5,
              "w_inv_min": 0.92, "w_inv_max": 1.08, "resolution": 5},
}

# case -> (subcommand, config, extra arguments); OUT stands for the --out file
OUT = "{out}"

CASES = {
    "regimes-fundamental": ("regimes", "fundamental", []),
    "regimes-possibility": ("regimes", "possibility", []),
    "regimes-necessity": ("regimes", "necessity", []),
    "regimes-gamma1": ("regimes", "gamma1", []),
    "regimes-gamma-above-1": ("regimes", "gamma_above_1", []),
    "regimes-out": ("regimes", "possibility", ["--out", OUT]),
    "solve-csv": ("solve", "necessity", ["--format", "csv"]),
    "solve-json": ("solve", "necessity", ["--format", "json"]),
    "solve-out": ("solve", "necessity", ["--out", OUT]),
    "solve-fundamental": ("solve", "fundamental", []),
    "solve-fundamental-json": ("solve", "fundamental", ["--format", "json"]),
    "solve-gamma1": ("solve", "gamma1", ["--format", "json"]),
    "solve-gamma-above-1": ("solve", "gamma_above_1", ["--format", "json"]),
    "scenario-csv": ("scenario", "scenario", ["--format", "csv"]),
    "scenario-json": ("scenario", "scenario", ["--format", "json"]),
    "scenario-out": ("scenario", "scenario", ["--out", OUT]),
    "credit-csv": ("credit", "credit", ["--format", "csv"]),
    "credit-json": ("credit", "credit", ["--format", "json"]),
    "credit-out": ("credit", "credit", ["--out", OUT]),
    "sweep-csv": ("sweep", "sweep", ["--format", "csv"]),
    "sweep-json": ("sweep", "sweep", ["--format", "json"]),
    "sweep-out": ("sweep", "sweep", ["--out", OUT]),
}

# case -> (exit status, sha256 of stdout, of stderr, of the --out file or None)
GOLDEN = {
    "regimes-fundamental": (0,
        "c37852d85207b71e6045ce22469fe65a283d1ec938fbaa6d3c1821370ddacdb8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regimes-possibility": (0,
        "35e50c881fc436b33d6f5172ad299e7cddaf71b3c36847bfc53f035dc24f4e6c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regimes-necessity": (0,
        "1ade9b641d6f07d0e1a85359719d7e1cf0d658769ed451739048778a2215d105",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regimes-gamma1": (0,
        "4ef9b79e3f04f94ca70144b8437d29c74de90797ce1b448abeeb6e5ac1e1595f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regimes-gamma-above-1": (0,
        "eb34b0e77a5dbadb4fff55628bf2e1cc925ae59193469e54b5ae8ad950599fd3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "regimes-out": (0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5cc54b92bfd3258a5bc440df88bb949aa12c2197fb9c959bbcb02ae8c4777ade",
    ),
    "solve-csv": (0,
        "416546fdc767bcaa33edbfd43c8244df48ab7cf2bafcc01965cd72ad8a27fbad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "solve-json": (0,
        "249196fc5afbfb023a145a2bd06e41c01efeff0ff2acaff806f25244bf18de0c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "solve-out": (0,
        "da5f47ba69b5a69fdd9d88099cbba29dd378428759d7973e8b8c5073410b1bc9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "416546fdc767bcaa33edbfd43c8244df48ab7cf2bafcc01965cd72ad8a27fbad",
    ),
    "solve-fundamental": (0,
        "8eadd497aee323a47bc0ab127488f4cdc2bbcb6a46a011574d3887e1d2dcf05b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "solve-fundamental-json": (0,
        "3b513f85e3becb0337eab9a109d25d8f9d66780623ae1b5b0b7ddd40d655a70a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "solve-gamma1": (0,
        "a346fa5c575452345a941e1fde3673b37dc0f61d1416653c4d65b4727af277d7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "solve-gamma-above-1": (0,
        "1d2dadb3fd64278392c0c10c34ba31396acba85b41950d9a1129b6b97cae2f5f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "scenario-csv": (0,
        "7ea6c59b13ec98ab81812fe427d4fbe954a330191eb1b4575c29b298b9bf8e33",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "scenario-json": (0,
        "362aa25d18bbc830e1c8e6e9ce0cf7dcc6fc05b9d6517b0b11ce539fdf824772",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "scenario-out": (0,
        "491f11f1bee421278872854b5a15e4dc55ba0e64039d791f4536a18154d81f61",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7ea6c59b13ec98ab81812fe427d4fbe954a330191eb1b4575c29b298b9bf8e33",
    ),
    "credit-csv": (0,
        "b38e7a7b9638b6c9597a4c0e8be940be2358b39972fcc281a68eff2c34a98a73",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "credit-json": (0,
        "1f63f877854b30ad399fdab8b014b783c0427cf924eae61f8e276d4e9a660888",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "credit-out": (0,
        "0fde0d2dbcb7c241972414711e5ac4876b8eb33525466fbe226a70aa41ff086e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b38e7a7b9638b6c9597a4c0e8be940be2358b39972fcc281a68eff2c34a98a73",
    ),
    "sweep-csv": (0,
        "d6511ea44ee2a505a394729054c6d45a8b6f2004f183c4fb598a5635db393d94",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "sweep-json": (0,
        "f7abea1a5c2f5b3fd0c5b820c052bd9fa2620694ac3ae037c3829f9cdeeefe07",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "sweep-out": (0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d6511ea44ee2a505a394729054c6d45a8b6f2004f183c4fb598a5635db393d94",
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> tuple:
    command, config, extra = CASES[name]
    config_path = workdir / f"{name}.json"
    config_path.write_text(json.dumps(CONFIGS[config]))
    out_path = workdir / f"{name}.out"
    argv = [command, "--config", str(config_path)]
    argv += [str(out_path) if arg == OUT else arg for arg in extra]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = _digest(out_path.read_bytes()) if out_path.exists() else None
    return (code, _digest(stdout.getvalue().encode()),
            _digest(stderr.getvalue().encode()), out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_unchanged(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for case in CASES:
            code, *digests = run_case(case, Path(tmp))
            print(f'    "{case}": ({code},')
            for digest in digests:
                print(f'        "{digest}",' if digest else "        None,")
            print("    ),")
        print("}")
