"""Command-line front end: config round-trips, output contracts, exit codes."""
import csv
import io
import json
import math
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import olghousing
from olghousing import solver
from olghousing.cli import (_FIELDS, _PATH_JSON_ROW, PATH_HEADER, SWEEP_HEADER,
                            AnnouncementSpec, RunConfig, _axis, _path_json, main)
from olghousing.errors import ConfigError
from olghousing.regimes import thresholds
from test_cli_golden import CASES, CONFIGS, GOLDEN, OUT

BASE = {"beta": 0.5, "sigma": 1.0, "gamma": 0.5, "m": 0.1, "G": 1.1}

BUB = dict(BASE, e1=105.0, e2=95.0, T=200)
FUND = dict(BASE, e1=95.0, e2=105.0, T=200)

SCENARIO_4A = dict(BASE, e1=95.0, e2=105.0, T=120, announcements=[
    {"announce_date": 0, "effective_date": 0, "e1": 95.0, "e2": 105.0},
    {"announce_date": 40, "effective_date": 40, "e1": 105.0, "e2": 95.0},
    {"announce_date": 80, "effective_date": 80, "e1": 95.0, "e2": 105.0},
])

SWEEP = {"beta": 0.5, "sigma": 1.0, "m": 0.1, "G": 1.1,
         "gamma_inv_min": 1.25, "gamma_inv_max": 2.0,
         "w_inv_min": 0.92, "w_inv_max": 1.07, "resolution": 4}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- config

def test_config_round_trip_bit_for_bit():
    doc = dict(BUB, tail_window=25, delta=0.002, terminal="Bubbly")
    cfg = RunConfig.from_dict(doc)
    assert cfg.tail_window == 25
    assert cfg.delta == 0.002 and cfg.terminal == "Bubbly"
    assert RunConfig.from_dict(json.loads(json.dumps(doc))) == cfg


def test_config_round_trip_with_announcements_and_lambda():
    doc = dict(SCENARIO_4A)
    doc["terminals"] = [None, "Bubbly", None]
    cfg = RunConfig.from_dict(doc)
    assert cfg.announcements[1] == AnnouncementSpec(40, 40, 105.0, 95.0)
    assert RunConfig.from_dict(json.loads(json.dumps(doc))) == cfg
    credit_doc = dict(BASE, e1=100.0, e2=120.0, **{"lambda": 0.2})
    credit = RunConfig.from_dict(credit_doc)
    assert credit.loan_ratio == 0.2
    assert RunConfig.from_dict(json.loads(json.dumps(credit_doc))) == credit


def test_config_defaults():
    cfg = RunConfig.from_dict(dict(BASE, e1=95.0, e2=105.0))
    assert cfg.T == 200
    assert cfg.tail_window == 20
    assert cfg.delta == 1e-3
    # null stands for an absent key
    nulls = dict.fromkeys(["T", "tail_window", "delta", "terminal",
                           "announcements", "terminals", "lambda", "resolution"])
    assert RunConfig.from_dict(dict(BASE, e1=95.0, e2=105.0, **nulls)) == cfg


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for key in _FIELDS:
        assert f"\n| `{key}` |" in readme, key


@pytest.mark.parametrize("patch,field", [
    ({"beta": 1.5}, "beta"),
    ({"beta": "half"}, "beta"),
    ({"sigma": -1.0}, "sigma"),
    ({"gamma": 0.0}, "gamma"),
    ({"G": 0.9}, "G"),
    ({"T": 0}, "T"),
    ({"T": 2.5}, "T"),
    ({"tail_window": 1}, "tail_window"),
    ({"terminal": "Forever"}, "terminal"),
    ({"fundamental_seed": "midpoint"}, "fundamental_seed"),
    ({"lambda": -0.1}, "lambda"),
    ({"resolution": 1}, "resolution"),
    ({"typo_key": 1.0}, "typo_key"),
    ({"beta": True}, "beta"),
    ({"delta": 1.5}, "delta"),
    ({"beta": 10 ** 400}, "beta"),
])
def test_config_field_errors(patch, field):
    doc = dict(BASE, e1=95.0, e2=105.0)
    doc.update(patch)
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(doc)
    assert err.value.field == field


@pytest.mark.parametrize("announcements,field", [
    ([], "announcements"),
    ([{"announce_date": 5, "effective_date": 5, "e1": 1.0, "e2": 1.0}],
     "announcements[0]"),
    ([{"announce_date": 0, "effective_date": 0, "e1": 1.0, "e2": 1.0},
      {"announce_date": 10, "effective_date": 5, "e1": 1.0, "e2": 1.0}],
     "announcements[1].effective_date"),
    ([{"announce_date": 0, "effective_date": 0, "e1": 1.0, "e2": 1.0},
      {"announce_date": 10, "effective_date": 12, "e1": 1.0}],
     "announcements[1].e2"),
    ([{"announce_date": 0, "effective_date": 0, "e1": 1.0, "e2": 1.0},
      {"announce_date": 10, "effective_date": 12, "e1": 1.0, "e2": 1.0,
       "extra": 3}],
     "announcements[1].extra"),
])
def test_announcement_validation(announcements, field):
    doc = dict(BASE, e1=95.0, e2=105.0, announcements=announcements)
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(doc)
    assert err.value.field == field


_NUMBER = "expected a finite number, got"
_INTEGER = "expected an integer, got"

# numeric key -> (bad value, message) pairs: a wrong type, a bool, out-of-bound values
NUMERIC_KEY_ERRORS = {
    "beta": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
             (float("nan"), f"{_NUMBER} nan"),
             (1.0, "must be below 1.0, got 1.0"), (0, "must be above 0.0, got 0.0")],
    "sigma": [([1.0], f"{_NUMBER} [1.0]"), (True, f"{_NUMBER} True"),
              (-1.0, "must be above 0.0, got -1.0")],
    "gamma": [("half", f"{_NUMBER} 'half'"), (False, f"{_NUMBER} False"),
              (0.0, "must be above 0.0, got 0.0")],
    "m": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
          (-0.5, "must be above 0.0, got -0.5")],
    "G": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
          (1.0, "must be above 1.0, got 1.0")],
    "e1": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
           (0.0, "must be above 0.0, got 0.0")],
    "e2": [({}, f"{_NUMBER} {{}}"), (True, f"{_NUMBER} True"),
           (float("inf"), f"{_NUMBER} inf"), (-2.0, "must be above 0.0, got -2.0")],
    "T": [(2.5, f"{_INTEGER} 2.5"), ("10", f"{_INTEGER} '10'"), (True, f"{_INTEGER} True"),
          (0, "must be at least 1, got 0")],
    "tail_window": [(20.0, f"{_INTEGER} 20.0"), (True, f"{_INTEGER} True"),
                    (1, "must be at least 2, got 1")],
    "delta": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
              (0.0, "must be above 0.0, got 0.0"), (1.5, "must be below 1.0, got 1.5")],
    "lambda": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
               (-0.1, "must be at least 0.0, got -0.1")],
    "gamma_inv_min": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
                      (0.0, "must be above 0.0, got 0.0")],
    "gamma_inv_max": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
                      (-1.0, "must be above 0.0, got -1.0")],
    "w_inv_min": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
                  (0, "must be above 0.0, got 0.0")],
    "w_inv_max": [("half", f"{_NUMBER} 'half'"), (True, f"{_NUMBER} True"),
                  (0.0, "must be above 0.0, got 0.0")],
    "resolution": [(2.5, f"{_INTEGER} 2.5"), (True, f"{_INTEGER} True"),
                   (1, "must be at least 2, got 1"), (1001, "must be below 1001, got 1001"),
                   (10 ** 400, f"must be below 1001, got {10 ** 400}")],
}

_TERMINAL_NAMES = "('Fundamental', 'Bubbly', 'Gamma1', 'GammaAbove1')"
_ANNOUNCED = [{"announce_date": 0, "effective_date": 0, "e1": 95.0, "e2": 105.0},
              {"announce_date": 40, "effective_date": 40, "e1": 105.0, "e2": 95.0}]


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


ERROR_LINES = [
    *(pytest.param("solve", dict(BUB, **{key: value}), key, message, id=f"{key}-{i}")
      for key, cases in NUMERIC_KEY_ERRORS.items() for i, (value, message) in enumerate(cases)),
    pytest.param("scenario", dict(BUB, T=120, announcements=[
        _ANNOUNCED[0], dict(_ANNOUNCED[1], e1=None)]),
        "announcements[1].e1", f"{_NUMBER} None", id="null-announcement-e1"),
    pytest.param("scenario", dict(BUB, T=120, announcements=[
        _ANNOUNCED[0], dict(_ANNOUNCED[1], announce_date=None)]),
        "announcements[1].announce_date", f"{_INTEGER} None", id="null-announce-date"),
    pytest.param("solve", dict(BUB, typo_key=1.0), "typo_key", "unknown configuration key",
                 id="unknown-key"),
    pytest.param("solve", [BUB], "config", "expected a JSON object, got list", id="not-an-object"),
    pytest.param("regimes", _without(BUB, "beta"), "beta", "missing required key",
                 id="regimes-missing-beta"),
    pytest.param("solve", _without(BUB, "e1"), "e1", "missing required key",
                 id="solve-missing-e1"),
    pytest.param("scenario", BUB, "announcements", "missing required key",
                 id="scenario-missing-announcements"),
    pytest.param("credit", BUB, "lambda", "missing required key", id="credit-missing-lambda"),
    pytest.param("sweep", _without(SWEEP, "resolution"), "resolution", "missing required key",
                 id="sweep-missing-resolution"),
    pytest.param("solve", dict(BUB, terminal="Forever", beta=2.0), "terminal",
                 f"must be one of {_TERMINAL_NAMES}, got 'Forever'", id="terminal-before-beta"),
    pytest.param("scenario", dict(BUB, terminal=["Bubbly"], announcements=[]), "terminal",
                 f"must be one of {_TERMINAL_NAMES}, got ['Bubbly']",
                 id="terminal-before-announcements"),
    pytest.param("scenario", dict(BUB, announcements=[], terminals=5), "announcements",
                 "expected a non-empty list", id="announcements-before-terminals"),
    pytest.param("scenario", dict(BUB, terminals="Bubbly", beta=2.0), "terminals",
                 "expected a list", id="terminals-before-beta"),
    pytest.param("scenario", dict(BUB, terminals=["Bubbly", "Forever"]), "terminals[1]",
                 f"must be one of {_TERMINAL_NAMES} or null, got 'Forever'", id="terminals-entry"),
]


@pytest.mark.parametrize("command,doc,field,message", ERROR_LINES)
def test_rejected_config_prints_its_exact_error_line(tmp_path, capsys, command, doc, field,
                                                     message):
    code, out, err = run_main(capsys, [command, "--config", write_config(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert err == ('{"error": "ConfigError", "field": "%s", "message": "%s: %s"}\n'
                   % (field, field, message))


@pytest.mark.parametrize("argv,message", [
    (["solve"], "the following arguments are required: --config"),
    (["bogus", "--config", "x"], "invalid choice: 'bogus'"),
    (["solve", "--config", "x", "--format", "xml"], "invalid choice: 'xml'"),
    # regimes prints JSON only and takes no --format
    (["regimes", "--config", "x", "--format", "csv"], "unrecognized arguments: --format csv"),
], ids=["missing-config", "unknown-command", "bad-format", "regimes-format"])
def test_bad_arguments_print_one_json_line(capsys, argv, message):
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["field"]) == ("ConfigError", "arguments")
    assert message in payload["message"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: olghousing")


# ---------------------------------------------------------------- regimes

def test_regimes_json_document(tmp_path, capsys):
    code, out, err = run_main(capsys, ["regimes", "--config",
                                       write_config(tmp_path, BUB)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["regime"] == "BubbleNecessity"
    assert doc["w_b_star"] == 1.0
    assert doc["w_f_star"] == pytest.approx(0.9534625892455922, rel=1e-12)
    assert doc["steady_states"]["bubbly"]["s_star"] == pytest.approx(1 / 21, rel=1e-12)
    assert doc["steady_states"]["bubbly"]["determinacy"] == "Saddle"
    assert doc["welfare"]["bubbly"] == "Efficient"
    assert doc["welfare"]["fundamental"] is None


def test_regimes_fundamental_side(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["regimes", "--config",
                                     write_config(tmp_path, FUND)])
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "Fundamental"
    assert "fundamental" in doc["steady_states"]
    assert "bubbly" not in doc["steady_states"]
    assert doc["welfare"]["fundamental"] == "Efficient"
    # every long run counts as efficient above w_b_star, the absent bubbly one too
    assert doc["welfare"]["bubbly"] == "Efficient"


# ---------------------------------------------------------------- solve

def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_solve_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "path.csv"
    code, out, err = run_main(capsys, ["solve", "--config",
                                       write_config(tmp_path, BUB),
                                       "--out", str(out_file)])
    assert code == 0 and err == ""
    text = out_file.read_text()
    assert text.endswith("\n")
    header, rows = parse_csv(text)
    assert header == PATH_HEADER
    assert len(rows) == BUB["T"] + 1
    assert [int(r[0]) for r in rows] == list(range(BUB["T"] + 1))
    assert all(r[-1] == "0" for r in rows)
    summary = json.loads(out)
    assert summary["bubble"]["is_bubble"] is True
    assert summary["bubble"]["ratio_estimate"] == pytest.approx(
        1.1 ** -0.5, abs=1e-3)
    assert summary["efficiency"]["is_efficient"] == "Efficient"
    assert summary["terminal"] == "Bubbly"


def test_solve_csv_tail_matches_balanced_growth(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["solve", "--config",
                                     write_config(tmp_path, BUB)])
    assert code == 0
    header, rows = parse_csv(out)
    P = [float(r[header.index("P")]) for r in rows]
    r_ = [float(r[header.index("r")]) for r in rows]
    assert P[-1] / P[-2] == pytest.approx(1.1, abs=1e-3)
    assert r_[-1] / r_[-2] == pytest.approx(1.1 ** 0.5, abs=1e-3)
    # 12 significant digits survive the text round trip at this magnitude
    assert f"{P[-1]:.12g}" == rows[-1][header.index("P")]


def test_solve_json_format_includes_rows(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["solve", "--config",
                                     write_config(tmp_path, FUND),
                                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == FUND["T"] + 1
    assert doc["rows"][0]["q"] == 1.0
    assert doc["bubble"]["is_bubble"] is False


def test_json_path_rows_are_the_bytes_of_json_dumps():
    # extremes of float repr: the least subnormal, large exponents, a float
    # past 2**53, negative zero and 17-digit mantissas
    cells = [5e-324, 1e300, 1e16, float(2 ** 60), -0.0, 0.30000000000000004,
             1.2345678901234567e-7, 2.220446049250313e-16, 123456789.01234567, 1.0 / 3.0,
             -1.7976931348623157e308, 4.9406564584124654e-322]
    rows = [(t, *(cells[(t + i) % len(cells)] for i in range(len(PATH_HEADER) - 2)), t % 3)
            for t in range(len(cells))]
    records = [dict(zip(PATH_HEADER, row)) for row in rows]
    for row, record in zip(rows, records):
        indented = json.dumps([record], indent=2).splitlines()[1:-1]
        assert _PATH_JSON_ROW % row == "\n".join("  " + line for line in indented)
    summary = {"command": "solve", "T": len(rows) - 1, "tail": {"price_growth": 1.1},
               "revision_dates": [], "note": None}
    assert _path_json(summary, rows) == json.dumps({**summary, "rows": records}, indent=2)


def test_solve_json_is_json_dumps_of_its_document(tmp_path, capsys):
    for command, doc in (("solve", FUND), ("scenario", SCENARIO_4A)):
        code, out, _ = run_main(capsys, [command, "--config", write_config(tmp_path, doc),
                                         "--format", "json"])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_solve_possibility_requires_explicit_terminal(tmp_path, capsys):
    doc = dict(BASE, e1=100.0, e2=98.0, T=100)
    code, out, err = run_main(capsys, ["solve", "--config",
                                       write_config(tmp_path, doc)])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "terminal"
    doc["terminal"] = "Bubbly"
    code, out, err = run_main(capsys, ["solve", "--config",
                                       write_config(tmp_path, doc)])
    assert code == 0 and err == ""


# ---------------------------------------------------------------- scenario

def test_scenario_jumps_and_belief_blocks(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["scenario", "--config",
                                     write_config(tmp_path, SCENARIO_4A)])
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 121
    P = [float(r[header.index("P")]) for r in rows]
    belief = [int(r[header.index("belief_index")]) for r in rows]
    assert belief[:40] == [0] * 40
    assert belief[40:80] == [1] * 40
    assert belief[80:] == [2] * 41
    assert P[40] / P[39] > 2.0
    assert P[80] / P[79] < 0.2
    for t in range(1, 121):
        if t in (40, 80):
            continue
        assert abs(math.log(P[t] / P[t - 1])) < math.log(1.1) + 0.05


def test_scenario_summary_reports_revisions(tmp_path, capsys):
    out_file = tmp_path / "sc.csv"
    code, out, _ = run_main(capsys, ["scenario", "--config",
                                     write_config(tmp_path, SCENARIO_4A),
                                     "--out", str(out_file)])
    assert code == 0
    summary = json.loads(out)
    assert summary["revision_dates"] == [40, 80]
    assert [b["terminal"] for b in summary["beliefs"]] == [
        "Fundamental", "Bubbly", "Fundamental"]


def test_scenario_with_single_announcement_matches_solve(tmp_path, capsys):
    doc = dict(FUND, T=80, announcements=[
        {"announce_date": 0, "effective_date": 0, "e1": 95.0, "e2": 105.0}])
    code, scenario_out, _ = run_main(capsys, ["scenario", "--config",
                                              write_config(tmp_path, doc)])
    assert code == 0
    solo = dict(FUND, T=80)
    code, solve_out, _ = run_main(capsys, ["solve", "--config",
                                           write_config(tmp_path, solo,
                                                        "solo.json")])
    assert code == 0
    assert scenario_out == solve_out


def test_scenario_announcement_before_effect(tmp_path, capsys):
    doc = dict(BASE, e1=95.0, e2=105.0, T=110, announcements=[
        {"announce_date": 0, "effective_date": 0, "e1": 95.0, "e2": 105.0},
        {"announce_date": 30, "effective_date": 40, "e1": 105.0, "e2": 95.0},
    ])
    code, out, _ = run_main(capsys, ["scenario", "--config",
                                     write_config(tmp_path, doc)])
    assert code == 0
    header, rows = parse_csv(out)
    P = [float(r[header.index("P")]) for r in rows]
    e_y = [float(r[header.index("e_y")]) for r in rows]
    # price moves on the news, endowments only at the effective date
    assert P[30] / P[29] > 1.25
    assert e_y[39] == pytest.approx(95.0 * 1.1 ** 39, rel=1e-12)
    assert e_y[40] == pytest.approx(105.0 * 1.1 ** 40, rel=1e-12)


# ---------------------------------------------------------------- credit

def test_credit_command_asymptotics(tmp_path, capsys):
    doc = dict(BASE, e1=100.0, e2=120.0, T=200, **{"lambda": 0.2})
    out_file = tmp_path / "credit.csv"
    code, out, _ = run_main(capsys, ["credit", "--config",
                                     write_config(tmp_path, doc),
                                     "--out", str(out_file)])
    assert code == 0
    summary = json.loads(out)
    assert summary["credit"]["w_effective"] == pytest.approx(1.0 / 1.2, rel=1e-12)
    assert summary["credit"]["price_coefficient"] == pytest.approx(10.0, rel=1e-9)
    assert summary["credit"]["condition_holds"] is True
    header, rows = parse_csv(out_file.read_text())
    P200 = float(rows[200][header.index("P")])
    cy200 = float(rows[200][header.index("c_y")])
    assert P200 == pytest.approx(10.0 * 1.1 ** 200, rel=1e-3)
    assert cy200 == pytest.approx(110.0 * 1.1 ** 200, rel=1e-4)


def test_credit_requires_lambda(tmp_path, capsys):
    doc = dict(BASE, e1=100.0, e2=120.0)
    code, out, err = run_main(capsys, ["credit", "--config",
                                       write_config(tmp_path, doc)])
    assert code == 2
    assert json.loads(err)["field"] == "lambda"


# ---------------------------------------------------------------- sweep

def test_sweep_grid_and_example_cell(tmp_path, capsys):
    code, out, _ = run_main(capsys, ["sweep", "--config",
                                     write_config(tmp_path, SWEEP)])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == SWEEP_HEADER
    assert len(rows) == SWEEP["resolution"] ** 2
    cell = {(r[0], r[1]): r for r in rows}
    # gamma_inv = 2, w_inv = 1.07: income ratio 0.9346 sits below the
    # fundamental threshold 0.9535, so only the bubbly long run exists.
    example = cell[("2", "1.07")]
    assert example[header.index("regime")] == "BubbleNecessity"
    assert float(example[header.index("w_b_star")]) == 1.0
    s_star = (1.0 - 1.0 / 1.07) / 2.0
    assert float(example[header.index("s_star")]) == pytest.approx(s_star, rel=1e-9)


def test_sweep_example_from_narrow_grid(tmp_path, capsys):
    # Pin the (1/gamma, 1/w) = (2, 1.05) cell: 1/1.05 = 0.95238 lies below
    # w_f_star = 0.95346, so the classifier reports BubbleNecessity.
    doc = dict(SWEEP, gamma_inv_min=2.0, gamma_inv_max=2.5,
               w_inv_min=1.05, w_inv_max=1.10, resolution=2)
    code, out, _ = run_main(capsys, ["sweep", "--config",
                                     write_config(tmp_path, doc)])
    assert code == 0
    header, rows = parse_csv(out)
    assert rows[0][:3] == ["2", "1.05", "BubbleNecessity"]


def test_sweep_monotone_regimes_along_w(tmp_path, capsys):
    doc = dict(SWEEP, gamma_inv_min=2.0, gamma_inv_max=3.0,
               w_inv_min=0.93, w_inv_max=1.12, resolution=20)
    code, out, _ = run_main(capsys, ["sweep", "--config",
                                     write_config(tmp_path, doc)])
    assert code == 0
    header, rows = parse_csv(out)
    order = {"Fundamental": 0, "BubblePossibility": 1, "BubbleNecessity": 2}
    by_gamma = {}
    for r in rows:
        by_gamma.setdefault(r[0], []).append(r)
    for gamma_inv, cells in by_gamma.items():
        codes = [order[c[header.index("regime")]] for c in cells]
        assert codes == sorted(codes), f"non-monotone column at 1/gamma={gamma_inv}"
        assert codes[0] == 0 and codes[-1] == 2
        assert 1 in codes


def test_sweep_gamma_at_or_above_one_tagged_without_thresholds(tmp_path, capsys):
    doc = dict(SWEEP, gamma_inv_min=0.5, gamma_inv_max=1.0,
               w_inv_min=0.95, w_inv_max=1.05, resolution=2)
    code, out, _ = run_main(capsys, ["sweep", "--config",
                                     write_config(tmp_path, doc)])
    assert code == 0
    header, rows = parse_csv(out)
    for r in rows:
        gamma_inv = float(r[0])
        tag = r[header.index("regime")]
        assert r[header.index("w_f_star")] == ""
        assert r[header.index("w_b_star")] == ""
        assert r[header.index("efficient_fundamental")] == "true"
        if gamma_inv < 1.0:
            assert tag == "PathologicalGammaAbove1"
            assert r[header.index("s_star")] == ""
        else:
            assert tag == "CobbDouglasFundamental"
            assert r[header.index("s_star")] != ""


def test_sweep_json_format(tmp_path, capsys):
    doc = dict(SWEEP, resolution=2)
    code, out, _ = run_main(capsys, ["sweep", "--config",
                                     write_config(tmp_path, doc),
                                     "--format", "json"])
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 4
    assert set(docs[0]) == set(SWEEP_HEADER)


def test_sweep_missing_grid_key(tmp_path, capsys):
    doc = {k: v for k, v in SWEEP.items() if k != "resolution"}
    code, out, err = run_main(capsys, ["sweep", "--config",
                                       write_config(tmp_path, doc)])
    assert code == 2
    assert json.loads(err)["field"] == "resolution"


def test_sweep_axis_is_numpy_linspace_bit_for_bit():
    rng = np.random.default_rng(16)
    cases = [(1.25, 2.0, 2), (0.5, 2.5, 1000), (0.92, 1.08, 5), (-3.0, 2.0, 7), (2.0, -3.0, 1000)]
    for _ in range(1000):
        start, stop = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
        cases.append((float(start), float(stop), int(rng.choice([2, 1000, rng.integers(2, 1001)]))))
    for start, stop, n in cases:
        expected = np.linspace(start, stop, n).tolist()
        assert [x.hex() for x in _axis(start, stop, n)] == [x.hex() for x in expected]


# ---------------------------------------------------------------- plumbing

def test_missing_config_file(tmp_path, capsys):
    code, out, err = run_main(capsys, ["solve", "--config",
                                       str(tmp_path / "nope.json")])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "config"


def test_removed_tol_key_is_an_unknown_key(tmp_path, capsys):
    # each date's share root is solved to a fixed tolerance; there is no key to set it
    code, out, err = run_main(capsys, ["solve", "--config",
                                       write_config(tmp_path, dict(BUB, tol=1e-6))])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConfigError" and payload["field"] == "tol"


def test_removed_seed_pad_key_is_an_unknown_key():
    # the terminal pad is always sized from the seed's eigenvalue; there is no key to set it
    with pytest.raises(ConfigError) as info:
        RunConfig.from_dict(dict(BUB, seed_pad=60))
    assert (info.value.field, info.value.message) == ("seed_pad", "unknown configuration key")


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_main(capsys, ["solve", "--config", str(path)])
    assert code == 2
    assert json.loads(err)["field"] == "config"


def test_integer_too_long_to_convert_is_invalid_json(tmp_path, capsys):
    # json.dumps cannot render an integer of more than 4300 digits, and
    # json.load refuses to parse one
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_without(BUB, "T"))[:-1] + ', "T": 1' + "0" * 4999 + "}")
    code, out, err = run_main(capsys, ["regimes", "--config", str(path)])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError" and payload["field"] == "config"
    assert payload["message"].startswith(f"config: invalid JSON in {path}: ")


def test_csv_round_trip_is_bit_for_bit(tmp_path, capsys):
    config = write_config(tmp_path, dict(BUB, T=120))
    code, first, _ = run_main(capsys, ["solve", "--config", config])
    code2, second, _ = run_main(capsys, ["solve", "--config", config])
    assert code == code2 == 0
    assert first == second


def test_log_level_goes_to_stderr(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OLG_LOG", "debug")
    code, out, err = run_main(capsys, ["solve", "--config",
                                       write_config(tmp_path, dict(BUB, T=60))])
    assert code == 0
    assert "DEBUG" in err or "INFO" in err
    header, rows = parse_csv(out)
    assert header == PATH_HEADER


def test_repeated_logged_runs_keep_one_handler(tmp_path, monkeypatch):
    monkeypatch.setenv("OLG_LOG", "debug")
    argv = ["solve", "--config", write_config(tmp_path, dict(BUB, T=60))]
    streams = []
    for _ in range(2):
        streams.append(io.StringIO())
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys, "stderr", streams[-1])
        assert main(argv) == 0
    first, second = (stream.getvalue().splitlines() for stream in streams)
    assert first and second == first
    assert len(set(second)) == len(second)


def test_entry_point_subprocess(tmp_path):
    config = write_config(tmp_path, dict(BUB, T=50))
    result = subprocess.run(
        [sys.executable, "-m", "olghousing", "regimes", "--config", config],
        capture_output=True, text=True, env=package_env())
    assert result.returncode == 0
    assert result.stderr == ""
    assert json.loads(result.stdout)["regime"] == "BubbleNecessity"


def package_env():
    """The environment with this package's source tree first on ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(olghousing.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def run_python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, env=package_env())


def run_cli(*argv):
    return run_python("import sys; from olghousing.cli import main; sys.exit(main(sys.argv[1:]))",
                      *argv)


def test_cli_import_loads_no_scipy():
    result = run_python("import sys, olghousing.cli; "
                        "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout == b"[]\n"


@pytest.mark.parametrize("case", ["regimes-necessity", "solve-out", "scenario-json",
                                  "credit-csv", "sweep-out"])
def test_cli_runs_with_scipy_blocked(tmp_path, case):
    # neither scipy nor numpy is a runtime dependency: every subcommand keeps
    # its golden bytes when importing either one fails
    command, config, extra = CASES[case]
    out_path = tmp_path / "out.csv"
    argv = [command, "--config", write_config(tmp_path, CONFIGS[config])]
    argv += [str(out_path) if arg == OUT else arg for arg in extra]
    result = run_python('import sys; sys.modules["scipy"] = sys.modules["numpy"] = None; '
                        "from olghousing.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert result.returncode == 0 and result.stderr == b""
    out = hashlib.sha256(out_path.read_bytes()).hexdigest() if out_path.exists() else None
    digests = (hashlib.sha256(result.stdout).hexdigest(), hashlib.sha256(result.stderr).hexdigest())
    assert (result.returncode, *digests, out) == GOLDEN[case]


@pytest.mark.parametrize("command,doc", [("solve", dict(BUB, T=60)), ("sweep", SWEEP)],
                         ids=["solve", "sweep"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command, doc):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_main(capsys, [command, "--config", write_config(tmp_path, doc),
                                       "--out", str(target)])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "out"


def forbid_solving(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a path was solved before the config was rejected")

    monkeypatch.setattr("olghousing.cli.solve_path", refuse)
    monkeypatch.setattr("olghousing.cli.solve_scenario", refuse)


def test_tail_window_beyond_half_the_path_rejected_before_solving(tmp_path, capsys,
                                                                   monkeypatch):
    forbid_solving(monkeypatch)
    doc = dict(BUB, T=30, tail_window=20)
    code, _, err = run_main(capsys, ["solve", "--config", write_config(tmp_path, doc)])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "tail_window"


def test_tail_window_beyond_final_segment_rejected_before_solving(tmp_path, capsys,
                                                                  monkeypatch):
    forbid_solving(monkeypatch)
    doc = dict(SCENARIO_4A, tail_window=45)
    code, _, err = run_main(capsys, ["scenario", "--config", write_config(tmp_path, doc)])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "tail_window"


def test_horizon_error_message_prints_plain_floats(tmp_path, capsys, monkeypatch):
    # a zero fundamental seed one date past T prices date T at exactly 0
    seed = solver._terminal_seed
    monkeypatch.setattr(solver, "_terminal_seed", lambda *args: (*seed(*args)[:2], 1))
    doc = dict(BASE, e1=94.0, e2=106.0, T=50)
    code, out, err = run_main(capsys, ["solve", "--config", write_config(tmp_path, doc)])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "HorizonError"
    assert "P=0.0;" in payload["message"]
    assert "np.float64" not in err


@pytest.mark.parametrize("doc,date", [
    (dict(BASE, gamma=1.0, G=2.96, e1=100.0, e2=100.0, T=3000), 650),
    (dict(FUND, T=8000), 7399),
], ids=["gamma1-fast-growth", "fundamental-long"])
def test_endowment_overflow_exits_with_one_json_error(tmp_path, capsys, doc, date):
    code, out, err = run_main(capsys, ["solve", "--config", write_config(tmp_path, doc)])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    payload = json.loads(lines[0])
    assert payload["error"] == "HorizonError"
    assert f"at date {date} " in payload["message"]


@pytest.mark.parametrize("doc,message", [
    # a subnormal m leaves the date-T rent below the least normal float
    (dict(BUB, m=1e-310, T=50, terminal="Bubbly"),
     "rent underflows below the normal float range at date 50: r="),
    # levels this small keep e * G**t finite until G**t itself overflows
    (dict(BASE, e1=1e-10, e2=1.2e-10, T=7500, terminal="Fundamental"),
     "endowment level is not finite at date 7448 (G=1.1); shorten the horizon"),
], ids=["rent-underflow", "growth-power-overflow"])
def test_float_edges_exit_with_one_json_error(tmp_path, capsys, doc, message):
    code, out, err = run_main(capsys, ["solve", "--config", write_config(tmp_path, doc)])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["field"]) == ("HorizonError", None)
    assert payload["message"].startswith(message)


@pytest.mark.parametrize("command", ["regimes", "solve"])
def test_gamma1_share_below_its_floor_exits_with_one_json_error(tmp_path, capsys, command):
    doc = dict(BASE, gamma=1.0, m=1e-30, e1=100.0, e2=100.0, T=60)
    code, out, err = run_main(capsys, [command, "--config", write_config(tmp_path, doc)])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    payload = json.loads(lines[0])
    assert payload["error"] == "SolverError"
    assert "at or below 1e-12" in payload["message"]


def test_residual_past_its_bound_exits_with_a_solver_error_naming_the_date(
        tmp_path, capsys, monkeypatch):
    # no known input leaves a residual past the bound, so it is lowered below
    # two of the necessity path's residuals (3.5e-16 at date 30, 3.4e-16 at
    # date 33); the backward pass meets date 33 first
    monkeypatch.setattr(solver, "_RESIDUAL_BOUND", 3e-16)
    code, out, err = run_main(capsys, ["solve", "--config",
                                       write_config(tmp_path, CONFIGS["necessity"])])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    payload = json.loads(lines[0])
    assert payload["error"] == "SolverError"
    assert payload["message"].endswith("exceeds 3e-16 at date 33")


# c_z underflows to 0 at the gamma = 1 steady state
GAMMA1_UNDERFLOW = {"beta": 0.5, "sigma": 50.0, "gamma": 1.0, "m": 1e8, "G": 1.1,
                    "e1": 100.0, "e2": 100.0}
# e_y**(gamma - 1) overflows while the endowment level itself is finite
RENT_OVERFLOW = dict(BASE, gamma=2.5, G=3.0, e1=1.0, e2=1.0, T=300)
# P is a vanishing sliver of expenditure: S_{t+1}/P_t overflows at every date
RENT_PRICE_OVERFLOW = {"beta": 0.33417033411333885, "sigma": 59.43498548196604,
                       "gamma": 1.0, "m": 0.06426911772663384, "G": 1.4291711994071246,
                       "e1": 0.0011615146421400443, "e2": 168.89945081867958, "T": 194}

# a small sigma drives the closed-form thresholds out of the float range
SIGMA_OVERFLOW = dict(BASE, sigma=1e-4, e1=105.0, e2=95.0)
SIGMA_UNDERFLOW = dict(BASE, beta=0.05, sigma=1e-4, G=1.01, e1=105.0, e2=95.0)
# w_b_star = 2.2e41: the bubbly steady-state share rounds to 1
BUBBLY_SHARE_ROUNDS = dict(BASE, sigma=1e-3, e1=105.0, e2=95.0)


@pytest.mark.parametrize("command,doc,error,detail", [
    ("regimes", GAMMA1_UNDERFLOW, "SolverError", "marginal c_z = 0.0 underflows"),
    ("solve", GAMMA1_UNDERFLOW, "SolverError", "marginal c_z = 0.0 underflows"),
    ("solve", RENT_OVERFLOW, "HorizonError", "(date 449)"),
    ("solve", RENT_PRICE_OVERFLOW, "HorizonError",
     "price underflows against expenditure at date 194"),
    ("regimes", SIGMA_OVERFLOW, "DomainError", "w_b_star=inf at sigma=0.0001"),
    ("regimes", SIGMA_UNDERFLOW, "DomainError", "w_f_star=0.0 and w_b_star=0.0 at sigma=0.0001"),
    ("solve", BUBBLY_SHARE_ROUNDS, "DomainError", "bubbly steady-state share rounds to 1"),
], ids=["gamma1-underflow-regimes", "gamma1-underflow-solve", "rent-scale-overflow",
        "rent-price-overflow", "sigma-threshold-overflow", "sigma-threshold-underflow",
        "bubbly-share-rounds-to-one"])
def test_extreme_config_prints_one_json_line_in_a_subprocess(tmp_path, command, doc,
                                                             error, detail):
    # a subprocess, because pytest's warning capture would hide a numpy warning on stderr
    result = run_cli(command, "--config", write_config(tmp_path, doc))
    assert result.returncode == 2 and result.stdout == b""
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == error
    assert detail in payload["message"]


# income ratio 3 ulps above w_f_star: the fundamental level's denominator rounds to 0
ULP_ABOVE_W_F = {"beta": 0.5396749501384476, "sigma": 0.24913420619121826,
                 "gamma": 0.7281617978073259, "m": 0.1, "G": 1.2736902234774463,
                 "e1": 1.0, "e2": 3.0147005277667107, "T": 50}


def test_fundamental_level_rounding_to_a_pole_keeps_the_error_contract(tmp_path, capsys):
    config = write_config(tmp_path, ULP_ABOVE_W_F)
    code, out, err = run_main(capsys, ["regimes", "--config", config])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["boundary"] == "w_f_star" and list(doc["steady_states"]) == ["bubbly"]
    config = write_config(tmp_path, dict(ULP_ABOVE_W_F, terminal="Fundamental"))
    code, out, err = run_main(capsys, ["solve", "--config", config])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "RegimeError"


def test_fundamental_path_one_ulp_above_w_f_star_solves(tmp_path, capsys):
    # |lambda1| rounds to within 1e-12 of 1 here, so the zero seed needs the longest pad
    params = RunConfig.from_dict(dict(BASE, e1=1.0, e2=1.0)).economy()
    e2 = math.nextafter(thresholds(params).w_f_star, math.inf)
    doc = dict(BASE, e1=1.0, e2=e2, T=100, terminal="Fundamental")
    code, out, err = run_main(capsys, ["solve", "--config", write_config(tmp_path, doc)])
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 102


def test_an_unlisted_fundamental_long_run_has_no_welfare_verdict(tmp_path, capsys):
    # classify lists no fundamental long run here, so neither regimes nor
    # the sweep cell of the same economy may call one (in)efficient
    code, out, err = run_main(capsys, ["regimes", "--config",
                                       write_config(tmp_path, ULP_ABOVE_W_F)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert "fundamental" not in doc["steady_states"]
    assert doc["welfare"] == {"fundamental": None, "bubbly": "Efficient"}
    gamma_inv, w_inv = 1.0 / ULP_ABOVE_W_F["gamma"], 1.0 / ULP_ABOVE_W_F["e2"]
    sweep = {key: ULP_ABOVE_W_F[key] for key in ("beta", "sigma", "m", "G")}
    sweep.update(gamma_inv_min=gamma_inv, gamma_inv_max=2.0 * gamma_inv,
                 w_inv_min=w_inv, w_inv_max=2.0 * w_inv, resolution=2)
    code, out, err = run_main(capsys, ["sweep", "--config", write_config(tmp_path, sweep)])
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    cell = dict(zip(header, rows[0]))
    assert (float(cell["gamma_inv"]), float(cell["w_inv"])) == pytest.approx((gamma_inv, w_inv))
    assert cell["regime"] == "BubblePossibility" and cell["efficient_fundamental"] == ""


# thresholds 107 ulps apart: this income ratio, 1 ulp above w_b_star, is too
# close to w_f_star for the fundamental level to be representable, so neither
# long run is listed; BOUNDARY_TOL is below an ulp here, so no boundary either
NO_LONG_RUN = {"beta": 0.6240109940862909, "sigma": 0.005785829347646089,
               "gamma": 0.9999999999999989, "m": 0.1, "G": 1.1796342784964948,
               "e1": 1.0, "e2": 2.268183890122074e+50, "T": 50}


def test_an_economy_with_no_representable_long_run_keeps_the_error_contract(tmp_path,
                                                                             capsys):
    config = write_config(tmp_path, NO_LONG_RUN)
    code, out, err = run_main(capsys, ["regimes", "--config", config])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["boundary"] is None and doc["steady_states"] == {}
    code, out, err = run_main(capsys, ["solve", "--config", config])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ConfigError", "field": "terminal",
        "message": "terminal: no long run of this economy is representable in floating point"}


def test_diverging_rent_price_sum_prints_no_warning_in_a_subprocess(tmp_path):
    # this credit economy's rent-price sum diverges: its price is subnormal on
    # 14 dates, where r/P reaches 1.1e307, a factor 16 short of the float
    # range; a fresh process must still print its output and write nothing,
    # no numpy warning either, to stderr
    doc = {"beta": 0.9178042059047289, "sigma": 55.39695815339415,
           "gamma": 0.4146689573331519, "m": 0.0014419194981275271, "G": 2.497049289903144,
           "e1": 0.00288347895295137, "e2": 425.389622120354, "T": 167,
           "lambda": 0.04665947280255822}
    result = run_cli("credit", "--config", write_config(tmp_path, doc))
    assert result.returncode == 0 and result.stdout and result.stderr == b""


# ---------------------------------------------------------------- error contract fuzz

_FINITE = dict(allow_nan=False, allow_infinity=False)
_LEVELS = st.floats(-3.0, 3.0, **_FINITE).map(lambda e: 10.0 ** e)
_TERMINAL_KINDS = ["Fundamental", "Bubbly", "Gamma1", "GammaAbove1"]
_ECONOMY_KEYS = ["beta", "sigma", "gamma", "m", "G", "e1", "e2"]

# the keys each command cannot run without
_REQUIRED = {
    "regimes": _ECONOMY_KEYS,
    "solve": _ECONOMY_KEYS,
    "credit": _ECONOMY_KEYS + ["lambda"],
    "scenario": _ECONOMY_KEYS + ["announcements"],
    "sweep": ["beta", "sigma", "m", "G", "gamma_inv_min", "gamma_inv_max",
              "w_inv_min", "w_inv_max", "resolution"],
}


def _economy_configs():
    return st.fixed_dictionaries(
        {
            "beta": st.floats(0.05, 0.95, **_FINITE),
            # log-uniform from 1e-6, where the thresholds leave the float range, to 60
            "sigma": st.one_of(st.just(1.0), st.floats(-6.0, math.log10(60.0), **_FINITE)
                               .map(lambda e: 10.0 ** e)),
            "gamma": st.one_of(st.just(1.0), st.floats(0.1, 2.5, **_FINITE)),
            "m": st.floats(-12.0, 10.0, **_FINITE).map(lambda e: 10.0 ** e),
            "G": st.floats(1.01, 3.2, **_FINITE),
            "e1": _LEVELS,
            "e2": _LEVELS,
            "T": st.integers(1, 300),
        },
        optional={
            "terminal": st.sampled_from(_TERMINAL_KINDS),
            "lambda": st.floats(0.0, 0.6, **_FINITE),
            "tail_window": st.integers(2, 40),
            "delta": st.floats(1e-6, 0.5, **_FINITE),
        },
    )


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(["solve", "regimes", "credit", "scenario", "sweep"]))
    doc = draw(_economy_configs())
    if command == "credit":
        # the credit economy is defined for gamma < 1 and infers its terminal
        doc.pop("terminal", None)
        doc["gamma"] = draw(st.floats(0.1, 0.95, allow_nan=False))
        doc["lambda"] = draw(st.floats(0.0, 0.6, allow_nan=False))
    elif command == "scenario":
        doc["T"] = draw(st.integers(1, 120))
        announcements = [{"announce_date": 0, "effective_date": 0,
                          "e1": doc["e1"], "e2": doc["e2"]}]
        # revisions in the first half leave room for the tail window after the last one
        revisions = st.lists(st.integers(1, max(doc["T"] // 2, 1)), max_size=2, unique=True)
        for date in sorted(draw(revisions)):
            # news may come up to 10 dates early, after the previous announcement
            early = draw(st.integers(0, 10))
            announcements.append({
                "announce_date": max(announcements[-1]["announce_date"] + 1, date - early),
                "effective_date": date, "e1": draw(_LEVELS), "e2": draw(_LEVELS)})
        doc["announcements"] = announcements
        if draw(st.booleans()):
            doc["terminals"] = [draw(st.none() | st.sampled_from(_TERMINAL_KINDS))
                                for _ in doc["announcements"]]
    elif command == "sweep":
        doc = {key: doc[key] for key in ("beta", "sigma", "m", "G")}
        for axis in ("gamma_inv", "w_inv"):
            low = draw(st.floats(0.3, 3.0, **_FINITE))
            doc[f"{axis}_min"] = low
            doc[f"{axis}_max"] = low + draw(st.floats(0.0, 2.0, **_FINITE))
        doc["resolution"] = draw(st.integers(2, 4))
    if draw(st.integers(0, 3)) == 3:
        del doc[draw(st.sampled_from(_REQUIRED[command]))]
    return command, doc


# a numpy RuntimeWarning would reach stderr outside pytest; here it fails the run
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_runs())
def test_main_keeps_the_error_contract_on_any_config(tmp_path, capsys, run):
    command, doc = run
    # exit 0 with output, or exit 2 with exactly one JSON object on stderr;
    # any other exception would escape main() as a traceback
    code, out, err = run_main(capsys, [command, "--config", write_config(tmp_path, doc)])
    if code == 0:
        assert out and err == ""
        return
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "field", "message"}
