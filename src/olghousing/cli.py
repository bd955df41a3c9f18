"""Configuration-driven command-line front end.

Subcommands: ``regimes`` (static classification as JSON), ``solve`` /
``scenario`` / ``credit`` (equilibrium paths as CSV plus a JSON summary
embedding the bubble and efficiency verdicts), and ``sweep`` (a regime
grid over inverse elasticity and inverse income ratio). Configs are flat
JSON files; runs are fully deterministic. With ``--out`` the CSV goes to
the file and the summary to standard output; without it, ``--format``
selects which payload is printed. Errors are reported as a single JSON
object on standard error with exit status 2.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Any, Sequence

from .analytics import DELTA, WINDOW, detect_bubble, efficiency_test, tail_growth
from .errors import ConfigError, DomainError, ModelError, bounded, bounded_as, check
from .preferences import CesAggregator, HousingUtility
from .regimes import (
    LOAN_RATIO,
    EconomyParams,
    LongRunKind,
    Regime,
    TerminalKind,
    classify,
    credit_transform,
    steady_state,
    welfare_class,
)
from .solver import (BeliefSchedule, EndowmentPath, EquilibriumPath, Segment, solve_path,
                     solve_scenario)

__all__ = ["AnnouncementSpec", "RunConfig", "main"]

log = logging.getLogger(__name__)

PATH_HEADER = ["t", "e_y", "e_o", "S", "s", "P", "r", "R", "q", "c_y", "c_o",
               "belief_index"]
SWEEP_HEADER = ["gamma_inv", "w_inv", "regime", "w_f_star", "w_b_star",
                "s_star", "lambda1", "efficient_fundamental"]

# every CSV float cell; each CSV row is one %-format over its record
_FLOAT = "%.12g"
_PATH_ROW = ",".join(["%d", *[_FLOAT] * (len(PATH_HEADER) - 2), "%d"])
# one path record as an element of the "rows" list of json.dumps(..., indent=2):
# %r is the float repr json writes; it differs from JSON only on nan and
# inf, and every path cell is finite, since the solver and the analytics
# reject non-finite prices, rents and rates before any row is written
_PATH_JSON_ROW = "    {\n" + ",\n".join(
    f'      "{name}": {"%d" if name in ("t", "belief_index") else "%r"}'
    for name in PATH_HEADER) + "\n    }"
_SWEEP_ROW = ",".join(["%s"] * len(SWEEP_HEADER))


# ------------------------------------------------------------------ config

@dataclass(frozen=True)
class AnnouncementSpec:
    """One belief revision: from ``effective_date`` on, detrended endowments
    are believed to be (e1, e2), announced at ``announce_date``."""

    announce_date: int = bounded(int, at_least=0)
    effective_date: int = bounded(int, at_least=0)
    e1: float = bounded_as(EconomyParams, "e1")
    e2: float = bounded_as(EconomyParams, "e2")


def _read(data: dict, key: str, spec) -> Any:
    """``data[key]`` as ``errors.check`` returns it for the dataclass field ``spec``."""
    if key not in data:
        raise ConfigError(key, "missing required key")
    try:
        return check(data[key], **spec.metadata["check"])
    except DomainError as exc:
        raise ConfigError(key, str(exc)) from None


_TERMINAL_NAMES = tuple(k.value for k in TerminalKind)


def _terminal_name(where: str, name: Any, alternatives: str = "") -> str | None:
    if name is not None and name not in _TERMINAL_NAMES:
        raise ConfigError(where, f"must be one of {_TERMINAL_NAMES}{alternatives}, got {name!r}")
    return name


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration for one run.

    Each field is one JSON key; a numeric field declares its type, default
    and bounds here, or takes them from the model field it feeds. A key that
    is absent or null takes the default.
    """

    beta: float | None = bounded_as(CesAggregator, "beta", None)
    sigma: float | None = bounded_as(CesAggregator, "sigma", None)
    gamma: float | None = bounded_as(HousingUtility, "gamma", None)
    m: float | None = bounded_as(HousingUtility, "m", None)
    G: float | None = bounded_as(EconomyParams, "G", None)
    e1: float | None = bounded_as(EconomyParams, "e1", None)
    e2: float | None = bounded_as(EconomyParams, "e2", None)
    T: int = bounded(int, 200, at_least=1)
    tail_window: int = bounded(default=20, **WINDOW)
    delta: float = bounded(default=1e-3, **DELTA)
    terminal: str | None = None
    announcements: tuple[AnnouncementSpec, ...] | None = None
    terminals: tuple[str | None, ...] | None = None
    loan_ratio: float | None = bounded(float, None, **LOAN_RATIO)
    gamma_inv_min: float | None = bounded(float, None, above=0.0)
    gamma_inv_max: float | None = bounded(float, None, above=0.0)
    w_inv_min: float | None = bounded(float, None, above=0.0)
    w_inv_max: float | None = bounded(float, None, above=0.0)
    # at most 1000 points per axis: a million cells, each about 0.1 ms
    resolution: int | None = bounded(int, None, at_least=2, below=1001)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config", f"expected a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - _FIELDS.keys())
        if unknown:
            raise ConfigError(unknown[0], "unknown configuration key")

        values = {"terminal": _terminal_name("terminal", data.get("terminal"))}
        if data.get("announcements") is not None:
            values["announcements"] = _parse_announcements(data["announcements"])
        if data.get("terminals") is not None:
            if not isinstance(data["terminals"], list):
                raise ConfigError("terminals", "expected a list")
            values["terminals"] = tuple(_terminal_name(f"terminals[{i}]", entry, " or null")
                                        for i, entry in enumerate(data["terminals"]))
        for key, spec in _FIELDS.items():
            if "check" in spec.metadata and data.get(key) is not None:
                values[spec.name] = _read(data, key, spec)
        return cls(**values)

    def require(self, *keys: str) -> None:
        """Raise for the first of these JSON keys that the config leaves unset."""
        for key in keys:
            if getattr(self, _FIELDS[key].name) is None:
                raise ConfigError(key, "missing required key")

    def economy(self) -> EconomyParams:
        self.require("beta", "sigma", "gamma", "m", "G", "e1", "e2")
        return EconomyParams(CesAggregator(self.beta, self.sigma),
                             HousingUtility(self.gamma, self.m), self.G, self.e1, self.e2)


# JSON key -> RunConfig field, in field order; the one key that is not its
# field's name is "lambda", a Python keyword
_FIELDS = {"lambda" if spec.name == "loan_ratio" else spec.name: spec
           for spec in fields(RunConfig)}


def _parse_announcements(raw: Any) -> tuple[AnnouncementSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("announcements", "expected a non-empty list")
    entries = []
    for i, item in enumerate(raw):
        where = f"announcements[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(where, "expected an object")
        extra = sorted(set(item) - {"announce_date", "effective_date", "e1", "e2"})
        if extra:
            raise ConfigError(f"{where}.{extra[0]}", "unknown announcement key")
        try:
            entry = AnnouncementSpec(*(_read(item, spec.name, spec)
                                       for spec in fields(AnnouncementSpec)))
        except ConfigError as exc:
            raise ConfigError(f"{where}.{exc.field}", exc.message) from exc
        if entry.effective_date < entry.announce_date:
            raise ConfigError(f"{where}.effective_date",
                              "cannot precede its announcement date")
        entries.append(entry)
    if entries[0].announce_date != 0 or entries[0].effective_date != 0:
        raise ConfigError("announcements[0]",
                          "the first announcement must be dated 0 and effective at 0")
    for i in range(1, len(entries)):
        if entries[i].announce_date <= entries[i - 1].announce_date:
            raise ConfigError(f"announcements[{i}].announce_date",
                              "announcement dates must be strictly increasing")
        if entries[i].effective_date <= entries[i - 1].effective_date:
            raise ConfigError(f"announcements[{i}].effective_date",
                              "effective dates must be strictly increasing")
    return tuple(entries)


# ------------------------------------------------------------------ helpers

def _infer_terminal(params: EconomyParams, explicit: str | None,
                    field: str = "terminal") -> TerminalKind:
    """Pick the one long run the regime lists, or demand an explicit terminal."""
    if explicit is not None:
        return TerminalKind(explicit)
    regime = classify(params)
    if regime.boundary is not None:
        raise ConfigError(field,
                          f"income ratio sits on the {regime.boundary} boundary; "
                          "specify the terminal explicitly")
    if len(regime.long_runs) > 1:
        raise ConfigError(field,
                          "both fundamental and bubbly long runs exist in the "
                          "BubblePossibility regime; specify the terminal explicitly")
    if not regime.long_runs:
        raise ConfigError(field, "no long run of this economy is representable in "
                          "floating point")
    return regime.long_runs[0]


def _path_rows(path: EquilibriumPath) -> list[tuple]:
    """Per-date records in ``PATH_HEADER`` order, as raw ints and floats."""
    columns = (getattr(path, name) for name in PATH_HEADER[1:])
    return list(zip(range(path.T + 1), *columns))


def _check_tail_window(cfg: RunConfig, balanced_from: int = 0) -> None:
    """Reject, before any solve, a tail window the path diagnostics cannot fit.

    The bubble and efficiency tests need at most half the path and
    ``tail_window + 1`` dates of the final balanced-growth segment starting
    at ``balanced_from`` (a horizon ending before it is the solver's error).
    """
    limit = (cfg.T + 1) // 2
    if balanced_from <= cfg.T:
        limit = min(limit, cfg.T - balanced_from)
    if cfg.tail_window > limit:
        raise ConfigError("tail_window",
                          f"must be at most {limit} for T={cfg.T} with the final endowment "
                          f"segment from date {balanced_from}, got {cfg.tail_window}")


def _summarize_path(command: str, cfg: RunConfig, path: EquilibriumPath) -> dict:
    bubble = detect_bubble(path, delta=cfg.delta, window=cfg.tail_window)
    efficiency = efficiency_test(path, delta=cfg.delta, window=cfg.tail_window)
    return {
        "command": command,
        "T": path.T,
        "terminal": path.terminal_kind.value,
        "revision_dates": list(path.revision_dates),
        "max_residual": max(path.residuals),
        "tail": {
            "price_growth": tail_growth(path.P, cfg.tail_window),
            "rent_growth": tail_growth(path.r, cfg.tail_window),
            "price_rent_ratio": path.P[-1] / path.r[-1],
            "interest_rate": path.R[-1],
        },
        "bubble": {
            "is_bubble": bubble.is_bubble,
            "ratio_estimate": bubble.ratio_estimate,
            "fundamental_value_0": bubble.fundamental_value_0,
            "bubble_component_0": bubble.bubble_component_0,
            "tvc_tail_last": bubble.tvc_last,
        },
        "efficiency": {
            "is_efficient": efficiency.is_efficient.value,
            "rate_estimate": efficiency.rate_estimate,
            "applicability": efficiency.applicability.value,
        },
    }


def _steady_state_json(rep) -> dict:
    # lambda2 is printed even when None (the one-dimensional gamma = 1 state)
    return asdict(rep, dict_factory=lambda items: {
        key: value for key, value in items if value is not None or key == "lambda2"})


def _long_run(params: EconomyParams, regime: Regime) -> tuple[dict, dict]:
    """Steady state per listed long run, and the welfare verdict name per long-run kind.

    States are keyed by the long run's name in lower case (none at gamma > 1).
    Verdicts are keyed "fundamental" and "bubbly", both always present for
    gamma < 1 and absent otherwise: the fundamental one is None wherever
    ``regime.long_runs`` lists no fundamental long run, while the bubbly one
    reads "Efficient" even at or above w_b_star, where there is no bubbly
    state, since every long run counts as efficient there.
    """
    reports = {kind.value.lower(): steady_state(params, kind) for kind in regime.long_runs}
    states = {name: rep for name, rep in reports.items() if rep is not None}
    welfare = {}
    if params.housing.gamma < 1.0:
        welfare["fundamental"] = (
            welfare_class(params, LongRunKind.FUNDAMENTAL_LONG_RUN).value
            if TerminalKind.FUNDAMENTAL in regime.long_runs else None)
        welfare["bubbly"] = welfare_class(params, LongRunKind.BUBBLY_LONG_RUN).value
    return states, welfare


# ------------------------------------------------------------------ commands

def cmd_regimes(cfg: RunConfig) -> dict:
    params = cfg.economy()
    regime = classify(params)
    thr = regime.thresholds
    states, welfare = _long_run(params, regime)
    return {
        "command": "regimes",
        "regime": regime.tag.value,
        "boundary": regime.boundary,
        "income_ratio": params.income_ratio,
        "w_f_star": None if thr is None else thr.w_f_star,
        "w_b_star": None if thr is None else thr.w_b_star,
        "steady_states": {name: _steady_state_json(rep) for name, rep in states.items()},
        "welfare": welfare,
    }


def _solve(cfg: RunConfig, params: EconomyParams) -> EquilibriumPath:
    """Single-belief path of ``params`` over the configured horizon."""
    terminal = _infer_terminal(params, cfg.terminal)
    _check_tail_window(cfg)
    return solve_path(params, None, terminal, cfg.T)


def cmd_solve(cfg: RunConfig) -> tuple[EquilibriumPath, dict]:
    path = _solve(cfg, cfg.economy())
    return path, _summarize_path("solve", cfg, path)


def _belief_paths(cfg: RunConfig) -> tuple[BeliefSchedule, EndowmentPath, list[TerminalKind]]:
    params = cfg.economy()
    cfg.require("announcements")
    announcements = cfg.announcements
    if cfg.terminals is not None and len(cfg.terminals) != len(announcements):
        raise ConfigError("terminals",
                          f"got {len(cfg.terminals)} entries for "
                          f"{len(announcements)} announcements")
    G = params.G
    segments: list[Segment] = []
    beliefs: list[tuple[int, EndowmentPath]] = []
    kinds: list[TerminalKind] = []
    for k, ann in enumerate(announcements):
        segments.append(Segment(ann.effective_date, ann.e1, ann.e2, G))
        believed = EndowmentPath(tuple(segments), cfg.T)
        beliefs.append((ann.announce_date, believed))
        explicit = cfg.terminals[k] if cfg.terminals is not None else None
        final = believed.final_params(params)
        kinds.append(_infer_terminal(final, explicit, field=f"terminals[{k}]"))
    schedule = BeliefSchedule(tuple(beliefs))
    realized = beliefs[-1][1]
    return schedule, realized, kinds


def cmd_scenario(cfg: RunConfig) -> tuple[EquilibriumPath, dict]:
    params = cfg.economy()
    schedule, realized, kinds = _belief_paths(cfg)
    _check_tail_window(cfg, realized.balanced_from)
    path = solve_scenario(params, schedule, realized, kinds, cfg.T)
    summary = _summarize_path("scenario", cfg, path)
    summary["beliefs"] = [
        {"announce_date": a, "balanced_from": p.balanced_from,
         "terminal": k.value}
        for (a, p), k in zip(schedule.announcements, kinds)
    ]
    return path, summary


def cmd_credit(cfg: RunConfig) -> tuple[EquilibriumPath, dict]:
    params = cfg.economy()
    cfg.require("lambda")
    transform = credit_transform(params, cfg.loan_ratio)
    path = _solve(cfg, transform.params)
    summary = _summarize_path("credit", cfg, path)
    summary["credit"] = {
        "lambda": cfg.loan_ratio,
        "w_effective": transform.w_effective,
        "price_coefficient": transform.price_coefficient,
        "condition_holds": transform.condition_holds,
        "warning": transform.warning,
    }
    return path, summary


def _axis(start: float, stop: float, n: int) -> list[float]:
    """``n`` evenly spaced points from ``start`` to ``stop``, as ``numpy.linspace``."""
    step = (stop - start) / (n - 1)
    return [i * step + start for i in range(n - 1)] + [stop]


def _sweep_rows(cfg: RunConfig) -> list[tuple[str, ...]]:
    cfg.require("beta", "sigma", "m", "G", "gamma_inv_min", "gamma_inv_max",
                "w_inv_min", "w_inv_max", "resolution")
    if not cfg.gamma_inv_max > cfg.gamma_inv_min:
        raise ConfigError("gamma_inv_max", "must exceed gamma_inv_min")
    if not cfg.w_inv_max > cfg.w_inv_min:
        raise ConfigError("w_inv_max", "must exceed w_inv_min")
    w_axis = _axis(cfg.w_inv_min, cfg.w_inv_max, cfg.resolution)
    # the config has checked the constants; each cell checks only what it builds
    agg = CesAggregator(cfg.beta, cfg.sigma)
    return [_sweep_cell(cfg, agg, gamma_inv, w_inv)
            for gamma_inv in _axis(cfg.gamma_inv_min, cfg.gamma_inv_max, cfg.resolution)
            for w_inv in w_axis]


def _sweep_cell(cfg: RunConfig, agg: CesAggregator, gamma_inv: float,
                w_inv: float) -> tuple[str, ...]:
    params = EconomyParams(agg, HousingUtility(1.0 / gamma_inv, cfg.m), cfg.G, 1.0, 1.0 / w_inv)
    regime = classify(params)
    states, welfare = _long_run(params, regime)
    thr = regime.thresholds
    w_f = w_b = s_star = lambda1 = ""
    if thr is not None:
        w_f, w_b = _FLOAT % thr.w_f_star, _FLOAT % thr.w_b_star
    # the last listed long run's state, so the bubbly one where it exists;
    # none on the w_b_star boundary, where it degenerates into the fundamental one
    if states and regime.boundary != "w_b_star":
        picked = list(states.values())[-1]
        s_star, lambda1 = _FLOAT % picked.s_star, _FLOAT % picked.lambda1
    efficient = {"Efficient": "true", "Inefficient": "false",
                 None: ""}[welfare.get("fundamental", "Efficient")]
    return (_FLOAT % gamma_inv, _FLOAT % w_inv, regime.tag.value,
            w_f, w_b, s_star, lambda1, efficient)


# ------------------------------------------------------------------ entry

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command-line error as a ``ConfigError`` (its subparsers too)."""

    def error(self, message: str):
        raise ConfigError("arguments", message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="olghousing",
        description="Equilibrium laboratory for a two-period OLG housing economy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("regimes", "classify the economy and report steady states"),
        ("solve", "solve one equilibrium path"),
        ("scenario", "solve a belief-revision scenario"),
        ("credit", "solve the credit-transformed economy"),
        ("sweep", "tabulate regimes over a parameter grid"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        cmd.add_argument("--out", default=None, help="write the CSV payload to this file")
        # regimes prints JSON only
        if name != "regimes":
            cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                             help="payload format when --out is not given")
    return parser


class _CliLogHandler(logging.StreamHandler):
    """The package-logger handler that ``main`` installs under ``OLG_LOG``."""


def _setup_logging() -> None:
    """Send package logs to the current standard error under ``OLG_LOG``.

    Each call first removes the handler and level an earlier call set, so
    repeated in-process runs keep at most one handler, bound to this run's
    stream.
    """
    root = logging.getLogger("olghousing")
    for handler in root.handlers[:]:
        if isinstance(handler, _CliLogHandler):
            root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
    level_name = os.environ.get("OLG_LOG", "").lower()
    if level_name not in ("debug", "info"):
        return
    handler = _CliLogHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.setLevel(logging.DEBUG if level_name == "debug" else logging.INFO)
    root.addHandler(handler)


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    # a syntax error (JSONDecodeError), or an integer of more than 4300 digits
    except ValueError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    return RunConfig.from_dict(data)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("out", f"cannot write {out}: {exc}") from exc


def _csv_text(header: Sequence[str], lines: list[str]) -> str:
    # no cell holds a comma, a quote or a newline (numbers, regime tags,
    # true/false or empty), so none needs CSV quoting
    return "\n".join([",".join(header), *lines]) + "\n"


def _path_json(summary: dict, rows: list[tuple]) -> str:
    """``json.dumps({**summary, "rows": records}, indent=2)``, with each
    record written by ``_PATH_JSON_ROW``."""
    # the summary without its closing "\n}", then the rows as its last key
    return "%s,\n  \"rows\": [\n%s\n  ]\n}" % (
        json.dumps(summary, indent=2)[:-2], ",\n".join([_PATH_JSON_ROW % row for row in rows]))


_PATH_COMMANDS = {"solve": cmd_solve, "scenario": cmd_scenario, "credit": cmd_credit}


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        log.info("running %s with config %s", args.command, args.config)
        if args.command == "regimes":
            _emit(json.dumps(cmd_regimes(cfg), indent=2), args.out)
            return 0
        if args.command == "sweep":
            summary, header, row_format, rows = None, SWEEP_HEADER, _SWEEP_ROW, _sweep_rows(cfg)
        else:
            path, summary = _PATH_COMMANDS[args.command](cfg)
            header, row_format, rows = PATH_HEADER, _PATH_ROW, _path_rows(path)
        # JSON only without --out; a path's summary goes to stdout beside a CSV file
        if args.format == "json" and args.out is None:
            _emit(json.dumps([dict(zip(header, row)) for row in rows], indent=2)
                  if summary is None else _path_json(summary, rows), None)
        else:
            _emit(_csv_text(header, [row_format % row for row in rows]), args.out)
            if args.out is not None and summary is not None:
                _emit(json.dumps(summary, indent=2), None)
    except ModelError as exc:
        doc = {
            "error": type(exc).__name__,
            "field": getattr(exc, "field", None),
            "message": str(exc),
        }
        sys.stderr.write(json.dumps(doc) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
