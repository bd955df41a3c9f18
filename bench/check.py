"""Correctness checks for benchmark requests, and the digests they compare.

A digest is the part of a request's output that the reference keeps: the
exit status, every JSON field, and the CSV or JSON path rows at the dates
``sample_rows`` selects (all dates for short paths). ``record.py`` stores
digests of this commit's outputs; every benchmark request is checked
against them with the functions below, and a non-empty error list makes
the request count as failed.
"""
from __future__ import annotations

import csv
import io
import json
import math

# numeric columns and fields must match the reference this closely
REL_TOL = 1e-9
# every solved path must satisfy its equilibrium equation this well
# (the bound tests/test_solver.py uses)
RESIDUAL_BOUND = 1e-10
# below this magnitude floats lose relative precision (subnormal range)
TINY = 1e-280
# fields that are a small difference of large terms are compared relative
# to the magnitude of a sibling field: c_y = e_y - S cancels when the
# housing share nears 1, and the bubble component is P_0 minus a
# fundamental value that is almost equal to it on fundamental paths
SCALE_OF = {"c_y": "e_y", "bubble_component_0": "fundamental_value_0"}
# the root finder's leftover error is bounded, not reproduced
BOUND_ONLY = {"max_residual"}

ROWS_DENSE = 256
ROW_STRIDE = 50
ROW_EDGE = 21


def sample_rows(n: int) -> list[int]:
    """Row indices a reference keeps for an n-row path."""
    if n <= ROWS_DENSE:
        return list(range(n))
    keep = set(range(ROW_EDGE)) | set(range(0, n, ROW_STRIDE)) | set(range(n - ROW_EDGE, n))
    return sorted(keep)


def close(ref: float, got: float, scale: float | None = None) -> bool:
    if not (math.isfinite(ref) and math.isfinite(got)):
        return ref == got
    size = max(abs(ref), abs(got)) if scale is None else max(abs(scale), abs(ref), abs(got))
    if size < TINY:
        return True
    return abs(ref - got) <= REL_TOL * size


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def compare(ref, got, where: str = "", scale: float | None = None) -> list[str]:
    """Differences between a reference value and an output value.

    Dicts must have the same keys, lists the same length, strings, bools
    and None must be equal, and numbers must agree to ``REL_TOL``.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{where or 'output'}: keys differ from the reference"]
        errors = []
        for key in ref:
            if key in BOUND_ONLY:
                continue
            sibling = SCALE_OF.get(key)
            sub_scale = ref.get(sibling) if sibling in ref else None
            if not isinstance(sub_scale, (int, float)) or isinstance(sub_scale, bool):
                sub_scale = None
            errors += compare(ref[key], got[key], f"{where}.{key}", sub_scale)
        return errors
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: length differs from the reference"]
        errors = []
        for i, (a, b) in enumerate(zip(ref, got)):
            errors += compare(a, b, f"{where}[{i}]")
        return errors
    numeric = (int, float)
    if (isinstance(ref, numeric) and not isinstance(ref, bool)
            and isinstance(got, numeric) and not isinstance(got, bool)):
        if close(float(ref), float(got), scale):
            return []
        return [f"{where}: {got!r} differs from reference {ref!r}"]
    if ref == got and type(ref) is type(got):
        return []
    return [f"{where}: {got!r} differs from reference {ref!r}"]


# ------------------------------------------------------------------ digests

def csv_digest(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {
        "header": header,
        "n_rows": len(body),
        "rows": [[i, [_cell(c) for c in body[i]]] for i in sample_rows(len(body))],
    }


def json_digest(doc):
    """A parsed JSON output with any path ``rows`` list reduced to samples."""
    if isinstance(doc, dict) and isinstance(doc.get("rows"), list):
        doc = dict(doc)
        rows = doc.pop("rows")
        doc["n_rows"] = len(rows)
        doc["rows_sampled"] = [[i, rows[i]] for i in sample_rows(len(rows))]
    return doc


def _scaled_rows(header: list[str], ref_rows: list, got_rows: list, where: str) -> list[str]:
    """Compare sampled rows given as lists of cells under ``header``."""
    errors = []
    index = {name: k for k, name in enumerate(header)}
    for (i, ref_cells), (_, got_cells) in zip(ref_rows, got_rows):
        if len(got_cells) != len(ref_cells):
            errors.append(f"{where} row {i}: {len(got_cells)} cells, reference has {len(ref_cells)}")
            continue
        for name, a, b in zip(header, ref_cells, got_cells):
            scale = None
            if name in SCALE_OF and SCALE_OF[name] in index:
                scale = ref_cells[index[SCALE_OF[name]]]
            errors += compare(a, b, f"{where} row {i} {name}", scale)
    return errors


def compare_csv(ref: dict, text: str, where: str) -> list[str]:
    try:
        got = csv_digest(text)
    except (csv.Error, IndexError) as exc:
        return [f"{where}: unreadable CSV ({exc})"]
    if got["header"] != ref["header"]:
        return [f"{where}: header {got['header']} differs from the reference"]
    if got["n_rows"] != ref["n_rows"]:
        return [f"{where}: {got['n_rows']} rows, reference has {ref['n_rows']}"]
    return _scaled_rows(ref["header"], ref["rows"], got["rows"], where)


def compare_json(ref, doc, where: str) -> list[str]:
    got = json_digest(doc)
    if not (isinstance(ref, dict) and "rows_sampled" in ref):
        return compare(ref, got, where)
    if not isinstance(got, dict) or "rows_sampled" not in got:
        return [f"{where}: path rows missing"]
    head = {k: v for k, v in ref.items() if k != "rows_sampled"}
    errors = compare(head, {k: v for k, v in got.items() if k != "rows_sampled"}, where)
    if errors:
        return errors
    header = list(ref["rows_sampled"][0][1]) if ref["rows_sampled"] else []
    ref_rows = [[i, [row[k] for k in header]] for i, row in ref["rows_sampled"]]
    got_rows = []
    for i, row in got["rows_sampled"]:
        if not isinstance(row, dict) or set(row) != set(header):
            return [f"{where}.rows row {i}: columns differ from the reference"]
        got_rows.append([i, [row[k] for k in header]])
    return _scaled_rows(header, ref_rows, got_rows, f"{where}.rows")


def residual_errors(doc, where: str) -> list[str]:
    """Every path summary must report a residual within ``RESIDUAL_BOUND``."""
    if not (isinstance(doc, dict) and "max_residual" in doc):
        return []
    value = doc["max_residual"]
    if isinstance(value, (int, float)) and value <= RESIDUAL_BOUND:
        return []
    return [f"{where}: max_residual {value!r} exceeds {RESIDUAL_BOUND}"]


def contract_errors(exit_code: int, stderr: str) -> list[str]:
    """README error contract: exit 0 with nothing on stderr, or exit 2 with
    exactly one JSON object naming the error, field and message."""
    if exit_code == 0:
        return [] if stderr == "" else ["exit 0 but stderr is not empty"]
    if exit_code == 2:
        lines = stderr.splitlines()
        try:
            doc = json.loads(lines[0]) if len(lines) == 1 else None
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict) and set(doc) == {"error", "field", "message"}:
            return []
        return ["exit 2 without exactly one JSON error object on stderr"]
    return [f"exit status {exit_code} breaks the error contract"]


def cli_digest(exit_code: int, stdout: str, out_text: str | None, stdout_kind: str) -> dict:
    """Reference digest of one CLI request's outputs."""
    digest = {"exit": exit_code}
    digest["stdout"] = (csv_digest(stdout) if stdout_kind == "csv"
                        else json_digest(json.loads(stdout)))
    if out_text is not None:
        digest["out"] = csv_digest(out_text)
    return digest


def check_cli(ref: dict, exit_code: int, stdout: str, stderr: str,
              out_text: str | None, stdout_kind: str) -> list[str]:
    errors = contract_errors(exit_code, stderr)
    if exit_code != ref["exit"]:
        return errors + [f"exit status {exit_code}, reference {ref['exit']}"]
    if stdout_kind == "csv":
        errors += compare_csv(ref["stdout"], stdout, "stdout")
    else:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return errors + [f"stdout is not JSON ({exc})"]
        errors += residual_errors(doc, "stdout")
        errors += compare_json(ref["stdout"], doc, "stdout")
    if "out" in ref:
        if out_text is None:
            errors.append("--out file missing")
        else:
            errors += compare_csv(ref["out"], out_text, "out")
    return errors


def cell_digest(regime, path, bubble, efficiency) -> dict:
    """Reference digest of one regime-grid cell."""
    dates = sorted({0, path.T // 2, path.T})
    return {
        "regime": regime.tag.value,
        "terminal": path.terminal_kind.value,
        "max_residual": float(path.residuals.max()),
        "is_bubble": bool(bubble.is_bubble),
        "ratio_estimate": float(bubble.ratio_estimate),
        "fundamental_value_0": float(bubble.fundamental_value_0),
        "bubble_component_0": float(bubble.bubble_component_0),
        "is_efficient": efficiency.is_efficient.value,
        "applicability": efficiency.applicability.value,
        "rate_estimate": float(efficiency.rate_estimate),
        "dates": dates,
        "path": {name: [float(getattr(path, name)[t]) for t in dates]
                 for name in ("S", "P", "r", "R", "q")},
    }


def check_cell(ref: dict, regime, path, bubble, efficiency) -> list[str]:
    got = cell_digest(regime, path, bubble, efficiency)
    return residual_errors(got, "path") + compare(ref, got, "cell")
