"""Output checks that hold under any random stream.

Every repetition's CSV (and, for caps, its ``--json-out`` dump) is checked
against properties the protocols guarantee whatever the seed: the README
column schema, one row per schedule and VaR level plus a ``worst`` row,
finite positive values, VaR non-decreasing in confidence and bounded by the
worst row, bracketed worst never above random worst, percentages in
[0, 100], and for caps the CSV aggregates recomputed from the raw per-run
values. Each check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

BRACKETING_COLUMNS = [
    "params", "schedule", "var_level", "random_avg", "bracket_avg",
    "pct_bracket_higher", "random_std", "bracket_std", "rel_diff_pct",
]


def cap_label(cap: float) -> str:
    return f"{cap:g}"


def caps_columns(caps) -> list[str]:
    cols = ["params", "schedule", "var_level", "uncapped_avg"]
    for cap in caps:
        cols += [f"cap_{cap_label(cap)}_avg", f"cap_{cap_label(cap)}_pct_higher"]
    return cols


def level_labels(var_levels) -> list[str]:
    return [f"{lvl * 100:g}%" for lvl in var_levels] + ["worst"]


def _number(text: str, where: str, problems: list[str]) -> float | None:
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{where}: {text!r} is not a number")
        return None
    if not math.isfinite(value):
        problems.append(f"{where}: {text!r} is not finite")
        return None
    return value


def check_csv(text: str, experiment: str, config: dict) -> list[str]:
    """Check one experiment CSV against ``config`` (the effective JSON config)."""
    problems: list[str] = []
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ["empty CSV"]
    header, body = rows[0], rows[1:]
    caps = config.get("caps") or []
    want_header = BRACKETING_COLUMNS if experiment == "bracketing" else caps_columns(caps)
    if header != want_header:
        return [f"header {header} differs from the README schema {want_header}"]

    labels = level_labels(config["var_levels"])
    schedules = config["schedules"]
    if len(body) != len(schedules) * len(labels):
        return [f"{len(body)} rows, expected {len(schedules)} schedules x "
                f"{len(labels)} levels"]

    params = f"{config['pareto']['alpha']:g}/{config['pareto']['b']:g}"
    avg_cols = [i for i, c in enumerate(header) if c.endswith("_avg")]
    pct_cols = [i for i, c in enumerate(header) if c.startswith("pct_") or "_pct_" in c]
    std_cols = [i for i, c in enumerate(header) if c.endswith("_std")]
    values: list[dict[int, float]] = []
    for r, row in enumerate(body):
        where = f"row {r + 2}"
        sched = schedules[r // len(labels)]
        if len(row) != len(header):
            problems.append(f"{where}: {len(row)} fields, expected {len(header)}")
            values.append({})
            continue
        if row[0] != params:
            problems.append(f"{where}: params {row[0]!r}, expected {params!r}")
        if not row[1].startswith(f"{sched['count']}x"):
            problems.append(f"{where}: schedule {row[1]!r} is not the "
                            f"{sched['count']}-prize schedule")
        if row[2] != labels[r % len(labels)]:
            problems.append(f"{where}: var_level {row[2]!r}, expected "
                            f"{labels[r % len(labels)]!r}")
        parsed: dict[int, float] = {}
        for i in range(3, len(header)):
            if i in std_cols and row[i] == "" and config["runs"] == 1:
                continue
            value = _number(row[i], f"{where} {header[i]}", problems)
            if value is None:
                continue
            parsed[i] = value
            if (i in avg_cols or i in std_cols) and not value > 0.0:
                problems.append(f"{where} {header[i]}: {value} is not positive")
            if i in pct_cols and not 0.0 <= value <= 100.0:
                problems.append(f"{where} {header[i]}: {value} outside [0, 100]")
        values.append(parsed)

    # VaR non-decreasing in confidence, up to and including the worst row
    for s in range(len(schedules)):
        block = values[s * len(labels):(s + 1) * len(labels)]
        for i in avg_cols:
            column = [v.get(i) for v in block]
            if None in column:
                continue
            if any(hi < lo for lo, hi in zip(column, column[1:])):
                problems.append(f"schedule {s}: {header[i]} not non-decreasing "
                                f"over {labels}: {column}")
        worst = block[-1]
        if experiment == "bracketing" and 3 in worst and 4 in worst:
            if worst[4] > worst[3]:
                problems.append(f"schedule {s}: bracket worst {worst[4]} above "
                                f"random worst {worst[3]}")

    if experiment == "bracketing":
        for r, v in enumerate(values):
            if 3 in v and 4 in v and 8 in v:
                rel = (v[3] / v[4] - 1.0) * 100.0
                if abs(rel - v[8]) > 0.006:
                    problems.append(f"row {r + 2}: rel_diff_pct {v[8]} disagrees "
                                    f"with its averages ({rel:.4f})")
    return problems


def check_caps_json(text: str, csv_text: str, config: dict) -> list[str]:
    """Check a caps ``--json-out`` dump and recompute the CSV cells from it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"JSON dump does not parse: {exc}"]
    problems: list[str] = []
    caps = config["caps"]
    if data.get("experiment") != "caps":
        problems.append(f"experiment is {data.get('experiment')!r}, expected 'caps'")
    if data.get("config") != config:
        problems.append("JSON config differs from the effective config")
    comparisons = (config["runs"] * len(config["schedules"])
                   * config["draws_per_run"] * len(caps))
    if data.get("raw_payout_comparisons") != comparisons:
        problems.append(f"raw_payout_comparisons {data.get('raw_payout_comparisons')}, "
                        f"expected {comparisons}")
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    cells = data.get("cells", [])
    if len(cells) != len(rows):
        return problems + [f"{len(cells)} JSON cells for {len(rows)} CSV rows"]
    keys = ["uncapped"] + [cap_label(c) for c in caps]
    for r, (cell, row) in enumerate(zip(cells, rows)):
        where = f"cell {r}"
        if [cell.get("schedule"), cell.get("var_level")] != row[1:3]:
            problems.append(f"{where}: labels {cell.get('schedule')}/"
                            f"{cell.get('var_level')} differ from CSV {row[1:3]}")
        scaled = cell.get("scaled", {})
        if list(scaled) != keys:
            problems.append(f"{where}: keys {list(scaled)}, expected {keys}")
            continue
        arrays = [np.asarray(scaled[k], dtype=float) for k in keys]
        if any(a.shape != (config["runs"],) for a in arrays):
            problems.append(f"{where}: expected {config['runs']} values per cap level")
            continue
        if any(not np.all(np.isfinite(a) & (a > 0.0)) for a in arrays):
            problems.append(f"{where}: a value is not finite and positive")
        recomputed = [f"{arrays[0].mean():.6f}"]
        for prev, cur in zip(arrays, arrays[1:]):
            recomputed += [f"{cur.mean():.6f}", f"{np.mean(cur > prev) * 100.0:.2f}"]
        if recomputed != row[3:]:
            problems.append(f"{where}: CSV cells {row[3:]} differ from the raw "
                            f"values' {recomputed}")
    return problems
