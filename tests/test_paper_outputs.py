"""The paper-scale outputs of record: the CSVs of the four ``configs/*.json``
presets, committed under ``tests/golden/paper/``. Regenerating them takes
minutes (README, "Paper-scale outputs of record"), so these tests read the
committed files and check what the protocols guarantee whatever the stream:
the README schema and row count, each variant's VaR non-decreasing down to
``worst``, the bracketed worst no higher than the random worst, and every
``pct_*`` column in [0, 100]."""

import csv
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
PAPER = Path(__file__).parent / "golden" / "paper"


def readme_columns(experiment, caps):
    if experiment == "bracketing":
        return ["params", "schedule", "var_level", "random_avg", "bracket_avg",
                "pct_bracket_higher", "random_std", "bracket_std", "rel_diff_pct"]
    columns = ["params", "schedule", "var_level", "uncapped_avg"]
    for cap in caps:
        columns += [f"cap_{cap:g}_avg", f"cap_{cap:g}_pct_higher"]
    return columns


def test_every_preset_has_an_output_of_record():
    assert len(CONFIGS) == 4
    assert sorted(p.stem for p in PAPER.glob("*.csv")) == [c.stem for c in CONFIGS]


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_output_of_record_holds_the_protocol(config_path):
    config = json.loads(config_path.read_text())
    experiment = config_path.stem.split("_")[0]
    with open(PAPER / f"{config_path.stem}.csv", newline="") as f:
        header, *body = csv.reader(f)
    assert header == readme_columns(experiment, config.get("caps", []))

    labels = [f"{level * 100:g}%" for level in config["var_levels"]] + ["worst"]
    schedules = config["schedules"]
    assert len(body) == len(schedules) * len(labels)
    params = f"{config['pareto']['alpha']:g}/{config['pareto']['b']:g}"
    for s, sched in enumerate(schedules):
        rows = body[s * len(labels):(s + 1) * len(labels)]
        assert [row[0] for row in rows] == [params] * len(labels)
        assert all(row[1].startswith(f"{sched['count']}x") for row in rows)
        assert [row[2] for row in rows] == labels
        cell = {name: [float(row[i]) for row in rows]
                for i, name in enumerate(header) if i >= 3}
        for name, column in cell.items():
            if name.endswith("_avg"):
                assert column == sorted(column), (sched, name)
            if name.startswith("pct_") or "_pct_" in name:
                assert all(0.0 <= value <= 100.0 for value in column), (sched, name)
        if experiment == "bracketing":
            assert cell["bracket_avg"][-1] <= cell["random_avg"][-1], sched
