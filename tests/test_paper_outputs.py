"""The committed outputs of record, checked against the protocols by
``perfbench/checks.py``, the checker the benchmark runs on every
repetition: the CSVs of the four full-scale ``configs/*.json`` presets under
``tests/golden/paper/``, whose regeneration takes minutes (README,
"Paper-scale outputs of record"), and the goldens of the two small configs.
The checker's module docstring lists what it checks."""

import json

import pytest

from conftest import ROOT, load

checks = load("perfbench/checks.py")
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"
PAPER = GOLDEN / "paper"


def test_every_preset_has_an_output_of_record():
    assert len(CONFIGS) == 4
    assert sorted(p.stem for p in PAPER.glob("*.csv")) == [c.stem for c in CONFIGS]


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_output_of_record_holds_the_protocol(config_path):
    config = json.loads(config_path.read_text())
    text = (PAPER / f"{config_path.stem}.csv").read_text()
    assert checks.check_csv(text, config_path.stem.split("_")[0], config) == []


@pytest.mark.parametrize("experiment", ["bracketing", "caps"])
def test_golden_holds_the_protocol(experiment):
    config = json.loads((GOLDEN / f"golden_{experiment}.json").read_text())
    text = (GOLDEN / f"{experiment}_small.csv").read_text()
    assert checks.check_csv(text, experiment, config) == []
    if experiment == "caps":
        dump = (GOLDEN / "json_out" / "caps_small.json").read_text()
        assert checks.check_caps_json(dump, text, config) == []
