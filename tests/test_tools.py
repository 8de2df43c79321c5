"""The scripts under tools/ run against the package's current API."""

import json

from conftest import load
from test_acceptance import ACCEPTANCE_SEED, BIG_CONFIG


def test_prescreen_screens_the_suites_config():
    tool = load("tools/find_acceptance_seed.py")
    assert tool.acceptance_config(ACCEPTANCE_SEED) == BIG_CONFIG


def test_pinned_acceptance_seed_passes_the_prescreen():
    ok, _, _ = load("tools/find_acceptance_seed.py").prescreen(ACCEPTANCE_SEED)
    assert ok


def test_kernel_timing_reports_its_faults(monkeypatch, capsys):
    tool = load("tools/time_random_kernel.py")
    monkeypatch.setattr(tool, "DRAWS", 3)
    monkeypatch.setattr(tool, "REPEAT", 1)
    tool.main()
    record = json.loads(capsys.readouterr().out)
    for k in tool.PRIZE_COUNTS:
        assert record[f"k{k}_s"] > 0.0
        assert record[f"k{k}_minflt"] >= 0
        assert record[f"k{k}_peak_mib"] > 0.0
