"""The scripts under tools/ run against the package's current API."""

import importlib.util
import json
from pathlib import Path

from test_acceptance import ACCEPTANCE_SEED

TOOLS = Path(__file__).parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_pinned_acceptance_seed_passes_the_prescreen():
    ok, _, _ = load("find_acceptance_seed").prescreen(ACCEPTANCE_SEED)
    assert ok


def test_kernel_timing_reports_its_faults(monkeypatch, capsys):
    tool = load("time_random_kernel")
    monkeypatch.setattr(tool, "DRAWS", 3)
    monkeypatch.setattr(tool, "REPEAT", 1)
    tool.main()
    record = json.loads(capsys.readouterr().out)
    for k in tool.PRIZE_COUNTS:
        assert record[f"k{k}_s"] > 0.0
        assert record[f"k{k}_minflt"] >= 0
        assert record[f"k{k}_peak_mib"] > 0.0
