"""The scripts under tools/ run against the package's current API."""

import importlib.util
from pathlib import Path

from test_acceptance import ACCEPTANCE_SEED

FIND_SEED = Path(__file__).parent.parent / "tools" / "find_acceptance_seed.py"


def test_pinned_acceptance_seed_passes_the_prescreen():
    spec = importlib.util.spec_from_file_location("find_acceptance_seed", FIND_SEED)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    ok, _, _ = tool.prescreen(ACCEPTANCE_SEED)
    assert ok
