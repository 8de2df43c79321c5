import re
from pathlib import Path

from conftest import load

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    scaled, averages = capsys.readouterr().out.splitlines()
    assert float(scaled) > 0
    assert all(float(avg) > 0 for avg in averages.split())


def test_output_schemas_are_the_checkers():
    # the benchmark's checker writes out README's schemas by hand, not from plsim
    checks = load("perfbench/checks.py")
    checks.cap_label = str  # this copy only: name the caps as README does
    section = README.read_text().split("### Output schemas")[1].split("\n### ")[0]
    blocks = re.findall(r"```\n(.*?)\n```", section, re.DOTALL)
    assert [block.replace("\n", " ").split(", ") for block in blocks] == [
        checks.BRACKETING_COLUMNS, checks.caps_columns(["<c1>"]) + ["..."]]
