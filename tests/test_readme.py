import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    scaled, averages = capsys.readouterr().out.splitlines()
    assert float(scaled) > 0
    assert all(float(avg) > 0 for avg in averages.split())
