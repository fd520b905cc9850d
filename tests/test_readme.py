"""README: the Python Quick start block runs and prints what its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs_and_prints_its_stated_values(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "README should hold exactly one python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in blocks[0].splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    stated = [(line.partition("#")[2].strip(), out) for line, out in zip(prints, printed) if "#" in line]
    assert stated, "the block should state at least one printed value"
    for expected, out in stated:
        assert out == expected
