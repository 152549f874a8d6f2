"""Every ```python block of README.md runs against the library as it is, so
the sketch cannot drift from the API.  Each block runs on its own, in a
fresh namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (first line of the code, code) of each python block
BLOCKS = [(TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
          for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)]
assert BLOCKS, "README.md has no python block"


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code):
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "readme"})
