"""The README's library example runs as written, so it cannot drift from the library."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    section = README.read_text().split("\n## Example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Example", "exec"), {})  # its asserts are the checks
