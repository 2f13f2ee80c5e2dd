"""The README's library example runs as written and its library table names only what exists,
so neither can drift from the library."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    section = README.read_text().split("\n## Example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Example", "exec"), {})  # its asserts are the checks


def test_library_layout_names_exist():
    # a backticked name, or the name of a backticked call, in a module's row is one of its attributes
    section = README.read_text().split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(mvlab\.\w+)`\s*\|(.*)\|$", section, re.MULTILINE)
    assert len(rows) == 7
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", contents)
        missing = [name for name in names if not hasattr(module, name)]
        assert names and not missing, f"{module_name} has no {missing}"
