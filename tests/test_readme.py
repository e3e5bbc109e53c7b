"""The library sketch in README.md runs as written, and its config table
lists the fields of Config."""

import dataclasses
import re
from pathlib import Path

from liebend.config import Config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})


def test_config_table_lists_every_config_field():
    text = README.read_text()
    table = text[text.index("| Key | Decision it governs | Default |"):]
    rows = re.findall(r"^\| `(\w+)`", table.split("\n\n")[0], re.M)
    assert rows == [f.name for f in dataclasses.fields(Config)]
