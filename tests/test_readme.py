"""The library sketch in README.md runs as written, its config table
lists the fields of Config, and its CLI flag table lists each command's
options as the parser defines them."""

import argparse
import dataclasses
import re
from pathlib import Path

from liebend import cli
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


def _commands(parser, prefix=()):
    """(command, options) for each leaf subparser of parser, the options
    without -h/--help."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield " ".join(prefix), {opt for a in parser._actions for opt in a.option_strings} \
        - {"-h", "--help"}


def test_flag_table_lists_each_commands_options():
    text = README.read_text()
    table = text[text.index("| Command | Flags |"):].split("\n\n")[0]
    rows = {cmd: set(re.findall(r"`(--[\w-]+)`", flags))
            for cmd, flags in re.findall(r"^\| `([\w ]+)` \| (.*) \|$", table, re.M)}
    assert rows == dict(_commands(cli._PARSER))
