"""The README's quick-start block runs as written and its command synopsis is current."""

import argparse
import re
from pathlib import Path

from ncfuncalc.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_command_synopsis_matches_parsers():
    """Each ``ncfun <verb>`` line shows only real flags, and every flag but
    the shared ``--handle`` and ``--out``."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    actions = build_parser()._actions
    subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    shown = {}
    for line in block.splitlines():
        verb, *rest = line.split()[1:]
        shown[verb] = set(re.findall(r"--[a-z-]+", " ".join(rest)))
    assert set(shown) == set(subparsers.choices)
    for verb, parser in subparsers.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert shown[verb] <= flags, (verb, shown[verb] - flags)
        assert flags - {"--help", "--handle", "--out"} <= shown[verb], verb
