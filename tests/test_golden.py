"""The output, --json or text, and the exit code of the CLI on bundled
fixtures and fixed words, compared byte for byte with stored outputs.

``golden/cases.json`` maps each case to its argv and exit code; ``@name``
in an argv stands for the path of the bundled fixture ``name``, and
``%file`` for the input file ``golden/file``.  The stdout of each case is
stored in ``golden/<case>.stdout``.
"""
import json
import os

import pytest

from twistlab.cli import main
from twistlab.schema import fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "cases.json")) as fh:
    CASES = json.load(fh)


def _resolve(arg: str) -> str:
    if arg.startswith("@"):
        return fixture_path(arg[1:])
    if arg.startswith("%"):
        return os.path.join(GOLDEN, arg[1:])
    return arg


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    case = CASES[name]
    argv = [_resolve(a) for a in case["argv"]]
    code = main(argv)
    with open(os.path.join(GOLDEN, f"{name}.stdout"), newline="") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected
    assert code == case["exit"]
