"""The --json output and exit code of the CLI on bundled fixtures and fixed
words, compared byte for byte with stored outputs.

``golden/cases.json`` maps each case to its argv and exit code; ``@name``
in an argv stands for the path of the bundled fixture ``name``.  The stdout
of each case is stored in ``golden/<case>.stdout``.
"""
import json
import os

import pytest

from twistlab.cli import main
from twistlab.schema import fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "cases.json")) as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    case = CASES[name]
    argv = [fixture_path(a[1:]) if a.startswith("@") else a for a in case["argv"]]
    code = main(argv)
    with open(os.path.join(GOLDEN, f"{name}.stdout"), newline="") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected
    assert code == case["exit"]
