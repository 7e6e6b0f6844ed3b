"""The output, --json or text, and the exit code of the CLI on bundled
fixtures and fixed words, compared byte for byte with stored outputs.

``golden/cases.json`` maps each case to its argv and exit code; ``@name``
in an argv stands for the path of the bundled fixture ``name``, and
``%file`` for the input file ``golden/file``.  The stdout of each case is
stored in ``golden/<case>.stdout``.
"""
import json
import os
import subprocess
import sys

import pytest

import twistlab
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


def test_golden_through_process_stdout():
    # the JSON writer on a real TextIOWrapper stdout, not a capture
    name = "geompres-57crossings"
    argv = [_resolve(a) for a in CASES[name]["argv"]]
    src = os.path.dirname(os.path.dirname(twistlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from twistlab.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=60)
    with open(os.path.join(GOLDEN, f"{name}.stdout"), "rb") as fh:
        assert proc.stdout == fh.read()
    assert proc.returncode == CASES[name]["exit"]
