"""Malformed input never escapes as a traceback, a hang or a crash.

Each example replaces one leaf of a bundled input with a value of the wrong
kind or size, or drops one key, and runs the CLI command that reads it; or
it feeds a metaplectic word built from the syntax's own tokens; or it edits
a valid command line.  Every run must end in an exit code 0-3 within 5 s,
with no SystemExit and no traceback.  Examples are derandomized, so a
failure reproduces.
"""
import contextlib
import copy
import io
import json
import os
import tempfile
import time

from hypothesis import given, settings, strategies as st

from twistlab.cli import main
from twistlab.schema import fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# (command, input)
INPUTS = (
    ("invariants", _load(fixture_path("E1"))),
    ("invariants", _load(fixture_path("genus2-paper"))),
    ("abelianize", _load(fixture_path("wajnryb-map21"))),
    ("geompres", _load(os.path.join(GOLDEN, "geompres-nonseparating.json"))),
)
VALUES = (None, True, 1.5, -1, 0, "x", [], {}, [1, 0], 10**9)


def _paths(node, prefix=()):
    """(path, parent is an object) for every node below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, child in items:
        out.append((prefix + (key,), isinstance(node, dict)))
        out += _paths(child, prefix + (key,))
    return out


def _is_leaf(data, path):
    for key in path:
        data = data[key]
    return not isinstance(data, (dict, list)) or not data


def _mutations(data):
    paths = _paths(data)
    leaves = [p for p, _ in paths if _is_leaf(data, p)]
    keys = [p for p, in_object in paths if in_object]
    replace = st.tuples(st.sampled_from(leaves), st.sampled_from(VALUES))
    drop = st.tuples(st.sampled_from(keys), st.just("drop"))
    return st.one_of(replace, drop)


def _run(argv):
    start = time.perf_counter()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            raise AssertionError(f"{argv} raised SystemExit({ex.code})") from None
    assert 0 <= code <= 3, (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert time.perf_counter() - start < 5.0, argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(INPUTS).flatmap(lambda inp: st.tuples(st.just(inp), _mutations(inp[1]))))
def test_mutated_input(case):
    (command, data), (path, value) = case
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "input.json")
        with open(file, "w") as fh:
            json.dump(data, fh)
        _run([command, file, "--json"])


tokens = st.one_of(
    st.sampled_from(("a", "b", "(", ")", "[", "]", "^", "-")),
    st.integers(0, 999).map(str),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(tokens, max_size=24), st.sampled_from(("", " ")))
def test_metaplectic_word(parts, sep):
    # "--" keeps a word that starts with "-" from being read as an option
    _run(["metaplectic", "--json", "--", sep.join(parts)])


# a valid command line per subcommand, and one for a command that is not one
COMMAND_LINES = (
    ["verify", fixture_path("E1"), "--json"],
    ["invariants", fixture_path("genus2-paper"), "--signature", "-20", "--json"],
    ["geompres", os.path.join(GOLDEN, "geompres-nonseparating.json"), "--json"],
    ["metaplectic", "(a b)^6", "--json"],
    ["cover", "--genus", "2", "--chi", "0,1,0,0", "--loop", "a1 b1", "--json"],
    ["abelianize", fixture_path("wajnryb-map21"), "--json"],
    ["fixtures", "--json"],
    ["frob", "--json"],
)
# no -h or --help: those print the usage and exit 0 by design
ARGUMENTS = (
    "x", "", "1", "-8", "1,0", "--bogus", "-q", "--json", "--genus", "--chi",
    "--loop", "--signature", fixture_path("E1"), fixture_path("sl2z-amalgam"),
    os.path.join(GOLDEN, "no-such-input.json"),
)


@st.composite
def command_lines(draw):
    """A valid command line with up to three tokens dropped, replaced or
    inserted, or the empty command line."""
    argv = list(draw(st.sampled_from(COMMAND_LINES + ([],))))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("drop", "replace", "insert")))
        if op == "insert" or not argv:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ARGUMENTS)))
            continue
        i = draw(st.integers(0, len(argv) - 1))
        if op == "drop":
            del argv[i]
        else:
            argv[i] = draw(st.sampled_from(ARGUMENTS))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_command_line(argv):
    _run(argv)
