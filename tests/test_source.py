"""Source guards on the twistlab package.

No floating point: every module under ``src/twistlab`` is parsed with
``ast``; a ``float`` name, a float or complex literal, or a ``math``
function other than ``gcd`` and ``lcm`` fails the test.

No unreached code: every top-level function and class of a module must be
named outside its own definition, in another module of the package (its
``__init__`` aside), in the benchmark's ``perfbench/*.py`` or in the
acceptance criteria.  Methods are out of scope, and code that only tests
use belongs in ``tests/conftest.py``.
"""
import ast
import glob
import os
import re
from collections import Counter

import pytest

import twistlab

PACKAGE = os.path.dirname(twistlab.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
MATH_ALLOWED = {"gcd", "lcm"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REACHING = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))) + [
    os.path.join(ROOT, "tests", "test_acceptance.py")
]
# the inverse halves of the schema readers and writers that the CLI uses:
# the round-trip tests compare against them
UNREACHED_ALLOWED = {"factorization_to_dict", "presentation_to_dict", "curve_system_from_dict"}
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def float_uses(source: str):
    """(line, what) of each floating-point use in the source."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "float":
            hits.append((node.lineno, "float"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hits.append((node.lineno, repr(node.value)))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in MATH_ALLOWED
        ):
            hits.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            hits.extend(
                (node.lineno, f"math.{a.name}") for a in node.names if a.name not in MATH_ALLOWED
            )
    return hits


def test_guard_sees_each_kind():
    source = "from math import sqrt, gcd\nx = 1.5\ny = math.pi + math.gcd(4, 6)\ndef f() -> float: ...\n"
    assert sorted(float_uses(source)) == [
        (1, "math.sqrt"), (2, "1.5"), (3, "math.pi"), (4, "float"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_float(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert float_uses(fh.read()) == []


def unreached(sources: list, elsewhere: str) -> list:
    """Names of the top-level functions and classes defined in `sources`
    that no line outside their own definition names, neither in `sources`
    nor in the text `elsewhere`."""
    named = Counter(IDENTIFIER.findall("\n".join([elsewhere, *sources])))
    hits = []
    for source in sources:
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own = IDENTIFIER.findall("\n".join(lines[first - 1:node.end_lineno]))
                if named[node.name] == own.count(node.name):
                    hits.append(node.name)
    return hits


def test_reach_guard_sees_each_kind():
    sources = [
        "def used():\n    return 1\n\ndef idle():\n    return idle()\n",
        "@decorated\nclass Named:\n    x = used()\n",
    ]
    assert unreached(sources, "") == ["idle", "Named"]
    assert unreached(sources, "'Named'") == ["idle"]


def test_every_definition_is_reached():
    def read(path):
        with open(path) as fh:
            return fh.read()

    sources = [read(os.path.join(PACKAGE, name)) for name in MODULES if name != "__init__.py"]
    elsewhere = "\n".join(map(read, REACHING))
    assert set(unreached(sources, elsewhere)) == UNREACHED_ALLOWED
