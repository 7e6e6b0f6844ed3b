"""Source guard: no floating point anywhere in the twistlab package.

Every module under ``src/twistlab`` is parsed with ``ast``; a ``float``
name, a float or complex literal, or a ``math`` function other than
``gcd`` and ``lcm`` fails the test.
"""
import ast
import os

import pytest

import twistlab

PACKAGE = os.path.dirname(twistlab.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
MATH_ALLOWED = {"gcd", "lcm"}


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
