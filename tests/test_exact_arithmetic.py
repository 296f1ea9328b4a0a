"""No floating point in a verification path: the modules that compute and
compare invariants hold no float literal, no float() call, no true division
and no `math` function outside the integer ones."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fanocheck"
INTEGER_MATH = {"gcd", "comb", "isqrt", "lcm", "prod", "factorial"}


def float_uses(source: str) -> list[str]:
    """Each use of floating point in source, as "line: what"."""
    tree = ast.parse(source)
    math_modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"{node.lineno}: float()")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: true division")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{node.lineno}: math.{alias.name}"
                for alias in node.names
                if alias.name not in INTEGER_MATH
            ]
        elif (
            isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) in math_modules
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"{node.lineno}: math.{node.attr}")
    return found


@pytest.mark.parametrize("module", ["lattice", "invariants", "identity", "diamond"])
def test_no_floating_point(module):
    assert float_uses((SRC / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, use",
    [
        ("x = 0.5", "1: literal 0.5"),
        ("x = 1e3", "1: literal 1000.0"),
        ("x = 2j", "1: literal 2j"),
        ("x = float(y)", "1: float()"),
        ("x = a / b", "1: true division"),
        ("x /= 2", "1: true division"),
        ("from math import gcd, sqrt", "1: math.sqrt"),
        ("from math import *", "1: math.*"),
        ("import math as m\nx = m.log(2)", "2: math.log"),
    ],
)
def test_each_float_use_is_found(source, use):
    assert float_uses(source) == [use]


def test_integer_arithmetic_passes():
    assert float_uses("import math\nfrom math import comb\nx = math.gcd(a // b, comb(4, 2))") == []
