"""One number policy: only potential.py tests whether a value is a number.

potential.py's _check_int and _check_real decide what an integer and a
real number are (a bool is neither, a numpy scalar is one, an int past
the float range is infinite) for every library argument and config
field.  A module that tested isinstance(value, int) itself would fork
that policy, as the config parser's own checks once did.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kickres"
# builtin, numpy and numbers-module names of number types
NUMBER_TYPES = {
    "bool", "int", "float", "complex",
    "integer", "floating", "inexact", "number",
    "Integral", "Real", "Number",
}


def _number_type_tests(path):
    """"file:line type" of every isinstance(value, T) in ``path`` whose
    T, or one member of a tuple T, is a number type."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            name = getattr(kind, "id", getattr(kind, "attr", None))
            if name in NUMBER_TYPES:
                yield f"{path.name}:{node.lineno} {name}"


def test_only_potential_tests_number_types():
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        if path.name != "potential.py"
        for hit in _number_type_tests(path)
    ]
    assert found == []


def test_the_guard_sees_the_checks_it_guards():
    found = " ".join(_number_type_tests(SRC / "potential.py"))
    for name in ("bool", "int", "float", "integer", "floating"):
        assert f" {name}" in found
