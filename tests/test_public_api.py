"""Every public function of the package has a user outside the tests."""

import ast
import inspect
from pathlib import Path

import kickres

ROOT = Path(__file__).resolve().parents[1]
USERS = (
    ROOT / "src" / "kickres" / "cli.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "demos").glob("*.py")),
)


def _referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_is_used_by_the_cli_a_demo_or_the_gate():
    # classes are exempt: they are the return types of the functions
    used = set().union(*map(_referenced_names, USERS))
    unused = [
        name
        for name in kickres.__all__
        if inspect.isfunction(getattr(kickres, name)) and name not in used
    ]
    assert unused == []
