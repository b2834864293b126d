"""The public API holds only names that the program itself uses.

A name in ``isocut.__all__`` must be imported by a library module other than
``__init__.py`` or by the benchmark, or be used in its own module outside its
own definition. A function that only the tests call belongs in the tests.
"""

import ast
from pathlib import Path

import isocut

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "isocut"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(paths):
    return {
        alias.name
        for path in paths
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used_outside_definition(name, module):
    tree = parse(SRC / f"{module}.py")
    inside = {
        id(node)
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == name
        for node in ast.walk(top)
    }
    return any(
        isinstance(node, ast.Name) and node.id == name and id(node) not in inside
        for node in ast.walk(tree)
    )


def test_every_public_name_has_a_program_caller():
    program = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers = imported_names(program + list((ROOT / "bench").glob("*.py")))
    unused = [
        name
        for name in isocut.__all__
        if name not in callers
        and not used_outside_definition(name, getattr(isocut, name).__module__.rpartition(".")[2])
    ]
    assert unused == []
