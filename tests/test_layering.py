"""Package modules use only each other's public names."""

import ast
from pathlib import Path

import oqsim

MODULES = sorted(Path(oqsim.__file__).parent.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES}


def private_imports(source: str):
    """(line, module, name) for each underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            sibling = node.level > 0 or module == "oqsim" or module.startswith("oqsim.")
            if sibling:
                found += [
                    (node.lineno, module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return found


def test_guard_catches_a_private_import():
    text = "from .engine import Trajectory, _reduced\nfrom oqsim.qmath import _x\n"
    assert private_imports(text) == [(1, "engine", "_reduced"), (2, "oqsim.qmath", "_x")]
    assert private_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_private_name_from_a_sibling():
    assert {"engine", "analysis", "cli"} <= SIBLINGS
    bad = {
        path.name: private_imports(path.read_text(encoding="utf-8"))
        for path in MODULES
    }
    assert {name: hits for name, hits in bad.items() if hits} == {}
