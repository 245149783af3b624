"""Public-API guard: every name edsim exports has a user outside the tests.

A name counts as used when it appears in a package module other than
__init__.py (its own top-level definition cut out), in a demo or in the
README. A function that only tests call is a second path the package
does not need; it belongs in the tests or nowhere.
"""

import ast
import re
from pathlib import Path

import edsim

ROOT = Path(__file__).resolve().parents[1]


def _without_definition(source, name):
    """source with the top-level def, class or assignment of name removed."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = node.name == name
        elif isinstance(node, ast.Assign):
            defined = any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
        else:
            continue
        if defined:
            lines = source.splitlines()
            del lines[node.lineno - 1:node.end_lineno]
            return "\n".join(lines)
    return source


def _used(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    modules = [p for p in (ROOT / "src" / "edsim").glob("*.py") if p.name != "__init__.py"]
    if any(word.search(_without_definition(p.read_text(), name)) for p in modules):
        return True
    others = [*(ROOT / "demos").glob("*.py"), ROOT / "README.md"]
    return any(word.search(p.read_text()) for p in others)


def test_every_export_has_a_user():
    unused = [name for name in edsim.__all__ if not _used(name)]
    assert unused == []
