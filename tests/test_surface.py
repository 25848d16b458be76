"""Every name the package exports has a caller: the package's own modules,
the benchmark or the README use it.  A name only its own tests call is
surface to delete, not to keep."""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "eteleport"


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _caller_texts() -> list[str]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources = modules + sorted((REPO / "perfbench").glob("*.py")) + [REPO / "README.md"]
    return [p.read_text() for p in sources]


TEXTS = _caller_texts()


@pytest.mark.parametrize("name", _exported_names())
def test_exported_name_has_a_caller(name):
    word = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
    own_definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    used = any(
        word.search(line) and not own_definition.match(line)
        for text in TEXTS
        for line in text.splitlines()
    )
    assert used, f"{name} is exported but nothing in the package, perfbench or README uses it"
