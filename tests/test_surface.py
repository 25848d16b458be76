"""Every name the package exports has a caller: the package's own modules,
the benchmark or the README use it.  Every module-level private name (a
`_x` function, class or constant) has a caller in the package or the
benchmark.  A name only its own tests call is surface to delete, not to
keep."""

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


def _private_definitions() -> list:
    """(module, name, first line, last line) of each module-level private
    function, class and constant of the package, as test parameters."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    span = (node.lineno, node.end_lineno)
                    found.append(pytest.param(path, name, *span, id=f"{path.stem}.{name}"))
    return found


SOURCES = {
    path: path.read_text().splitlines()
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((REPO / "perfbench").glob("*.py"))]
}


@pytest.mark.parametrize("path, name, first, last", _private_definitions())
def test_private_name_has_a_caller(path, name, first, last):
    word = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
    used = any(
        word.search(line)
        for source, lines in SOURCES.items()
        for number, line in enumerate(lines, start=1)
        if not (source == path and first <= number <= last)
    )
    assert used, f"{path.name}: {name} is private and nothing in the package or perfbench uses it"
