"""Every name the package exports has a caller: the package's own modules,
the benchmark or the README use it.  Every module-level name of the
package (a function, class or constant, private or public) and every
public method or property of its classes has a caller in the package or
the benchmark, outside its own definition.  A name only its own tests call
is surface to delete, not to keep."""

import ast
import re
from pathlib import Path

import pytest

import eteleport

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "eteleport"


def _exported_names() -> list[str]:
    """The names of the package's export table (importing the package loads
    none of its modules)."""
    return list(eteleport._EXPORTS)


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


def _definitions() -> list[tuple[Path, str, int, int, ast.AST]]:
    """(module, name, first line, last line, node) of each module-level
    function, class and constant of the package."""
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
            found += [(path, name, node.lineno, node.end_lineno, node) for name in names]
    return found


def _private_definitions() -> list:
    """Each module-level private name (`_x`, not a dunder), as test parameters."""
    return [
        pytest.param(path, name, first, last, id=f"{path.stem}.{name}")
        for path, name, first, last, _ in _definitions()
        if name.startswith("_") and not name.startswith("__")
    ]


def _public_definitions() -> list:
    """Each public module-level name, called by its word, and each public
    method or property of a package class (no dunders, no dataclass
    fields), called as `.name`, as test parameters."""
    found = []
    for path, name, first, last, node in _definitions():
        if name.startswith("_"):
            continue
        pattern = rf"(?<!\w){re.escape(name)}(?!\w)"
        found.append(pytest.param(path, pattern, first, last, id=f"{path.stem}.{name}"))
        for method in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                pattern = rf"\.{re.escape(method.name)}(?!\w)"
                span = (method.lineno, method.end_lineno)
                label = f"{path.stem}.{name}.{method.name}"
                found.append(pytest.param(path, pattern, *span, id=label))
    return found


SOURCES = {
    path: path.read_text().splitlines()
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((REPO / "perfbench").glob("*.py"))]
}


def _called(pattern: str, path: Path, first: int, last: int) -> bool:
    """Whether the pattern occurs in the package or perfbench outside lines
    first..last of path; an entry of the export table in `__init__.py` is
    no call, so `__init__.py` counts only for its own names."""
    word = re.compile(pattern)
    return any(
        word.search(line)
        for source, lines in SOURCES.items()
        if source.name != "__init__.py" or source == path
        for number, line in enumerate(lines, start=1)
        if not (source == path and first <= number <= last)
    )


@pytest.mark.parametrize("path, name, first, last", _private_definitions())
def test_private_name_has_a_caller(path, name, first, last):
    used = _called(rf"(?<!\w){re.escape(name)}(?!\w)", path, first, last)
    assert used, f"{path.name}: {name} is private and nothing in the package or perfbench uses it"


@pytest.mark.parametrize("path, pattern, first, last", _public_definitions())
def test_public_name_has_a_caller(path, pattern, first, last):
    assert _called(pattern, path, first, last), (
        f"{path.name}: nothing in the package or perfbench uses {pattern}"
    )
