"""Every name the package exports has a caller: the package's own modules,
the benchmark or the README use it.  Every module-level name of the
package (a function, class or constant, private or public) and every
public method or property of its classes has a caller in the package or
the benchmark, outside its own definition.  A caller is code: a `Name` or
`Attribute` node of the syntax tree, f-string expressions included, never
a comment, a docstring or another string.  A name only its own tests call
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


def _uses(path: Path) -> list[tuple[str, str, int]]:
    """("name" or "attr", identifier, line) of each `Name` and `Attribute`
    node of a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.append(("name", node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append(("attr", node.attr, node.lineno))
    return found


# an entry of the export table in `__init__.py` is a string, no call
USES = {
    path: _uses(path)
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((REPO / "perfbench").glob("*.py"))]
}
README = (REPO / "README.md").read_text()


@pytest.mark.parametrize("name", _exported_names())
def test_exported_name_has_a_caller(name):
    used = any(name == ident for uses in USES.values() for _, ident, _ in uses) or re.search(
        rf"(?<!\w){re.escape(name)}(?!\w)", README
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
    """Each public module-level name, called as a name or an attribute, and
    each public method or property of a package class (no dunders, no
    record fields), called as an attribute, as test parameters."""
    found = []
    for path, name, first, last, node in _definitions():
        if name.startswith("_"):
            continue
        kinds = ("name", "attr")
        found.append(pytest.param(path, name, kinds, first, last, id=f"{path.stem}.{name}"))
        for method in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                span = (method.lineno, method.end_lineno)
                label = f"{path.stem}.{name}.{method.name}"
                found.append(pytest.param(path, method.name, ("attr",), *span, id=label))
    return found


def _called(name: str, kinds: tuple[str, ...], path: Path, first: int, last: int) -> bool:
    """Whether a node of one of the kinds reads the name in the package or
    perfbench outside lines first..last of path."""
    return any(
        used == name and kind in kinds and not (source == path and first <= line <= last)
        for source, uses in USES.items()
        for kind, used, line in uses
    )


@pytest.mark.parametrize("path, name, first, last", _private_definitions())
def test_private_name_has_a_caller(path, name, first, last):
    used = _called(name, ("name", "attr"), path, first, last)
    assert used, f"{path.name}: {name} is private and nothing in the package or perfbench uses it"


@pytest.mark.parametrize("path, name, kinds, first, last", _public_definitions())
def test_public_name_has_a_caller(path, name, kinds, first, last):
    assert _called(name, kinds, path, first, last), (
        f"{path.name}: nothing in the package or perfbench uses {name}"
    )
