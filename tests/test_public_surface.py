"""Every name ``lentparticle`` exports is used by the package itself or by
the acceptance gate, so a function that only tests reach is not exported."""

import ast
from pathlib import Path

import lentparticle

_PACKAGE = Path(lentparticle.__file__).resolve().parent
_GATE = Path(__file__).resolve().parent / "test_acceptance.py"


def _used_names(tree: ast.AST) -> set[str]:
    """The names the code of ``tree`` reads, imports or imports from.

    A ``def`` or ``class`` line binds its name without using it, and an
    ``__all__`` list, a docstring or a comment holds no name at all.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            names.add((node.module or "").rpartition(".")[2])
    return names


def test_every_export_is_used_by_the_package_or_the_acceptance_gate():
    used = set()
    for path in _PACKAGE.glob("*.py"):
        if path.name != "__init__.py":  # its imports only re-export
            used |= _used_names(ast.parse(path.read_text()))
    gate = {alias.name for node in ast.walk(ast.parse(_GATE.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module.startswith("lentparticle")
            for alias in node.names}
    unused = sorted(set(lentparticle.__all__) - used - gate)
    assert not unused, f"exported, but used only by tests: {unused}"
