"""Rules on which module of the package may use what."""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lentparticle"


def _imported_modules(tree: ast.AST):
    """The absolute module names an ``import`` or ``from ... import`` of
    ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_serialiser_imports_csv():
    # every output file gets its number format from _serialise.write_csv
    modules = sorted(_PACKAGE.glob("*.py"))
    assert _PACKAGE / "_serialise.py" in modules
    found = [path.name for path in modules if path.name != "_serialise.py"
             and any(name.partition(".")[0] == "csv"
                     for name in _imported_modules(ast.parse(path.read_text())))]
    assert found == [], f"csv imported outside _serialise.py by {found}"


# the one-path simulators: a loop over paths draws them in one
# simulate_configurations call instead
_ONE_PATH = {"simulate_configuration", "simulate"}
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _called(node: ast.Call):
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_one_batched_simulation_per_loop_of_paths():
    found = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text())):
            if isinstance(loop, _LOOPS):
                found.update(f"{path.name}:{node.lineno}" for node in ast.walk(loop)
                             if isinstance(node, ast.Call) and _called(node) in _ONE_PATH)
    assert not found, (f"one-path simulation inside a loop at {sorted(found)}: draw the paths "
                       "of a loop in one simulate_configurations call")
