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


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _called(node: ast.Call):
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _uses(node: ast.AST, in_loop: bool = False):
    """``(name, line, in_loop, called)`` for every name the code under ``node``
    calls, reads or imports: the function of a call (``called``), a name, an
    attribute and the last part of an imported name; ``in_loop`` when a loop
    or comprehension encloses it."""
    in_loop = in_loop or isinstance(node, _LOOPS)
    if isinstance(node, ast.Call) and _called(node):
        yield _called(node), node.lineno, in_loop, True
    if isinstance(node, ast.Name):
        yield node.id, node.lineno, in_loop, False
    elif isinstance(node, ast.Attribute):
        yield node.attr, node.lineno, in_loop, False
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], node.lineno, in_loop, False
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, in_loop)


def _in_a_loop(module: str, in_loop: bool, called: bool) -> bool:
    return in_loop and called


# rule -> (names, which use of one breaks it, what the use is, what to do
# instead); each batched entry point does the work of a loop in one call
_RULES = {
    "one SDE integrator": (
        {"_rk4_step", "_regular_grid"},
        lambda module, in_loop, called: module != "sde_engine.py",
        "integrator internals used outside sde_engine.py",
        "solve paths through solve_sde, not a second RK4 loop"),
    "one batched simulation per loop of paths": (
        {"simulate_configuration", "simulate"}, _in_a_loop,
        "one-path simulation inside a loop",
        "draw the paths of a loop in one simulate_configurations call"),
    "one Gamma assembly from flows": (
        {"gamma_flow"}, _in_a_loop,
        "gamma_flow inside a loop",
        "assemble the Gamma of many paths in one stacked pass per chunk"),
    "one gammas call per sweep": (
        {"gammas"}, _in_a_loop,
        "gammas inside a loop",
        "solve the levels of a sweep in one Scenario.sweep_gammas call"),
}


def _assert_holds(rule: str) -> None:
    names, breaks, what, instead = _RULES[rule]
    found = sorted({f"{path.name}:{line}" for path in sorted(_PACKAGE.glob("*.py"))
                    for name, line, in_loop, called in _uses(ast.parse(path.read_text()))
                    if name in names and breaks(path.name, in_loop, called)})
    assert not found, f"{what} at {found}: {instead}"


def test_one_sde_integrator():
    _assert_holds("one SDE integrator")


def test_one_batched_simulation_per_loop_of_paths():
    _assert_holds("one batched simulation per loop of paths")


def test_one_gamma_assembly_from_flows():
    _assert_holds("one Gamma assembly from flows")


def test_one_gammas_call_per_sweep():
    _assert_holds("one gammas call per sweep")
