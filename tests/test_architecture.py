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


def _uses(node: ast.AST, in_loop: bool = False, scope: tuple = ()):
    """``(name, line, in_loop, called, scope)`` for every name the code under
    ``node`` calls, reads or imports: the function of a call (``called``), a
    name, an attribute, the last part of an imported name, and the full
    dotted name of an absolute import (its module too, for ``from ...
    import``); ``in_loop`` when a loop or comprehension encloses it, and
    ``scope`` the class and function definitions that enclose it,
    outermost first."""
    in_loop = in_loop or isinstance(node, _LOOPS)
    if isinstance(node, ast.Call) and _called(node):
        yield _called(node), node.lineno, in_loop, True, scope
    if isinstance(node, ast.Name):
        yield node.id, node.lineno, in_loop, False, scope
    elif isinstance(node, ast.Attribute):
        yield node.attr, node.lineno, in_loop, False, scope
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], node.lineno, in_loop, False, scope
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name, node.lineno, in_loop, False, scope
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        yield node.module, node.lineno, in_loop, False, scope
        for alias in node.names:
            yield f"{node.module}.{alias.name}", node.lineno, in_loop, False, scope
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = scope + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, in_loop, scope)


def _functions(scope: tuple) -> list[str]:
    """The names of the functions of ``scope``, outermost first."""
    return [d.name for d in scope if not isinstance(d, ast.ClassDef)]


def _outermost(scope: tuple) -> str:
    """``scope`` down to its outermost function, as ``Class.function``;
    ``""`` at module level."""
    names = []
    for d in scope:
        names.append(d.name)
        if not isinstance(d, ast.ClassDef):
            break
    return ".".join(names)


def _in_a_loop(name: str, module: str, scope: tuple, in_loop: bool, called: bool) -> bool:
    return in_loop and called


# the functions through which coefficients reach the mark quadrature: the
# per-state cache of the engine's drift, and the quadrature's own two entries
_QUADRATURE_CALLERS = {"sde_engine.py:_effective_drift",
                       "poisson_measure.py:compensated_integral",
                       "poisson_measure.py:MarkQuadrature.integrate"}

# the functions that may open a stream per path in a loop
_STREAM_LOOPS = {"poisson_measure.py:simulate_configurations", "rng.py:_sub_seeds"}

# rule -> (names, which use of one breaks it, given the name, its module, its
# scope, whether a loop encloses it and whether it is called, what the use is,
# what to do instead); each batched entry point does the work of a loop in one
# call
_RULES = {
    "one SDE integrator": (
        {"_rk4_step", "_regular_grid"},
        lambda name, module, scope, in_loop, called: module != "sde_engine.py",
        "integrator internals used outside sde_engine.py",
        "solve paths through solve_sde, not a second RK4 loop"),
    "one batched simulation per loop of paths": (
        {"simulate_configuration", "simulate"}, _in_a_loop,
        "one-path simulation inside a loop",
        "draw the paths of a loop in one simulate_configurations call"),
    # a loop of paths derives its sub-seeds in one path_seeds pass; only the
    # batched simulation opens one stream per path, and path_seeds opens one
    # only for an index whose word Lemire's map rejects (probability 2**-62)
    "one sub-seed pass per loop of paths": (
        {"stream", "path_seeds"},
        lambda name, module, scope, in_loop, called: in_loop and called and (
            name == "path_seeds" or f"{module}:{_outermost(scope)}" not in _STREAM_LOOPS),
        "a stream or path_seeds call inside a loop",
        "derive the sub-seeds of a loop of paths in one path_seeds call"),
    # every generator is opened at a (seed, domain, index, subindex) address,
    # keyed without OS entropy
    "one stream constructor": (
        {"Philox", "Generator", "SeedSequence", "default_rng"},
        lambda name, module, scope, in_loop, called: called and module != "rng.py",
        "a bit generator or Generator built outside rng.py",
        "open every stream with rng.stream"),
    "one Gamma assembly from flows": (
        {"gamma_flow"}, _in_a_loop,
        "gamma_flow inside a loop",
        "assemble the Gamma of many paths in one stacked pass per chunk"),
    "one gammas call per sweep": (
        {"gammas"}, _in_a_loop,
        "gammas inside a loop",
        "solve the levels of a sweep in one Scenario.sweep_gammas call"),
    "one mark-space quadrature": (
        {"scipy.integrate"},
        lambda name, module, scope, in_loop, called: not _functions(scope),
        "scipy.integrate is imported outside a function",
        "scipy.integrate must be imported in exactly one function"),
    # the points of a stage, or the time nodes of a pass, are integrated in
    # one MarkQuadrature.integrate_each call, not one integrate each
    "one quadrature pass per stage": (
        {"integrate"}, _in_a_loop,
        ".integrate( inside a loop",
        "integrate the points of a loop in one integrate_each call"),
    "one compensator quadrature": (
        {"integrate_each"},
        lambda name, module, scope, in_loop, called:
            f"{module}:{_outermost(scope)}" not in _QUADRATURE_CALLERS,
        "integrate_each outside the compensator quadratures",
        "integrate coefficients through _effective_drift, not integrate_each"),
    # the particle sweeps and the tagged path take their coefficients from
    # _mean_field_coefficients
    "one mean-field coefficient set": (
        {"CoefficientSet"},
        lambda name, module, scope, in_loop, called:
            called and module == "scenarios.py" and "mckean_vlasov" in _functions(scope),
        "CoefficientSet built inside mckean_vlasov",
        "build the mean-field coefficients with _mean_field_coefficients"),
    # a stage's flow products are two calls over the whole batch, by run or by
    # path (sde_engine._flow_products), not a Python loop of smaller products
    "one flow product per stage": (
        {"matmul"},
        lambda name, module, scope, in_loop, called:
            module == "sde_engine.py" and in_loop and called,
        "matmul inside a loop in sde_engine.py",
        "take the products of every run or path in one matmul over the batch"),
    # the sharps of a block of draw sets, and of one draw set, come from one kernel
    "one randomised-gradient kernel": (
        {"einsum"},
        lambda name, module, scope, in_loop, called:
            called and (module, _functions(scope)[-1:]) != ("lent_particle.py", ["_sharps"]),
        "einsum outside lent_particle._sharps",
        "contract the draws with lent_particle._sharps, not another einsum"),
}


def _assert_holds(rule: str) -> set[str]:
    """Assert that no use of the rule's names breaks it, and return the
    places of every use, as ``module:Class.function``."""
    names, breaks, what, instead = _RULES[rule]
    uses = [(path.name, line, scope, breaks(name, path.name, scope, in_loop, called))
            for path in sorted(_PACKAGE.glob("*.py"))
            for name, line, in_loop, called, scope in _uses(ast.parse(path.read_text()))
            if name in names]
    found = sorted({f"{module}:{line}" for module, line, _, broken in uses if broken})
    assert not found, f"{what} at {found}: {instead}"
    return {f"{module}:{'.'.join(d.name for d in scope)}" for module, _, scope, _ in uses}


def test_one_sde_integrator():
    _assert_holds("one SDE integrator")


def test_one_batched_simulation_per_loop_of_paths():
    _assert_holds("one batched simulation per loop of paths")


def test_one_sub_seed_pass_per_loop_of_paths():
    _assert_holds("one sub-seed pass per loop of paths")


def test_one_stream_constructor():
    _assert_holds("one stream constructor")


def test_one_gamma_assembly_from_flows():
    _assert_holds("one Gamma assembly from flows")


def test_one_gammas_call_per_sweep():
    _assert_holds("one gammas call per sweep")


def test_one_mark_space_quadrature():
    places = _assert_holds("one mark-space quadrature")
    assert len(places) == 1, (f"scipy.integrate is imported in {sorted(places)}: "
                              "scipy.integrate must be imported in exactly one function")


def test_one_quadrature_pass_per_stage():
    _assert_holds("one quadrature pass per stage")


def test_one_compensator_quadrature():
    _assert_holds("one compensator quadrature")


def test_one_mean_field_coefficient_set():
    _assert_holds("one mean-field coefficient set")


def test_one_randomised_gradient_kernel():
    _assert_holds("one randomised-gradient kernel")


def test_one_flow_product_per_stage():
    _assert_holds("one flow product per stage")
