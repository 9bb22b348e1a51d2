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


def _swaps_last_axes(node: ast.AST) -> bool:
    """Whether ``node`` is ``x.mT``, ``x.swapaxes(-1, -2)`` (either order) or
    ``x.transpose(0, ..., k - 1, k - 2)``: a view with its last two axes swapped."""
    if isinstance(node, ast.Attribute):
        return node.attr == "mT"
    if not isinstance(node, ast.Call) or _called(node) not in ("transpose", "swapaxes"):
        return False
    try:
        axes = [ast.literal_eval(arg) for arg in node.args]
    except ValueError:
        return False
    if _called(node) == "swapaxes":
        return sorted(axes[-2:]) == [-2, -1]
    axes = list(axes[0]) if len(axes) == 1 and isinstance(axes[0], tuple) else axes
    return len(axes) > 2 and axes == list(range(len(axes) - 2)) + [len(axes) - 1, len(axes) - 2]


# the name _uses gives a product (``@`` or ``matmul``) of such a view
_SWAPPED_OPERAND = "a matmul operand with its last two axes swapped"


def _indexes_rows(node: ast.AST) -> bool:
    """Whether ``node`` is ``x.reshape(...)[index]``, with an index that is not
    all slices, of a reshape that may keep two or more axes: any but a single
    literal size.  numpy copies the rows of such a reshape element by element."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
            and _called(node.value) == "reshape"):
        return False
    args = node.value.args
    size = args[0] if len(args) == 1 else None
    if isinstance(size, ast.Tuple) and len(size.elts) == 1:
        size = size.elts[0]
    if isinstance(size, ast.UnaryOp):
        size = size.operand
    parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return not isinstance(size, ast.Constant) and not all(
        isinstance(part, ast.Slice) or getattr(part, "value", None) is Ellipsis for part in parts)


# the name _uses gives a load from or store to such a subscript
_ROW_INDEX = "an advanced index into the rows of a reshape"


def _uses(node: ast.AST, in_loop: bool = False, scope: tuple = ()):
    """``(name, line, in_loop, called, scope)`` for every name the code under
    ``node`` calls, reads or imports: the function of a call (``called``), a
    name, an attribute, the last part of an imported name, the full dotted
    name of an absolute import (its module too, for ``from ... import``), and
    :data:`_SWAPPED_OPERAND` for a product with a swapped operand (as a
    call) and :data:`_ROW_INDEX` for an advanced index into the rows of a
    reshape; ``in_loop`` when a loop or comprehension encloses it, and
    ``scope`` the class and function definitions that enclose it,
    outermost first."""
    in_loop = in_loop or isinstance(node, _LOOPS)
    if isinstance(node, ast.Call) and _called(node):
        yield _called(node), node.lineno, in_loop, True, scope
    operands = ([node.left, node.right] if isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult) else
                node.args if isinstance(node, ast.Call) and _called(node) == "matmul" else [])
    if any(_swaps_last_axes(operand) for operand in operands):
        yield _SWAPPED_OPERAND, node.lineno, in_loop, True, scope
    if _indexes_rows(node):
        yield _ROW_INDEX, node.lineno, in_loop, False, scope
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
_STREAM_LOOPS = {"poisson_measure.py:_simulate_table", "rng.py:_sub_seeds"}

def _declared(tree: ast.AST, attr: str, value) -> set[str]:
    """The names that ``tree`` gives ``name.attr = value``, chained or not."""
    return {target.value.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and node.value.value is value
            for target in node.targets if isinstance(target, ast.Attribute)
            and target.attr == attr and isinstance(target.value, ast.Name)}


def _out_writer_duties(tree: ast.AST) -> set[str]:
    """The functions that a ``CoefficientSet`` of ``tree`` binds as its
    compensator (``compensator=_Bound(fn, p)``) or ships as its ``c`` beside
    a ``dx_c`` declared state-free: a solve calls each of them every stage or
    jump row, so each must write into the solve's buffer."""
    free = _declared(tree, "reads_time", False) & _declared(tree, "reads_state", False)
    duties = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "CoefficientSet":
            fields = {keyword.arg: keyword.value for keyword in node.keywords}
            comp, c = fields.get("compensator"), fields.get("c")
            if isinstance(comp, ast.Call) and _called(comp) == "_Bound" \
                    and isinstance(comp.args[0], ast.Name):
                duties.add(comp.args[0].id)
            if isinstance(c, ast.Name) and getattr(fields.get("dx_c"), "id", None) in free:
                duties.add(c.id)
    return duties


_SCENARIOS = ast.parse((_PACKAGE / "scenarios.py").read_text())

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
    # numpy takes a stacked product with an operand whose last two axes are
    # swapped (a strided view) about three times as slowly, to the same bits
    "contiguous stacked products": (
        {_SWAPPED_OPERAND},
        lambda name, module, scope, in_loop, called: True,
        "a matmul operand that swaps its last two axes",
        "multiply by a contiguous copy, or fill the transpose next to the matrix"),
    # a shipped family's coefficients write into the solve's buffers; one
    # without writes_out would fall back to an allocating call
    "shipped coefficients write out": (
        _out_writer_duties(_SCENARIOS),
        lambda name, module, scope, in_loop, called:
            module == "scenarios.py" and name not in _declared(_SCENARIOS, "writes_out", True),
        "a shipped compensator or c that does not declare writes_out",
        "take an out array, write into it and declare fn.writes_out = True"),
    # numpy copies a row of several values by advanced indexing element by
    # element; np.take, np.compress and bottom_structure._put_rows move each
    # row whole, to the same bytes
    "rows move whole": (
        {_ROW_INDEX},
        lambda name, module, scope, in_loop, called:
            f"{module}:{_outermost(scope)}" != "bottom_structure.py:_put_rows",
        "an advanced index into the rows of a reshape that keeps two or more axes",
        "gather with np.take or np.compress along axis 0, scatter with _put_rows"),
    # every path of a chunk steps on every row, by zero past its last, so the
    # RK4 loop never drops finished paths out of the batch and its workspace
    "no batch compaction in the RK4 loop": (
        {"compress"},
        lambda name, module, scope, in_loop, called: called and module == "sde_engine.py",
        "a compress call in sde_engine.py",
        "step every path of a chunk on every row, by zero past its last"),
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


def test_shipped_coefficients_write_out():
    assert _out_writer_duties(_SCENARIOS)  # the shipped families are found
    _assert_holds("shipped coefficients write out")


def test_an_undeclared_out_writer_is_found():
    tree = ast.parse("f.reads_time = f.reads_state = False\ng.writes_out = True\n"
                     "CoefficientSet(c=g, dx_c=f, compensator=_Bound(h, 1.0))\n"
                     "CoefficientSet(c=k, dx_c=m, compensator=b)\n")
    assert _out_writer_duties(tree) == {"g", "h"}
    assert _out_writer_duties(tree) - _declared(tree, "writes_out", True) == {"h"}


def test_no_batch_compaction_in_the_rk4_loop():
    _assert_holds("no batch compaction in the RK4 loop")


def test_a_batch_compaction_is_found():
    names, breaks, *_ = _RULES["no batch compaction in the RK4 loop"]
    tree = ast.parse("for i in range(start, stop):\n"
                     "    np.compress(keep, y, axis=1, out=ws[0].array)\n")
    assert [line for name, line, in_loop, called, scope in _uses(tree) if name in names
            and breaks(name, "sde_engine.py", scope, in_loop, called)] == [2]


def test_rows_move_whole():
    _assert_holds("rows move whole")


def test_a_row_index_into_a_reshape_is_found():
    # the forms the rule replaced in scenarios._area_closed_path,
    # BottomStructure.weight and lent_particle._path_sums, a load that
    # indexes two axes, and ones it allows: one axis, and slices
    tree = ast.parse("steps.reshape(-1, 2)[2 * cell + 2] = marks\n"
                     "lefts = x.reshape(-1, 2)[2 * cell + 1]\n"
                     "out.reshape(-1, r * r)[rows] = np.multiply(half, 0.5, out=half).T\n"
                     "padded.reshape((-1,) + terms.shape[1:])"
                     "[counts.size * np.arange(len(terms)) + shift] = terms\n"
                     "a.reshape(n, 3)[k, 0]\n"
                     "grid.reshape(-1)[cell] = times\n"
                     "a.reshape((-1,))[k]\n"
                     "a.reshape(-1, 2)[:, 1::2]\n"
                     "a.reshape(n, 3)[..., :2]\n")
    assert [line for name, line, *_ in _uses(tree) if name == _ROW_INDEX] == [1, 2, 3, 4, 5]


def test_contiguous_stacked_products():
    _assert_holds("contiguous stacked products")


def test_a_swapped_matmul_operand_is_found():
    tree = ast.parse("a @ b.transpose(0, 2, 1)\nnp.matmul(a, b.swapaxes(-1, -2))\n"
                     "a @ b.mT\nnp.matmul(a, b.transpose((0, 1, 3, 2)))\n"
                     "a @ b.transpose(0, 2, 1, 3)\na @ b.transpose(1, 0, 2)\n"
                     "a @ b.transpose(0, 2, 1).copy()\nb.transpose(0, 2, 1) + a\n")
    assert [line for name, line, *_ in _uses(tree) if name == _SWAPPED_OPERAND] == [1, 2, 3, 4]
