"""Tiny arithmetic expression language for run-configuration files.

Grammar: numbers, named variables, ``+ - * / ^`` (both ``^`` and ``**``
denote powers), unary minus, ``abs(e)``, ``min(e1, e2, ...)`` and the
radial indicator ``ind(a)`` which evaluates to 1 when the current mark
vector satisfies ``|u| < a`` and 0 otherwise.

Expressions are parsed with :mod:`ast`, checked against a node whitelist
(no attribute access, no subscripts, no arbitrary calls) and compiled once
to numpy code that evaluates a whole batch of points per call, with the
variables bound to the batch's columns: :func:`compile_coefficient` and
:func:`compile_jacobians` for jump coefficients, :func:`compile_mark_functions`
for functions of the mark alone.  The Jacobians are derived from the syntax
tree, with the conventions ``d abs(e) = sign(e) de``
(0 at a kink), ``d min(e1, ...)`` = the derivative of the first minimal
argument, ``d ind(a) = 0``, and the power rule for ``e^p`` with ``p`` free
of the differentiation variable.
"""

from __future__ import annotations

import ast
import functools
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

__all__ = ["compile_coefficient", "compile_jacobians", "compile_mark_functions", "float_pow"]

# call name -> required argument count (None: two or more)
_ALLOWED_CALLS = {"abs": 1, "min": None, "ind": 1}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Load,
)

# An expression is refused beyond this many characters, before it is parsed,
# or when its syntax tree nests deeper than _MAX_DEPTH nodes: a flat sum of n
# terms nests n deep, and parsing, compiling and differentiating recurse once
# or more per level (Python's limit is 1,000 frames).
_MAX_LENGTH = 2000
_MAX_DEPTH = 100


def _parse(src: str, variables: Sequence[str]) -> ast.Expression:
    src = src.replace("^", "**")
    if len(src) > _MAX_LENGTH:
        raise InputError(f"expression of {len(src)} characters, more than {_MAX_LENGTH}")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {src!r}: {exc.msg}") from None
    layer, depth = [tree.body], 0  # the nodes at each depth in turn
    while layer:
        layer, depth = [child for node in layer for child in ast.iter_child_nodes(node)], depth + 1
    if depth > _MAX_DEPTH:
        raise InputError(f"expression nests deeper than {_MAX_DEPTH} levels")
    known = set(variables) | set(_ALLOWED_CALLS)
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise InputError(
                f"expression {src!r}: construct {type(node).__name__} not allowed"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise InputError(f"expression {src!r}: only numeric literals allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise InputError(f"expression {src!r}: only abs/min/ind calls allowed")
            if node.keywords:
                raise InputError(f"expression {src!r}: keyword arguments not allowed")
            arity = _ALLOWED_CALLS[node.func.id]
            n_args = len(node.args)
            if (n_args != arity) if arity else (n_args < 2):
                raise InputError(
                    f"expression {src!r}: {node.func.id} takes "
                    f"{arity or 'two or more'} argument(s), got {n_args}"
                )
        if isinstance(node, ast.Name) and node.id not in known:
            raise InputError(
                f"expression {src!r}: unknown name {node.id!r} "
                f"(available: {', '.join(sorted(known))})"
            )
    return tree


# ---------------------------------------------------------------------------
# numpy evaluation over a batch of marks
# ---------------------------------------------------------------------------

def _select_min(values: tuple, derivatives: tuple) -> np.ndarray:
    """Derivative of ``min(values)``: that of the first minimal argument."""
    arrays = np.broadcast_arrays(*values, *derivatives)
    k = len(values)
    pick = np.argmin(np.stack(arrays[:k]), axis=0)
    return np.take_along_axis(np.stack(arrays[k:]), pick[None], axis=0)[0]


_python_pow = np.frompyfunc(operator.pow, 2, 1)


def float_pow(base, exponent) -> np.ndarray:
    """Elementwise ``base ** exponent`` in Python floats (the C library's ``pow``).

    numpy's ``power`` (``x * x`` for a square, vector code otherwise) differs
    from it in the last bit on about one value in a thousand.  Raises
    ``ZeroDivisionError`` for zero to a negative power, ``OverflowError``
    when a result overflows and ``ValueError`` for a complex result (a
    fractional power of a negative number).
    """
    try:
        return np.asarray(_python_pow(base, exponent), dtype=float)
    except TypeError:
        raise ValueError("complex result") from None


_NUMPY_NAMESPACE = {
    "__builtins__": {},
    "abs": np.abs,
    "min": lambda *args: functools.reduce(np.minimum, args),
    "_sign": np.sign,
    "_log": np.log,
    "_select_min": _select_min,
    "_float_pow": float_pow,
}


class _FloatPow(ast.NodeTransformer):
    """Rewrite every ``a ** b`` as ``_float_pow(a, b)``."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("_float_pow", ast.Load()), [node.left, node.right], [])
        return node


def _batch_evaluator(bodies: Sequence[ast.AST | None], shape: tuple, label: str, d: int, r: int,
                     float_pow: bool = False):
    """Compile expression bodies (``None`` meaning 0) into ``f(t, x, u)``.

    ``t`` ``(P,)``, ``x`` ``(P, d)`` and ``u`` ``(P, r)`` are paired by row;
    ``x1..xd`` and ``u1..ur`` are bound to their columns, ``ind`` to the
    norms of the marks, and the result is ``(P, *shape)``.  The bodies are
    compiled as they are, sharing subtrees, except that with ``float_pow``,
    on trees of their own, powers are rewritten in place to go through
    :func:`float_pow`.  ``f.reads_time`` tells whether any body names ``t``.
    """
    body = ast.Expression(ast.Tuple([ast.Constant(0.0) if b is None else b for b in bodies],
                                    ast.Load()))
    body = _FloatPow().visit(body) if float_pow else body
    code = compile(ast.fix_missing_locations(body), "<expression>", "eval")
    names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
    size = int(np.prod(shape))
    x_names = [f"x{i + 1}" for i in range(d)]
    u_names = [f"u{j + 1}" for j in range(r)]

    def evaluate(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        marks = np.asarray(u, dtype=float)
        local = {"t": np.asarray(t, dtype=float)}
        local.update(zip(x_names, np.asarray(x, dtype=float).T))
        local.update(zip(u_names, np.ascontiguousarray(marks.T)))
        if "ind" in names:
            norm = np.sqrt(np.sum(marks * marks, axis=1))
            local["ind"] = lambda a: np.less(norm, a).astype(float)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                values = eval(code, _NUMPY_NAMESPACE, local)
        except (ZeroDivisionError, OverflowError, FloatingPointError, ValueError) as exc:
            raise InputError(f"expression {label!r}: {exc}") from None
        out = np.empty((marks.shape[0], size))
        for k, value in enumerate(values):
            out[:, k] = value
        return out.reshape((-1, *shape))

    evaluate.reads_time = "t" in names
    return evaluate


def _coefficient_trees(sources: Sequence[str], d: int, r: int) -> list[ast.AST]:
    """The syntax trees of the components; a refused one is named ``c_i``."""
    if len(sources) != d:
        raise InputError(f"need {d} component expressions, got {len(sources)}")
    names = ["t"] + [f"x{i + 1}" for i in range(d)] + [f"u{j + 1}" for j in range(r)]
    trees = []
    for i, src in enumerate(sources, 1):
        try:
            trees.append(_parse(src, names).body)
        except InputError as exc:
            raise InputError(f"c_{i}: {exc}") from None
    return trees


def compile_coefficient(sources: Sequence[str], d: int, r: int) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """Compile a jump coefficient ``c(t, x, u) -> R^d`` from ``d`` expressions.

    Variables are ``t``, ``x1 .. xd`` and ``u1 .. ur``.  ``c`` evaluates a
    batch of points paired by row, ``t`` ``(P,)``, ``x`` ``(P, d)`` and ``u``
    ``(P, r)``, giving ``(P, d)``.  ``c.reads_time`` is false when no
    expression names ``t``, and so are those of :func:`compile_jacobians`.
    An expression refused is named ``c_i``, counting from 1, as one longer
    than 2,000 characters or nesting deeper than 100 levels is.
    """
    trees = _coefficient_trees(sources, d, r)
    return _batch_evaluator(trees, (d,), "; ".join(sources), d, r)


def compile_mark_functions(sources: Sequence[str], r: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile functions of the mark, variables ``u1 .. ur``, into ``f(U)``.

    ``f`` evaluates a batch of marks ``U`` ``(n, r)`` and gives ``(n, len(sources))``,
    one column per expression.  Powers are taken by :func:`float_pow`, so
    they round as the same expression in Python floats does.
    """
    names = [f"u{j + 1}" for j in range(r)]
    trees = [_parse(src, names).body for src in sources]
    f = _batch_evaluator(trees, (len(trees),), "; ".join(sources), 0, r, float_pow=True)
    return lambda marks: f(np.zeros(len(marks)), np.zeros((len(marks), 0)), marks)


def compile_jacobians(sources: Sequence[str], d: int, r: int):
    """Exact Jacobians ``(dx_c, du_c)`` of :func:`compile_coefficient`'s ``c``.

    On the same batches as ``c``, ``dx_c(t, x, u)`` is ``(P, d, d)`` and
    ``du_c(t, x, u)`` is ``(P, d, r)``.  They are derived from the syntax
    tree; see the module notes for the conventions at kinks.
    """
    trees = _coefficient_trees(sources, d, r)
    label = "; ".join(sources)

    def jacobian(names: list[str]):
        bodies = [_derivative(tree, name) for tree in trees for name in names]
        return _batch_evaluator(bodies, (d, len(names)), label, d, r)

    return (jacobian([f"x{i + 1}" for i in range(d)]),
            jacobian([f"u{j + 1}" for j in range(r)]))


# ---------------------------------------------------------------------------
# symbolic differentiation; None stands for an identically zero derivative
# ---------------------------------------------------------------------------

def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def _add(a, b):
    if a is None:
        return b
    return a if b is None else ast.BinOp(a, ast.Add(), b)


def _sub(a, b):
    if b is None:
        return a
    return ast.UnaryOp(ast.USub(), b) if a is None else ast.BinOp(a, ast.Sub(), b)


def _mul(a, b):
    if a is None or b is None:
        return None
    if _is_one(a):
        return b
    return a if _is_one(b) else ast.BinOp(a, ast.Mult(), b)


def _div(a, b):
    return None if a is None else ast.BinOp(a, ast.Div(), b)


def _call(name: str, *args):
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _derivative(node: ast.AST, var: str):
    """Syntax tree of ``d node / d var``, or ``None`` when it is zero."""
    if isinstance(node, ast.Constant):
        return None
    if isinstance(node, ast.Name):
        return ast.Constant(1.0) if node.id == var else None
    if isinstance(node, ast.UnaryOp):
        inner = _derivative(node.operand, var)
        if inner is None or isinstance(node.op, ast.UAdd):
            return inner
        return ast.UnaryOp(ast.USub(), inner)
    if isinstance(node, ast.Call):
        name, args = node.func.id, node.args
        if name == "abs":
            return _mul(_call("_sign", args[0]), _derivative(args[0], var))
        if name == "min":
            parts = [_derivative(a, var) for a in args]
            if all(p is None for p in parts):
                return None
            zero = ast.Constant(0.0)
            return _call("_select_min", ast.Tuple(list(args), ast.Load()),
                         ast.Tuple([zero if p is None else p for p in parts], ast.Load()))
        return None  # ind: piecewise constant
    a, b, op = node.left, node.right, node.op
    da, db = _derivative(a, var), _derivative(b, var)
    if isinstance(op, ast.Add):
        return _add(da, db)
    if isinstance(op, ast.Sub):
        return _sub(da, db)
    if isinstance(op, ast.Mult):
        return _add(_mul(da, b), _mul(a, db))
    if isinstance(op, ast.Div):
        return _sub(_div(da, b), _div(_mul(a, db), ast.BinOp(b, ast.Mult(), b)))
    # a ** b: the power rule when b is free of var, plus a^b log(a) db otherwise
    power = _mul(_mul(b, ast.BinOp(a, ast.Pow(), ast.BinOp(b, ast.Sub(), ast.Constant(1.0)))), da)
    return _add(power, _mul(_mul(ast.BinOp(a, ast.Pow(), b), _call("_log", a)), db))
