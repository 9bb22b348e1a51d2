"""Tiny arithmetic expression language for run-configuration files.

Grammar: numbers, named variables, ``+ - * / ^`` (both ``^`` and ``**``
denote powers), unary minus, ``abs(e)``, ``min(e1, e2, ...)`` and the
radial indicator ``ind(a)`` which evaluates to 1 when the current mark
vector satisfies ``|u| < a`` and 0 otherwise.

Expressions are parsed with :mod:`ast`, checked against a node whitelist
(no attribute access, no subscripts, no arbitrary calls) and compiled once;
evaluation is then a plain ``eval`` of the code object against a local
namespace, so per-call overhead stays low.
"""

from __future__ import annotations

import ast
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

__all__ = ["compile_scalar", "compile_mark_scalar", "compile_coefficient"]

_ALLOWED_CALLS = {"abs", "min", "ind"}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Load,
)


def _parse(src: str, variables: Sequence[str]) -> ast.Expression:
    src = src.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {src!r}: {exc.msg}") from None
    known = set(variables) | _ALLOWED_CALLS
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
        if isinstance(node, ast.Name) and node.id not in known:
            raise InputError(
                f"expression {src!r}: unknown name {node.id!r} "
                f"(available: {', '.join(sorted(known))})"
            )
    return tree


def compile_scalar(src: str, variables: Sequence[str]) -> Callable[..., float]:
    """Compile ``src`` into ``f(env) -> float`` over the given variable names.

    ``env`` must supply every variable plus ``_norm`` (the mark norm) when
    ``ind`` is used.
    """
    tree = _parse(src, variables)
    code = compile(tree, "<expression>", "eval")

    def evaluate(env: dict) -> float:
        local = dict(env)
        norm = local.pop("_norm", None)
        local["abs"] = abs
        local["min"] = min
        local["ind"] = (lambda a: 1.0 if (norm is not None and norm < a) else 0.0)
        try:
            return float(eval(code, {"__builtins__": {}}, local))
        except ZeroDivisionError:
            raise InputError(f"expression {src!r}: division by zero") from None

    return evaluate


def compile_mark_scalar(src: str, r: int) -> Callable[[np.ndarray], float]:
    """Compile a function of a mark vector; variables are ``u1 .. ur``."""
    names = [f"u{j + 1}" for j in range(r)]
    f = compile_scalar(src, names)

    def evaluate(u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        env = {name: float(u[j]) for j, name in enumerate(names)}
        env["_norm"] = float(np.linalg.norm(u))
        return f(env)

    return evaluate


def compile_coefficient(sources: Sequence[str], d: int, r: int) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """Compile a jump coefficient ``c(t, x, u) -> R^d`` from ``d`` expressions.

    Variables are ``t``, ``x1 .. xd`` and ``u1 .. ur``.
    """
    if len(sources) != d:
        raise InputError(f"need {d} component expressions, got {len(sources)}")
    names = ["t"] + [f"x{i + 1}" for i in range(d)] + [f"u{j + 1}" for j in range(r)]
    fns = [compile_scalar(src, names) for src in sources]

    def evaluate(t: float, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        env = {"t": float(t)}
        env.update({f"x{i + 1}": float(x[i]) for i in range(d)})
        env.update({f"u{j + 1}": float(u[j]) for j in range(r)})
        env["_norm"] = float(np.linalg.norm(u))
        return np.array([f(env) for f in fns])

    return evaluate
