"""Carre du champ on mark space and its randomised square root.

A structure on the mark space consists of an open set ``O`` carrying the
intensity ``k``, a continuous ``psi`` with ``0 <= psi <= k``, and a field of
symmetric matrices ``xi``.  The induced quadratic form on gradients is

    gamma[f](u) = sum_ij xi_ij(u) d_i f(u) d_j f(u) * psi(u) / k(u),

with the convention ``0/0 = 0`` off the support of ``k``.  Everything the
library computes from a structure factors through the weight matrix
``W(u) = xi(u) * psi(u) / k(u)`` and its Cholesky-type square root ``L(u)``:

* ``gamma_matrix`` -- the quadratic form ``J W(u) J^T`` of a mark Jacobian,
* ``BottomStructure.factor`` -- ``L(u)``, which turns a Jacobian into the
  randomised gradient ``J L(u) rho``; its second moment over a standard
  normal ``rho`` reproduces ``gamma``.

Every callable works on a batch of marks ``U`` of shape ``(n, r)``, one mark
per row.  A structure's ``support`` gives ``(n,)`` booleans, ``density`` and
``psi`` give ``(n,)`` values and ``xi`` gives ``(n, r, r)`` matrices.  ``psi``
is evaluated only on the marks in ``O``, and ``density`` and ``xi`` only where
``psi`` is nonzero, so no callable sees a mark that the 0/0 = 0 convention
discards.  ``weight`` and ``factor`` return ``(n, r, r)`` stacks and run the
structure's checks (``psi <= k``, symmetric ``xi``) once per batch; an error
names the row of the first offending mark.

The randomised gradient is linear in ``J``, so its chain rule holds exactly
per draw, not only in distribution, which is what makes pathwise gradient
assembly possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InputError, StructureError
from .expressions import compile_mark_functions, float_pow

__all__ = [
    "BottomStructure",
    "gamma_matrix",
    "intro_1d",
    "isotropic",
    "psi_over_k",
    "standard_instances",
    "from_expressions",
]

# slack used when spot-checking psi <= k and positive semi-definiteness
_PSD_SLACK = 1e-10


def _per_mark(values, n: int, what: str, dtype=float, error=StructureError) -> np.ndarray:
    values = np.asarray(values, dtype=dtype)
    if values.shape != (n,):
        raise error(f"{what} must give shape ({n},) on {n} marks, got {values.shape}")
    return values


def _put_rows(dst: np.ndarray, idx, src) -> None:
    """``dst[idx] = src`` on the rows of a C-contiguous ``dst``, to the same bytes, each row
    one void record: advanced indexing copies a row of several values element by element."""
    row = np.dtype(f"V{dst.itemsize * math.prod(dst.shape[1:])}")
    np.frombuffer(dst, row)[idx] = np.frombuffer(np.ascontiguousarray(src, dst.dtype), row)


@dataclass(frozen=True)
class BottomStructure:
    """Mark-space carre du champ ``(O, xi, psi, k)`` on batches of marks.

    ``support`` is the predicate for ``O``; ``density`` and ``psi`` map
    ``(n, r)`` marks to ``(n,)`` values and ``xi`` maps them to ``(n, r, r)``
    symmetric matrices.
    """

    mark_dimension: int
    support: Callable[[np.ndarray], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    xi: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def weight(self, marks: np.ndarray) -> np.ndarray:
        """Weights ``W(u) = xi psi / k`` of ``(n, r)`` marks, ``(n, r, r)``.

        A mark outside ``O`` or where ``psi`` vanishes weighs 0 (the 0/0 = 0
        convention).
        """
        marks = np.asarray(marks, dtype=float)
        r = self.mark_dimension
        if marks.ndim != 2 or marks.shape[1] != r:
            raise InputError(f"marks must have shape (n, {r}), got {marks.shape}")
        out = np.zeros((marks.shape[0], r, r))
        rows = np.flatnonzero(_per_mark(self.support(marks), marks.shape[0], "support", bool))
        u = np.take(marks, rows, axis=0)
        p = _per_mark(self.psi(u), rows.size, "psi")
        if not p.all():
            rows, p, u = rows[p != 0.0], p[p != 0.0], np.compress(p != 0.0, u, axis=0)
        if not rows.size:
            return out
        k = _per_mark(self.density(u), rows.size, "density")
        bad = np.flatnonzero(k == 0.0)
        if bad.size:
            # psi <= k forces psi = 0 here; a nonzero psi is a broken structure
            i = bad[0]
            raise StructureError(
                f"psi(u) = {p[i]} > 0 where k(u) = 0 (requires psi <= k) at mark {rows[i]}"
            )
        bad = np.flatnonzero(p > k * (1.0 + 1e-12))
        if bad.size:
            i = bad[0]
            raise StructureError(f"psi(u) = {p[i]} exceeds k(u) = {k[i]} at mark {rows[i]}")
        xi = np.asarray(self.xi(u), dtype=float)
        if xi.shape != (rows.size, r, r):
            raise StructureError(
                f"xi(u) must have shape ({r}, {r}), got {xi.shape[1:]} at mark {rows[0]}"
            )
        # np.allclose(xi, xi.T, rtol=0, atol=tol) for each mark, entry-major (r * r, n),
        # in two such arrays and one of flags; the sum and the product below
        # take their terms in the other order, to the same bits
        entries = xi.reshape(-1, r * r).T.copy()
        del xi
        swap = np.arange(r * r).reshape(r, r).T.ravel()  # entry (i, j) -> (j, i)
        scratch = np.abs(entries)
        tol = 1e-12 * np.maximum(1.0, scratch.max(axis=0))
        swapped = np.take(entries, swap, axis=0, out=scratch)
        close = entries == swapped
        with np.errstate(invalid="ignore"):  # inf - inf, where == already passed
            close |= np.abs(np.subtract(entries, swapped, out=scratch), out=scratch) <= tol
        bad = np.flatnonzero(~close.all(axis=0))
        if bad.size:
            raise StructureError(f"xi(u) must be symmetric at mark {rows[bad[0]]}")
        # a weight that overflows makes a Gamma that is refused where it is checked
        with np.errstate(over="ignore"):
            w = np.multiply(entries, p / k, out=entries)
            half = np.add(np.take(w, swap, axis=0, out=scratch), w, out=scratch)
            _put_rows(out, rows, np.multiply(half.T, 0.5, order="C"))
        return out

    def factor(self, marks: np.ndarray) -> np.ndarray:
        """Square roots ``L(u)`` with ``L L^T = W(u)``, ``(n, r, r)``.

        Uses the Cholesky factor where the weight is positive definite and an
        eigenvalue square root where it is only positive semi-definite (for
        instance rank-one tangential structures).
        """
        w = self.weight(marks)
        out = np.zeros_like(w)
        rows = np.flatnonzero(w.any(axis=(1, 2)))
        w = w[rows]
        if self.mark_dimension == 1:
            val = w[:, 0, 0]
            bad = np.flatnonzero(val < -_PSD_SLACK * np.maximum(1.0, np.abs(val)))
            if bad.size:
                raise StructureError(f"negative weight {val[bad[0]]} at mark {rows[bad[0]]}")
            out[rows, 0, 0] = np.sqrt(np.maximum(val, 0.0))
            return out
        # np.linalg.cholesky raises when any weight of the stack is not positive
        # definite; its kernel fills those factors with NaN instead
        with np.errstate(invalid="ignore"):
            out[rows] = _umath_linalg.cholesky_lo(w, signature="d->d")
        semi = np.isnan(out[rows]).any(axis=(1, 2))
        if semi.any():
            rows, w = rows[semi], w[semi]
            vals, vecs = np.linalg.eigh(w)
            bad = np.flatnonzero(vals[:, 0] < -_PSD_SLACK * np.maximum(vals[:, -1], 1.0))
            if bad.size:
                raise StructureError(
                    f"weight matrix has negative eigenvalue {vals[bad[0], 0]} at mark {rows[bad[0]]}"
                )
            roots = np.sqrt(np.clip(vals, 0.0, None))
            out[rows] = vecs @ (roots[:, :, None] * np.eye(self.mark_dimension))
        return out


def gamma_matrix(jac: np.ndarray, marks: np.ndarray, structure: BottomStructure) -> np.ndarray:
    """Matrix forms ``J W(u) J^T`` of ``(n, d, r)`` mark Jacobians, ``(n, d, d)``."""
    jac = np.asarray(jac, dtype=float)
    n, r = np.shape(marks)[0], structure.mark_dimension
    if jac.ndim != 3 or jac.shape[0] != n or jac.shape[2] != r:
        raise InputError(f"jacobians must have shape ({n}, d, {r}), got {jac.shape}")
    bad = np.flatnonzero(~np.isfinite(jac).all(axis=(1, 2)))
    if bad.size:
        raise InputError(f"jacobian contains non-finite entries at mark {bad[0]}")
    out = jac @ structure.weight(marks) @ jac.transpose(0, 2, 1).copy()
    return 0.5 * (out + out.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# named instances
# ---------------------------------------------------------------------------

def _square_norms(marks: np.ndarray) -> np.ndarray:
    """``u @ u`` of every row of ``(n, r)`` marks, rounded as the product of one mark is."""
    return (marks[:, None, :] @ marks[:, :, None])[:, 0, 0]


def intro_1d() -> BottomStructure:
    """Scalar structure with weight ``u^2`` on ``0 < |u| < 1/2``.

    ``gamma[f](u) = u^2 f'(u)^2`` inside the window and zero outside; the
    psi/k ratio is one on the support, so the weight is ``xi = u^2`` alone.
    """

    def support(marks: np.ndarray) -> np.ndarray:
        size = np.abs(marks[:, 0])
        return (0.0 < size) & (size < 0.5)

    return psi_over_k(xi=lambda marks: float_pow(marks[:, 0], 2)[:, None, None],
                      support=support, name="INTRO_1D")


def isotropic(r: int = 2, cap: float = 1.0) -> BottomStructure:
    """Isotropic structure ``xi = (|u|^2 ^ cap) I`` with ``psi = k``.

    The weight is ``min(|u|^2, cap)`` times the identity, bounded so the
    two-sided ellipticity estimate holds on every compact away from 0.
    """
    if r < 1:
        raise InputError("mark dimension must be >= 1")
    if not (np.isfinite(cap) and cap > 0):
        raise InputError("cap must be finite and > 0")

    def xi(marks: np.ndarray) -> np.ndarray:
        return np.minimum(_square_norms(marks), cap)[:, None, None] * np.eye(r)

    return psi_over_k(r=r, xi=xi, name="ISOTROPIC_RD")


def psi_over_k(
    density: Callable[[np.ndarray], np.ndarray] | None = None,
    psi: Callable[[np.ndarray], np.ndarray] | None = None,
    r: int = 1,
    xi: Callable[[np.ndarray], np.ndarray] | None = None,
    support: Callable[[np.ndarray], np.ndarray] | None = None,
    name: str = "PSI_OVER_K",
) -> BottomStructure:
    """General ratio structure; defaults give weight ``|u|^2 I`` with psi = k.

    Pass batched ``density`` and ``psi`` to weight the default
    ``xi = |u|^2 I`` by a nontrivial ratio, or override ``xi`` entirely.
    The default support is every nonzero mark.
    """
    density = density or (lambda marks: np.ones(len(marks)))
    return BottomStructure(
        mark_dimension=r,
        support=support or (lambda marks: _square_norms(marks) > 0.0),
        density=density,
        psi=psi or density,
        xi=xi or (lambda marks: _square_norms(marks)[:, None, None] * np.eye(r)),
        name=name,
    )


def standard_instances() -> dict[str, BottomStructure]:
    """Catalog of the named structures used by the shipped scenarios."""
    return {
        "INTRO_1D": intro_1d(),
        "ISOTROPIC_RD": isotropic(2),
        "PSI_OVER_K": psi_over_k(),
    }


def from_expressions(
    k: str,
    psi: str,
    xi_diagonal: list[str],
    mark_dimension: int | None = None,
    name: str = "custom",
) -> BottomStructure:
    """Build a structure from mini-grammar strings for k, psi and diag(xi).

    The expressions see the mark components as ``u1 .. ur`` and support the
    operators ``+ - * / ^``, ``abs``, ``min`` and ``ind(a)`` (indicator of
    ``|u| < a``).  ``xi`` is diagonal with one expression per component.
    Each is compiled once to numpy code that evaluates a batch of marks.
    """
    r = len(xi_diagonal) if mark_dimension is None else mark_dimension
    if len(xi_diagonal) != r:
        raise InputError(
            f"need {r} diagonal xi expressions, got {len(xi_diagonal)}"
        )
    k_fn = compile_mark_functions([k], r)
    psi_fn = compile_mark_functions([psi], r)
    diag_fn = compile_mark_functions(xi_diagonal, r)

    def xi(marks: np.ndarray) -> np.ndarray:
        out = np.zeros((marks.shape[0], r, r))
        out[:, np.arange(r), np.arange(r)] = diag_fn(marks)
        return out

    return psi_over_k(density=lambda marks: k_fn(marks)[:, 0],
                      psi=lambda marks: psi_fn(marks)[:, 0], r=r, xi=xi, name=name)
