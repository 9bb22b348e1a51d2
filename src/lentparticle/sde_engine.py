"""Pathwise solution of jump SDEs driven by a truncated Poisson measure.

The state follows

    dX_t = c(t, X_{t-}, u) dN~(dt, du) + b(t, X_t) dt

where ``N~`` is the compensated measure of a :class:`TruncatedLevyModel`.
Under truncation this splits into a deterministic flow between atoms,

    dX/dt = b(t, X) - integral_{|u|>eps} c(t, X, u) k(u) du,

integrated by a classical fourth-order one-step method whose steps land
exactly on the jump times, plus the update ``X_a = X_{a-} + c(a, X_{a-}, u)``
at each atom.

Alongside X the module integrates the first-variation flow ``K_t``
(Jacobian of the solution map in the initial condition) and its inverse
``Kbar_t``.  Both follow linear equations driven by the same atoms:

    K  : jump factor (I + Dx_c),       drift  A(t) K
    Kbar: jump factor (I + Dx_c)^{-1},  drift  -Kbar A(t)

with ``A = Dx_b - integral Dx_c k du``.  They are integrated jointly with X
on the same grid so the three stay mutually consistent.  A compensator not
given in closed form is integrated here, against the model of the solve, by
mark quadrature.  ``solve_sde`` is the one entry point; ``flows=True`` adds
K and Kbar to the same pass.  It solves one configuration or a sequence of
them, advancing every path of a sequence in one loop over batched arrays; the
coefficients evaluate batches of points (see :class:`CoefficientSet`).  Right
limits are stored on every grid row, left limits only on jump rows, where
they differ.  The same loop solves several groups of paths, each with its
own model and drift but all with one jump coefficient set, in one batch,
storing only the rows the Gamma of a path reads: the truncation levels of a
rank sweep (``Scenario.sweep_gammas``).  Every path of a chunk steps on
every row, by zero past its last, in one workspace allocated as the chunk
starts; :func:`_integrate` says which calls the groups share and which
x-Jacobians it takes once per chunk.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from ._serialise import write_csv
from .errors import (
    ConditioningWarning,
    DomainError,
    InputError,
    ModelError,
    NumericError,
)
from .poisson_measure import JumpConfiguration, MarkQuadrature, TruncatedLevyModel

__all__ = [
    "CoefficientSet",
    "Trajectory",
    "solve_sde",
    "write_trajectory_csv",
]

_ETA_SLACK = 1.0 + 1e-9

# Admission limit on the regular grid: a solve with flows stores X, K and
# Kbar on every row, so larger grids are refused before allocation.
MAX_GRID_ROWS = 10 ** 6

# A solve of many configurations runs in consecutive chunks of paths, each
# holding at most this many floats, 4 MB: its grid arrays (paths x its longest
# grid x _GRID_VALUES), its workspace, its jump tables and its stored limits
# (_chunks).  A solve that returns trajectories stores the right limits on
# every row (paths x longest grid x the values of one row) and the left limits
# at the jumps (jumps x the values of one row), about 37 levy-area paths with
# flows.  The Gamma of a sweep stores only each path's last row and both
# limits at its jumps, about 95 levy-area paths at eps = 0.008 and more at
# coarser levels, so a 32-path sweep of three levels is one chunk.  A longer
# path is a chunk of its own.
_CHUNK_VALUES = 2 ** 19
# times, atom_index, is_jump (_stack_grids) and by_row, halves and the step,
# its half and its sixth (_integrate): 57 bytes per path and row, in floats
_GRID_VALUES = 57 / 8


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the jump SDE with their x-derivatives.

    Every callable evaluates a batch of points paired by row: with ``t`` of
    shape ``(P,)``, ``x`` of shape ``(P, d)`` and ``u`` of shape ``(P, r)``,
    row ``p`` is the point ``(t[p], x[p], u[p])``, and one point is a batch
    with ``P = 1``.

    * ``c(t, x, u)`` is the jump amplitude, ``(P, d)``; ``dx_c`` and ``du_c``
      are its Jacobians in the state and in the mark, ``(P, d, d)`` and
      ``(P, d, r)``.
    * ``drift(t, x)`` is the deterministic drift, ``(P, d)``, the only part
      of the dynamics besides the jumps (see module notes); ``dx_drift`` is
      ``(P, d, d)``.
    * ``compensator(t, x) = integral c(t, x, u) k(u) du``, ``(P, d)``, and
      ``dx_compensator``, ``(P, d, d)``, may be supplied in closed form --
      strongly recommended: when either is missing, the solve integrates it
      against the model it is given, in one batched mark-quadrature pass over
      all points per distinct stage time and state, or per distinct state
      when ``c`` and ``dx_c`` report ``reads_time = False``; a stage at the
      time and state of the last one reuses its velocity without calling any
      part (at its state alone when no drift or compensator is given), so
      every callable must be pure.  The shipped scenarios bind theirs to
      functions of ``(t, x, p)`` at each level's first moment ``p``, so that
      the levels of a sweep share one call per stage.  A sweep solves its
      levels in one batch when they hold equal ``dim``, ``c``, ``dx_c``,
      ``du_c`` and ``eta``, as the shipped levels do, else one at a time.
    * A ``dx_compensator`` whose attributes ``reads_time`` and
      ``reads_state`` are both ``False`` promises the same matrix at every
      point; without ``dx_drift`` a solve calls it once per chunk of paths,
      not at every stage, and takes the flow products of a
      batch of paths as one matrix product.  A ``dx_c`` that reports both
      promises a result that depends on the mark alone; with flows a solve
      calls it once over all the jumps of a chunk of paths.  A callable
      without the attributes may read both.
    * A ``c`` whose attribute ``writes_out`` is ``True`` takes a keyword
      ``out``, a ``(P, d)`` array that aliases neither ``x`` nor ``u``,
      writes its result there and returns it: at a jump row a solve then
      hands it the row's block, unchecked, where it would allocate and
      check.  The functions the shipped compensators are bound to declare
      it too, and write into a stage's velocity buffer.
    * ``eta(u)``, ``(P,)``, is the dominating function used by the
      assumption validators; when absent only invertibility of ``I + dx_c``
      is enforced.
    """

    dim: int
    c: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    dx_c: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    du_c: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    dx_drift: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    compensator: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    dx_compensator: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    eta: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("state dimension must be >= 1")
        if (self.drift is None) != (self.dx_drift is None):
            raise InputError("drift and dx_drift must be supplied together")


@dataclass(frozen=True, eq=False)
class _Bound:
    """``fn(t, x, p)`` bound to one group's parameter ``p`` and called as
    ``(t, x)``: groups whose compensator pair is bound to the same two
    functions share one call, ``p`` stacked per row (:func:`_integrate`).
    It reports the ``reads_time``, ``reads_state`` and ``writes_out`` of ``fn``."""

    fn: Callable
    p: float | np.ndarray

    def __call__(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.fn(t, x, self.p)

    def __getattr__(self, name: str):
        if name in ("reads_time", "reads_state", "writes_out"):
            return getattr(self.fn, name)
        raise AttributeError(name)


def _state_free(fn) -> bool:
    """Whether ``fn`` reports ``reads_time = False`` and ``reads_state = False``."""
    return not getattr(fn, "reads_time", True) and not getattr(fn, "reads_state", True)


def _shape_checked(name: str, out, shape: tuple, where: Callable[[], str] = str) -> np.ndarray:
    """``out`` as an array, refused with :class:`ModelError` unless it has
    ``shape``, whose first entry counts the points; ``where()`` ends the message."""
    out = np.asarray(out)
    if out.shape != shape:
        raise ModelError(f"{name} must return shape {shape} for {shape[0]} points, "
                         f"got {out.shape}{where()}")
    return out


def _effective_drift(coeffs: CoefficientSet, model: TruncatedLevyModel, flows: bool):
    """One closure ``(t, x, out=None) -> (v, a)`` over a batch of points: the
    between-jump velocity ``v = b - integral c k du``, ``(n, d)``, written into
    ``out`` when given, and with ``flows`` its x-Jacobian ``a``, ``(n, d, d)``,
    else ``None``, each part shape-checked inline, since the solve calls it at
    every stage.  Without ``dx_drift``, a ``dx_compensator`` that reports
    ``reads_time = False`` and ``reads_state = False`` is called, checked and
    negated once per number of points ``n``, and ``a`` is that array (callers
    only read it).  A missing compensator or ``dx_compensator`` comes from one
    :class:`MarkQuadrature` pass over all points, one integral of ``(c,
    dx_c)`` per point, kept keyed on ``(t, x)``, or on ``x`` alone when ``c``
    and ``dx_c`` report ``reads_time = False``, so that it runs once per
    distinct state; one that is not finite is refused naming its state.  The
    result of the last call is kept too (callers only read it), under the same
    key unless a drift or compensator is given, which may read t and is then
    called again at each new ``(t, x)`` with the kept integrals: a stage whose
    state has not moved costs one key comparison and a copy into ``out``.
    """
    d, c, dx_c = coeffs.dim, coeffs.c, coeffs.dx_c
    comp, dx_comp = coeffs.compensator, coeffs.dx_compensator

    def part(drift, drift_name: str, comp, comp_name: str, k, t, x, shape, out=None):
        if drift is not None:
            b = np.asarray(drift(t, x))
            if b.shape != shape:
                _shape_checked(drift_name, b, shape)
        if comp is not None:
            k = np.asarray(comp(t, x))
            if k.shape != shape:
                _shape_checked(comp_name, k, shape)
        return np.negative(k, out=out) if drift is None else np.subtract(b, k, out=out)

    constant = coeffs.dx_drift is None and _state_free(dx_comp)
    held = [None, None]  # the number of points and the x-Jacobian of a constant one

    def velocity(t: np.ndarray, x: np.ndarray, k=None, dx_k=None, out=None) -> tuple:
        n = x.shape[0]  # the x-Jacobian's parts are called and checked first
        a = None
        if flows and constant:
            if held[0] != n:
                held[:] = n, part(None, "dx_drift", dx_comp, "dx_compensator", None, t, x, (n, d, d))
            a = held[1]
        elif flows:
            a = part(coeffs.dx_drift, "dx_drift", dx_comp, "dx_compensator", dx_k, t, x, (n, d, d))
        return part(coeffs.drift, "drift", comp, "compensator", k, t, x, (n, d), out), a

    if comp is not None and dx_comp is not None:
        return velocity
    quadrature = MarkQuadrature(model)
    c_reads_time = getattr(c, "reads_time", True) or getattr(dx_c, "reads_time", True)
    # a hand-written drift or compensator may read t
    reads_time = c_reads_time \
        or any(f is not None for f in (coeffs.drift, coeffs.dx_drift, comp, dx_comp))
    last = [None, None]  # the key and the result of the last call
    integrals = [None, None]  # the key and the (c, dx_c) integrals of the last pass

    def memoised(t: np.ndarray, x: np.ndarray, out=None) -> tuple:
        x_key = x.tobytes()
        key = (t.tobytes(), x_key) if reads_time else x_key
        if last[0] != key:
            pass_key = (t.tobytes(), x_key) if c_reads_time else x_key
            if integrals[0] != pass_key:
                def integrand(index: np.ndarray, marks: np.ndarray) -> np.ndarray:
                    n, t_rows, x_rows = index.shape[0], t[index], x[index]
                    return np.concatenate([
                        _shape_checked("c", c(t_rows, x_rows, marks), (n, d)),
                        np.reshape(_shape_checked("dx_c", dx_c(t_rows, x_rows, marks),
                                                  (n, d, d)), (n, d * d)),
                    ], axis=1)

                try:
                    flat = quadrature.integrate_each(integrand, x.shape[0])
                except NumericError as exc:
                    if exc.index is None:
                        raise
                    raise NumericError(f"{exc} at the state t = {t[exc.index]}, "
                                       f"x = {x[exc.index].tolist()}") from None
                integrals[:] = pass_key, (flat[:, :d], flat[:, d:].reshape(-1, d, d))
            last[:] = key, velocity(t, x, *integrals[1])
        if out is None:
            return last[1]
        np.copyto(out, last[1][0])
        return out, last[1][1]

    return memoised


def _bound_pair(coeffs: CoefficientSet) -> tuple | None:
    """The two functions a set's compensator pair is bound to when the set
    has no other drift and its ``dx_compensator`` is state-free, else ``None``."""
    comp, dx_comp = coeffs.compensator, coeffs.dx_compensator
    if coeffs.drift is None and isinstance(comp, _Bound) and isinstance(dx_comp, _Bound) \
            and _state_free(dx_comp):
        return comp.fn, dx_comp.fn
    return None


def _jump_set(coeffs: CoefficientSet) -> tuple:
    """The jump coefficients that the groups of one batch share."""
    return coeffs.dim, coeffs.c, coeffs.dx_c, coeffs.du_c, coeffs.eta


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry, or ``None``."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _first_singular(matrices: np.ndarray) -> int | None:
    """Index of the first matrix of a stack that ``np.linalg.inv`` refuses as
    singular, or ``None``."""
    for k, matrix in enumerate(matrices):
        try:
            np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            return k
    return None


def _solve_right(b: np.ndarray, a: np.ndarray, singular: Callable[[int], str]) -> np.ndarray:
    """``b_k a_k^{-1}`` for stacks of square matrices, by the kernel of
    ``np.linalg.solve``, which fills the solution of a singular ``a_k`` with
    NaN where ``np.linalg.solve`` raises; the first ``a_k`` that LAPACK finds
    singular raises :class:`ModelError` with the message ``singular(k)``."""
    with np.errstate(all="ignore"):
        out = _umath_linalg.solve(a.transpose(0, 2, 1), b.transpose(0, 2, 1), signature="dd->d")
    if not np.isfinite(out).all() and (k := _first_singular(a)) is not None:
        raise ModelError(singular(k))
    return out.transpose(0, 2, 1)


def _spectral_norms(matrices: np.ndarray, rows: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Norms of the ``rows`` of a stack to compare with ``eta``, NaN elsewhere: an
    upper bound of the 2-norm where it is below ``eta`` by far more than the
    rounding of either, so no verdict flips; else the 2-norm, by one SVD call.
    The bound is the smaller of the Frobenius norm and ``sqrt(max_i sum_j
    (|A|^T |A|)_ij)``, since ``|A|_2^2 = rho(A^T A) <= rho(|A|^T |A|) <= max_i
    sum_j (|A|^T |A|)_ij``; its sums add no terms of opposite sign, so they
    round by a few units in the last place."""
    norms = np.full(matrices.shape[0], np.nan)
    size = np.abs(matrices[rows])
    # row i of |A|^T |A| sums to sum_k |a_ki| sum_j |a_kj|
    gram = (size * size.sum(axis=2, keepdims=True)).sum(axis=1)
    norms[rows] = np.sqrt(np.minimum(np.square(size).sum(axis=(1, 2)), gram.max(axis=1)))
    exact = rows & ~(norms <= eta * _ETA_SLACK * (1.0 - 1e-12))
    if exact.any():
        norms[exact] = np.linalg.norm(matrices[exact], 2, axis=(1, 2))
    return norms


def _check_r_conditions(coeffs: CoefficientSet, t: np.ndarray, x: np.ndarray,
                        u: np.ndarray, where: Callable[[int], str], tables=None) -> None:
    """Spot-check the standing coefficient assumptions at a batch of points.

    Every condition is evaluated over the whole batch.  Raises
    :class:`ModelError` at the first offending row ``k``, naming the first
    condition it violates in the order ``dx_c`` finite, ``|dx_c| <= eta``,
    ``|c(t, 0, u)| <= eta``, ``I + dx_c`` invertible, ``|(I + dx_c)^{-1}| <=
    eta``, and through ``where(k)`` its path or point.  ``tables`` is ``(dx_c,
    inverses of I + dx_c)`` at the points, shape-checked, or ``None`` to compute both.
    """
    d, n = coeffs.dim, t.shape[0]
    dxc, inv = tables or (_shape_checked("dx_c", np.asarray(coeffs.dx_c(t, x, u), dtype=float),
                                         (n, d, d), lambda: f" {where(0)}"), None)
    finite = np.isfinite(dxc).all(axis=(1, 2))
    m = np.eye(d) + np.where(finite[:, None, None], dxc, 0.0)
    if inv is None:  # the kernel of np.linalg.inv fills a singular one's inverse with NaN
        with np.errstate(all="ignore"):
            inv = _umath_linalg.inv(m, signature="d->d")
    invertible = np.isfinite(inv).all(axis=(1, 2))

    eta = None if coeffs.eta is None else np.asarray(coeffs.eta(u), dtype=float)
    if eta is not None and eta.shape != (n,):
        raise ModelError(f"eta must return shape ({n},) for {n} marks, got {eta.shape}")

    def exceeds(norms: np.ndarray, what: str):
        return (norms > eta * _ETA_SLACK,
                lambda k: f"{what} norm {norms[k]:.4g} exceeds eta({u[k]}) = {eta[k]:.4g}")

    def singular(k: int) -> str:
        try:
            np.linalg.inv(m[k])
            kind = "numerically singular"
        except np.linalg.LinAlgError:
            kind = "singular"
        return f"jump update I + dx_c {kind} at (t={t[k]}, u={u[k]})"

    checks = [(~finite, lambda k: f"dx_c at (t={t[k]}) must be a finite ({d}, {d}) matrix")]
    if eta is not None:
        size = np.asarray(coeffs.c(t, np.zeros((n, d)), u), dtype=float)
        checks += [exceeds(_spectral_norms(dxc, finite, eta), "jump x-Jacobian"),
                   exceeds(np.linalg.norm(size, axis=1), "jump size at x = 0")]
    checks.append((finite & ~invertible, singular))
    if eta is not None:
        checks += [exceeds(_spectral_norms(inv, finite & invertible, eta), "inverse jump update")]
    k = _first(np.logical_or.reduce([mask for mask, _ in checks]))
    if k is not None:
        message = next(text for mask, text in checks if mask[k])
        raise ModelError(f"{message(k)} {where(k)}")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Path of X (and optionally the flows) on the merged event/output grid.

    Row ``i`` holds the right limit at ``times[i]``.  Left limits differ from
    right limits only on jump rows, so only those are stored:
    ``jump_states_left`` (and with flows ``jump_flow_left`` and
    ``jump_inverse_flow_left``) holds one entry per jump row, in row order.
    ``states_left``, ``flow_left`` and ``inverse_flow_left`` build the
    full-length arrays from them on each access.  ``atom_index[i]`` is the
    index into ``config`` of the atom at a jump row, ``-1`` elsewhere.  The
    arrays of the trajectories one :func:`solve_sde` call returns are views
    into the arrays of the batch that solved them.
    """

    times: np.ndarray
    is_jump: np.ndarray
    atom_index: np.ndarray
    states: np.ndarray
    jump_states_left: np.ndarray
    config: JumpConfiguration
    coeffs: CoefficientSet | None
    flow: np.ndarray | None = None
    jump_flow_left: np.ndarray | None = None
    inverse_flow: np.ndarray | None = None
    jump_inverse_flow_left: np.ndarray | None = None

    def _left(self, right: np.ndarray | None, at_jumps: np.ndarray | None) -> np.ndarray | None:
        if right is None or at_jumps is None:
            return None
        out = right.copy()
        out[self.is_jump] = at_jumps
        return out

    @property
    def states_left(self) -> np.ndarray:
        return self._left(self.states, self.jump_states_left)

    @property
    def flow_left(self) -> np.ndarray | None:
        return self._left(self.flow, self.jump_flow_left)

    @property
    def inverse_flow_left(self) -> np.ndarray | None:
        return self._left(self.inverse_flow, self.jump_inverse_flow_left)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def row_at(self, t: float) -> int:
        """Index of the last stored time <= t."""
        if not (self.times[0] <= t <= self.times[-1] * (1 + 1e-12)):
            raise DomainError(f"time {t} outside stored range [0, {self.times[-1]}]")
        return int(np.searchsorted(self.times, t, side="right") - 1)

    def value_at(self, t: float) -> np.ndarray:
        return self.states[self.row_at(t)]

    def jump_rows(self) -> np.ndarray:
        return np.nonzero(self.is_jump)[0]


def _regular_grid(horizon: float, step: float) -> np.ndarray:
    """Equispaced nodes on ``[0, horizon]`` at most ``step`` apart, counted
    against :data:`MAX_GRID_ROWS` before anything is allocated."""
    if not (np.isfinite(step) and step > 0):
        raise InputError(f"step must be finite and > 0, got {step}")
    if not horizon / step < MAX_GRID_ROWS:
        raise InputError(
            f"step {step:g} on horizon {horizon:g} needs more than {MAX_GRID_ROWS} grid rows"
        )
    n_reg = max(1, int(math.ceil(horizon / step - 1e-12)))
    return np.linspace(0.0, horizon, n_reg + 1)


class _Buffer:
    """One ``(1 [+ 2d], n, d)`` array of a chunk's workspace, component-major
    as the batch, with the views of it that the flow products read and write
    (:func:`_flow_products`): X, and with ``runs`` x-Jacobians, one per run
    of ``n / runs`` consecutive paths, the K rows of each run as one ``(d, n /
    runs d)`` matrix and its Kbar rows as ``d`` matrices of ``(n / runs,
    d)``, or with one run per path each path's K and Kbar, ``(n, d, d)``, all
    strided views of ``array``, which must be contiguous."""

    __slots__ = ("array", "x", "k", "kbar")

    def __init__(self, array: np.ndarray, runs: int | None):
        n, d = array.shape[1:]
        self.array, self.x = array, array[0]
        if runs is not None:
            self.k = array[1:d + 1].reshape(d, runs, -1).transpose(1, 0, 2)
            kbar = array[d + 1:]
            self.kbar = kbar.reshape(d, runs, -1, d) if runs < n else kbar.transpose(1, 0, 2)


def _rk4_step(rhs, ws: list, t0, half, t1, h, half_h, sixth_h) -> None:
    """One classical RK4 step of the state held in ``ws``, a chunk's
    workspace of seven :class:`_Buffer`: the state, a spare buffer, a stage
    buffer and the four stage velocities.  It steps from ``t0`` over ``half =
    t0 + h/2`` to ``t1 = t0 + h`` into the spare buffer, which then takes the
    state's place; ``h``, ``half_h = 0.5 * h`` and ``sixth_h = h / 6`` are
    scalars or broadcast against the state.  ``rhs(t, src, dst)`` writes the
    velocity of the buffer ``src`` into ``dst``.  The stages and the sum reuse
    the stage buffer, in the order of ``y + sixth_h * (k1 + 2 k2 + 2 k3 + k4)``
    and to its bits, as the terms of a sum or a product commute."""
    state, spare, stage, *k = ws
    y, total, s = state.array, spare.array, stage.array
    rhs(t0, state, k[0])
    np.add(y, np.multiply(half_h, k[0].array, out=s), out=s)
    rhs(half, stage, k[1])
    np.add(y, np.multiply(half_h, k[1].array, out=s), out=s)
    rhs(half, stage, k[2])
    np.add(y, np.multiply(h, k[2].array, out=s), out=s)
    rhs(t1, stage, k[3])
    np.add(k[0].array, np.multiply(2.0, k[1].array, out=s), out=total)
    total += np.multiply(2.0, k[2].array, out=s)
    total += k[3].array
    total *= sixth_h
    np.add(y, total, out=total)
    ws[:2] = spare, state


# the rows held for one fold of |K Kbar - I| (_integrate)
_FOLD_ROWS = 8


def _chunks(groups: list[list[JumpConfiguration]], horizon: float | None, step: float,
            dim: int, flows: bool, rows: bool):
    """Consecutive chunks of the paths of ``groups``, taken group after group,
    each of one horizon, as ``(parts, grids)``: ``parts`` lists the chunk's
    run of paths of each group it reaches as ``(group, start, configs)``, the
    index of the run's first path in its group and its configurations, and
    ``grids`` holds the chunk's regular grid and each path's number of jumps
    up to the horizon.  Counting a grid as its nodes plus its jumps, a bound
    on the merged grid, a chunk holds at most :data:`_CHUNK_VALUES` floats,
    with ``block`` the values of one row of one path (X, and with ``flows`` K
    and Kbar):

    * its padded grid arrays, paths x longest grid x ``_GRID_VALUES``;
    * its workspace, per path seven ``block`` for the RK4 step
      (:func:`_rk4_step`) and ``3 dim`` for the step factors, and with
      ``flows`` one x-Jacobian and ``_FOLD_ROWS`` rows awaiting the fold;
    * per jump its time and mark, and with ``flows`` its ``dx_c`` slopes, its
      jump matrix and its inverse;
    * its stored limits: its right limits on every padded row (paths x
      longest grid x ``block``) and its left limits at the jumps (jumps x
      ``block``), or with ``rows`` only its last rows (paths x ``block``)
      and both limits at the jumps (2 x jumps x ``block``).

    A longer path is a chunk of its own."""
    block = dim * (1 + 2 * dim if flows else 1)
    per_row = _GRID_VALUES + (0 if rows else block)
    per_path = (7 + (_FOLD_ROWS if flows else 0) + rows) * block + 3 * dim \
        + (dim * dim if flows else 0)
    per_jump = (2 if rows else 1) * block + 1 + (3 * dim * dim if flows else 0)
    parts, nodes, counts, longest, at_jumps = [], None, [], 0, 0
    for g, configs in enumerate(groups):
        for i, config in enumerate(configs):
            h = config.horizon if horizon is None else float(horizon)
            if not (np.isfinite(h) and 0 < h <= config.horizon):
                raise DomainError(f"horizon must lie in (0, {config.horizon}], got {h}")
            grid = nodes if nodes is not None and nodes[-1] == h else _regular_grid(h, step)
            j = int(np.searchsorted(config.times, h, side="right"))
            m, held = grid.shape[0] + j, j * (per_jump + config.mark_dimension)
            size = (len(counts) + 1) * (max(longest, m) * per_row + per_path) + at_jumps + held
            if counts and (grid is not nodes or size > _CHUNK_VALUES):
                yield [(k, a, groups[k][a:b]) for k, a, b in parts], (nodes, counts)
                parts, counts, longest, at_jumps = [], [], 0, 0
            if parts and parts[-1][0] == g:
                parts[-1][2] = i + 1
            else:
                parts.append([g, i, i + 1])
            nodes, longest, at_jumps = grid, max(longest, m), at_jumps + held
            counts.append(j)
    if counts:
        yield [(k, a, groups[k][a:b]) for k, a, b in parts], (nodes, counts)


def _stack_grids(configs: Sequence[JumpConfiguration], grids: tuple, lengths: Sequence[int]):
    """One chunk's grids as batch arrays, in one pass: the chunk's runs of
    ``lengths`` paths one after another, each longest grid first.

    Path ``p``'s grid merges the ``nodes`` of ``grids = (nodes, counts)``
    with its first ``counts[p]`` atom times, an atom on a node taking its row
    as :func:`numpy.union1d` merges them.  Returns ``order`` (batch row ``b``
    holds path ``order[b]`` of the chunk), the grid sizes in chunk order,
    ``times``, ``is_jump`` and ``atom_index``, ``(P, m_max)``, each grid
    padded with its last time, and the marks of the jump rows, ``(J, r)``, in
    the order of ``np.nonzero(is_jump)``: by batch row, then by grid row.
    """
    nodes, counts = grids
    n_paths, n_nodes = len(configs), nodes.shape[0]
    # every jump of the chunk, path after path: its path, its first jump, its time
    path = np.repeat(np.arange(n_paths), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    jump_times = np.concatenate([np.empty(0)] + [c.times[:j] for c, j in zip(configs, counts)])
    # a jump takes the row of the first node at or after it; each earlier
    # jump of its path off the nodes pushes that row, and each node, down one
    pos = np.searchsorted(nodes, jump_times)
    apart = nodes[pos] != jump_times
    pushed = np.cumsum(apart) - apart
    shifts = np.bincount(path[apart] * n_nodes + pos[apart], minlength=n_paths * n_nodes)
    sizes = n_nodes + np.bincount(path[apart], minlength=n_paths)
    order = np.lexsort((-sizes, np.repeat(np.arange(len(lengths)), lengths)))
    batch = np.argsort(order)
    times = np.full((n_paths, int(sizes.max())), nodes[-1])
    is_jump, atom_index = np.zeros(times.shape, dtype=bool), np.full(times.shape, -1)
    node_rows = np.arange(n_nodes) + np.cumsum(shifts.reshape(n_paths, n_nodes), axis=1)
    times[batch[:, None], node_rows] = nodes
    rows = batch[path], pos + pushed - pushed[first]
    times[rows], is_jump[rows], atom_index[rows] = jump_times, True, np.arange(len(path)) - first
    r = max(config.mark_dimension for config in configs)
    marks = np.concatenate([np.zeros((0, r))] + [configs[p].marks[:counts[p]]
                                                 for p in order if counts[p]])
    return order, sizes, times, is_jump, atom_index, marks


def _flow_products(a: np.ndarray, src: _Buffer, dst: _Buffer) -> None:
    """The flow rows of ``dst``, the velocity of the buffer ``src``: ``a K``
    in its K rows and ``-Kbar a`` in its Kbar rows, ``a`` holding the
    x-Jacobian of each run of paths the buffers were shaped for, ``(runs, d,
    d)``.  The runs take ``runs (1 + d)`` BLAS calls where the paths take ``2
    n``, to the same bits.  numpy takes the product of one row with another
    kernel, which rounds otherwise, so one-path runs go path by path."""
    np.matmul(a, src.k, out=dst.k)
    np.matmul(src.kbar, a, out=dst.kbar)
    np.negative(dst.kbar, out=dst.kbar)


def _integrate(runs: Sequence[tuple], stacked: tuple, x0: np.ndarray, flows: bool,
               validate: bool, rows: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance every path of one chunk through one RK4 loop over grid rows.

    ``runs`` holds, for each group's run of the chunk's paths in chunk order,
    ``(coeffs, drift, first, n)``: its coefficients, its :func:`_effective_drift`
    closure, the index of its first path in its group and its number of
    paths; the runs share one jump coefficient set (:func:`_jump_set`), which
    the jump rows and the checks take from the first.  ``stacked`` comes from
    :func:`_stack_grids`, so the batch holds the runs one after another, each
    longest grid first.  The batch is component-major: ``(1, P, d)`` holding
    X, or with ``flows`` ``(1 + 2d, P, d)`` holding X, the rows of K and the
    rows of Kbar, so that X is one contiguous block and a run's K rows one
    matrix.  Every path steps on every row: past its last row its grid is
    padded with its last time, so its steps are 0, which change at most the
    sign of a zero, and its last row is stored where it is reached.  The
    chunk's workspace is allocated once, and every stage writes its velocity
    into it in place (:func:`_rk4_step`): one call of the compensator every
    run is bound to (:func:`_bound_pair`), each run's parameter on its rows,
    with its x-Jacobian taken once per chunk, else one call per run's
    :func:`_effective_drift`, a lone run's x-Jacobian taken as returned; and
    the products of the flows in two calls over the batch
    (:func:`_flow_products`), run by run when every run's x-Jacobian is one
    matrix (no ``dx_drift``, a state-free ``dx_compensator``) and the runs
    hold the same number of paths, at least two, else path by path.

    Every jump's time and mark are gathered once, in event order.  With
    flows a ``dx_c`` that reads neither time nor state (:func:`_state_free`)
    is called once over all the jumps, and so is each jump's matrix ``I +
    dx_c``, with the first event whose matrix LAPACK finds singular.  At a
    jump row ``c`` (and with flows any other ``dx_c``) is called once for
    the jumping paths, a ``c`` that writes out into the chunk's jump block,
    and the jump update, the finite-state check, the K product and the Kbar
    solve (one call of the ``np.linalg.solve`` kernel) act once on all of
    them in that block.  With ``validate``, the coefficient assumptions are
    checked in one call over every jump taken, run after run, each run's in
    event order, from the stored left limits, after the loop or, when the
    loop raises, over the jumps taken so far before the error propagates.
    The X entries of every stage never read the flow entries, so X is the
    same bit for bit with and without flows, and every operation acts on
    each path alone, so a path's rows do not depend on the rest of the
    batch.  Errors name a path by its index in its group.

    Returns, in batch order, the right limits: on every row, ``(P, m_max, 1
    [+ 2d], d)``, or with ``rows`` at the jump rows followed by each path's
    last row, ``(J + P, 1 [+ 2d], d)``; the left limits at the jumps, ``(J, 1
    [+ 2d], d)``, the jumps of a path consecutive in row order; and with
    ``flows`` each run's largest ``|K Kbar - I|`` over the rows of its paths,
    folded in every ``_FOLD_ROWS`` rows and at the last, else zeros.
    """
    d, coeffs = x0.shape[0], runs[0][0]
    order, sizes, times, is_jump, _, marks = stacked
    n_paths, m_max = times.shape
    lengths = [n for *_, n in runs]
    bounds = np.cumsum([0] + lengths)
    # each batch row's path, by its index in its group
    named = order + np.repeat([first - b for (_, _, first, _), b in zip(runs, bounds)], lengths)
    # the paths whose last row each row is
    grid_sizes = sizes[order]
    ending = {int(m) - 1: np.flatnonzero(grid_sizes == m) for m in np.unique(grid_sizes)}
    # per row, the start, midpoint and end time and the step of every path
    by_row = np.ascontiguousarray(times.T)
    # the step, its half and its sixth for every row and path; a row's are
    # copied along d into the workspace's (paths, d) planes, which numpy
    # combines with the batch to the bits of a broadcast column
    factors = np.stack([by_row[1:] - by_row[:-1]] * 3)
    factors[1] *= 0.5
    factors[2] /= 6.0
    halves = by_row[:-1] + factors[1]
    # the jumps are stored (marks, left limits) by path, then row; the loop
    # and the checks take them by row, then path: the event order
    jump_paths, jump_rows = np.nonzero(is_jump)
    event_slots = np.lexsort((jump_paths, jump_rows))
    event_paths, event_rows = jump_paths[event_slots], jump_rows[event_slots]
    event_times, event_marks = times[event_paths, event_rows], np.take(marks, event_slots, axis=0)
    rows_with_jumps, starts = np.unique(event_rows, return_index=True)
    ends = np.append(starts[1:], event_rows.shape[0])
    jumpers = {row: (a, b, event_paths[a:b], event_slots[a:b])
               for row, a, b in zip(rows_with_jumps.tolist(), starts.tolist(), ends.tolist())}
    n_jumps = event_rows.shape[0]
    k_rows, kb_rows = slice(1, d + 1), slice(d + 1, 2 * d + 1)
    eye = np.eye(d)
    on_path = lambda e: f"on path {named[event_paths[e]]}"
    singular = lambda e: (f"jump update I + dx_c singular at (t={event_times[e]}, "
                          f"u={event_marks[e]}) {on_path(e)}")
    writes = getattr(coeffs.c, "writes_out", False)

    # the jump tables: with flows and a state-free dx_c, its slopes at all the
    # jumps in one call, refused before the loop when malformed, each jump's
    # matrix I + dx_c and its inverse, which the check reads where dx_c is
    # finite, and the first event np.linalg.inv finds singular; else at its row
    tables = flows and _state_free(coeffs.dx_c)
    slopes = np.empty((n_jumps, d, d)) if flows else None
    if tables and n_jumps:
        slopes[:] = _shape_checked(
            "dx_c", np.asarray(coeffs.dx_c(event_times, np.zeros((n_jumps, d)), event_marks),
                               dtype=float), (n_jumps, d, d),
            lambda: f" at t = {event_times[0]} {on_path(0)}")
    matrices = eye + slopes if tables else slopes
    singular_at = inverses = None
    if tables:
        with np.errstate(all="ignore"):
            inverses = _umath_linalg.inv(matrices, signature="d->d")
        suspects = np.flatnonzero(~np.isfinite(inverses).all(axis=(1, 2)))
        k = _first_singular(matrices[suspects])
        singular_at = n_jumps if k is None else int(suspects[k])

    # one drift call per stage when every run is bound to the same
    # compensator pair, its parameters repeated over each run's paths; the
    # flow products by run when every run's x-Jacobian is one matrix, as in
    # _effective_drift, and the runs hold as many paths, at least two
    pair = _bound_pair(coeffs)
    if any(_bound_pair(c) != pair for c, *_ in runs):
        pair = None
    p, dx_p = (pair and np.repeat([getattr(c, f).p for c, *_ in runs], lengths, axis=0)
               for f in ("compensator", "dx_compensator"))
    writes_comp = pair is not None and getattr(pair[0], "writes_out", False)
    by_run = flows and min(lengths) == max(lengths) > 1 and all(
        c.dx_drift is None and _state_free(c.dx_compensator) for c, *_ in runs)
    run_slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    # the chunk's workspace: the seven RK4 buffers, the step factors, with
    # flows one x-Jacobian per path and the rows awaiting the fold, and the
    # block of the widest jump row
    shape = (1 + 2 * d if flows else 1, n_paths, d)
    ws = [_Buffer(array, (len(runs) if by_run else n_paths) if flows else None)
          for array in np.empty((7,) + shape)]
    steps = np.empty((3, n_paths, d))
    held = np.empty((_FOLD_ROWS,) + shape) if flows else None
    a = np.empty((n_paths, d, d)) if flows else None
    jump_block = np.empty((int((ends - starts).max(initial=0)),) + shape[::2])
    blocks = [None]  # with the products by run, each run's x-Jacobian

    def rhs(t: np.ndarray, src: _Buffer, dst: _Buffer) -> None:
        jac = a
        if pair is not None:
            v = dst.x
            np.negative(pair[0](t, src.x, p, out=v) if writes_comp else
                        _shape_checked("compensator", pair[0](t, src.x, p), v.shape), out=v)
        elif len(runs) == 1:
            jac = runs[0][1](t, src.x, out=dst.x)[1]
        else:
            for (_, drift, _, _), s in zip(runs, run_slices):
                jac_s = drift(t[s], src.x[s], out=dst.x[s])[1]
                if flows:
                    a[s] = jac_s
        if flows:
            if by_run and blocks[0] is None:
                blocks[0] = jac[bounds[:-1]]
            _flow_products(blocks[0] if by_run else jac, src, dst)

    def jump(e0: int, e1: int, prior: np.ndarray) -> np.ndarray:
        """The right limits of the paths that jump at events ``e0`` to ``e1``,
        one path's block per entry of the chunk's jump block, from their left
        limits ``prior``."""
        t, u, block = event_times[e0:e1], event_marks[e0:e1], jump_block[:e1 - e0]
        jump_matrix = matrices[e0:e1] if flows else None
        # a c that writes out reads the left limits where they lie
        x_left = prior[:, 0] if writes else prior[:, 0].copy()
        point, where = (t, x_left, u), lambda: f" at t = {t[0]} {on_path(e0)}"
        if flows and not tables:
            np.add(eye, _shape_checked("dx_c", np.asarray(coeffs.dx_c(*point), dtype=float),
                                       (e1 - e0, d, d), where), out=jump_matrix)
        np.add(x_left, coeffs.c(*point, out=block[:, 0]) if writes else _shape_checked(
            "c", np.asarray(coeffs.c(*point), dtype=float), (e1 - e0, d), where),
            out=block[:, 0])
        if not np.isfinite(block[:, 0]).all():
            k = _first(~np.isfinite(block[:, 0]).all(axis=1))
            raise NumericError(f"jump update produced non-finite state at t = {t[k]} "
                               f"{on_path(e0 + k)}")
        if flows:
            np.matmul(jump_matrix, prior[:, k_rows], out=block[:, k_rows])
            if not tables:
                block[:, kb_rows] = _solve_right(prior[:, kb_rows], jump_matrix,
                                                 lambda k: singular(e0 + k))
            elif e0 <= singular_at < e1:
                raise ModelError(singular(singular_at))
            else:  # Kbar a^{-1} as the transpose of a^{-T} Kbar^T
                _umath_linalg.solve(jump_matrix.transpose(0, 2, 1),
                                    prior[:, kb_rows].transpose(0, 2, 1), signature="dd->d",
                                    out=block[:, kb_rows].transpose(0, 2, 1))
        return block

    def check(taken: int) -> None:
        """The coefficient assumptions at the first ``taken`` jumps, run after
        run, each run's in event order."""
        paths = event_paths[:taken]
        mine = np.argsort(np.searchsorted(bounds, paths, side="right"), kind="stable")
        _check_r_conditions(coeffs, event_times[mine], left[event_slots[mine], 0],
                            np.take(event_marks, mine, axis=0),
                            lambda j: f"on path {named[paths[mine[j]]]}",
                            (np.take(slopes, mine, axis=0), np.take(inverses, mine, axis=0))
                            if tables else None)

    worst = np.zeros(n_paths)  # each batch row's largest |K Kbar - I|

    def fold(states: np.ndarray) -> None:
        """Fold rows ``(rows, 1 + 2d, P, d)`` into ``worst``."""
        with np.errstate(all="ignore"):
            gap = states[:, k_rows].transpose(0, 2, 1, 3) @ states[:, kb_rows].transpose(0, 2, 1, 3)
            gap -= eye
            np.abs(gap, out=gap)
            np.maximum(worst, gap.max(axis=0).reshape(n_paths, -1).max(axis=1), out=worst)

    right = np.empty(((n_jumps + n_paths,) if rows else (n_paths, m_max)) + shape[::2])
    left = np.empty((n_jumps,) + shape[::2])
    y = ws[0].array
    y[0] = x0
    if flows:
        y[k_rows] = y[kb_rows] = eye[:, None]
        if pair is not None:  # the bound x-Jacobian, once per chunk
            np.negative(_shape_checked("dx_compensator", pair[1](by_row[0], ws[0].x, dx_p),
                                       (n_paths, d, d)), out=a)
    if not rows:
        right[:, 0] = y.transpose(1, 0, 2)
    taken, error = 0, None  # jumps reached by the loop, in event order
    try:
        for i in range(1, m_max):
            if n_paths == 1:
                h, half_h, sixth_h = factors[:, i - 1, 0]
            else:
                np.copyto(steps, factors[:, i - 1, :, None])
                h, half_h, sixth_h = steps
            _rk4_step(rhs, ws, by_row[i - 1], halves[i - 1], by_row[i], h, half_h, sixth_h)
            y = ws[0].array
            if not np.isfinite(y).all():
                k = _first(~np.isfinite(y).all(axis=(0, 2)))
                raise NumericError(f"integration produced non-finite state at t = {times[k, i]} "
                                   f"on path {named[k]}")
            event = jumpers.get(i)
            if event is not None:
                e0, taken, batch, slots = event
                # each path's block, gathered from and written to a view
                left[slots] = prior = y.transpose(1, 0, 2)[batch]
                y.transpose(1, 0, 2)[batch] = after = jump(e0, taken, prior)
                if rows:
                    right[slots] = after
            if not rows:
                right[:, i] = y.transpose(1, 0, 2)
            elif i in ending:
                right[n_jumps + ending[i]] = y[:, ending[i]].transpose(1, 0, 2)
            if flows:
                held[(i - 1) % _FOLD_ROWS] = y
                if i % _FOLD_ROWS == 0 or i == m_max - 1:
                    fold(held[:(i - 1) % _FOLD_ROWS + 1])
    except Exception as caught:
        error = caught
    # an assumption violated at a jump already taken wins over a later error
    if validate and taken:
        check(taken)
    if error is not None:
        raise error
    return right, left, np.maximum.reduceat(worst, bounds[:-1])


def _trajectories(coeffs: CoefficientSet, chunk: tuple, flows: bool) -> list[Trajectory]:
    """Each path of a one-group chunk from :func:`_solve_chunks` as a
    :class:`Trajectory`, in chunk order, as views into the batch."""
    [(_, _, configs)], stacked, right, left = chunk
    order, sizes, times, is_jump, atom_index, _ = stacked
    d = coeffs.dim
    k_rows, kb_rows = slice(1, d + 1), slice(d + 1, 2 * d + 1)
    # the left limits of batch row b are jumps bounds[b] to bounds[b + 1]
    bounds = np.concatenate([[0], np.cumsum(np.count_nonzero(is_jump, axis=1))])
    out: list = [None] * len(configs)
    for b, p in enumerate(order):
        m, jumps = sizes[p], slice(bounds[b], bounds[b + 1])
        traj = Trajectory(
            times=times[b, :m], is_jump=is_jump[b, :m], atom_index=atom_index[b, :m],
            states=right[b, :m, 0], jump_states_left=left[jumps, 0],
            config=configs[p], coeffs=coeffs,
        )
        if flows:
            traj.flow, traj.jump_flow_left = right[b, :m, k_rows], left[jumps, k_rows]
            traj.inverse_flow = right[b, :m, kb_rows]
            traj.jump_inverse_flow_left = left[jumps, kb_rows]
        out[p] = traj
    return out


def _solve_chunks(groups: Sequence[tuple], x0: np.ndarray, step: float, horizon: float | None,
                  validate: bool, flows: bool, rows: bool = False):
    """:func:`solve_sde` of groups of paths, ``[(coeffs, model, configs),
    ...]``, each group with its own model and drift but all with one jump
    coefficient set (:func:`_jump_set`), in one batch: yields one chunk of paths at a time as
    ``(parts, stacked, right, left)``, the run of each group's paths it holds
    (:func:`_chunks`), its grids (:func:`_stack_grids`) and its stored limits
    (:func:`_integrate`, with ``rows`` only the rows the Gamma of a path
    reads), so that a caller that drops each chunk before the next holds one
    chunk's arrays.  Warns as :func:`solve_sde`, once per group in group
    order, after the last chunk, at the caller of the function that consumes
    the chunks."""
    groups = [(coeffs, model, list(configs)) for coeffs, model, configs in groups]
    coeffs = groups[0][0]
    if any(_jump_set(other) != _jump_set(coeffs) for other, *_ in groups):
        raise InputError("the groups of a batch must share one jump coefficient set")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (coeffs.dim,):
        raise InputError(f"x0 must have shape ({coeffs.dim},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise InputError(f"x0 must be finite, got {x0.tolist()}")
    drifts = [_effective_drift(coeffs, model, flows) for coeffs, model, _ in groups]
    resid = [0.0] * len(groups)
    for parts, grids in _chunks([configs for *_, configs in groups], horizon, step,
                                x0.shape[0], flows, rows):
        stacked = _stack_grids([config for *_, part in parts for config in part], grids,
                               [len(part) for *_, part in parts])
        right, left, worst = _integrate(
            [(groups[g][0], drifts[g], start, len(part)) for g, start, part in parts],
            stacked, x0, flows, validate, rows)
        for (g, *_), w in zip(parts, worst.tolist()):
            resid[g] = max(resid[g], w)
        yield parts, stacked, right, left
        del stacked, right, left
    for r in resid:
        if r > 1e-9:
            warnings.warn(
                f"K Kbar deviates from identity by {r:.3g}; consider a smaller step",
                ConditioningWarning, stacklevel=3,
            )


def solve_sde(
    coeffs: CoefficientSet,
    model: TruncatedLevyModel,
    configs: JumpConfiguration | Sequence[JumpConfiguration],
    x0: np.ndarray,
    step: float,
    horizon: float | None = None,
    validate: bool = True,
    flows: bool = False,
) -> Trajectory | list[Trajectory]:
    """Solve the jump SDE pathwise on one configuration or on a sequence.

    A sequence is solved as a batch, advancing every path in one RK4 loop,
    in consecutive chunks of paths whose stored limits and grid arrays hold
    at most :data:`_CHUNK_VALUES` floats; one configuration is a batch of
    one.  Each path is the same bit for bit as when solved alone.  Returns a
    :class:`Trajectory`, or a list of them in the order of ``configs``; each
    stores X at every regular grid point and jump time up to ``horizon`` (by
    default the configuration's own), with left limits at jumps.  With
    ``flows`` it also stores K and Kbar from the same pass, and warns once
    with :class:`ConditioningWarning` when ``K Kbar`` strays from the
    identity by more than 1e-9 on some path.  With ``validate`` the
    coefficient assumptions are spot-checked at every jump actually taken;
    errors name the path's index in ``configs``.  This is the one-group case
    of the engine's batch, which ``Scenario.sweep_gammas`` runs over several
    groups (one per truncation level), keeping only the rows Gamma reads.
    """
    single = isinstance(configs, JumpConfiguration)
    trajectories: list[Trajectory] = []
    for chunk in _solve_chunks([(coeffs, model, [configs] if single else configs)], x0, step,
                               horizon, validate, flows):
        trajectories += _trajectories(coeffs, chunk, flows)
    return trajectories[0] if single else trajectories

# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``time, is_jump, X_1..X_d[, K_11..K_dd[, Kbar_11..Kbar_dd]]``.

    Flow columns appear only when the corresponding fields are filled;
    matrix entries are row-major.  Jump rows carry right limits.
    """
    d = traj.dim
    header = ["time", "is_jump"] + [f"X_{i + 1}" for i in range(d)]
    columns = [traj.times, traj.is_jump.astype(int), *traj.states.T]
    if traj.flow is not None:
        header += [f"K_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        columns += list(traj.flow.reshape(-1, d * d).T)
    if traj.inverse_flow is not None:
        header += [f"Kbar_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        columns += list(traj.inverse_flow.reshape(-1, d * d).T)
    write_csv(path, header, columns)
