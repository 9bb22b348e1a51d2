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
on the same grid so the three stay mutually consistent.  ``solve_sde`` is
the one entry point; ``flows=True`` adds K and Kbar to the same pass.  It
solves one configuration or a sequence of them, advancing every path of a
sequence in one loop over batched arrays; the coefficients evaluate batches
of points (see :class:`CoefficientSet`).  Right limits are stored on every
grid row, left limits only on jump rows, where they differ.  The standing
assumptions on ``c`` are checked once per chunk of paths, over all the
jumps it took, from the stored left limits.
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
    "quadrature_compensator",
    "solve_sde",
    "write_trajectory_csv",
]

_ETA_SLACK = 1.0 + 1e-9

# Admission limit on the regular grid: a solve with flows stores X, K and
# Kbar on every row, so larger grids are refused before allocation.
MAX_GRID_ROWS = 10 ** 6

# A solve of many configurations runs in consecutive chunks of paths.  The
# right limits of a chunk (paths x its longest grid x the values of one row),
# its grid arrays (paths x its longest grid x _GRID_VALUES) and its left
# limits (jumps x the values of one row) hold at most this many floats, 4 MB,
# about 43 levy-area paths with flows; a longer path is a chunk of its own.
# On rank-stats over 100 levy-area paths this keeps peak RSS within 5 MB of
# solving one path at a time; twice the bound adds about 5 MB and saves about
# a sixth of the time.
_CHUNK_VALUES = 2 ** 19
# times, atom_index, is_jump (_stack_grids) and by_row, steps, halves
# (_integrate): 41 bytes per path and row, in floats
_GRID_VALUES = 41 / 8


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
      strongly recommended, since the quadrature fallback
      (:func:`quadrature_compensator`) runs inside every integrator stage.
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


def quadrature_compensator(model: TruncatedLevyModel, c, dx_c):
    """``compensator`` and ``dx_compensator`` of ``c`` by batched mark quadrature.

    ``c`` and ``dx_c`` follow the :class:`CoefficientSet` contract.  For each
    row ``(t[p], x[p])`` of a batch, the returned ``compensator(t, x)``,
    ``(P, d)``, and ``dx_compensator(t, x)``, ``(P, d, d)``, come from one
    vector-valued :class:`MarkQuadrature` integral over the marks, shared by
    the two: an integrator stage asks for both at the same points.
    """
    quadrature = MarkQuadrature(model)
    # the last batch and its integrals: a stage asks for compensator and
    # dx_compensator at the same points, so the second call reuses the first's
    last = [(None, None)]

    def integral(t: float, x: np.ndarray) -> np.ndarray:
        d = x.shape[0]

        def integrand(marks: np.ndarray) -> np.ndarray:
            n = marks.shape[0]
            t_rows, x_rows = np.empty(n), np.empty((n, d))
            t_rows.fill(t)
            x_rows[:] = x
            return np.concatenate([
                _shape_checked("c", c(t_rows, x_rows, marks), (n, d)),
                np.reshape(_shape_checked("dx_c", dx_c(t_rows, x_rows, marks), (n, d, d)),
                           (n, d * d)),
            ], axis=1)

        return quadrature.integrate(integrand)

    def integrals(t: np.ndarray, x: np.ndarray):
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        key = (t.tobytes(), x.tobytes())
        last_key, value = last[0]
        if last_key != key:
            d = x.shape[1]
            flat = np.array([integral(tp, xp) for tp, xp in zip(t.tolist(), x)])
            flat = flat.reshape(x.shape[0], d + d * d)
            value = flat[:, :d], flat[:, d:].reshape(-1, d, d)
            last[0] = key, value
        return value

    return (lambda t, x: integrals(t, x)[0].copy()), (lambda t, x: integrals(t, x)[1].copy())


def _shape_checked(name: str, out, shape: tuple, where: Callable[[], str] = str) -> np.ndarray:
    """``out`` as an array, refused with :class:`ModelError` unless it has
    ``shape``, whose first entry counts the points; ``where()`` ends the message."""
    out = np.asarray(out)
    if out.shape != shape:
        raise ModelError(f"{name} must return shape {shape} for {shape[0]} points, "
                         f"got {out.shape}{where()}")
    return out


def _shaped(name: str, fn, tail: tuple):
    """``fn(t, x)``, refused unless it returns shape ``(n,) + tail`` for ``n``
    points; the check runs inline, since the solve calls it at every stage."""
    def call(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(t, x))
        shape = (x.shape[0],) + tail
        return out if out.shape == shape else _shape_checked(name, out, shape)
    return call


def _effective_drift(coeffs: CoefficientSet, model: TruncatedLevyModel):
    """Between-jump velocity b - integral c k du and its x-Jacobian; each
    supplied part must return ``(n, d)``, its x-Jacobian ``(n, d, d)``."""
    d = coeffs.dim
    comp, comp_dx = coeffs.compensator, coeffs.dx_compensator
    if comp is not None:
        comp = _shaped("compensator", comp, (d,))
    if comp_dx is not None:
        comp_dx = _shaped("dx_compensator", comp_dx, (d, d))
    if comp is None or comp_dx is None:
        by_quadrature = quadrature_compensator(model, coeffs.c, coeffs.dx_c)
        comp = comp or by_quadrature[0]
        comp_dx = comp_dx or by_quadrature[1]

    if coeffs.drift is None:
        return (lambda t, x: np.negative(comp(t, x))), (lambda t, x: np.negative(comp_dx(t, x)))
    drift = _shaped("drift", coeffs.drift, (d,))
    drift_dx = _shaped("dx_drift", coeffs.dx_drift, (d, d))
    return ((lambda t, x: np.subtract(drift(t, x), comp(t, x))),
            (lambda t, x: np.subtract(drift_dx(t, x), comp_dx(t, x))))


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry, or ``None``."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _first_singular(matrices: np.ndarray) -> int:
    """Index of the first matrix of a stack that LAPACK finds singular."""
    for k, matrix in enumerate(matrices):
        try:
            np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            return k
    return 0


def _spectral_norms(matrices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """2-norms of the ``rows`` of a stack, NaN elsewhere: one SVD call."""
    norms = np.full(matrices.shape[0], np.nan)
    norms[rows] = np.linalg.norm(matrices[rows], 2, axis=(1, 2))
    return norms


def _check_r_conditions(coeffs: CoefficientSet, t: np.ndarray, x: np.ndarray,
                        u: np.ndarray, where: Callable[[int], str]) -> None:
    """Spot-check the standing coefficient assumptions at a batch of points.

    Every condition is evaluated over the whole batch.  Raises
    :class:`ModelError` at the first offending row ``k``, naming the first
    condition it violates in the order ``dx_c`` finite, ``|dx_c| <= eta``,
    ``|c(t, 0, u)| <= eta``, ``I + dx_c`` invertible, ``|(I + dx_c)^{-1}| <=
    eta``, and through ``where(k)`` its path or point.
    """
    d, n = coeffs.dim, t.shape[0]
    dxc = _shape_checked("dx_c", np.asarray(coeffs.dx_c(t, x, u), dtype=float), (n, d, d),
                         lambda: f" {where(0)}")
    finite = np.isfinite(dxc).all(axis=(1, 2))
    m = np.eye(d) + np.where(finite[:, None, None], dxc, 0.0)
    # np.linalg.inv raises when any matrix of the stack is singular; its
    # kernel fills those inverses with NaN instead
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
        checks += [exceeds(_spectral_norms(dxc, finite), "jump x-Jacobian"),
                   exceeds(np.linalg.norm(size, axis=1), "jump size at x = 0")]
    checks.append((finite & ~invertible, singular))
    if eta is not None:
        checks.append(exceeds(_spectral_norms(inv, finite & invertible), "inverse jump update"))
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


def _build_grid(config: JumpConfiguration, horizon: float, step: float):
    if not (np.isfinite(horizon) and 0 < horizon <= config.horizon):
        raise DomainError(f"horizon must lie in (0, {config.horizon}], got {horizon}")
    regular = _regular_grid(horizon, step)
    jump_times = config.times[config.times <= horizon]
    times = np.union1d(regular, jump_times)
    is_jump = np.isin(times, jump_times)
    atom_index = np.full(times.shape, -1, dtype=int)
    if jump_times.size:
        atom_index[is_jump] = np.searchsorted(config.times, times[is_jump])
    return times, is_jump, atom_index


def _rk4_step(rhs, t0, half, t1, h, y: np.ndarray) -> np.ndarray:
    """One classical RK4 step of ``y`` from ``t0`` over ``half = t0 + h/2``
    to ``t1 = t0 + h``; ``h`` is a scalar or broadcasts against ``y``."""
    k1 = rhs(t0, y)
    k2 = rhs(half, y + 0.5 * h * k1)
    k3 = rhs(half, y + 0.5 * h * k2)
    k4 = rhs(t1, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _chunks(configs: list[JumpConfiguration], horizon: float | None, step: float,
            block: int):
    """Consecutive chunks of paths as ``(start, configs, grids)``: each
    padded batch of right limits and grid arrays (paths x longest grid x
    ``block + _GRID_VALUES`` values) together with the left limits at its
    jumps (jumps x ``block``) holds at most :data:`_CHUNK_VALUES` floats, and
    a path longer than that is a chunk of its own.  A grid is built when its
    chunk is reached."""
    start, grids, longest, jumps = 0, [], 0, 0
    for i, config in enumerate(configs):
        grid = _build_grid(config, config.horizon if horizon is None else float(horizon), step)
        m, j = grid[0].shape[0], int(np.count_nonzero(grid[1]))
        padded = (len(grids) + 1) * max(longest, m) * (block + _GRID_VALUES)
        if grids and padded + (jumps + j) * block > _CHUNK_VALUES:
            yield start, configs[start:i], grids
            start, grids, longest, jumps = i, [], 0, 0
        grids.append(grid)
        longest, jumps = max(longest, m), jumps + j
    if grids:
        yield start, configs[start:], grids


def _stack_grids(configs: Sequence[JumpConfiguration], grids: list):
    """One chunk's grids as batch arrays, longest grid first.

    Returns ``order`` (batch row ``b`` holds path ``order[b]`` of the chunk),
    the grid sizes in chunk order, ``times``, ``is_jump`` and ``atom_index``
    of shape ``(P, m_max)``, each grid padded with its last time, and
    ``marks``, ``(J, r)``, holding the mark of every jump row in the order of
    ``np.nonzero(is_jump)``: by batch row, then by grid row.
    """
    sizes = np.array([grid[0].shape[0] for grid in grids])
    order = np.argsort(-sizes, kind="stable")
    n_paths, m_max = len(configs), int(sizes.max())
    r = max(config.mark_dimension for config in configs)
    times = np.empty((n_paths, m_max))
    is_jump = np.zeros((n_paths, m_max), dtype=bool)
    atom_index = np.full((n_paths, m_max), -1, dtype=int)
    marks = np.zeros((sum(int(np.count_nonzero(grid[1])) for grid in grids), r))
    start = 0
    for b, p in enumerate(order):
        grid_times, jumps, atoms = grids[p]
        m, stop = grid_times.shape[0], start + int(np.count_nonzero(jumps))
        times[b, :m], times[b, m:] = grid_times, grid_times[-1]
        is_jump[b, :m], atom_index[b, :m] = jumps, atoms
        marks[start:stop] = configs[p].marks[atoms[jumps]]
        start = stop
    return order, sizes, times, is_jump, atom_index, marks


def _integrate(coeffs: CoefficientSet, drift, stacked: tuple, x0: np.ndarray,
               flows: bool, validate: bool, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance every path of one chunk through one RK4 loop over grid rows.

    ``stacked`` comes from :func:`_stack_grids`.  A path's state is a
    ``(1, d)`` block holding X, or with ``flows`` a ``(1 + 2d, d)`` block
    holding X, the rows of K and the rows of Kbar; the batch stacks one block
    per path.  A path drops out of the batch after its last row, so row ``i``
    advances the prefix of paths that have one, each between its own grid
    times.  The jump update and the finite-state checks run on the paths that
    jump at row ``i``; with ``validate``, the coefficient assumptions are
    checked once over every jump of the chunk, from the stored left limits,
    after the loop or, when the loop raises, over the jumps taken so far
    before the error propagates.  The X entries of every stage never read the
    flow entries, so X is the same bit for bit with and without flows, and
    every operation acts on each path alone, so a path's rows do not depend
    on the rest of the batch.  ``first`` is the index of the chunk's first
    path in the caller's list.  Returns the right limits, ``(P, m_max, 1
    [+ 2d], d)``, and the left limits at the jumps, ``(J, 1 [+ 2d], d)``, both
    in batch order; the jumps of a path are consecutive, in row order.
    """
    velocity, vel_jac = drift
    d = coeffs.dim
    order, sizes, times, is_jump, _, marks = stacked
    n_paths, m_max = times.shape
    # row i advances the paths with more than i rows: a prefix of the batch
    active = (n_paths - np.searchsorted(np.sort(sizes), np.arange(m_max), side="right")).tolist()
    # per row, the start, midpoint and end time and the step of every path
    by_row = np.ascontiguousarray(times.T)
    steps = by_row[1:] - by_row[:-1]
    halves = by_row[:-1] + 0.5 * steps
    step_columns = steps[:, :, None, None]
    # the jumps are stored (marks, left limits) by path, then row; the loop
    # and the checks take them by row, then path
    jump_paths, jump_rows = np.nonzero(is_jump)
    event_slots = np.lexsort((jump_paths, jump_rows))
    event_paths, event_rows = jump_paths[event_slots], jump_rows[event_slots]
    rows_with_jumps, starts = np.unique(event_rows, return_index=True)
    ends = np.append(starts[1:], event_rows.shape[0])
    jumpers = {row: (event_paths[a:b], event_slots[a:b], b)
               for row, a, b in zip(rows_with_jumps.tolist(), starts.tolist(), ends.tolist())}
    k_rows, kb_rows = slice(1, d + 1), slice(d + 1, 2 * d + 1)

    def rhs(t: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = y[:, 0]
        if not flows:
            return velocity(t, x)[:, None]
        a = vel_jac(t, x)
        out = np.empty_like(y)
        out[:, 0] = velocity(t, x)
        out[:, k_rows] = a @ y[:, k_rows]
        out[:, kb_rows] = -(y[:, kb_rows] @ a)
        return out

    def jump(i: int, batch: np.ndarray, slots: np.ndarray, y: np.ndarray) -> np.ndarray:
        t, u, x_left = times[batch, i], marks[slots], y[batch, 0]
        where = lambda k: f"on path {first + order[batch[k]]}"
        at_first = lambda: f" at t = {t[0]} {where(0)}"
        n = batch.shape[0]
        if flows:
            slope = np.asarray(coeffs.dx_c(t, x_left, u), dtype=float)
            jump_matrix = np.eye(d) + _shape_checked("dx_c", slope, (n, d, d), at_first)
        block = np.empty((n, y.shape[1], d))
        size = np.asarray(coeffs.c(t, x_left, u), dtype=float)
        block[:, 0] = x_left + _shape_checked("c", size, (n, d), at_first)
        k = _first(~np.isfinite(block[:, 0]).all(axis=1))
        if k is not None:
            raise NumericError(f"jump update produced non-finite state at t = {t[k]} {where(k)}")
        if flows:
            block[:, k_rows] = jump_matrix @ y[batch, k_rows]
            try:
                kb_transposed = np.linalg.solve(jump_matrix.transpose(0, 2, 1),
                                                y[batch, kb_rows].transpose(0, 2, 1))
            except np.linalg.LinAlgError:
                k = _first_singular(jump_matrix)
                raise ModelError(
                    f"jump update I + dx_c singular at (t={t[k]}, u={u[k]}) {where(k)}"
                ) from None
            block[:, kb_rows] = kb_transposed.transpose(0, 2, 1)
        return block

    def check(taken: int) -> None:
        """The coefficient assumptions at the first ``taken`` jumps."""
        rows, paths, slots = event_rows[:taken], event_paths[:taken], event_slots[:taken]
        _check_r_conditions(coeffs, times[paths, rows], left[slots, 0], marks[slots],
                            lambda k: f"on path {first + order[paths[k]]}")

    y = np.zeros((n_paths, 1 + 2 * d if flows else 1, d))
    y[:, 0] = x0
    if flows:
        y[:, k_rows] = y[:, kb_rows] = np.eye(d)
    right = np.empty((n_paths, m_max) + y.shape[1:])
    left = np.empty((event_rows.shape[0],) + y.shape[1:])
    right[:, 0] = y
    taken, error = 0, None  # jumps reached by the loop, in (row, path) order
    try:
        for i in range(1, m_max):
            n = active[i]
            # one path steps with a scalar: numpy combines it with y faster
            # than a broadcast column, and to the same bits
            h = steps[i - 1, 0] if n == 1 else step_columns[i - 1, :n]
            y = _rk4_step(rhs, by_row[i - 1, :n], halves[i - 1, :n], by_row[i, :n], h, y[:n])
            if not np.isfinite(y).all():
                k = _first(~np.isfinite(y).all(axis=(1, 2)))
                raise NumericError(
                    f"integration produced non-finite state at t = {times[k, i]} "
                    f"on path {first + order[k]}"
                )
            event = jumpers.get(i)
            if event is not None:
                batch, slots, taken = event
                left[slots] = y[batch]
                y[batch] = jump(i, batch, slots, y)
            right[:n, i] = y
    except Exception as caught:
        error = caught
    # an assumption violated at a jump already taken wins over a later error
    if validate and taken:
        check(taken)
    if error is not None:
        raise error
    return right, left


def _trajectories(coeffs: CoefficientSet, configs: Sequence[JumpConfiguration],
                  stacked: tuple, right: np.ndarray, left: np.ndarray,
                  flows: bool) -> list[Trajectory]:
    """Each path's :class:`Trajectory`, in chunk order, as views into the batch."""
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


def _solve_chunks(coeffs: CoefficientSet, model: TruncatedLevyModel,
                  configs: Sequence[JumpConfiguration], x0: np.ndarray, step: float,
                  horizon: float | None, validate: bool, flows: bool):
    """:func:`solve_sde` of a sequence, yielding the trajectories of one chunk
    at a time, so that a caller that drops each chunk before the next holds
    one chunk's arrays; warns as :func:`solve_sde` after the last chunk, at
    the caller of the function that consumes the chunks."""
    configs = list(configs)
    d = coeffs.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise InputError(f"x0 must have shape ({d},), got {x0.shape}")
    drift = _effective_drift(coeffs, model)
    block = d * (1 + 2 * d if flows else 1)
    resid = 0.0
    for start, part, grids in _chunks(configs, horizon, step, block):
        stacked = _stack_grids(part, grids)
        right, left = _integrate(coeffs, drift, stacked, x0, flows, validate, start)
        chunk = _trajectories(coeffs, part, stacked, right, left, flows)
        del stacked, right, left
        if flows:
            resid = max([resid] + [
                float(np.abs(np.einsum("tij,tjk->tik", traj.flow, traj.inverse_flow)
                             - np.eye(d)).max())
                for traj in chunk
            ])
        yield chunk
        del chunk
    if resid > 1e-9:
        warnings.warn(
            f"K Kbar deviates from identity by {resid:.3g}; consider a smaller step",
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
    errors name the path's index in ``configs``.
    """
    single = isinstance(configs, JumpConfiguration)
    trajectories: list[Trajectory] = []
    for chunk in _solve_chunks(coeffs, model, [configs] if single else configs,
                               x0, step, horizon, validate, flows):
        trajectories += chunk
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
    blocks = [traj.times[:, None], traj.states]
    if traj.flow is not None:
        header += [f"K_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        blocks.append(traj.flow.reshape(-1, d * d))
    if traj.inverse_flow is not None:
        header += [f"Kbar_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        blocks.append(traj.inverse_flow.reshape(-1, d * d))
    values = np.hstack(blocks).tolist()
    write_csv(path, header, (
        [row[0], int(jump)] + row[1:] for row, jump in zip(values, traj.is_jump)
    ))
