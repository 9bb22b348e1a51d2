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
the one entry point; ``flows=True`` adds K and Kbar to the same pass.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    "validate_coefficients",
    "quadrature_compensator",
    "solve_sde",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

_ETA_SLACK = 1.0 + 1e-9

# Admission limit on the regular grid: a solve with flows stores X, K and
# Kbar on every row, so larger grids are refused before allocation.
MAX_GRID_ROWS = 10 ** 6


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the jump SDE with their x-derivatives.

    ``c(t, x, u)`` is the jump amplitude, ``dx_c`` / ``du_c`` its Jacobians
    in the state and in the mark.  ``drift`` is the deterministic driver
    part (the only driver component supported; see module notes), and
    ``compensator(t, x) = integral c(t, x, u) k(u) du`` may be supplied in
    closed form -- strongly recommended, since the quadrature fallback runs
    inside every integrator stage.  ``eta`` is the dominating function used
    by the assumption validators; when absent only invertibility of
    ``I + dx_c`` is enforced.
    """

    dim: int
    c: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    dx_c: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    du_c: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    drift: Callable[[float, np.ndarray], np.ndarray] | None = None
    dx_drift: Callable[[float, np.ndarray], np.ndarray] | None = None
    compensator: Callable[[float, np.ndarray], np.ndarray] | None = None
    dx_compensator: Callable[[float, np.ndarray], np.ndarray] | None = None
    eta: Callable[[np.ndarray], float] | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("state dimension must be >= 1")
        if (self.drift is None) != (self.dx_drift is None):
            raise InputError("drift and dx_drift must be supplied together")


def quadrature_compensator(model: TruncatedLevyModel, c, dx_c):
    """``compensator`` and ``dx_compensator`` of ``c`` by batched mark quadrature.

    ``c(t, x, U)`` and ``dx_c(t, x, U)`` evaluate a batch of marks ``U`` of
    shape ``(n, r)``, giving ``(n, d)`` and ``(n, d, d)``.  The returned
    ``compensator(t, x) = integral c(t, x, u) k(u) du`` and its x-Jacobian
    come from one vector-valued :class:`MarkQuadrature` integral per
    ``(t, x)``, shared by the two: an integrator stage asks for both at the
    same point.
    """
    quadrature = MarkQuadrature(model)
    # the last point and its integrals, replaced as one tuple so that
    # threads sharing the coefficients never see a torn pair
    last = [(None, None)]

    def integrals(t: float, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        key = (t, x.tobytes())
        last_key, value = last[0]
        if last_key != key:
            d = x.shape[0]

            def integrand(marks: np.ndarray) -> np.ndarray:
                n = marks.shape[0]
                return np.concatenate([np.reshape(c(t, x, marks), (n, d)),
                                       np.reshape(dx_c(t, x, marks), (n, d * d))], axis=1)

            flat = quadrature.integrate(integrand)
            value = flat[:d], flat[d:].reshape(d, d)
            last[0] = key, value
        return value

    return (lambda t, x: integrals(t, x)[0].copy()), (lambda t, x: integrals(t, x)[1].copy())


def _effective_drift(coeffs: CoefficientSet, model: TruncatedLevyModel):
    """Between-jump velocity b - integral c k du and its x-Jacobian."""
    comp, comp_dx = coeffs.compensator, coeffs.dx_compensator
    if comp is None or comp_dx is None:  # quadrature fallback, one mark at a time
        def batched(per_mark):
            return lambda t, x, marks: np.array([per_mark(t, x, u) for u in marks])

        by_quadrature = quadrature_compensator(model, batched(coeffs.c), batched(coeffs.dx_c))
        comp = comp or by_quadrature[0]
        comp_dx = comp_dx or by_quadrature[1]

    if coeffs.drift is None:
        velocity = lambda t, x: -np.asarray(comp(t, x), dtype=float)
        jacobian = lambda t, x: -np.asarray(comp_dx(t, x), dtype=float)
    else:
        velocity = lambda t, x: np.asarray(coeffs.drift(t, x), dtype=float) - np.asarray(comp(t, x), dtype=float)
        jacobian = lambda t, x: np.asarray(coeffs.dx_drift(t, x), dtype=float) - np.asarray(comp_dx(t, x), dtype=float)
    return velocity, jacobian


def _check_r_conditions(coeffs: CoefficientSet, t: float, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Spot-check the standing coefficient assumptions at one point.

    Returns ``I + dx_c`` for reuse.  Raises :class:`ModelError` naming the
    violated condition.
    """
    d = coeffs.dim
    dxc = np.asarray(coeffs.dx_c(t, x, u), dtype=float)
    if dxc.shape != (d, d) or not np.all(np.isfinite(dxc)):
        raise ModelError(f"dx_c at (t={t}) must be a finite ({d}, {d}) matrix")
    m = np.eye(d) + dxc
    eta_val = None
    if coeffs.eta is not None:
        eta_val = float(coeffs.eta(u))
        if np.linalg.norm(dxc, 2) > eta_val * _ETA_SLACK:
            raise ModelError(
                f"jump x-Jacobian norm {np.linalg.norm(dxc, 2):.4g} exceeds eta({u}) = {eta_val:.4g}"
            )
        c0 = np.asarray(coeffs.c(t, np.zeros(d), u), dtype=float)
        if np.linalg.norm(c0) > eta_val * _ETA_SLACK:
            raise ModelError(
                f"jump size at x = 0 norm {np.linalg.norm(c0):.4g} exceeds eta({u}) = {eta_val:.4g}"
            )
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise ModelError(f"jump update I + dx_c singular at (t={t}, u={u})") from None
    if not np.all(np.isfinite(inv)):
        raise ModelError(f"jump update I + dx_c numerically singular at (t={t}, u={u})")
    if eta_val is not None and np.linalg.norm(inv, 2) > eta_val * _ETA_SLACK:
        raise ModelError(
            f"inverse jump update norm {np.linalg.norm(inv, 2):.4g} exceeds eta({u}) = {eta_val:.4g}"
        )
    return m


def validate_coefficients(
    coeffs: CoefficientSet,
    model: TruncatedLevyModel,
    points: Sequence[tuple[float, np.ndarray, np.ndarray]],
) -> None:
    """Spot-check the coefficient assumptions at the given (t, x, u) points."""
    for t, x, u in points:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        val = np.asarray(coeffs.c(t, x, u), dtype=float)
        if val.shape != (coeffs.dim,) or not np.all(np.isfinite(val)):
            raise ModelError(f"c at (t={t}) must be a finite length-{coeffs.dim} vector")
        _check_r_conditions(coeffs, t, x, u)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Path of X (and optionally the flows) on the merged event/output grid.

    Row ``i`` holds the right limit at ``times[i]``; ``*_left`` arrays hold
    the left limits, which differ only on jump rows.  ``atom_index[i]`` is
    the index into ``config`` of the atom at a jump row, ``-1`` elsewhere.
    """

    times: np.ndarray
    is_jump: np.ndarray
    atom_index: np.ndarray
    states: np.ndarray
    states_left: np.ndarray
    config: JumpConfiguration
    coeffs: CoefficientSet | None
    flow: np.ndarray | None = None
    flow_left: np.ndarray | None = None
    inverse_flow: np.ndarray | None = None
    inverse_flow_left: np.ndarray | None = None

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

    def has_flows(self) -> bool:
        return self.flow is not None and self.inverse_flow is not None


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


def _rk4_interval(rhs, t0: float, t1: float, y: np.ndarray) -> np.ndarray:
    h = t1 - t0
    k1 = rhs(t0, y)
    k2 = rhs(t0 + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t0 + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t1, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(
    coeffs: CoefficientSet,
    model: TruncatedLevyModel,
    config: JumpConfiguration,
    x0: np.ndarray,
    step: float,
    horizon: float,
    flows: bool,
    validate: bool,
):
    """One pass over the grid computing X and, with ``flows``, K and Kbar.

    The integrated vector is X alone, or X, K and Kbar stacked row-major.
    The X entries of every stage never read the flow entries, so X is the
    same bit for bit with and without flows.  Returns the grid and the
    stacked right and left limits, one row per grid point.
    """
    d = coeffs.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise InputError(f"x0 must have shape ({d},), got {x0.shape}")
    times, is_jump, atom_index = _build_grid(config, horizon, step)
    m = times.shape[0]
    dd = d * d

    velocity, vel_jac = _effective_drift(coeffs, model)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        x = y[:d]
        out = np.empty_like(y)
        out[:d] = velocity(t, x)
        if flows:
            a = vel_jac(t, x)
            out[d:d + dd] = (a @ y[d:d + dd].reshape(d, d)).ravel()
            out[d + dd:] = -(y[d + dd:].reshape(d, d) @ a).ravel()
        return out

    y = np.concatenate([x0, np.eye(d).ravel(), np.eye(d).ravel()]) if flows else x0.copy()
    rows = np.empty((m, y.shape[0]))
    rows_left = np.empty((m, y.shape[0]))
    rows[0] = rows_left[0] = y
    for i in range(1, m):
        y = _rk4_interval(rhs, times[i - 1], times[i], y)
        if not np.all(np.isfinite(y)):
            raise NumericError(f"integration produced non-finite state at t = {times[i]}")
        rows_left[i] = y
        if is_jump[i]:
            t = float(times[i])
            u = config.marks[atom_index[i]]
            x_left = y[:d]
            if validate:
                jump_matrix = _check_r_conditions(coeffs, t, x_left, u)
            else:
                jump_matrix = np.eye(d) + np.asarray(coeffs.dx_c(t, x_left, u), dtype=float)
            x_right = x_left + np.asarray(coeffs.c(t, x_left, u), dtype=float)
            if not np.all(np.isfinite(x_right)):
                raise NumericError(f"jump update produced non-finite state at t = {t}")
            if flows:
                k_right = jump_matrix @ y[d:d + dd].reshape(d, d)
                try:
                    kb_right = np.linalg.solve(jump_matrix.T, y[d + dd:].reshape(d, d).T).T
                except np.linalg.LinAlgError:
                    raise ModelError(
                        f"jump update I + dx_c singular at (t={t}, u={u})"
                    ) from None
                y = np.concatenate([x_right, k_right.ravel(), kb_right.ravel()])
            else:
                y = x_right
        rows[i] = y

    return times, is_jump, atom_index, rows, rows_left


def solve_sde(
    coeffs: CoefficientSet,
    model: TruncatedLevyModel,
    config: JumpConfiguration,
    x0: np.ndarray,
    step: float,
    horizon: float | None = None,
    validate: bool = True,
    flows: bool = False,
) -> Trajectory:
    """Solve the jump SDE pathwise on the given configuration.

    The returned trajectory stores X at every regular grid point and jump
    time, with left limits at jumps.  With ``flows`` it also stores K and
    Kbar from the same pass, and warns with :class:`ConditioningWarning`
    when ``K Kbar`` strays from the identity by more than 1e-9.  With
    ``validate`` the coefficient assumptions are spot-checked at every jump
    actually taken.
    """
    horizon = config.horizon if horizon is None else float(horizon)
    times, is_jump, atom_index, rows, rows_left = _integrate(
        coeffs, model, config, x0, step, horizon, flows=flows, validate=validate,
    )
    d = coeffs.dim
    traj = Trajectory(
        times=times, is_jump=is_jump, atom_index=atom_index,
        states=np.ascontiguousarray(rows[:, :d]),
        states_left=np.ascontiguousarray(rows_left[:, :d]),
        config=config, coeffs=coeffs,
    )
    if not flows:
        return traj
    m, dd = times.shape[0], d * d
    matrices = lambda a, lo: np.ascontiguousarray(a[:, lo:lo + dd]).reshape(m, d, d)
    traj.flow, traj.flow_left = matrices(rows, d), matrices(rows_left, d)
    traj.inverse_flow = matrices(rows, d + dd)
    traj.inverse_flow_left = matrices(rows_left, d + dd)
    resid = np.abs(np.einsum("tij,tjk->tik", traj.flow, traj.inverse_flow) - np.eye(d)).max()
    if resid > 1e-9:
        warnings.warn(
            f"K Kbar deviates from identity by {resid:.3g}; consider a smaller step",
            ConditioningWarning, stacklevel=2,
        )
    return traj


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


def read_trajectory_csv(path) -> dict:
    """Read a trajectory CSV back into arrays.

    Returns a dict with keys ``times``, ``is_jump``, ``states`` and, when
    present in the file, ``flow`` / ``inverse_flow``.  Left limits are not
    stored in the export format.
    """
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty file")
    header = rows[0]
    if header[:2] != ["time", "is_jump"]:
        raise InputError(f"{path}: unexpected header {header[:2]!r}")
    d = sum(1 for name in header if name.startswith("X_"))
    if d == 0:
        raise InputError(f"{path}: no state columns found")
    n_k = sum(1 for name in header if name.startswith("K_"))
    n_kb = sum(1 for name in header if name.startswith("Kbar_"))
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    data = data.reshape(len(rows) - 1, len(header))
    out = {
        "times": data[:, 0],
        "is_jump": data[:, 1].astype(bool),
        "states": data[:, 2:2 + d],
    }
    pos = 2 + d
    if n_k:
        out["flow"] = data[:, pos:pos + n_k].reshape(-1, d, d)
        pos += n_k
    if n_kb:
        out["inverse_flow"] = data[:, pos:pos + n_kb].reshape(-1, d, d)
    return out
