"""Truncated Poisson random measures on time x mark space.

A model describes a Levy-type intensity ``k(u) du`` on an open mark set,
truncated to ``|u| > eps`` so the total mass is finite.  A realisation of
the associated Poisson random measure on ``(0, T]`` is then a finite list
of atoms ``(t_i, u_i)``, held in :class:`JumpConfiguration`.

The module also provides the two pointwise operators that the gradient
calculus downstream is built from -- adding a particle to a configuration
and removing one -- plus compensated integrals ``sum h(t_i, u_i) -
integral h k du dt`` and quadrature over the truncated mark space.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from ._serialise import write_csv
from .errors import ConfigurationError, DomainError, InputError, ModelError, NumericError
from .rng import DOMAIN_ATOMS, stream

__all__ = [
    "TruncatedLevyModel",
    "JumpConfiguration",
    "simulate_configuration",
    "add_particle",
    "remove_particle",
    "compensated_integral",
    "mark_integral",
    "write_configuration_csv",
    "read_configuration_csv",
]

# Admission limit on the Poisson mean ``mass * horizon``: a simulation whose
# expected atom count exceeds it is refused before any draw.
MAX_EXPECTED_ATOMS = 10 ** 6


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedLevyModel:
    """Finite-mass truncation of a Levy-type mark intensity.

    Parameters
    ----------
    mark_dimension:
        Dimension ``r`` of one mark.
    support:
        Predicate for the open set carrying the intensity; receives a
        length-``r`` vector.  Points outside contribute nothing.
    bounding_box:
        ``(r, 2)`` array of ``[low, high]`` bounds enclosing the support,
        used as quadrature limits.
    density:
        Intensity ``k(u) >= 0``; receives a length-``r`` vector.
    truncation:
        Radius ``eps >= 0``; marks with ``|u| <= eps`` are cut away.
    sampler:
        ``sampler(rng, n) -> (n, r)`` array of marks distributed according
        to ``k`` restricted to the truncated support, normalised by `mass`.
    mass:
        Total truncated mass.  When ``None`` it is computed by quadrature
        at construction (mark dimension at most 2).
    name:
        Label used in reports.
    """

    mark_dimension: int
    support: Callable[[np.ndarray], bool]
    bounding_box: np.ndarray
    density: Callable[[np.ndarray], float]
    truncation: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    mass: float | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.mark_dimension < 1:
            raise InputError("mark_dimension must be >= 1")
        box = np.asarray(self.bounding_box, dtype=float)
        if box.shape != (self.mark_dimension, 2):
            raise InputError(
                f"bounding_box must have shape ({self.mark_dimension}, 2), got {box.shape}"
            )
        if not np.all(np.isfinite(box)) or np.any(box[:, 0] >= box[:, 1]):
            raise InputError("bounding_box rows must be finite [low, high] with low < high")
        object.__setattr__(self, "bounding_box", box)
        if not np.isfinite(self.truncation) or self.truncation < 0:
            raise InputError("truncation must be finite and >= 0")
        mass = self.mass
        if mass is None:
            mass = mark_integral(lambda u: 1.0, self)
        if not np.isfinite(mass) or mass < 0:
            raise ConfigurationError(f"total truncated mass must be finite and >= 0, got {mass}")
        object.__setattr__(self, "mass", float(mass))

    def contains(self, u: np.ndarray) -> bool:
        """True when ``u`` lies in the truncated support."""
        u = np.asarray(u, dtype=float)
        if float(np.linalg.norm(u)) <= self.truncation:
            return False
        return bool(self.support(u))


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JumpConfiguration:
    """Finite atom list ``(t_i, u_i)`` on ``(0, horizon]``.

    Times are strictly increasing (the time marginal is diffuse, so equal
    times occur with probability zero; they are rejected outright) and every
    mark is a nonzero vector.  Instances are immutable; the particle
    operators below return new configurations.
    """

    times: np.ndarray
    marks: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        marks = np.asarray(self.marks, dtype=float)
        if marks.ndim == 1:
            marks = marks.reshape(len(times), -1) if len(times) else marks.reshape(0, 1)
        if times.ndim != 1 or marks.ndim != 2 or marks.shape[0] != times.shape[0]:
            raise ConfigurationError(
                f"times {times.shape} and marks {marks.shape} must be (n,) and (n, r)"
            )
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ConfigurationError(f"horizon must be finite and > 0, got {self.horizon}")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(marks))):
            raise ConfigurationError("times and marks must be finite")
        if times.size:
            if times[0] <= 0 or times[-1] > self.horizon:
                raise ConfigurationError("atom times must lie in (0, horizon]")
            if np.any(np.diff(times) <= 0):
                raise ConfigurationError("atom times must be strictly increasing (no ties)")
            if np.any(np.linalg.norm(marks, axis=1) == 0.0):
                raise ConfigurationError("marks must be nonzero vectors")
        times = times.copy()
        marks = marks.copy()
        times.flags.writeable = False
        marks.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def n_atoms(self) -> int:
        return int(self.times.shape[0])

    @property
    def mark_dimension(self) -> int:
        return int(self.marks.shape[1]) if self.marks.ndim == 2 else 1

    def atom(self, i: int) -> tuple[float, np.ndarray]:
        return float(self.times[i]), self.marks[i]

    def index_of(self, t: float, u: np.ndarray) -> int | None:
        """Index of the atom equal (bitwise) to ``(t, u)``, or ``None``."""
        u = np.asarray(u, dtype=float)
        hits = np.nonzero(self.times == float(t))[0]
        for i in hits:
            if np.array_equal(self.marks[i], u):
                return int(i)
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, JumpConfiguration):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.marks, other.marks)
        )

    def __hash__(self):
        return hash((self.horizon, self.times.tobytes(), self.marks.tobytes()))

    def __repr__(self) -> str:
        return (
            f"JumpConfiguration(n_atoms={self.n_atoms}, "
            f"mark_dimension={self.mark_dimension}, horizon={self.horizon})"
        )


def simulate_configuration(model: TruncatedLevyModel, horizon: float, seed: int) -> JumpConfiguration:
    """Draw one realisation of the truncated measure on ``(0, horizon]``.

    The atom count is Poisson with mean ``model.mass * horizon``, times are
    independent uniforms on the window, and marks come from the model's
    sampler.  The draw is a pure function of ``(model, horizon, seed)``.
    """
    if not np.isfinite(horizon) or horizon <= 0:
        raise DomainError(f"horizon must be finite and > 0, got {horizon}")
    mean = model.mass * horizon
    if not mean <= MAX_EXPECTED_ATOMS:
        raise InputError(
            f"expected atom count {mean:.3g} (mass {model.mass:.3g} x horizon {horizon:g}) "
            f"exceeds the limit of {MAX_EXPECTED_ATOMS}; raise the truncation"
        )
    g = stream(seed, DOMAIN_ATOMS)
    n = int(g.poisson(mean))
    r = model.mark_dimension
    if n == 0:
        return JumpConfiguration(np.empty(0), np.empty((0, r)), horizon)
    for _ in range(100):
        times = g.uniform(0.0, horizon, n)
        # the law is diffuse; ties or exact zeros are a measure-zero artefact
        # of floating point, so redraw rather than reject the run.
        if np.all(times > 0.0) and np.unique(times).size == n:
            break
    else:  # pragma: no cover - probability ~ 0
        raise ConfigurationError("could not draw distinct positive atom times")
    order = np.argsort(times)
    times = times[order]
    marks = np.asarray(model.sampler(g, n), dtype=float)
    if marks.shape != (n, r):
        raise ModelError(f"sampler returned shape {marks.shape}, expected ({n}, {r})")
    if not np.all(np.isfinite(marks)):
        raise ModelError("sampler returned non-finite marks")
    norms = np.linalg.norm(marks, axis=1)
    if np.any(norms <= model.truncation):
        raise ModelError("sampler returned a mark inside the truncation ball")
    for row in marks:
        if not model.support(row):
            raise ModelError("sampler returned a mark outside the support")
    return JumpConfiguration(times, marks, horizon)


def add_particle(config: JumpConfiguration, t: float, u: np.ndarray) -> JumpConfiguration:
    """Creation operator: the configuration with one extra atom at ``(t, u)``.

    Adding an atom that is already present (bitwise equality) returns the
    configuration unchanged -- creation is idempotent.  A new atom at an
    already-occupied time with a *different* mark would break the
    strictly-increasing-times invariant and is rejected.
    """
    t = float(t)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (config.mark_dimension,):
        raise ConfigurationError(
            f"mark must have shape ({config.mark_dimension},), got {u.shape}"
        )
    if not (0.0 < t <= config.horizon):
        raise DomainError(f"time {t} outside (0, {config.horizon}]")
    if np.any(config.times == t):
        if config.index_of(t, u) is not None:
            return config
        raise ConfigurationError(
            f"an atom at time {t} with a different mark exists (tied times rejected)"
        )
    pos = int(np.searchsorted(config.times, t))
    times = np.insert(config.times, pos, t)
    marks = np.insert(config.marks, pos, u, axis=0)
    return JumpConfiguration(times, marks, config.horizon)


def remove_particle(config: JumpConfiguration, t: float, u: np.ndarray) -> JumpConfiguration:
    """Annihilation operator: the configuration with the atom ``(t, u)`` deleted.

    Total on its domain: removing an atom that is not present (bitwise
    equality) returns the configuration unchanged.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    idx = config.index_of(float(t), u)
    if idx is None:
        return config
    times = np.delete(config.times, idx)
    marks = np.delete(config.marks, idx, axis=0)
    return JumpConfiguration(times, marks, config.horizon)


# ---------------------------------------------------------------------------
# quadrature over the truncated mark space
# ---------------------------------------------------------------------------

def _ray_box_exit(box: np.ndarray, direction: np.ndarray) -> float:
    """Distance from the origin to where a ray leaves the box (0 if it misses)."""
    t_lo, t_hi = 0.0, np.inf
    for i, e in enumerate(direction):
        lo, hi = box[i]
        if e == 0.0:
            if lo > 0.0 or hi < 0.0:
                return 0.0
            continue
        a, b = lo / e, hi / e
        if a > b:
            a, b = b, a
        t_lo = max(t_lo, a)
        t_hi = min(t_hi, b)
    if t_lo > 0.0 or t_hi <= 0.0:
        return 0.0
    return t_hi


def mark_integral(
    f: Callable[[np.ndarray], float],
    model: TruncatedLevyModel,
    *,
    lower_radius: float | None = None,
    upper_radius: float | None = None,
    epsabs: float = 1e-12,
    epsrel: float = 1e-12,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> float:
    """Adaptive quadrature of ``f(u) k(u)`` over the truncated support.

    Optionally restricts to the radial shell ``lower_radius < |u| <=
    upper_radius``.  Supports mark dimension 1 and 2; for higher dimensions
    a closed-form value must be supplied by the caller instead.  Raises
    :class:`NumericError` when the quadrature error estimate exceeds
    ``max(atol, rtol * |value|)``.
    """
    r = model.mark_dimension
    lo_rad = max(model.truncation, lower_radius if lower_radius is not None else 0.0)
    box = model.bounding_box

    def masked(u: np.ndarray) -> float:
        if not model.support(u):
            return 0.0
        return float(f(u)) * float(model.density(u))

    if r == 1:
        lo, hi = box[0]
        pieces = []
        # right of the truncation ball
        a = max(lo_rad, lo)
        b = hi if upper_radius is None else min(hi, upper_radius)
        if b > a:
            pieces.append((a, b))
        # left of it
        a = lo if upper_radius is None else max(lo, -upper_radius)
        b = min(-lo_rad, hi)
        if b > a:
            pieces.append((a, b))
        total, err = 0.0, 0.0
        for a, b in pieces:
            val, e = integrate.quad(
                lambda x: masked(np.array([x])), a, b, epsabs=epsabs, epsrel=epsrel, limit=200
            )
            total += val
            err += e
    elif r == 2:
        # polar parametrisation: the radial truncation becomes an exact
        # integration limit instead of a discontinuous indicator.  The
        # radial axis is additionally split at the box's inscribed-circle
        # radius, where disc-shaped supports typically end.
        r_inscribed = float(min(np.min(-box[:, 0]), np.min(box[:, 1])))
        inner_err = [0.0]

        def rad_hi(theta: float) -> float:
            e = np.array([np.cos(theta), np.sin(theta)])
            t_exit = _ray_box_exit(box, e)
            if upper_radius is not None:
                t_exit = min(t_exit, upper_radius)
            return t_exit

        def radial(theta: float) -> float:
            e = np.array([np.cos(theta), np.sin(theta)])
            hi_t = rad_hi(theta)
            lo_t = min(lo_rad, hi_t)
            cuts = [lo_t]
            if lo_t < r_inscribed < hi_t:
                cuts.append(r_inscribed)
            cuts.append(hi_t)
            tot = 0.0
            for a, b in zip(cuts[:-1], cuts[1:]):
                if b <= a:
                    continue
                val, e2 = integrate.quad(
                    lambda rad: rad * masked(rad * e), a, b,
                    epsabs=epsabs, epsrel=epsrel, limit=200,
                )
                tot += val
                inner_err[0] = max(inner_err[0], e2)
            return tot

        total, err = integrate.quad(radial, 0.0, 2.0 * np.pi,
                                    epsabs=epsabs, epsrel=epsrel, limit=200)
        err += 2.0 * np.pi * inner_err[0]
    else:
        raise DomainError(
            f"adaptive mark quadrature supports mark dimension <= 2, got {r}; "
            "supply a closed-form value instead"
        )
    if err > max(atol, rtol * abs(total)):
        raise NumericError("mark-space quadrature did not converge", residual=err)
    return float(total)


def compensated_integral(
    config: JumpConfiguration,
    h: Callable[[float, np.ndarray], float],
    model: TruncatedLevyModel,
    t: float | None = None,
    quadrature: str | Callable[..., float] = "adaptive",
    *,
    epsabs: float = 1e-12,
    epsrel: float = 1e-12,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> float:
    """Compensated sum ``sum_{t_i <= t} h(t_i, u_i) - int_0^t int h(s, u) k(u) du ds``.

    ``quadrature`` is either ``"adaptive"`` (mark dimension at most 2) or a
    callable ``(h, model, t) -> float`` returning the compensator term in
    closed form, which is the only route for higher mark dimensions.
    """
    if t is None:
        t = config.horizon
    if not (0.0 <= t <= config.horizon):
        raise DomainError(f"evaluation time {t} outside [0, {config.horizon}]")
    keep = config.times <= t
    jump_sum = 0.0
    for ti, ui in zip(config.times[keep], config.marks[keep]):
        val = float(h(float(ti), ui))
        if not np.isfinite(val):
            raise NumericError(f"h returned non-finite value at atom (t={ti})")
        jump_sum += val
    if callable(quadrature):
        comp = float(quadrature(h, model, t))
    elif quadrature == "adaptive":
        def time_sliced(s: float) -> float:
            return mark_integral(
                lambda u: h(s, u), model,
                epsabs=epsabs, epsrel=epsrel, rtol=np.inf, atol=np.inf,
            )

        comp, comp_err = integrate.quad(
            time_sliced, 0.0, t, epsabs=epsabs, epsrel=epsrel, limit=100
        )
        if comp_err > max(atol, rtol * abs(comp)):
            raise NumericError("compensator quadrature did not converge", residual=comp_err)
    else:
        raise DomainError(f"unknown quadrature mode {quadrature!r}")
    return jump_sum - comp


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def write_configuration_csv(config: JumpConfiguration, path) -> None:
    """Write atoms as RFC-4180 CSV with columns ``time, mark_1..mark_r``."""
    header = ["time"] + [f"mark_{j + 1}" for j in range(config.mark_dimension)]
    write_csv(path, header, np.column_stack([config.times, config.marks]).tolist())


def read_configuration_csv(path, horizon: float) -> JumpConfiguration:
    """Read a configuration written by :func:`write_configuration_csv`.

    The horizon is not stored in the file and must be supplied.
    """
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty file, expected a header row")
    header = rows[0]
    if header[0] != "time" or any(
        name != f"mark_{j + 1}" for j, name in enumerate(header[1:])
    ):
        raise InputError(f"{path}: unexpected header {header!r}")
    r = len(header) - 1
    if r < 1:
        raise InputError(f"{path}: header has no mark columns")
    times, marks = [], []
    for row in rows[1:]:
        if len(row) != r + 1:
            raise InputError(f"{path}: row {row!r} has {len(row)} fields, expected {r + 1}")
        times.append(float(row[0]))
        marks.append([float(v) for v in row[1:]])
    return JumpConfiguration(
        np.asarray(times, dtype=float),
        np.asarray(marks, dtype=float).reshape(len(times), r),
        horizon,
    )
