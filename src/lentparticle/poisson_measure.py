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

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .bottom_structure import _per_mark
from .errors import ConfigurationError, DomainError, InputError, ModelError, NumericError
from .rng import DOMAIN_ATOMS, _check_seed, stream

__all__ = [
    "TruncatedLevyModel",
    "JumpConfiguration",
    "simulate_configuration",
    "simulate_configurations",
    "add_particle",
    "remove_particle",
    "compensated_integral",
    "MarkQuadrature",
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

    ``support`` and ``density`` take a batch of marks ``U`` of shape
    ``(n, r)``, one mark per row, as :class:`BottomStructure`'s do, and
    return ``(n,)`` values; ``density`` sees only marks inside the support.
    A result of another shape is refused with :class:`ModelError`.

    Parameters
    ----------
    mark_dimension:
        Dimension ``r`` of one mark.
    support:
        Predicate for the open set carrying the intensity: ``(n,)``
        booleans.  Marks outside it contribute nothing.
    bounding_box:
        ``(r, 2)`` array of ``[low, high]`` bounds enclosing the support,
        used as quadrature limits.
    density:
        Intensity ``k(u) >= 0``: ``(n,)`` values.
    truncation:
        Radius ``eps >= 0``; marks with ``|u| <= eps`` are cut away.
    sampler:
        ``sampler(rngs, counts) -> (sum(counts), r)`` array of marks distributed
        according to ``k`` restricted to the truncated support, normalised by
        `mass`: ``counts[i]`` marks from the generator ``rngs[i]``, stacked in
        stream order, each depending only on the draws of its own stream.
    mass:
        Total truncated mass, in closed form.
    name:
        Label used in reports.
    """

    mark_dimension: int
    support: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    density: Callable[[np.ndarray], np.ndarray]
    truncation: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    mass: float
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
        if not np.isfinite(self.mass) or self.mass < 0:
            raise ConfigurationError(
                f"total truncated mass must be finite and >= 0, got {self.mass}"
            )
        object.__setattr__(self, "mass", float(self.mass))


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

    def _subset(self, keep) -> JumpConfiguration:
        """The atoms that ``keep`` (a boolean mask) selects, in order.

        A subset of a validated configuration is still sorted, finite,
        nonzero and inside ``(0, horizon]``, so it is not validated again.
        """
        return _split(self.times[keep], self.marks[keep], [np.count_nonzero(keep)],
                      [self.horizon])[0]

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


def _atom_table(configs: Sequence[JumpConfiguration], r: int):
    """The atoms of ``configs`` as one table: times ``(N,)`` and marks ``(N,
    r)``, path after path, and each path's atom count ``(P,)``."""
    return (np.concatenate([np.zeros(0)] + [config.times for config in configs]),
            np.concatenate([np.zeros((0, r))] + [config.marks for config in configs]),
            np.array([config.n_atoms for config in configs], dtype=int))


def _split(times: np.ndarray, marks: np.ndarray, counts, horizons) -> list[JumpConfiguration]:
    """The configurations of a checked atom table, path ``p`` its ``counts[p]``
    atoms up to ``horizons[p]``: read-only slices that hold every invariant
    of ``JumpConfiguration.__post_init__``, not checked again."""
    times.flags.writeable = marks.flags.writeable = False
    configs = [object.__new__(JumpConfiguration) for _ in horizons]
    for config, n, e, horizon in zip(configs, np.asarray(counts).tolist(),
                                     np.cumsum(counts).tolist(), horizons):
        config.__dict__.update(times=times[e - n:e], marks=marks[e - n:e], horizon=float(horizon))
    return configs


def _simulate_table(model: TruncatedLevyModel, horizon: float, seeds: Sequence[int]):
    """:func:`simulate_configurations` as one read-only atom table
    (:func:`_atom_table`)."""
    if not np.isfinite(horizon) or horizon <= 0:
        raise DomainError(f"horizon must be finite and > 0, got {horizon}")
    mean = model.mass * horizon
    if not mean <= MAX_EXPECTED_ATOMS:
        raise InputError(
            f"expected atom count {mean:.3g} (mass {model.mass:.3g} x horizon {horizon:g}) "
            f"exceeds the limit of {MAX_EXPECTED_ATOMS}; raise the truncation"
        )
    if len(seeds) == 0:
        return np.zeros(0), np.zeros((0, model.mark_dimension)), np.zeros(0, dtype=int)
    for seed in seeds:
        _check_seed(seed)
    rngs = [stream(seed, DOMAIN_ATOMS) for seed in seeds]
    counts = [int(g.poisson(mean)) for g in rngs]
    total, ends = sum(counts), np.cumsum(counts)
    # each atom's path and its row in that path
    path = np.repeat(np.arange(len(counts)), counts)
    row = np.arange(total) - (ends - counts)[path]
    # each path's times sorted in a row of its own, padded with NaN, which
    # sorts last; uniform(0, h) is 0 + h * random(), so one product scales them
    grid = np.full((len(counts), max(counts)), np.nan)
    for g, n, slot in zip(rngs, counts, grid):
        g.random(out=slot[:n])
    grid *= horizon
    grid.sort(axis=1)
    times = grid.reshape(-1)[grid.shape[1] * path + row]
    # the law is diffuse; ties or exact zeros are a measure-zero artefact of
    # floating point, so a path that has one redraws its times on its own
    # stream, before its marks are drawn, rather than reject the run
    tied = np.where(row == 0, ~(times > 0.0), ~(np.diff(times, prepend=0.0) > 0.0))
    for p in dict.fromkeys(path[tied].tolist()):
        for _ in range(99):  # 100 draws in all, with the one above
            t = np.sort(rngs[p].uniform(0.0, horizon, counts[p]))
            if np.all(t[:1] > 0.0) and np.all(np.diff(t) > 0.0):
                break
        else:  # pragma: no cover - probability ~ 0
            raise ConfigurationError("could not draw distinct positive atom times")
        times[ends[p] - counts[p]:ends[p]] = t
    r = model.mark_dimension
    marks = np.array(model.sampler(rngs, counts), dtype=float)  # a copy, made read-only below
    if marks.shape != (total, r):
        raise ModelError(f"sampler returned shape {marks.shape}, expected ({total}, {r})")

    def refuse(bad, error, what):
        if np.any(bad):
            i = np.argmax(bad)
            raise error(f"path {path[i]}: {what} at mark {row[i]}")

    # the invariants of JumpConfiguration, once for the batch; the norm check
    # also refuses zero marks, as the truncation is >= 0
    refuse(~np.all(np.isfinite(marks), axis=1), ModelError, "sampler returned a non-finite mark")
    refuse(np.linalg.norm(marks, axis=1) <= model.truncation, ModelError,
           "sampler returned a mark inside the truncation ball")
    refuse(~_per_mark(model.support(marks), total, "support", bool, ModelError), ModelError,
           "sampler returned a mark outside the support")
    # the times are positive and strictly increasing in each path already
    refuse(times > horizon, ConfigurationError,
           "atom times must be strictly increasing in (0, horizon]")
    times.flags.writeable = marks.flags.writeable = False
    return times, marks, np.array(counts, dtype=int)


def simulate_configurations(model: TruncatedLevyModel, horizon: float,
                            seeds: Sequence[int]) -> list[JumpConfiguration]:
    """Draw one realisation of the truncated measure on ``(0, horizon]`` per seed.

    Each seed's stream draws its atom count (Poisson, mean ``model.mass *
    horizon``) and its times (uniform on the window).  The times of every
    path are sorted and checked for ties and zeros in one pass; only a path
    that has one draws its times again, on its own stream, before the
    sampler.  One sampler call then draws and transforms the marks of every
    stream.  The concatenated atoms are checked once; a failure names the
    path (its index in ``seeds``) and its row.  Configuration ``i`` is a
    pure function of ``(model, horizon, seeds[i])``.  A seed outside ``[0,
    2**64)`` is refused with :class:`InputError` before any draw.
    """
    times, marks, counts = _simulate_table(model, horizon, seeds)
    return _split(times, marks, counts, [horizon] * len(counts))


def simulate_configuration(model: TruncatedLevyModel, horizon: float, seed: int) -> JumpConfiguration:
    """Draw one realisation of the truncated measure on ``(0, horizon]``:
    ``simulate_configurations(model, horizon, [seed])[0]``."""
    return simulate_configurations(model, horizon, [seed])[0]


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
    keep = np.ones(config.n_atoms, dtype=bool)
    keep[idx] = False
    return config._subset(keep)


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


def _rays(box: np.ndarray, theta: np.ndarray, lo_rad: float):
    """The unit directions ``(len(theta), 2)`` of the rays at the angles
    ``theta``, and the radial pieces ``[lo_i, hi_i]`` to integrate, piece ``i``
    on ray ``ray[i]``: from the truncation radius to where the ray leaves the
    box, split at the box's inscribed-circle radius, where disc-shaped
    supports typically end.  Returns ``directions, ray, lo, hi``."""
    r_inscribed = float(min(np.min(-box[:, 0]), np.min(box[:, 1])))
    directions, on_ray = [], []
    for k, th in enumerate(theta):
        e = np.array([np.cos(th), np.sin(th)])
        hi_t = _ray_box_exit(box, e)
        lo_t = min(lo_rad, hi_t)
        cuts = [lo_t] + ([r_inscribed] if lo_t < r_inscribed < hi_t else []) + [hi_t]
        directions.append(e)
        on_ray += [(k, a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    on_ray = np.array(on_ray, dtype=float).reshape(-1, 3)
    return np.array(directions), on_ray[:, 0].astype(int), on_ray[:, 1], on_ray[:, 2]


# the target of each adaptive integral, and the bound its final error
# estimate must meet
_EPSABS = _EPSREL = 1e-12
_RTOL, _ATOL = 1e-8, 1e-10


# QUADPACK's qk21: the 21-point Kronrod extension of the 10-point Gauss rule
# on [-1, 1].  Nodes x_k (the odd-numbered ones are the Gauss nodes), the
# Kronrod weights and the Gauss weights, positive half, descending.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525231600, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_QK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_QK_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_QK_GAUSS = np.zeros(21)
_QK_GAUSS[1:10:2] = _WG
_QK_GAUSS[11:20:2] = _WG[::-1]
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny
_PANEL_LIMIT = 200
# panels whose masked density MarkQuadrature keeps
_WEIGHT_CACHE_SIZE = 4096


def _qk_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 21 nodes of each panel ``[a_i, b_i]``, shape ``(len(a), 21)``."""
    return (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _QK_NODES


def _qk21(values: np.ndarray, a: np.ndarray, b: np.ndarray):
    """qk21 on panels: ``values`` ``(P, 21, m)`` at :func:`_qk_nodes`.

    Returns the Kronrod estimates, qk21's error estimates and their rounding
    floor ``50 eps |f|``, each ``(P, m)``.
    """
    half = 0.5 * (b - a)
    h = np.abs(half)[:, None]
    # a non-finite integrand yields a non-finite estimate, refused by the caller
    with np.errstate(all="ignore"):
        resk = _QK_KRONROD @ values
        err = np.abs(resk - _QK_GAUSS @ values) * h
        resabs = (_QK_KRONROD @ np.abs(values)) * h
        resasc = (_QK_KRONROD @ np.abs(values - 0.5 * resk[:, None, :])) * h
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        floor = 50.0 * _EPMACH * resabs
        err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(floor, err), err)
        return resk * half[:, None], err, floor


def _adaptive_qk21(evaluate, lo, hi, first=None):
    """Integrate the problems ``[lo_i, hi_i]`` together, refining each on its own.

    ``evaluate(owner, a, b)`` returns the integrand of problem ``owner[p]`` at
    the :func:`_qk_nodes` of each panel ``[a_p, b_p]``, shape ``(P, 21, m)``;
    ``first``, if given, is its value on the problems.  A problem is done
    when every component's error estimate is at most ``max(_EPSABS, _EPSREL
    |value|)``.  Until then each pass bisects its panels whose error exceeds
    their share (tolerance / panel count) and their rounding floor, all
    problems' new panels in one ``evaluate`` call; a problem stops refining at
    :data:`_PANEL_LIMIT` panels.  A problem's panels keep their order and its
    decisions read only them, so its bits do not depend on the other
    problems.  Returns the values and error estimates, ``(n_problems, m)`` each.
    """
    n = len(lo)
    owner = np.arange(n)
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    res, err, floor = _qk21(evaluate(owner, a, b) if first is None else first, a, b)
    total, error, count = 0.0 + res, 0.0 + err, np.ones(n, dtype=int)  # one panel per problem
    while True:
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        open_ = (error > tol).any(axis=1) & (count < _PANEL_LIMIT)
        if not np.count_nonzero(open_):
            return total, error
        mid = 0.5 * (a + b)
        share = tol[owner] / count[owner, None]
        refine = (open_[owner] & ((err > share) & (err > floor)).any(axis=1)
                  & (a < mid) & (mid < b))
        if not np.count_nonzero(refine):
            return total, error
        keep = ~refine
        new_a = np.concatenate([a[refine], mid[refine]])
        new_b = np.concatenate([mid[refine], b[refine]])
        new_owner = np.tile(owner[refine], 2)
        r2, e2, f2 = _qk21(evaluate(new_owner, new_a, new_b), new_a, new_b)
        owner = np.concatenate([owner[keep], new_owner])
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        res, err = np.concatenate([res[keep], r2]), np.concatenate([err[keep], e2])
        floor = np.concatenate([floor[keep], f2])
        total = np.zeros((n, res.shape[1]))
        np.add.at(total, owner, res)
        error = np.zeros_like(total)
        np.add.at(error, owner, err)
        count = np.bincount(owner, minlength=n)


class MarkQuadrature:
    """Batched adaptive quadrature of vector integrands against ``k(u) du``.

    ``integrate_each(f, n)`` returns the ``n`` integrals ``integral f_i(u)
    k(u) du``, ``(n, m)``, over the truncated support of ``model``, where
    ``f(index, U) -> (N, m)`` gives ``f_index[j](U[j])`` on a batch ``U`` of
    ``(N, r)`` marks; ``integrate(f)`` is its case of one integrand ``f(U)``.
    A 1-d model is integrated on the two pieces of the line outside the
    truncation ball, a 2-d one in polar coordinates (:func:`_rays`), so the
    truncation radius is an exact limit of each ray.  The rule is QUADPACK's
    21-point Gauss-Kronrod pair with qk21's error estimate (Piessens et al.
    1983), so a smooth integrand is done after one pass; otherwise only the
    panels that fail are bisected, each integrand's on its own
    (:func:`_adaptive_qk21`), so it keeps the bits of a call of its own.
    ``f`` is called once per pass with every new node of that pass.  Raises
    :class:`NumericError` when an integral is not finite (``index`` the first),
    or, with the first failing integral's residual, when a final error
    estimate exceeds ``max(1e-10, 1e-8 |value|)`` in any component; and
    :class:`DomainError` when no node falls in the support of a model of
    mass, or at construction for a 2-d box without the origin.

    The first pass is the same for every integrand, so it is planned once
    (:attr:`_plan`).  The masked density ``k(u) 1_support(u)`` at the nodes
    of every later panel is kept on the instance, so repeated integrals
    evaluate the model once per new panel, in one ``support`` and one
    ``density`` call per pass.
    """

    def __init__(self, model: TruncatedLevyModel):
        if model.mark_dimension > 2:
            raise DomainError(
                "adaptive mark quadrature supports mark dimension <= 2, "
                f"got {model.mark_dimension}; supply a closed-form value instead"
            )
        box = model.bounding_box
        if model.mark_dimension == 2 and np.any((box[:, 0] > 0.0) | (box[:, 1] < 0.0)):
            raise DomainError(f"adaptive mark quadrature integrates 2-d marks along rays from "
                              f"the origin, so bounding_box must contain it, got {box.tolist()}")
        self.model = model
        self._weights: dict[tuple, np.ndarray] = {}
        self._support_hit = False

    def _panel_weights(self, keys: list, marks: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """``scale * k * 1_support`` at ``marks`` ``(P, 21, r)``, cached by panel key."""
        model, cache = self.model, self._weights
        if len(cache) > _WEIGHT_CACHE_SIZE:
            cache.clear()
        missing = [p for p, key in enumerate(keys) if key not in cache]
        if missing:
            flat = marks[missing].reshape(-1, marks.shape[2])
            k = np.zeros(flat.shape[0])
            inside = np.flatnonzero(
                _per_mark(model.support(flat), flat.shape[0], "support", bool, ModelError))
            self._support_hit |= inside.size > 0
            k[inside] = _per_mark(model.density(flat[inside]), inside.size, "density",
                                  error=ModelError)
            for p, w in zip(missing, scale[missing] * k.reshape(len(missing), -1)):
                cache[keys[p]] = w
        return np.array([cache[key] for key in keys])

    def _line_panels(self, a: np.ndarray, b: np.ndarray) -> tuple:
        """The marks ``(P, 21, 1)`` at the nodes of line panels and their weights."""
        x = _qk_nodes(a, b)[:, :, None]
        return x, self._panel_weights(list(zip(a.tolist(), b.tolist())), x, np.ones(x.shape[:2]))

    def _ray_panels(self, theta, directions, ray, a, b) -> tuple:
        """The same for radial panels ``[a_p, b_p]`` on the rays at ``theta[ray]``."""
        rho = _qk_nodes(a, b)
        marks = rho[:, :, None] * directions[ray][:, None, :]
        keys = list(zip(theta[ray].tolist(), a.tolist(), b.tolist()))
        return marks, self._panel_weights(keys, marks, rho)

    @cached_property
    def _plan(self) -> tuple:
        """The first pass of every integrand: pieces ``lo, hi``, marks and weights at their
        nodes; in 2-d radial pieces, then the angles of ``[0, 2 pi]``'s nodes and :func:`_rays`."""
        box, lo_rad = self.model.bounding_box, self.model.truncation
        if self.model.mark_dimension == 1:  # right of the truncation ball, then left of it
            (lo, hi), = box
            pieces = [(a, b) for a, b in ((max(lo_rad, lo), hi), (lo, min(-lo_rad, hi))) if b > a]
            lo, hi = np.array(pieces, dtype=float).reshape(-1, 2).T
            return (lo, hi, *self._line_panels(lo, hi))
        theta = _qk_nodes(np.zeros(1), np.full(1, 2.0 * np.pi)).ravel()
        directions, ray, lo, hi = _rays(box, theta, lo_rad)
        return (lo, hi, *self._ray_panels(theta, directions, ray, lo, hi), theta, directions, ray)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return self.integrate_each(lambda index, marks: f(marks), 1)[0]

    def integrate_each(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       n: int) -> np.ndarray:
        lo, hi, marks, weights, *rays = self._plan

        def on_panels(index, marks, weights):
            """``f`` times ``weights`` at ``marks`` ``(P, 21, r)`` of integrands ``index``."""
            n_panels, n_nodes, r = marks.shape
            values = np.asarray(f(np.repeat(index, n_nodes), marks.reshape(-1, r)), dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total is refused
                return values.reshape(n_panels, n_nodes, values.shape[-1]) * weights[:, :, None]

        each = lambda plan: np.concatenate([plan] * n) if n else plan[:0]  # plan of each integrand

        q = lo.shape[0]
        index = np.repeat(np.arange(n), q)
        first, lo, hi = on_panels(index, each(marks), each(weights)), each(lo), each(hi)
        if not rays:
            def evaluate(owner, a, b):
                return on_panels(index[owner], *self._line_panels(a, b))

            pieces = _adaptive_qk21(evaluate, lo, hi, first)  # values and errors, q per integrand
            with np.errstate(over="ignore", invalid="ignore"):
                total, err = (np.add.reduce(v.reshape(n, q, v.shape[1]), axis=1) for v in pieces)
        else:
            inner_err = np.zeros((n, first.shape[2]))

            def radial(index, theta, directions, ray, lo, hi, first=None):
                """Integrals ``(len(theta) / 21, 21, m)`` on the rays, ray ``k`` of ``index[k]``."""
                def evaluate(owner, a, b):
                    return on_panels(index[ray[owner]],
                                     *self._ray_panels(theta, directions, ray[owner], a, b))

                values, errors = _adaptive_qk21(evaluate, lo, hi, first)
                np.maximum.at(inner_err, index[ray], errors)
                per_theta = np.zeros((theta.shape[0], values.shape[1]))
                np.add.at(per_theta, ray, values)
                return per_theta.reshape(-1, 21, values.shape[1])

            def angular(owner, a, b):
                theta = _qk_nodes(a, b).ravel()
                return radial(np.repeat(owner, 21), theta,
                              *_rays(self.model.bounding_box, theta, self.model.truncation))

            theta, directions, ray = rays
            k = theta.shape[0]
            first = radial(np.repeat(np.arange(n), k), each(theta), each(directions),
                           each(ray) + index * k, lo, hi, first)
            total, err = _adaptive_qk21(angular, np.zeros(n), np.full(n, 2.0 * np.pi), first)
            err = err + 2.0 * np.pi * inner_err
        model = self.model
        if model.mass > 0 and not self._support_hit:  # a support of zero area, such as a curve
            raise DomainError(f"no quadrature node lies in the support of model {model.name!r} "
                              f"of mass {model.mass:g}; supply a closed-form value instead")
        if not np.isfinite(total).all():  # index: the first integrand that is not finite
            raise NumericError("mark-space integral is not finite",
                               index=int(np.isfinite(total).all(axis=1).argmin()))
        failed = ~(err <= np.maximum(_ATOL, _RTOL * np.abs(total)))
        if np.count_nonzero(failed):
            raise NumericError("mark-space quadrature did not converge",
                               residual=float(np.max(err[failed.any(axis=1).argmax()])))
        return total


def compensated_integral(
    config: JumpConfiguration,
    h: Callable[[float, np.ndarray], np.ndarray],
    model: TruncatedLevyModel,
    t: float | None = None,
) -> np.ndarray:
    """Compensated sums ``sum_{t_i <= t} h(t_i, u_i) - int_0^t int h(s, u) k(u) du ds``.

    ``h(s, u)`` takes one time and one mark and returns ``m`` values (a
    scalar is one value); the result has shape ``(m,)``.  The compensator is
    a QK21 time integral over ``[0, t]`` of :class:`MarkQuadrature` integrals,
    one batch per pass over its time nodes, so mark dimension is at most 2; it
    raises :class:`NumericError` when its error estimate exceeds ``max(1e-10,
    1e-8 |value|)``.
    """
    if t is None:
        t = config.horizon
    if not (0.0 <= t <= config.horizon):
        raise DomainError(f"evaluation time {t} outside [0, {config.horizon}]")
    jump_sum = 0.0
    keep = config.times <= t
    for ti, ui in zip(config.times[keep], config.marks[keep]):
        val = np.atleast_1d(np.asarray(h(float(ti), ui), dtype=float))
        if not np.all(np.isfinite(val)):
            raise NumericError(f"h returned non-finite value at atom (t={ti})")
        jump_sum = jump_sum + val
    quadrature = MarkQuadrature(model)

    def evaluate(owner, a, b):
        s = _qk_nodes(a, b)
        times = s.ravel().tolist()
        values = quadrature.integrate_each(lambda index, marks: np.array(
            [np.atleast_1d(np.asarray(h(times[i], u), dtype=float))
             for i, u in zip(index.tolist(), marks)]), len(times))
        return np.reshape(values, s.shape + (-1,))

    comp, err = _adaptive_qk21(evaluate, [0.0], [float(t)])
    comp, err = comp[0], err[0]
    if not np.all(err <= np.maximum(_ATOL, _RTOL * np.abs(comp))):
        raise NumericError("compensator quadrature did not converge", residual=float(np.max(err)))
    return jump_sum - comp
