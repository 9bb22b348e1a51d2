"""Preconfigured scenarios with closed-form oracles.

Each scenario bundles a truncated Levy model, an SDE coefficient set, a
mark-space structure and -- where one exists -- a closed-form expression
for the carre du champ matrix assembled directly from the atom list.  The
closed forms are computed without touching the ODE integrator or the flow
machinery, so agreement between ``closed_form_gamma`` and the pipeline is
a genuine cross-validation, not a tautology.

Shipped scenarios:

* ``doleans``      -- the pair (Y_t, E(Y)_t) where E(Y) is the stochastic
  (Doleans-Dade) exponential of a compensated 1-d jump integral;
* ``levy-area-1``  -- 2-d driving process plus its stochastic area, marks
  from a polar-factorised intensity, isotropic mark structure;
* ``levy-area-2``  -- same functional with marks carried by the parabola
  ``x2 = x1^2`` and a rank-one tangential structure along it;
* ``null``         -- zero jump coefficient (every Gamma vanishes).

``get_scenario(name, **overrides)`` builds one; the keyword parameters of
its builder are the overrides it accepts, and any other key raises
:class:`InputError`.  ``Scenario.simulate`` draws a configuration,
``Scenario.run`` integrates it with its flows and assembles Gamma, and
``Scenario.gammas`` returns the ``(P, d, d)`` stack of Gamma of a list of
configurations: from the closed form, in one stacked pass, where one exists,
else solved as one batch.  ``Scenario.gamma_of`` is its case of one
configuration.  A builder also refuses parameters its closed form cannot
take: the ``doleans`` exponential needs ``bound < 1``, so that no mark
reaches -1.

There are two scenario families exposed as functions rather than Scenario
records: an interacting-particle mean-field model solved by law-freezing
fixed-point iteration (``mckean_vlasov``), whose particle system is one
``particles``-dimensional path through ``solve_sde``, and the variable-order
stable-like coefficient construction with its normalisation constant,
pushforward and generator checks (``zeta``, ``stable_like_*``).  The
mean-field sweeps and the tagged path re-solved for Gamma share one
coefficient builder, ``_mean_field_coefficients``, which calls the batched
amplitude ``sigma(x, law)`` once per row against the law on the right side
in the compensator and its left limit ``c(t, X_{t-}, u)`` at a jump.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .bottom_structure import BottomStructure, _square_norms, intro_1d, isotropic, psi_over_k
from .errors import (
    ConvergenceWarning,
    DomainError,
    InputError,
    ModelError,
    NumericError,
    StructureError,
)
from .expressions import float_pow
from .lent_particle import (
    GammaMatrix,
    MarkFunctional,
    _chunk_gammas,
    _path_sums,
    _weights,
    gamma_flow,
)
from .poisson_measure import (
    JumpConfiguration,
    TruncatedLevyModel,
    _atom_table,
    _split,
    simulate_configuration,
    simulate_configurations,
)
from .rng import DOMAIN_ATOMS, DOMAIN_PARTICLE, path_seeds, stream
from .sde_engine import (
    CoefficientSet,
    Trajectory,
    _Bound,
    _shape_checked,
    _solve_chunks,
    solve_sde,
)

__all__ = [
    "power_law_model",
    "uniform_box_model",
    "polar_levy_model",
    "graph_levy_model",
    "graph_slope",
    "graph_structure",
    "Scenario",
    "get_scenario",
    "SCENARIO_NAMES",
    "doleans_exponential",
    "DoleansPairFunctional",
    "McKeanResult",
    "mckean_vlasov",
    "zeta",
    "stable_like_coefficient",
    "stable_like_pushforward_check",
    "GeneratorCheckReport",
    "stable_like_generator_check",
]


# ---------------------------------------------------------------------------
# model factories
# ---------------------------------------------------------------------------

def _uniforms(rngs: Sequence[np.random.Generator], counts: Sequence[int]) -> np.ndarray:
    """``counts[i]`` uniforms on [0, 1) from each stream ``rngs[i]``, into one array in order."""
    out = np.empty(sum(counts))
    for rng, n, end in zip(rngs, counts, np.cumsum(counts).tolist()):
        rng.random(out=out[end - n:end])
    return out


def _open_uniforms(rngs: Sequence[np.random.Generator], counts: Sequence[int]) -> np.ndarray:
    """``counts[i]`` uniforms on ``(0, 1)`` from each stream ``rngs[i]``, stacked
    in stream order.  Each stream draws its uniforms; then a stream with a draw
    of exactly 0 draws it again, before its next draw, as often as it takes."""
    v = _uniforms(rngs, counts)
    if not v.all():
        ends = np.cumsum(counts)
        for i in np.unique(np.searchsorted(ends, np.flatnonzero(v == 0.0), side="right")):
            own = v[ends[i] - counts[i]:ends[i]]
            while np.any(own == 0.0):
                own[own == 0.0] = rngs[i].random(int(np.sum(own == 0.0)))
    return v


def power_law_model(
    truncation: float,
    alpha: float = 1.0,
    bound: float = 0.5,
    asymmetry: float = 0.5,
    name: str = "power-law",
) -> TruncatedLevyModel:
    """1-d intensity ``(1 + asymmetry * sign(u)) |u|^(-1-alpha)`` on ``|u| < bound``.

    Infinite activity at the origin for ``alpha > 0``; the truncation makes
    the mass finite.  A nonzero ``asymmetry`` gives the marks a nonzero
    first moment, so the compensator drift is genuinely exercised.  Mass
    and first moment have closed forms (exposed as ``power_law_mass`` /
    ``power_law_first_moment``).
    """
    if not (0 < truncation < bound):
        raise InputError(f"need 0 < truncation < bound, got {truncation} vs {bound}")
    if alpha <= 0 or alpha >= 2:
        raise InputError(f"alpha must be in (0, 2), got {alpha}")
    if not (-1.0 <= asymmetry <= 1.0):
        raise InputError(f"asymmetry must be in [-1, 1], got {asymmetry}")
    lam = power_law_mass(truncation, alpha, bound)
    p_plus = 0.5 * (1.0 + asymmetry)

    def density(marks: np.ndarray) -> np.ndarray:
        x = marks[:, 0]
        return (1.0 + asymmetry * np.sign(x)) * float_pow(np.abs(x), -1.0 - alpha)

    def sampler(rngs: Sequence[np.random.Generator], counts: Sequence[int]) -> np.ndarray:
        # every stream's magnitude draws, then every stream's sign draws
        v = _open_uniforms(rngs, counts)
        sign_draws = _uniforms(rngs, counts)
        lo = truncation ** -alpha
        hi = bound ** -alpha
        mags = (lo - v * (lo - hi)) ** (-1.0 / alpha)
        signs = np.where(sign_draws < p_plus, 1.0, -1.0)
        return (mags * signs)[:, None]

    return TruncatedLevyModel(
        mark_dimension=1,
        support=lambda marks: (0.0 < np.abs(marks[:, 0])) & (np.abs(marks[:, 0]) < bound),
        bounding_box=np.array([[-bound, bound]]),
        density=density,
        truncation=truncation,
        sampler=sampler,
        mass=lam,
        name=name,
    )


def power_law_mass(truncation: float, alpha: float = 1.0, bound: float = 0.5) -> float:
    return 2.0 * (truncation ** -alpha - bound ** -alpha) / alpha


def power_law_first_moment(truncation: float, alpha: float = 1.0, bound: float = 0.5,
                           asymmetry: float = 0.5) -> float:
    if alpha == 1.0:
        base = math.log(bound / truncation)
    else:
        base = (bound ** (1.0 - alpha) - truncation ** (1.0 - alpha)) / (1.0 - alpha)
    return 2.0 * asymmetry * base


def power_law_second_moment(truncation: float, alpha: float = 1.0, bound: float = 0.5) -> float:
    return 2.0 * (bound ** (2.0 - alpha) - truncation ** (2.0 - alpha)) / (2.0 - alpha)


def uniform_box_model(
    mark_dimension: int,
    halfwidth: float = 1.0,
    truncation: float = 0.0,
    intensity: float = 1.0,
    name: str = "uniform-box",
) -> TruncatedLevyModel:
    """Constant intensity on a centred box, radially truncated.

    Closed-form mass for dimensions 1 and 2 (the truncation ball must sit
    inside the box).  Sampling is by rejection against the ball, which
    consumes a deterministic number of draws given the stream.
    """
    if mark_dimension not in (1, 2):
        raise InputError("uniform_box_model supports mark dimension 1 or 2")
    if not (0.0 <= truncation < halfwidth):
        raise InputError(f"need 0 <= truncation < halfwidth, got {truncation}")
    if intensity < 0:
        raise InputError("intensity must be >= 0")
    if mark_dimension == 1:
        lam = intensity * 2.0 * (halfwidth - truncation)
    else:
        lam = intensity * (4.0 * halfwidth ** 2 - math.pi * truncation ** 2)

    def rejection(rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty((n, mark_dimension))
        filled = 0
        while filled < n:
            cand = rng.uniform(-halfwidth, halfwidth, (n - filled, mark_dimension))
            keep = np.linalg.norm(cand, axis=1) > truncation
            kept = cand[keep]
            out[filled:filled + kept.shape[0]] = kept
            filled += kept.shape[0]
        return out

    def sampler(rngs: Sequence[np.random.Generator], counts: Sequence[int]) -> np.ndarray:
        return np.concatenate([rejection(rng, n) for rng, n in zip(rngs, counts)])

    box = np.tile(np.array([[-halfwidth, halfwidth]]), (mark_dimension, 1))
    return TruncatedLevyModel(
        mark_dimension=mark_dimension,
        support=lambda marks: ((_square_norms(marks) > 0.0)
                               & np.all(np.abs(marks) < halfwidth, axis=1)),
        bounding_box=box,
        density=lambda marks: np.full(marks.shape[0], float(intensity)),
        truncation=truncation,
        sampler=sampler,
        mass=lam,
        name=name,
    )


def polar_levy_model(
    truncation: float,
    angular_coefficient: float = 0.5,
    name: str = "polar",
) -> TruncatedLevyModel:
    """2-d intensity that factorises in polar coordinates.

    In polar form the measure is ``g(theta) dtheta x drho / rho`` on the
    unit disc with ``g(theta) = 1 + a cos(theta)``; in Cartesian
    coordinates the density is ``g(theta(u)) / |u|^2``.  Mass
    ``2 pi log(1/eps)`` and first moment ``(1 - eps) (a pi, 0)`` are closed
    forms.  The radial part is infinitely active at the origin.
    """
    a = float(angular_coefficient)
    if not (0.0 <= a < 1.0):
        raise InputError(f"angular_coefficient must be in [0, 1), got {a}")
    if not (0.0 < truncation < 1.0):
        raise InputError(f"truncation must be in (0, 1), got {truncation}")
    lam = 2.0 * math.pi * math.log(1.0 / truncation)

    def density(marks: np.ndarray) -> np.ndarray:
        # math.atan2 and math.cos per mark: numpy's differ in the last bit
        angular = [1.0 + a * math.cos(math.atan2(y, x)) for x, y in marks.tolist()]
        return np.array(angular) / _square_norms(marks)

    def sample_theta(target: np.ndarray) -> np.ndarray:
        # invert the angular CDF (theta + a sin(theta)) / (2 pi) by 60 Newton
        # steps; the derivative 1 + a cos(theta) >= 1 - a > 0 keeps it
        # monotone.  The step acts on each entry alone, so once step k gives
        # back the iterate of step k - 2 the batch cycles with period 1 or 2,
        # and the iterate of step 60 is the one of the same parity.  Each step
        # works in two buffers and writes over the iterate of step k - 3.
        iterates = [target.copy(), np.empty_like(target), np.empty_like(target)]
        step, slope = np.empty_like(target), np.empty_like(target)
        for k in range(1, 61):
            theta, new = iterates[(k - 1) % 3], iterates[k % 3]
            np.add(theta, np.multiply(a, np.sin(theta, out=step), out=step), out=step)
            step -= target
            np.add(1.0, np.multiply(a, np.cos(theta, out=slope), out=slope), out=slope)
            np.subtract(theta, np.divide(step, slope, out=step), out=new)
            if k > 1 and np.array_equal(new, iterates[(k - 2) % 3]):
                return new if k % 2 == 0 else theta
        return new

    def sampler(rngs: Sequence[np.random.Generator], counts: Sequence[int]) -> np.ndarray:
        # every stream's angle draws, then every stream's radius draws
        u = _uniforms(rngs, counts)
        v = _open_uniforms(rngs, counts)
        theta = sample_theta(2.0 * math.pi * u)
        rho = truncation ** (1.0 - v)
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])

    return TruncatedLevyModel(
        mark_dimension=2,
        support=lambda marks: (0.0 < (norms := _square_norms(marks))) & (norms < 1.0),
        bounding_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        density=density,
        truncation=truncation,
        sampler=sampler,
        mass=lam,
        name=name,
    )


def polar_first_moment(truncation: float, angular_coefficient: float) -> np.ndarray:
    return np.array([(1.0 - truncation) * angular_coefficient * math.pi, 0.0])


_CURVE_TOL = 1e-9


def graph_slope(u: np.ndarray) -> np.ndarray:
    """Tangent slopes ``dx2/dx1`` of the parabola carrying the marks.

    Takes one mark ``(2,)`` or a batch ``(n, 2)`` and gives one slope per
    mark.  Raises :class:`DomainError` when a mark is off the curve
    ``x2 = x1^2`` beyond a tight tolerance.
    """
    u = np.asarray(u, dtype=float)
    z = u[..., 0]
    off = np.abs(u[..., 1] - z * z) > _CURVE_TOL * (1.0 + np.linalg.norm(u, axis=-1))
    if np.any(off):
        raise DomainError(
            f"mark {np.atleast_2d(u)[np.flatnonzero(off)[0]]} is not on the curve x2 = x1^2"
        )
    return 2.0 * z


def graph_levy_model(
    truncation: float,
    alpha: float = 1.0,
    bound: float = 0.5,
    asymmetry: float = 0.5,
    name: str = "graph",
) -> TruncatedLevyModel:
    """2-d marks carried by the parabola ``x2 = x1^2``.

    The first coordinate follows the 1-d power-law intensity; the second is
    its square.  The 2-d intensity is singular (a curve carries it), so the
    mass is supplied in closed form and ``density`` returns the 1-d
    intensity of the parametrising coordinate -- downstream structures on
    this model use ``psi = k`` ratios, which never divide by it off-curve.
    """
    base = power_law_model(truncation, alpha, bound, asymmetry, name=name)

    def sampler(rngs: Sequence[np.random.Generator], counts: Sequence[int]) -> np.ndarray:
        z = base.sampler(rngs, counts)[:, 0]
        return np.column_stack([z, z * z])

    def support(marks: np.ndarray) -> np.ndarray:
        z = marks[:, 0]
        on_curve = (np.abs(marks[:, 1] - z * z)
                    <= _CURVE_TOL * (1.0 + np.sqrt(_square_norms(marks))))
        return base.support(marks[:, :1]) & on_curve

    return TruncatedLevyModel(
        mark_dimension=2,
        support=support,
        bounding_box=np.array([[-bound, bound], [0.0, bound ** 2]]),
        density=lambda marks: base.density(marks[:, :1]),
        truncation=truncation,
        sampler=sampler,
        mass=base.mass,
        name=name,
    )


def graph_structure(cap: float = 1.0) -> BottomStructure:
    """Rank-one structure tangential to the parabola ``x2 = x1^2``.

    ``xi(u) = s(u) v v^T`` with ``v = (1, slope(u))`` and
    ``s(u) = min(|u|^2, cap)``; ``psi = k`` so the weight is ``xi`` itself.
    Gradients are pushed along the curve only -- the normal direction
    carries no noise, mirroring a mark measure concentrated on the curve.
    """

    def xi(marks: np.ndarray) -> np.ndarray:
        v = np.column_stack([np.ones(len(marks)), graph_slope(marks)])
        scale = np.minimum(_square_norms(marks), cap)
        return scale[:, None, None] * (v[:, :, None] * v[:, None, :])

    return psi_over_k(r=2, xi=xi, name="GRAPH_TANGENT")


# ---------------------------------------------------------------------------
# Doleans-Dade exponential pair
# ---------------------------------------------------------------------------

def doleans_exponential(config: JumpConfiguration, first_moment: float,
                        t: float) -> tuple[float, float]:
    """Closed-form ``(Y_t, E(Y)_t)`` for the compensated jump integral Y.

    ``Y_t = sum_{a<=t} u_a - m1 t`` and the stochastic exponential is
    evaluated in log space as ``exp(Y_t + sum[log(1+u) - u])`` with the
    sign tracked separately, i.e. with the product factor ``(1+u) e^(-u)``.
    """
    return _exponential(config.marks[config.times <= t, 0], first_moment, t)


def _exponential(marks: np.ndarray, first_moment: float, t: float) -> tuple[float, float]:
    """:func:`doleans_exponential` of the marks ``(n,)`` of the atoms at or before ``t``."""
    if np.any(1.0 + marks == 0.0):
        raise ModelError("mark u = -1 encountered; the exponential degenerates")
    y_t = float(np.sum(marks) - first_moment * t)
    log_e = y_t + float(np.sum(np.log(np.abs(1.0 + marks)) - marks))
    sign = float(np.prod(np.sign(1.0 + marks))) if marks.size else 1.0
    return y_t, sign * math.exp(log_e)


# the pair's coefficients, the same objects at every level, so that a sweep's
# levels share their calls; each fills a preallocated output: on batches this
# small, stacking columns costs more than the arithmetic.  c and the
# compensator fill the solve's own buffer when given one (writes_out)
def _doleans_c(t: np.ndarray, x: np.ndarray, u: np.ndarray, out=None) -> np.ndarray:
    out = np.empty((u.shape[0], 2)) if out is None else out
    out[:, 0] = u[:, 0]
    np.multiply(x[:, 1], u[:, 0], out=out[:, 1])
    return out


def _doleans_dx_c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.zeros((u.shape[0], 2, 2))
    out[:, 1, 1] = u[:, 0]
    return out


def _doleans_du_c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.ones((x.shape[0], 2, 1))
    out[:, 1, 0] = x[:, 1]
    return out


# the compensator pair at first moment m1, one value or one per row
def _doleans_comp(t: np.ndarray, x: np.ndarray, m1: float | np.ndarray,
                  out=None) -> np.ndarray:
    out = np.empty((x.shape[0], 2)) if out is None else out
    out[:, 0] = m1
    np.multiply(x[:, 1], m1, out=out[:, 1])
    return out


def _doleans_dcomp(t: np.ndarray, x: np.ndarray, m1: float | np.ndarray) -> np.ndarray:
    out = np.zeros((x.shape[0], 2, 2))
    out[:, 1, 1] = m1
    return out


# the x-Jacobians depend on m1 or on the mark alone, so a solve calls the
# compensator's once per batch size and the jump's once per chunk
_doleans_dcomp.reads_time = _doleans_dcomp.reads_state = False
_doleans_dx_c.reads_time = _doleans_dx_c.reads_state = False
_doleans_c.writes_out = _doleans_comp.writes_out = True


@dataclass(frozen=True)
class _DoleansEta:
    """``base + |u|``, equal for equal ``base``: a sweep's levels share one check."""

    base: float

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.base + np.abs(u[:, 0])


def doleans_coefficients(first_moment: float, bound: float) -> CoefficientSet:
    """Pair SDE for (Y, E): both components jump proportionally to the mark.

    Marks lie in ``(-bound, bound)`` with ``bound < 1``, so ``1 + u > 0``.
    """
    return CoefficientSet(
        dim=2, c=_doleans_c, dx_c=_doleans_dx_c, du_c=_doleans_du_c,
        compensator=_Bound(_doleans_comp, first_moment),
        dx_compensator=_Bound(_doleans_dcomp, first_moment),
        eta=_DoleansEta(max(1.0, 1.0 / (1.0 - bound))), name="doleans-pair",
    )


def doleans_closed_gamma(marks: np.ndarray, counts: np.ndarray, w: np.ndarray,
                         first_moment: float, t: float) -> np.ndarray:
    """Closed-form 2x2 carre du champ of the pair (Y_t, E(Y)_t), ``(P, 2, 2)``,
    from the marks and counts of an atom table cut at ``t`` (as
    ``Scenario.closed_form_gamma`` takes it) and the atoms' weights ``w``.

    Each atom with mark u contributes ``w(u) (1, E/(1+u)) (x) (1, E/(1+u))``
    where E is its path's terminal exponential.
    """
    e_t = np.array([_exponential(marks[e - n:e, 0], first_moment, t)[1]
                    for n, e in zip(counts.tolist(), np.cumsum(counts).tolist())])
    path = np.repeat(np.arange(counts.size), counts)
    w = w[:, 0, 0]
    w, u, path = w[w != 0.0], marks[w != 0.0, 0], path[w != 0.0]
    v = np.column_stack([np.ones(u.size), e_t[path] / (1.0 + u)])
    return _path_sums(w[:, None, None] * (v[:, :, None] * v[:, None, :]),
                      np.bincount(path, minlength=counts.size))


class DoleansPairFunctional(MarkFunctional):
    """(Y_t, E(Y)_t) as a functional of the configuration, exact Jacobian.

    The mark derivative at atom i is ``(1, E/(1+u_i))``: Y depends on the
    mark linearly and the exponential multiplicatively.
    """

    dim = 2
    exact_jacobian = True

    def __init__(self, first_moment: float, t: float | None = None):
        self.first_moment = first_moment
        self.t = t

    def value(self, config: JumpConfiguration) -> np.ndarray:
        t = config.horizon if self.t is None else self.t
        return np.array(doleans_exponential(config, self.first_moment, t))

    def mark_jacobian(self, config: JumpConfiguration, atom_index: int) -> np.ndarray:
        return self.mark_jacobians(config)[atom_index]

    def mark_jacobians(self, config: JumpConfiguration) -> list[np.ndarray]:
        """Every atom's Jacobian from one :func:`doleans_exponential` call; an
        atom after ``t`` has a zero Jacobian."""
        t = config.horizon if self.t is None else self.t
        _, e_t = doleans_exponential(config, self.first_moment, t)
        before = config.times <= t
        out = np.zeros((config.n_atoms, 2, 1))
        out[before, 0, 0] = 1.0
        out[before, 1, 0] = e_t / (1.0 + config.marks[before, 0])
        return list(out)


# ---------------------------------------------------------------------------
# Levy stochastic area
# ---------------------------------------------------------------------------

# as the doleans pair's: module-level, each filling a preallocated output
def _area_c(t: np.ndarray, x: np.ndarray, u: np.ndarray, out=None) -> np.ndarray:
    out = np.empty((u.shape[0], 3)) if out is None else out
    out[:, :2] = u
    np.subtract(np.multiply(x[:, 0], u[:, 1], out=out[:, 2]), x[:, 1] * u[:, 0], out=out[:, 2])
    return out


def _area_dx_c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.zeros((u.shape[0], 3, 3))
    out[:, 2, 0], out[:, 2, 1] = u[:, 1], -u[:, 0]
    return out


def _area_du_c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.zeros((x.shape[0], 3, 2))
    out[:, 0, 0] = out[:, 1, 1] = 1.0
    out[:, 2, 0], out[:, 2, 1] = -x[:, 1], x[:, 0]
    return out


# the compensator pair at first moment m1, ``(2,)`` or one per row
def _area_comp(t: np.ndarray, x: np.ndarray, m1: np.ndarray, out=None) -> np.ndarray:
    out = np.empty((x.shape[0], 3)) if out is None else out
    out[:, :2] = m1
    np.subtract(np.multiply(x[:, 0], m1[..., 1], out=out[:, 2]), x[:, 1] * m1[..., 0],
                out=out[:, 2])
    return out


def _area_dcomp(t: np.ndarray, x: np.ndarray, m1: np.ndarray) -> np.ndarray:
    out = np.zeros((x.shape[0], 3, 3))
    out[:, 2, 0], out[:, 2, 1] = m1[..., 1], -m1[..., 0]
    return out


_area_dcomp.reads_time = _area_dcomp.reads_state = False
_area_dx_c.reads_time = _area_dx_c.reads_state = False
_area_c.writes_out = _area_comp.writes_out = True


# one function for every level, so that a sweep checks its levels in one call
def _area_eta(u: np.ndarray) -> np.ndarray:
    return 1.0 + np.linalg.norm(u, axis=1)


def area_coefficients(first_moment: np.ndarray) -> CoefficientSet:
    """3-d SDE for (X1, X2, area): the area jumps by ``x1 u2 - x2 u1``."""
    m1 = np.asarray(first_moment, dtype=float)
    return CoefficientSet(
        dim=3, c=_area_c, dx_c=_area_dx_c, du_c=_area_du_c, compensator=_Bound(_area_comp, m1),
        dx_compensator=_Bound(_area_dcomp, m1), eta=_area_eta, name="levy-area",
    )


def _area_closed_path(times: np.ndarray, marks: np.ndarray, counts: np.ndarray, m1: np.ndarray,
                      t: float):
    """Exact paths of (X1, X2, area) up to ``t`` from an atom table cut at
    ``t`` (as ``Scenario.closed_form_gamma`` takes it).

    Between atoms the components move linearly with velocity ``-m1``
    (compensator drift), so every integral below is an exact trapezoid.
    Returns the terminal values ``(P, 3)`` and the path index and left limit
    of every atom.

    Two sequential scans keep the rounding of the atom-by-atom recursion:
    X walks through the interleaved increments ``-(m1 dt_i)`` and ``u_i``
    (``x - y`` is ``x + (-y)`` exactly), so row ``2i + 1`` is the left limit
    at atom ``i`` and row ``2i + 2`` the right limit; the area sums its
    drift and jump terms, each rounded as in the recursion, in that order.
    Both scans run along axis 1 of ``(P, 2 n_max + 2, .)`` arrays, one path
    per slice, zero-padded after each path's last atom; a path's terminal
    values are read at its own last row ``2 n + 1``, so they do not depend
    on what the padding holds.  One scan over the concatenated paths would
    carry each path's total into the next.
    """
    width = int(counts.max(initial=0)) + 1
    path = np.repeat(np.arange(counts.size), counts)
    # each atom's flat index in grid, by which the padded arrays are written
    cell = np.arange(path.size) + np.repeat(width * np.arange(counts.size) - np.cumsum(counts)
                                            + counts, counts)
    ends = np.arange(counts.size), 2 * counts + 1
    # each path's atom times, then t: dt is the interval before each atom
    # and the last one up to t, and 0 on the padding
    grid = np.full((counts.size, width), float(t))
    grid.reshape(-1)[cell] = times
    dt = np.diff(grid, axis=1, prepend=0.0)
    steps = np.zeros((counts.size, 2 * width, 2))
    steps[:, 1::2] = -(m1 * dt[:, :, None])
    steps.reshape(-1, 2)[2 * cell + 2] = marks
    x = np.add.accumulate(steps, axis=1)
    # integral of X over each interval (linear path, exact trapezoid)
    avg = 0.5 * (x[:, 0::2] + x[:, 1::2])
    terms = np.zeros(steps.shape[:2])
    terms[:, 1::2] = -m1[1] * (avg[:, :, 0] * dt) + m1[0] * (avg[:, :, 1] * dt)
    lefts = x.reshape(-1, 2)[2 * cell + 1]
    terms.reshape(-1)[2 * cell + 2] = lefts[:, 0] * marks[:, 1] - lefts[:, 1] * marks[:, 0]
    return np.column_stack([x[ends], np.add.accumulate(terms, axis=1)[ends]]), path, lefts


def area_closed_gamma(times: np.ndarray, marks: np.ndarray, counts: np.ndarray, w: np.ndarray,
                      m1: np.ndarray, t: float, tangent: bool = False):
    """Closed-form 3x3 matrices ``(P, 3, 3)`` for the area triple, the
    terminal values ``(P, 3)`` and the span family, from an atom table cut
    at ``t`` (as ``Scenario.closed_form_gamma`` takes it) and the atoms'
    weights ``w``.

    Per atom, with left limits (X1-, X2-) and terminal values (X1, X2):
    ``A~ = X2(t) - dX2 - 2 X2-`` and ``B~ = X1(t) - dX1 - 2 X1-`` give the
    mark Jacobian rows (1, 0, A~), (0, 1, -B~); conjugating the structure
    weight by that Jacobian yields the displayed per-jump summand, for
    every path in one stack.  The span family, one vector per row, feeds
    the rank-3 density condition: two directions per atom, or with
    ``tangent`` (the structure of :func:`graph_structure`) one along the
    curve.
    """
    v, path, lefts = _area_closed_path(times, marks, counts, m1, t)
    live, u = w.any(axis=(1, 2)), marks
    if not live.all():
        w, u, lefts, path = w[live], marks[live], lefts[live], path[live]
    a_t = v[path, 1] - u[:, 1] - 2.0 * lefts[:, 1]
    b_t = v[path, 0] - u[:, 0] - 2.0 * lefts[:, 0]
    n = a_t.size
    # a contiguous J^T: numpy takes a strided operand 3x as slowly, to the same bits
    jac, jac_t = np.zeros((n, 3, 2)), np.zeros((n, 2, 3))
    jac[:, 0, 0] = jac[:, 1, 1] = jac_t[:, 0, 0] = jac_t[:, 1, 1] = 1.0
    jac[:, 2, 0] = jac_t[:, 0, 2] = a_t
    jac[:, 2, 1] = jac_t[:, 1, 2] = -b_t
    out = _path_sums(jac @ w @ jac_t, np.bincount(path, minlength=len(v)))
    if tangent:
        lam = graph_slope(u)
        span = np.column_stack([np.ones(n), lam, a_t - lam * b_t])
    else:
        # two directions per atom, in atom order
        span = np.zeros((2 * n, 3))
        span[0::2, 0] = span[1::2, 1] = 1.0
        span[0::2, 2], span[1::2, 2] = a_t, -b_t
    return 0.5 * (out + out.transpose(0, 2, 1)), v, span


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------

# A closed form pads every path of a chunk to the chunk's longest atom list,
# and a chunk holds at most this many padded atoms, at most 39 floats each
# at once for the levy-area form: about 510 KB.
_CLOSED_CHUNK_ATOMS = 2 ** 16 // 40


def _closed_chunks(counts: Sequence[int]):
    """Index arrays of the paths of each closed-form chunk, taken in order of
    their atom counts ``counts``: each chunk holds as many paths (at least
    one) as fit in :data:`_CLOSED_CHUNK_ATOMS` atoms padded to its last,
    longest list plus one."""
    order = np.argsort(counts, kind="stable")
    padded = np.asarray(counts, dtype=int)[order] + 1
    start = 0
    while start < len(order):
        # the padded size of the chunk that ends at each later path
        fits = np.arange(1, len(order) - start + 1) * padded[start:] <= _CLOSED_CHUNK_ATOMS
        size = max(1, int(np.count_nonzero(fits)))
        yield order[start:start + size]
        start += size


def _outside_ball(marks: np.ndarray, truncation: float) -> np.ndarray:
    return np.linalg.norm(marks, axis=1) > truncation


@dataclass(frozen=True)
class Scenario:
    """A named, fully configured example with optional closed-form oracle."""

    name: str
    dim: int
    mark_dimension: int
    horizon: float
    eval_time: float
    x0: np.ndarray
    step: float
    default_truncation: float
    bottom: BottomStructure
    make_model: Callable[[float], TruncatedLevyModel]
    make_coeffs: Callable[[TruncatedLevyModel], CoefficientSet]
    # an atom table cut at t, the atoms of P paths at or before t, path after
    # path: times (n,), marks (n, r), counts (P,); then their weights (n, r, r),
    # model, t -> the (P, d, d) stack of their Gamma[X_t]
    closed_form_gamma: Callable[..., np.ndarray] | None = None
    # marks (n, r), truncation -> the mask of the atoms a coarser truncation keeps
    restrict_mask: Callable[[np.ndarray, float], np.ndarray] = _outside_ball
    notes: str = ""

    def model(self, truncation: float | None = None) -> TruncatedLevyModel:
        return self.make_model(self.default_truncation if truncation is None else truncation)

    def simulate(self, truncation: float | None = None, seed: int = 0) -> JumpConfiguration:
        return simulate_configuration(self.model(truncation), self.horizon, seed)

    def restrict(self, configs: Sequence[JumpConfiguration],
                 truncation: float) -> list[JumpConfiguration]:
        """The sub-configurations a coarser truncation would have produced."""
        return self._restricted(_atom_table(configs, self.mark_dimension), truncation,
                                [config.horizon for config in configs])

    def _restricted(self, table: tuple, truncation: float, horizons) -> list[JumpConfiguration]:
        """:meth:`restrict` of a path-major atom table ``(times, marks,
        counts)``, by one mask and one gather: each configuration is a
        read-only slice of the kept atoms, not validated again."""
        times, marks, counts = table
        keep = self.restrict_mask(marks, truncation)
        path = np.repeat(np.arange(len(counts)), counts)
        return _split(times[keep], marks[keep], np.bincount(path[keep], minlength=len(counts)),
                      horizons)

    def pipeline(self, config: JumpConfiguration, truncation: float | None = None,
                 t: float | None = None) -> tuple[TruncatedLevyModel, CoefficientSet, Trajectory]:
        model = self.model(truncation)
        coeffs = self.make_coeffs(model)
        t = self.eval_time if t is None else t
        traj = solve_sde(coeffs, model, config, self.x0, self.step, horizon=t, flows=True)
        return model, coeffs, traj

    def run(self, config: JumpConfiguration, truncation: float | None = None,
            t: float | None = None) -> tuple[Trajectory, GammaMatrix]:
        t = self.eval_time if t is None else t
        _, coeffs, traj = self.pipeline(config, truncation, t)
        return traj, gamma_flow(traj, coeffs, self.bottom, t)

    def gamma_of(self, config: JumpConfiguration, truncation: float | None = None,
                 t: float | None = None) -> np.ndarray:
        """Gamma[X_t] of one configuration, ``gammas([config])[0]``."""
        return self.gammas([config], truncation, t)[0]

    def gammas(self, configs: Sequence[JumpConfiguration], truncation: float | None = None,
               t: float | None = None) -> np.ndarray:
        """Gamma[X_t] of each configuration, in order, as a ``(P, d, d)``
        stack: the one-level case of :meth:`sweep_gammas`."""
        return self.sweep_gammas([(configs, truncation)], t)[0]

    def sweep_gammas(self, levels: Iterable[tuple], t: float | None = None) -> list[np.ndarray]:
        """Gamma[X_t] of each configuration of each level ``(configs,
        truncation)``, in order, as one ``(P, d, d)`` stack per level.
        ``levels`` may be an iterator, taken one level at a time by a closed
        form, so that a level's configurations can be dropped before the next.

        A closed form takes each level as one atom table
        (:meth:`_closed_gammas`); a :class:`StructureError` names the first
        path that fails on its own, by its index in ``configs``.  Without a
        closed form, every level is solved with its flows in one batch, each
        level a group with its own model and coefficients, keeping only the
        rows its Gamma reads: the jump rows and each path's last row.  Each
        chunk of paths is reduced to its stacks (:func:`_chunk_gammas`) before
        the next is solved, each matrix with the bits of
        ``gamma_flow(...).matrix`` on its path alone, and a level warns with
        :class:`ConditioningWarning` as its own solve would.  When a sweep of
        several levels raises, the levels are solved again one at a time, so
        the error (and the warnings before it) are those of the first level
        that fails.  Either way memory does not grow with the number of paths
        beyond the stacks themselves.
        """
        t = self.eval_time if t is None else t
        if self.closed_form_gamma is not None:
            out = []
            for configs, truncation in levels:
                table = _atom_table(configs, self.mark_dimension)
                out += self._closed_gammas(table, [(np.full(len(table[0]), True), truncation)], t)
            return out
        levels = [(list(configs), truncation) for configs, truncation in levels]
        try:
            groups = []
            for configs, truncation in levels:
                model = self.model(truncation)
                groups.append((self.make_coeffs(model), model, configs))
            out = [np.zeros((len(configs), self.dim, self.dim)) for *_, configs in groups]
            for chunk in _solve_chunks(groups, self.x0, self.step, t, validate=True, flows=True,
                                       rows=True):
                parts = chunk[0]
                stacks = _chunk_gammas([groups[g][0] for g, *_ in parts], self.bottom, chunk)
                for (g, start, part), stack in zip(parts, stacks):
                    out[g][start:start + len(part)] = stack
                del chunk  # the next chunk is solved without this one's arrays
        except Exception:
            if len(levels) > 1:
                for level in levels:
                    self.sweep_gammas([level], t)
            raise
        return out

    def _sweep_table(self, table: tuple, truncations: Sequence[float]) -> list[np.ndarray]:
        """:meth:`sweep_gammas` at ``eval_time`` of the levels ``(restrict(configs,
        truncation), truncation)`` of the paths of a path-major atom table
        ``(times, marks, counts)``, with the same bits and errors: a closed
        form takes each level as a mask over the table, a solve its
        configurations."""
        if self.closed_form_gamma is not None:
            levels = [(self.restrict_mask(table[1], eps), eps) for eps in truncations]
            return self._closed_gammas(table, levels, self.eval_time)
        horizons = [self.horizon] * len(table[2])
        return self.sweep_gammas(((self._restricted(table, eps, horizons), eps)
                                  for eps in truncations), self.eval_time)

    def _closed_gammas(self, table: tuple, levels: list, t: float) -> list[np.ndarray]:
        """The closed-form Gamma stacks of levels ``(keep, truncation)`` of an
        atom table ``(times, marks, counts)``, each the atoms that a mask
        ``keep`` selects.  The atoms at or before ``t`` that some level keeps
        are weighed in one call; a level gathers its atoms and weights by its
        mask, one closed-form call per chunk of :func:`_closed_chunks`.  A
        :class:`StructureError` is that of the first level that fails,
        weighed path by path."""
        times, marks, counts = table
        up = (times <= t) & np.logical_or.reduce([keep for keep, _ in levels])
        path = np.repeat(np.arange(len(counts)), counts)[up]
        times, marks = times[up], marks[up]
        rows = [np.flatnonzero(keep[up]) for keep, _ in levels]
        try:
            weights = self.bottom.weight(marks)
        except StructureError:
            for at in rows:
                _weights(self.bottom, marks[at], path[at], len(counts))
            raise
        out = []
        for at, (_, truncation) in zip(rows, levels):
            model = self.model(truncation)
            kept = np.bincount(path[at], minlength=len(counts))
            starts = np.cumsum(kept) - kept
            out.append(np.zeros((len(counts), self.dim, self.dim)))
            for chunk in _closed_chunks(kept):
                n = kept[chunk]
                mine = at[np.repeat(starts[chunk] - (np.cumsum(n) - n), n) + np.arange(n.sum())]
                out[-1][chunk] = self.closed_form_gamma(times[mine], marks[mine], n, weights[mine],
                                                        model, t)
        return out


def _doleans_scenario(
    truncation: float = 1.0 / 17.0,
    alpha: float = 1.0,
    bound: float = 0.5,
    asymmetry: float = 0.5,
    horizon: float = 1.0,
    eval_time: float | None = None,
    step: float = 0.0025,
) -> Scenario:
    if bound >= 1.0:
        raise InputError(
            f"bound: must be < 1, got {bound}; marks u <= -1 degenerate the exponential"
        )
    bs = intro_1d()

    def make_model(eps: float) -> TruncatedLevyModel:
        return power_law_model(eps, alpha, bound, asymmetry)

    def make_coeffs(model: TruncatedLevyModel) -> CoefficientSet:
        m1 = power_law_first_moment(model.truncation, alpha, bound, asymmetry)
        return doleans_coefficients(m1, bound)

    def closed(times, marks, counts, w, model: TruncatedLevyModel, t: float) -> np.ndarray:
        m1 = power_law_first_moment(model.truncation, alpha, bound, asymmetry)
        return doleans_closed_gamma(marks, counts, w, m1, t)

    return Scenario(
        name="doleans", dim=2, mark_dimension=1, horizon=horizon,
        eval_time=horizon if eval_time is None else eval_time,
        x0=np.array([0.0, 1.0]), step=step, default_truncation=truncation,
        bottom=bs, make_model=make_model, make_coeffs=make_coeffs,
        closed_form_gamma=closed,
        notes="compensated 1-d jump integral and its stochastic exponential",
    )


def _levy_area_scenario_1(
    truncation: float = 0.008,
    angular_coefficient: float = 0.5,
    horizon: float = 1.0,
    eval_time: float | None = None,
    step: float = 0.0025,
) -> Scenario:
    bs = isotropic(2)

    def make_model(eps: float) -> TruncatedLevyModel:
        return polar_levy_model(eps, angular_coefficient)

    def make_coeffs(model: TruncatedLevyModel) -> CoefficientSet:
        return area_coefficients(polar_first_moment(model.truncation, angular_coefficient))

    def closed(times, marks, counts, w, model: TruncatedLevyModel, t: float) -> np.ndarray:
        m1 = polar_first_moment(model.truncation, angular_coefficient)
        return area_closed_gamma(times, marks, counts, w, m1, t)[0]

    return Scenario(
        name="levy-area-1", dim=3, mark_dimension=2, horizon=horizon,
        eval_time=horizon if eval_time is None else eval_time,
        x0=np.zeros(3), step=step, default_truncation=truncation,
        bottom=bs, make_model=make_model, make_coeffs=make_coeffs,
        closed_form_gamma=closed,
        notes="2-d driver and stochastic area, isotropic mark structure",
    )


def _levy_area_scenario_2(
    truncation: float = 1.0 / 17.0,
    alpha: float = 1.0,
    bound: float = 0.5,
    asymmetry: float = 0.5,
    horizon: float = 1.0,
    eval_time: float | None = None,
    step: float = 0.0025,
) -> Scenario:
    bs = graph_structure()

    def make_model(eps: float) -> TruncatedLevyModel:
        return graph_levy_model(eps, alpha, bound, asymmetry)

    def moments(eps: float) -> np.ndarray:
        return np.array([
            power_law_first_moment(eps, alpha, bound, asymmetry),
            power_law_second_moment(eps, alpha, bound),
        ])

    def make_coeffs(model: TruncatedLevyModel) -> CoefficientSet:
        return area_coefficients(moments(model.truncation))

    def closed(times, marks, counts, w, model: TruncatedLevyModel, t: float) -> np.ndarray:
        return area_closed_gamma(times, marks, counts, w, moments(model.truncation), t,
                                 tangent=True)[0]

    def restrict_mask(marks: np.ndarray, eps: float) -> np.ndarray:
        # the model truncates the parametrising coordinate, not the 2-d norm
        return np.abs(marks[:, 0]) > eps

    return Scenario(
        name="levy-area-2", dim=3, mark_dimension=2, horizon=horizon,
        eval_time=horizon if eval_time is None else eval_time,
        x0=np.zeros(3), step=step, default_truncation=truncation,
        bottom=bs, make_model=make_model, make_coeffs=make_coeffs,
        closed_form_gamma=closed, restrict_mask=restrict_mask,
        notes="stochastic area with marks carried by the parabola x2 = x1^2",
    )


def _null_scenario(
    truncation: float = 0.05,
    horizon: float = 1.0,
    eval_time: float | None = None,
    step: float = 0.01,
) -> Scenario:
    bs = psi_over_k()

    def make_model(eps: float) -> TruncatedLevyModel:
        return uniform_box_model(1, halfwidth=1.0, truncation=eps, intensity=2.0)

    def make_coeffs(model: TruncatedLevyModel) -> CoefficientSet:
        zero_v = lambda t, x: np.zeros((x.shape[0], 1))
        zero_m = lambda t, x: np.zeros((x.shape[0], 1, 1))
        return CoefficientSet(
            dim=1, c=lambda t, x, u: zero_v(t, x), dx_c=lambda t, x, u: zero_m(t, x),
            du_c=lambda t, x, u: zero_m(t, x), compensator=zero_v, dx_compensator=zero_m,
            name="null",
        )

    def closed(times, marks, counts, w, model: TruncatedLevyModel, t: float) -> np.ndarray:
        return np.zeros((len(counts), 1, 1))

    return Scenario(
        name="null", dim=1, mark_dimension=1, horizon=horizon,
        eval_time=horizon if eval_time is None else eval_time,
        x0=np.zeros(1), step=step, default_truncation=truncation,
        bottom=bs, make_model=make_model, make_coeffs=make_coeffs,
        closed_form_gamma=closed,
        notes="zero jump coefficient; every carre du champ matrix vanishes",
    )


_SCENARIO_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "doleans": _doleans_scenario,
    "levy-area-1": _levy_area_scenario_1,
    "levy-area-2": _levy_area_scenario_2,
    "null": _null_scenario,
}

SCENARIO_NAMES = tuple(_SCENARIO_BUILDERS)


def get_scenario(name: str, **overrides) -> Scenario:
    """Build a shipped scenario by name; keyword overrides reach the builder.

    Its keyword parameters are the accepted overrides: any other key raises
    :class:`InputError`, whose message starts with that key.
    """
    try:
        builder = _SCENARIO_BUILDERS[name]
    except KeyError:
        raise InputError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        ) from None
    accepted = inspect.signature(builder).parameters
    for key in overrides:
        if key not in accepted:
            raise InputError(f"{key}: not accepted by scenario {name!r}")
    return builder(**overrides)


# ---------------------------------------------------------------------------
# mean-field (interacting particle) scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McKeanResult:
    samples: np.ndarray
    gamma: GammaMatrix
    trajectory: Trajectory
    picard_residuals: list[float]
    aa_invertible: bool
    aa_value: float
    law_times: np.ndarray
    law_values: np.ndarray


def _law_lookup(law_times: np.ndarray, law_values: np.ndarray):
    """The law at time ``s``; with ``side="left"``, its left limit at ``s``."""
    def at(s: float, side: str = "right") -> np.ndarray:
        idx = int(np.searchsorted(law_times, s, side=side) - 1)
        return law_values[max(idx, 0)]
    return at


def _mean_field_coefficients(sigma: Callable[[np.ndarray, np.ndarray], np.ndarray],
                             law_at: Callable[..., np.ndarray] | None, first_moment: float,
                             dim: int) -> CoefficientSet:
    """Coefficients of ``dim`` mean-field particles, each driven by its own mark coordinate.

    Particle ``i`` jumps by ``sigma(x, law)[i] u_i`` and is compensated at the
    rate ``sigma(x, law)[i] * first_moment``.  The law is ``law_at(s)`` for the
    compensator and its left limit ``law_at(s, "left")`` at a jump; with
    ``law_at=None`` it is the state itself (the interacting system).  Each row
    of a batch looks up its law once and calls ``sigma`` once.  The
    x-derivatives are diagonal central differences in each particle's own
    state with the law held, which is exact for a frozen law; the interacting
    system is solved without flows.
    """
    def laws(s: np.ndarray, x: np.ndarray, side: str) -> list:
        return list(x) if law_at is None else [law_at(sp, side) for sp in s.tolist()]

    def amplitude(x: np.ndarray, row_laws: list) -> np.ndarray:
        return np.array([_shape_checked("sigma", sigma(xp, law), xp.shape)
                         for xp, law in zip(x, row_laws)], dtype=float).reshape(x.shape)

    def slope(x: np.ndarray, row_laws: list) -> np.ndarray:
        h = 1e-6 * (1.0 + np.abs(x))
        return (amplitude(x + h, row_laws) - amplitude(x - h, row_laws)) / (2.0 * h)

    def diagonal(values: np.ndarray) -> np.ndarray:
        out = np.zeros(values.shape + (dim,))
        out[:, np.arange(dim), np.arange(dim)] = values
        return out

    def c(s: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        # exactly +0.0 where u == 0: a particle that does not jump keeps its bits
        return np.where(u != 0.0, amplitude(x, laws(s, x, "left")) * u, 0.0)

    return CoefficientSet(
        dim=dim, c=c,
        dx_c=lambda s, x, u: diagonal(slope(x, laws(s, x, "left")) * u),
        du_c=lambda s, x, u: diagonal(amplitude(x, laws(s, x, "left"))),
        compensator=lambda s, x: amplitude(x, laws(s, x, "right")) * first_moment,
        dx_compensator=lambda s, x: diagonal(slope(x, laws(s, x, "right")) * first_moment),
        name="mean-field",
    )


def mckean_vlasov(
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray],
    particles: int,
    picard_iters: int,
    model: TruncatedLevyModel,
    t: float,
    seed: int,
    first_moment: float,
    x0: float = 0.0,
    step: float = 0.01,
    bottom: BottomStructure | None = None,
    picard_tol: float = 1e-3,
) -> McKeanResult:
    """Mean-field jump SDE via particles plus law-freezing iteration.

    The amplitude ``sigma(x, law)`` takes states ``x`` of shape ``(n,)`` and
    the empirical law as one sample vector ``(N,)``, and returns ``(n,)``;
    entry ``i`` depends only on ``x[i]`` and ``law``, and any other shape is
    refused with :class:`ModelError`.  The particle system is one path of
    dimension ``particles`` through :func:`solve_sde`, whose atoms are those
    of every particle, each mark in the coordinate of the particle that jumps
    (two particles may not jump at once); the standing assumptions are not
    checked on it.  Stage one solves it with the state as the law; each
    fixed-point iteration then solves it against the frozen law of the
    previous stage, with the 1-d sorted-sample L1 distance between successive
    laws as the convergence proxy (a warning is issued when it stays above
    ``picard_tol``).  The tagged path (particle 0) is finally re-solved with
    its flows against the last frozen law, with the coefficients of the
    sweeps (:func:`_mean_field_coefficients`), so it is particle 0 of the
    last sweep up to the integration error; its carre du champ is assembled
    by the flow rendering.  ``first_moment`` is ``int u k(u) du`` of
    ``model``, the compensator's rate (``power_law_first_moment``).
    """
    if particles < 10:
        raise InputError(f"need at least 10 particles, got {particles}")
    if model.mark_dimension != 1:
        raise InputError("mean-field scenario is 1-d in the marks")
    if picard_iters < 1:
        raise InputError("picard_iters must be >= 1")
    bs = bottom if bottom is not None else psi_over_k()

    configs = simulate_configurations(model, t, path_seeds(seed, particles, DOMAIN_PARTICLE))
    # the system is one path in R^particles: an atom's mark sits in the
    # coordinate of the particle that jumps, zero elsewhere
    times = np.concatenate([config.times for config in configs])
    marks = np.concatenate([np.where(np.arange(particles) == i, config.marks, 0.0)
                            for i, config in enumerate(configs)])
    order = np.argsort(times, kind="stable")
    system = JumpConfiguration(times[order], marks[order], t)

    def sweep(law_at: Callable[..., np.ndarray] | None) -> Trajectory:
        """One solve of the system; interacting when law_at is None."""
        return solve_sde(_mean_field_coefficients(sigma, law_at, first_moment, particles),
                         model, system, np.full(particles, x0, dtype=float), step,
                         horizon=t, validate=False, flows=False)

    interacting = sweep(None)
    grid, law_right = interacting.times, interacting.states
    residuals: list[float] = []
    for _ in range(picard_iters):
        new_right = sweep(_law_lookup(grid, law_right)).states
        residuals.append(float(np.max(np.mean(
            np.abs(np.sort(new_right, axis=1) - np.sort(law_right, axis=1)), axis=1))))
        law_right = new_right
    if residuals and residuals[-1] > picard_tol:
        warnings.warn(
            f"law iteration stalled at residual {residuals[-1]:.3g} > {picard_tol:.3g}",
            ConvergenceWarning, stacklevel=2,
        )

    coeffs = _mean_field_coefficients(sigma, _law_lookup(grid, law_right), first_moment, 1)
    traj = solve_sde(coeffs, model, configs[0], np.array([x0]), step, horizon=t, flows=True)
    gamma = gamma_flow(traj, coeffs, bs, t)
    start = np.full(particles, x0, dtype=float)
    a0 = float(_shape_checked("sigma", sigma(start[:1], start), (1,))[0])
    return McKeanResult(
        samples=law_right[-1].copy(), gamma=gamma, trajectory=traj,
        picard_residuals=residuals, aa_invertible=bool(a0 * a0 > 1e-12),
        aa_value=a0 * a0, law_times=grid, law_values=law_right,
    )


# ---------------------------------------------------------------------------
# stable-like construction
# ---------------------------------------------------------------------------

def zeta(beta: float, d: int = 1) -> float:
    """Normalisation constant of the fractional-Laplacian kernel.

    ``zeta(beta) * integral (1 - cos(xi . y)) |y|^(-d-beta) dy = |xi|^beta``;
    evaluated as ``sin(pi beta / 2) G(1+beta) G((d+beta)/2) /
    (pi^((d+1)/2) G((1+beta)/2))`` with ``G`` the Euler gamma function.
    """
    from scipy import special

    if not (0.0 < beta < 2.0):
        raise DomainError(f"beta must be in (0, 2), got {beta}")
    if d < 1 or int(d) != d:
        raise DomainError(f"d must be a positive integer, got {d}")
    num = math.sin(math.pi * beta / 2.0) * special.gamma(1.0 + beta) \
        * special.gamma((d + beta) / 2.0)
    den = math.pi ** ((d + 1) / 2.0) * special.gamma((1.0 + beta) / 2.0)
    return num / den


def _alpha_at(alpha_fn: Callable[[np.ndarray], float], x: np.ndarray,
              band: tuple[float, float]) -> float:
    lam1, lam2 = band
    if not (0.0 < lam1 <= lam2 < 2.0):
        raise InputError(f"band must satisfy 0 < lam1 <= lam2 < 2, got {band}")
    a = float(alpha_fn(np.atleast_1d(np.asarray(x, dtype=float))))
    if not (lam1 <= a <= lam2):
        raise ModelError(f"alpha(x) = {a} outside the band [{lam1}, {lam2}]")
    return a


def stable_like_coefficient(
    alpha_fn: Callable[[np.ndarray], float],
    u0: float,
    x: np.ndarray,
    z: float,
    sigma_dir: np.ndarray,
    band: tuple[float, float] = (0.1, 1.9),
) -> np.ndarray:
    """Jump amplitude of the variable-order stable-like process.

    ``c(x, sigma, z) = (alpha(x) z / zeta(alpha(x)) + u0^(-alpha(x)))^(-1/alpha(x))
    * sigma``; magnitude decreasing in ``z`` from ``u0`` at ``z = 0`` toward
    0, so jumps never exceed ``u0`` (large jumps are excluded by
    construction).
    """
    if not (np.isfinite(z) and z >= 0.0):
        raise DomainError(f"z must be >= 0, got {z}")
    if not (np.isfinite(u0) and u0 > 0.0):
        raise InputError(f"u0 must be > 0, got {u0}")
    sigma_dir = np.atleast_1d(np.asarray(sigma_dir, dtype=float))
    if abs(float(np.linalg.norm(sigma_dir)) - 1.0) > 1e-12:
        raise InputError("sigma_dir must be a unit vector")
    a = _alpha_at(alpha_fn, x, band)
    mag = (a * z / zeta(a, sigma_dir.shape[0]) + u0 ** -a) ** (-1.0 / a)
    return mag * sigma_dir


def _stable_like_inverse(
    alpha_fn: Callable[[np.ndarray], float],
    u0: float,
    x: np.ndarray,
    r: float,
    band: tuple[float, float] = (0.1, 1.9),
    d: int = 1,
) -> float:
    """Numerically invert ``z -> |c(x, sigma, z)|`` at magnitude ``r``.

    Solved by bracketed root finding on the monotone magnitude map rather
    than by the algebraic inverse, so the pushforward check downstream does
    not reuse the algebra it is validating.
    """
    from scipy import optimize

    if not (0.0 < r < u0):
        raise DomainError(f"r must be in (0, u0), got {r}")
    a = _alpha_at(alpha_fn, x, band)
    zv = zeta(a, d)
    e = np.zeros(d)
    e[0] = 1.0

    def mag_minus_r(z: float) -> float:
        return float(np.linalg.norm(stable_like_coefficient(alpha_fn, u0, x, z, e, band))) - r

    hi = 2.0 * zv * r ** -a / a + 1.0
    while mag_minus_r(hi) > 0.0:
        hi *= 2.0
    return float(optimize.brentq(mag_minus_r, 0.0, hi, xtol=1e-300, rtol=1e-15))


def stable_like_pushforward_check(
    alpha_fn: Callable[[np.ndarray], float],
    u0: float,
    x: np.ndarray,
    n_grid: int = 100,
    band: tuple[float, float] = (0.1, 1.9),
) -> float:
    """Max relative error of the jump-size density against its target.

    The image of Lebesgue measure in ``z`` under the magnitude map must
    have density ``zeta(alpha) r^(-1-alpha)`` on ``(0, u0)``.  The density
    is produced numerically -- invert the map by root finding, then apply a
    fourth-order difference in ``r`` -- and compared to the target on a
    grid, so both the algebraic inverse and its derivative are exercised
    end to end.
    """
    a = _alpha_at(alpha_fn, x, band)
    zv = zeta(a)
    grid = u0 * (np.arange(n_grid) + 0.5) / (n_grid + 0.5)
    worst = 0.0
    for r in grid:
        h = 1e-3 * r
        pts = [r - 2 * h, r - h, r + h, r + 2 * h]
        if pts[0] <= 0 or pts[-1] >= u0:
            h = 0.25 * min(r, u0 - r)
            pts = [r - 2 * h, r - h, r + h, r + 2 * h]
        z = [_stable_like_inverse(alpha_fn, u0, x, p, band) for p in pts]
        dzdr = (z[0] - 8.0 * z[1] + 8.0 * z[2] - z[3]) / (12.0 * h)
        target = zv * r ** (-1.0 - a)
        worst = max(worst, abs(abs(dzdr) - target) / target)
    return worst


@dataclass(frozen=True)
class GeneratorCheckReport:
    mc_estimate: float
    quadrature_value: float
    residual: float
    standard_error: float
    threshold: float
    passed: bool
    n_paths: int
    step: float


# Admission limit on the generator check's paths plus expected jumps, n_paths (1 + lam h)
MAX_GENERATOR_WORK = 10 ** 7


def stable_like_generator_check(
    alpha_fn: Callable[[np.ndarray], float],
    u0: float,
    x: float,
    f: Callable[[float], float],
    h: float,
    n_paths: int,
    seed: int,
    threshold_slope: float = 10.0,
    band: tuple[float, float] = (0.1, 1.9),
    min_jump_fraction: float = 0.001,
) -> GeneratorCheckReport:
    """Compare ``[E f(X_h) - f(x)] / h`` with the quadrature generator (1-d).

    The short-horizon Monte Carlo simulates the compensated jump process
    (directions are symmetric, so the small-jump compensator vanishes and
    there is no drift) with jumps below ``min_jump_fraction * u0`` cut
    away; the quadrature evaluates
    ``integral (f(x+r) + f(x-r) - 2 f(x)) zeta(alpha) r^(-1-alpha) dr`` over
    ``(0, u0)``.  Pass criterion: ``residual <= 3 SE + threshold_slope * h``,
    the second term covering the O(h) state-freezing and truncation bias.
    Above :data:`MAX_GENERATOR_WORK` it raises :class:`InputError` before any draw.
    """
    from scipy import integrate

    if h <= 0 or n_paths < 2:
        raise InputError("need h > 0 and n_paths >= 2")
    xv = np.atleast_1d(np.asarray(float(x), dtype=float))
    a_center = _alpha_at(alpha_fn, xv, band)
    zv = zeta(a_center)

    # quadrature side; the integrand behaves like r^(1-alpha) near 0, so
    # substitute r = s^p with p = 2/(2-alpha) to make it vanish linearly
    p_exp = 2.0 / (2.0 - a_center)

    def sym_integrand(s: float) -> float:
        if s <= 0.0:
            return 0.0
        r = s ** p_exp
        core = (f(x + r) + f(x - r) - 2.0 * f(x)) * zv * r ** (-1.0 - a_center)
        return core * p_exp * s ** (p_exp - 1.0)

    with warnings.catch_warnings():
        # the substitution leaves only benign roundoff chatter near s = 0
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        quad_val, quad_err = integrate.quad(sym_integrand, 0.0, u0 ** (1.0 / p_exp),
                                            epsabs=1e-10, epsrel=1e-10, limit=400)
    if quad_err > max(1e-6, 1e-4 * abs(quad_val)):
        raise NumericError(
            "generator quadrature did not converge; refine near r = 0",
            residual=quad_err,
        )

    # Monte Carlo side: z-truncation at the level whose jump magnitude is
    # min_jump_fraction * u0 (the cut tail contributes O(r_min^(2-alpha))).
    r_min = min_jump_fraction * u0
    z_max = _stable_like_inverse(alpha_fn, u0, xv, r_min, band)
    lam = 2.0 * z_max  # both directions carry dz
    if not n_paths * (1.0 + lam * h) <= MAX_GENERATOR_WORK:
        raise InputError(f"{n_paths} paths of {lam * h:.3g} expected jumps each exceed the "
                         f"limit of {MAX_GENERATOR_WORK} paths plus jumps")
    g = stream(seed, DOMAIN_ATOMS)
    counts = g.poisson(lam * h, n_paths)
    total = int(counts.sum())
    z_draws = g.uniform(0.0, z_max, total)
    dir_draws = np.where(g.random(total) < 0.5, 1.0, -1.0)
    vals = np.empty(n_paths)
    pos = 0
    e1 = np.ones(1)
    for p in range(n_paths):
        state = float(x)
        for _ in range(int(counts[p])):
            jump = stable_like_coefficient(
                alpha_fn, u0, np.atleast_1d(state), float(z_draws[pos]),
                e1 * dir_draws[pos], band,
            )
            state += float(jump[0])
            pos += 1
        vals[p] = (f(state) - f(x)) / h
    mc = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_paths))
    residual = abs(mc - quad_val)
    thr = 3.0 * se + threshold_slope * h
    return GeneratorCheckReport(
        mc_estimate=mc, quadrature_value=quad_val, residual=residual,
        standard_error=se, threshold=thr, passed=bool(residual <= thr),
        n_paths=n_paths, step=h,
    )
