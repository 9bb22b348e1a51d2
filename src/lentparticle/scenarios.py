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
``Scenario.gamma_of`` returns the closed form where one exists;
``Scenario.gammas`` does so for a list of configurations, which it solves as
one batch where there is no closed form.  A builder
also refuses parameters its closed form cannot take: the ``doleans``
exponential needs ``bound < 1``, so that no mark reaches -1.

There are two scenario families exposed as functions rather than Scenario
records: an interacting-particle mean-field model solved by law-freezing
fixed-point iteration (``mckean_vlasov``), and the variable-order
stable-like coefficient construction with its normalisation constant,
pushforward and generator checks (``zeta``, ``stable_like_*``).
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize, special

from .bottom_structure import BottomStructure, intro_1d, isotropic, psi_over_k
from .errors import (
    ConvergenceWarning,
    DomainError,
    InputError,
    ModelError,
    NumericError,
)
from .lent_particle import GammaMatrix, MarkFunctional, gamma_flow
from .poisson_measure import (
    JumpConfiguration,
    TruncatedLevyModel,
    mark_integral,
    simulate_configuration,
)
from .rng import DOMAIN_ATOMS, DOMAIN_PARTICLE, stream
from .sde_engine import (
    CoefficientSet,
    Trajectory,
    _regular_grid,
    _rk4_step,
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
    "stable_like_inverse",
    "stable_like_pushforward_check",
    "GeneratorCheckReport",
    "stable_like_generator_check",
]


# ---------------------------------------------------------------------------
# model factories
# ---------------------------------------------------------------------------

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

    def density(u: np.ndarray) -> float:
        x = float(u[0])
        return (1.0 + asymmetry * np.sign(x)) * abs(x) ** (-1.0 - alpha)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        v = rng.random(n)
        while np.any(v == 0.0):
            v[v == 0.0] = rng.random(int(np.sum(v == 0.0)))
        lo = truncation ** -alpha
        hi = bound ** -alpha
        mags = (lo - v * (lo - hi)) ** (-1.0 / alpha)
        signs = np.where(rng.random(n) < p_plus, 1.0, -1.0)
        return (mags * signs)[:, None]

    return TruncatedLevyModel(
        mark_dimension=1,
        support=lambda u: 0.0 < abs(float(u[0])) < bound,
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

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty((n, mark_dimension))
        filled = 0
        while filled < n:
            cand = rng.uniform(-halfwidth, halfwidth, (n - filled, mark_dimension))
            keep = np.linalg.norm(cand, axis=1) > truncation
            kept = cand[keep]
            out[filled:filled + kept.shape[0]] = kept
            filled += kept.shape[0]
        return out

    box = np.tile(np.array([[-halfwidth, halfwidth]]), (mark_dimension, 1))
    return TruncatedLevyModel(
        mark_dimension=mark_dimension,
        support=lambda u: bool(float(u @ u) > 0.0 and np.all(np.abs(u) < halfwidth)),
        bounding_box=box,
        density=lambda u: float(intensity),
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

    def density(u: np.ndarray) -> float:
        rho2 = float(u @ u)
        theta = math.atan2(float(u[1]), float(u[0]))
        return (1.0 + a * math.cos(theta)) / rho2

    def sample_theta(rng: np.random.Generator, n: int) -> np.ndarray:
        # invert the angular CDF (theta + a sin(theta)) / (2 pi) by Newton;
        # the derivative 1 + a cos(theta) >= 1 - a > 0 keeps it monotone.
        target = 2.0 * math.pi * rng.random(n)
        theta = target.copy()
        for _ in range(60):
            theta -= (theta + a * np.sin(theta) - target) / (1.0 + a * np.cos(theta))
        return theta

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        theta = sample_theta(rng, n)
        v = rng.random(n)
        while np.any(v == 0.0):
            v[v == 0.0] = rng.random(int(np.sum(v == 0.0)))
        rho = truncation ** (1.0 - v)
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])

    return TruncatedLevyModel(
        mark_dimension=2,
        support=lambda u: 0.0 < float(u @ u) < 1.0,
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


def graph_slope(u: np.ndarray) -> float:
    """Tangent slope ``dx2/dx1`` of the parabola carrying the marks.

    Raises :class:`DomainError` when the point is off the curve
    ``x2 = x1^2`` beyond a tight tolerance.
    """
    z = float(u[0])
    if abs(float(u[1]) - z * z) > _CURVE_TOL * (1.0 + float(np.linalg.norm(u))):
        raise DomainError(f"mark {u} is not on the curve x2 = x1^2")
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

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        z = base.sampler(rng, n)[:, 0]
        return np.column_stack([z, z * z])

    def support(u: np.ndarray) -> bool:
        z = float(u[0])
        if not (0.0 < abs(z) < bound):
            return False
        return abs(float(u[1]) - z * z) <= _CURVE_TOL * (1.0 + float(np.linalg.norm(u)))

    return TruncatedLevyModel(
        mark_dimension=2,
        support=support,
        bounding_box=np.array([[-bound, bound], [0.0, bound ** 2]]),
        density=lambda u: base.density(u[:1]),
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

    def xi(u: np.ndarray) -> np.ndarray:
        lam = graph_slope(u)
        v = np.array([1.0, lam])
        return min(float(u @ u), cap) * np.outer(v, v)

    return BottomStructure(
        mark_dimension=2,
        support=lambda u: bool(u @ u > 0.0),
        density=lambda u: 1.0,
        psi=lambda u: 1.0,
        xi=xi,
        name="GRAPH_TANGENT",
    )


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
    keep = config.times <= t
    marks = config.marks[keep, 0]
    if np.any(1.0 + marks == 0.0):
        raise ModelError("mark u = -1 encountered; the exponential degenerates")
    y_t = float(np.sum(marks) - first_moment * t)
    log_e = y_t + float(np.sum(np.log(np.abs(1.0 + marks)) - marks))
    sign = float(np.prod(np.sign(1.0 + marks))) if marks.size else 1.0
    return y_t, sign * math.exp(log_e)


def doleans_coefficients(first_moment: float, bound: float) -> CoefficientSet:
    """Pair SDE for (Y, E): both components jump proportionally to the mark.

    Marks lie in ``(-bound, bound)`` with ``bound < 1``, so ``1 + u > 0``.
    """
    eta_base = max(1.0, 1.0 / (1.0 - bound))

    # each callable fills a preallocated output: on batches this small, stacking
    # columns costs more than the arithmetic, and these run in every RK4 stage
    def c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.empty((u.shape[0], 2))
        out[:, 0] = u[:, 0]
        out[:, 1] = x[:, 1] * u[:, 0]
        return out

    def dx_c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.zeros((u.shape[0], 2, 2))
        out[:, 1, 1] = u[:, 0]
        return out

    def du_c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.ones((x.shape[0], 2, 1))
        out[:, 1, 0] = x[:, 1]
        return out

    def comp(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.empty((x.shape[0], 2))
        out[:, 0] = first_moment
        out[:, 1] = x[:, 1] * first_moment
        return out

    def dcomp(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 1, 1] = first_moment
        return out

    eta = lambda u: eta_base + np.abs(u[:, 0])
    return CoefficientSet(
        dim=2, c=c, dx_c=dx_c, du_c=du_c,
        compensator=comp, dx_compensator=dcomp, eta=eta, name="doleans-pair",
    )


def doleans_closed_gamma(config: JumpConfiguration, first_moment: float,
                         bs: BottomStructure, t: float) -> np.ndarray:
    """Closed-form 2x2 carre du champ of the pair (Y_t, E(Y)_t).

    Each atom with mark u contributes ``w(u) (1, E/(1+u)) (x) (1, E/(1+u))``
    where E is the terminal exponential and w the structure weight.
    """
    _, e_t = doleans_exponential(config, first_moment, t)
    out = np.zeros((2, 2))
    keep = config.times <= t
    for u in config.marks[keep]:
        w = float(bs.weight(u)[0, 0])
        if w == 0.0:
            continue
        v = np.array([1.0, e_t / (1.0 + float(u[0]))])
        out += w * np.outer(v, v)
    return out


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
        t = config.horizon if self.t is None else self.t
        ti, u = config.atom(atom_index)
        if ti > t:
            return np.zeros((2, 1))
        _, e_t = doleans_exponential(config, self.first_moment, t)
        return np.array([[1.0], [e_t / (1.0 + float(u[0]))]])


# ---------------------------------------------------------------------------
# Levy stochastic area
# ---------------------------------------------------------------------------

def area_coefficients(first_moment: np.ndarray) -> CoefficientSet:
    """3-d SDE for (X1, X2, area): the area jumps by ``x1 u2 - x2 u1``."""
    m1 = np.asarray(first_moment, dtype=float)

    # preallocated outputs, as in doleans_coefficients
    def c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.empty((u.shape[0], 3))
        out[:, :2] = u
        out[:, 2] = x[:, 0] * u[:, 1] - x[:, 1] * u[:, 0]
        return out

    def dx_c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.zeros((u.shape[0], 3, 3))
        out[:, 2, 0], out[:, 2, 1] = u[:, 1], -u[:, 0]
        return out

    def du_c(t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], 3, 2))
        out[:, 0, 0] = out[:, 1, 1] = 1.0
        out[:, 2, 0], out[:, 2, 1] = -x[:, 1], x[:, 0]
        return out

    def comp(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.empty((x.shape[0], 3))
        out[:, :2] = m1
        out[:, 2] = x[:, 0] * m1[1] - x[:, 1] * m1[0]
        return out

    def dcomp(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], 3, 3))
        out[:, 2, 0], out[:, 2, 1] = m1[1], -m1[0]
        return out

    eta = lambda u: 1.0 + np.linalg.norm(u, axis=1)
    return CoefficientSet(
        dim=3, c=c, dx_c=dx_c, du_c=du_c,
        compensator=comp, dx_compensator=dcomp, eta=eta, name="levy-area",
    )


def _area_closed_path(config: JumpConfiguration, m1: np.ndarray, t: float):
    """Exact path of (X1, X2, area) from the atom list.

    Between atoms the components move linearly with velocity ``-m1``
    (compensator drift), so every integral below is an exact trapezoid.
    Returns terminal V and per-atom left limits needed by the closed form.
    """
    keep = config.times <= t
    times = config.times[keep]
    marks = config.marks[keep]
    n = times.shape[0]
    x = np.zeros(2)
    area = 0.0
    t_prev = 0.0
    lefts = np.empty((n, 2))
    for i in range(n):
        dt = float(times[i]) - t_prev
        x_pre = x - m1 * dt                       # drift to the jump time
        # integral of X over the interval (linear path, exact trapezoid)
        avg = 0.5 * (x + x_pre)
        area += -m1[1] * (avg[0] * dt) + m1[0] * (avg[1] * dt)
        lefts[i] = x_pre
        area += x_pre[0] * marks[i, 1] - x_pre[1] * marks[i, 0]
        x = x_pre + marks[i]
        t_prev = float(times[i])
    dt = t - t_prev
    x_end = x - m1 * dt
    avg = 0.5 * (x + x_end)
    area += -m1[1] * (avg[0] * dt) + m1[0] * (avg[1] * dt)
    return np.array([x_end[0], x_end[1], area]), times, marks, lefts


def area_closed_gamma(config: JumpConfiguration, m1: np.ndarray,
                      bs: BottomStructure, t: float):
    """Closed-form 3x3 matrix for the area triple, plus the span family.

    Per atom, with left limits (X1-, X2-) and terminal values (X1, X2):
    ``A~ = X2(t) - dX2 - 2 X2-`` and ``B~ = X1(t) - dX1 - 2 X1-`` give the
    mark Jacobian rows (1, 0, A~), (0, 1, -B~); conjugating the structure
    weight by that Jacobian yields the displayed per-jump summand.  The
    span family feeds the rank-3 density condition.
    """
    v, times, marks, lefts = _area_closed_path(config, m1, t)
    out = np.zeros((3, 3))
    span: list[np.ndarray] = []
    for i in range(times.shape[0]):
        u = marks[i]
        w = bs.weight(u)
        if not w.any():
            continue
        a_t = v[1] - u[1] - 2.0 * lefts[i, 1]
        b_t = v[0] - u[0] - 2.0 * lefts[i, 0]
        jac = np.array([[1.0, 0.0], [0.0, 1.0], [a_t, -b_t]])
        out += jac @ w @ jac.T
        if bs.name == "GRAPH_TANGENT":
            lam = graph_slope(u)
            span.append(np.array([1.0, lam, a_t - lam * b_t]))
        else:
            span.append(np.array([1.0, 0.0, a_t]))
            span.append(np.array([0.0, 1.0, -b_t]))
    return 0.5 * (out + out.T), v, span


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------

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
    closed_form_gamma: Callable[[JumpConfiguration, TruncatedLevyModel, float], np.ndarray] | None = None
    restrict_mask: Callable[[np.ndarray, float], np.ndarray] | None = None
    notes: str = ""

    def model(self, truncation: float | None = None) -> TruncatedLevyModel:
        return self.make_model(self.default_truncation if truncation is None else truncation)

    def simulate(self, truncation: float | None = None, seed: int = 0) -> JumpConfiguration:
        return simulate_configuration(self.model(truncation), self.horizon, seed)

    def restrict(self, config: JumpConfiguration, truncation: float) -> JumpConfiguration:
        """Sub-configuration a coarser truncation would have produced."""
        if self.restrict_mask is not None:
            mask = self.restrict_mask(config.marks, truncation)
        else:
            mask = np.linalg.norm(config.marks, axis=1) > truncation
        return JumpConfiguration(config.times[mask], config.marks[mask], config.horizon)

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
        t = self.eval_time if t is None else t
        if self.closed_form_gamma is not None:
            return self.closed_form_gamma(config, self.model(truncation), t)
        return self.run(config, truncation, t)[1].matrix

    def gammas(self, configs: Sequence[JumpConfiguration], truncation: float | None = None,
               t: float | None = None) -> list[np.ndarray]:
        """:meth:`gamma_of` of each configuration, in order.

        Without a closed form the configurations are solved as one batch,
        and each chunk of paths is reduced to its matrices before the next
        is solved, so memory does not grow with the number of paths.
        """
        t = self.eval_time if t is None else t
        if self.closed_form_gamma is not None:
            return [self.gamma_of(config, truncation, t) for config in configs]
        model = self.model(truncation)
        coeffs = self.make_coeffs(model)
        matrices = []
        for chunk in _solve_chunks(coeffs, model, configs, self.x0, self.step, t,
                                   validate=True, flows=True):
            matrices += [gamma_flow(traj, coeffs, self.bottom, t).matrix for traj in chunk]
            del chunk  # the next chunk is solved without this one's arrays
        return matrices


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

    def closed(config: JumpConfiguration, model: TruncatedLevyModel, t: float) -> np.ndarray:
        m1 = power_law_first_moment(model.truncation, alpha, bound, asymmetry)
        return doleans_closed_gamma(config, m1, bs, t)

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

    def closed(config: JumpConfiguration, model: TruncatedLevyModel, t: float) -> np.ndarray:
        m1 = polar_first_moment(model.truncation, angular_coefficient)
        return area_closed_gamma(config, m1, bs, t)[0]

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

    def closed(config: JumpConfiguration, model: TruncatedLevyModel, t: float) -> np.ndarray:
        return area_closed_gamma(config, moments(model.truncation), bs, t)[0]

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

    def closed(config: JumpConfiguration, model: TruncatedLevyModel, t: float) -> np.ndarray:
        return np.zeros((1, 1))

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
    def at(s: float) -> np.ndarray:
        idx = int(np.searchsorted(law_times, s, side="right") - 1)
        return law_values[max(idx, 0)]
    return at


def mckean_vlasov(
    sigma: Callable[[float, np.ndarray], float],
    particles: int,
    picard_iters: int,
    model: TruncatedLevyModel,
    t: float,
    seed: int,
    x0: float = 0.0,
    step: float = 0.01,
    bottom: BottomStructure | None = None,
    first_moment: float | None = None,
    picard_tol: float = 1e-3,
) -> McKeanResult:
    """Mean-field jump SDE via particles plus law-freezing iteration.

    The amplitude ``sigma(x, law)`` sees the empirical law as a sample
    vector.  Stage one co-evolves ``particles`` interacting paths on one
    merged event grid; each fixed-point iteration then re-solves every path
    against the frozen law of the previous stage, with the 1-d
    sorted-sample L1 distance between successive laws as the convergence
    proxy (a warning is issued when it stays above ``picard_tol``).  The
    tagged path (particle 0) is finally re-solved through the SDE engine
    with the frozen-law amplitude ``a(x, s)`` and its carre du champ
    assembled by the flow rendering.
    """
    if particles < 10:
        raise InputError(f"need at least 10 particles, got {particles}")
    if model.mark_dimension != 1:
        raise InputError("mean-field scenario is 1-d in the marks")
    if picard_iters < 1:
        raise InputError("picard_iters must be >= 1")
    m1 = first_moment if first_moment is not None else mark_integral(lambda u: float(u[0]), model)
    bs = bottom if bottom is not None else psi_over_k()

    # numeric Lipschitz probe of sigma in x at a few states
    probe_law = np.full(particles, x0, dtype=float)
    for xv in (x0, x0 + 1.0, x0 - 1.0):
        d0 = float(sigma(xv, probe_law))
        d1 = float(sigma(xv + 1e-6, probe_law))
        if not (np.isfinite(d0) and np.isfinite(d1)):
            raise ModelError("sigma returned a non-finite value at a probe point")

    configs = [
        simulate_configuration(
            model, t,
            int(stream(seed, DOMAIN_PARTICLE, i).integers(0, 2 ** 63 - 1)),
        )
        for i in range(particles)
    ]
    jump_times = np.unique(np.concatenate([c.times for c in configs]))
    grid = np.union1d(_regular_grid(t, step), jump_times)
    m = grid.shape[0]
    # which particle jumps at each node (at most one, times are distinct)
    jumper = np.full(m, -1, dtype=int)
    jump_mark = np.zeros(m)
    for i, c in enumerate(configs):
        rows = np.searchsorted(grid, c.times)
        jumper[rows] = i
        jump_mark[rows] = c.marks[:, 0]

    def evolve(law_at: Callable[[float], np.ndarray] | None):
        """One sweep over the grid; interacting when law_at is None."""
        p = np.full(particles, x0, dtype=float)
        right = np.empty((m, particles))
        left = np.empty((m, particles))
        right[0] = left[0] = p

        def drift(s: float, state: np.ndarray) -> np.ndarray:
            law = state if law_at is None else law_at(s)
            return np.array([-float(sigma(state[i], law)) * m1 for i in range(particles)])

        for k in range(1, m):
            t0, t1 = float(grid[k - 1]), float(grid[k])
            h = t1 - t0
            p = _rk4_step(drift, t0, t0 + 0.5 * h, t1, h, p)
            left[k] = p
            if jumper[k] >= 0:
                i = jumper[k]
                law = p if law_at is None else law_at(t0)
                p = p.copy()
                p[i] += float(sigma(p[i], law)) * jump_mark[k]
            right[k] = p
            if not np.all(np.isfinite(p)):
                raise NumericError(f"particle system diverged at t = {t1}")
        return right, left

    law_right, _ = evolve(None)
    residuals: list[float] = []
    for _ in range(picard_iters):
        lookup = _law_lookup(grid, law_right)
        new_right, _ = evolve(lookup)
        w1 = float(np.max(np.mean(
            np.abs(np.sort(new_right, axis=1) - np.sort(law_right, axis=1)), axis=1,
        )))
        residuals.append(w1)
        law_right = new_right
    if residuals and residuals[-1] > picard_tol:
        warnings.warn(
            f"law iteration stalled at residual {residuals[-1]:.3g} > {picard_tol:.3g}",
            ConvergenceWarning, stacklevel=2,
        )

    lookup = _law_lookup(grid, law_right)

    def amplitude(s: np.ndarray, x: np.ndarray) -> np.ndarray:
        # sigma is a per-point callable: one call per row of the batch
        return np.array([float(sigma(xp, lookup(sp))) for sp, xp in zip(s.tolist(), x.tolist())])

    dx_step = 1e-6

    def slope(s: np.ndarray, x: np.ndarray) -> np.ndarray:
        h = dx_step * (1.0 + np.abs(x))
        return (amplitude(s, x + h) - amplitude(s, x - h)) / (2.0 * h)

    def c(s: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return (amplitude(s, x[:, 0]) * u[:, 0])[:, None]

    def dx_c(s: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return (slope(s, x[:, 0]) * u[:, 0])[:, None, None]

    def du_c(s: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return amplitude(s, x[:, 0])[:, None, None]

    def comp(s: np.ndarray, x: np.ndarray) -> np.ndarray:
        return (amplitude(s, x[:, 0]) * m1)[:, None]

    def dcomp(s: np.ndarray, x: np.ndarray) -> np.ndarray:
        return (slope(s, x[:, 0]) * m1)[:, None, None]

    coeffs = CoefficientSet(
        dim=1, c=c, dx_c=dx_c, du_c=du_c,
        compensator=comp, dx_compensator=dcomp, name="mean-field-frozen",
    )
    traj = solve_sde(coeffs, model, configs[0], np.array([x0]), step, horizon=t, flows=True)
    gamma = gamma_flow(traj, coeffs, bs, t)
    a0 = float(sigma(x0, np.full(particles, x0, dtype=float)))
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


def stable_like_inverse(
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
        z = [stable_like_inverse(alpha_fn, u0, x, p, band) for p in pts]
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
    """
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
    z_max = stable_like_inverse(alpha_fn, u0, xv, r_min, band)
    lam = 2.0 * z_max  # both directions carry dz
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
