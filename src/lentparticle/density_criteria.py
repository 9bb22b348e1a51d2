"""Numerical non-degeneracy diagnostics for carre du champ matrices.

The underlying theory concludes "the law of F has a density" from the
almost-sure invertibility of Gamma[F].  A finite-precision run can only
report ranks with explicit tolerances and finite-sample frequencies; every
routine here therefore attaches the tolerance it used, a margin, and an
``indeterminate`` flag when the verdict sits too close to the threshold.

Provided checks:

* ``rank_diagnostic`` -- rank/eigenvalue report for one matrix;
* ``sufficient_condition_scan`` -- does some single per-jump summand have
  full rank?  (Sufficient for det Gamma > 0 since the summands are PSD:
  the sum dominates each term.  Not necessary: summands of deficient rank
  can still span everything jointly.)
* ``regular_case_check`` -- invertibility of the jump carre du champ at a
  distinguished mark, continuity probes around it, and a mass curve of the
  intensity near the mark with a divergence flag;
* ``span_dimension`` -- numerical rank of a vector family;
* ``monte_carlo_rank_stats`` -- full-rank frequencies across simulated
  paths as the truncation shrinks, coupled by superposition so the
  frequency is monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._serialise import write_csv
from .bottom_structure import BottomStructure, gamma_matrix
from .errors import DomainError, InputError
from .lent_particle import GammaMatrix, gamma_flow
from .rng import DOMAIN_PROBE, path_seed, stream
from .sde_engine import CoefficientSet, Trajectory

__all__ = [
    "RankReport",
    "rank_diagnostic",
    "ScanResult",
    "sufficient_condition_scan",
    "RegularCaseReport",
    "regular_case_check",
    "span_dimension",
    "RankStatsRow",
    "RankStatsTable",
    "monte_carlo_rank_stats",
]

DEFAULT_RANK_TOL = 1e-8


# ---------------------------------------------------------------------------
# rank diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankReport:
    rank: int
    singular_values: np.ndarray  # descending
    min_eigenvalue: float
    full_rank: bool
    tolerance: float             # relative tolerance that was applied
    threshold: float             # absolute cut = tolerance * sigma_max
    gap: float                   # distance from the cut to the nearest side
    indeterminate: bool          # gap < 10 * threshold


def _as_symmetric(g) -> np.ndarray:
    m = g.matrix if isinstance(g, GammaMatrix) else np.atleast_2d(np.asarray(g, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise InputError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > 1e-10 * scale:
        raise InputError("matrix is not symmetric to 1e-10")
    return 0.5 * (m + m.T)


def rank_diagnostic(g, rel_tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Rank report for a symmetric matrix via its eigendecomposition.

    Singular values are the absolute eigenvalues; the rank counts those
    above ``rel_tol * sigma_max``.  Verdicts whose deciding gap is within a
    factor 10 of the threshold are flagged indeterminate rather than
    trusted.
    """
    if not (0.0 < rel_tol < 1.0):
        raise InputError(f"rel_tol must be in (0, 1), got {rel_tol}")
    m = _as_symmetric(g)
    d = m.shape[0]
    eigs = np.linalg.eigvalsh(m)
    sing = np.sort(np.abs(eigs))[::-1]
    threshold = rel_tol * sing[0]
    rank = int(np.sum(sing > threshold))
    if rank == d:
        gap = float(sing[-1] - threshold)
    elif rank == 0:
        gap = float(threshold - sing[0])  # zero matrix: 0
    else:
        gap = float(sing[rank - 1] - sing[rank])
    indeterminate = bool(gap < 10.0 * threshold) if sing[0] > 0 else False
    return RankReport(
        rank=rank, singular_values=sing, min_eigenvalue=float(eigs[0]),
        full_rank=(rank == d), tolerance=rel_tol, threshold=float(threshold),
        gap=gap, indeterminate=indeterminate,
    )


# ---------------------------------------------------------------------------
# sufficient condition: one full-rank summand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    satisfied: bool
    witness: int | None          # atom index of the first full-rank summand
    term_ranks: list[int]


def sufficient_condition_scan(
    traj: Trajectory,
    coeffs: CoefficientSet | None,
    bs: BottomStructure,
    t: float | None = None,
    rel_tol: float = DEFAULT_RANK_TOL,
    gamma: GammaMatrix | None = None,
) -> ScanResult:
    """Scan per-jump summands for a single full-rank term.

    One full-rank PSD summand forces the whole sum -- and hence Gamma,
    which is the sum conjugated by the invertible flow -- to be positive
    definite.  The converse is false, so a negative scan decides nothing.
    """
    g = gamma if gamma is not None else gamma_flow(traj, coeffs, bs, t)
    d = g.dim
    witness = None
    ranks: list[int] = []
    for atom_idx, term in g.per_jump_terms or []:
        if not term.any():
            ranks.append(0)
            continue
        rep = rank_diagnostic(term, rel_tol)
        ranks.append(rep.rank)
        if witness is None and rep.full_rank and not rep.indeterminate:
            witness = atom_idx
    return ScanResult(satisfied=witness is not None, witness=witness, term_ranks=ranks)


# ---------------------------------------------------------------------------
# regular case: invertibility at a distinguished mark + mass curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularCaseReport:
    passed: bool
    gamma_center: np.ndarray
    min_eigenvalue: float
    continuity_max_rel_variation: float
    probes_used: int
    mass_radii: np.ndarray
    annulus_masses: np.ndarray
    mass_diverging: bool


def _ball_annulus_mass(bs: BottomStructure, u0: np.ndarray, r_in: float, r_out: float) -> float:
    """Intensity mass of ``r_in < |u - u0| <= r_out`` (untruncated density)."""
    from scipy import integrate

    r = bs.mark_dimension

    def k_masked(u: np.ndarray) -> float:
        # scipy's quadrature asks for one point at a time: a batch of one
        marks = u[None]
        return float(bs.density(marks)[0]) if bs.support(marks)[0] else 0.0

    if r == 1:
        c = float(u0[0])
        val1, e1 = integrate.quad(lambda x: k_masked(np.array([x])), c + r_in, c + r_out,
                                  epsabs=1e-11, epsrel=1e-9, limit=200)
        val2, e2 = integrate.quad(lambda x: k_masked(np.array([x])), c - r_out, c - r_in,
                                  epsabs=1e-11, epsrel=1e-9, limit=200)
        return float(val1 + val2)
    if r == 2:
        def integrand(rad: float, theta: float) -> float:
            u = u0 + rad * np.array([np.cos(theta), np.sin(theta)])
            return rad * k_masked(u)

        val, err = integrate.dblquad(integrand, 0.0, 2.0 * np.pi,
                                     lambda th: r_in, lambda th: r_out,
                                     epsabs=1e-11, epsrel=1e-9)
        return float(val)
    raise DomainError(f"mass curve supports mark dimension <= 2, got {r}")


def regular_case_check(
    coeffs: CoefficientSet,
    bs: BottomStructure,
    x: np.ndarray,
    u0: np.ndarray,
    radius: float,
    probes: int = 32,
    seed: int = 0,
) -> RegularCaseReport:
    """Check invertibility of the jump carre du champ at ``(t=0, x, u0)``.

    Evaluates ``gamma`` of ``u -> c(0, x, u)`` at the distinguished mark
    (pass iff its smallest eigenvalue clears the rank tolerance), probes a
    ball around ``(0, x, u0)`` as a continuity proxy, and integrates the
    intensity over shrinking annuli around ``u0`` to flag whether its mass
    appears to diverge there.  The flags are numerical evidence only.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise InputError(f"radius must be finite and > 0, got {radius}")
    x = np.asarray(x, dtype=float)
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    r = bs.mark_dimension
    if u0.shape != (r,):
        raise InputError(f"u0 must have shape ({r},), got {u0.shape}")
    # closure membership, numerically: u0 itself or a shrinking perturbation
    # of it must lie in the support.
    g = stream(seed, DOMAIN_PROBE)
    # the perturbations are drawn only until one lands in the support, so
    # that the probes below see the same stream
    in_closure = bool(bs.support(u0[None])[0])
    for scale in (1e-3, 1e-6, 1e-9):
        for _ in range(16):
            if in_closure:
                break
            in_closure = bool(bs.support((u0 + scale * radius * g.standard_normal(r))[None])[0])
    if not in_closure:
        raise DomainError(f"u0 = {u0} is not in the closure of the support")

    # the distinguished point, then the probes that land in the support
    draws = [(float(g.uniform(0.0, radius)),
              x + radius * g.standard_normal(x.shape[0] if x.ndim else 1),
              u0 + radius * g.standard_normal(r)) for _ in range(probes)]
    times = np.array([0.0] + [s for s, _, _ in draws])
    states = np.array([np.atleast_1d(x)] + [np.atleast_1d(y) for _, y, _ in draws])
    marks = np.array([u0] + [u for _, _, u in draws]).reshape(probes + 1, r)
    keep = np.concatenate([[True], np.asarray(bs.support(marks[1:]), dtype=bool)])
    times, states, marks = times[keep], states[keep], marks[keep]
    gammas = gamma_matrix(coeffs.du_c(times, states, marks), marks, bs)

    g_center = gammas[0]
    rep = rank_diagnostic(g_center) if g_center.any() else None
    min_eig = float(np.linalg.eigvalsh(g_center)[0])
    passed = bool(rep is not None and rep.full_rank and not rep.indeterminate)

    center_norm = float(np.linalg.norm(g_center))
    denom = center_norm if center_norm > 0 else 1.0
    max_var = max((float(np.linalg.norm(gp - g_center)) / denom for gp in gammas[1:]),
                  default=0.0)
    used = len(gammas) - 1

    radii = radius * 0.5 ** np.arange(9)
    masses = np.array([
        _ball_annulus_mass(bs, u0, float(radii[k + 1]), float(radii[k]))
        for k in range(len(radii) - 1)
    ])
    # geometric decay of annulus masses means the ball mass converges; flat
    # or growing tails mean it diverges (e.g. k ~ |u-u0|^(-r-beta)).
    pos = masses[masses > 0]
    if pos.size >= 3:
        tail = masses[-3:]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = tail[1:] / tail[:-1]
        ratios = ratios[np.isfinite(ratios)]
        diverging = bool(ratios.size and float(np.mean(ratios)) >= 0.9)
    else:
        diverging = False
    return RegularCaseReport(
        passed=passed, gamma_center=g_center, min_eigenvalue=min_eig,
        continuity_max_rel_variation=max_var, probes_used=used,
        mass_radii=radii[:-1], annulus_masses=masses, mass_diverging=diverging,
    )


# ---------------------------------------------------------------------------
# span dimension
# ---------------------------------------------------------------------------

def span_dimension(vectors: Sequence[np.ndarray], rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank of the family (0 for an empty list)."""
    vectors = [np.atleast_1d(np.asarray(v, dtype=float)) for v in vectors]
    if not vectors:
        return 0
    m = np.vstack(vectors)
    if not np.all(np.isfinite(m)):
        raise InputError("vectors contain non-finite entries")
    sing = np.linalg.svd(m, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        return 0
    return int(np.sum(sing > rel_tol * sing[0]))


# ---------------------------------------------------------------------------
# Monte Carlo rank statistics across truncation levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankStatsRow:
    epsilon: float
    n_paths: int
    full_rank_fraction: float
    median_min_eig: float
    indeterminate_fraction: float  # paths whose rank verdict is flagged indeterminate


@dataclass(frozen=True)
class RankStatsTable:
    rows: list[RankStatsRow]
    monotone_nondecreasing: bool
    rank_tolerance: float

    def to_csv(self, path) -> None:
        write_csv(
            path, ["epsilon", "n_paths", "full_rank_fraction", "median_min_eig",
                   "indeterminate_fraction"],
            ([r.epsilon, r.n_paths, r.full_rank_fraction, r.median_min_eig,
              r.indeterminate_fraction] for r in self.rows),
        )


def monte_carlo_rank_stats(
    setup,
    n_paths: int,
    epsilons: Sequence[float],
    seed: int,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> RankStatsTable:
    """Full-rank frequency of Gamma across paths, per truncation level.

    ``setup`` is a scenario object (or the name of a shipped one).  All
    truncation levels of one path are coupled by superposition: the path is
    simulated once at the smallest level and coarser levels keep the subset
    of atoms above their cutoff.   Dropping atoms removes PSD summands, so
    under this coupling the full-rank fraction is non-decreasing as the
    truncation shrinks; the table reports whether that held.  Every path is
    drawn first; each level then takes one ``gammas`` call over all paths,
    which a scenario without a closed form solves as one batch.  Each row
    also reports the fraction of paths whose rank verdict is indeterminate.
    """
    if isinstance(setup, str):
        from . import scenarios
        setup = scenarios.get_scenario(setup)
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise InputError("epsilons must be a non-empty list")
    if any(not (np.isfinite(e) and e > 0) for e in epsilons):
        raise InputError("every epsilon must be finite and > 0")
    if n_paths < 1:
        raise InputError(f"n_paths must be >= 1, got {n_paths}")
    eps_min = min(epsilons)  # simulate at the smallest level
    configs = [setup.simulate(eps_min, path_seed(seed, p)) for p in range(n_paths)]

    # (path, level) -> full rank, min eigenvalue, indeterminate; a zero matrix is (0, 0, 0)
    stacked = np.zeros((n_paths, len(epsilons), 3))
    for j, eps in enumerate(epsilons):
        mats = setup.gammas([setup.restrict(config, eps) for config in configs], eps)
        for p, mat in enumerate(mats):
            if np.any(mat):
                rep = rank_diagnostic(mat, rel_tol)
                stacked[p, j] = (rep.full_rank, rep.min_eigenvalue, rep.indeterminate)

    rows = [
        RankStatsRow(
            epsilon=eps,
            n_paths=n_paths,
            full_rank_fraction=float(np.mean(stacked[:, j, 0])),
            median_min_eig=float(np.median(stacked[:, j, 1])),
            indeterminate_fraction=float(np.mean(stacked[:, j, 2])),
        )
        for j, eps in enumerate(epsilons)
    ]
    by_desc_eps = sorted(rows, key=lambda r: -r.epsilon)
    fractions = [r.full_rank_fraction for r in by_desc_eps]
    monotone = all(b >= a - 1e-15 for a, b in zip(fractions, fractions[1:]))
    return RankStatsTable(rows=rows, monotone_nondecreasing=monotone, rank_tolerance=rel_tol)
