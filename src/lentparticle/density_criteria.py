"""Numerical non-degeneracy diagnostics for carre du champ matrices.

The underlying theory concludes "the law of F has a density" from the
almost-sure invertibility of Gamma[F].  A finite-precision run can only
report ranks with explicit tolerances and finite-sample frequencies; every
routine here therefore attaches the tolerance it used, a margin, and an
``indeterminate`` flag when the verdict sits too close to the threshold.

Provided checks:

* ``rank_diagnostic`` -- rank/eigenvalue report for one matrix;
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
from .errors import InputError
from .lent_particle import GammaMatrix
from .rng import path_seed

__all__ = [
    "RankReport",
    "rank_diagnostic",
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
