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
from .lent_particle import GammaMatrix, _symmetrised
from .poisson_measure import _simulate_table
from .rng import _check_seed, path_seeds

__all__ = [
    "RankReport",
    "rank_diagnostic",
    "span_dimension",
    "RankStatsRow",
    "RankStatsTable",
    "monte_carlo_rank_stats",
]

DEFAULT_RANK_TOL = 1e-8
# Admission limit on a rank-stats sweep: its paths plus their expected atoms
# at the smallest truncation, checked before a path is drawn.
MAX_SWEEP_WORK = 10 ** 7


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


def _rank_stack(m: np.ndarray, rel_tol: float):
    """Rank verdicts of a ``(P, d, d)`` stack of symmetric matrices from one
    ``eigvalsh`` call: per row the rank, the singular values (descending),
    the smallest eigenvalue, the threshold, the gap and the indeterminate
    flag, each as :func:`rank_diagnostic` reports it; its callers check
    ``rel_tol``."""
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise InputError(f"matrix must be square, got shape {m.shape[1:]}")
    eigs = np.linalg.eigvalsh(_symmetrised(m, 1e-10))
    sing = np.sort(np.abs(eigs), axis=1)[:, ::-1]
    d, rows = m.shape[1], np.arange(len(m))
    threshold = rel_tol * sing[:, 0]
    rank = np.count_nonzero(sing > threshold[:, None], axis=1)
    # the deciding gap runs from the smallest value above the cut (or the cut
    # at rank 0) to the largest value below it (or the cut at full rank)
    above = np.where(rank > 0, sing[rows, rank - 1], threshold)
    below = np.where(rank < d, sing[rows, np.minimum(rank, d - 1)], threshold)
    gap = above - below
    return rank, sing, eigs[:, 0], threshold, gap, (gap < 10.0 * threshold) & (sing[:, 0] > 0)


def rank_diagnostic(g, rel_tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Rank report for a symmetric matrix via its eigendecomposition.

    Singular values are the absolute eigenvalues; the rank counts those
    above ``rel_tol * sigma_max``.  Verdicts whose deciding gap is within a
    factor 10 of the threshold are flagged indeterminate rather than
    trusted.
    """
    if not (0.0 < rel_tol < 1.0):
        raise InputError(f"rel_tol must be in (0, 1), got {rel_tol}")
    m = g.matrix if isinstance(g, GammaMatrix) else np.atleast_2d(np.asarray(g, dtype=float))
    rank, sing, min_eig, threshold, gap, indeterminate = _rank_stack(m[None], rel_tol)
    return RankReport(
        rank=int(rank[0]), singular_values=sing[0], min_eigenvalue=float(min_eig[0]),
        full_rank=bool(rank[0] == m.shape[0]), tolerance=rel_tol,
        threshold=float(threshold[0]), gap=float(gap[0]), indeterminate=bool(indeterminate[0]),
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
        table = np.array([[r.epsilon, r.n_paths, r.full_rank_fraction, r.median_min_eig,
                           r.indeterminate_fraction] for r in self.rows], dtype=float).reshape(-1, 5)
        write_csv(
            path, ["epsilon", "n_paths", "full_rank_fraction", "median_min_eig",
                   "indeterminate_fraction"],
            [table[:, 0], table[:, 1].astype(np.int64), *table[:, 2:].T],
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
    truncation shrinks; the table reports whether that held.  A sweep whose
    paths plus expected atoms exceed :data:`MAX_SWEEP_WORK` is refused with
    :class:`InputError` before any path is drawn, as are bad inputs, a
    ``seed`` outside ``[0, 2**64)`` and a ``rel_tol`` outside ``(0, 1)``.
    Every path is drawn first, as one atom table, and each level is one
    mask over it (``Scenario._sweep_table``).  Each level's ``(P, d, d)``
    stack then takes one rank step, with a single ``eigvalsh`` call; a zero
    matrix counts as rank 0 with min eigenvalue 0.  Each row also reports
    the fraction of paths whose rank verdict is indeterminate.
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
    if not (0.0 < rel_tol < 1.0):
        raise InputError(f"rel_tol must be in (0, 1), got {rel_tol}")
    _check_seed(seed)
    model = setup.model(min(epsilons))
    if not n_paths * (1.0 + model.mass * setup.horizon) <= MAX_SWEEP_WORK:
        raise InputError(
            f"n_paths = {n_paths} paths of {model.mass * setup.horizon:.3g} expected atoms each "
            f"exceed the limit of {MAX_SWEEP_WORK} paths plus atoms; lower n_paths or raise "
            "the truncation")
    table = _simulate_table(model, setup.horizon, path_seeds(seed, n_paths))

    # (path, level) -> full rank, min eigenvalue, indeterminate; a zero matrix is (0, 0, 0)
    stacked = np.zeros((n_paths, len(epsilons), 3))
    for j, mats in enumerate(setup._sweep_table(table, epsilons)):
        rank, _, min_eig, _, _, indeterminate = _rank_stack(mats, rel_tol)
        live = mats.any(axis=(1, 2))
        stacked[live, j] = np.column_stack([rank == mats.shape[1], min_eig, indeterminate])[live]

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
