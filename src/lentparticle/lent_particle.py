"""Carre du champ (Malliavin) matrices of Poisson functionals.

The central object is the d x d matrix Gamma[F] measuring the sensitivity
of a functional F of the jump configuration to perturbations of the marks.
It is assembled by the lent-particle procedure: for each atom (t_i, u_i) of
the configuration, differentiate the functional with the particle lent at
that atom with respect to the mark, push the derivative through the
mark-space carre du champ, and sum over atoms.  Four renderings are
provided:

* ``gamma_flow`` -- closed-form assembly for SDE solutions using the stored
  flow K and inverse flow Kbar, with a ``rendering`` switch: ``theorem9``
  weighs each atom with the post-jump inverse flow, ``remark3`` with its
  left limit composed with ``(I + dx_c)^{-1}``.  These are equal matrices,
  so the agreement of the two renderings is a standing consistency check.
  It is the stack of one of the assembly that ``Scenario.gammas`` runs on
  each chunk of a batched solve: every path's atom terms from one pass,
  summed per path and conjugated by each path's ``K_t`` in one product.
* ``gamma_generic`` -- the direct procedure for arbitrary functionals with
  a mark-Jacobian oracle (closed form or finite differences).
* ``gamma_linear`` -- compensated-integral functionals ``N~(h)``, where the
  atom terms need no flow conjugation.
* ``gamma_rho_mc`` -- an unbiased Monte Carlo estimate built from the
  randomized gradient: the second moment of ``F-sharp`` over auxiliary
  normal draws equals Gamma[F] exactly, giving an independent oracle that
  converges at the M^(-1/2) rate.

Each rendering stacks the atoms' mark Jacobians and weighs every atom of
the configuration in one ``BottomStructure.weight`` (or ``factor``) call;
the atom terms are summed in atom order.

JSON export uses the frozen tag vocabulary ``theorem9 / remark3 / generic /
linear / rho_mc`` to label which rendering produced a matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bottom_structure import BottomStructure, _put_rows, gamma_matrix
from .errors import FunctionalError, InputError, StateError, StructureError
from .poisson_measure import (
    JumpConfiguration,
    TruncatedLevyModel,
    add_particle,
    compensated_integral,
    remove_particle,
)
from .rng import DOMAIN_RHO, _check_seed, stream
from .sde_engine import CoefficientSet, Trajectory, _solve_chunks, _solve_right, _trajectories

__all__ = [
    "FORMULA_TAGS",
    "GammaMatrix",
    "MarkFunctional",
    "MarkFunction",
    "SdeFunctional",
    "linear_functional",
    "gamma_flow",
    "gamma_generic",
    "gamma_linear",
    "sharp_sample",
    "gamma_rho_mc",
]

FORMULA_TAGS = ("theorem9", "remark3", "generic", "linear", "rho_mc")

_FD_SCALE = 1e-6  # central-difference step factor for mark Jacobians


def _central_differences(evaluate: Callable[[np.ndarray], np.ndarray], points: np.ndarray,
                         steps: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians of ``evaluate`` at ``(n, r)`` points, ``(n, dim, r)``.

    ``evaluate`` maps the ``(2 n r, r)`` probes ``point +- step e_j``, ordered
    point, then coordinate ``j``, then ``+``/``-``, to ``(2 n r, dim)`` values
    in one call.  Each quotient is ``(hi - lo) / (2.0 * step)``.
    """
    n, r = points.shape
    bumps = steps[:, None, None] * np.eye(r)
    probes = np.stack([points[:, None] + bumps, points[:, None] - bumps], axis=2)
    values = np.asarray(evaluate(probes.reshape(2 * n * r, r)), dtype=float).reshape(n, r, 2, -1)
    out = (values[:, :, 0] - values[:, :, 1]) / (2.0 * steps)[:, None, None]
    return out.transpose(0, 2, 1)


@dataclass
class GammaMatrix:
    """Symmetric PSD matrix with provenance.

    ``per_jump_terms`` holds ``(atom_index, summand)`` pairs before the
    outer flow conjugation (when there is one): the matrix equals
    ``outer_factor @ sum(terms) @ outer_factor.T`` for the flow renderings
    and plainly ``sum(terms)`` otherwise.  ``standard_errors`` is set only
    by the Monte Carlo oracle.
    """

    matrix: np.ndarray
    formula_tag: str
    t: float
    per_jump_terms: list[tuple[int, np.ndarray]] | None = None
    standard_errors: np.ndarray | None = None
    outer_factor: np.ndarray | None = None
    jacobian_exact: bool = True

    def __post_init__(self):
        if self.formula_tag not in FORMULA_TAGS:
            raise InputError(
                f"formula_tag must be one of {FORMULA_TAGS}, got {self.formula_tag!r}"
            )
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise InputError(f"matrix must be square, got shape {m.shape}")
        self.matrix = _psd_checked(m[None])[0]

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order (matrix is symmetric)."""
        return np.linalg.eigvalsh(self.matrix)

    def to_json_dict(self, include_terms: bool = False) -> dict:
        out = {
            "t": self.t,
            "formula_tag": self.formula_tag,
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "eigenvalues": [float(v) for v in self.eigenvalues()],
        }
        if include_terms and self.per_jump_terms is not None:
            out["per_jump_terms"] = [
                {"jump": int(i), "matrix": [[float(v) for v in row] for row in term]}
                for i, term in self.per_jump_terms
            ]
        if self.standard_errors is not None:
            out["standard_errors"] = [[float(v) for v in row] for row in self.standard_errors]
        return out


def _symmetrised(m: np.ndarray, tol: float, where: Callable[[int], str] = lambda p: ""):
    """``0.5 (m + m^T)`` of a ``(P, d, d)`` stack, refused with :class:`InputError`
    unless every matrix is finite and symmetric to ``tol`` times its largest
    entry (at least 1); ``where(p)`` ends the message of matrix ``p``."""
    bad = np.flatnonzero(~np.isfinite(m).all(axis=(1, 2)))
    if bad.size:
        raise InputError(f"matrix contains non-finite entries{where(bad[0])}")
    m_t = m.transpose(0, 2, 1)
    bad = np.flatnonzero(np.abs(m - m_t).max(axis=(1, 2))
                         > tol * np.maximum(1.0, np.abs(m).max(axis=(1, 2))))
    if bad.size:
        raise InputError(f"matrix is not symmetric to {tol:g}{where(bad[0])}")
    return 0.5 * (m + m_t)


def _psd_checked(m: np.ndarray, where: Callable[[int], str] = lambda p: "") -> np.ndarray:
    """:func:`_symmetrised` to 1e-12, also refused unless every matrix is PSD
    to -1e-10 times its trace, by one ``eigvalsh`` call."""
    m = _symmetrised(m, 1e-12, where)
    low = np.linalg.eigvalsh(m)[:, 0]
    bad = np.flatnonzero(low < -1e-10 * np.maximum(np.trace(m, axis1=1, axis2=2), 1e-30))
    if bad.size:
        raise InputError(f"matrix has eigenvalue {low[bad[0]]:.3g} below the PSD tolerance"
                         f"{where(bad[0])}")
    return m


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

class MarkFunctional:
    """A configuration functional with a mark-derivative oracle.

    Subclasses must implement :meth:`value`, and may override
    :meth:`values` to evaluate many configurations at once.
    :meth:`mark_jacobian` falls back to central finite differences built
    from the particle operators (remove the atom, re-add it with a
    perturbed mark), with step ``1e-6 * (1 + |u|)``.  Set
    ``exact_jacobian = True`` when overriding with a closed form.
    :meth:`mark_jacobians` gives every atom's Jacobian.
    """

    dim: int = 1
    exact_jacobian: bool = False

    def value(self, config: JumpConfiguration) -> np.ndarray:
        raise NotImplementedError

    def values(self, configs: list[JumpConfiguration]) -> list[np.ndarray]:
        """:meth:`value` of each configuration, in order."""
        return [self.value(config) for config in configs]

    def _values(self, configs: list[JumpConfiguration]) -> list[np.ndarray]:
        try:
            vals = [np.atleast_1d(np.asarray(v, dtype=float)) for v in self.values(configs)]
        except Exception as exc:
            raise FunctionalError(f"functional evaluation failed: {exc}") from exc
        for val in vals:
            if val.shape != (self.dim,) or not np.all(np.isfinite(val)):
                raise FunctionalError(
                    f"functional must return a finite length-{self.dim} vector"
                )
        return vals

    def _fd_jacobians(self, config: JumpConfiguration, atoms) -> list[np.ndarray]:
        """Central-difference mark Jacobians of the listed atoms, with every
        probe configuration evaluated in one :meth:`values` call."""
        atoms = list(atoms)
        if not atoms:
            return []
        lent = [config.atom(i) for i in atoms]
        bases = [remove_particle(config, t, u) for t, u in lent]
        per_atom = 2 * config.mark_dimension

        def evaluate(marks: np.ndarray) -> list[np.ndarray]:
            probes = []
            for k, mark in enumerate(marks):
                a = k // per_atom
                try:
                    probes.append(add_particle(bases[a], lent[a][0], mark))
                except Exception as exc:
                    raise FunctionalError(
                        f"finite-difference probe failed at atom {atoms[a]}: {exc}"
                    ) from exc
            return self._values(probes)

        steps = np.array([_FD_SCALE * (1.0 + float(np.linalg.norm(u))) for _, u in lent])
        jacobians = list(_central_differences(evaluate, config.marks[atoms], steps))
        for atom_index, out in zip(atoms, jacobians):
            if not np.all(np.isfinite(out)):
                raise FunctionalError(f"non-finite mark Jacobian at atom {atom_index}")
        return jacobians

    def mark_jacobian(self, config: JumpConfiguration, atom_index: int) -> np.ndarray:
        return self._fd_jacobians(config, [atom_index])[0]

    def mark_jacobians(self, config: JumpConfiguration) -> list[np.ndarray]:
        """:meth:`mark_jacobian` of every atom, in atom order."""
        return [self.mark_jacobian(config, i) for i in range(config.n_atoms)]


@dataclass(frozen=True)
class MarkFunction:
    """Deterministic integrand ``h(t, u) -> R^dim`` with optional Jacobian."""

    dim: int
    fn: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __call__(self, t: float, u: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.fn(t, u), dtype=float))

    def jac(self, t: float, u: np.ndarray) -> np.ndarray:
        r = np.atleast_1d(np.asarray(u, dtype=float)).shape[0]
        if self.jacobian is not None:
            out = np.asarray(self.jacobian(t, u), dtype=float)
            if out.size != self.dim * r:
                raise FunctionalError(
                    f"jacobian of h must have shape ({self.dim}, {r}), "
                    f"got {out.size} values at (t={t})"
                )
            out = out.reshape(self.dim, r)
        else:
            point = np.asarray(u, dtype=float).reshape(1, r)
            step = _FD_SCALE * (1.0 + float(np.linalg.norm(u)))
            out = _central_differences(lambda probes: [self(t, p) for p in probes],
                                       point, np.array([step]))[0]
        if not np.all(np.isfinite(out)):
            raise FunctionalError(f"non-finite mark Jacobian of h at (t={t})")
        return out


class _LinearFunctional(MarkFunctional):
    def __init__(self, h: MarkFunction, model: TruncatedLevyModel, t: float | None):
        self.h = h
        self.model = model
        self.t = t
        self.dim = h.dim
        self.exact_jacobian = h.jacobian is not None

    def value(self, config: JumpConfiguration) -> np.ndarray:
        t = config.horizon if self.t is None else self.t
        return compensated_integral(config, self.h, self.model, t)

    def mark_jacobian(self, config: JumpConfiguration, atom_index: int) -> np.ndarray:
        t_atom, u = config.atom(atom_index)
        t = config.horizon if self.t is None else self.t
        if t_atom > t:
            return np.zeros((self.dim, config.mark_dimension))
        return self.h.jac(t_atom, u)


def linear_functional(
    h: MarkFunction,
    model: TruncatedLevyModel,
    t: float | None = None,
) -> MarkFunctional:
    """Wrap ``N~(h)`` (compensated integral up to ``t``) as a functional.

    The mark Jacobian at an atom is just the mark Jacobian of ``h`` there:
    the compensator term does not depend on the configuration.
    """
    return _LinearFunctional(h, model, t)


class SdeFunctional(MarkFunctional):
    """Terminal SDE value ``X_t`` as a functional of the configuration.

    The value re-solves the SDE from scratch, so the finite-difference
    mark Jacobian inherited from :class:`MarkFunctional` is a genuinely
    independent oracle against the flow-based renderings.  The probe
    configurations of all atoms are solved as one batch.
    """

    def __init__(self, coeffs: CoefficientSet, model: TruncatedLevyModel,
                 x0: np.ndarray, step: float, t: float | None = None):
        self.coeffs = coeffs
        self.model = model
        self.x0 = np.asarray(x0, dtype=float)
        self.step = step
        self.t = t
        self.dim = coeffs.dim
        self.exact_jacobian = False

    def value(self, config: JumpConfiguration) -> np.ndarray:
        return self.values([config])[0]

    def values(self, configs: list[JumpConfiguration]) -> list[np.ndarray]:
        # one batched solve, each chunk of paths reduced to its values
        # before the next is solved
        out = []
        for chunk in _solve_chunks([(self.coeffs, self.model, configs)], self.x0, self.step,
                                   None, validate=False, flows=False):
            out += [traj.value_at(traj.config.horizon if self.t is None else self.t).copy()
                    for traj in _trajectories(self.coeffs, chunk, False)]
        return out

    def mark_jacobians(self, config: JumpConfiguration) -> list[np.ndarray]:
        return self._fd_jacobians(config, range(config.n_atoms))


# ---------------------------------------------------------------------------
# flow renderings for SDE solutions
# ---------------------------------------------------------------------------

def _path_sums(terms: np.ndarray, counts) -> np.ndarray:
    """Per-path sums ``(P, d, d)`` of ``(n, d, d)`` atom terms that come path
    after path, ``counts[p]`` of them on path ``p``, each rounded as
    ``((0 + t_0) + t_1) + ...``.

    ``np.sum`` adds an atom-major ``(atoms, P, d, d)`` stack in atom order, and
    a lone path of 1 x 1 terms pairwise (``accumulate`` sums that).  Padded
    zeros leave a sum unchanged; ``+ 0.0`` keeps a sum of -0 terms at +0.
    """
    counts = np.asarray(counts, dtype=int)
    if counts.size * terms.shape[1] * terms.shape[2] == 1 and len(terms):
        return np.add.accumulate(terms, axis=0)[-1:] + 0.0
    padded = np.zeros((max(int(counts.max(initial=0)), 1), counts.size) + terms.shape[1:])
    # term i, atom a of path p, goes to the flat slot a P + p
    shift = np.repeat(np.arange(counts.size) - counts.size * (np.cumsum(counts) - counts), counts)
    _put_rows(padded.reshape(-1, *terms.shape[1:]), counts.size * np.arange(len(terms)) + shift, terms)
    return padded.sum(axis=0) + 0.0


def _weights(bs: BottomStructure, marks: np.ndarray, path: np.ndarray, n_paths: int):
    """``bs.weight`` of every path's marks in one call.  An error names the
    first offending path and the mark's row in it, as weighing one path at
    a time would."""
    try:
        return bs.weight(marks)
    except StructureError:
        for p in range(n_paths):
            try:
                bs.weight(marks[path == p])
            except StructureError as exc:
                raise StructureError(f"{exc} on path {p}") from None
        raise


def _symmetric(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def _flow_stack(coeffs: CoefficientSet, bs: BottomStructure, points: tuple, v: np.ndarray,
                counts, k_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atom terms ``V_a gamma[c(a, X_{a-}, .)](u_a) V_a^T``, ``(J, d, d)``,
    of jumps that come path after path, ``counts[p]`` on path ``p``, from
    their points ``(t, X_{a-}, u)`` and ``V_a = v``, and each path's Gamma,
    ``(P, d, d)``: its terms summed in atom order and conjugated by its
    ``K_t`` (``k_t[p]``), from one ``du_c`` and one ``weight`` call."""
    d = k_t.shape[1]
    terms = np.zeros((0, d, d))
    if len(v):
        g = gamma_matrix(coeffs.du_c(*points), points[2], bs)
    # a term that is not finite makes a matrix that _psd_checked refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if len(v):
            terms = _symmetric(v @ g @ v.transpose(0, 2, 1).copy())
        return terms, _symmetric(k_t @ _path_sums(terms, counts) @ k_t.transpose(0, 2, 1).copy())


def _chunk_gammas(coeffs: Sequence[CoefficientSet], bs: BottomStructure,
                  chunk: tuple) -> list[np.ndarray]:
    """Gamma[X_t] (``theorem9``) of the paths of a chunk that ``_solve_chunks``
    solved up to ``t`` with its Gamma rows, one ``(P, d, d)`` stack per
    group's run of paths in its own order: each run reduced with its group's
    coefficients (``coeffs``, one per run) by one :func:`_flow_stack` pass
    over its jump rows, and each matrix checked as :class:`GammaMatrix`
    checks one, an error naming its path by its index in its group."""
    parts, (order, _, times, is_jump, _, marks), right, left = chunk
    d = right.shape[-1]
    paths, rows = np.nonzero(is_jump)
    n_jumps = paths.shape[0]
    counts = np.count_nonzero(is_jump, axis=1)
    # the jump rows' points, Kbar and each path's K_t copied, as gamma_flow
    # copies them, so that numpy takes the kernels of contiguous arrays
    t_jump, x_left = times[paths, rows], left[:, 0].copy()
    v = np.ascontiguousarray(right[:n_jumps, d + 1:])
    k_t = np.ascontiguousarray(right[n_jumps:, 1:d + 1])
    out, lo, jlo = [], 0, 0
    for run_coeffs, (_, start, part) in zip(coeffs, parts):
        hi = lo + len(part)
        jumps = slice(jlo, jlo + int(counts[lo:hi].sum()))
        # the run's batch rows hold its paths order[lo:hi] - lo
        named = order[lo:hi] - lo
        try:
            _, mats = _flow_stack(run_coeffs, bs, (t_jump[jumps], x_left[jumps], marks[jumps]),
                                  v[jumps], counts[lo:hi], k_t[lo:hi])
        except StructureError:
            _weights(bs, marks[jumps], start + named[paths[jumps] - lo], start + len(part))
            raise
        stack = np.empty_like(mats)
        stack[named] = _psd_checked(mats, lambda b: f" on path {start + named[b]}")
        out.append(stack)
        lo, jlo = hi, jumps.stop
    return out


def gamma_flow(
    traj: Trajectory,
    coeffs: CoefficientSet | None,
    bs: BottomStructure,
    t: float | None = None,
    rendering: str = "theorem9",
) -> GammaMatrix:
    """Gamma[X_t] assembled from the flows (tag ``theorem9`` or ``remark3``).

    Each atom contributes ``V_a gamma[c(a, X_{a-}, .)](u_a) V_a^T`` and the
    sum is conjugated by ``K_t``.  ``rendering="theorem9"`` takes for ``V_a``
    the post-jump (right-limit) inverse flow ``Kbar_a``; ``"remark3"`` takes
    the left limit composed with the jump, ``Kbar_{a-} (I + dx_c)^{-1}``.  The
    two are equal matrices, so their agreement is a standing consistency
    check.  This is the stack of one of the assembly that
    ``Scenario.gammas`` runs on each chunk of paths (:func:`_flow_stack`):
    one ``du_c`` call, one ``weight`` call and, for remark3, one ``dx_c``
    call and one solve.
    """
    if rendering not in ("theorem9", "remark3"):
        raise InputError(f"rendering must be 'theorem9' or 'remark3', got {rendering!r}")
    coeffs = coeffs or traj.coeffs
    if coeffs is None:
        raise StateError("no coefficient set available")
    if traj.flow is None or traj.inverse_flow is None:
        raise StateError("flow and inverse flow must be filled first")
    if rendering == "remark3" and traj.jump_inverse_flow_left is None:
        raise StateError("left-limit inverse flow missing")
    t = traj.horizon if t is None else float(t)
    k_t = traj.flow[traj.row_at(t)]
    rows = traj.jump_rows()
    rows = rows[traj.times[rows] <= t]
    # the jump rows' times, left limits and marks: one batch for the
    # coefficients.  The left limits of the jumps up to t are a prefix,
    # copied because numpy may take other kernels on strided views
    taken = slice(rows.size)
    points = (traj.times[rows], traj.jump_states_left[taken].copy(),
              traj.config.marks[traj.atom_index[rows]])
    v = traj.inverse_flow[rows]
    if rendering == "remark3" and rows.size:
        jump = np.eye(coeffs.dim) + np.asarray(coeffs.dx_c(*points), dtype=float)
        v = _solve_right(traj.jump_inverse_flow_left[taken].copy(), jump,
                         lambda k: f"jump update I + dx_c singular at t = {points[0][k]}")
    terms, mats = _flow_stack(coeffs, bs, points, v, [rows.size], k_t[None])
    return GammaMatrix(
        matrix=mats[0], formula_tag=rendering, t=t,
        per_jump_terms=list(zip(traj.atom_index[rows].tolist(), terms)),
        outer_factor=k_t.copy(),
    )


# ---------------------------------------------------------------------------
# generic and linear renderings
# ---------------------------------------------------------------------------

def _atom_jacobians(F: MarkFunctional, config: JumpConfiguration) -> np.ndarray:
    """Every atom's mark Jacobian, stacked ``(n, dim, r)``."""
    r = config.mark_dimension
    jacs = np.zeros((config.n_atoms, F.dim, r))
    for i, jac in enumerate(F.mark_jacobians(config)):
        jac = np.asarray(jac, dtype=float)
        if jac.shape != (F.dim, r) or not np.all(np.isfinite(jac)):
            raise FunctionalError(
                f"mark Jacobian at atom {i} must be finite with shape ({F.dim}, {r})"
            )
        jacs[i] = jac
    return jacs


def gamma_generic(F: MarkFunctional, config: JumpConfiguration,
                  bs: BottomStructure) -> GammaMatrix:
    """Gamma[F] by the lent-particle procedure (tag ``generic``).

    For each atom, the mark Jacobian of the functional with the particle
    lent at that atom is evaluated on the configuration itself (removing
    and re-adding an existing atom is the identity), pushed through the
    mark carre du champ, and the terms are summed.
    """
    terms = gamma_matrix(_atom_jacobians(F, config), config.marks, bs)
    return GammaMatrix(
        matrix=_symmetric(_path_sums(terms, [len(terms)])[0]), formula_tag="generic",
        t=config.horizon, per_jump_terms=list(enumerate(terms)), jacobian_exact=F.exact_jacobian,
    )


def gamma_linear(h: MarkFunction, config: JumpConfiguration, bs: BottomStructure,
                 t: float | None = None) -> GammaMatrix:
    """Gamma[N~(h)] -- atom terms with no flow conjugation (tag ``linear``)."""
    t = config.horizon if t is None else float(t)
    atoms = np.flatnonzero(config.times <= t)
    jacs = np.zeros((atoms.size, h.dim, config.mark_dimension))
    for k, i in enumerate(atoms):
        jacs[k] = h.jac(*config.atom(i))
    terms = gamma_matrix(jacs, config.marks[atoms], bs)
    return GammaMatrix(
        matrix=_symmetric(_path_sums(terms, [len(terms)])[0]), formula_tag="linear", t=t,
        per_jump_terms=list(zip(atoms.tolist(), terms)), jacobian_exact=h.jacobian is not None,
    )


# ---------------------------------------------------------------------------
# randomized gradient and its Monte Carlo second moment
# ---------------------------------------------------------------------------

_RHO_BLOCK = 4096
# Admission limit on the normal values one gamma_rho_mc call draws, M draw
# sets of one per atom and mark coordinate (at least one per set), checked
# before any work: 2^30 are about 20 s of draws at 5e7 per second.
MAX_RHO_VALUES = 2 ** 30


def _rho_block(rho_seed: int, block_index: int, n: int, r: int, draws: int) -> np.ndarray:
    """The first ``draws`` normal draw sets of one block, shape (draws, n, r).

    Block ``b`` owns a counter-addressed stream, so its content never
    depends on how many draw sets are consumed overall; draw set ``m``
    always lives at offset ``m % block`` of block ``m // block``.  The
    stream fills in order, so a prefix of a block has the bits of the whole
    block's first rows.
    """
    if n == 0:
        return np.empty((draws, 0, r))
    return stream(rho_seed, DOMAIN_RHO, block_index).standard_normal((draws, n, r))


def _sharp_factors(F: MarkFunctional, config: JumpConfiguration,
                   bs: BottomStructure) -> np.ndarray:
    """Per-atom pushforward factors ``J_i L(u_i)``: sharp(m) = sum_i G_i rho[m, i]."""
    return _atom_jacobians(F, config) @ bs.factor(config.marks)


def _sharps(factors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The sharps ``(d, m)`` of ``m`` draw sets ``rho`` ``(m, n, r)``.

    For ``d >= 2`` they are added atom by atom in atom order from +0, each
    atom's mark coordinates first: einsum's order, but with the draws, read
    as a strided view (a contiguous copy costs more than it saves), on the
    inner axis, where einsum's runs over ``d``.  For ``d = 1`` einsum takes
    a dot kernel, whose order no loop reproduces, so it stays.
    """
    n, d, r = factors.shape
    if d == 1:
        return np.einsum("idr,mir->md", factors, rho).T
    cols = rho.reshape(len(rho), n * r).T
    sharps = np.zeros((d, len(rho)))
    term = np.empty_like(sharps)
    for i in range(n):
        np.multiply(factors[i, :, :1], cols[i * r], out=term)
        for q in range(1, r):
            term += factors[i, :, q:q + 1] * cols[i * r + q]
        sharps += term
    return sharps


def sharp_sample(F: MarkFunctional, config: JumpConfiguration, bs: BottomStructure,
                 rho_seed: int, draw_index: int = 0) -> np.ndarray:
    """One sample of the randomized gradient ``F-sharp``.

    Contracts the atoms' pushforward factors with one independent normal
    draw per atom: draw set ``draw_index`` of :func:`gamma_rho_mc`'s stream,
    with the bits of its column of that block's :func:`_sharps`.
    Linear in the draws with mean zero, and its second moment over draws is
    Gamma[F].  A ``rho_seed`` outside ``[0, 2**64)`` or a negative
    ``draw_index`` is refused with :class:`InputError`.
    """
    _check_seed(rho_seed, "rho_seed")
    if draw_index < 0:
        raise InputError(f"draw_index must be >= 0, got {draw_index}")
    offset = draw_index % _RHO_BLOCK
    rho = _rho_block(rho_seed, draw_index // _RHO_BLOCK, config.n_atoms,
                     config.mark_dimension, offset + 1)
    return _sharps(_sharp_factors(F, config, bs), rho[offset:])[:, 0]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def gamma_rho_mc(F: MarkFunctional, config: JumpConfiguration, bs: BottomStructure,
                 M: int, seed: int) -> GammaMatrix:
    """Monte Carlo Gamma[F] as the empirical second moment of ``F-sharp``.

    Uses ``M`` independent draw sets on the fixed configuration; reports
    entrywise standard errors.  Draw set ``m`` is addressed by its index,
    so enlarging ``M`` extends the estimate without perturbing earlier
    draws.  A block of draw sets sums its sharps in atom order and their
    products in draw order (pairwise for ``d = 1``).  Blocks run on one
    thread per usable CPU, at most two each in flight, and are folded in
    index order as they finish, so the result does not depend on the CPU
    count.  A ``seed`` outside ``[0, 2**64)`` is refused with
    :class:`InputError` before any draw.
    """
    if M < 2:
        raise InputError(f"M must be >= 2, got {M}")
    _check_seed(seed)
    d = F.dim
    n = config.n_atoms
    r = config.mark_dimension
    if M * max(1, n * r) > MAX_RHO_VALUES:
        raise InputError(f"{M} draw sets of {n} atoms x {r} mark coordinates need "
                         f"{M * max(1, n * r):.3g} normal values, above the limit of "
                         f"{MAX_RHO_VALUES}")
    factors = _sharp_factors(F, config, bs)

    def run_block(b: int) -> np.ndarray:
        sharps = _sharps(factors, _rho_block(seed, b, n, r, min(_RHO_BLOCK, M - b * _RHO_BLOCK)))
        outer = (sharps[:, None] * sharps[None]).reshape(d * d, -1)
        products = np.stack([outer, outer * outer])
        if d == 1:  # np.sum adds one row pairwise
            return products.sum(axis=2)
        # in draw order; + 0.0 turns a sum of negative zeros into +0 and
        # keeps no view of the accumulate array alive
        return np.add.accumulate(products, axis=2)[:, :, -1] + 0.0

    sums = np.zeros((2, d * d))
    blocks = range(-(-M // _RHO_BLOCK))
    workers = _usable_cpus()
    if workers == 1 or len(blocks) == 1:
        for b in blocks:
            sums += run_block(b)
    else:
        from collections import deque
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for b in blocks:  # folded in index order, at most two per thread in flight
                pending.append(pool.submit(run_block, b))
                if len(pending) == 2 * workers:
                    sums += pending.popleft().result()
            for future in pending:
                sums += future.result()
    mean = sums[0].reshape(d, d) / M
    var = np.maximum(sums[1].reshape(d, d) - M * mean * mean, 0.0) / (M - 1)
    se = np.sqrt(var / M)
    return GammaMatrix(
        matrix=0.5 * (mean + mean.T), formula_tag="rho_mc", t=config.horizon,
        standard_errors=se, jacobian_exact=F.exact_jacobian,
    )
