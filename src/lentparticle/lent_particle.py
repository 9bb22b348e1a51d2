"""Carre du champ (Malliavin) matrices of Poisson functionals.

The central object is the d x d matrix Gamma[F] measuring the sensitivity
of a functional F of the jump configuration to perturbations of the marks.
It is assembled by the lent-particle procedure: for each atom (t_i, u_i) of
the configuration, differentiate the functional with the particle lent at
that atom with respect to the mark, push the derivative through the
mark-space carre du champ, and sum over atoms.  Four renderings are
provided:

* ``gamma_flow`` / ``gamma_flow_left`` -- closed-form assembly for SDE
  solutions using the stored flow K and inverse flow Kbar; the two differ
  only in whether the inverse flow enters through its post-jump value or
  its left limit composed with ``(I + dx_c)^{-1}``, which are equal
  matrices, so their agreement is a standing consistency check.
* ``gamma_generic`` -- the direct procedure for arbitrary functionals with
  a mark-Jacobian oracle (closed form or finite differences).
* ``gamma_linear`` -- compensated-integral functionals ``N~(h)``, where the
  atom terms need no flow conjugation.
* ``gamma_rho_mc`` -- an unbiased Monte Carlo estimate built from the
  randomized gradient: the second moment of ``F-sharp`` over auxiliary
  normal draws equals Gamma[F] exactly, giving an independent oracle that
  converges at the M^(-1/2) rate.

JSON export uses the frozen tag vocabulary ``theorem9 / remark3 / generic /
linear / rho_mc`` to label which rendering produced a matrix.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bottom_structure import BottomStructure, gamma_matrix, gradient_flat
from .errors import FunctionalError, InputError, ModelError, StateError
from .poisson_measure import (
    JumpConfiguration,
    TruncatedLevyModel,
    add_particle,
    compensated_integral,
    remove_particle,
)
from .rng import DOMAIN_RHO, stream
from .sde_engine import CoefficientSet, Trajectory, _solve_chunks

__all__ = [
    "FORMULA_TAGS",
    "GammaMatrix",
    "MarkFunctional",
    "MarkFunction",
    "SdeFunctional",
    "linear_functional",
    "gamma_flow",
    "gamma_flow_left",
    "gamma_generic",
    "gamma_linear",
    "sharp_sample",
    "gamma_rho_mc",
]

FORMULA_TAGS = ("theorem9", "remark3", "generic", "linear", "rho_mc")

_FD_SCALE = 1e-6  # central-difference step factor for mark Jacobians


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
        if not np.all(np.isfinite(m)):
            raise InputError("matrix contains non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise InputError("matrix is not symmetric to 1e-12")
        m = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(m)
        tr = float(np.trace(m))
        if eigs[0] < -1e-10 * max(tr, 1e-30):
            raise InputError(
                f"matrix has eigenvalue {eigs[0]:.3g} below the PSD tolerance"
            )
        self.matrix = m

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order (matrix is symmetric)."""
        return np.linalg.eigvalsh(self.matrix)

    def consistency_residual(self) -> float:
        """Max-norm gap between the matrix and its per-jump decomposition."""
        if self.per_jump_terms is None:
            return 0.0
        d = self.dim
        total = np.zeros((d, d))
        for _, term in self.per_jump_terms:
            total = total + term
        if self.outer_factor is not None:
            total = self.outer_factor @ total @ self.outer_factor.T
        return float(np.abs(total - self.matrix).max())

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
        r = config.mark_dimension
        probes: list[JumpConfiguration] = []
        steps = []
        for atom_index in atoms:
            t, u = config.atom(atom_index)
            base = remove_particle(config, t, u)
            step = _FD_SCALE * (1.0 + float(np.linalg.norm(u)))
            steps.append(step)
            for j in range(r):
                bump = np.zeros(r)
                bump[j] = step
                try:
                    probes += [add_particle(base, t, u + bump), add_particle(base, t, u - bump)]
                except Exception as exc:
                    raise FunctionalError(
                        f"finite-difference probe failed at atom {atom_index}: {exc}"
                    ) from exc
        vals = iter(self._values(probes))
        jacobians = []
        for atom_index, step in zip(atoms, steps):
            out = np.empty((self.dim, r))
            for j in range(r):
                hi, lo = next(vals), next(vals)
                out[:, j] = (hi - lo) / (2.0 * step)
            if not np.all(np.isfinite(out)):
                raise FunctionalError(f"non-finite mark Jacobian at atom {atom_index}")
            jacobians.append(out)
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
            out = np.asarray(self.jacobian(t, u), dtype=float).reshape(self.dim, r)
        else:
            out = np.empty((self.dim, r))
            step = _FD_SCALE * (1.0 + float(np.linalg.norm(u)))
            for j in range(r):
                bump = np.zeros(r)
                bump[j] = step
                out[:, j] = (self(t, u + bump) - self(t, u - bump)) / (2.0 * step)
        if not np.all(np.isfinite(out)):
            raise FunctionalError(f"non-finite mark Jacobian of h at (t={t})")
        return out


class _LinearFunctional(MarkFunctional):
    def __init__(self, h: MarkFunction, model: TruncatedLevyModel,
                 t: float | None, quadrature):
        self.h = h
        self.model = model
        self.t = t
        self.quadrature = quadrature
        self.dim = h.dim
        self.exact_jacobian = h.jacobian is not None

    def value(self, config: JumpConfiguration) -> np.ndarray:
        t = config.horizon if self.t is None else self.t
        return np.array([
            compensated_integral(
                config, lambda s, u, i=i: float(self.h(s, u)[i]),
                self.model, t, quadrature=self.quadrature,
            )
            for i in range(self.dim)
        ])

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
    quadrature="adaptive",
) -> MarkFunctional:
    """Wrap ``N~(h)`` (compensated integral up to ``t``) as a functional.

    The mark Jacobian at an atom is just the mark Jacobian of ``h`` there:
    the compensator term does not depend on the configuration.
    """
    return _LinearFunctional(h, model, t, quadrature)


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
        for chunk in _solve_chunks(self.coeffs, self.model, configs, self.x0, self.step,
                                   None, validate=False, flows=False):
            out += [traj.value_at(traj.config.horizon if self.t is None else self.t).copy()
                    for traj in chunk]
        return out

    def mark_jacobians(self, config: JumpConfiguration) -> list[np.ndarray]:
        return self._fd_jacobians(config, range(config.n_atoms))


# ---------------------------------------------------------------------------
# flow renderings for SDE solutions
# ---------------------------------------------------------------------------

def _flow_prep(traj: Trajectory, coeffs: CoefficientSet | None, t: float | None):
    coeffs = coeffs or traj.coeffs
    if coeffs is None:
        raise StateError("no coefficient set available")
    if traj.flow is None or traj.inverse_flow is None:
        raise StateError("flow and inverse flow must be filled first")
    t = traj.horizon if t is None else float(t)
    row = traj.row_at(t)
    rows = traj.jump_rows()
    rows = rows[traj.times[rows] <= t]
    # the jump rows' times, left limits and marks: one batch for the coefficients
    points = traj.times[rows], traj.states_left[rows], traj.config.marks[traj.atom_index[rows]]
    return coeffs, t, row, rows, points


def gamma_flow(
    traj: Trajectory,
    coeffs: CoefficientSet | None,
    bs: BottomStructure,
    t: float | None = None,
) -> GammaMatrix:
    """Gamma[X_t] assembled from the flows (tag ``theorem9``).

    Each atom contributes ``Kbar_a gamma[c(a, X_{a-}, .)](u_a) Kbar_a^T``
    with the post-jump (right-limit) inverse flow, and the sum is
    conjugated by ``K_t``.
    """
    coeffs, t, row, rows, points = _flow_prep(traj, coeffs, t)
    d = coeffs.dim
    inner = np.zeros((d, d))
    terms: list[tuple[int, np.ndarray]] = []
    jacs = np.asarray(coeffs.du_c(*points), dtype=float) if rows.size else []
    for k, i in enumerate(rows):
        u = points[2][k]
        g = gamma_matrix(jacs[k], u, bs)
        kb = traj.inverse_flow[i]
        term = kb @ g @ kb.T
        term = 0.5 * (term + term.T)
        terms.append((int(traj.atom_index[i]), term))
        inner = inner + term
    k_t = traj.flow[row]
    mat = k_t @ inner @ k_t.T
    return GammaMatrix(
        matrix=0.5 * (mat + mat.T), formula_tag="theorem9", t=t,
        per_jump_terms=terms, outer_factor=k_t.copy(),
    )


def gamma_flow_left(
    traj: Trajectory,
    coeffs: CoefficientSet | None,
    bs: BottomStructure,
    t: float | None = None,
) -> GammaMatrix:
    """Gamma[X_t] using left-limit inverse flows (tag ``remark3``).

    The atom weight is ``Kbar_{a-} (I + dx_c)^{-1}``; algebraically equal
    to the post-jump weight of :func:`gamma_flow`, so the two renderings
    must agree -- kept separate as a standing consistency check.
    """
    coeffs, t, row, rows, points = _flow_prep(traj, coeffs, t)
    if traj.inverse_flow_left is None:
        raise StateError("left-limit inverse flow missing")
    d = coeffs.dim
    inner = np.zeros((d, d))
    terms: list[tuple[int, np.ndarray]] = []
    if rows.size:
        jacs = np.asarray(coeffs.du_c(*points), dtype=float)
        jump_matrices = np.eye(d) + np.asarray(coeffs.dx_c(*points), dtype=float)
    for k, i in enumerate(rows):
        u = points[2][k]
        g = gamma_matrix(jacs[k], u, bs)
        try:
            weight = np.linalg.solve(jump_matrices[k].T, traj.inverse_flow_left[i].T).T
        except np.linalg.LinAlgError:
            raise ModelError(f"jump update I + dx_c singular at t = {points[0][k]}") from None
        term = weight @ g @ weight.T
        term = 0.5 * (term + term.T)
        terms.append((int(traj.atom_index[i]), term))
        inner = inner + term
    k_t = traj.flow[row]
    mat = k_t @ inner @ k_t.T
    return GammaMatrix(
        matrix=0.5 * (mat + mat.T), formula_tag="remark3", t=t,
        per_jump_terms=terms, outer_factor=k_t.copy(),
    )


# ---------------------------------------------------------------------------
# generic and linear renderings
# ---------------------------------------------------------------------------

def _atom_jacobians(F: MarkFunctional, config: JumpConfiguration) -> list[np.ndarray]:
    jacs = []
    r = config.mark_dimension
    for i, jac in enumerate(F.mark_jacobians(config)):
        jac = np.asarray(jac, dtype=float)
        if jac.shape != (F.dim, r) or not np.all(np.isfinite(jac)):
            raise FunctionalError(
                f"mark Jacobian at atom {i} must be finite with shape ({F.dim}, {r})"
            )
        jacs.append(jac)
    return jacs


def gamma_generic(F: MarkFunctional, config: JumpConfiguration,
                  bs: BottomStructure) -> GammaMatrix:
    """Gamma[F] by the lent-particle procedure (tag ``generic``).

    For each atom, the mark Jacobian of the functional with the particle
    lent at that atom is evaluated on the configuration itself (removing
    and re-adding an existing atom is the identity), pushed through the
    mark carre du champ, and the terms are summed.
    """
    d = F.dim
    total = np.zeros((d, d))
    terms: list[tuple[int, np.ndarray]] = []
    for i, jac in enumerate(_atom_jacobians(F, config)):
        g = gamma_matrix(jac, config.marks[i], bs)
        terms.append((i, g))
        total = total + g
    return GammaMatrix(
        matrix=0.5 * (total + total.T), formula_tag="generic", t=config.horizon,
        per_jump_terms=terms, jacobian_exact=F.exact_jacobian,
    )


def gamma_linear(h: MarkFunction, config: JumpConfiguration, bs: BottomStructure,
                 t: float | None = None) -> GammaMatrix:
    """Gamma[N~(h)] -- atom terms with no flow conjugation (tag ``linear``)."""
    t = config.horizon if t is None else float(t)
    d = h.dim
    total = np.zeros((d, d))
    terms: list[tuple[int, np.ndarray]] = []
    for i in range(config.n_atoms):
        ti, u = config.atom(i)
        if ti > t:
            continue
        g = gamma_matrix(h.jac(ti, u), u, bs)
        terms.append((i, g))
        total = total + g
    return GammaMatrix(
        matrix=0.5 * (total + total.T), formula_tag="linear", t=t,
        per_jump_terms=terms, jacobian_exact=h.jacobian is not None,
    )


# ---------------------------------------------------------------------------
# randomized gradient and its Monte Carlo second moment
# ---------------------------------------------------------------------------

_RHO_BLOCK = 4096


def _rho_block(rho_seed: int, block_index: int, n: int, r: int) -> np.ndarray:
    """Normal draws for one block of draw sets, shape (block, n, r).

    Block ``b`` owns a counter-addressed stream, so its content never
    depends on how many draw sets are consumed overall; draw set ``m``
    always lives at offset ``m % block`` of block ``m // block``.
    """
    if n == 0:
        return np.empty((_RHO_BLOCK, 0, r))
    return stream(rho_seed, DOMAIN_RHO, block_index).standard_normal((_RHO_BLOCK, n, r))


def _rho_draws(rho_seed: int, draw_index: int, n: int, r: int) -> np.ndarray:
    """Auxiliary normal draws for one draw set; row i belongs to atom i."""
    block = _rho_block(rho_seed, draw_index // _RHO_BLOCK, n, r)
    return block[draw_index % _RHO_BLOCK]


def sharp_sample(F: MarkFunctional, config: JumpConfiguration, bs: BottomStructure,
                 rho_seed: int, draw_index: int = 0) -> np.ndarray:
    """One sample of the randomized gradient ``F-sharp``.

    Sums ``gradient_flat`` of the atom Jacobians against one independent
    normal draw per atom; linear in the draws with mean zero, and its
    second moment over draws is Gamma[F].
    """
    jacs = _atom_jacobians(F, config)
    rho = _rho_draws(rho_seed, draw_index, config.n_atoms, config.mark_dimension)
    out = np.zeros(F.dim)
    for i, jac in enumerate(jacs):
        out = out + np.atleast_1d(gradient_flat(jac, config.marks[i], rho[i], bs))
    return out


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
    draws.  Blocks of draw sets run on one thread per usable CPU and are
    reduced in fixed index order, so the result does not depend on the
    CPU count.
    """
    if M < 2:
        raise InputError(f"M must be >= 2, got {M}")
    d = F.dim
    n = config.n_atoms
    r = config.mark_dimension
    jacs = _atom_jacobians(F, config)
    # per-atom pushforward factors: sharp(m) = sum_i G_i rho[m, i]
    factors = np.zeros((n, d, r))
    for i, jac in enumerate(jacs):
        factors[i] = np.atleast_2d(jac) @ bs.factor(config.marks[i])

    starts = list(range(0, M, _RHO_BLOCK))

    def run_chunk(start: int):
        stop = min(start + _RHO_BLOCK, M)
        if n:
            rho = _rho_block(seed, start // _RHO_BLOCK, n, r)[: stop - start]
            sharps = np.einsum("idr,mir->md", factors, rho)
        else:
            sharps = np.zeros((stop - start, d))
        outer = sharps[:, :, None] * sharps[:, None, :]
        return outer.sum(axis=0), (outer * outer).sum(axis=0)

    workers = _usable_cpus()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_chunk, starts))
    else:
        partials = [run_chunk(s) for s in starts]
    sum1 = np.zeros((d, d))
    sum2 = np.zeros((d, d))
    for s1, s2 in partials:  # fixed index order
        sum1 += s1
        sum2 += s2
    mean = sum1 / M
    var = np.maximum(sum2 - M * mean * mean, 0.0) / (M - 1)
    se = np.sqrt(var / M)
    return GammaMatrix(
        matrix=0.5 * (mean + mean.T), formula_tag="rho_mc", t=config.horizon,
        standard_errors=se, jacobian_exact=F.exact_jacobian,
    )
