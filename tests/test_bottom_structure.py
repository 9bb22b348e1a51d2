import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lentparticle.bottom_structure import (
    BottomStructure,
    from_expressions,
    gamma_matrix,
    intro_1d,
    isotropic,
    psi_over_k,
    standard_instances,
)
from lentparticle.errors import InputError, StructureError
from lentparticle.rng import DOMAIN_RHO, stream
from lentparticle.scenarios import graph_structure


def test_intro_weight_values():
    bs = intro_1d()
    # weight is u^2 inside |u| < 1/2 and 0 outside
    w = bs.weight(np.array([[0.3], [0.7], [-0.2]]))
    assert w.shape == (3, 1, 1)
    assert w[:, 0, 0].tolist() == pytest.approx([0.09, 0.0, 0.04])
    assert w[1, 0, 0] == 0.0


def test_zero_over_zero_convention():
    bs = intro_1d()
    # outside the carrier both psi and k vanish; the ratio is defined as 0
    w = bs.weight(np.array([[2.0]]))
    assert np.all(w == 0.0)
    assert np.all(bs.factor(np.array([[2.0]])) == 0.0)


def test_isotropic_weight_capped():
    bs = isotropic(2, cap=1.0)
    w = bs.weight(np.array([[0.3, 0.4], [3.0, 4.0]]))
    assert np.allclose(w[0], 0.25 * np.eye(2))
    assert np.allclose(w[1], np.eye(2))


def test_factor_is_square_root_of_weight():
    for bs, marks in [
        (intro_1d(), np.array([[0.3], [0.8]])),
        (isotropic(2), np.array([[0.2, -0.1], [0.0, 0.0]])),
        (psi_over_k(), np.array([[0.7]])),
        (graph_structure(), np.array([[0.2, 0.04], [-0.3, 0.09]])),
    ]:
        L = bs.factor(marks)
        assert np.allclose(L @ L.transpose(0, 2, 1), bs.weight(marks), atol=1e-14)


def test_gamma_matrix_psd_and_symmetric():
    bs = isotropic(2)
    jac = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    u = np.array([0.1, 0.2])
    g = gamma_matrix(jac[None], u[None], bs)[0]
    assert np.allclose(g, g.T)
    assert np.min(np.linalg.eigvalsh(g)) >= -1e-14
    assert np.allclose(g, jac @ bs.weight(u[None])[0] @ jac.T)


def _flat(grad, u, rho, bs):
    """Randomised gradient ``grad . L(u) rho`` of one scalar function at one mark."""
    return float(np.asarray(grad, dtype=float) @ bs.factor(u[None])[0] @ rho)


def test_gradient_flat_chain_rule_per_draw():
    # the product and composition rules must hold for each draw exactly,
    # not only in distribution
    bs = isotropic(2)
    u = np.array([0.3, -0.2])
    rho = stream(5, DOMAIN_RHO).standard_normal(2)
    grad_f = np.array([1.0, 2.0])
    grad_g = np.array([-0.5, 0.25])
    f_val, g_val = 1.3, -0.7
    flat_f = _flat(grad_f, u, rho, bs)
    flat_g = _flat(grad_g, u, rho, bs)
    flat_fg = _flat(g_val * grad_f + f_val * grad_g, u, rho, bs)
    assert flat_fg == pytest.approx(g_val * flat_f + f_val * flat_g, rel=1e-13)
    # composition with phi(y) = y^3: gradient scales by phi'(f)
    flat_phi = _flat(3.0 * f_val ** 2 * grad_f, u, rho, bs)
    assert flat_phi == pytest.approx(3.0 * f_val ** 2 * flat_f, rel=1e-13)


def test_gradient_flat_constant_is_zero():
    bs = intro_1d()
    rho = stream(6, DOMAIN_RHO).standard_normal(1)
    assert _flat([0.0], np.array([0.3]), rho, bs) == 0.0


def test_second_moment_reproduces_gamma():
    # E[(grad . L rho)^2] = gamma[f]; checked by seeded Monte Carlo
    bs = isotropic(2)
    u = np.array([0.25, 0.15])
    grad = np.array([2.0, -1.0])
    target = gamma_matrix(grad[None, None], u[None], bs)[0, 0, 0]
    g = stream(11, DOMAIN_RHO)
    draws = g.standard_normal((200_000, 2))
    # one batch of 2000 copies of the mark, each with its own draw
    factors = bs.factor(np.tile(u, (2000, 1)))
    flats = (np.tile(grad, (2000, 1, 1)) @ (factors @ draws[:2000, :, None]))[:, 0, 0]
    # vectorised equivalent for the full sample
    L = bs.factor(u[None])[0]
    all_flats = draws @ (grad @ L)
    assert np.allclose(flats, all_flats[:2000])
    est = float(np.mean(all_flats ** 2))
    se = float(np.std(all_flats ** 2) / np.sqrt(draws.shape[0]))
    assert abs(est - target) < 4 * se


def test_gamma_independent_of_factor_choice():
    # two different square roots of the same weight give the same gamma
    w = np.array([[2.0, 0.6], [0.6, 1.0]])
    chol = np.linalg.cholesky(w)
    vals, vecs = np.linalg.eigh(w)
    sym_root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    assert not np.allclose(chol, sym_root)
    jac = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert np.allclose(jac @ chol @ chol.T @ jac.T, jac @ sym_root @ sym_root.T @ jac.T)


def _ones(marks):
    return np.ones(len(marks))


def test_structure_psi_exceeding_k_rejected():
    bs = BottomStructure(
        mark_dimension=1,
        support=lambda marks: np.abs(marks[:, 0]) > 0,
        density=_ones,
        psi=lambda marks: np.full(len(marks), 2.0),
        xi=lambda marks: np.ones((len(marks), 1, 1)),
        name="bad",
    )
    with pytest.raises(StructureError):
        bs.weight(np.array([[0.5]]))


def test_asymmetric_xi_rejected():
    bs = BottomStructure(
        mark_dimension=2,
        support=lambda marks: np.ones(len(marks), dtype=bool),
        density=_ones,
        psi=_ones,
        xi=lambda marks: np.tile([[1.0, 0.5], [0.0, 1.0]], (len(marks), 1, 1)),
        name="bad",
    )
    with pytest.raises(StructureError):
        bs.weight(np.array([[0.1, 0.1]]))


def _breaks_at_row_2(kind):
    """A 2-d structure whose only fault sits at the mark (0.3, 0.3)."""
    at = lambda marks: marks[:, 0] == 0.3

    def density(marks):
        return np.where(at(marks), 0.0, 1.0) if kind == "k = 0" else _ones(marks)

    def psi(marks):
        return np.where(at(marks), 2.0, 1.0) if kind == "psi > k" else _ones(marks)

    def xi(marks):
        out = np.tile(np.eye(2), (len(marks), 1, 1))
        if kind == "asymmetric":
            out[at(marks), 0, 1] = 0.5
        if kind == "shape" and at(marks).any():
            return out[:, :1]
        return out

    return BottomStructure(2, support=lambda marks: np.ones(len(marks), dtype=bool),
                           density=density, psi=psi, xi=xi, name=kind)


@pytest.mark.parametrize("kind, message", [
    ("psi > k", r"psi\(u\) = 2.0 exceeds k\(u\) = 1.0 at mark 2$"),
    ("k = 0", r"psi\(u\) = 1.0 > 0 where k\(u\) = 0 \(requires psi <= k\) at mark 2$"),
    ("asymmetric", r"xi\(u\) must be symmetric at mark 2$"),
    ("shape", r"xi\(u\) must have shape \(2, 2\), got \(1, 2\) at mark 0$"),
])
def test_batched_structure_errors_name_the_mark(kind, message):
    bs = _breaks_at_row_2(kind)
    marks = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4]])
    assert bs.weight(np.delete(marks, 2, axis=0)).shape == (3, 2, 2)
    with pytest.raises(StructureError, match=message):
        bs.weight(marks)
    with pytest.raises(StructureError, match=message):
        bs.factor(marks)


def test_standard_catalog():
    cat = standard_instances()
    assert set(cat) == {"INTRO_1D", "ISOTROPIC_RD", "PSI_OVER_K"}
    assert cat["INTRO_1D"].mark_dimension == 1
    assert cat["ISOTROPIC_RD"].mark_dimension == 2


def test_from_expressions_structure():
    bs = from_expressions("1", "1", ["u1^2 * ind(0.5)"], 1)
    w = bs.weight(np.array([[0.2], [0.8]]))
    assert w[0, 0, 0] == pytest.approx(0.04)
    assert w[1, 0, 0] == 0.0
    with pytest.raises(InputError):
        from_expressions("1", "1", ["u1", "u2"], 1)


# each structure with a strategy for batches of its marks, zero rows included
_coordinate = st.floats(-0.6, 0.6, allow_nan=False)


def _marks(r):
    return arrays(float, st.tuples(st.integers(0, 8), st.just(r)), elements=_coordinate)


_on_parabola = arrays(float, st.integers(0, 8), elements=_coordinate).map(
    lambda z: np.column_stack([z, z * z]))

def _correlated_xi(marks):
    """Positive definite and not diagonal: [[1 + u1^2, u1 u2], [u1 u2, 1 + u2^2]]."""
    u1, u2 = marks[:, 0], marks[:, 1]
    return np.stack([np.stack([1 + u1 * u1, u1 * u2], -1), np.stack([u1 * u2, 1 + u2 * u2], -1)], 1)


_STRUCTURES = {
    "correlated": (psi_over_k(r=2, xi=_correlated_xi), _marks(2)),
    "INTRO_1D": (intro_1d(), _marks(1)),
    "ISOTROPIC_RD": (isotropic(2, cap=0.2), _marks(2)),
    "PSI_OVER_K": (psi_over_k(), _marks(1)),
    "GRAPH_TANGENT": (graph_structure(cap=0.1), _on_parabola),
    "expressions": (from_expressions("2 + abs(u1)", "min(abs(u2), 1) + 1",
                                     ["u1^2 * ind(0.5) + 0.1", "abs(u1 * u2)^1.5"]), _marks(2)),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_STRUCTURES)))
def test_batched_weight_equals_stacked_single_marks(data, name):
    bs, strategy = _STRUCTURES[name]
    marks = data.draw(strategy)
    for method in (bs.weight, bs.factor):
        whole = method(marks)
        r = bs.mark_dimension
        assert whole.shape == (marks.shape[0], r, r)
        singles = [method(marks[i:i + 1]) for i in range(marks.shape[0])]
        assert whole.tobytes() == np.concatenate(singles or [whole]).tobytes()
    if name in ("correlated", "ISOTROPIC_RD"):
        # a positive definite weight gets numpy's own Cholesky factor
        w, L = bs.weight(marks), bs.factor(marks)
        for i in np.flatnonzero(w.any(axis=(1, 2))):
            assert L[i].tobytes() == np.linalg.cholesky(w[i]).tobytes()


def _stacked_weight(xi: np.ndarray, ratio: float) -> np.ndarray:
    """The weights of the ``(n, r, r)`` stack ``xi`` at ``psi / k = ratio``,
    with the symmetry check made over whole ``(n, r, r)`` stacks, the
    reference for ``weight``'s entry-by-entry one."""
    xi_t = xi.transpose(0, 2, 1)
    tol = 1e-12 * np.maximum(1.0, np.abs(xi).max(axis=(1, 2)))
    close = (np.abs(xi - xi_t) <= tol[:, None, None]) | (xi == xi_t)
    bad = np.flatnonzero(~close.all(axis=(1, 2)))
    if bad.size:
        raise StructureError(f"xi(u) must be symmetric at mark {bad[0]}")
    w = xi * np.full(len(xi), ratio)[:, None, None]
    return 0.5 * (w + w.transpose(0, 2, 1))


def _outcome(call):
    """The bytes ``call()`` returns or the message of the StructureError it
    raises, and every warning it gives, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call().tobytes()
        except StructureError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


_ENTRY = st.one_of(st.floats(-1e3, 1e3),
                   st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300]))
# an off-diagonal entry moved from its mirror by this many tolerances, or negated
_OFFSET = st.sampled_from([0.5, 1.0, 1.0 - 2 ** -30, 1.0 + 2 ** -30, 2.0, -1.0, -2.0, "negate"])


@settings(max_examples=150, deadline=None)
@given(r=st.sampled_from([1, 2, 3]), data=st.data())
def test_weight_refuses_the_marks_the_stacked_check_refused(r, data):
    # NaN diagonals, +-inf pairs and asymmetries at the 1e-12 tolerance: the
    # same first refused mark and message, else the same bits, and the same
    # RuntimeWarnings
    n = data.draw(st.integers(0, 6))
    xi = data.draw(arrays(float, (n, r, r), elements=_ENTRY))
    lower, upper = np.tril_indices(r, -1)
    xi[:, lower, upper] = xi[:, upper, lower]
    for m in range(n if r > 1 else 0):
        if data.draw(st.booleans()):
            a, b = data.draw(st.sampled_from(list(zip(lower.tolist(), upper.tolist()))))
            offset = data.draw(_OFFSET)
            tol = 1e-12 * max(1.0, np.abs(xi[m]).max())
            with np.errstate(invalid="ignore"):
                xi[m, a, b] = -xi[m, b, a] if offset == "negate" else xi[m, b, a] + offset * tol
    bs = psi_over_k(density=lambda marks: np.full(len(marks), 4.0),
                    psi=lambda marks: np.full(len(marks), 3.0), r=r, xi=lambda marks: xi)
    assert _outcome(lambda: bs.weight(np.ones((n, r)))) == _outcome(
        lambda: _stacked_weight(xi, 3.0 / 4.0))
