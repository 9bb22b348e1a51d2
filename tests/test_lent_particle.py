import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lentparticle.lent_particle as lent_particle

from lentparticle.bottom_structure import intro_1d, isotropic
from lentparticle.lent_particle import (
    MarkFunction,
    MarkFunctional,
    SdeFunctional,
    gamma_flow,
    gamma_flow_left,
    gamma_generic,
    gamma_linear,
    gamma_rho_mc,
    linear_functional,
    sharp_sample,
)
from lentparticle.poisson_measure import JumpConfiguration, simulate_configuration
from lentparticle.scenarios import doleans_coefficients, power_law_first_moment, power_law_model
from lentparticle.sde_engine import solve_sde


def _config(times, marks, horizon=1.0):
    return JumpConfiguration(
        times=np.asarray(times, dtype=float),
        marks=np.asarray(marks, dtype=float).reshape(len(times), -1),
        horizon=horizon,
    )


def _square_h():
    return MarkFunction(
        dim=1,
        fn=lambda t, u: np.array([u[0] ** 2]),
        jacobian=lambda t, u: np.array([[2.0 * u[0]]]),
    )


def test_gamma_linear_hand_sum():
    # weight is u^2 inside |u| < 1/2; for h = u^2 each atom contributes
    # (2u)^2 * u^2, and the atom at 0.6 sits outside the carrier
    cfg = _config([0.2, 0.5, 0.9], [0.3, -0.4, 0.6])
    g = gamma_linear(_square_h(), cfg, intro_1d())
    expect = (0.6 ** 2) * 0.09 + (0.8 ** 2) * 0.16
    assert g.matrix[0, 0] == pytest.approx(expect, rel=1e-14)
    assert g.formula_tag == "linear"
    assert len(g.per_jump_terms) == 3


def test_gamma_linear_time_cutoff():
    cfg = _config([0.2, 0.5, 0.9], [0.3, -0.4, 0.2])
    g = gamma_linear(_square_h(), cfg, intro_1d(), t=0.4)
    assert g.matrix[0, 0] == pytest.approx((0.6 ** 2) * 0.09, rel=1e-14)


def test_gamma_generic_matches_linear():
    model = power_law_model(truncation=0.05)
    cfg = simulate_configuration(model, horizon=1.0, seed=8)
    bs = intro_1d()
    h = _square_h()
    F = linear_functional(h, model)
    direct = gamma_linear(h, cfg, bs)
    generic = gamma_generic(F, cfg, bs)
    assert np.allclose(generic.matrix, direct.matrix, rtol=1e-7, atol=1e-12)


def test_fd_jacobian_matches_exact():
    class Exact(MarkFunctional):
        dim = 1
        exact_jacobian = True

        def value(self, config):
            return np.array([np.sum(np.sin(config.marks[:, 0]))])

        def mark_jacobian(self, config, atom_index):
            return np.array([[np.cos(config.marks[atom_index, 0])]])

    class ByDifference(Exact):
        exact_jacobian = False
        mark_jacobian = MarkFunctional.mark_jacobian

    cfg = _config([0.1, 0.4, 0.7], [0.2, -0.3, 0.45])
    for i in range(3):
        a = Exact().mark_jacobian(cfg, i)
        b = ByDifference().mark_jacobian(cfg, i)
        assert np.allclose(a, b, rtol=1e-6)


def _doleans_setup(seed=5):
    eps = 1.0 / 17.0
    model = power_law_model(truncation=eps)
    m1 = power_law_first_moment(eps)
    coeffs = doleans_coefficients(m1, 0.5)
    cfg = simulate_configuration(model, horizon=1.0, seed=seed)
    traj = solve_sde(coeffs, model, cfg, x0=np.array([0.0, 1.0]), step=0.0025, flows=True)
    return model, coeffs, cfg, traj


def test_flow_renderings_agree():
    _, coeffs, _, traj = _doleans_setup()
    bs = intro_1d()
    a = gamma_flow(traj, coeffs, bs)
    b = gamma_flow_left(traj, coeffs, bs)
    assert a.formula_tag == "theorem9"
    assert b.formula_tag == "remark3"
    scale = max(1.0, np.abs(a.matrix).max())
    assert np.abs(a.matrix - b.matrix).max() <= 1e-10 * scale


def test_flow_matches_resolve_functional():
    model, coeffs, cfg, traj = _doleans_setup()
    bs = intro_1d()
    flow = gamma_flow(traj, coeffs, bs)
    F = SdeFunctional(coeffs, model, np.array([0.0, 1.0]), step=0.0025)
    generic = gamma_generic(F, cfg, bs)
    assert not generic.jacobian_exact
    scale = max(1.0, np.abs(flow.matrix).max())
    assert np.abs(flow.matrix - generic.matrix).max() <= 1e-5 * scale


def test_per_jump_decomposition_consistent():
    model, coeffs, cfg, traj = _doleans_setup(seed=11)
    bs = intro_1d()
    for g in (
        gamma_flow(traj, coeffs, bs),
        gamma_flow_left(traj, coeffs, bs),
        gamma_linear(_square_h(), cfg, bs),
    ):
        assert g.consistency_residual() <= 1e-12


def test_sharp_product_rule_per_draw():
    # (FG)# = F# G + F G# must hold for each rho draw, not just on average
    class SumMarks(MarkFunctional):
        dim = 1
        exact_jacobian = True

        def value(self, config):
            return np.array([np.sum(config.marks[:, 0])])

        def mark_jacobian(self, config, atom_index):
            return np.array([[1.0]])

    class SumSquares(MarkFunctional):
        dim = 1
        exact_jacobian = True

        def value(self, config):
            return np.array([np.sum(config.marks[:, 0] ** 2)])

        def mark_jacobian(self, config, atom_index):
            return np.array([[2.0 * config.marks[atom_index, 0]]])

    class Product(MarkFunctional):
        dim = 1
        exact_jacobian = True

        def value(self, config):
            return SumMarks().value(config) * SumSquares().value(config)

        def mark_jacobian(self, config, atom_index):
            f = SumMarks().value(config)[0]
            g = SumSquares().value(config)[0]
            jf = SumMarks().mark_jacobian(config, atom_index)
            jg = SumSquares().mark_jacobian(config, atom_index)
            return g * jf + f * jg

    cfg = _config([0.1, 0.3, 0.8], [0.2, -0.35, 0.15])
    bs = intro_1d()
    for draw in range(4):
        f_sharp = sharp_sample(SumMarks(), cfg, bs, rho_seed=9, draw_index=draw)[0]
        g_sharp = sharp_sample(SumSquares(), cfg, bs, rho_seed=9, draw_index=draw)[0]
        p_sharp = sharp_sample(Product(), cfg, bs, rho_seed=9, draw_index=draw)[0]
        f = SumMarks().value(cfg)[0]
        g = SumSquares().value(cfg)[0]
        expect = g * f_sharp + f * g_sharp
        assert p_sharp == pytest.approx(expect, rel=1e-13, abs=1e-15)


def test_sharp_of_constant_is_zero():
    class One(MarkFunctional):
        dim = 1
        exact_jacobian = True

        def value(self, config):
            return np.array([1.0])

        def mark_jacobian(self, config, atom_index):
            return np.array([[0.0]])

    cfg = _config([0.4], [0.2])
    bs = intro_1d()
    assert sharp_sample(One(), cfg, bs, rho_seed=3)[0] == 0.0
    assert gamma_generic(One(), cfg, bs).matrix[0, 0] == 0.0


def test_rho_mc_determinism_and_average():
    cfg = _config([0.1, 0.3, 0.8], [0.2, -0.35, 0.15])
    bs = intro_1d()
    h = _square_h()
    model = power_law_model(truncation=0.05)
    F = linear_functional(h, model)
    M = 64
    est1 = gamma_rho_mc(F, cfg, bs, M=M, seed=77)
    est2 = gamma_rho_mc(F, cfg, bs, M=M, seed=77)
    assert np.array_equal(est1.matrix, est2.matrix)
    est3 = gamma_rho_mc(F, cfg, bs, M=M, seed=78)
    assert not np.array_equal(est1.matrix, est3.matrix)

    # the estimator is literally the average of the squared sharp samples
    sharps = np.array([
        sharp_sample(F, cfg, bs, rho_seed=77, draw_index=i)[0] for i in range(M)
    ])
    assert est1.matrix[0, 0] == pytest.approx(np.mean(sharps ** 2), rel=1e-13)


def test_rho_mc_within_error_bars():
    cfg = _config([0.1, 0.3, 0.8], [0.2, -0.35, 0.15])
    bs = intro_1d()
    h = _square_h()
    model = power_law_model(truncation=0.05)
    F = linear_functional(h, model)
    target = gamma_linear(h, cfg, bs).matrix
    est = gamma_rho_mc(F, cfg, bs, M=20_000, seed=5)
    assert est.standard_errors is not None
    assert np.all(np.abs(est.matrix - target) <= 4.0 * est.standard_errors + 1e-12)


@settings(max_examples=20, deadline=None)
@example(marks=[0.2, -0.35, 0.15], M=500, seed=6)
@example(marks=[0.2, -0.35, 0.15], M=3 * 4096 + 7, seed=6)
@given(
    marks=st.lists(st.floats(0.05, 0.5) | st.floats(-0.5, -0.05), max_size=5),
    M=st.integers(2, 4 * 4096),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_rho_mc_threads_match_serial(marks, M, seed):
    # blocks of 4096 draw sets go to a thread pool sized by the usable CPUs
    cfg = JumpConfiguration(np.linspace(0.1, 0.9, len(marks)), np.reshape(marks, (-1, 1)), 1.0)
    bs = intro_1d()
    F = linear_functional(_square_h(), power_law_model(truncation=0.05))
    runs = []
    for cpus in (1, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lent_particle, "_usable_cpus", lambda: cpus)
            runs.append(gamma_rho_mc(F, cfg, bs, M=M, seed=seed))
    assert np.array_equal(runs[0].matrix, runs[1].matrix)
    assert np.array_equal(runs[0].standard_errors, runs[1].standard_errors)


def test_multidim_gamma_matches_isotropic_weight():
    # 2-d marks, vector h: Gamma = sum J xi J^T with xi = min(|u|^2, 1) I
    cfg = _config([0.2, 0.7], [[0.3, 0.1], [-0.2, 0.4]])
    bs = isotropic(2)
    h = MarkFunction(
        dim=2,
        fn=lambda t, u: np.array([u[0] + u[1], u[0] * u[1]]),
        jacobian=lambda t, u: np.array([[1.0, 1.0], [u[1], u[0]]]),
    )
    g = gamma_linear(h, cfg, bs)
    expect = np.zeros((2, 2))
    for u in cfg.marks:
        jac = np.array([[1.0, 1.0], [u[1], u[0]]])
        expect += float(u @ u) * (jac @ jac.T)
    assert np.allclose(g.matrix, expect, rtol=1e-13)


def test_gamma_json_round_trip():
    cfg = _config([0.2], [0.3])
    g = gamma_linear(_square_h(), cfg, intro_1d())
    blob = json.loads(json.dumps(g.to_json_dict()))
    assert blob["formula_tag"] == "linear"
    assert blob["t"] == 1.0
    assert np.allclose(np.array(blob["matrix"]), g.matrix)
    assert blob["eigenvalues"][0] == pytest.approx(float(g.eigenvalues()[0]))
