import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from lentparticle.bottom_structure import intro_1d, isotropic
from lentparticle.errors import (
    ConvergenceWarning,
    DomainError,
    InputError,
    ModelError,
)
from lentparticle.lent_particle import gamma_flow
from lentparticle.poisson_measure import JumpConfiguration, simulate_configuration
from lentparticle.scenarios import (
    SCENARIO_NAMES,
    area_closed_gamma,
    doleans_coefficients,
    doleans_exponential,
    get_scenario,
    graph_levy_model,
    graph_slope,
    mckean_vlasov,
    polar_first_moment,
    polar_levy_model,
    power_law_first_moment,
    power_law_model,
    stable_like_coefficient,
    stable_like_generator_check,
    stable_like_inverse,
    stable_like_pushforward_check,
    zeta,
)
from lentparticle.sde_engine import solve_sde


# ---------------------------------------------------------------- exponential


def test_doleans_exponential_matches_product():
    eps = 0.05
    model = power_law_model(truncation=eps)
    m1 = power_law_first_moment(eps)
    cfg = simulate_configuration(model, horizon=1.0, seed=6)
    y_t, exp_val = doleans_exponential(cfg, m1, 1.0)
    marks = cfg.marks[:, 0]
    assert y_t == pytest.approx(np.sum(marks) - m1, rel=1e-12)
    direct = math.exp(-m1) * float(np.prod(1.0 + marks))
    assert exp_val == pytest.approx(direct, rel=1e-10)


def test_doleans_pipeline_matches_closed_form():
    eps = 1.0 / 17.0
    scenario = get_scenario("doleans", truncation=eps)
    m1 = power_law_first_moment(eps)
    for seed in (0, 7, 23):
        cfg = scenario.simulate(seed=seed)
        traj, pipeline = scenario.run(cfg)
        closed = scenario.gamma_of(cfg)
        scale = np.linalg.norm(closed)
        err = np.linalg.norm(pipeline.matrix - closed)
        assert err <= 1e-9 * max(scale, 1e-30)
        # terminal state of the 2-d system's second coordinate is the exponential
        _, exponential = doleans_exponential(cfg, m1, 1.0)
        assert traj.value_at(1.0)[1] == pytest.approx(exponential, rel=1e-9)


def test_doleans_rejects_marks_below_minus_one():
    with pytest.raises(InputError, match="^bound"):
        get_scenario("doleans", truncation=0.05, bound=1.5)


def test_doleans_reuses_supplied_config():
    eps = 0.06
    model = power_law_model(truncation=eps)
    cfg = simulate_configuration(model, horizon=1.0, seed=3)
    traj, _ = get_scenario("doleans", truncation=eps).run(cfg)
    assert np.array_equal(traj.times[traj.is_jump], cfg.times)


def test_doleans_no_jumps_gamma_zero():
    scenario = get_scenario("doleans", truncation=0.06)
    empty = JumpConfiguration(times=np.zeros(0), marks=np.zeros((0, 1)), horizon=1.0)
    assert np.array_equal(scenario.gamma_of(empty), np.zeros((2, 2)))
    assert np.allclose(scenario.run(empty)[1].matrix, 0.0, atol=1e-15)


def test_doleans_single_jump_matrix():
    # one atom y: the matrix is y^2 [[1, w], [w, w^2]] with w = E/(1+y),
    # where E is the terminal exponential evaluated by brute force
    eps = 0.06
    scenario = get_scenario("doleans", truncation=eps, asymmetry=0.7)
    m1 = power_law_first_moment(eps, asymmetry=0.7)
    y, t = 0.3, 1.0
    cfg = JumpConfiguration(times=np.array([0.4]), marks=np.array([[y]]), horizon=t)
    e_brute = math.exp((y - m1 * t)) * (1.0 + y) * math.exp(-y)
    assert doleans_exponential(cfg, m1, t)[1] == pytest.approx(e_brute, rel=1e-12)
    w = e_brute / (1.0 + y)
    expected = y * y * np.array([[1.0, w], [w, w * w]])
    closed = scenario.gamma_of(cfg)
    assert np.allclose(closed, expected, rtol=1e-12, atol=0.0)
    err = np.linalg.norm(scenario.run(cfg)[1].matrix - expected)
    assert err <= 1e-9 * np.linalg.norm(expected)
    assert np.linalg.matrix_rank(closed) == 1


def test_doleans_rank_two_needs_two_jumps():
    scenario = get_scenario("doleans", truncation=0.06, asymmetry=0.7)
    cfg = JumpConfiguration(
        times=np.array([0.3, 0.6]), marks=np.array([[0.2], [-0.3]]), horizon=1.0
    )
    assert np.linalg.matrix_rank(scenario.gamma_of(cfg)) == 2


# ------------------------------------------------------------------ Levy area


def test_levy_area_case1_matches_closed_form():
    scenario = get_scenario("levy-area-1", truncation=0.02)
    m1 = polar_first_moment(0.02, 0.5)
    for seed in (1, 5, 12):
        cfg = scenario.simulate(seed=seed)
        traj, pipeline = scenario.run(cfg)
        closed, v, _ = area_closed_gamma(cfg, m1, scenario.bottom, 1.0)
        scale = np.linalg.norm(closed)
        err = np.linalg.norm(pipeline.matrix - closed)
        assert err <= 1e-9 * max(scale, 1e-30)
        # the closed-form path ends where the integrated one does
        assert np.allclose(traj.value_at(1.0), v, rtol=1e-9, atol=1e-12)


def test_levy_area_case2_matches_closed_form():
    scenario = get_scenario("levy-area-2", truncation=0.03)
    for seed in (2, 9):
        cfg = scenario.simulate(seed=seed)
        closed = scenario.gamma_of(cfg)
        scale = np.linalg.norm(closed)
        err = np.linalg.norm(scenario.run(cfg)[1].matrix - closed)
        assert err <= 1e-9 * max(scale, 1e-30)


def test_levy_area_no_jumps_gamma_zero():
    scenario = get_scenario("levy-area-1", truncation=0.02)
    empty = JumpConfiguration(times=np.zeros(0), marks=np.zeros((0, 2)), horizon=1.0)
    assert np.array_equal(scenario.gamma_of(empty), np.zeros((3, 3)))
    assert np.allclose(scenario.run(empty)[1].matrix, 0.0, atol=1e-15)


def test_levy_area_single_jump_rank_two():
    # with one atom the span contains at most two directions, so the matrix
    # cannot have full rank 3
    from lentparticle.density_criteria import rank_diagnostic

    cfg = JumpConfiguration(
        times=np.array([0.4]), marks=np.array([[0.3, 0.2]]), horizon=1.0
    )
    rep = rank_diagnostic(get_scenario("levy-area-1", truncation=0.02).gamma_of(cfg))
    assert rep.rank <= 2


def test_gammas_frees_each_chunk_before_the_next(monkeypatch):
    import dataclasses
    import weakref

    import lentparticle.sde_engine as engine

    scenario = dataclasses.replace(get_scenario("levy-area-1"), closed_form_gamma=None)
    configs = [scenario.simulate(seed=s) for s in range(5)]
    solved = []
    integrate = engine._integrate

    def tracked(*args):
        # every earlier chunk's stored limits are gone before this one is solved
        assert all(ref() is None for ref in solved)
        right, left = integrate(*args)
        solved.extend([weakref.ref(right), weakref.ref(left)])
        return right, left

    # about 460 rows of 42 stored values per path: two paths per chunk
    monkeypatch.setattr(engine, "_CHUNK_VALUES", 2 * 500 * 42)
    monkeypatch.setattr(engine, "_integrate", tracked)
    matrices = scenario.gammas(configs)
    assert len(solved) == 2 * 3
    for config, matrix in zip(configs, matrices, strict=True):
        assert np.array_equal(matrix, scenario.gamma_of(config))


# -------------------------------------------------------------- mark geometry


def test_graph_slope_on_and_off_parabola():
    assert graph_slope(np.array([0.2, 0.04])) == pytest.approx(0.4)
    with pytest.raises(DomainError):
        graph_slope(np.array([0.2, 0.1]))


def test_polar_model_mark_geometry():
    model = polar_levy_model(0.05)
    cfg = simulate_configuration(model, horizon=1.0, seed=4)
    radii = np.linalg.norm(cfg.marks, axis=1)
    assert np.all(radii > 0.05)
    assert np.all(radii < 1.0)


def test_graph_model_marks_on_parabola():
    model = graph_levy_model(0.04)
    cfg = simulate_configuration(model, horizon=1.0, seed=8)
    assert cfg.n_atoms > 0
    assert np.allclose(cfg.marks[:, 1], cfg.marks[:, 0] ** 2, atol=1e-14)


# -------------------------------------------------------------------- scenarios


def test_scenario_registry():
    assert set(SCENARIO_NAMES) == {"doleans", "levy-area-1", "levy-area-2", "null"}
    with pytest.raises(InputError):
        get_scenario("unknown-name")
    with pytest.raises(InputError, match="^halfwidth"):
        get_scenario("doleans", halfwidth=0.6)


def test_scenario_closed_form_agrees_with_pipeline():
    for name in ("doleans", "levy-area-1"):
        sc = get_scenario(name)
        cfg = sc.simulate(seed=5)
        traj, gamma = sc.run(cfg)
        closed = sc.gamma_of(cfg)
        scale = max(1.0, np.linalg.norm(closed))
        assert np.linalg.norm(gamma.matrix - closed) <= 1e-9 * scale


def test_null_scenario_gamma_vanishes():
    sc = get_scenario("null")
    cfg = sc.simulate(seed=2)
    assert not np.any(sc.gamma_of(cfg))


# -------------------------------------------------------------- McKean-Vlasov


def test_mckean_constant_sigma_reduces_to_plain_sde():
    # with sigma independent of the law the interaction disappears and the
    # tagged particle solves the ordinary SDE
    eps = 0.05
    model = power_law_model(truncation=eps)
    m1 = power_law_first_moment(eps)
    res = mckean_vlasov(
        sigma=lambda x, law: 0.8,
        particles=12,
        picard_iters=2,
        model=model,
        t=1.0,
        seed=21,
        x0=0.4,
        step=0.01,
        first_moment=m1,
    )
    coeffs = doleans_like_constant_coeffs(0.8, m1)
    cfg = res.trajectory.config
    traj = solve_sde(coeffs, model, cfg, x0=np.array([0.4]), step=0.01, flows=True)
    assert np.allclose(res.trajectory.states, traj.states, rtol=1e-9, atol=1e-12)
    plain_gamma = gamma_flow(traj, coeffs, intro_1d())
    assert np.allclose(res.gamma.matrix, plain_gamma.matrix, rtol=1e-8, atol=1e-12)


def doleans_like_constant_coeffs(s, m1):
    from lentparticle.sde_engine import CoefficientSet

    # batched: t (P,), x (P, 1), u (P, 1); row p of each is one point
    return CoefficientSet(
        dim=1,
        c=lambda t, x, u: s * u[:, :1],
        dx_c=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
        du_c=lambda t, x, u: np.full((x.shape[0], 1, 1), s),
        compensator=lambda t, x: np.full((x.shape[0], 1), s * m1),
        dx_compensator=lambda t, x: np.zeros((x.shape[0], 1, 1)),
    )


def test_mckean_picard_residuals_decrease():
    eps = 0.05
    model = power_law_model(truncation=eps)
    m1 = power_law_first_moment(eps)
    res = mckean_vlasov(
        sigma=lambda x, law: 0.6 + 0.2 * math.tanh(float(np.mean(law))),
        particles=16,
        picard_iters=4,
        model=model,
        t=1.0,
        seed=3,
        first_moment=m1,
    )
    r = res.picard_residuals
    assert len(r) == 4
    assert r[-1] < r[0]
    assert res.aa_invertible == (abs(res.aa_value) > 0)


def test_mckean_grid_row_limit(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(InputError, match="grid rows"):
        mckean_vlasov(
            sigma=lambda x, law: 0.8, particles=10, picard_iters=1,
            model=power_law_model(truncation=0.05), t=1.0, seed=0, step=1e-9,
        )


def test_mckean_warns_when_not_converged():
    eps = 0.05
    model = power_law_model(truncation=eps)
    m1 = power_law_first_moment(eps)
    with pytest.warns(ConvergenceWarning):
        mckean_vlasov(
            sigma=lambda x, law: 0.6 + 0.3 * math.tanh(float(np.mean(law))),
            particles=12,
            picard_iters=1,
            model=model,
            t=1.0,
            seed=3,
            first_moment=m1,
            picard_tol=1e-12,
        )


def test_mckean_requires_enough_particles():
    model = power_law_model(truncation=0.05)
    with pytest.raises(InputError):
        mckean_vlasov(
            sigma=lambda x, law: 1.0, particles=3, picard_iters=1,
            model=model, t=1.0, seed=0,
        )


# ------------------------------------------------------------------ stable-like


def test_zeta_special_value():
    assert zeta(1.0, 1) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_zeta_vanishes_at_small_beta():
    assert 0.0 < zeta(1e-6) < 1e-5
    assert zeta(1e-3) < zeta(1e-2)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(0.0)
    with pytest.raises(DomainError):
        zeta(2.0)
    with pytest.raises(DomainError):
        zeta(1.0, d=0)


def test_zeta_quadrature_identity():
    # zeta(beta) * integral (1 - cos(xi y)) |y|^(-1-beta) dy = |xi|^beta
    for beta in (0.5, 1.2):
        for xi in (0.7, 2.0):
            def integrand(y):
                return (1.0 - math.cos(xi * y)) * y ** (-1.0 - beta)

            head, _ = integrate.quad(integrand, 0.0, 50.0, limit=400)
            val = 2.0 * zeta(beta) * (head + _cos_tail(xi, beta))
            assert val == pytest.approx(xi ** beta, rel=1e-4)


def _cos_tail(xi, beta):
    # integral_50^inf (1 - cos(xi y)) y^(-1-beta) dy via oscillatory weights
    flat = 50.0 ** (-beta) / beta
    osc, _ = integrate.quad(
        lambda y: y ** (-1.0 - beta), 50.0, 5000.0, weight="cos", wvar=xi
    )
    return flat - osc


def test_stable_like_coefficient_limits():
    alpha_fn = lambda x: 1.3
    sigma = np.array([1.0])
    x = np.array([0.0])
    at_zero = stable_like_coefficient(alpha_fn, 1.0, x, 0.0, sigma)
    assert at_zero[0] == pytest.approx(1.0, rel=1e-14)
    small = stable_like_coefficient(alpha_fn, 1.0, x, 1e9, sigma)
    assert 0 < small[0] < 1e-6
    # monotone decreasing in z
    zs = np.linspace(0.0, 20.0, 40)
    vals = [stable_like_coefficient(alpha_fn, 1.0, x, z, sigma)[0] for z in zs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_stable_like_coefficient_validation():
    alpha_fn = lambda x: 1.3
    with pytest.raises(DomainError):
        stable_like_coefficient(alpha_fn, 1.0, np.array([0.0]), -1.0, np.array([1.0]))
    with pytest.raises(InputError):
        stable_like_coefficient(alpha_fn, 1.0, np.array([0.0]), 1.0, np.array([2.0]))
    with pytest.raises(ModelError):
        stable_like_coefficient(lambda x: 2.5, 1.0, np.array([0.0]), 1.0, np.array([1.0]))


def test_stable_like_inverse_round_trip():
    alpha_fn = lambda x: 1.3 + 0.3 * math.tanh(float(x[0]))
    x = np.array([0.3])
    for z in (0.1, 1.0, 7.5):
        r = stable_like_coefficient(alpha_fn, 1.0, x, z, np.array([1.0]))[0]
        back = stable_like_inverse(alpha_fn, 1.0, x, r)
        assert back == pytest.approx(z, rel=1e-10, abs=1e-12)


def test_stable_like_pushforward():
    alpha_fn = lambda x: 1.3 + 0.3 * math.tanh(float(x[0]))
    err = stable_like_pushforward_check(alpha_fn, 1.0, np.array([0.3]), n_grid=25)
    assert err <= 1e-10


def test_generator_check_constant_f_trivial():
    rep = stable_like_generator_check(
        lambda x: 1.3, 1.0, 0.2, f=lambda y: 1.0, h=1e-3, n_paths=500, seed=1
    )
    assert rep.mc_estimate == pytest.approx(0.0, abs=1e-12)
    assert rep.quadrature_value == pytest.approx(0.0, abs=1e-9)
    assert rep.passed


def test_generator_check_odd_f_cancels():
    # symmetric +/- directions make the compensator of an odd f vanish
    rep = stable_like_generator_check(
        lambda x: 1.3, 1.0, 0.0, f=lambda y: y, h=1e-3, n_paths=4000, seed=2
    )
    assert rep.quadrature_value == pytest.approx(0.0, abs=1e-8)
    assert rep.passed


def test_generator_check_cos():
    rep = stable_like_generator_check(
        lambda x: 1.3 + 0.3 * math.tanh(float(np.atleast_1d(x)[0])), 1.0, 0.3,
        f=math.cos, h=1e-3, n_paths=20_000, seed=5,
    )
    assert rep.passed
    assert rep.standard_error > 0
    assert abs(rep.residual) <= rep.threshold
