import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lentparticle.errors import ConditioningWarning, InputError, ModelError
from lentparticle.poisson_measure import JumpConfiguration, simulate_configuration as simulate
from lentparticle.scenarios import power_law_first_moment, power_law_model, uniform_box_model
from lentparticle.sde_engine import (
    CoefficientSet,
    quadrature_compensator,
    read_trajectory_csv,
    solve_sde,
    validate_coefficients,
)


def _uniform_model(lo=0.1, hi=0.6, intensity=3.0):
    return uniform_box_model(1, hi, lo, intensity)


# Coefficients evaluate batches paired by row: t (P,), x (P, d), u (P, r).

def _constant(matrix):
    """A batched callable returning ``matrix`` at every point."""
    matrix = np.asarray(matrix, dtype=float)
    return lambda t, x, *u: np.broadcast_to(matrix, (x.shape[0], *matrix.shape))


def linear_1d(rate=0.0, compensate=None):
    """dX = rate X dt + X u dN, optionally with closed compensator."""
    kwargs = {}
    if rate != 0.0:
        kwargs["drift"] = lambda t, x: rate * x
        kwargs["dx_drift"] = _constant([[rate]])
    if compensate is not None:
        kwargs["compensator"] = lambda t, x: compensate * x
        kwargs["dx_compensator"] = _constant([[compensate]])
    return CoefficientSet(
        dim=1,
        c=lambda t, x, u: x * u[:, :1],
        dx_c=lambda t, x, u: u[:, :1, None],
        du_c=lambda t, x, u: x[:, :, None],
        **kwargs,
    )


def nonlinear_2d():
    def c(t, x, u):
        return np.column_stack([u[:, 0] * np.sin(x[:, 1]), u[:, 0] * x[:, 0]])

    def dx_c(t, x, u):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1], out[:, 1, 0] = u[:, 0] * np.cos(x[:, 1]), u[:, 0]
        return out

    def du_c(t, x, u):
        return np.column_stack([np.sin(x[:, 1]), x[:, 0]])[:, :, None]

    return CoefficientSet(
        dim=2,
        c=c,
        dx_c=dx_c,
        du_c=du_c,
        drift=lambda t, x: np.column_stack([-0.3 * x[:, 0], 0.2 * x[:, 1]]),
        dx_drift=_constant([[-0.3, 0.0], [0.0, 0.2]]),
        compensator=_constant(np.zeros(2)),
        dx_compensator=_constant(np.zeros((2, 2))),
    )


@st.composite
def small_paths(draw):
    """Coefficients, a configuration of up to six atoms, x0 and a step."""
    coeffs = draw(st.sampled_from([nonlinear_2d(), linear_1d(rate=0.7, compensate=0.0)]))
    times = sorted(draw(st.sets(st.floats(0.001, 1.0), max_size=6)))
    mark = st.floats(0.1, 0.6) | st.floats(-0.6, -0.1)
    marks = draw(st.lists(mark, min_size=len(times), max_size=len(times)))
    x0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=coeffs.dim, max_size=coeffs.dim))
    step = draw(st.sampled_from([0.005, 0.01, 0.02]))
    cfg = JumpConfiguration(np.array(times), np.array(marks).reshape(-1, 1), horizon=1.0)
    return coeffs, cfg, np.array(x0), step


def _config(times, marks):
    return JumpConfiguration(np.array(times, dtype=float),
                             np.array(marks, dtype=float).reshape(-1, 1), horizon=1.0)


@st.composite
def small_batches(draw):
    """Coefficients, one to four configurations of up to six atoms each
    (possibly none), x0 and a step."""
    coeffs = draw(st.sampled_from([nonlinear_2d(), linear_1d(rate=0.7, compensate=0.0)]))
    mark = st.floats(0.1, 0.6) | st.floats(-0.6, -0.1)
    configs = []
    for _ in range(draw(st.integers(1, 4))):
        times = sorted(draw(st.sets(st.floats(0.001, 1.0), max_size=6)))
        configs.append(_config(times, draw(st.lists(mark, min_size=len(times),
                                                    max_size=len(times)))))
    x0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=coeffs.dim, max_size=coeffs.dim))
    step = draw(st.sampled_from([0.005, 0.01, 0.02]))
    return coeffs, configs, np.array(x0), step


_FIELDS = ("times", "is_jump", "atom_index", "states", "states_left",
           "flow", "flow_left", "inverse_flow", "inverse_flow_left")


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=30, deadline=None)
@example((nonlinear_2d(), [_config([0.3, 0.7], [0.2, -0.4]), _config([], []),
                           _config([0.05, 0.2, 0.5, 0.9], [0.5, -0.2, 0.3, 0.1])],
          np.array([0.4, -0.2]), 0.01))
@given(small_batches())
def test_batch_equals_each_path_alone(batch):
    coeffs, configs, x0, step = batch
    model = _uniform_model()
    for flows in (False, True):
        together = solve_sde(coeffs, model, configs, x0=x0, step=step, flows=flows)
        assert len(together) == len(configs)
        for config, traj in zip(configs, together):
            alone = solve_sde(coeffs, model, config, x0=x0, step=step, flows=flows)
            assert traj.config is config
            for name in _FIELDS:
                a, b = getattr(traj, name), getattr(alone, name)
                assert (a is None) == (b is None) == (name.startswith(("flow", "inverse")) and not flows)
                assert a is None or _same_bits(a, b), name


def test_batch_trajectories_are_views_of_one_batch():
    model = _uniform_model()
    configs = [simulate(model, horizon=1.0, seed=s) for s in (1, 2, 3)]
    trajs = solve_sde(nonlinear_2d(), model, configs, x0=np.array([0.4, -0.2]), step=0.01,
                      flows=True)
    # right limits share one array, left limits another
    right = {id(t.states.base) for t in trajs} | {id(t.inverse_flow.base) for t in trajs}
    left = {id(t.states_left.base) for t in trajs} | {id(t.flow_left.base) for t in trajs}
    assert len(right) == len(left) == 1 and right != left


def test_batch_runs_in_chunks(monkeypatch):
    import lentparticle.sde_engine as engine

    model = _uniform_model()
    configs = [simulate(model, horizon=1.0, seed=s) for s in range(7)]
    x0 = np.array([0.4, -0.2])
    whole = solve_sde(nonlinear_2d(), model, configs, x0=x0, step=0.01, flows=True)
    # 101 regular rows plus a few atoms per path, 20 stored values per row
    # (right and left limits of X, K and Kbar): at most two paths per chunk
    monkeypatch.setattr(engine, "_CHUNK_VALUES", 5000)
    chunked = solve_sde(nonlinear_2d(), model, configs, x0=x0, step=0.01, flows=True)
    assert len({id(t.states.base) for t in chunked}) == 4
    for a, b in zip(whole, chunked):
        for name in _FIELDS:
            assert _same_bits(getattr(a, name), getattr(b, name)), name


def test_batch_error_names_the_path():
    model = _uniform_model()
    coeffs = CoefficientSet(
        dim=1,
        c=lambda t, x, u: -x,
        dx_c=_constant([[-1.0]]),
        du_c=_constant(np.zeros((1, 1))),
        compensator=_constant(np.zeros(1)),
        dx_compensator=_constant(np.zeros((1, 1))),
    )
    configs = [_config([], []), _config([], []), _config([0.5], [0.3])]
    with pytest.raises(ModelError, match="singular at .* on path 2"):
        solve_sde(coeffs, model, configs, x0=np.array([1.0]), step=0.01, flows=True)


def test_batch_warns_once_with_the_worst_residual():
    # a strongly nonlinear drift on a coarse step leaves K Kbar off the identity
    def drift(t, x):
        return np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] ** 2])

    def dx_drift(t, x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1], out[:, 1, 0] = 3.0 * np.cos(3.0 * x[:, 1]), 2.0 * x[:, 0]
        return out

    coeffs = dataclasses.replace(nonlinear_2d(), drift=drift, dx_drift=dx_drift)
    model = _uniform_model()
    configs = [simulate(model, horizon=1.0, seed=s) for s in range(3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trajs = solve_sde(coeffs, model, configs, x0=np.array([0.4, -0.2]), step=0.25,
                          flows=True)
    assert [w.category for w in caught] == [ConditioningWarning]
    worst = max(np.abs(t.flow @ t.inverse_flow - np.eye(2)).max() for t in trajs)
    assert f"{worst:.3g}" in str(caught[0].message)


def test_pure_jump_linear_closed_form():
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=3)
    coeffs = linear_1d(compensate=0.0)
    traj = solve_sde(coeffs, model, cfg, x0=np.array([1.5]), step=0.01)
    expect = 1.5 * np.prod(1.0 + cfg.marks[:, 0])
    assert traj.value_at(1.0)[0] == pytest.approx(expect, rel=1e-12)


def test_drift_plus_jumps_closed_form():
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=9)
    coeffs = linear_1d(rate=0.7, compensate=0.0)
    traj = solve_sde(coeffs, model, cfg, x0=np.array([2.0]), step=0.0025)
    expect = 2.0 * np.exp(0.7) * np.prod(1.0 + cfg.marks[:, 0])
    assert traj.value_at(1.0)[0] == pytest.approx(expect, rel=1e-11)


def test_quadrature_compensator_matches_closed_form():
    # same run with the compensator given in closed form and left to the
    # engine's quadrature fallback
    model = power_law_model(truncation=0.1, alpha=1.0, bound=0.5, asymmetry=0.5)
    from lentparticle.scenarios import power_law_first_moment

    m1 = power_law_first_moment(0.1, alpha=1.0, bound=0.5, asymmetry=0.5)
    cfg = simulate(model, horizon=0.5, seed=4)
    closed = linear_1d(compensate=float(m1))
    fallback = linear_1d()
    x0 = np.array([1.0])
    t_closed = solve_sde(closed, model, cfg, x0=x0, step=0.005)
    t_quad = solve_sde(fallback, model, cfg, x0=x0, step=0.005)
    assert t_quad.value_at(0.5)[0] == pytest.approx(t_closed.value_at(0.5)[0], rel=1e-9)


def test_quadrature_compensator_shares_one_integral_per_point():
    # c = (x1 u, x1 x2 u^2): integral c k du = (0, x1 x2 m2) on symmetric marks
    model = _uniform_model()
    m2 = 2.0 * 3.0 * (0.6 ** 3 - 0.1 ** 3) / 3.0
    batches = []

    def c(t, x, marks):
        batches.append(len(marks))
        u = marks[:, 0]
        return np.column_stack([x[:, 0] * u, x[:, 0] * x[:, 1] * u ** 2])

    def dx_c(t, x, marks):
        u = marks[:, 0]
        zero = np.zeros_like(u)
        return np.stack([np.column_stack([u, zero]),
                         np.column_stack([x[:, 1] * u ** 2, x[:, 0] * u ** 2])], axis=1)

    comp, dx_comp = quadrature_compensator(model, c, dx_c)
    x = np.array([0.7, -1.3])
    value, jac = comp(np.array([0.2]), x[None])[0], dx_comp(np.array([0.2]), x[None])[0]
    assert batches == [42]
    np.testing.assert_allclose(value, [0.0, x[0] * x[1] * m2], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(jac, [[0.0, 0.0], [x[1] * m2, x[0] * m2]], rtol=1e-13, atol=1e-15)


def test_left_limits_at_jumps():
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=12)
    assert cfg.n_atoms > 0
    coeffs = linear_1d(compensate=0.0)
    traj = solve_sde(coeffs, model, cfg, x0=np.array([1.0]), step=0.01)
    for row in traj.jump_rows():
        u = cfg.marks[traj.atom_index[row], 0]
        left = traj.states_left[row, 0]
        assert traj.states[row, 0] == pytest.approx(left * (1.0 + u), rel=1e-13)


@settings(max_examples=30, deadline=None)
@example((nonlinear_2d(), simulate(_uniform_model(), horizon=1.0, seed=21),
          np.array([0.4, -0.2]), 0.005))
@given(small_paths())
def test_flow_times_inverse_is_identity(path):
    coeffs, cfg, x0, step = path
    traj = solve_sde(coeffs, _uniform_model(), cfg, x0=x0, step=step, flows=True)
    assert traj.has_flows()
    eye = np.eye(coeffs.dim)
    assert np.abs(traj.flow @ traj.inverse_flow - eye).max() <= 1e-9
    assert np.abs(traj.flow_left @ traj.inverse_flow_left - eye).max() <= 1e-9


def test_flow_matches_finite_difference():
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=7)
    coeffs = nonlinear_2d()
    x0 = np.array([0.4, -0.2])
    traj = solve_sde(coeffs, model, cfg, x0=x0, step=0.002, flows=True)
    t = 1.0
    delta = 1e-6
    fd = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = delta
        plus = solve_sde(coeffs, model, cfg, x0=x0 + e, step=0.002).value_at(t)
        minus = solve_sde(coeffs, model, cfg, x0=x0 - e, step=0.002).value_at(t)
        fd[:, j] = (plus - minus) / (2 * delta)
    k = traj.flow[traj.row_at(t)]
    assert np.allclose(fd, k, rtol=1e-5, atol=1e-8)


@settings(max_examples=30, deadline=None)
@example((nonlinear_2d(), simulate(_uniform_model(), horizon=1.0, seed=30),
          np.array([0.1, 0.3]), 0.01))
@given(small_paths())
def test_solve_with_flows_reproduces_states(path):
    coeffs, cfg, x0, step = path
    model = _uniform_model()
    a = solve_sde(coeffs, model, cfg, x0=x0, step=step)
    b = solve_sde(coeffs, model, cfg, x0=x0, step=step, flows=True)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.states_left, b.states_left)


def test_singular_jump_update_rejected():
    # dx_c = -I makes I + dx_c singular at the first atom
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=3)
    assert cfg.n_atoms > 0
    coeffs = CoefficientSet(
        dim=1,
        c=lambda t, x, u: -x,
        dx_c=_constant([[-1.0]]),
        du_c=_constant(np.zeros((1, 1))),
        compensator=_constant(np.zeros(1)),
        dx_compensator=_constant(np.zeros((1, 1))),
    )
    with pytest.raises(ModelError):
        solve_sde(coeffs, model, cfg, x0=np.array([1.0]), step=0.01, flows=True)


def test_domination_bound_enforced():
    coeffs = CoefficientSet(
        dim=1,
        c=lambda t, x, u: 10.0 * x * u[:, :1],
        dx_c=lambda t, x, u: 10.0 * u[:, :1, None],
        du_c=lambda t, x, u: 10.0 * x[:, :, None],
        eta=lambda u: np.full(u.shape[0], 0.01),
    )
    model = _uniform_model()
    with pytest.raises(ModelError):
        validate_coefficients(coeffs, model, [(0.0, np.array([1.0]), np.array([0.5]))])


def test_bad_coefficient_shape_rejected():
    coeffs = CoefficientSet(
        dim=2,
        c=_constant([1.0]),  # wrong length
        dx_c=_constant(np.zeros((2, 2))),
        du_c=_constant(np.zeros((2, 1))),
    )
    model = _uniform_model()
    with pytest.raises(ModelError):
        validate_coefficients(coeffs, model, [(0.0, np.zeros(2), np.array([0.3]))])


def test_step_must_be_positive():
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=3)
    with pytest.raises(InputError):
        solve_sde(linear_1d(compensate=0.0), model, cfg, x0=np.array([1.0]), step=0.0)


def test_grid_row_limit_checked_before_allocation(monkeypatch):
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=3)

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(InputError, match="grid rows"):
        solve_sde(linear_1d(compensate=0.0), model, cfg, x0=np.array([1.0]), step=1e-9)


def test_trajectory_csv_round_trip(tmp_path):
    from lentparticle.sde_engine import write_trajectory_csv

    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=40)
    traj = solve_sde(nonlinear_2d(), model, cfg, x0=np.array([0.4, -0.2]), step=0.01, flows=True)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back["times"], traj.times)
    assert np.array_equal(back["is_jump"], traj.is_jump.astype(bool))
    assert np.array_equal(back["states"], traj.states)
    assert np.array_equal(back["flow"], traj.flow)
    assert np.array_equal(back["inverse_flow"], traj.inverse_flow)


def test_value_at_outside_range():
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=3)
    traj = solve_sde(linear_1d(compensate=0.0), model, cfg, x0=np.array([1.0]), step=0.01)
    from lentparticle.errors import DomainError

    with pytest.raises(DomainError):
        traj.value_at(2.0)


def test_ode_self_convergence_fourth_order():
    # between jumps the state follows the compensator ODE; against a
    # reference run at step/16 on the same configuration the error must
    # shrink like step^4.  Jump times sit on multiples of the coarsest step
    # so every refinement halves the integration step exactly.
    eps = 0.05
    model = power_law_model(truncation=eps, asymmetry=0.75)
    m1 = power_law_first_moment(eps, asymmetry=0.75)
    cfg = JumpConfiguration(
        times=np.array([0.25, 0.5, 0.75]),
        marks=np.array([[0.3], [-0.2], [0.4]]),
        horizon=1.0,
    )
    coeffs = linear_1d(compensate=m1)
    x0 = np.array([0.7])
    steps = np.array([0.125, 0.0625, 0.03125])
    ref = solve_sde(coeffs, model, cfg, x0=x0, step=steps[-1] / 16.0).value_at(1.0)[0]
    errs = np.array([
        abs(solve_sde(coeffs, model, cfg, x0=x0, step=h).value_at(1.0)[0] - ref)
        for h in steps
    ])
    assert np.all(errs[:-1] / errs[1:] >= 12.0)
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert order >= 3.5
