import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lentparticle.errors import InputError, ModelError
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


def linear_1d(rate=0.0, compensate=None):
    """dX = rate X dt + X u dN, optionally with closed compensator."""
    kwargs = {}
    if rate != 0.0:
        kwargs["drift"] = lambda t, x: rate * x
        kwargs["dx_drift"] = lambda t, x: np.array([[rate]])
    if compensate is not None:
        kwargs["compensator"] = lambda t, x: compensate * x
        kwargs["dx_compensator"] = lambda t, x: np.array([[compensate]])
    return CoefficientSet(
        dim=1,
        c=lambda t, x, u: x * u[0],
        dx_c=lambda t, x, u: np.array([[u[0]]]),
        du_c=lambda t, x, u: np.array([[x[0]]]),
        **kwargs,
    )


def nonlinear_2d():
    def c(t, x, u):
        return np.array([u[0] * np.sin(x[1]), u[0] * x[0]])

    def dx_c(t, x, u):
        return np.array([[0.0, u[0] * np.cos(x[1])], [u[0], 0.0]])

    def du_c(t, x, u):
        return np.array([[np.sin(x[1])], [x[0]]])

    return CoefficientSet(
        dim=2,
        c=c,
        dx_c=dx_c,
        du_c=du_c,
        drift=lambda t, x: np.array([-0.3 * x[0], 0.2 * x[1]]),
        dx_drift=lambda t, x: np.array([[-0.3, 0.0], [0.0, 0.2]]),
        compensator=lambda t, x: np.zeros(2),
        dx_compensator=lambda t, x: np.zeros((2, 2)),
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
        return np.column_stack([x[0] * u, x[0] * x[1] * u ** 2])

    def dx_c(t, x, marks):
        u = marks[:, 0]
        zero = np.zeros_like(u)
        return np.stack([np.column_stack([u, zero]),
                         np.column_stack([x[1] * u ** 2, x[0] * u ** 2])], axis=1)

    comp, dx_comp = quadrature_compensator(model, c, dx_c)
    x = np.array([0.7, -1.3])
    value, jac = comp(0.2, x), dx_comp(0.2, x)
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
        dx_c=lambda t, x, u: np.array([[-1.0]]),
        du_c=lambda t, x, u: np.zeros((1, 1)),
        compensator=lambda t, x: np.zeros(1),
        dx_compensator=lambda t, x: np.zeros((1, 1)),
    )
    with pytest.raises(ModelError):
        solve_sde(coeffs, model, cfg, x0=np.array([1.0]), step=0.01, flows=True)


def test_domination_bound_enforced():
    coeffs = CoefficientSet(
        dim=1,
        c=lambda t, x, u: 10.0 * x * u[0],
        dx_c=lambda t, x, u: np.array([[10.0 * u[0]]]),
        du_c=lambda t, x, u: np.array([[10.0 * x[0]]]),
        eta=lambda u: 0.01,
    )
    model = _uniform_model()
    with pytest.raises(ModelError):
        validate_coefficients(coeffs, model, [(0.0, np.array([1.0]), np.array([0.5]))])


def test_bad_coefficient_shape_rejected():
    coeffs = CoefficientSet(
        dim=2,
        c=lambda t, x, u: np.array([1.0]),  # wrong length
        dx_c=lambda t, x, u: np.zeros((2, 2)),
        du_c=lambda t, x, u: np.zeros((2, 1)),
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
