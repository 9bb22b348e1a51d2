import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lentparticle.errors import ConditioningWarning, InputError, ModelError, NumericError
from lentparticle.poisson_measure import JumpConfiguration, simulate_configuration as simulate
from lentparticle.scenarios import power_law_first_moment, power_law_model, uniform_box_model
from lentparticle.sde_engine import (
    _ETA_SLACK,
    CoefficientSet,
    _Buffer,
    _effective_drift,
    _flow_products,
    _spectral_norms,
    solve_sde,
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


def _grid_of_one_path(config, horizon, step):
    """One path's grid as it was built before a chunk's grids came from one
    pass: the union of the regular nodes and the atom times up to the horizon."""
    from lentparticle.sde_engine import _regular_grid

    jumps = config.times[config.times <= horizon]
    times = np.union1d(_regular_grid(horizon, step), jumps)
    is_jump = np.isin(times, jumps)
    atom_index = np.full(times.shape, -1)
    atom_index[is_jump] = np.searchsorted(config.times, times[is_jump])
    return times, is_jump, atom_index


@st.composite
def grid_batches(draw):
    """Configurations on horizon 1 or 0.5 with up to 8 atoms, some on the
    nodes of the step 0.05 grid, solved to their own horizons or to 0.5."""
    nodes = list(np.linspace(0.0, 1.0, 21)[1:])
    configs = []
    for _ in range(draw(st.integers(1, 6))):
        end = draw(st.sampled_from([1.0, 0.5]))
        times = draw(st.sets(st.sampled_from(nodes) | st.floats(0.001, 1.0), max_size=8))
        times = sorted(time for time in times if time <= end)
        configs.append(JumpConfiguration(times=np.array(times, dtype=float),
                                         marks=np.full((len(times), 1), 0.3), horizon=end))
    return configs, draw(st.sampled_from([None, 0.5])), draw(st.sampled_from([2 ** 19, 300]))


@settings(max_examples=60, deadline=None)
@given(grid_batches())
def test_stacked_grids_merge_as_union1d_on_each_path(batch):
    import lentparticle.sde_engine as engine

    configs, horizon, chunk_values = batch
    # two groups of paths (the first empty for one path), as a sweep of two levels
    groups = [configs[:len(configs) // 2], configs[len(configs) // 2:]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_CHUNK_VALUES", chunk_values)
        chunks = list(engine._chunks(groups, horizon, 0.05, 1, True, False))
    assert [(g, i) for parts, _ in chunks for g, start, part in parts
            for i in range(start, start + len(part))] \
        == [(g, i) for g, group in enumerate(groups) for i in range(len(group))]
    for parts, grids in chunks:
        part = [config for *_, run in parts for config in run]
        lengths = [len(run) for *_, run in parts]
        order, sizes, times, is_jump, atom_index, marks = engine._stack_grids(part, grids,
                                                                              lengths)
        # the runs one after another in batch order, each longest grid first
        for lo, hi in zip(np.cumsum([0] + lengths), np.cumsum(lengths)):
            assert sorted(order[lo:hi]) == list(range(lo, hi))
            assert np.all(np.diff(sizes[order[lo:hi]]) <= 0)
        for b, p in enumerate(order):
            config, m = part[p], sizes[p]
            want = _grid_of_one_path(config, config.horizon if horizon is None else horizon, 0.05)
            assert _same_bits(times[b, :m], want[0]) and np.all(times[b, m:] == want[0][-1])
            assert np.array_equal(is_jump[b, :m], want[1]) and not is_jump[b, m:].any()
            assert np.array_equal(atom_index[b, :m], want[2])
        assert _same_bits(marks, np.concatenate(
            [np.zeros((0, 1))] + [part[p].marks[atom_index[b][is_jump[b]]]
                                  for b, p in enumerate(order)]))


def test_batch_trajectories_are_views_of_one_batch():
    model = _uniform_model()
    configs = [simulate(model, horizon=1.0, seed=s) for s in (1, 2, 3)]
    trajs = solve_sde(nonlinear_2d(), model, configs, x0=np.array([0.4, -0.2]), step=0.01,
                      flows=True)
    # right limits share one array, the left limits at the jumps another
    right = {id(t.states.base) for t in trajs} | {id(t.inverse_flow.base) for t in trajs}
    left = {id(t.jump_states_left.base) for t in trajs} | {id(t.jump_flow_left.base) for t in trajs}
    assert len(right) == len(left) == 1 and right != left
    # one entry per jump row, and the full-length left limits built from them
    for traj in trajs:
        assert traj.jump_states_left.shape == (traj.config.n_atoms, 2)
        assert np.array_equal(traj.states_left[traj.is_jump], traj.jump_states_left)
        assert np.array_equal(traj.flow_left[~traj.is_jump], traj.flow[~traj.is_jump])


def test_batch_runs_in_chunks(monkeypatch):
    import lentparticle.sde_engine as engine

    model = _uniform_model()
    configs = [simulate(model, horizon=1.0, seed=s) for s in range(7)]
    x0 = np.array([0.4, -0.2])
    whole = solve_sde(nonlinear_2d(), model, configs, x0=x0, step=0.01, flows=True)
    # 101 regular rows plus a few atoms per path at about 17 values each: 10
    # stored (right limits of X, K and Kbar) and 7 for the grid arrays; 160
    # for the workspace (15 rows of 10, a Jacobian and the step factors); 20
    # per atom (its left limits, time, mark, slopes and jump matrix).  A pair
    # takes 4,036 to 4,110 floats and three paths over 6,000: two per chunk
    monkeypatch.setattr(engine, "_CHUNK_VALUES", 4500)
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
    # c = (x1 u, x1 x2 u^2): integral c k du = (0, x1 x2 m2) on symmetric marks,
    # so with no drift the velocity is its negative
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

    coeffs = CoefficientSet(dim=2, c=c, dx_c=dx_c, du_c=_constant(np.zeros((2, 1))))
    drift = _effective_drift(coeffs, model, flows=True)
    x = np.array([0.7, -1.3])
    value, jac = drift(np.array([0.2]), x[None])
    assert batches == [42]
    np.testing.assert_allclose(value[0], [0.0, -x[0] * x[1] * m2], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(jac[0], [[0.0, 0.0], [-x[1] * m2, -x[0] * m2]],
                               rtol=1e-13, atol=1e-15)
    # a callable that does not report reads_time = False may read t: a new
    # time at the same state is integrated again, the same point is not
    assert np.array_equal(drift(np.array([0.3]), x[None])[0], value)
    assert batches == [42, 42]
    assert np.array_equal(drift(np.array([0.3]), x[None])[1], jac)
    assert batches == [42, 42]
    # without flows the velocity comes alone, from the same integrand
    plain = _effective_drift(coeffs, model, flows=False)
    assert plain(np.array([0.2]), x[None])[1] is None and batches == [42, 42, 42]
    assert drift(np.zeros(0), np.zeros((0, 2)))[1].shape == (0, 2, 2)  # a batch of no point
    # coefficients that report reads_time = False are integrated once per state
    c.reads_time = dx_c.reads_time = False
    del batches[:]
    timeless = _effective_drift(coeffs, model, flows=True)
    for t in (0.2, 0.3, 0.4):
        assert np.array_equal(timeless(np.array([t]), x[None])[0], value)
    assert batches == [42]
    # a drift may read t: it is called at each new time of a state that has
    # not moved, with that state's integrals from the one pass
    times = []

    def drift(t, x):
        times.append(float(t[0]))
        return np.column_stack([t, np.zeros_like(t)])

    drifted = _effective_drift(dataclasses.replace(coeffs, drift=drift,
                                                   dx_drift=_constant(np.zeros((2, 2)))),
                               model, flows=True)
    del batches[:]
    for t in (0.2, 0.3, 0.3, 0.4):
        assert np.array_equal(drifted(np.array([t]), x[None])[0], [[t, 0.0]] + value)
    assert batches == [42] and times == [0.2, 0.3, 0.4]


def _readme_custom():
    """The README custom config: c = (u1, x1 u1) on uniform marks in
    0.1 < |u| < 0.6 of intensity 4, compiled as the CLI compiles it."""
    from lentparticle.expressions import compile_coefficient, compile_jacobians

    sources = ["u1", "x1 * u1"]
    dx_c, du_c = compile_jacobians(sources, 2, 1)
    coeffs = CoefficientSet(dim=2, c=compile_coefficient(sources, 2, 1), dx_c=dx_c, du_c=du_c)
    return coeffs, uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0)


@pytest.mark.parametrize("seed", [4, 5, 11])
def test_quadrature_compensator_gives_x_the_same_bits_with_and_without_flows(seed):
    coeffs, model = _readme_custom()
    config = simulate(model, horizon=1.0, seed=seed)
    x0 = np.array([0.5, 0.0])
    plain = solve_sde(coeffs, model, config, x0, 0.01)
    with_flows = solve_sde(coeffs, model, config, x0, 0.01, flows=True)
    assert config.n_atoms > 0 and plain.flow is None and with_flows.flow is not None
    assert _same_bits(plain.states, with_flows.states)
    assert _same_bits(plain.jump_states_left, with_flows.jump_states_left)


def _time_reading_drift(reports_time: bool) -> CoefficientSet:
    """A hand-written set without a compensator whose drift reads t; ``c`` and
    ``dx_c`` report ``reads_time = False`` unless ``reports_time``.  The drift
    is zero before t = 0.5, so a state that has not moved there meets a time
    at which the same state has another velocity."""
    def c(t, x, u):
        return np.column_stack([u[:, 0] * (1.0 + 0.1 * x[:, 1]), x[:, 0] * u[:, 0]])

    def dx_c(t, x, u):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1], out[:, 1, 0] = 0.1 * u[:, 0], u[:, 0]
        return out

    def du_c(t, x, u):
        return np.column_stack([1.0 + 0.1 * x[:, 1], x[:, 0]])[:, :, None]

    def drift(t, x):
        return np.column_stack([np.maximum(t - 0.5, 0.0), -0.2 * x[:, 1] * np.cos(3.0 * t)])

    def dx_drift(t, x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 1, 1] = -0.2 * np.cos(3.0 * t)
        return out

    if not reports_time:
        c.reads_time = dx_c.reads_time = False
    return CoefficientSet(dim=2, c=c, dx_c=dx_c, du_c=du_c, drift=drift, dx_drift=dx_drift)


# sha256 of X, K and Kbar (every path's rows in turn) of _time_reading_drift,
# its t-reading part given as the drift or as the negated compensator, on
# three simulated configurations solved as a batch and on one solved alone
# whose X stays put until its first jump at t = 0.7; pinned before the solver
# memoised a stage's velocity.  Whether c and dx_c read t changes no bit.
GOLDEN_TIME_READING_DRIFT = {
    "drift": ("38d1d4253cff0d667240c388956c8632965990a45681b5f65c6a74c5fc531154",
              "b70ba4e91612c13ce3ac53b4175d57cfebf14cf341a3bfbb99fd47b537208963",
              "86fbb8b40ed3ab66a09f119935adb36c03a77f9f2996452953d38a20a43c0784"),
    "compensator": ("b567ddda51b451f9fac987a05bf56e432694f40c00d915717ae940a57ddc371b",
                    "31eb3717b09d13bebb4f2f4bc1cf077bd2f28c4920b27aefacc683d9d27a2478",
                    "2f9524e4f84437fff851c580a84324e39b5e448a71760935883c4cd44f0d24cc"),
}


@pytest.mark.parametrize("part", sorted(GOLDEN_TIME_READING_DRIFT))
@pytest.mark.parametrize("reports_time", [True, False])
def test_time_reading_drift_without_compensator_golden_bits(reports_time, part):
    import hashlib

    coeffs, model = _time_reading_drift(reports_time), _uniform_model()
    if part == "compensator":  # without dx_compensator, which the quadrature gives
        drift = coeffs.drift
        coeffs = dataclasses.replace(coeffs, drift=None, dx_drift=None,
                                     compensator=lambda t, x: -drift(t, x))
    configs = [simulate(model, horizon=1.0, seed=seed) for seed in (4, 5, 11)]
    quiet = _config([0.7, 0.9], [0.3, -0.2])
    x0 = np.array([0.5, 0.0])
    solved = solve_sde(coeffs, model, configs, x0, 0.01, flows=True)
    solved.append(solve_sde(coeffs, model, quiet, x0, 0.01, flows=True))
    plain = solve_sde(coeffs, model, configs + [quiet], x0, 0.01)
    assert all(_same_bits(a.states, b.states) for a, b in zip(solved, plain))
    got = tuple(hashlib.sha256(b"".join(np.ascontiguousarray(getattr(traj, name)).tobytes()
                                        for traj in solved)).hexdigest()
                for name in ("states", "flow", "inverse_flow"))
    assert got == GOLDEN_TIME_READING_DRIFT[part]


def test_solve_without_flows_calls_no_x_jacobian_of_the_drift():
    def never(t, x):
        raise AssertionError("an x-Jacobian of the drift was evaluated")

    configs = [_config([], []), _config([0.3, 0.7], [0.2, 0.4])]
    x0 = np.array([0.5, 0.5])
    coeffs = _shape_case(dx_drift=never, dx_compensator=never)
    # closed-form compensator, then the quadrature in place of the compensator alone
    for case in (coeffs, dataclasses.replace(coeffs, compensator=None)):
        solve_sde(case, _uniform_model(), configs, x0, 0.01)
        with pytest.raises(AssertionError, match="x-Jacobian of the drift"):
            solve_sde(case, _uniform_model(), configs, x0, 0.01, flows=True)


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
    assert traj.flow is not None and traj.inverse_flow is not None
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


@pytest.mark.parametrize("validate", [False, True])
def test_singular_jump_is_named_alike_from_the_jump_tables(validate):
    # a dx_c that reads neither time nor state has the jump matrices of a
    # chunk, and the first singular one, taken before the loop; the loop still
    # stops at that jump's row, with the message of a dx_c called at the row
    def dx_c(t, x, u):
        return np.where(u[:, :1, None] > 0.5, -1.0, u[:, :1, None])

    def free(t, x, u):
        return dx_c(t, x, u)

    free.reads_time = free.reads_state = False
    coeffs = CoefficientSet(dim=1, c=lambda t, x, u: x * u[:, :1], dx_c=dx_c,
                            du_c=_constant(np.zeros((1, 1))), compensator=_constant(np.zeros(1)),
                            dx_compensator=_constant(np.zeros((1, 1))))
    # path 1 jumps with a singular update at 0.4, path 0 at 0.6, after it
    configs = [_config([0.2, 0.6], [0.3, 0.55]), _config([0.4, 0.6, 0.8], [0.7, 0.2, 0.9]),
               _config([0.1], [0.2])]
    messages = []
    for case in (coeffs, dataclasses.replace(coeffs, dx_c=free)):
        with pytest.raises(ModelError) as info:
            solve_sde(case, _uniform_model(), configs, np.array([1.0]), 0.01, validate=validate,
                      flows=True)
        messages.append(str(info.value))
    assert messages == ["jump update I + dx_c singular at (t=0.4, u=[0.7]) on path 1"] * 2


def test_domination_bound_enforced():
    coeffs = CoefficientSet(
        dim=1,
        c=lambda t, x, u: 10.0 * x * u[:, :1],
        dx_c=lambda t, x, u: 10.0 * u[:, :1, None],
        du_c=lambda t, x, u: 10.0 * x[:, :, None],
        eta=lambda u: np.full(u.shape[0], 0.01),
    )
    for flows in (False, True):
        message = _model_error(coeffs, _config([0.3], [0.5]), flows)
        assert message.startswith("jump x-Jacobian norm 5 exceeds eta([0.5]) = 0.01"), message


def _shape_case(**replaced):
    """dX = (X u) dN in two dimensions with a closed-form compensator and a
    zero drift, some callables replaced."""
    return CoefficientSet(**{
        "dim": 2,
        "c": lambda t, x, u: x * u[:, :1],
        "dx_c": lambda t, x, u: u[:, :1, None] * np.eye(2),
        "du_c": lambda t, x, u: x[:, :, None],
        "drift": _constant(np.zeros(2)),
        "dx_drift": _constant(np.zeros((2, 2))),
        "compensator": _constant(np.zeros(2)),
        "dx_compensator": _constant(np.zeros((2, 2))),
        **replaced,
    })


def test_bad_coefficient_shape_rejected():
    # numpy would broadcast the (1, 1) jump into the (1, 2) state
    coeffs = _shape_case(c=lambda t, x, u: u[:, :1])
    configs = [_config([], []), _config([0.3, 0.7], [0.2, 0.4])]
    for flows in (False, True):
        with pytest.raises(ModelError, match=r"^c must return shape \(1, 2\) for 1 points, "
                                             r"got \(1, 1\) at t = 0.3 on path 1$"):
            solve_sde(coeffs, _uniform_model(), configs, np.array([0.5, 0.5]), 0.01, flows=flows)
    # dx_c is evaluated at the jumps with flows, and by the checks with validate
    coeffs = _shape_case(dx_c=lambda t, x, u: u[:, :1, None])
    for validate, where in ((False, " at t = 0.3 on path 1"), (True, " on path 1")):
        with pytest.raises(ModelError, match=r"^dx_c must return shape \(1, 2, 2\) for 1 points, "
                                             r"got \(1, 1, 1\)" + where + "$"):
            solve_sde(coeffs, _uniform_model(), configs, np.array([0.5, 0.5]), 0.01,
                      validate=validate, flows=True)
    # without a compensator the quadrature meets the bad shape first, in its
    # one call over the 42 first-pass nodes of both paths
    coeffs = _shape_case(c=lambda t, x, u: u[:, :1])
    coeffs = dataclasses.replace(coeffs, compensator=None, dx_compensator=None)
    with pytest.raises(ModelError, match=r"^c must return shape \(84, 2\) for 84 points, "
                                         r"got \(84, 1\)$"):
        solve_sde(coeffs, _uniform_model(), configs, np.array([0.5, 0.5]), 0.01)


def test_state_free_jump_jacobian_is_refused_before_the_loop():
    # a dx_c that reads neither time nor state is called once over all the
    # jumps of the chunk, so a bad shape is met before any jump row
    def dx_c(t, x, u):
        return u[:, :1, None]

    def c(t, x, u):
        raise AssertionError("a jump row was reached")

    dx_c.reads_time = dx_c.reads_state = False
    coeffs = _shape_case(c=c, dx_c=dx_c)
    configs = [_config([], []), _config([0.3, 0.7], [0.2, 0.4])]
    for validate in (False, True):
        with pytest.raises(ModelError, match=r"^dx_c must return shape \(2, 2, 2\) for 2 points, "
                                             r"got \(2, 1, 1\) at t = 0.3 on path 1$"):
            solve_sde(coeffs, _uniform_model(), configs, np.array([0.5, 0.5]), 0.01,
                      validate=validate, flows=True)


def _old_layout_products(a, y):
    """``a K`` and ``Kbar a`` of each path of the component-major batch ``y``
    on contiguous ``(d, d)`` matrices, path by path."""
    d = a.shape[-1]
    by_path = np.ascontiguousarray(y.transpose(1, 0, 2))
    return np.matmul(a, by_path[:, 1:d + 1]), np.matmul(by_path[:, d + 1:], a)


def test_flow_products_by_run_have_the_bits_of_each_path():
    rng = np.random.default_rng(26)
    for d in range(1, 6):
        for runs in (1, 2, 3):
            for n in (1, 2, 3, 32, 257):
                for shape in ("levy-area", "full"):
                    y = rng.standard_normal((1 + 2 * d, runs * n, d))
                    if shape == "full":
                        blocks = rng.standard_normal((runs, d, d))
                    else:  # the last row reads the others, as the area's does
                        blocks = np.zeros((runs, d, d))
                        blocks[:, -1, :-1] = rng.standard_normal((runs, d - 1))
                    per_path = np.repeat(blocks, n, axis=0)
                    k, kbar = _old_layout_products(per_path, y)
                    for a in (blocks, per_path):  # by run (one-path runs: by path), by path
                        src, dst = _Buffer(y.shape, a.shape[0]), _Buffer(y.shape, a.shape[0])
                        src.array[...], dst.array[...] = y, np.nan
                        _flow_products(a, src, dst)
                        out, case = dst.array, (d, runs, n, shape, a.shape[0])
                        assert np.isnan(out[0]).all(), case
                        assert np.array_equal(out[1:d + 1].transpose(1, 0, 2), k), case
                        assert np.array_equal(out[d + 1:].transpose(1, 0, 2), -kbar), case


_VELOCITY_SHAPES = {
    "compensator": (_constant(np.zeros(1)), r"\(2, 2\) for 2 points, got \(2, 1\)"),
    "drift": (_constant(np.zeros(1)), r"\(2, 2\) for 2 points, got \(2, 1\)"),
    "dx_compensator": (_constant(np.zeros((1, 1))), r"\(2, 2, 2\) for 2 points, got \(2, 1, 1\)"),
    "dx_drift": (_constant(np.zeros(2)), r"\(2, 2, 2\) for 2 points, got \(2, 2\)"),
}


@pytest.mark.parametrize("flows", [False, True])
@pytest.mark.parametrize("name", list(_VELOCITY_SHAPES))
def test_bad_velocity_shape_rejected(name, flows):
    # numpy would broadcast each of these results into the state or the flows,
    # and the drift's into the compensator's
    fn, shapes = _VELOCITY_SHAPES[name]
    configs = [_config([], []), _config([0.3, 0.7], [0.2, 0.4])]
    x0 = np.array([0.5, 0.5])
    coeffs = _shape_case(**{name: fn})
    if name.startswith("dx_") and not flows:  # Jacobians are evaluated only with flows
        plain = solve_sde(_shape_case(), _uniform_model(), configs, x0, 0.01)
        solved = solve_sde(coeffs, _uniform_model(), configs, x0, 0.01)
        assert all(_same_bits(a.states, b.states) for a, b in zip(plain, solved))
        return
    with pytest.raises(ModelError, match=f"^{name} must return shape {shapes}$"):
        solve_sde(coeffs, _uniform_model(), configs, x0, 0.01, flows=flows)


def test_step_must_be_positive():
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=3)
    with pytest.raises(InputError):
        solve_sde(linear_1d(compensate=0.0), model, cfg, x0=np.array([1.0]), step=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_x0_rejected(bad):
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=3)
    with pytest.raises(InputError, match=r"^x0 must be finite, got \[0.5, (nan|inf|-inf)\]$"):
        solve_sde(nonlinear_2d(), model, cfg, x0=np.array([0.5, bad]), step=0.01)


def test_grid_row_limit_checked_before_allocation(monkeypatch):
    model = _uniform_model()
    cfg = simulate(model, horizon=1.0, seed=3)

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(InputError, match="grid rows"):
        solve_sde(linear_1d(compensate=0.0), model, cfg, x0=np.array([1.0]), step=1e-9)


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


# ------------------------------------------------------- assumption checks


def _banded(eta=3.0):
    """dX = X u dN in one dimension, whose assumptions fail in bands of the
    mark: (0.50, 0.52] non-finite dx_c, (0.52, 0.54] |dx_c| > eta, (0.54,
    0.56] |c(t, 0, u)| > eta, (0.56, 0.58] singular I + dx_c and (0.58, 0.60]
    |(I + dx_c)^{-1}| > eta.  Every other mark in [-0.6, 0.6] satisfies them."""
    def band(u, lo):
        return (u[:, 0] > lo) & (u[:, 0] <= lo + 0.02)

    def dx_c(t, x, u):
        out = u[:, :1].copy()
        out[band(u, 0.50)] = np.nan
        out[band(u, 0.52)] = 5.0
        out[band(u, 0.56)] = -1.0
        out[band(u, 0.58)] = -0.9
        return out[:, :, None]

    return CoefficientSet(
        dim=1,
        c=lambda t, x, u: x * u[:, :1] + np.where(band(u, 0.54), 10.0, 0.0)[:, None],
        dx_c=dx_c,
        du_c=lambda t, x, u: x[:, :, None],
        compensator=_constant(np.zeros(1)),
        dx_compensator=_constant(np.zeros((1, 1))),
        eta=lambda u: np.full(u.shape[0], eta),
    )


_VIOLATIONS = {
    "non-finite dx_c": (0.51, r"^dx_c at \(t=0\.35\) must be a finite \(1, 1\) matrix"),
    "eta on dx_c": (0.53, r"^jump x-Jacobian norm 5 exceeds eta\(\[0\.53\]\) = 3"),
    "eta on the jump size": (0.55, r"^jump size at x = 0 norm 10 exceeds eta\(\[0\.55\]\) = 3"),
    "singular": (0.57, r"^jump update I \+ dx_c singular at \(t=0\.35, u=\[0\.57\]\)"),
    "eta on the inverse": (0.59, r"^inverse jump update norm 10 exceeds eta\(\[0\.59\]\) = 3"),
}


def _model_error(coeffs, configs, flows=True, error=ModelError):
    with pytest.raises(error) as info:
        solve_sde(coeffs, _uniform_model(), configs, x0=np.array([1.0]), step=0.01, flows=flows)
    return str(info.value)


@pytest.mark.parametrize("flows", [False, True])
@pytest.mark.parametrize("case", list(_VIOLATIONS))
def test_batch_assumption_error_is_the_path_alone(case, flows):
    mark, pattern = _VIOLATIONS[case]
    later = 0.59 if mark != 0.59 else 0.51
    configs = [
        _config([0.2, 0.6, 0.7, 0.75], [0.3, -0.2, 0.4, -0.6]),  # longest grid: first in the batch
        _config([0.5, 0.8], [0.4, later]),  # another violation, at a later row
        _config([0.1, 0.35, 0.9], [-0.3, mark, 0.2]),  # the first violation in row order
        _config([], []),
    ]
    message = _model_error(_banded(), configs, flows)
    assert re.match(pattern + " on path 2$", message), message
    assert _model_error(_banded(), configs[2], flows) == message.replace("path 2", "path 0")


def _norm_cases(rng, n: int, d: int, nilpotent: float) -> np.ndarray:
    """``n`` square matrices of size ``d``: a quarter rank-one, whose 2-norm
    and Frobenius norm are equal; a quarter ``I + N`` with ``N`` strictly
    upper triangular of scale ``nilpotent``, the inverse jump update of the
    area scenarios when the marks sit in the last column; a quarter
    diagonal, whose 2-norm and row-sum bound are equal; the rest dense."""
    matrices = rng.normal(size=(n, d, d))
    q = n // 4
    matrices[:q] = rng.normal(size=(q, d))[:, :, None] * rng.normal(size=(q, d))[:, None, :]
    matrices[q:2 * q] = np.eye(d) + np.triu(nilpotent * rng.normal(size=(q, d, d)), 1)
    matrices[2 * q:3 * q] = rng.normal(size=(q, d))[:, :, None] * np.eye(d)
    return matrices


def test_frobenius_prefilter_keeps_every_norm_verdict():
    for d, nilpotent in [(2, 1.0), (3, 1.0), (3, 0.05)]:
        _assert_norm_verdicts(np.random.default_rng(3 + d), d, nilpotent)


def _assert_norm_verdicts(rng, d: int, nilpotent: float) -> None:
    # eta at, just below and just above the 2-norm, the Frobenius norm and
    # the row-sum bound of each matrix, and far from them
    matrices = _norm_cases(rng, 800, d, nilpotent)
    size = np.abs(matrices)
    bounds = np.stack([np.linalg.norm(matrices, 2, axis=(1, 2)),
                       np.linalg.norm(matrices, axis=(1, 2)),
                       np.sqrt((size.transpose(0, 2, 1) @ size).sum(axis=2).max(axis=1))])
    exact = bounds[0]
    assert (bounds[1:] >= exact * (1.0 - 1e-14)).all()
    at = bounds[rng.integers(0, 3, 800), np.arange(800)]
    eta = at / _ETA_SLACK * rng.choice(
        [0.5, 1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.5, 3.0], 800)
    rows = rng.random(800) < 0.9
    got = _spectral_norms(matrices, rows, eta)
    flagged = got > eta * _ETA_SLACK
    assert np.array_equal(flagged, np.where(rows, exact, np.nan) > eta * _ETA_SLACK)
    assert 0 < flagged.sum() < rows.sum()
    assert np.array_equal(got[flagged], exact[flagged])  # messages print the 2-norm
    assert (got[rows] >= exact[rows] * (1.0 - 1e-14)).all()
    assert np.isnan(got[~rows]).all()
    if d == 3:  # the row-sum bound settles rows the Frobenius norm leaves to the SVD
        settled = rows & (got <= eta * _ETA_SLACK * (1.0 - 1e-12))
        assert (settled & (bounds[1] > eta * _ETA_SLACK * (1.0 - 1e-12))).any()


def test_constant_compensator_jacobian_is_called_once_per_batch_size():
    # dX = X u dN with the closed-form compensator m X: its x-Jacobian read
    # once per number of live paths when it reports reading neither t nor x,
    # and at every RK4 stage when it reports reading x; the bits are the same
    model, m = _uniform_model(), 0.4
    configs = [simulate(model, horizon=1.0, seed=s) for s in (1, 2, 3, 4)]
    base = linear_1d(compensate=m)
    want = solve_sde(base, model, configs, x0=np.array([1.0]), step=0.05, flows=True)
    sizes = np.array([traj.times.shape[0] for traj in want])
    ends = np.unique(sizes)  # each live segment ends where the shortest live path does
    assert ends.size > 1
    for reads_state in (False, True):
        calls = []

        def dx_compensator(t, x):
            calls.append(x.shape[0])
            return np.full((x.shape[0], 1, 1), m)

        dx_compensator.reads_time, dx_compensator.reads_state = False, reads_state
        coeffs = dataclasses.replace(base, dx_compensator=dx_compensator)
        got = solve_sde(coeffs, model, configs, x0=np.array([1.0]), step=0.05, flows=True)
        for a, b in zip(want, got):
            assert _same_bits(a.flow, b.flow) and _same_bits(a.inverse_flow, b.inverse_flow)
        live = [int((sizes >= end).sum()) for end in ends]
        if reads_state:
            rows = np.diff(np.concatenate([[1], ends]))
            assert calls == [n for n, k in zip(live, rows) for _ in range(4 * k)]
        else:
            assert calls == live
    # a Jacobian that reads t is called at every stage too
    calls.clear()
    dx_compensator.reads_time, dx_compensator.reads_state = True, False
    solve_sde(dataclasses.replace(base, dx_compensator=dx_compensator), model, configs,
              x0=np.array([1.0]), step=0.05, flows=True)
    assert len(calls) == 4 * (sizes.max() - 1)


def test_same_row_violations_name_the_first_path_with_its_first_condition():
    # both paths jump at the same row; path 0 fails only the inverse bound,
    # path 1 already the finiteness of dx_c
    configs = [_config([0.35], [0.59]), _config([0.35], [0.51])]
    message = _model_error(_banded(), configs)
    assert re.match(_VIOLATIONS["eta on the inverse"][1] + " on path 0$", message), message
    assert _model_error(_banded(), configs[1]) \
        == "dx_c at (t=0.35) must be a finite (1, 1) matrix on path 0"


@pytest.mark.parametrize("later", ["jump state", "integration", "coefficient"])
def test_earlier_violation_wins_over_a_later_error(later):
    # marks in (-0.56, -0.54] break the loop at the second path's jump at
    # 0.6; c(t, 0, u), which the checks evaluate, stays finite
    def broken(x, u):
        return (u[:, 0] > -0.56) & (u[:, 0] <= -0.54) & (x[:, 0] != 0.0)

    banded = _banded()
    if later == "jump state":
        c = lambda t, x, u: np.where(broken(x, u)[:, None], np.inf, banded.c(t, x, u))
        coeffs, error, text = dataclasses.replace(banded, c=c), NumericError, "jump update"
    elif later == "integration":
        comp = lambda t, x: np.where(t[:, None] > 0.6, np.inf, np.zeros_like(x))
        coeffs = dataclasses.replace(banded, compensator=comp)
        error, text = NumericError, "integration produced"
    else:
        def c(t, x, u):
            if broken(x, u).any():
                raise ZeroDivisionError("coefficient failed")
            return banded.c(t, x, u)

        coeffs, error, text = dataclasses.replace(banded, c=c), ZeroDivisionError, "coefficient"
    for flows in (False, True):
        clean = [_config([0.3], [0.2]), _config([0.6], [-0.55])]
        assert text in _model_error(coeffs, clean, flows, error)
        violated = [_config([0.3], [0.59]), _config([0.6], [-0.55])]
        message = _model_error(coeffs, violated, flows)
        assert message.startswith("inverse jump update norm") and message.endswith("on path 0")


def test_jump_rows_without_flows_make_no_dx_c_call():
    calls = []
    linear = linear_1d(compensate=0.0)

    def dx_c(t, x, u):
        calls.append(len(t))
        return linear.dx_c(t, x, u)

    coeffs = dataclasses.replace(linear, dx_c=dx_c)
    model = _uniform_model()
    configs = [simulate(model, horizon=1.0, seed=s) for s in range(3)]
    solve_sde(coeffs, model, configs, x0=np.array([1.0]), step=0.01, validate=False)
    assert calls == []
    # validation checks every jump of the chunk in one call
    solve_sde(coeffs, model, configs, x0=np.array([1.0]), step=0.01)
    assert calls == [sum(config.n_atoms for config in configs)]


def test_levy_area_paths_with_flows_fit_one_chunk():
    from lentparticle.rng import path_seeds
    from lentparticle.scenarios import get_scenario

    scenario = get_scenario("levy-area-1")
    assert scenario.step == 0.0025
    configs = [scenario.simulate(seed=s) for s in path_seeds(12345, 32)]
    coeffs = scenario.make_coeffs(scenario.model())
    trajs = solve_sde(coeffs, scenario.model(), configs, scenario.x0, scenario.step, flows=True)
    assert len({id(t.states.base) for t in trajs}) == 1


# ------------------------------------------------------- the RK4 workspace


def _allocating_rk4_step(rhs, t0, half, t1, h, half_h, sixth_h, y):
    """The classical RK4 step as the engine took it before its workspace,
    with fresh arrays for the velocities and the sum: the reference."""
    k1 = rhs(t0, y)
    k2 = rhs(half, stage := y + half_h * k1)
    k3 = rhs(half, np.add(y, np.multiply(half_h, k2, out=stage), out=stage))
    k4 = rhs(t1, np.add(y, np.multiply(h, k3, out=stage), out=stage))
    total = np.add(k1, np.multiply(2.0, k2, out=stage))
    total += np.multiply(2.0, k3, out=stage)
    total += k4
    total *= sixth_h
    return np.add(y, total, out=total)


def _reference_path(coeffs, model, config, x0, grid, flows):
    """One path on its own grid ``(times, is_jump, atom_index)`` by the
    allocating step, each velocity and jump update in a fresh array: every
    row's right limits, ``(m, 1 [+ 2d], d)``, and the left limits at its jumps."""
    from lentparticle.sde_engine import _effective_drift, _solve_right

    times, is_jump, atom_index = grid
    d, drift = coeffs.dim, _effective_drift(coeffs, model, flows)

    def rhs(t, y):
        v, a = drift(t, y[0])
        if a is None:
            return v[None]
        out = np.empty(y.shape)
        out[0] = v
        np.matmul(a[0], y[1:d + 1, 0], out=out[1:d + 1, 0])
        out[d + 1:, 0] = -np.matmul(y[d + 1:, 0], a[0])
        return out

    y = np.zeros((1 + 2 * d if flows else 1, 1, d))
    y[0] = x0
    if flows:
        y[1:d + 1] = y[d + 1:] = np.eye(d)[:, None]
    rows, left = [y[:, 0].copy()], []
    for i in range(1, times.shape[0]):
        t0, t1 = times[i - 1:i], times[i:i + 1]
        h = t1[0] - t0[0]
        y = _allocating_rk4_step(rhs, t0, t0 + h * 0.5, t1, h, h * 0.5, h / 6.0, y)
        if is_jump[i]:
            prior = y.transpose(1, 0, 2).copy()
            point = (t1, prior[:, 0].copy(), config.marks[atom_index[i]][None])
            y[0, 0] = prior[0, 0] + coeffs.c(*point)
            if flows:
                matrix = np.eye(d) + coeffs.dx_c(*point)
                y[1:d + 1, 0] = (matrix @ prior[:, 1:d + 1])[0]
                y[d + 1:, 0] = _solve_right(prior[:, d + 1:], matrix, str)[0]
            left.append(prior[0])
        rows.append(y[:, 0].copy())
    return np.array(rows), np.array(left).reshape(-1, *y.shape[::2])


def _area_levels(sizes, seed=7, **replaced):
    """levy-area-1 runs of ``sizes`` paths at three truncation levels, as
    groups ``(coeffs, model, configs)``, the sets' fields ``replaced``."""
    from lentparticle.poisson_measure import simulate_configurations
    from lentparticle.rng import path_seeds
    from lentparticle.scenarios import get_scenario

    scenario = get_scenario("levy-area-1")
    groups = []
    for k, (n, eps) in enumerate(zip(sizes, (0.05, 0.02, 0.008))):
        model = scenario.model(eps)
        groups.append((dataclasses.replace(scenario.make_coeffs(model), **replaced), model,
                       simulate_configurations(model, 1.0, path_seeds(seed + k, n))))
    return groups, scenario.x0


def _area_wobble(t, x):
    return 0.3 * np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] ** 2, np.zeros(len(x))])


def _area_dx_wobble(t, x):
    out = np.zeros((len(x), 3, 3))
    out[:, 0, 1], out[:, 1, 0] = 0.9 * np.cos(3.0 * x[:, 1]), 0.6 * x[:, 0]
    return out


_STEPPER_CASES = {
    "one path": lambda: _area_levels([1]),
    "equal runs of 2": lambda: _area_levels([2, 2, 2]),
    "equal runs of 3": lambda: _area_levels([3, 3, 3]),
    "equal runs of 32": lambda: _area_levels([32, 32, 32]),
    "unequal runs": lambda: _area_levels([2, 5, 3]),
    "per-path a, unequal runs": lambda: _area_levels(
        [2, 5, 3], drift=_area_wobble, dx_drift=_area_dx_wobble),
    "per-path a, one run": lambda: _area_levels(
        [4], drift=_area_wobble, dx_drift=_area_dx_wobble),
}


@pytest.mark.filterwarnings("ignore::lentparticle.errors.ConditioningWarning")
@pytest.mark.parametrize("case", list(_STEPPER_CASES))
def test_workspace_stepper_has_the_bits_of_the_allocating_step(case):
    import lentparticle.sde_engine as engine

    groups, x0 = _STEPPER_CASES[case]()
    for flows in (False, True):
        want = {(g, i): _reference_path(coeffs, model, config, x0,
                                        _grid_of_one_path(config, 1.0, 0.05), flows)
                for g, (coeffs, model, configs) in enumerate(groups)
                for i, config in enumerate(configs)}
        for rows in (False, True):
            chunks = list(engine._solve_chunks(groups, x0, 0.05, None, True, flows, rows))
            assert len(chunks) == 1
            [(parts, (order, sizes, _, is_jump, _, _), right, left)] = chunks
            paths = [(g, start + i) for g, start, part in parts for i in range(len(part))]
            jumps = np.concatenate([[0], np.cumsum(np.count_nonzero(is_jump, axis=1))])
            for b, p in enumerate(order):
                states, at_jumps = want[paths[p]]
                assert _same_bits(left[jumps[b]:jumps[b + 1]], at_jumps), (case, flows, rows)
                if rows:
                    got = np.concatenate([right[jumps[b]:jumps[b + 1]], right[jumps[-1] + b][None]])
                    states = np.concatenate([states[is_jump[b, :sizes[p]]], states[-1:]])
                else:
                    got = right[b, :sizes[p]]
                assert _same_bits(got, states), (case, flows, rows)


def test_workspace_allocates_per_segment_and_jump_row_not_per_stage(monkeypatch):
    import types

    import lentparticle.sde_engine as engine

    calls, grids, stack = [], [], engine._stack_grids

    class Numpy(types.ModuleType):  # numpy counting the engine's empty arrays
        def __getattr__(self, name):
            return getattr(np, name)

    counting = Numpy("numpy")
    counting.empty = lambda *args, **kwargs: calls.append("empty") or np.empty(*args, **kwargs)
    counting.empty_like = lambda *args, **kwargs: calls.append("like") or np.empty_like(
        *args, **kwargs)

    def recorded(*args):
        grids.append(stack(*args))
        return grids[-1]

    monkeypatch.setattr(engine, "np", counting)
    monkeypatch.setattr(engine, "_stack_grids", recorded)
    groups, x0 = _area_levels([32, 32, 32])
    list(engine._solve_chunks(groups, x0, 0.0025, None, True, True, True))
    [(_, sizes, times, is_jump, _, _)] = grids  # one chunk of three levels of 32 paths
    segments, jump_rows = np.unique(sizes).size, np.count_nonzero(is_jump.any(axis=0))
    stages = 4 * (times.shape[1] - 1)
    # per chunk the empty start of its jump times (_stack_grids), the dx_c
    # slopes, and the right and left limits; per segment the workspace's
    # seven buffers, its step factors and its rows awaiting the fold (one
    # drift for all levels, so no per-path Jacobian); per jump row the right
    # limits of its jumping paths
    assert calls.count("empty") == 4 + 9 * segments
    assert calls.count("like") == jump_rows
    assert 9 * segments + jump_rows < stages
