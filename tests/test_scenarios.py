import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lentparticle.bottom_structure import intro_1d, isotropic, psi_over_k
from lentparticle.errors import (
    ConditioningWarning,
    ConfigurationError,
    ConvergenceWarning,
    DomainError,
    InputError,
    ModelError,
    NumericError,
    StructureError,
)
from lentparticle.lent_particle import gamma_flow
from lentparticle.poisson_measure import JumpConfiguration, simulate_configuration
from lentparticle.scenarios import (
    SCENARIO_NAMES,
    _area_closed_path,
    _law_lookup,
    _stable_like_inverse,
    area_closed_gamma,
    doleans_coefficients,
    doleans_exponential,
    get_scenario,
    graph_levy_model,
    graph_slope,
    graph_structure,
    mckean_vlasov,
    polar_first_moment,
    polar_levy_model,
    power_law_first_moment,
    power_law_model,
    power_law_second_moment,
    stable_like_coefficient,
    stable_like_generator_check,
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


def test_doleans_mark_jacobians_take_one_exponential(monkeypatch):
    import lentparticle.scenarios as sc

    eps, t = 0.05, 0.7
    m1 = power_law_first_moment(eps)
    cfg = simulate_configuration(power_law_model(truncation=eps), horizon=1.0, seed=6)
    assert 0 < np.count_nonzero(cfg.times <= t) < cfg.n_atoms
    calls = []
    exponential = sc.doleans_exponential
    monkeypatch.setattr(sc, "doleans_exponential",
                        lambda *args: calls.append(args) or exponential(*args))
    functional = sc.DoleansPairFunctional(m1, t)
    jacs = functional.mark_jacobians(cfg)
    assert len(calls) == 1
    # the bits of one exponential per atom: (1, E_t / (1 + u)) up to t, zero after
    _, e_t = exponential(cfg, m1, t)
    for i, jac in enumerate(jacs):
        ti, u = cfg.atom(i)
        want = np.array([[1.0], [e_t / (1.0 + float(u[0]))]]) if ti <= t else np.zeros((2, 1))
        assert jac.shape == (2, 1) and jac.tobytes() == want.tobytes()
        assert functional.mark_jacobian(cfg, i).tobytes() == want.tobytes()


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
        times, marks, counts = _up_to([cfg], 1.0)
        (closed,), (v,), _ = area_closed_gamma(times, marks, counts,
                                               scenario.bottom.weight(marks), m1, 1.0)
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


def _up_to(configs, t):
    """The table the closed forms take: the times, marks and counts of the
    atoms of ``configs`` at or before ``t``, path after path."""
    kept = [config.times <= t for config in configs]
    r = configs[0].marks.shape[1]
    return (np.concatenate([np.zeros(0)] + [c.times[k] for c, k in zip(configs, kept)]),
            np.concatenate([np.zeros((0, r))] + [c.marks[k] for c, k in zip(configs, kept)]),
            np.array([np.count_nonzero(k) for k in kept]))


def _area_path_loop(config, m1, t):
    """The atom-by-atom recursion the closed-form area path must reproduce."""
    keep = config.times <= t
    times, marks = config.times[keep], config.marks[keep]
    x, area, t_prev = np.zeros(2), 0.0, 0.0
    lefts = np.empty((times.shape[0], 2))
    for i in range(times.shape[0]):
        dt = float(times[i]) - t_prev
        x_pre = x - m1 * dt
        avg = 0.5 * (x + x_pre)
        area += -m1[1] * (avg[0] * dt) + m1[0] * (avg[1] * dt)
        lefts[i] = x_pre
        area += x_pre[0] * marks[i, 1] - x_pre[1] * marks[i, 0]
        x = x_pre + marks[i]
        t_prev = float(times[i])
    dt = t - t_prev
    x_end = x - m1 * dt
    avg = 0.5 * (x + x_end)
    area += -m1[1] * (avg[0] * dt) + m1[0] * (avg[1] * dt)
    return np.array([x_end[0], x_end[1], area]), times, marks, lefts


@st.composite
def _area_cases(draw):
    """A levy-area-1 or levy-area-2 configuration of 0 to 8 atoms on (0, 1],
    its first moment and structure, and a time before the first atom, at an
    atom or at the horizon."""
    n = draw(st.integers(0, 8))
    times = np.sort(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                                  min_size=n, max_size=n, unique=True)))
    eps = draw(st.sampled_from([0.05, 0.008]))
    nonzero = st.floats(1e-6, 1.0) | st.floats(-1.0, -1e-6)
    if draw(st.booleans()):
        marks = [(draw(nonzero), draw(st.floats(-1.0, 1.0))) for _ in range(n)]
        m1 = polar_first_moment(eps, draw(st.sampled_from([0.0, 0.5, 0.95])))
        bs = isotropic(2)
    else:
        marks = [(z, z * z) for z in (draw(nonzero) for _ in range(n))]
        m1 = np.array([power_law_first_moment(eps), power_law_second_moment(eps)])
        bs = graph_structure()
    config = JumpConfiguration(times=np.array(times, dtype=float),
                               marks=np.array(marks, dtype=float).reshape(n, 2), horizon=1.0)
    where = draw(st.sampled_from(["before", "atom", "horizon"]))
    if where == "before" and n:
        t = float(times[0]) / 2.0
    elif where == "atom" and n:
        t = float(times[draw(st.integers(0, n - 1))])
    else:
        t = 1.0
    return config, m1, bs, t


def _area_paths_loop(configs, m1, t):
    """The atom loop over each configuration, returned as ``_area_closed_path``
    returns a stack: terminal values, path index and left limits."""
    runs = [_area_path_loop(config, m1, t) for config in configs]
    return (np.array([run[0] for run in runs]),
            np.repeat(np.arange(len(runs)), [run[1].shape[0] for run in runs]),
            np.concatenate([run[3] for run in runs]))


def _same_bits(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


@given(case=_area_cases())
def test_area_closed_path_has_the_bits_of_the_atom_loop(case):
    config, m1, bs, t = case
    times, marks, counts = _up_to([config], t)
    assert _same_bits(_area_closed_path(times, marks, counts, m1, t),
                      _area_paths_loop([config], m1, t))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("lentparticle.scenarios._area_closed_path",
                      lambda times, marks, counts, m1, t: _area_paths_loop([config], m1, t))
        want = area_closed_gamma(times, marks, counts, bs.weight(marks), m1, t)
    assert _same_bits(area_closed_gamma(times, marks, counts, bs.weight(marks), m1, t), want)


def _sum_one_at_a_time(terms, d):
    total = np.zeros((d, d))
    for term in terms:
        total = total + term
    return total


def _area_moment(name, eps):
    if name == "levy-area-1":
        return polar_first_moment(eps, 0.5)
    return np.array([power_law_first_moment(eps, 1.0, 0.5, 0.5),
                     power_law_second_moment(eps, 1.0, 0.5)])


def _closed_form_one_at_a_time(name, config, eps, t):
    """Gamma of one configuration as the closed forms computed it before they
    took a stack: one weight call and one stack of atom terms per path."""
    bs = get_scenario(name).bottom
    if name == "null":
        return np.zeros((1, 1))
    if name == "doleans":
        m1 = power_law_first_moment(eps, 1.0, 0.5, 0.5)
        e_t = doleans_exponential(config, m1, t)[1]
        marks = config.marks[config.times <= t]
        w = bs.weight(marks)[:, 0, 0]
        w, u = w[w != 0.0], marks[w != 0.0, 0]
        v = np.column_stack([np.ones(u.size), e_t / (1.0 + u)])
        return _sum_one_at_a_time(w[:, None, None] * (v[:, :, None] * v[:, None, :]), 2)
    v, _, marks, lefts = _area_path_loop(config, _area_moment(name, eps), t)
    w = bs.weight(marks)
    live = w.any(axis=(1, 2))
    w, u, lefts = w[live], marks[live], lefts[live]
    a_t = v[1] - u[:, 1] - 2.0 * lefts[:, 1]
    b_t = v[0] - u[:, 0] - 2.0 * lefts[:, 0]
    jac = np.zeros((a_t.size, 3, 2))
    jac[:, 0, 0] = jac[:, 1, 1] = 1.0
    jac[:, 2, 0], jac[:, 2, 1] = a_t, -b_t
    out = _sum_one_at_a_time(jac @ w @ jac.transpose(0, 2, 1), 3)
    return 0.5 * (out + out.T)


@st.composite
def _closed_form_batches(draw):
    """A shipped scenario, a truncation, 1 to 4 configurations of 0 to 6 atoms
    and a time: the horizon, mid-way, before almost every atom, or at an
    atom.  doleans marks with |u| >= 1/2 weigh 0; tiny marks give weights
    near the smallest normal float."""
    name = draw(st.sampled_from(SCENARIO_NAMES))
    eps = draw(st.sampled_from([0.05, 0.008]))
    nonzero = st.floats(1e-6, 0.9) | st.floats(-0.9, -1e-6) | st.floats(1e-150, 1e-140)
    configs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 6))
        times = np.sort(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                                      min_size=n, max_size=n, unique=True)))
        z = [draw(nonzero) for _ in range(n)]
        if name == "levy-area-1":
            marks = [(a, draw(st.floats(-0.9, 0.9))) for a in z]
        elif name == "levy-area-2":
            marks = [(a, a * a) for a in z]
        else:
            marks = [(a,) for a in z]
        configs.append(JumpConfiguration(
            times=np.array(times, dtype=float),
            marks=np.array(marks, dtype=float).reshape(n, 2 if "area" in name else 1),
            horizon=1.0))
    atoms = [float(time) for config in configs for time in config.times]
    t = draw(st.sampled_from([1.0, 0.5, 1e-3] + atoms[:3]))
    return name, eps, configs, t


@given(batch=_closed_form_batches())
def test_stacked_closed_form_has_the_bits_of_a_loop_over_configurations(batch):
    name, eps, configs, t = batch
    got = get_scenario(name).gammas(configs, eps, t)
    want = np.array([_closed_form_one_at_a_time(name, config, eps, t) for config in configs])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if "area" in name:
        # terminal values too, each read at its own path's last row
        m1 = _area_moment(name, eps)
        assert _same_bits(_area_closed_path(*_up_to(configs, t), m1, t),
                          _area_paths_loop(configs, m1, t))


def test_closed_form_weight_error_names_the_path_and_its_atom():
    import dataclasses

    # psi = 2 > k = 1 for u1 > 0.5: the third atom of the second path
    bad = psi_over_k(psi=lambda marks: np.where(marks[:, 0] > 0.5, 2.0, 1.0), r=2)
    scenario = dataclasses.replace(get_scenario("levy-area-1"), bottom=bad)
    fine = JumpConfiguration(times=np.array([0.2, 0.4]),
                             marks=np.array([[0.1, 0.2], [0.3, 0.1]]), horizon=1.0)
    broken = JumpConfiguration(times=np.array([0.1, 0.3, 0.6]),
                               marks=np.array([[0.2, 0.1], [-0.3, 0.2], [0.7, 0.1]]), horizon=1.0)
    with pytest.raises(StructureError, match=r"exceeds k\(u\) = 1.0 at mark 2 on path 1$"):
        scenario.gammas([fine, broken])
    with pytest.raises(StructureError, match=r"exceeds k\(u\) = 1.0 at mark 2 on path 0$"):
        scenario.gammas([broken])



def test_closed_form_weight_error_in_a_later_chunk_names_the_path_in_configs(monkeypatch):
    import dataclasses

    import lentparticle.scenarios as sc

    # psi = 2 > k = 1 for u1 > 0.5, as in the test above
    bad = psi_over_k(psi=lambda marks: np.where(marks[:, 0] > 0.5, 2.0, 1.0), r=2)
    scenario = dataclasses.replace(get_scenario("levy-area-1"), bottom=bad)

    def config(us):
        return JumpConfiguration(times=np.linspace(0.1, 0.9, len(us)),
                                 marks=np.array([[u, 0.1] for u in us]), horizon=1.0)

    fine, broken = config([0.1, 0.3]), config([0.2, -0.3, 0.7])
    # chunks of at most 8 padded atoms: two fine paths, then a fine one and
    # the broken one, which is path 1 of its chunk and path 3 of the sweep;
    # the atoms are weighed before any chunk, and the error names path 3
    monkeypatch.setattr(sc, "_CLOSED_CHUNK_ATOMS", 8)
    assert [list(c) for c in sc._closed_chunks([2, 2, 2, 3])] == [[0, 1], [2, 3]]
    with pytest.raises(StructureError, match=r"exceeds k\(u\) = 1.0 at mark 2 on path 3$"):
        scenario.gammas([fine, fine, fine, broken])
    # the first path that fails alone is named, though a shorter one fails
    # in an earlier chunk
    longer = config([0.2, 0.1, -0.3, 0.6, 0.2])
    with pytest.raises(StructureError, match=r"exceeds k\(u\) = 1.0 at mark 3 on path 0$"):
        scenario.gammas([longer, fine, broken])


def _refusing_on_shell(lo, hi):
    """The levy-area-1 scenario with a structure that refuses the marks of
    norm in ``(lo, hi)`` (psi = 2 > k = 1 there)."""
    import dataclasses

    def psi(marks):
        norms = np.linalg.norm(marks, axis=1)
        return np.where((lo < norms) & (norms < hi), 2.0, 1.0)

    return dataclasses.replace(get_scenario("levy-area-1"), bottom=psi_over_k(psi=psi, r=2))


@pytest.mark.parametrize("lo, hi, failing", [(0.008, 0.02, 0.008), (0.02, 0.05, 0.02)],
                         ids=["finest only", "two levels"])
def test_sweep_table_refuses_as_the_first_failing_level_alone(lo, hi, failing):
    from lentparticle.density_criteria import monte_carlo_rank_stats
    from lentparticle.poisson_measure import _simulate_table, simulate_configurations
    from lentparticle.rng import path_seeds

    # every level is weighed from one weight call over the finest table; an
    # atom that only some levels keep is refused as those levels alone refuse it
    scenario = _refusing_on_shell(lo, hi)
    levels = [0.05, 0.02, 0.008]
    table = _simulate_table(scenario.model(0.008), 1.0, path_seeds(5, 16))
    configs = simulate_configurations(scenario.model(0.008), 1.0, path_seeds(5, 16))
    with pytest.raises(StructureError, match=r"exceeds k\(u\) = 1.0 at mark \d+ on path \d+$") \
            as alone:
        scenario.gammas(scenario.restrict(configs, failing), failing)
    coarser = levels[:levels.index(failing)]
    for sweep in ([failing], coarser + [failing], levels):
        with pytest.raises(StructureError) as swept:
            scenario._sweep_table(table, sweep)
        assert str(swept.value) == str(alone.value)
    with pytest.raises(StructureError) as ranked:
        monte_carlo_rank_stats(scenario, 16, levels, seed=5)
    assert str(ranked.value) == str(alone.value)
    # the coarser levels weigh as they do alone
    for got, eps in zip(scenario._sweep_table(table, coarser), coarser):
        assert got.tobytes() == scenario.gammas(scenario.restrict(configs, eps), eps).tobytes()
    if failing != 0.008:
        # the row is the atom's row among the level's atoms, not the table's
        with pytest.raises(StructureError) as finest:
            scenario.gammas(scenario.restrict(configs, 0.008), 0.008)
        assert str(finest.value) != str(alone.value)


def test_sweep_table_weighs_no_atom_after_t():
    import dataclasses

    from lentparticle.poisson_measure import _atom_table

    # the structure refuses u1 > 0.5, which only the atoms after t = 0.5 have
    bad = psi_over_k(psi=lambda marks: np.where(marks[:, 0] > 0.5, 2.0, 1.0), r=2)
    scenario = dataclasses.replace(get_scenario("levy-area-1", eval_time=0.5), bottom=bad)
    late = JumpConfiguration(times=np.array([0.2, 0.4, 0.8]),
                             marks=np.array([[0.1, 0.2], [0.03, -0.1], [0.7, 0.1]]), horizon=1.0)
    early = JumpConfiguration(times=np.array([0.2, 0.4]),
                              marks=np.array([[0.1, 0.2], [0.03, -0.1]]), horizon=1.0)
    want = scenario.gammas([early, early], 0.02)
    assert scenario.gammas([late, early], 0.02).tobytes() == want.tobytes()
    swept = scenario._sweep_table(_atom_table([late, early], 2), [0.05, 0.02])
    assert swept[1].tobytes() == want.tobytes()
    assert swept[0].tobytes() == scenario.gammas(scenario.restrict([early] * 2, 0.05),
                                                 0.05).tobytes()

# the closed forms pinned byte for byte: sha256 of the (P, d, d) stack of
# gammas over 48 paths drawn at seed 5 and restricted to each of three
# truncation levels, in chunks of the default size and in small chunks
GOLDEN_CLOSED_GAMMAS = {
    ("doleans", 0.2): "209e2f80fa2ff159032de4054b4cb748ba62eaacd03fcb53d3bc91616cf5f83c",
    ("doleans", 0.1): "d6e83c5ff029542b860c18e0ffa535e9e04fbeea2163e34c152ede775022ddd5",
    ("doleans", 1 / 17): "1ac4251ec18b7d527e98825733c735507a26308811894da239c56ae0b90c66af",
    ("levy-area-1", 0.05): "d0a5dbf54b3eab56a22add042968cc4c2ca30bd166e35cb662bee8fd450ea894",
    ("levy-area-1", 0.02): "7aecec5e21473332b732c0ffd02774473eeaf2a3a22000046a573e3c6c514b3d",
    ("levy-area-1", 0.008): "e49ed863dff943ef54f1bc842974f911209d4983a9f9078a2ee570504e3e43d8",
    ("levy-area-2", 0.2): "88ff3543d2c11f8e97c0eab43ec2f06205abaaeddbadc27dcdf23298a0b9d256",
    ("levy-area-2", 0.1): "98be8c951641effb267ab1b258a5f95af2b5bb74b4780a1d738bc98abb22bda3",
    ("levy-area-2", 1 / 17): "cac728f8215c53cb9c21894282756a23bb65201afdc131a2a8b906e2fe897b8a",
}


@pytest.mark.parametrize("chunk_atoms", [None, 200])
@pytest.mark.parametrize("name", ["doleans", "levy-area-1", "levy-area-2"])
def test_closed_form_golden_bits(name, chunk_atoms, monkeypatch):
    import hashlib

    import lentparticle.scenarios as sc
    from lentparticle.poisson_measure import simulate_configurations
    from lentparticle.rng import path_seeds

    if chunk_atoms is not None:
        monkeypatch.setattr(sc, "_CLOSED_CHUNK_ATOMS", chunk_atoms)
    scenario = get_scenario(name)
    levels = sorted((eps for key, eps in GOLDEN_CLOSED_GAMMAS if key == name), reverse=True)
    configs = simulate_configurations(scenario.model(levels[-1]), scenario.horizon,
                                      path_seeds(5, 48))
    for eps in levels:
        got = scenario.gammas(scenario.restrict(configs, eps), eps)
        assert hashlib.sha256(got.tobytes()).hexdigest() == GOLDEN_CLOSED_GAMMAS[name, eps]


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
        right, left, worst = integrate(*args)
        solved.extend([weakref.ref(right), weakref.ref(left)])
        return right, left, worst

    # about 440 rows of about 7 grid values and 354 values (the last row of
    # 21 and the workspace of 15 rows of 21, a Jacobian and the step factors)
    # per path, plus 63 per atom (both limits at the jump, its time, mark,
    # slopes and jump matrix): a pair takes 11,002 to 11,935 floats, two
    # paths per chunk
    monkeypatch.setattr(engine, "_CHUNK_VALUES", 12000)
    monkeypatch.setattr(engine, "_integrate", tracked)
    matrices = scenario.gammas(configs)
    assert len(solved) == 2 * 3
    for config, matrix in zip(configs, matrices, strict=True):
        assert np.array_equal(matrix, scenario.gamma_of(config))


_SWEEP_LEVELS = (0.05, 0.02, 0.008)


def _area_sweep(scenario, n_paths=8, seed=5, levels=_SWEEP_LEVELS):
    """The ``levels`` of a rank sweep of ``scenario`` (by default levy-area-1's
    or a variant's) over ``n_paths`` paths drawn at its finest level."""
    from lentparticle.poisson_measure import simulate_configurations
    from lentparticle.rng import path_seeds

    configs = simulate_configurations(scenario.model(levels[-1]), scenario.horizon,
                                      path_seeds(seed, n_paths))
    return [(scenario.restrict(configs, eps), eps) for eps in levels]


def _open_sweeps():
    """Three-level sweeps of shipped scenarios without their closed forms, as
    ``(scenario, levels)``: levy-area-1, levy-area-2 and doleans, whose levels
    share their compensator calls, and levy-area-1 with its finest level's
    compensator a plain wrapper, so that level keeps its own call."""
    import dataclasses

    sweeps = []
    for name in ("levy-area-1", "levy-area-2", "doleans"):
        scenario = dataclasses.replace(get_scenario(name), closed_form_gamma=None)
        eps = scenario.default_truncation
        sweeps.append((scenario, _SWEEP_LEVELS if name == "levy-area-1"
                       else (4 * eps, 2 * eps, eps)))
    area = sweeps[0][0]

    def make_coeffs(model):
        coeffs = area.make_coeffs(model)
        if model.truncation != _SWEEP_LEVELS[-1]:
            return coeffs
        comp = coeffs.compensator
        return dataclasses.replace(coeffs, compensator=lambda t, x: comp(t, x))

    sweeps.append((dataclasses.replace(area, make_coeffs=make_coeffs), _SWEEP_LEVELS))
    return sweeps


def _area_by_level(changes):
    """levy-area-1 without its closed form on a step of 0.1, whose coefficients
    at a truncation level in ``changes`` have the fields it maps that level to
    replaced."""
    import dataclasses

    base = get_scenario("levy-area-1")

    def make_coeffs(model):
        coeffs = base.make_coeffs(model)
        return dataclasses.replace(coeffs, **changes.get(model.truncation, {}))

    return dataclasses.replace(base, closed_form_gamma=None, make_coeffs=make_coeffs, step=0.1)


def _wobble(strength):
    """A nonlinear drift, on which RK4 leaves K Kbar off the identity."""
    def drift(t, x):
        return strength * np.column_stack([np.sin(3.0 * x[:, 1]), x[:, 0] ** 2, np.zeros(len(x))])

    def dx_drift(t, x):
        out = np.zeros((len(x), 3, 3))
        out[:, 0, 1], out[:, 1, 0] = 3.0 * strength * np.cos(3.0 * x[:, 1]), 2.0 * strength * x[:, 0]
        return out

    return {"drift": drift, "dx_drift": dx_drift}


@pytest.mark.parametrize("chunk_values", [None, 13000])
def test_sweep_gammas_have_the_bits_of_each_level_alone(monkeypatch, chunk_values):
    import hashlib

    import lentparticle.sde_engine as engine

    spans = []
    stack = engine._stack_grids

    def counted(configs, grids, lengths):
        spans.append(len(lengths))
        return stack(configs, grids, lengths)

    if chunk_values is not None:
        # about 3,000 to 3,500 floats per path for the grid arrays, 170 (a
        # doleans path) or 354 (an area path) for its last row and workspace,
        # and 30 or 63 per atom: two to four paths per chunk
        monkeypatch.setattr(engine, "_CHUNK_VALUES", chunk_values)
    for scenario, truncations in _open_sweeps():
        levels = _area_sweep(scenario, levels=truncations)
        alone = [hashlib.sha256(scenario.gammas(configs, eps).tobytes()).hexdigest()
                 for configs, eps in levels]
        monkeypatch.setattr(engine, "_stack_grids", counted)
        spans.clear()
        swept = [hashlib.sha256(stack.tobytes()).hexdigest()
                 for stack in scenario.sweep_gammas(levels)]
        monkeypatch.setattr(engine, "_stack_grids", stack)
        assert swept == alone, scenario.name
        # one chunk of all three levels, or small chunks one of which spans two
        if chunk_values is None:
            assert spans == [3]
        else:
            assert len(spans) > 3 and max(spans) == 2


def test_sweep_calls_the_shared_coefficients_once_per_stage_and_jump_row(monkeypatch):
    import dataclasses

    import lentparticle.scenarios as scenarios
    import lentparticle.sde_engine as engine

    calls = {"_area_comp": 0, "_area_c": 0}

    def counted(name):
        fn = getattr(scenarios, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(scenarios, name, wrapper)

    counted("_area_comp")
    counted("_area_c")
    grids = []
    stack = engine._stack_grids

    def recorded(*args):
        out = stack(*args)
        grids.append(out)
        return out

    monkeypatch.setattr(engine, "_stack_grids", recorded)
    scenario = dataclasses.replace(get_scenario("levy-area-1"), closed_form_gamma=None)
    scenario.sweep_gammas(_area_sweep(scenario, n_paths=32))
    [(_, _, times, is_jump, _, _)] = grids  # one chunk of all three levels
    # four RK4 stages per row the loop advances, one call each for all levels
    assert calls["_area_comp"] == 4 * (times.shape[1] - 1)
    # one call per row where any path jumps, plus one for the assumption check
    # of the levels, which share c, dx_c and eta
    assert calls["_area_c"] == np.count_nonzero(is_jump.any(axis=0)) + 1


def test_sweep_takes_the_flow_products_of_equal_runs_in_one_product_each(monkeypatch):
    import dataclasses
    import types

    import lentparticle.scenarios as scenarios
    import lentparticle.sde_engine as engine

    products, stages, grids, staging = [], [0], [], [False]
    comp, stack, flow_products = scenarios._area_comp, engine._stack_grids, engine._flow_products

    def matmul(x1, x2, out=None, axes=((-2, -1),) * 3):
        # the matrix products numpy makes in a stage, one BLAS call each
        result = np.matmul(x1, x2, out=out, axes=list(axes))
        if staging[0]:
            rows, cols = (result.shape[axis] for axis in axes[2])
            products.append(result.size // (rows * cols))
        return result

    def staged(*args):
        # a stage's flow products; a jump row's K product is not counted
        staging[0] = True
        try:
            flow_products(*args)
        finally:
            staging[0] = False

    def counted(*args):
        stages[0] += 1
        return comp(*args)

    def recorded(*args):
        grids.append(stack(*args))
        return grids[-1]

    class Numpy(types.ModuleType):  # numpy with the matmul above
        def __getattr__(self, name):
            return getattr(np, name)

    counting = Numpy("numpy")
    counting.matmul = matmul
    monkeypatch.setattr(engine, "np", counting)
    monkeypatch.setattr(engine, "_flow_products", staged)
    monkeypatch.setattr(scenarios, "_area_comp", counted)
    monkeypatch.setattr(engine, "_stack_grids", recorded)
    scenario = dataclasses.replace(get_scenario("levy-area-1"), closed_form_gamma=None)
    scenario.sweep_gammas(_area_sweep(scenario, n_paths=32))
    [(_, sizes, _, _, _, _)] = grids  # one chunk of three levels of 32 paths
    # two products per stage; while every path advances, one per level for
    # the K rows and one per level and row of Kbar: 3 (1 + 3) BLAS calls
    assert len(products) == 2 * stages[0]
    equal = 4 * (sizes.min() - 1)
    assert 0 < equal < stages[0]
    assert products[:2 * equal] == [3, 9] * equal


def test_sweep_checks_the_levels_sharing_coefficients_in_one_call(monkeypatch):
    import lentparticle.sde_engine as engine

    calls, check = [], engine._check_r_conditions

    def counted(coeffs, t, *args):
        calls.append(t.shape[0])
        return check(coeffs, t, *args)

    monkeypatch.setattr(engine, "_check_r_conditions", counted)
    # the three levels of each open sweep (levy-area-1 and -2, doleans) hold
    # the same c, dx_c and eta: one call over all their jumps
    for scenario, eps in _open_sweeps():
        calls.clear()
        levels = _area_sweep(scenario, levels=eps)
        scenario.sweep_gammas(levels)
        assert calls == [sum(config.n_atoms for configs, _ in levels for config in configs)]


@pytest.mark.parametrize("below,level", [(0.02, 2), (0.04, 1)])
def test_sweep_check_reads_as_the_first_failing_level_alone(monkeypatch, below, level):
    import lentparticle.sde_engine as engine

    def eta(u):  # shared by every level, broken by the marks of the finest one or two
        size = np.linalg.norm(u, axis=1)
        return np.where(size < below, 1e-3, 1.0 + size)

    calls, check = [], engine._check_r_conditions

    def counted(*args):
        calls.append(len(args[1]))
        return check(*args)

    monkeypatch.setattr(engine, "_check_r_conditions", counted)
    scenario = _area_by_level({eps: {"eta": eta} for eps in _SWEEP_LEVELS})
    # at this seed the finest level's first failing jump comes before the
    # middle level's, at 0.0023 against 0.057 when both fail
    groups = [(scenario.make_coeffs(scenario.model(eps)), scenario.model(eps), configs)
              for configs, eps in _area_sweep(scenario, seed=7)]

    def message(groups):
        with pytest.raises(ModelError) as info:
            list(engine._solve_chunks(groups, scenario.x0, scenario.step, None, True, True, True))
        return str(info.value)

    swept = message(groups)
    assert len(calls) == 1 and "exceeds eta" in swept
    # the first level that fails, its paths numbered alone, though a finer
    # level's may fail at an earlier row
    assert swept == message(groups[level:level + 1])


def test_sweep_takes_the_jump_jacobian_once_per_chunk(monkeypatch):
    import dataclasses
    import functools

    import lentparticle.scenarios as scenarios

    calls, dx_c = [], scenarios._area_dx_c

    @functools.wraps(dx_c)  # keeps its reads_time and reads_state
    def counted(t, x, u):
        calls.append(u.shape[0])
        return dx_c(t, x, u)

    monkeypatch.setattr(scenarios, "_area_dx_c", counted)
    scenario = dataclasses.replace(get_scenario("levy-area-1"), closed_form_gamma=None)
    levels = _area_sweep(scenario, n_paths=32)
    scenario.sweep_gammas(levels)
    # one call over every jump of the one chunk; the checks reuse it
    assert calls == [sum(config.n_atoms for configs, _ in levels for config in configs)]


def test_sweep_takes_the_constant_jacobian_once_per_segment_and_no_svd(monkeypatch):
    import dataclasses
    import functools

    import lentparticle.scenarios as scenarios
    import lentparticle.sde_engine as engine

    calls, svd_rows, grids = [], [], []
    dcomp, norm, stack = scenarios._area_dcomp, np.linalg.norm, engine._stack_grids

    @functools.wraps(dcomp)  # keeps its reads_time and reads_state
    def counted(t, x, m1):
        calls.append(x.shape[0])
        return dcomp(t, x, m1)

    def spied(a, ord=None, axis=None, keepdims=False):
        if ord == 2:
            svd_rows.append(len(a))
        return norm(a, ord, axis, keepdims)

    def recorded(*args):
        grids.append(stack(*args))
        return grids[-1]

    monkeypatch.setattr(scenarios, "_area_dcomp", counted)
    monkeypatch.setattr(np.linalg, "norm", spied)
    monkeypatch.setattr(engine, "_stack_grids", recorded)
    scenario = dataclasses.replace(get_scenario("levy-area-1"), closed_form_gamma=None)
    scenario.sweep_gammas(_area_sweep(scenario, n_paths=32))
    [(_, sizes, times, is_jump, _, _)] = grids  # one chunk of all three levels
    # every live segment ends where its shortest path does
    assert 1 < len(calls) <= np.unique(sizes).size < times.shape[1] - 1
    # every jump of every level was checked, each inverse jump update
    # settled by a bound below eta
    assert is_jump.any() and svd_rows == []


# sha256 of compensator(t, x) and then dx_compensator(t, x), raveled, at the
# points below, taken when each set's compensator pair was a closure of its
# first moment
_COMPENSATOR_DIGESTS = {
    "area": "68c6389b8650e28b5d81496cd13c6e558a0f9db0b446d789ba8cb5c65ebdd61c",
    "doleans": "ff39e1f2556a89a050e721f795a4a47562296f072712ed7f770b43ae20a48d6b",
}


def test_closed_form_compensators_keep_the_two_argument_contract():
    import hashlib

    from lentparticle.scenarios import area_coefficients

    t = np.linspace(0.0, 1.0, 7)
    x = np.sin(np.arange(21.0)).reshape(7, 3) * 1.7
    sets = {"area": (area_coefficients(np.array([0.31, -0.72])), x),
            "doleans": (doleans_coefficients(0.123, 0.5), x[:, :2])}
    for name, (coeffs, points) in sets.items():
        values = np.concatenate([coeffs.compensator(t, points).ravel(),
                                 coeffs.dx_compensator(t, points).ravel()])
        assert hashlib.sha256(values.tobytes()).hexdigest() == _COMPENSATOR_DIGESTS[name]
    # every level of a shipped scenario holds the same jump coefficients
    for name in ("levy-area-1", "levy-area-2", "doleans"):
        scenario = get_scenario(name)
        a, b = (scenario.make_coeffs(scenario.model(eps)) for eps in (0.2, 0.05))
        assert (a.c, a.dx_c, a.du_c) == (b.c, b.dx_c, b.du_c)


def test_sweep_gammas_warn_once_per_offending_level():
    # the nonlinear drift at the first and last level; the texts and values
    # are those of the levels solved one gammas call at a time before the
    # sweep solved them together
    scenario = _area_by_level({0.05: _wobble(1.0), 0.008: _wobble(2.0)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario.sweep_gammas(_area_sweep(scenario))
    assert [(w.category, str(w.message)) for w in caught] == [
        (ConditioningWarning, "K Kbar deviates from identity by 0.000151; consider a smaller step"),
        (ConditioningWarning, "K Kbar deviates from identity by 0.00204; consider a smaller step"),
    ]


def test_sweep_gammas_raise_the_error_of_the_first_failing_level():
    # I + dx_c singular at every jump of the first level, a non-finite drift
    # at the last: the last level's error comes first in the batch, but the
    # sweep raises the first level's, as solving the levels in order does
    scenario = _area_by_level({
        0.05: {"dx_c": lambda t, x, u: np.tile(-np.eye(3), (len(u), 1, 1))},
        0.008: {"drift": lambda t, x: np.full(x.shape, np.nan),
                "dx_drift": lambda t, x: np.zeros((len(x), 3, 3))},
    })
    levels = _area_sweep(scenario)
    with pytest.raises(NumericError, match=r"^integration produced non-finite state at "
                                           r"t = 0\.01673368617691018 on path 6$"):
        scenario.gammas(*levels[2])
    with pytest.raises(ModelError, match=r"^jump update I \+ dx_c singular at "
                                         r"\(t=0\.014024288592026646, "
                                         r"u=\[ 0\.43893151 -0\.13684833\]\) on path 1$"):
        scenario.sweep_gammas(levels)


# node-aligned atom times: the regular grid of step 0.02 has these nodes on
# [0, 1] and on [0, 0.5], so such an atom shares its grid row with a node
_NODES = np.linspace(0.0, 1.0, 51)[1:]


@st.composite
def _flow_batches(draw):
    """A shipped scenario without its closed form on a coarse step, a
    truncation, 1 to 5 configurations of 0 to 40 atoms (some on grid nodes),
    a time (the horizon, mid-way, before almost every atom, or at an atom)
    and a chunk size small enough to split most batches."""
    name = draw(st.sampled_from(SCENARIO_NAMES))
    eps = draw(st.sampled_from([0.05, 0.008]))
    configs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from([0, 1, 3, 40]))
        on_nodes = draw(st.lists(st.sampled_from(list(_NODES)), max_size=n, unique=True))
        off_nodes = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=n,
                                  max_size=n, unique=True))
        times = np.unique(np.concatenate([on_nodes, off_nodes]))[:n]
        z = np.array([draw(st.floats(0.01, 0.45) | st.floats(-0.45, -0.01)) for _ in times])
        if name == "levy-area-1":
            marks = np.column_stack([z, z[::-1]])
        elif name == "levy-area-2":
            marks = np.column_stack([z, z * z])
        else:
            marks = z[:, None]
        configs.append(JumpConfiguration(
            times=times, marks=marks.reshape(len(times), 2 if "area" in name else 1),
            horizon=1.0))
    atoms = [float(time) for config in configs for time in config.times]
    t = draw(st.sampled_from([1.0, 0.5, 1e-3] + atoms[:3]))
    return name, eps, configs, t, draw(st.sampled_from([2 ** 19, 150, 2000]))


@pytest.mark.filterwarnings("ignore::lentparticle.errors.ConditioningWarning")
@settings(max_examples=30, deadline=None)
@given(batch=_flow_batches())
def test_stacked_flow_gammas_have_the_bits_of_gamma_flow_on_each_path(batch):
    import dataclasses

    import lentparticle.sde_engine as engine

    name, eps, configs, t, chunk_values = batch
    scenario = dataclasses.replace(get_scenario(name), closed_form_gamma=None, step=0.02)
    # a sweep adds the paths in reverse order at the other truncation level
    other = 0.05 if eps == 0.008 else 0.008
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_CHUNK_VALUES", chunk_values)
        got = scenario.gammas(configs, eps, t)
        swept = scenario.sweep_gammas([(configs, eps), (configs[::-1], other)], t)
    model = scenario.model(eps)
    coeffs = scenario.make_coeffs(model)
    want = np.array([
        gamma_flow(solve_sde(coeffs, model, config, scenario.x0, scenario.step, horizon=t,
                             flows=True), coeffs, scenario.bottom, t).matrix
        for config in configs
    ])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert swept[0].tobytes() == got.tobytes()
    assert swept[1].tobytes() == scenario.gammas(configs[::-1], other, t).tobytes()


def _weighted_area_scenario(factor):
    """levy-area-1 without its closed form, whose mark weight is scaled by
    ``factor`` on marks with u1 > 0.5."""
    import dataclasses

    from lentparticle.bottom_structure import BottomStructure

    ones = lambda marks: np.ones(marks.shape[0])
    bs = BottomStructure(
        mark_dimension=2, support=lambda marks: ones(marks) > 0, density=ones, psi=ones,
        xi=lambda marks: np.where((marks[:, 0] > 0.5)[:, None, None], np.diag([factor] * 2),
                                  np.eye(2)))
    return dataclasses.replace(get_scenario("levy-area-1"), closed_form_gamma=None, bottom=bs)


@pytest.mark.parametrize("factor, message", [
    (-1.0, r"^matrix has eigenvalue -.* below the PSD tolerance on path 2$"),
    (np.inf, r"^matrix contains non-finite entries on path 2$"),
], ids=["not PSD", "not finite"])
def test_stacked_flow_gammas_refuse_a_bad_matrix_and_name_its_path(monkeypatch, factor,
                                                                   message):
    import lentparticle.sde_engine as engine

    fine = JumpConfiguration(times=np.array([0.2, 0.4]),
                             marks=np.array([[0.1, 0.2], [0.3, -0.1]]), horizon=1.0)
    bad = JumpConfiguration(times=np.array([0.3]), marks=np.array([[0.7, 0.1]]), horizon=1.0)
    # one path per chunk, so the bad path is the first of its chunk
    monkeypatch.setattr(engine, "_CHUNK_VALUES", 1000)
    with np.errstate(all="ignore"), pytest.raises(InputError, match=message):
        _weighted_area_scenario(factor).gammas([fine, fine, bad, fine])


def test_stacked_flow_gammas_name_the_path_of_a_broken_structure(monkeypatch):
    # psi = 2 > k = 1 for u1 > 0.5: the first atom of the third path
    import dataclasses

    import lentparticle.sde_engine as engine

    bad = psi_over_k(psi=lambda marks: np.where(marks[:, 0] > 0.5, 2.0, 1.0), r=2)
    scenario = dataclasses.replace(get_scenario("levy-area-1"), closed_form_gamma=None,
                                   bottom=bad)
    fine = JumpConfiguration(times=np.array([0.2, 0.4]),
                             marks=np.array([[0.1, 0.2], [0.3, -0.1]]), horizon=1.0)
    broken = JumpConfiguration(times=np.array([0.3, 0.5]),
                               marks=np.array([[0.7, 0.1], [0.2, 0.2]]), horizon=1.0)
    for chunk_values in (2 ** 19, 1000):
        monkeypatch.setattr(engine, "_CHUNK_VALUES", chunk_values)
        with pytest.raises(StructureError, match=r"exceeds k\(u\) = 1.0 at mark 0 on path 2$"):
            scenario.gammas([fine, fine, broken, fine])


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


def _theta_steps(a, target, steps=60):
    """Every iterate of the fixed-length Newton loop of the polar sampler."""
    theta, out = target.copy(), [target.copy()]
    for _ in range(steps):
        theta -= (theta + a * np.sin(theta) - target) / (1.0 + a * np.cos(theta))
        out.append(theta.copy())
    return np.array(out)


def _polar_marks(theta, v, eps):
    rho = eps ** (1.0 - v)
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])


@pytest.mark.parametrize("a", [0.0, 0.5, 0.95])
@pytest.mark.parametrize("n", [0, 1, 2, 30, 200])
def test_polar_sampler_has_the_bits_of_sixty_newton_steps(a, n):
    model = polar_levy_model(0.02, a)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        theta = _theta_steps(a, 2.0 * math.pi * rng.random(n))[-1]
        v = rng.random(n)
        assert np.all(v > 0.0)
        want = _polar_marks(theta, v, 0.02)
        assert model.sampler([np.random.default_rng(seed)], [n]).tobytes() == want.tobytes()


class _FixedDraws:
    """Stands in for a generator: each ``random`` call returns the next array,
    or writes it into ``out``."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, n=None, out=None):
        if out is None:
            return self.draws.pop(0)
        out[...] = self.draws.pop(0)
        return out


def _newton_cases(a):
    """Per exit of the Newton loop, a uniform draw that takes it and the
    step that exits: ``(1 or 2 for the period, parity of the step)``."""
    u = np.random.default_rng(0).random(2000)
    history = _theta_steps(a, 2.0 * math.pi * u)
    cases = {}
    for i in range(u.size):
        k = next(k for k in range(2, 61) if history[k, i] == history[k - 2, i])
        period = 1 if history[k, i] == history[k - 1, i] else 2
        cases.setdefault((period, k % 2), (u[i], k))
    return cases


def test_polar_sampler_newton_exits(monkeypatch):
    # the steps taken are counted by the sine calls (one more draws the mark)
    sine, calls = np.sin, []
    monkeypatch.setattr(np, "sin", lambda x, **out: calls.append(1) or sine(x, **out))
    model = polar_levy_model(0.02, 0.5)
    cases = _newton_cases(0.5)
    assert set(cases) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    draws = [(np.array([u]), k) for u, k in cases.values()]
    draws.append((np.array([math.nan]), 60))  # NaN never repeats: all 60 steps
    draws.append((np.array([u for u, _ in cases.values()]), max(k for _, k in cases.values())))
    draws.append((np.array([cases[2, 1][0], math.nan]), 60))
    for u, steps in draws:
        calls.clear()
        marks = model.sampler([_FixedDraws(u, np.full(u.size, 0.5))], [u.size])
        assert len(calls) - 1 == steps
        want = _polar_marks(_theta_steps(0.5, 2.0 * math.pi * u)[-1], np.full(u.size, 0.5), 0.02)
        assert marks.tobytes() == want.tobytes()
    # a = 0 solves in one step, and the next returns the same iterate
    calls.clear()
    polar_levy_model(0.02, 0.0).sampler([_FixedDraws(np.array([0.3]), np.array([0.5]))], [1])
    assert len(calls) - 1 == 2


def test_polar_sampler_batch_keeps_each_streams_newton_exit():
    # one stream per exit of the Newton loop, plus one that runs all 60 steps
    model = polar_levy_model(0.02, 0.5)
    cases = _newton_cases(0.5)
    assert len({k for _, k in cases.values()}) > 1
    targets = [np.array([u]) for u, _ in cases.values()] + [np.array([math.nan, 0.25])]
    streams = [(u, np.full(u.size, 0.3 + 0.1 * i)) for i, u in enumerate(targets)]
    batch = model.sampler([_FixedDraws(*draws) for draws in streams], [u.size for u in targets])
    alone = [model.sampler([_FixedDraws(*draws)], [draws[0].size]) for draws in streams]
    assert batch.tobytes() == np.concatenate(alone).tobytes()


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
        sigma=lambda x, law: np.full(x.shape, 0.8),
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
        sigma=lambda x, law: np.full(x.shape, 0.6 + 0.2 * math.tanh(float(np.mean(law)))),
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


def test_mckean_state_slope_has_the_bits_of_the_inline_difference():
    # dx_c and dx_compensator of the frozen-law coefficients take the central
    # difference of sigma that mckean_vlasov used to inline: the reference
    eps = 0.05
    model = power_law_model(truncation=eps)
    m1 = power_law_first_moment(eps)

    def sigma(x, law):
        mean = float(np.mean(law))
        return np.array([0.6 + 0.2 * math.tanh(xi - mean) for xi in x.tolist()])

    res = mckean_vlasov(sigma=sigma, particles=12, picard_iters=1, model=model, t=1.0,
                        seed=5, step=0.002, first_moment=m1)
    lookup = _law_lookup(res.law_times, res.law_values)

    def amplitude(s, x, side="right"):
        return np.array([sigma(x[p:p + 1], lookup(sp, side))[0] for p, sp in enumerate(s.tolist())])

    g = np.random.default_rng(3)
    s, x, u = g.uniform(0.0, 1.0, 40), g.uniform(-2.0, 2.0, 40), g.uniform(-0.5, 0.5, 40)
    h = 1e-6 * (1.0 + np.abs(x))
    slope = (amplitude(s, x + h) - amplitude(s, x - h)) / (2.0 * h)
    coeffs = res.trajectory.coeffs
    assert coeffs.dx_compensator(s, x[:, None]).tobytes() == (slope * m1)[:, None, None].tobytes()
    # at a jump sigma reads the law's left limit
    slope = (amplitude(s, x + h, "left") - amplitude(s, x - h, "left")) / (2.0 * h)
    assert coeffs.dx_c(s, x[:, None], u[:, None]).tobytes() == (slope * u)[:, None, None].tobytes()


def cli_sigma(x, law):
    # the amplitude of ``example mckean``
    pull = 0.2 * math.tanh(float(np.mean(law)))
    return np.array([0.6 + 0.2 * math.tanh(xi) + pull for xi in x.tolist()])


@pytest.mark.parametrize("seed", [4, 5, 11])
def test_mckean_tagged_path_ends_at_particle_zero(seed):
    # the tagged path re-solves particle 0 against the frozen law; reading the
    # law's left limit at its jumps, as the system does, it ends near
    # samples[0] (on the right side of its own jumps it missed by 3e-3 to 6e-3)
    eps = 0.05
    res = mckean_vlasov(
        sigma=cli_sigma, particles=24, picard_iters=3, model=power_law_model(truncation=eps),
        t=1.0, seed=seed, step=0.01, first_moment=power_law_first_moment(eps),
    )
    assert abs(res.trajectory.states[-1, 0] - res.samples[0]) <= 1e-3


def test_mckean_grid_row_limit(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(InputError, match="grid rows"):
        mckean_vlasov(
            sigma=lambda x, law: np.full(x.shape, 0.8), particles=10, picard_iters=1,
            model=power_law_model(truncation=0.05), t=1.0, seed=0, step=1e-9,
            first_moment=power_law_first_moment(0.05),
        )


def test_mckean_warns_when_not_converged():
    eps = 0.05
    model = power_law_model(truncation=eps)
    m1 = power_law_first_moment(eps)
    with pytest.warns(ConvergenceWarning):
        mckean_vlasov(
            sigma=lambda x, law: np.full(x.shape, 0.6 + 0.3 * math.tanh(float(np.mean(law)))),
            particles=12,
            picard_iters=1,
            model=model,
            t=1.0,
            seed=3,
            first_moment=m1,
            picard_tol=1e-12,
        )


def test_mckean_divergence_is_a_numeric_error():
    # the first integrator step already overflows, at the first grid row
    with pytest.raises(NumericError, match=r"t = 0\.01\b"), np.errstate(over="ignore"):
        mckean_vlasov(
            sigma=lambda x, law: 1e200 * (1.0 + x * x), particles=10, picard_iters=1,
            model=power_law_model(truncation=0.05), t=1.0, seed=3,
            first_moment=power_law_first_moment(0.05),
        )


def test_mckean_refuses_particles_jumping_together(monkeypatch):
    # the system is one path, so two particles may not share a jump time
    def tied(model, t, seeds):
        return [JumpConfiguration(np.array([0.5]), np.array([[0.1]]), t) for _ in seeds]

    monkeypatch.setattr("lentparticle.scenarios.simulate_configurations", tied)
    with pytest.raises(ConfigurationError, match="no ties"):
        mckean_vlasov(
            sigma=lambda x, law: np.full(x.shape, 0.8), particles=10, picard_iters=1,
            model=power_law_model(truncation=0.05), t=1.0, seed=0,
            first_moment=power_law_first_moment(0.05),
        )


def test_mckean_refuses_a_misshaped_sigma():
    # sigma maps a batch of states to one amplitude each, not to a scalar
    with pytest.raises(ModelError, match=r"sigma must return shape \(10,\)"):
        mckean_vlasov(
            sigma=lambda x, law: 0.8, particles=10, picard_iters=1,
            model=power_law_model(truncation=0.05), t=1.0, seed=0,
            first_moment=power_law_first_moment(0.05),
        )


def test_mckean_requires_enough_particles():
    model = power_law_model(truncation=0.05)
    with pytest.raises(InputError):
        mckean_vlasov(
            sigma=lambda x, law: np.ones(x.shape), particles=3, picard_iters=1,
            model=model, t=1.0, seed=0, first_moment=power_law_first_moment(0.05),
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
        back = _stable_like_inverse(alpha_fn, 1.0, x, r)
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


# every shipped coefficient that writes into a given output: its state
# dimension and the shapes of its third argument (mark or first moment) at n rows
_OUT_WRITERS = {
    "_area_c": (3, lambda n: [(n, 2)]),
    "_area_comp": (3, lambda n: [(2,), (n, 2)]),
    "_doleans_c": (2, lambda n: [(n, 1)]),
    "_doleans_comp": (2, lambda n: [(), (n,)]),
}
_EDGE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                         st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _out_calls(draw):
    from hypothesis.extra.numpy import arrays

    name = draw(st.sampled_from(sorted(_OUT_WRITERS)))
    dim, shapes = _OUT_WRITERS[name]
    n = draw(st.one_of(st.just(1), st.integers(2, 6)))
    third = draw(arrays(float, draw(st.sampled_from(shapes(n))), elements=_EDGE_VALUES))
    return name, np.zeros(n), draw(arrays(float, (n, dim), elements=_EDGE_VALUES)), third


def test_the_out_writers_are_the_shipped_ones():
    import inspect

    import lentparticle.scenarios as scenarios

    assert {name for name, fn in vars(scenarios).items()
            if inspect.isfunction(fn) and getattr(fn, "writes_out", False)} == set(_OUT_WRITERS)


@settings(max_examples=200, deadline=None)
@given(call=_out_calls())
def test_out_writers_give_the_bytes_and_warnings_of_the_allocating_call(call):
    import lentparticle.scenarios as scenarios

    name, t, x, third = call

    def run(**out):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = getattr(scenarios, name)(t, x, third, **out)
        return value, [(w.category, str(w.message)) for w in caught]

    want, warned = run()
    buffer = np.full(want.shape, np.nan)
    got, got_warned = run(out=buffer)
    assert got is buffer and got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got_warned == warned
