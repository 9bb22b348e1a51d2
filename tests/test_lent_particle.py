import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lentparticle.lent_particle as lent_particle

from lentparticle.bottom_structure import gamma_matrix, intro_1d, isotropic
from lentparticle.lent_particle import (
    MarkFunction,
    MarkFunctional,
    SdeFunctional,
    gamma_flow,
    gamma_generic,
    gamma_linear,
    gamma_rho_mc,
    linear_functional,
    sharp_sample,
)
from lentparticle.errors import FunctionalError, InputError, ModelError
from lentparticle.poisson_measure import (
    JumpConfiguration,
    add_particle,
    remove_particle,
    simulate_configuration,
)
from lentparticle.rng import DOMAIN_RHO, stream
from lentparticle.scenarios import doleans_coefficients, power_law_first_moment, power_law_model
from lentparticle.sde_engine import CoefficientSet, solve_sde


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


def test_sde_functional_batched_probes_equal_single_solves(monkeypatch):
    # gamma_generic solves every finite-difference probe in one batch; each
    # probe solved on its own gives the same bits
    import lentparticle.sde_engine as engine
    from lentparticle.poisson_measure import add_particle, remove_particle

    # about 430 rows of 2 stored values per probe (X; the left limits at its
    # 36 atoms add 72) and about 5 more per row for the grid arrays: two
    # probes per chunk
    monkeypatch.setattr(engine, "_CHUNK_VALUES", 8000)
    model, coeffs, cfg, _ = _doleans_setup(seed=3)
    bs, x0, step = intro_1d(), np.array([0.0, 1.0]), 0.0025
    F = SdeFunctional(coeffs, model, x0, step=step)
    generic = gamma_generic(F, cfg, bs)

    def alone(config):
        return solve_sde(coeffs, model, config, x0=x0, step=step, validate=False).value_at(1.0)

    total = np.zeros((2, 2))
    for i in range(cfg.n_atoms):
        t, u = cfg.atom(i)
        base = remove_particle(cfg, t, u)
        h = 1e-6 * (1.0 + float(np.linalg.norm(u)))
        jac = ((alone(add_particle(base, t, u + h)) - alone(add_particle(base, t, u - h)))
               / (2.0 * h))[:, None]
        term = gamma_matrix(jac[None], u[None], bs)[0]
        assert generic.per_jump_terms[i][1].tobytes() == term.tobytes()
        total = total + term
    assert generic.matrix.tobytes() == (0.5 * (total + total.T)).tobytes()


def test_flow_renderings_agree():
    _, coeffs, _, traj = _doleans_setup()
    bs = intro_1d()
    a = gamma_flow(traj, coeffs, bs)
    b = gamma_flow(traj, coeffs, bs, rendering="remark3")
    assert a.formula_tag == "theorem9"
    assert b.formula_tag == "remark3"
    scale = max(1.0, np.abs(a.matrix).max())
    assert np.abs(a.matrix - b.matrix).max() <= 1e-10 * scale


def test_remark3_names_the_first_singular_jump():
    # with dx_c = -I every jump update I + dx_c is singular; the error names
    # the first atom
    _, coeffs, cfg, traj = _doleans_setup()
    singular = dataclasses.replace(
        coeffs, dx_c=lambda t, x, u: np.broadcast_to(-np.eye(2), (x.shape[0], 2, 2)))
    with pytest.raises(ModelError) as caught:
        gamma_flow(traj, singular, intro_1d(), rendering="remark3")
    assert str(caught.value) == f"jump update I + dx_c singular at t = {cfg.times[0]}"


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
        gamma_flow(traj, coeffs, bs, rendering="remark3"),
        gamma_linear(_square_h(), cfg, bs),
    ):
        total = sum(term for _, term in g.per_jump_terms)
        if g.outer_factor is not None:
            total = g.outer_factor @ total @ g.outer_factor.T
        assert np.abs(total - g.matrix).max() <= 1e-12


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


@pytest.mark.parametrize("marks, M", [([0.2, -0.35, 0.15], 10 ** 12), ([], 2 ** 30 + 1)],
                         ids=["atoms", "no atom"])
def test_rho_mc_refuses_oversized_draws_before_any_work(monkeypatch, marks, M):
    # M x max(1, atoms x mark coordinates) normal values above MAX_RHO_VALUES
    cfg = JumpConfiguration(np.linspace(0.1, 0.9, len(marks)), np.reshape(marks, (-1, 1)), 1.0)
    F = linear_functional(_square_h(), power_law_model(truncation=0.05))

    def no_work(*args):
        raise AssertionError("the draws were sized only after work began")

    monkeypatch.setattr(lent_particle, "_sharp_factors", no_work)
    with pytest.raises(InputError, match=f"above the limit of {2 ** 30}$"):
        gamma_rho_mc(F, cfg, intro_1d(), M=M, seed=1)


def _power_sums(d, r):
    """h(u) = (sum u, sum u^2, ..., sum u^d) on r-dimensional marks."""
    return MarkFunction(dim=d, fn=lambda t, u: np.array([np.sum(u ** k) for k in range(1, d + 1)]),
                        jacobian=lambda t, u: np.array([k * u ** (k - 1) for k in range(1, d + 1)]))


def _rho_setup(marks, d, r):
    """A configuration of the marks taken r at a time, the power sums of
    dimension d as a linear functional, and its bottom structure."""
    marks = np.reshape(marks[:len(marks) // r * r], (-1, r))
    cfg = JumpConfiguration(np.linspace(0.1, 0.9, len(marks)), marks, 1.0)
    F = linear_functional(_power_sums(d, r), power_law_model(truncation=0.05))
    return F, cfg, intro_1d() if r == 1 else isotropic(r)


@settings(max_examples=30, deadline=None)
@example(marks=[0.2, -0.35, 0.15], shape=(1, 1), M=500, seed=6)
@example(marks=[0.2, -0.35, 0.15], shape=(1, 1), M=3 * 4096 + 7, seed=6)
@example(marks=[0.2, -0.35, 0.15], shape=(2, 1), M=3 * 4096 + 7, seed=6)
@example(marks=[0.2, -0.35, 0.15, 0.4], shape=(3, 2), M=3 * 4096 + 7, seed=6)
@given(
    marks=st.lists(st.floats(0.05, 0.5) | st.floats(-0.5, -0.05), max_size=6),
    shape=st.sampled_from([(1, 1), (2, 1), (3, 1), (3, 2)]),
    M=st.integers(2, 4 * 4096),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_rho_mc_threads_match_serial(marks, shape, M, seed):
    # blocks of 4096 draw sets go to a thread pool sized by the usable CPUs;
    # shape is (functional dimension, mark dimension)
    F, cfg, bs = _rho_setup(marks, *shape)
    runs = []
    for cpus in (1, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lent_particle, "_usable_cpus", lambda: cpus)
            runs.append(gamma_rho_mc(F, cfg, bs, M=M, seed=seed))
    assert np.array_equal(runs[0].matrix, runs[1].matrix)
    assert np.array_equal(runs[0].standard_errors, runs[1].standard_errors)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 2)], ids=["d1", "d2", "d3-r2"])
def test_sharp_sample_is_its_column_of_the_block_kernel(shape):
    F, cfg, bs = _rho_setup([0.2, -0.35, 0.15, 0.4, -0.1, 0.3], *shape)
    factors = lent_particle._sharp_factors(F, cfg, bs)
    for block in (0, 2):
        rho = lent_particle._rho_block(9, block, cfg.n_atoms, cfg.mark_dimension, 4096)
        sharps = lent_particle._sharps(factors, rho)
        assert sharps.shape == (shape[0], 4096)
        for m in (0, 5, 4095):
            got = sharp_sample(F, cfg, bs, rho_seed=9, draw_index=block * 4096 + m)
            assert got.tobytes() == sharps[:, m].tobytes()


@pytest.mark.parametrize("cpus", [1, 3])
def test_rho_mc_folds_blocks_in_order_with_a_bounded_window(monkeypatch, cpus):
    # block 0 is held back until every other block has started, or 0.5 s: a
    # run that folds blocks in index order as they finish starts at most
    # 2 x threads - 1 others meanwhile, where one that collects every block
    # first would start them all
    import threading

    n_blocks = 40
    started, first_done = [], threading.Event()
    lock = threading.Lock()

    def cheap_block(seed, block_index, n, r, draws):
        with lock:
            started.append(block_index)
            if len(started) == n_blocks:
                first_done.set()
        if block_index == 0:
            first_done.wait(0.5)
            first_done.set()
            with lock:
                started.append("first done")
        return np.full((draws, n, r), 1.0 + block_index)

    monkeypatch.setattr(lent_particle, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(lent_particle, "_rho_block", cheap_block)
    F, cfg, bs = _rho_setup([0.2, -0.35, 0.15], 2, 1)
    got = gamma_rho_mc(F, cfg, bs, M=n_blocks * 4096, seed=1)
    before_first = started.index("first done") - 1
    assert before_first <= max(2 * cpus - 1, 0)
    # each block's draws are 1 + its index: the sums are those of the blocks
    sharps = lent_particle._sharp_factors(F, cfg, bs).sum(axis=(0, 2))
    want = np.outer(sharps, sharps) * sum((1.0 + b) ** 2 for b in range(n_blocks)) / n_blocks
    assert np.allclose(got.matrix, want, rtol=1e-12)


# gamma_rho_mc's bits pinned: sha256 of the matrix and standard errors for a
# 1-, 2- and 3-dimensional functional, and one whose second component is
# identically zero (a -0.0 Jacobian row), so that its signed zeros are pinned
def _rho_mc_case(name):
    import lentparticle.scenarios as sc

    if name in ("d1", "zero"):
        cfg = _config([0.1, 0.3, 0.8], [0.2, -0.35, 0.15])
        h = _square_h() if name == "d1" else MarkFunction(
            dim=2, fn=lambda t, u: np.array([u[0] ** 2, 0.0]),
            jacobian=lambda t, u: np.array([[2.0 * u[0]], [-0.0]]))
        return linear_functional(h, power_law_model(truncation=0.05)), cfg, intro_1d(), 3 * 4096 + 7
    if name == "d2":
        scenario = sc.get_scenario("doleans")
        m1 = power_law_first_moment(scenario.model().truncation, alpha=1.0, bound=0.5,
                                    asymmetry=0.5)
        F = sc.DoleansPairFunctional(m1, scenario.eval_time)
        return F, scenario.simulate(seed=4), scenario.bottom, 3 * 4096 + 7
    scenario = sc.get_scenario("levy-area-1")  # d = 3, r = 2
    model = scenario.model()
    F = SdeFunctional(scenario.make_coeffs(model), model, scenario.x0, scenario.step,
                      scenario.eval_time)
    return F, scenario.simulate(seed=4), scenario.bottom, 4096 + 7


GOLDEN_RHO_MC = {
    "d1": ("d839af0700ae3875913eba487053d7c44ed349f3c7ff7269f5e62ad342b72c52",
           "48f1dc5be65ad1f2ffe5cced89cfc970c3e43134ad307f29c9d2e6266c7bc9eb"),
    "d2": ("aae0f13bf0bd621bdc8761b58bcbd8d0d6866f200aacae50dddac2c0a2bac97a",
           "75953627cd4dd5d1b8088a427c59891f982650ab46245e93243659f5ae608325"),
    "d3": ("409d3e179bd66b94530b8d4ce8d02b35c53f83aa8b04cf68ce208752a7d31c5c",
           "4084e0b44fc986cff1b3bb746f526b9f6d9e27daeb06196afa708953553d249f"),
    "zero": ("c598c0e73d93a15dba38da5d13b8315826d3fb5cdf2155643155155ac374543f",
             "e72d3ccd58159c90a6ab981728515af4d8cdc796e425a81a2f3e74dbc0b46008"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RHO_MC))
def test_rho_mc_golden_bits(name):
    import hashlib

    F, cfg, bs, M = _rho_mc_case(name)
    got = gamma_rho_mc(F, cfg, bs, M=M, seed=6)
    assert (hashlib.sha256(got.matrix.tobytes()).hexdigest(),
            hashlib.sha256(got.standard_errors.tobytes()).hexdigest()) == GOLDEN_RHO_MC[name]


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


def test_flow_rendering_switch_rejects_unknown_names():
    _, coeffs, _, traj = _doleans_setup()
    with pytest.raises(InputError, match="rendering"):
        gamma_flow(traj, coeffs, intro_1d(), rendering="left")


def test_sharp_sample_draws_only_a_prefix_of_its_block():
    # draw set 4101 is row 5 of block 1; drawing the block's first six rows
    # gives that row the bits of the whole 4096-row block
    cfg = _config([0.1, 0.3, 0.8], [0.2, -0.35, 0.15])
    bs = intro_1d()
    F = linear_functional(_square_h(), power_law_model(truncation=0.05))
    block = stream(9, DOMAIN_RHO, 1).standard_normal((4096, cfg.n_atoms, 1))
    factors = np.array([[[2.0 * u * abs(u)]] for u in cfg.marks[:, 0]])  # h'(u) sqrt(w(u))
    want = np.einsum("idr,mir->md", factors, block[5:6])[0]
    got = sharp_sample(F, cfg, bs, rho_seed=9, draw_index=4096 + 5)
    assert got.tobytes() == want.tobytes()


# small configurations for the property tests: distinct times, marks inside
# the doleans model's support (0.06 <= |u| < 0.5)
_atom = st.tuples(st.floats(0.01, 1.0), st.floats(0.06, 0.45) | st.floats(-0.45, -0.06))
_atoms = st.lists(_atom, max_size=4, unique_by=lambda a: a[0]).map(sorted)


def _from_atoms(atoms):
    return JumpConfiguration(np.array([t for t, _ in atoms]),
                             np.array([u for _, u in atoms]).reshape(len(atoms), 1), 1.0)


@settings(max_examples=25, deadline=None)
@given(atoms=_atoms)
def test_flow_renderings_agree_on_small_configurations(atoms):
    model, coeffs = power_law_model(truncation=0.05), doleans_coefficients(0.1, 0.5)
    traj = solve_sde(coeffs, model, _from_atoms(atoms), x0=np.array([0.0, 1.0]),
                     step=0.01, flows=True)
    a = gamma_flow(traj, coeffs, intro_1d())
    b = gamma_flow(traj, coeffs, intro_1d(), rendering="remark3")
    assert (a.formula_tag, b.formula_tag) == ("theorem9", "remark3")
    assert [i for i, _ in a.per_jump_terms] == [i for i, _ in b.per_jump_terms]
    assert len(a.per_jump_terms) == len(atoms)
    assert np.abs(a.matrix - b.matrix).max() <= 1e-10 * np.abs(a.matrix).max()


@settings(max_examples=25, deadline=None)
@given(atoms=_atoms, new=st.tuples(st.floats(0.01, 1.0), st.floats(-0.6, 0.6)))
def test_creation_annihilation(atoms, new):
    from lentparticle.poisson_measure import add_particle, remove_particle

    t, u = new
    cfg = _from_atoms(atoms)
    assume(abs(u) > 1e-6 and t not in cfg.times)
    grown = add_particle(cfg, t, [u])
    back = remove_particle(grown, t, [u])
    assert back.times.tobytes() == cfg.times.tobytes()
    assert back.marks.tobytes() == cfg.marks.tobytes()

    # Gamma[N~(h)] grows by exactly the added atom's term
    h, bs = _square_h(), intro_1d()
    before, after = gamma_linear(h, cfg, bs), gamma_linear(h, grown, bs)
    pos = int(np.searchsorted(grown.times, t))
    added = gamma_matrix(h.jac(t, np.array([u]))[None], np.array([[u]]), bs)[0]
    assert after.per_jump_terms[pos][1].tobytes() == added.tobytes()
    kept = [term.tobytes() for i, term in after.per_jump_terms if i != pos]
    assert kept == [term.tobytes() for _, term in before.per_jump_terms]
    assert np.allclose(after.matrix, before.matrix + added, rtol=1e-13, atol=0.0)


def _flow_loop(traj, coeffs, bs, rendering):
    """Gamma[X_T] atom by atom, summed in a running loop: the reference."""
    d = coeffs.dim
    total = np.zeros((d, d))
    for i in traj.jump_rows():
        point = traj.times[i:i + 1], traj.states_left[i:i + 1], traj.config.marks[traj.atom_index[i:i + 1]]
        g = gamma_matrix(coeffs.du_c(*point), point[2], bs)[0]
        if rendering == "theorem9":
            v = traj.inverse_flow[i]
        else:
            jump = np.eye(d) + coeffs.dx_c(*point)[0]
            v = np.linalg.solve(jump.T, traj.inverse_flow_left[i].T).T
        term = v @ g @ v.T
        total = total + 0.5 * (term + term.T)
    k_t = traj.flow[-1]
    mat = k_t @ total @ k_t.T
    return 0.5 * (mat + mat.T)


@pytest.mark.parametrize("rendering", ["theorem9", "remark3"])
def test_flow_assembly_has_the_bits_of_the_atom_loop(rendering):
    # the stacked products and the in-order sum round as a per-atom loop does,
    # for a 2-d state and for 1 x 1 terms (which np.sum would add pairwise)
    model = power_law_model(truncation=0.05)
    m1 = power_law_first_moment(0.05)
    scalar = CoefficientSet(
        dim=1, c=lambda t, x, u: x * u, dx_c=lambda t, x, u: u[:, :, None],
        du_c=lambda t, x, u: x[:, :, None], compensator=lambda t, x: m1 * x,
        dx_compensator=lambda t, x: np.full((len(x), 1, 1), m1),
    )
    cfg = simulate_configuration(model, horizon=1.0, seed=0)
    assert cfg.n_atoms > 16
    for coeffs, x0 in ((doleans_coefficients(m1, 0.5), [0.0, 1.0]), (scalar, [1.0])):
        traj = solve_sde(coeffs, model, cfg, x0=np.array(x0), step=0.01, flows=True)
        got = gamma_flow(traj, coeffs, intro_1d(), rendering=rendering).matrix
        assert got.tobytes() == _flow_loop(traj, coeffs, intro_1d(), rendering).tobytes()


# ------------------------------------------------ central differences


def _inline_central_difference(fn, u):
    """The central difference each mark Jacobian used to inline: the reference."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    r = u.shape[0]
    step = 1e-6 * (1.0 + float(np.linalg.norm(u)))
    columns = []
    for j in range(r):
        bump = np.zeros(r)
        bump[j] = step
        columns.append((fn(u + bump) - fn(u - bump)) / (2.0 * step))
    return np.column_stack(columns)


@pytest.mark.parametrize("r", [1, 2])
def test_mark_function_jac_has_the_bits_of_the_inline_difference(r):
    h = MarkFunction(dim=2, fn=lambda t, u: np.array([np.sin(3.0 * u[0]) * t, np.exp(u @ u)]))
    for u in stream(7, DOMAIN_RHO).uniform(-0.5, 0.5, (20, r)):
        ref = _inline_central_difference(lambda v: h(0.3, v), u)
        assert h.jac(0.3, u).tobytes() == ref.tobytes()


def test_sde_functional_jacobians_have_the_bits_of_the_inline_difference():
    model = power_law_model(truncation=1.0 / 17.0)
    coeffs = doleans_coefficients(power_law_first_moment(1.0 / 17.0), 0.5)
    cfg = _config([0.15, 0.4, 0.55, 0.8], [0.3, -0.2, 0.45, 0.1])
    F = SdeFunctional(coeffs, model, np.array([0.0, 1.0]), step=0.01)
    jacs = F.mark_jacobians(cfg)
    assert len(jacs) == cfg.n_atoms
    for i, jac in enumerate(jacs):
        t, u = cfg.atom(i)
        base = remove_particle(cfg, t, u)
        ref = _inline_central_difference(lambda v: F.value(add_particle(base, t, v)), u)
        assert jac.tobytes() == ref.tobytes()


class _OneCoordinate(MarkFunctional):
    """``sum f(u_i)`` over the atoms, differentiated by central differences."""

    def __init__(self, f):
        self.f = f

    def value(self, config):
        return np.array([np.sum(self.f(config.marks[:, 0]))])


def test_fd_jacobian_names_the_atom_whose_probe_failed():
    # u + step overflows at the largest float: the probe mark is not finite
    F = _OneCoordinate(np.sin)
    with np.errstate(over="ignore"), pytest.raises(
            FunctionalError,
            match="^finite-difference probe failed at atom 1: times and marks must be finite$"):
        gamma_generic(F, _config([0.2, 0.6], [0.3, np.finfo(float).max]), intro_1d())


def test_fd_jacobian_names_the_atom_with_a_non_finite_jacobian():
    # finite values +-1e308 on either side of 0.5 differ by more than the largest float
    F = _OneCoordinate(lambda u: np.where(u > 0.35, 1e308 * np.tanh(1e9 * (u - 0.5)), 0.0))
    cfg = _config([0.2, 0.6], [0.3, 0.5])
    with np.errstate(over="ignore"), pytest.raises(
            FunctionalError, match="^non-finite mark Jacobian at atom 1$"):
        gamma_generic(F, cfg, intro_1d())


def test_mark_function_refuses_a_jacobian_of_the_wrong_size():
    h = MarkFunction(dim=1, fn=lambda t, u: np.array([u[0] + u[1]]),
                     jacobian=lambda t, u: np.array([1.0, 1.0, 1.0]))
    with pytest.raises(FunctionalError, match=r"shape \(1, 2\), got 3 values"):
        h.jac(0.5, np.array([0.2, 0.3]))


_TERM = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-16, -1e-16]),
                  st.floats(-1e6, 1e6))


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 3), counts=st.lists(st.integers(0, 6), max_size=5),
       values=st.lists(_TERM, max_size=40))
@example(d=1, counts=[301], values=[1.0] + [1e-16] * 300)  # one path of 1 x 1 terms
@example(d=3, counts=[2, 400], values=[1.0, 1e-16, -0.0, 1e-16])  # one long path
@example(d=2, counts=[0, 3, 0, 1], values=[-0.0])  # signed zeros and empty paths
@example(d=1, counts=[0], values=[])
@example(d=3, counts=[], values=[])
def test_path_sums_are_python_sums_from_positive_zero_in_atom_order(d, counts, values):
    # a pairwise sum of the first example differs from the one in order
    terms = np.resize(np.array(values or [0.0]), (sum(counts), d, d))
    sums = lent_particle._path_sums(terms, counts)
    want = np.zeros((len(counts), d, d))
    for p, first in enumerate(np.cumsum(counts) - counts):
        for i in range(d):
            for j in range(d):
                total = 0.0
                for term in terms[first:first + counts[p]]:
                    total = total + float(term[i, j])
                want[p, i, j] = total
    assert sums.shape == want.shape and sums.tobytes() == want.tobytes()


def test_path_sums_add_in_atom_order_from_positive_zero():
    # 1 + 1e-16 + 1e-16 + ... in order stays 1; a sum of negative zeros is +0
    terms = np.array([[[1.0]], [[1e-16]], [[1e-16]], [[-0.0]], [[-0.0]], [[-0.0]]])
    sums = lent_particle._path_sums(terms, [3, 0, 1, 2])
    assert sums[:, 0, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert not np.signbit(sums).any()
