import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from lentparticle.errors import (
    ConfigurationError,
    DomainError,
    InputError,
    ModelError,
    NumericError,
)
from lentparticle.expressions import compile_coefficient
from lentparticle.poisson_measure import (
    JumpConfiguration,
    MarkQuadrature,
    add_particle,
    compensated_integral,
    remove_particle,
    simulate_configuration,
    simulate_configurations,
)
from lentparticle.scenarios import (
    graph_levy_model,
    polar_first_moment,
    polar_levy_model,
    power_law_first_moment,
    power_law_mass,
    power_law_model,
    power_law_second_moment,
    uniform_box_model,
)


def _small_config():
    times = np.array([0.2, 0.5, 0.9])
    marks = np.array([[0.3], [-0.2], [0.1]])
    return JumpConfiguration(times, marks, horizon=1.0)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_expected_atom_count_checked_before_drawing(monkeypatch):
    import lentparticle.poisson_measure as pm

    def no_draws(*args, **kwargs):
        raise AssertionError("the random stream was opened")

    model = power_law_model(1e-9)  # mass about 2e9
    monkeypatch.setattr(pm, "stream", no_draws)
    with pytest.raises(InputError, match="expected atom count"):
        simulate_configuration(model, horizon=1.0, seed=0)


def test_simulate_deterministic():
    model = power_law_model(0.05)
    a = simulate_configuration(model, 1.0, 42)
    b = simulate_configuration(model, 1.0, 42)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.marks, b.marks)


def test_simulate_seed_sensitivity():
    model = power_law_model(0.05)
    a = simulate_configuration(model, 1.0, 1)
    b = simulate_configuration(model, 1.0, 2)
    assert a.n_atoms != b.n_atoms or not np.array_equal(a.marks, b.marks)


def test_simulate_respects_truncation_and_horizon():
    model = power_law_model(0.08, bound=0.5)
    cfg = simulate_configuration(model, 2.0, 11)
    assert np.all(np.abs(cfg.marks[:, 0]) > 0.08)
    assert np.all(np.abs(cfg.marks[:, 0]) < 0.5)
    assert np.all(cfg.times > 0.0)
    assert np.all(cfg.times <= 2.0)
    assert np.all(np.diff(cfg.times) > 0.0)


def test_count_distribution_chi_square():
    # jump counts over horizon 1 must follow Poisson(mass); chi-square
    # goodness of fit at the 1% level across 10^4 independent seeds
    model = uniform_box_model(1, halfwidth=1.0, truncation=0.5, intensity=2.0)
    lam = model.mass  # 2.0
    n_seeds = 10_000
    counts = np.array([
        simulate_configuration(model, 1.0, s).n_atoms for s in range(n_seeds)
    ])
    k_max = 7
    observed = np.bincount(np.minimum(counts, k_max), minlength=k_max + 1)
    pmf = np.array([stats.poisson.pmf(k, lam) for k in range(k_max)])
    expected = np.append(pmf, 1.0 - pmf.sum()) * n_seeds
    assert expected.min() > 5.0
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    assert statistic < stats.chi2.ppf(0.99, k_max)


def test_sampler_violating_support_rejected():
    base = uniform_box_model(1, halfwidth=1.0, truncation=0.5)
    bad = uniform_box_model(1, halfwidth=1.0, truncation=0.5)
    object.__setattr__(bad, "sampler", lambda rngs, counts: np.zeros((sum(counts), 1)))
    with pytest.raises(ModelError):
        simulate_configuration(bad, 1.0, 3)
    # the untouched model still simulates
    simulate_configuration(base, 1.0, 3)


def test_sampler_mark_outside_the_support_is_named_by_row():
    model = uniform_box_model(1, halfwidth=1.0, truncation=0.5, intensity=4.0)

    def sampler(rngs, counts):
        out = np.full((sum(counts), 1), 0.7)
        out[2:3] = 1.5
        return out

    bad = dataclasses.replace(model, sampler=sampler)
    assert simulate_configuration(model, 2.0, 3).n_atoms > 2
    with pytest.raises(ModelError, match="outside the support at mark 2$"):
        simulate_configuration(bad, 2.0, 3)


_BATCH_MODELS = {
    **{f"power-law-{a}": (lambda a=a: power_law_model(0.05, alpha=a)) for a in (0.7, 1.0, 1.5)},
    "uniform-1d": lambda: uniform_box_model(1, halfwidth=1.0, truncation=0.5, intensity=2.0),
    "uniform-2d": lambda: uniform_box_model(2, halfwidth=0.6, truncation=0.1, intensity=4.0),
    **{f"polar-{a}": (lambda a=a: polar_levy_model(0.02, a)) for a in (0.0, 0.5, 0.95)},
    "graph": lambda: graph_levy_model(0.04),
}


@pytest.mark.parametrize("mean_atoms", [1.5, 20.0])
@pytest.mark.parametrize("name", list(_BATCH_MODELS))
def test_batch_draws_the_bits_of_each_seed_alone(name, mean_atoms):
    model = _BATCH_MODELS[name]()
    horizon = mean_atoms / model.mass
    seeds = list(range(100, 140 if mean_atoms < 2 else 112))
    batch = simulate_configurations(model, horizon, seeds)
    assert len(batch) == len(seeds)
    counts = [config.n_atoms for config in batch]
    if mean_atoms < 2:
        assert 0 in counts and max(counts) > 1  # paths without atoms sit inside the batch
    for seed, config in zip(seeds, batch):
        alone = simulate_configuration(model, horizon, seed)
        assert config.times.tobytes() == alone.times.tobytes()
        assert config.marks.tobytes() == alone.marks.tobytes()
        assert config == JumpConfiguration(alone.times, alone.marks, horizon)
        assert not config.times.flags.writeable and not config.marks.flags.writeable
    assert simulate_configurations(model, horizon, []) == []


# simulate_configurations pinned byte for byte: sha256 of the atom counts,
# then each path's times and marks, over the 64 paths of a rank sweep at
# seed 7, for the models of the shipped scenarios and the README uniform box
GOLDEN_BATCHES = {
    "polar": (lambda: polar_levy_model(0.008),
              "e96ee0b4b4c306e3c36117f6344ec9e35bf3d3b4070b0f8203ccb254804813ff"),
    "power-law": (lambda: power_law_model(1.0 / 17.0),
                  "e31fe5d219ce29fe5b0664a1d646c41332c825eb955cd5b3a2709c42562c0088"),
    "graph": (lambda: graph_levy_model(1.0 / 17.0),
              "d1903af58dbf1c1b95d69e0dec713852d42ec77075f3f673bc868b5e2f231078"),
    "uniform-2d": (lambda: uniform_box_model(2, halfwidth=0.6, truncation=0.1, intensity=4.0),
                   "505d3c7ad14dee8f0646254242d504a961311d29868c231b9ae405590812c92f"),
}


@pytest.mark.parametrize("name", list(GOLDEN_BATCHES))
def test_batch_golden_bits(name):
    from lentparticle.rng import path_seeds

    make, want = GOLDEN_BATCHES[name]
    configs = simulate_configurations(make(), 1.0, path_seeds(7, 64))
    digest = hashlib.sha256(np.array([config.n_atoms for config in configs]).tobytes())
    for config in configs:
        digest.update(config.times.tobytes())
        digest.update(config.marks.tobytes())
    assert digest.hexdigest() == want


@pytest.mark.parametrize("bad, message", [
    (1.5, "sampler returned a mark outside the support"),
    (0.2, "sampler returned a mark inside the truncation ball"),
    (math.nan, "sampler returned a non-finite mark"),
], ids=["support", "ball", "finite"])
def test_sampler_fault_in_a_batch_is_named_by_path_and_row(bad, message):
    model = uniform_box_model(1, halfwidth=1.0, truncation=0.5, intensity=4.0)
    seeds = [3, 4, 5, 6]
    counts = [config.n_atoms for config in simulate_configurations(model, 2.0, seeds)]
    assert counts[2] > 4

    def sampler(rngs, n):
        assert list(n) == counts
        out = np.full((sum(n), 1), 0.7)
        out[n[0] + n[1] + 4] = bad
        return out

    bad_model = dataclasses.replace(model, sampler=sampler)
    with pytest.raises(ModelError, match=f"^path 2: {message} at mark 4$"):
        simulate_configurations(bad_model, 2.0, seeds)


def test_atom_times_outside_the_window_are_named_by_path_and_row(monkeypatch):
    import lentparticle.poisson_measure as pm

    class Late:
        """A stream whose uniform times all land past the horizon."""

        def __init__(self, g):
            self.g = g

        def __getattr__(self, name):
            return getattr(self.g, name)

        def uniform(self, lo, hi, n):
            return self.g.uniform(lo, hi, n) + hi

    real = pm.stream
    monkeypatch.setattr(pm, "stream", lambda seed, *domain: (
        Late(real(seed, *domain)) if seed == 6 else real(seed, *domain)))
    with pytest.raises(ConfigurationError, match="^path 1: atom times .* at mark 0$"):
        simulate_configurations(power_law_model(0.05), 1.0, [5, 6])



class _Wrapped:
    """A stream that passes every call through to ``g``, but changes the
    result of the first call of ``name`` with ``change``."""

    def __init__(self, g, name, change):
        self.g, self.name, self.change = g, name, change

    def __getattr__(self, name):
        draw = getattr(self.g, name)
        if name != self.name or self.change is None:
            return draw
        change, self.change = self.change, None
        return lambda *args: change(draw(*args))


def _wrap_one_stream(monkeypatch, seed, name, change):
    import lentparticle.poisson_measure as pm

    real = pm.stream
    monkeypatch.setattr(pm, "stream", lambda s, *domain: (
        _Wrapped(real(s, *domain), name, change) if s == seed else real(s, *domain)))


def _only_one_path_changed(batch, seeds, model, horizon, changed):
    """Every path but the one of seed ``changed`` has the bits of its seed
    alone; that one has other marks."""
    for seed, config in zip(seeds, batch):
        alone = simulate_configuration(model, horizon, seed)
        if seed == changed:
            assert config.marks.tobytes() != alone.marks.tobytes()
        else:
            assert config.times.tobytes() == alone.times.tobytes()
            assert config.marks.tobytes() == alone.marks.tobytes()


class _Scripted:
    """A stream whose ``random`` calls return the given arrays in turn."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, n):
        out = self.draws.pop(0)
        assert out.shape == (n,)
        return out


def test_a_path_with_tied_times_redraws_them_on_its_own_stream(monkeypatch):
    from lentparticle.rng import DOMAIN_ATOMS, stream

    model, horizon, seeds, tied = power_law_model(0.05), 1.0, [5, 6, 7, 8], 7

    def tie(t):
        t[1] = t[0]
        return t

    _wrap_one_stream(monkeypatch, tied, "uniform", tie)
    batch = simulate_configurations(model, horizon, seeds)
    # a fresh stream: its count, the discarded times, the redrawn times and
    # then the draws of its marks
    g = stream(tied, DOMAIN_ATOMS)
    n = int(g.poisson(model.mass * horizon))
    g.uniform(0.0, horizon, n)
    times = np.sort(g.uniform(0.0, horizon, n))
    marks = model.sampler([g], [n])
    got = batch[seeds.index(tied)]
    assert n > 2 and got.times.tobytes() == times.tobytes()
    assert got.marks.tobytes() == marks.tobytes()
    monkeypatch.undo()
    _only_one_path_changed(batch, seeds, model, horizon, tied)


def test_a_zero_uniform_is_redrawn_before_its_stream_draws_again(monkeypatch):
    from lentparticle.rng import DOMAIN_ATOMS, stream

    model, horizon, seeds, zeroed = power_law_model(0.05), 1.0, [5, 6, 7, 8], 6

    def zero(v):
        v[1] = 0.0
        return v

    # the first random call of the power-law sampler draws the magnitudes
    _wrap_one_stream(monkeypatch, zeroed, "random", zero)
    batch = simulate_configurations(model, horizon, seeds)
    # a fresh stream: its count and times, the magnitude draws with the
    # zeroed one replaced by the next draw, and then the sign draws
    g = stream(zeroed, DOMAIN_ATOMS)
    n = int(g.poisson(model.mass * horizon))
    times = np.sort(g.uniform(0.0, horizon, n))
    magnitudes = g.random(n)
    magnitudes[1] = g.random(1)[0]
    marks = model.sampler([_Scripted([magnitudes, g.random(n)])], [n])
    got = batch[seeds.index(zeroed)]
    assert n > 2 and got.times.tobytes() == times.tobytes()
    assert got.marks.tobytes() == marks.tobytes()
    monkeypatch.undo()
    _only_one_path_changed(batch, seeds, model, horizon, zeroed)

# ---------------------------------------------------------------------------
# batched model callables against the per-mark formulas they replaced
# ---------------------------------------------------------------------------

def _power_law_reference(alpha, bound, asymmetry):
    def density(u):
        x = float(u[0])
        return (1.0 + asymmetry * np.sign(x)) * abs(x) ** (-1.0 - alpha)

    return (lambda u: 0.0 < abs(float(u[0])) < bound), density


def _uniform_reference(halfwidth, intensity):
    return (lambda u: bool(float(u @ u) > 0.0 and np.all(np.abs(u) < halfwidth)),
            lambda u: float(intensity))


def _polar_reference(a):
    def density(u):
        rho2 = float(u @ u)
        theta = math.atan2(float(u[1]), float(u[0]))
        return (1.0 + a * math.cos(theta)) / rho2

    return (lambda u: 0.0 < float(u @ u) < 1.0), density


def _graph_reference(alpha, bound, asymmetry):
    _, base_density = _power_law_reference(alpha, bound, asymmetry)

    def support(u):
        z = float(u[0])
        if not (0.0 < abs(z) < bound):
            return False
        return abs(float(u[1]) - z * z) <= 1e-9 * (1.0 + float(np.linalg.norm(u)))

    return support, (lambda u: base_density(u[:1]))


def _graph_marks(g, n):
    z = g.uniform(-0.6, 0.6, n)
    off = g.choice([0.0, 1e-10, 1e-9, 1e-3], n) * g.choice([-1.0, 1.0], n)
    return np.column_stack([z, z * z + off])


_CONTRACT_CASES = {
    "power-law-1": (lambda: power_law_model(0.05, 1.0, 0.5, 0.5),
                    lambda: _power_law_reference(1.0, 0.5, 0.5),
                    lambda g, n: g.uniform(-0.6, 0.6, (n, 1))),
    "power-law-1.37": (lambda: power_law_model(0.05, 1.37, 0.4, -0.3),
                       lambda: _power_law_reference(1.37, 0.4, -0.3),
                       lambda g, n: g.uniform(-0.5, 0.5, (n, 1))),
    "uniform-1d": (lambda: uniform_box_model(1, 0.6, 0.1, 4.0),
                   lambda: _uniform_reference(0.6, 4.0),
                   lambda g, n: g.uniform(-0.7, 0.7, (n, 1))),
    "uniform-2d": (lambda: uniform_box_model(2, 0.6, 0.1, 4.0),
                   lambda: _uniform_reference(0.6, 4.0),
                   lambda g, n: g.uniform(-0.7, 0.7, (n, 2))),
    "polar": (lambda: polar_levy_model(0.05, 0.5),
              lambda: _polar_reference(0.5),
              lambda g, n: g.uniform(-1.1, 1.1, (n, 2))),
    "graph": (lambda: graph_levy_model(0.05, 1.2, 0.5, 0.5),
              lambda: _graph_reference(1.2, 0.5, 0.5),
              _graph_marks),
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_CASES))
def test_batched_model_callables_have_the_per_mark_bits(name):
    make_model, make_reference, draw = _CONTRACT_CASES[name]
    model, (support, density) = make_model(), make_reference()
    marks = draw(np.random.default_rng(17), 2_000)
    inside = np.array([support(u) for u in marks])
    assert 0 < inside.sum() < len(marks)
    assert model.support(marks).tolist() == inside.tolist()
    want = np.array([float(density(u)) for u in marks[inside]])
    assert model.density(marks[inside]).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# creation / annihilation
# ---------------------------------------------------------------------------

def test_add_particle_inserts_sorted():
    cfg = _small_config()
    out = add_particle(cfg, 0.7, np.array([0.4]))
    assert out.n_atoms == 4
    assert np.all(np.diff(out.times) > 0)
    assert out.index_of(0.7, np.array([0.4])) == 2


def test_add_particle_idempotent_on_existing_atom():
    cfg = _small_config()
    out = add_particle(cfg, 0.5, np.array([-0.2]))
    assert out is cfg


def test_add_particle_time_collision_distinct_mark():
    cfg = _small_config()
    with pytest.raises(ConfigurationError):
        add_particle(cfg, 0.5, np.array([0.9]))


def test_add_particle_outside_time_domain():
    cfg = _small_config()
    with pytest.raises(DomainError):
        add_particle(cfg, 0.0, np.array([0.1]))
    with pytest.raises(DomainError):
        add_particle(cfg, 1.5, np.array([0.1]))


def test_remove_particle_total():
    cfg = _small_config()
    gone = remove_particle(cfg, 0.5, np.array([-0.2]))
    assert gone.n_atoms == 2
    assert gone.index_of(0.5, np.array([-0.2])) is None
    # removing an absent atom is a no-op, not an error
    same = remove_particle(cfg, 0.33, np.array([0.7]))
    assert same is cfg


def test_subset_matches_validating_constructor():
    cfg = simulate_configuration(polar_levy_model(0.05), 1.0, 8)
    norms = np.linalg.norm(cfg.marks, axis=1)
    for keep in (norms > 0.2, np.zeros(cfg.n_atoms, dtype=bool), np.ones(cfg.n_atoms, dtype=bool)):
        sub = cfg._subset(keep)
        want = JumpConfiguration(cfg.times[keep], cfg.marks[keep], cfg.horizon)
        assert sub == want
        assert type(sub.horizon) is float
        assert not sub.times.flags.writeable and not sub.marks.flags.writeable


def test_removed_and_restricted_configurations_stay_read_only():
    from lentparticle.scenarios import get_scenario

    cfg = _small_config()
    gone = remove_particle(cfg, 0.5, np.array([-0.2]))
    assert gone == JumpConfiguration(np.array([0.2, 0.9]), np.array([[0.3], [0.1]]), 1.0)
    (coarse,) = get_scenario("doleans").restrict([cfg], 0.15)
    assert coarse == JumpConfiguration(np.array([0.2, 0.5]), np.array([[0.3], [-0.2]]), 1.0)
    for sub in (gone, coarse):
        with pytest.raises(ValueError):
            sub.times[0] = 0.1
        with pytest.raises(ValueError):
            sub.marks[0, 0] = 0.1


def test_add_then_remove_roundtrip():
    cfg = _small_config()
    added = add_particle(cfg, 0.42, np.array([0.25]))
    back = remove_particle(added, 0.42, np.array([0.25]))
    assert np.array_equal(back.times, cfg.times)
    assert np.array_equal(back.marks, cfg.marks)


# ---------------------------------------------------------------------------
# quadrature against closed forms
# ---------------------------------------------------------------------------

def _mark_integral(f, model):
    """int f(u) k(u) du of a scalar f by the batched mark-space quadrature."""
    return float(MarkQuadrature(model).integrate(lambda marks: f(marks)[:, None])[0])


def test_mark_integral_uniform_mass():
    model = uniform_box_model(1, halfwidth=1.0, truncation=0.25, intensity=3.0)
    got = _mark_integral(lambda u: np.ones(len(u)), model)
    assert got == pytest.approx(3.0 * 2.0 * 0.75, rel=1e-10)


def test_mark_integral_power_law_moments():
    eps, alpha, bound, asym = 0.04, 1.0, 0.5, 0.5
    model = power_law_model(eps, alpha, bound, asym)
    assert _mark_integral(lambda u: np.ones(len(u)), model) == pytest.approx(
        power_law_mass(eps, alpha, bound), rel=1e-9)
    assert _mark_integral(lambda u: u[:, 0], model) == pytest.approx(
        power_law_first_moment(eps, alpha, bound, asym), rel=1e-9)


def test_mark_integral_polar_mass():
    eps = 0.05
    model = polar_levy_model(eps, angular_coefficient=0.5)
    got = _mark_integral(lambda u: np.ones(len(u)), model)
    assert got == pytest.approx(2.0 * np.pi * np.log(1.0 / eps), rel=1e-7)


_QUADRATURE_MODELS = {
    "uniform-1d": lambda: uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0),
    "uniform-2d": lambda: uniform_box_model(2, halfwidth=0.6, truncation=0.1, intensity=4.0),
    "power-law": lambda: power_law_model(0.05, alpha=1.5, bound=0.5, asymmetry=-0.3),
    "polar": lambda: polar_levy_model(0.05, angular_coefficient=0.5),
}

# mass, first moments and second moments (int u_j^2 k du) of each model above
_CLOSED_MOMENTS = {
    "uniform-1d": (4.0 * 2.0 * 0.5, [0.0], [8.0 * (0.6 ** 3 - 0.1 ** 3) / 3.0]),
    "uniform-2d": (4.0 * (1.44 - 0.01 * np.pi), [0.0, 0.0],
                   [4.0 * (4.0 * 0.6 ** 4 / 3.0 - np.pi * 0.1 ** 4 / 4.0)] * 2),
    "power-law": (power_law_mass(0.05, 1.5, 0.5),
                  [power_law_first_moment(0.05, 1.5, 0.5, -0.3)],
                  [power_law_second_moment(0.05, 1.5, 0.5)]),
    "polar": (2.0 * np.pi * np.log(1.0 / 0.05), list(polar_first_moment(0.05, 0.5)),
              [np.pi * (1.0 - 0.05 ** 2) / 2.0] * 2),
}


@pytest.mark.parametrize("name", sorted(_QUADRATURE_MODELS))
def test_batched_quadrature_matches_mark_integral_moments(name):
    model = _QUADRATURE_MODELS[name]()
    mass, first, second = _CLOSED_MOMENTS[name]
    got = MarkQuadrature(model).integrate(
        lambda marks: np.column_stack([np.ones(len(marks)), marks, marks ** 2]))
    # first moments that vanish by symmetry are compared on the mass's scale
    assert got.tolist() == pytest.approx([mass] + first + second, rel=1e-10, abs=1e-10 * mass)


@pytest.mark.parametrize("r, want", [(1, 8.0 * 0.026 / 3.0), (2, 0.008 * np.pi)],
                         ids=["1", "2"])
def test_batched_quadrature_matches_mark_integral_across_indicator(r, want):
    # int u1^2 1(|u| < 0.3) k du over 0.1 < |u| < 0.3, intensity 4
    model = uniform_box_model(r, halfwidth=0.6, truncation=0.1, intensity=4.0)
    c = compile_coefficient(["u1^2 * ind(0.3)"], 1, r)
    got = MarkQuadrature(model).integrate(
        lambda marks: c(np.zeros(len(marks)), np.zeros((len(marks), 1)), marks))
    assert got[0] == pytest.approx(want, rel=1e-10)


def test_batched_quadrature_calls_the_model_at_most_once_per_pass():
    model = uniform_box_model(2, halfwidth=0.6, truncation=0.1, intensity=4.0)
    calls = {"f": 0, "support": 0, "density": 0}

    def counted(name, fn):
        def call(marks):
            calls[name] += 1
            return fn(marks)
        return call

    model = dataclasses.replace(model, support=counted("support", model.support),
                                density=counted("density", model.density))
    c = compile_coefficient(["u1^2 * ind(0.3)"], 1, 2)
    MarkQuadrature(model).integrate(
        counted("f", lambda marks: c(np.zeros(len(marks)), np.zeros((len(marks), 1)), marks)))
    assert 0 < calls["support"] <= calls["f"]
    assert 0 < calls["density"] <= calls["f"]


def test_quadrature_of_a_model_whose_support_holds_no_node_is_refused():
    # the parabola carrying the graph model's marks has zero area
    model = graph_levy_model(0.05)
    assert model.mass == pytest.approx(36.0)
    with pytest.raises(DomainError, match="support of model 'graph' of mass 36"):
        MarkQuadrature(model).integrate(lambda marks: np.ones((len(marks), 1)))



def test_quadrature_of_a_2d_box_without_the_origin_is_refused():
    # rays from the origin cannot cover a box away from it
    model = dataclasses.replace(uniform_box_model(2, halfwidth=0.6, truncation=0.1, intensity=4.0),
                                bounding_box=[[0.2, 0.6], [0.2, 0.6]])
    with pytest.raises(DomainError, match=r"must contain it, got \[\[0.2, 0.6\], \[0.2, 0.6\]\]"):
        MarkQuadrature(model)

@pytest.mark.parametrize("name, result", [
    ("support", lambda marks: np.ones((len(marks), 1), dtype=bool)),
    ("density", lambda marks: 1.0),
], ids=["support", "density"])
def test_model_result_of_the_wrong_shape_is_refused(name, result):
    model = dataclasses.replace(
        uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0), **{name: result})
    with pytest.raises(ModelError, match=f"{name} must give shape"):
        MarkQuadrature(model).integrate(lambda marks: np.ones((len(marks), 1)))


def test_batched_quadrature_smooth_integrand_takes_one_pass():
    model = uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0)
    batches = []

    def f(marks):
        batches.append(len(marks))
        return np.column_stack([marks[:, 0] ** 3, np.ones(len(marks))])

    got = MarkQuadrature(model).integrate(f)
    assert batches == [42]  # quad's first pass: 21 nodes on each side of the ball
    assert got.tolist() == pytest.approx([0.0, 4.0], abs=1e-14)


@pytest.mark.parametrize("f, message", [
    # bounded: refined up to the panel cap
    (lambda marks: np.sin(1.0 / (marks - 0.3501)), "^mark-space quadrature did not converge"),
    # not integrable: overflows, and is refused as such
    (lambda marks: 1.0 / (marks - 0.35) ** 2, "^mark-space integral is not finite$"),
], ids=["oscillating", "singular"])
def test_batched_quadrature_unresolved_integrand_raises(f, message):
    model = uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0)
    with pytest.raises(NumericError, match=message), np.errstate(divide="ignore"):
        MarkQuadrature(model).integrate(f)


def test_batched_quadrature_names_the_first_integrand_that_is_not_finite():
    model = uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0)
    poles = np.array([2.0, 0.35, 0.35])  # integrands 1 and 2 are not integrable

    def f(index, marks):
        return 1.0 / (marks - poles[index, None]) ** 2

    with pytest.raises(NumericError, match="^mark-space integral is not finite$") as caught, \
            np.errstate(divide="ignore"):
        MarkQuadrature(model).integrate_each(f, 3)
    assert caught.value.index == 1


def _member_integrands(r):
    """A batch of integrands f_i(u) = (exp(w_i u1), u1^2 1(|u| < a_i)): smooth, and
    across an indicator whose radius needs its own refinement for each member."""
    w, a = np.array([0.5, -1.0, 2.0, 0.0]), np.array([0.3, 0.45, 0.2, 0.6])

    def f(index, marks):
        inside = np.linalg.norm(marks, axis=1) < a[index]
        return np.column_stack([np.exp(w[index] * marks[:, 0]), inside * marks[:, 0] ** 2])

    return f, len(w)


@pytest.mark.parametrize("name", ["uniform-1d", "uniform-2d", "polar"])
def test_batch_of_integrands_gives_each_single_call_bit_for_bit(name):
    model = _QUADRATURE_MODELS[name]()
    f, n = _member_integrands(model.mark_dimension)
    batch = MarkQuadrature(model).integrate_each(f, n)
    assert batch.shape == (n, 2)
    for i in range(n):
        single = MarkQuadrature(model).integrate(lambda marks: f(np.full(len(marks), i), marks))
        assert batch[i].tobytes() == single.tobytes()


def test_batch_with_a_member_that_does_not_converge_raises_its_single_call_error():
    model = uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0)
    smooth, _ = _member_integrands(1)

    def f(index, marks):
        values = smooth(index, marks)
        bad = index == 2
        values[bad, 1] = np.sin(1.0 / (marks[bad, 0] - 0.3501))
        return values

    with pytest.raises(NumericError, match="did not converge") as single:
        MarkQuadrature(model).integrate(lambda marks: f(np.full(len(marks), 2), marks))
    with pytest.raises(NumericError) as batch:
        MarkQuadrature(model).integrate_each(f, 4)
    assert str(batch.value) == str(single.value)


# the quadrature's bits pinned: sha256 of the result's bytes
def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()


@pytest.mark.parametrize("r, want", [
    (1, "a8b2f70d6f34006a08fccde01fbd621801684e56351bc2ed75b30adc7775a69a"),
    (2, "3d717342e39f750263de164032b3175a51abf6524b5d919e92eed8226aa04d48"),
], ids=["1", "2"])
def test_quadrature_across_indicator_golden_bits(r, want):
    model = uniform_box_model(r, halfwidth=0.6, truncation=0.1, intensity=4.0)
    c = compile_coefficient(["u1^2 * ind(0.3)"], 1, r)
    got = MarkQuadrature(model).integrate(
        lambda marks: c(np.zeros(len(marks)), np.zeros((len(marks), 1)), marks))
    assert _digest(got) == want


def test_quadrature_polar_moments_golden_bits():
    model = polar_levy_model(0.05, angular_coefficient=0.5)
    got = MarkQuadrature(model).integrate(
        lambda marks: np.column_stack([np.ones(len(marks)), marks, marks ** 2]))
    assert _digest(got) == "6ff946f1ad71cc041a10b28208486050db9f5c28d20caaf6bd0c82d9c3daa092"


# ---------------------------------------------------------------------------
# compensated integrals
# ---------------------------------------------------------------------------

def test_compensated_integral_linearity():
    model = power_law_model(0.05)
    cfg = simulate_configuration(model, 1.0, 9)
    h1 = lambda t, u: float(u[0])
    h2 = lambda t, u: float(u[0]) ** 2 + t
    a, b = 1.7, -0.6

    [combo] = compensated_integral(cfg, lambda t, u: a * h1(t, u) + b * h2(t, u), model)
    [part1], [part2] = compensated_integral(cfg, h1, model), compensated_integral(cfg, h2, model)
    assert combo == pytest.approx(a * part1 + b * part2, rel=1e-12, abs=1e-12)


def test_compensated_integral_closed_form_route():
    # one vector-valued call: the compensators of u, u^2 and 1 are m1 t, m2 t
    # and mass t
    eps, alpha, bound, asym = 0.05, 1.0, 0.5, 0.5
    model = power_law_model(eps, alpha, bound, asym)
    cfg = simulate_configuration(model, 1.0, 21)
    got = compensated_integral(cfg, lambda t, u: [u[0], u[0] ** 2, 1.0], model, t=0.7)
    marks = cfg.marks[cfg.times <= 0.7, 0]
    want = [marks.sum() - 0.7 * power_law_first_moment(eps, alpha, bound, asym),
            (marks ** 2).sum() - 0.7 * power_law_second_moment(eps, alpha, bound),
            marks.size - 0.7 * power_law_mass(eps, alpha, bound)]
    assert got.shape == (3,)
    assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_compensated_integral_golden_bits():
    model = power_law_model(0.05, alpha=1.0, bound=0.5, asymmetry=0.5)
    cfg = simulate_configuration(model, 1.0, 21)
    got = compensated_integral(cfg, lambda t, u: [u[0], u[0] ** 2, 1.0], model, t=0.7)
    assert _digest(got) == "7b8824e520a174f743165cfdbaf31b8f9c0a3842e6a800201e048bc47f220613"
    model = power_law_model(0.05)
    cfg = simulate_configuration(model, 1.0, 9)
    got = compensated_integral(cfg, lambda t, u: [float(u[0]) ** 2 + t], model)
    assert _digest(got) == "1e92a1e17d9e584ce71f6607a32329bdbd92bd1d66a5c2a5d8c198829cc57327"


def test_compensated_integral_prefix_time():
    model = power_law_model(0.05)
    cfg = simulate_configuration(model, 1.0, 5)
    [half] = compensated_integral(cfg, lambda t, u: 1.0, model, t=0.5)
    n_half = int(np.sum(cfg.times <= 0.5))
    assert half == pytest.approx(n_half - model.mass * 0.5, rel=1e-9)


def test_configuration_validation():
    with pytest.raises(ConfigurationError):
        JumpConfiguration(np.array([0.5, 0.2]), np.array([[1.0], [1.0]]), 1.0)
    with pytest.raises(ConfigurationError):
        JumpConfiguration(np.array([0.5]), np.array([[0.0]]), 1.0)
    with pytest.raises(ConfigurationError):
        JumpConfiguration(np.array([1.5]), np.array([[0.1]]), 1.0)
