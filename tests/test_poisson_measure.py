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
from lentparticle.expressions import compile_coefficient, compile_mark_scalar
from lentparticle.poisson_measure import (
    JumpConfiguration,
    MarkQuadrature,
    add_particle,
    compensated_integral,
    mark_integral,
    read_configuration_csv,
    remove_particle,
    simulate_configuration,
    write_configuration_csv,
)
from lentparticle.scenarios import (
    polar_levy_model,
    power_law_first_moment,
    power_law_mass,
    power_law_model,
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
    object.__setattr__(bad, "sampler", lambda rng, n: np.zeros((n, 1)))
    with pytest.raises(ModelError):
        simulate_configuration(bad, 1.0, 3)
    # the untouched model still simulates
    simulate_configuration(base, 1.0, 3)


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


def test_add_then_remove_roundtrip():
    cfg = _small_config()
    added = add_particle(cfg, 0.42, np.array([0.25]))
    back = remove_particle(added, 0.42, np.array([0.25]))
    assert np.array_equal(back.times, cfg.times)
    assert np.array_equal(back.marks, cfg.marks)


# ---------------------------------------------------------------------------
# quadrature against closed forms
# ---------------------------------------------------------------------------

def test_mark_integral_uniform_mass():
    model = uniform_box_model(1, halfwidth=1.0, truncation=0.25, intensity=3.0)
    got = mark_integral(lambda u: 1.0, model)
    assert got == pytest.approx(3.0 * 2.0 * 0.75, rel=1e-10)


def test_mark_integral_power_law_moments():
    eps, alpha, bound, asym = 0.04, 1.0, 0.5, 0.5
    model = power_law_model(eps, alpha, bound, asym)
    assert mark_integral(lambda u: 1.0, model) == pytest.approx(
        power_law_mass(eps, alpha, bound), rel=1e-9)
    assert mark_integral(lambda u: float(u[0]), model) == pytest.approx(
        power_law_first_moment(eps, alpha, bound, asym), rel=1e-9)


def test_mark_integral_polar_mass():
    eps = 0.05
    model = polar_levy_model(eps, angular_coefficient=0.5)
    got = mark_integral(lambda u: 1.0, model)
    assert got == pytest.approx(2.0 * np.pi * np.log(1.0 / eps), rel=1e-7)


def test_mark_integral_radial_shell():
    model = uniform_box_model(1, halfwidth=1.0, truncation=0.0, intensity=1.0)
    got = mark_integral(lambda u: 1.0, model, lower_radius=0.25, upper_radius=0.5)
    assert got == pytest.approx(2.0 * 0.25, rel=1e-10)


_QUADRATURE_MODELS = {
    "uniform-1d": lambda: uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0),
    "uniform-2d": lambda: uniform_box_model(2, halfwidth=0.6, truncation=0.1, intensity=4.0),
    "power-law": lambda: power_law_model(0.05, alpha=1.5, bound=0.5, asymmetry=-0.3),
    "polar": lambda: polar_levy_model(0.05, angular_coefficient=0.5),
}


@pytest.mark.parametrize("name", sorted(_QUADRATURE_MODELS))
def test_batched_quadrature_matches_mark_integral_moments(name):
    model = _QUADRATURE_MODELS[name]()
    r = model.mark_dimension
    moments = [lambda u: 1.0]
    moments += [lambda u, j=j: float(u[j]) for j in range(r)]
    moments += [lambda u, j=j: float(u[j]) ** 2 for j in range(r)]
    got = MarkQuadrature(model).integrate(
        lambda marks: np.column_stack([np.ones(len(marks)), marks, marks ** 2]))
    want = [mark_integral(f, model) for f in moments]
    # first moments that vanish by symmetry are compared on the mass's scale
    assert got.tolist() == pytest.approx(want, rel=1e-10, abs=1e-10 * want[0])


@pytest.mark.parametrize("r", [1, 2])
def test_batched_quadrature_matches_mark_integral_across_indicator(r):
    model = uniform_box_model(r, halfwidth=0.6, truncation=0.1, intensity=4.0)
    c = compile_coefficient(["u1^2 * ind(0.3)"], 1, r)
    got = MarkQuadrature(model).integrate(
        lambda marks: c(np.zeros(len(marks)), np.zeros((len(marks), 1)), marks))
    want = mark_integral(compile_mark_scalar("u1^2 * ind(0.3)", r), model)
    assert got[0] == pytest.approx(want, rel=1e-10)


def test_batched_quadrature_smooth_integrand_takes_one_pass():
    model = uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0)
    batches = []

    def f(marks):
        batches.append(len(marks))
        return np.column_stack([marks[:, 0] ** 3, np.ones(len(marks))])

    got = MarkQuadrature(model).integrate(f)
    assert batches == [42]  # quad's first pass: 21 nodes on each side of the ball
    assert got.tolist() == pytest.approx([0.0, 4.0], abs=1e-14)


@pytest.mark.parametrize("f", [
    lambda marks: np.sin(1.0 / (marks - 0.3501)),  # bounded: refined up to the panel cap
    lambda marks: 1.0 / (marks - 0.35) ** 2,       # not integrable: overflows
], ids=["oscillating", "singular"])
def test_batched_quadrature_unresolved_integrand_raises(f):
    model = uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0)
    with pytest.raises(NumericError, match="did not converge"), np.errstate(divide="ignore"):
        MarkQuadrature(model).integrate(f)


# ---------------------------------------------------------------------------
# compensated integrals
# ---------------------------------------------------------------------------

def test_compensated_integral_linearity():
    model = power_law_model(0.05)
    cfg = simulate_configuration(model, 1.0, 9)
    h1 = lambda t, u: float(u[0])
    h2 = lambda t, u: float(u[0]) ** 2 + t
    a, b = 1.7, -0.6

    combo = compensated_integral(cfg, lambda t, u: a * h1(t, u) + b * h2(t, u), model)
    parts = a * compensated_integral(cfg, h1, model) + b * compensated_integral(cfg, h2, model)
    assert combo == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_compensated_integral_closed_form_route():
    eps, alpha, bound, asym = 0.05, 1.0, 0.5, 0.5
    model = power_law_model(eps, alpha, bound, asym)
    cfg = simulate_configuration(model, 1.0, 21)
    m1 = power_law_first_moment(eps, alpha, bound, asym)

    closed = compensated_integral(
        cfg, lambda t, u: float(u[0]), model,
        quadrature=lambda h, mdl, t: m1 * t,
    )
    adaptive = compensated_integral(cfg, lambda t, u: float(u[0]), model)
    assert closed == pytest.approx(adaptive, rel=1e-9, abs=1e-11)
    assert closed == pytest.approx(float(cfg.marks.sum()) - m1, rel=1e-12)


def test_compensated_integral_prefix_time():
    model = power_law_model(0.05)
    cfg = simulate_configuration(model, 1.0, 5)
    half = compensated_integral(cfg, lambda t, u: 1.0, model, t=0.5)
    n_half = int(np.sum(cfg.times <= 0.5))
    assert half == pytest.approx(n_half - model.mass * 0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_configuration_csv_roundtrip(tmp_path):
    model = polar_levy_model(0.05)
    cfg = simulate_configuration(model, 1.0, 8)
    path = tmp_path / "config.csv"
    write_configuration_csv(cfg, path)
    header = path.read_text().splitlines()[0]
    assert header == "time,mark_1,mark_2"
    back = read_configuration_csv(path, horizon=1.0)
    assert np.array_equal(back.times, cfg.times)
    assert np.array_equal(back.marks, cfg.marks)


def test_configuration_validation():
    with pytest.raises(ConfigurationError):
        JumpConfiguration(np.array([0.5, 0.2]), np.array([[1.0], [1.0]]), 1.0)
    with pytest.raises(ConfigurationError):
        JumpConfiguration(np.array([0.5]), np.array([[0.0]]), 1.0)
    with pytest.raises(ConfigurationError):
        JumpConfiguration(np.array([1.5]), np.array([[0.1]]), 1.0)
