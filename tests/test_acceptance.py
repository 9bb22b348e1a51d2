"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line with the
measured figure next to its pinned tolerance before asserting.
"""
import math

import numpy as np
import pytest
from scipy import integrate

from lentparticle.bottom_structure import intro_1d, isotropic
from lentparticle.cli import main as cli_main
from lentparticle.density_criteria import monte_carlo_rank_stats, rank_diagnostic
from lentparticle.lent_particle import (
    MarkFunction,
    MarkFunctional,
    gamma_flow,
    gamma_flow_left,
    gamma_generic,
    gamma_linear,
    gamma_rho_mc,
    linear_functional,
    sharp_sample,
)
from lentparticle.poisson_measure import JumpConfiguration, simulate_configuration
from lentparticle.scenarios import (
    DoleansPairFunctional,
    get_scenario,
    power_law_first_moment,
    power_law_mass,
    power_law_model,
    stable_like_generator_check,
    stable_like_pushforward_check,
    zeta,
)
from lentparticle.sde_engine import CoefficientSet, solve_sde


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / (denom if denom > 0 else 1.0))


# --------------------------------------------------------------------------- 1


def test_criterion_1_doleans_closed_form():
    eps = 1.0 / 17.0
    assert power_law_mass(eps) == pytest.approx(30.0, abs=1e-12)
    scenario = get_scenario("doleans", truncation=eps)
    worst = 0.0
    counts = []
    for seed in range(100):
        cfg = scenario.simulate(seed=seed)
        counts.append(cfg.n_atoms)
        _, pipeline = scenario.run(cfg)
        worst = max(worst, _rel_frobenius(pipeline.matrix, scenario.gamma_of(cfg)))
    mean_count = float(np.mean(counts))
    ok = worst <= 1e-9 and 27.0 <= mean_count <= 33.0
    _report(
        1, ok,
        f"exponential pair, 100 paths at t=1 (mean jumps {mean_count:.1f}): "
        f"worst relative Frobenius gap pipeline vs closed form {worst:.3e} (tol 1e-9)",
    )


# --------------------------------------------------------------------------- 2


def _random_linear_coeffs(rng, d: int, m1: float) -> CoefficientSet:
    raw = rng.standard_normal((d, d))
    mat = 0.5 * raw / np.linalg.norm(raw, 2)
    vec = rng.uniform(-1.0, 1.0, d)

    # batched: t (P,), x (P, d), u (P, 1); row p of each is one point
    def c(t, x, u):
        return u[:, :1] * (x @ mat.T + vec)

    return CoefficientSet(
        dim=d,
        c=c,
        dx_c=lambda t, x, u: u[:, 0, None, None] * mat,
        du_c=lambda t, x, u: (x @ mat.T + vec)[:, :, None],
        compensator=lambda t, x: m1 * (x @ mat.T + vec),
        dx_compensator=lambda t, x: np.broadcast_to(m1 * mat, (x.shape[0], d, d)),
    )


def test_criterion_2_flow_renderings_agree():
    eps = 0.08
    model = power_law_model(truncation=eps)
    m1 = power_law_first_moment(eps)
    bs = intro_1d()
    worst = 0.0
    for k in range(100):
        d = 1 + k % 3
        rng = np.random.default_rng(1000 + k)
        coeffs = _random_linear_coeffs(rng, d, m1)
        cfg = simulate_configuration(model, horizon=0.7, seed=k)
        x0 = rng.uniform(-1.0, 1.0, d)
        traj = solve_sde(coeffs, model, cfg, x0=x0, step=0.005, flows=True)
        a = gamma_flow(traj, coeffs, bs).matrix
        b = gamma_flow_left(traj, coeffs, bs).matrix
        scale = max(float(np.abs(a).max()), 1e-30)
        worst = max(worst, float(np.abs(a - b).max()) / scale)
    ok = worst <= 1e-10
    _report(
        2, ok,
        "post-jump vs left-limit flow assembly on 100 random linear systems "
        f"(d = 1..3): worst relative gap {worst:.3e} (tol 1e-10)",
    )


# --------------------------------------------------------------------------- 3


def _smooth_coeffs(m1: float) -> CoefficientSet:
    # batched: t (P,), x (P, 2), u (P, 1); row p of each is one point
    def amplitude(x):
        return np.column_stack([np.sin(x[:, 1]), x[:, 0]])

    def amplitude_dx(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1], out[:, 1, 0] = np.cos(x[:, 1]), 1.0
        return out

    return CoefficientSet(
        dim=2,
        c=lambda t, x, u: u[:, :1] * amplitude(x),
        dx_c=lambda t, x, u: u[:, 0, None, None] * amplitude_dx(x),
        du_c=lambda t, x, u: amplitude(x)[:, :, None],
        drift=lambda t, x: x * np.array([-0.3, 0.2]),
        dx_drift=lambda t, x: np.broadcast_to(np.diag([-0.3, 0.2]), (x.shape[0], 2, 2)),
        compensator=lambda t, x: m1 * amplitude(x),
        dx_compensator=lambda t, x: m1 * amplitude_dx(x),
    )


def test_criterion_3_flow_identities():
    eps = 0.05
    model = power_law_model(truncation=eps)
    coeffs = _smooth_coeffs(power_law_first_moment(eps))
    x0 = np.array([0.4, -0.2])
    deltas = np.array([1e-3, 5e-4, 2.5e-4])
    worst_id = 0.0
    worst_order = np.inf
    for seed in (0, 1, 2):
        cfg = simulate_configuration(model, horizon=1.0, seed=seed)
        traj = solve_sde(coeffs, model, cfg, x0=x0, step=0.002, flows=True)
        for i in range(traj.times.shape[0]):
            for k, kb in ((traj.flow[i], traj.inverse_flow[i]),
                          (traj.flow_left[i], traj.inverse_flow_left[i])):
                worst_id = max(worst_id, float(np.abs(k @ kb - np.eye(2)).max()))
        base = solve_sde(coeffs, model, cfg, x0=x0, step=0.002).value_at(1.0)
        k_t = traj.flow[traj.row_at(1.0)]
        errs = []
        for delta in deltas:
            err = 0.0
            for j in range(2):
                e = np.zeros(2)
                e[j] = delta
                bumped = solve_sde(coeffs, model, cfg, x0=x0 + e, step=0.002).value_at(1.0)
                err = max(err, float(np.abs((bumped - base) / delta - k_t[:, j]).max()))
            errs.append(err)
        slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
        worst_order = min(worst_order, slope)
    ok = worst_id <= 1e-9 and worst_order >= 0.9
    _report(
        3, ok,
        f"K Kbar = I at every stored time, worst entry gap {worst_id:.3e} (tol 1e-9); "
        f"same-noise finite-difference flow convergence order {worst_order:.3f} (need >= 0.9)",
    )


# --------------------------------------------------------------------------- 4


def test_criterion_4_rho_mc_estimator():
    sc = get_scenario("doleans")
    m1 = power_law_first_moment(sc.default_truncation)
    bs = sc.bottom
    func = DoleansPairFunctional(m1, 1.0)

    # (a) 4-sigma envelope entrywise over 20 seeded paths at M = 1e5
    envelope_ok = True
    worst_sigmas = 0.0
    for seed in range(20):
        cfg = sc.simulate(seed=seed)
        target = gamma_generic(func, cfg, bs).matrix
        est = gamma_rho_mc(func, cfg, bs, M=100_000, seed=seed)
        gap = np.abs(est.matrix - target)
        bound = 4.0 * est.standard_errors + 1e-14
        envelope_ok = envelope_ok and bool(np.all(gap <= bound))
        with np.errstate(divide="ignore", invalid="ignore"):
            sig = np.where(est.standard_errors > 0, gap / est.standard_errors, 0.0)
        worst_sigmas = max(worst_sigmas, float(sig.max()))

    # (b) mean error over replicas shrinks like M^(-1/2)
    cfg = sc.simulate(seed=0)
    target = gamma_generic(func, cfg, bs).matrix
    ms = [100, 1_000, 10_000, 100_000]
    replicas = 32
    mean_err = []
    for m in ms:
        errs = [
            np.linalg.norm(gamma_rho_mc(func, cfg, bs, M=m, seed=5_000 + r).matrix - target)
            for r in range(replicas)
        ]
        mean_err.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log10(ms), np.log10(mean_err), 1)[0])
    slope_ok = -0.6 <= slope <= -0.4
    ok = envelope_ok and slope_ok
    _report(
        4, ok,
        f"randomised estimator at M=1e5 within 4 standard errors of the exact "
        f"matrix on 20 paths (worst {worst_sigmas:.2f} sigma); mean-error slope "
        f"vs M {slope:.3f} (need -0.5 +/- 0.1)",
    )


# --------------------------------------------------------------------------- 5


def test_criterion_5_levy_area():
    # (a) closed form vs pipeline on every path, both mark geometries
    worst = [0.0, 0.0]
    area_scenarios = [
        get_scenario("levy-area-1", truncation=0.008),
        get_scenario("levy-area-2", truncation=1.0 / 17.0),
    ]
    for seed in range(30):
        for k, sc in enumerate(area_scenarios):
            cfg = sc.simulate(seed=seed)
            _, pipeline = sc.run(cfg)
            worst[k] = max(worst[k], _rel_frobenius(pipeline.matrix, sc.gamma_of(cfg)))
    worst1, worst2 = worst
    paths_ok = worst1 <= 1e-9 and worst2 <= 1e-9

    # (b) full-rank fraction at lambda >= 30, coupled over truncation levels
    table = monte_carlo_rank_stats(
        "levy-area-1", n_paths=500, epsilons=[0.02, 0.012, 0.008], seed=77
    )
    finest = min(table.rows, key=lambda r: r.epsilon)
    fraction_ok = finest.full_rank_fraction >= 0.99 and table.monotone_nondecreasing

    # (c) a single atom spans at most two directions
    sc1 = get_scenario("levy-area-1")
    rng = np.random.default_rng(42)
    single_ok = True
    max_rank = 0
    for _ in range(50):
        radius = rng.uniform(0.05, 0.99)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        cfg = JumpConfiguration(
            times=np.array([rng.uniform(0.05, 0.95)]),
            marks=np.array([[radius * math.cos(theta), radius * math.sin(theta)]]),
            horizon=1.0,
        )
        rank = rank_diagnostic(sc1.gamma_of(cfg)).rank
        max_rank = max(max_rank, rank)
        single_ok = single_ok and rank <= 2
    ok = paths_ok and fraction_ok and single_ok
    _report(
        5, ok,
        f"area matrix vs closed form: worst rel gap case-1 {worst1:.3e}, "
        f"case-2 {worst2:.3e} (tol 1e-9, 30 paths each); full-rank fraction "
        f"{finest.full_rank_fraction:.3f} at eps=0.008 over 500 coupled paths "
        f"(need >= 0.99, monotone={table.monotone_nondecreasing}); "
        f"single-jump max rank {max_rank} (need <= 2)",
    )


# --------------------------------------------------------------------------- 6


def test_criterion_6_linear_functionals():
    eps = 0.06
    model = power_law_model(truncation=eps)
    bs = intro_1d()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(2_000 + i)
        coefs = rng.uniform(-1.0, 1.0, (2, 4))

        def fn(t, u, a=coefs):
            powers = np.array([u[0] ** k for k in range(1, 5)])
            return a @ powers

        def jac(t, u, a=coefs):
            dpow = np.array([k * u[0] ** (k - 1) for k in range(1, 5)])
            return (a @ dpow)[:, None]

        h = MarkFunction(dim=2, fn=fn, jacobian=jac)
        cfg = simulate_configuration(model, horizon=1.0, seed=i)
        direct = gamma_linear(h, cfg, bs).matrix
        via_generic = gamma_generic(linear_functional(h, model), cfg, bs).matrix
        scale = max(float(np.abs(direct).max()), 1e-30)
        worst = max(worst, float(np.abs(direct - via_generic).max()) / scale)
    ok = worst <= 1e-13
    _report(
        6, ok,
        "compensated-integral functionals vs direct atom sum on 50 random "
        f"polynomial integrands: worst relative gap {worst:.3e} (tol 1e-13)",
    )


# --------------------------------------------------------------------------- 7


def _kernel_integral(beta: float, xi: float) -> float:
    """integral over R of (1 - cos(xi y)) |y|^(-1-beta) dy by split quadrature."""
    head, _ = integrate.quad(
        lambda y: (1.0 - math.cos(xi * y)) * y ** (-1.0 - beta), 0.0, 50.0, limit=800
    )
    flat = 50.0 ** (-beta) / beta
    osc, _ = integrate.quad(
        lambda y: y ** (-1.0 - beta), 50.0, 20_000.0, weight="cos", wvar=xi, limit=800
    )
    return 2.0 * (head + flat - osc)


def test_criterion_7_stable_like():
    zeta_gap = abs(zeta(1.0, 1) - 1.0 / math.pi)
    zeta_ok = zeta_gap <= 1e-12 / math.pi

    ident_worst = 0.0
    for beta in (0.5, 1.0, 1.5):
        for xi in (1.0, 2.0):
            val = zeta(beta) * _kernel_integral(beta, xi)
            ident_worst = max(ident_worst, abs(val - xi ** beta) / xi ** beta)
    ident_ok = ident_worst <= 1e-4

    band = (0.9, 1.7)

    def alpha_fn(x):
        return 1.3 + 0.3 * math.tanh(float(np.atleast_1d(x)[0]))

    push = stable_like_pushforward_check(alpha_fn, 1.0, np.array([0.3]),
                                         n_grid=100, band=band)
    push_ok = push <= 1e-10

    gen = stable_like_generator_check(
        alpha_fn, 1.0, 0.3, math.cos, h=1e-3, n_paths=100_000, seed=11, band=band
    )
    ok = zeta_ok and ident_ok and push_ok and gen.passed
    _report(
        7, ok,
        f"kernel constant at beta=1 off by {zeta_gap:.2e} (tol 1e-12 rel); "
        f"quadrature identity worst rel {ident_worst:.2e} (tol 1e-4); pushforward "
        f"density worst rel {push:.2e} (tol 1e-10); generator residual "
        f"{abs(gen.residual):.3e} <= {gen.threshold:.3e} at h=1e-3, 1e5 paths: {gen.passed}",
    )


# --------------------------------------------------------------------------- 8


class _SumMarks(MarkFunctional):
    dim = 1
    exact_jacobian = True

    def value(self, config):
        return np.array([np.sum(config.marks[:, 0])])

    def mark_jacobian(self, config, atom_index):
        return np.array([[1.0]])


class _SumSquares(MarkFunctional):
    dim = 1
    exact_jacobian = True

    def value(self, config):
        return np.array([np.sum(config.marks[:, 0] ** 2)])

    def mark_jacobian(self, config, atom_index):
        return np.array([[2.0 * config.marks[atom_index, 0]]])


class _Product(MarkFunctional):
    dim = 1
    exact_jacobian = True

    def value(self, config):
        return _SumMarks().value(config) * _SumSquares().value(config)

    def mark_jacobian(self, config, atom_index):
        f = _SumMarks().value(config)[0]
        g = _SumSquares().value(config)[0]
        return (g * _SumMarks().mark_jacobian(config, atom_index)
                + f * _SumSquares().mark_jacobian(config, atom_index))


class _Cube(MarkFunctional):
    dim = 1
    exact_jacobian = True

    def value(self, config):
        return _SumMarks().value(config) ** 3

    def mark_jacobian(self, config, atom_index):
        f = _SumMarks().value(config)[0]
        return 3.0 * f ** 2 * _SumMarks().mark_jacobian(config, atom_index)


class _One(MarkFunctional):
    dim = 1
    exact_jacobian = True

    def value(self, config):
        return np.array([1.0])

    def mark_jacobian(self, config, atom_index):
        return np.array([[0.0]])


def test_criterion_8_calculus_rules():
    model = power_law_model(truncation=0.06)
    bs = intro_1d()
    worst = 0.0
    for seed in range(5):
        cfg = simulate_configuration(model, horizon=1.0, seed=seed)
        f = _SumMarks().value(cfg)[0]
        g = _SumSquares().value(cfg)[0]
        for draw in range(5):
            fs = sharp_sample(_SumMarks(), cfg, bs, rho_seed=9, draw_index=draw)[0]
            gs = sharp_sample(_SumSquares(), cfg, bs, rho_seed=9, draw_index=draw)[0]
            ps = sharp_sample(_Product(), cfg, bs, rho_seed=9, draw_index=draw)[0]
            cs = sharp_sample(_Cube(), cfg, bs, rho_seed=9, draw_index=draw)[0]
            prod_expect = g * fs + f * gs
            cube_expect = 3.0 * f ** 2 * fs
            scale = max(abs(prod_expect), abs(cube_expect), 1.0)
            worst = max(
                worst,
                abs(ps - prod_expect) / scale,
                abs(cs - cube_expect) / scale,
            )
    cfg = simulate_configuration(model, horizon=1.0, seed=0)
    gamma_one = gamma_generic(_One(), cfg, bs).matrix
    sharp_one = sharp_sample(_One(), cfg, bs, rho_seed=1)[0]
    const_ok = not gamma_one.any() and sharp_one == 0.0
    ok = worst <= 1e-13 and const_ok
    _report(
        8, ok,
        f"per-draw product and chain rules: worst relative gap {worst:.3e} "
        f"(tol 1e-13); constants: gamma[1] = 0 and 1-sharp = 0 exactly: {const_ok}",
    )


# --------------------------------------------------------------------------- 9


_CLI_RUNS = [
    (
        "simulate",
        ["simulate"],
        "[run]\nscenario = doleans\nseed = 7\n\n[numeric]\nstep = 0.01\n",
    ),
    (
        "gamma theorem9",
        ["gamma"],
        "[run]\nscenario = doleans\nseed = 3\n\n[numeric]\nstep = 0.01\n\n"
        "[gamma]\nformula = theorem9\ninclude_terms = true\n",
    ),
    (
        "gamma rho_mc",
        ["gamma"],
        "[run]\nscenario = doleans\nseed = 3\n\n[numeric]\nstep = 0.01\ndraws = 2000\n\n"
        "[gamma]\nformula = rho_mc\n",
    ),
    (
        "rank-stats",
        ["rank-stats"],
        "[run]\nscenario = levy-area-1\nseed = 5\n\n"
        "[numeric]\nepsilons = 0.03 0.015\nn_paths = 4\n",
    ),
    ("example doleans", ["example", "doleans", "--seed", "4"], None),
    ("example levy-area-1", ["example", "levy-area-1", "--seed", "4"], None),
    ("example levy-area-2", ["example", "levy-area-2", "--seed", "4"], None),
    ("example mckean", ["example", "mckean", "--seed", "4"], None),
    (
        "example stable-like",
        ["example", "stable-like", "--seed", "4"],
        "[numeric]\ndraws = 2000\n",
    ),
]


def test_criterion_9_cli_reproducibility(tmp_path):
    failures = []
    for label, argv, ini in _CLI_RUNS:
        slug = label.replace(" ", "-")
        first = tmp_path / f"{slug}-a"
        second = tmp_path / f"{slug}-b"
        base = list(argv)
        if ini is not None:
            cfg = tmp_path / f"{slug}.ini"
            cfg.write_text(ini)
            base += ["--config", str(cfg)]
        rc1 = cli_main(base + ["--out", str(first)])
        rc2 = cli_main(list(argv) + ["--config", str(first / "manifest.json"),
                                     "--out", str(second)])
        if rc1 != 0 or rc2 != 0:
            failures.append(f"{label}: exit codes {rc1}/{rc2}")
            continue
        for path in sorted(first.iterdir()):
            twin = second / path.name
            if not twin.is_file():
                failures.append(f"{label}: {path.name} missing on re-run")
            elif path.read_bytes() != twin.read_bytes():
                failures.append(f"{label}: {path.name} differs on re-run")
    ok = not failures
    _report(
        9, ok,
        f"{len(_CLI_RUNS)} CLI runs re-executed from their manifests, all output "
        "files byte-identical" if ok else "; ".join(failures),
    )
