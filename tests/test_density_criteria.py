import numpy as np
import pytest

from lentparticle.bottom_structure import intro_1d, isotropic
from lentparticle.density_criteria import (
    monte_carlo_rank_stats,
    rank_diagnostic,
    regular_case_check,
    span_dimension,
    sufficient_condition_scan,
)
from lentparticle.errors import DomainError, InputError
from lentparticle.lent_particle import gamma_flow
from lentparticle.scenarios import get_scenario
from lentparticle.sde_engine import CoefficientSet


def test_rank_full():
    rep = rank_diagnostic(np.diag([3.0, 2.0, 1.0]))
    assert rep.rank == 3
    assert rep.full_rank
    assert not rep.indeterminate
    assert rep.min_eigenvalue == pytest.approx(1.0)


def test_rank_deficient():
    rep = rank_diagnostic(np.diag([1.0, 1.0, 0.0]))
    assert rep.rank == 2
    assert not rep.full_rank
    assert rep.singular_values[0] == pytest.approx(1.0)


def test_rank_zero_matrix():
    rep = rank_diagnostic(np.zeros((2, 2)))
    assert rep.rank == 0
    assert not rep.full_rank
    assert not rep.indeterminate


def test_rank_indeterminate_near_threshold():
    # smallest eigenvalue within a factor 10 of the cut: flagged, not trusted
    rep = rank_diagnostic(np.diag([1.0, 5e-8]), rel_tol=1e-8)
    assert rep.indeterminate
    clear = rank_diagnostic(np.diag([1.0, 1e-3]), rel_tol=1e-8)
    assert not clear.indeterminate


def test_rank_respects_tolerance():
    m = np.diag([1.0, 1e-6])
    assert rank_diagnostic(m, rel_tol=1e-8).rank == 2
    assert rank_diagnostic(m, rel_tol=1e-4).rank == 1


def test_rank_tol_validation():
    with pytest.raises(InputError):
        rank_diagnostic(np.eye(2), rel_tol=0.0)
    with pytest.raises(InputError):
        rank_diagnostic(np.eye(2), rel_tol=1.5)


def test_span_dimension():
    assert span_dimension([]) == 0
    assert span_dimension([np.zeros(3)]) == 0
    assert span_dimension([np.array([1.0, 0.0]), np.array([2.0, 0.0])]) == 1
    vs = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1e-3])]
    assert span_dimension(vs) == 3
    with pytest.raises(InputError):
        span_dimension([np.array([np.nan, 0.0])])


def test_scan_finds_witness():
    sc = get_scenario("doleans")
    cfg = sc.simulate(seed=4)
    traj, gamma = sc.run(cfg)
    res = sufficient_condition_scan(traj, None, sc.bottom, gamma=gamma)
    # the 1-d base coordinate makes every in-carrier atom term rank >= 1 but
    # a witness needs full 2x2 rank, which single-atom outer products lack
    assert res.term_ranks
    assert max(res.term_ranks) <= 1
    assert not res.satisfied


def test_scan_accepts_full_rank_term():
    from lentparticle.lent_particle import GammaMatrix

    terms = [(0, np.diag([1.0, 0.0])), (1, np.diag([2.0, 3.0]))]
    g = GammaMatrix(matrix=np.diag([3.0, 3.0]), formula_tag="theorem9", t=1.0,
                    per_jump_terms=terms)
    res = sufficient_condition_scan(None, None, None, gamma=g)
    assert res.satisfied
    assert res.witness == 1
    assert res.term_ranks == [1, 2]


def test_rank_stats_on_null_scenario():
    table = monte_carlo_rank_stats("null", n_paths=8, epsilons=[0.05, 0.02], seed=3)
    assert all(r.full_rank_fraction == 0.0 for r in table.rows)
    assert table.monotone_nondecreasing


def test_rank_stats_doleans_always_full():
    # scalar observable: one in-carrier atom already gives full rank 1x1...
    # the 2-d system needs >= 2 atoms, which lambda = 30 essentially ensures
    table = monte_carlo_rank_stats("doleans", n_paths=20, epsilons=[1.0 / 17.0], seed=9)
    assert table.rows[0].full_rank_fraction == 1.0


def test_rank_stats_coupled_monotone():
    table = monte_carlo_rank_stats(
        "levy-area-1", n_paths=15, epsilons=[0.05, 0.02, 0.008], seed=10
    )
    assert table.monotone_nondecreasing
    by_desc = sorted(table.rows, key=lambda r: -r.epsilon)
    fr = [r.full_rank_fraction for r in by_desc]
    assert fr == sorted(fr)


def test_rank_stats_input_validation():
    with pytest.raises(InputError):
        monte_carlo_rank_stats("doleans", n_paths=0, epsilons=[0.05], seed=1)
    with pytest.raises(InputError):
        monte_carlo_rank_stats("doleans", n_paths=5, epsilons=[], seed=1)
    with pytest.raises(InputError):
        monte_carlo_rank_stats("doleans", n_paths=5, epsilons=[-0.1], seed=1)


def test_rank_stats_csv(tmp_path):
    table = monte_carlo_rank_stats("doleans", n_paths=4, epsilons=[0.06], seed=5)
    path = tmp_path / "stats.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,n_paths,full_rank_fraction,median_min_eig"
    assert len(lines) == 2


def _linear_coeffs():
    return CoefficientSet(
        dim=2,
        c=lambda t, x, u: np.array([u[0], u[1]]),
        dx_c=lambda t, x, u: np.zeros((2, 2)),
        du_c=lambda t, x, u: np.eye(2),
    )


def test_regular_case_passes_for_invertible_jacobian():
    rep = regular_case_check(
        _linear_coeffs(), isotropic(2), x=np.zeros(2), u0=np.array([0.3, 0.0]),
        radius=0.05,
    )
    assert rep.passed
    assert rep.min_eigenvalue > 0
    assert rep.probes_used > 0
    assert not rep.mass_diverging


def test_regular_case_fails_for_degenerate_jacobian():
    coeffs = CoefficientSet(
        dim=2,
        c=lambda t, x, u: np.array([u[0], u[0]]),
        dx_c=lambda t, x, u: np.zeros((2, 2)),
        du_c=lambda t, x, u: np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    rep = regular_case_check(
        coeffs, isotropic(2), x=np.zeros(2), u0=np.array([0.3, 0.0]), radius=0.05
    )
    assert not rep.passed


def test_regular_case_outside_support_raises():
    coeffs1 = CoefficientSet(
        dim=1,
        c=lambda t, x, u: np.array([u[0]]),
        dx_c=lambda t, x, u: np.zeros((1, 1)),
        du_c=lambda t, x, u: np.eye(1),
    )
    # intro_1d carrier is 0 < |u| < 1/2; u0 = 5 is not even in its closure
    with pytest.raises(DomainError):
        regular_case_check(
            coeffs1, intro_1d(), x=np.zeros(1), u0=np.array([5.0]), radius=0.01
        )


def test_regular_case_flags_diverging_mass_at_origin():
    # an infinite-activity intensity concentrates mass at the origin; annulus
    # masses around u0 = 0 stay flat instead of decaying geometrically
    from lentparticle.bottom_structure import psi_over_k

    bs = psi_over_k(density=lambda u: float(u @ u) ** -1.0, r=1)
    coeffs1 = CoefficientSet(
        dim=1,
        c=lambda t, x, u: np.array([u[0]]),
        dx_c=lambda t, x, u: np.zeros((1, 1)),
        du_c=lambda t, x, u: np.eye(1),
    )
    rep = regular_case_check(coeffs1, bs, x=np.zeros(1), u0=np.zeros(1), radius=0.2)
    assert rep.mass_diverging
    # a flat intensity over the same window decays geometrically instead
    flat = regular_case_check(
        coeffs1, intro_1d(), x=np.zeros(1), u0=np.zeros(1), radius=0.2
    )
    assert not flat.mass_diverging
