import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lentparticle.density_criteria import (
    monte_carlo_rank_stats,
    rank_diagnostic,
    span_dimension,
)
from lentparticle.errors import InputError
from lentparticle.rng import path_seed
from lentparticle.scenarios import get_scenario


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


@settings(max_examples=50, deadline=None)
@given(
    n_paths=st.integers(1, 6),
    epsilons=st.lists(st.floats(0.005, 0.5), min_size=2, max_size=4, unique=True),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_rank_stats_full_rank_fraction_grows_as_epsilon_shrinks(n_paths, epsilons, seed):
    # every level keeps a subset of one path's atoms, so a finer level only
    # adds PSD summands and never loses rank
    table = monte_carlo_rank_stats("levy-area-1", n_paths, epsilons, seed)
    by_desc = sorted(table.rows, key=lambda r: -r.epsilon)
    fr = [r.full_rank_fraction for r in by_desc]
    assert fr == sorted(fr)
    assert table.monotone_nondecreasing


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
    assert lines[0] == "epsilon,n_paths,full_rank_fraction,median_min_eig,indeterminate_fraction"
    assert len(lines) == 2


_EPSILONS = (0.05, 0.02, 0.008)


def _pipeline_levy_area():
    """levy-area-1 with its closed form removed, so Gamma runs the batched solve."""
    import dataclasses

    return dataclasses.replace(get_scenario("levy-area-1"), closed_form_gamma=None)


def _assert_tables_agree(got, want, rel=0.0):
    assert len(got.rows) == len(want.rows)
    for a, b in zip(got.rows, want.rows):
        assert (a.epsilon, a.n_paths) == (b.epsilon, b.n_paths)
        assert a.full_rank_fraction == b.full_rank_fraction
        assert a.indeterminate_fraction == b.indeterminate_fraction
        assert abs(a.median_min_eig - b.median_min_eig) <= rel * abs(b.median_min_eig)
    assert got.monotone_nondecreasing == want.monotone_nondecreasing


def test_rank_stats_pipeline_matches_closed_form():
    # RK4 integrates the area's polynomial drift exactly, so the batched
    # pipeline reproduces the closed-form table
    closed = monte_carlo_rank_stats("levy-area-1", 8, _EPSILONS, seed=12)
    piped = monte_carlo_rank_stats(_pipeline_levy_area(), 8, _EPSILONS, seed=12)
    _assert_tables_agree(piped, closed, rel=1e-9)


def test_rank_stats_pipeline_same_in_chunks(monkeypatch):
    import lentparticle.sde_engine as engine

    scenario = _pipeline_levy_area()
    whole = monte_carlo_rank_stats(scenario, 8, _EPSILONS, seed=12)
    chunks = []
    stack = engine._stack_grids

    def counted(configs, grids):
        chunks.append(len(configs))
        return stack(configs, grids)

    # 401 regular rows plus the atoms, 21 stored values per row and 21 per
    # atom (the left limits), and about 5 more per row for the grid arrays:
    # at most three paths per chunk
    monkeypatch.setattr(engine, "_CHUNK_VALUES", 1500 * 26)
    monkeypatch.setattr(engine, "_stack_grids", counted)
    chunked = monte_carlo_rank_stats(scenario, 8, _EPSILONS, seed=12)
    assert max(chunks) <= 3 and len(chunks) >= 3 * len(_EPSILONS)
    _assert_tables_agree(chunked, whole)


def test_rank_stats_reports_indeterminate_fraction():
    # at rel_tol = 0.01 some verdicts sit within a factor 10 of the cut
    scenario = get_scenario("levy-area-1")
    table = monte_carlo_rank_stats(scenario, 6, [0.05], seed=4, rel_tol=0.01)
    configs = [scenario.simulate(0.05, path_seed(4, p)) for p in range(6)]
    flags = [rank_diagnostic(scenario.gamma_of(c, 0.05), 0.01).indeterminate for c in configs]
    assert 0.0 < table.rows[0].indeterminate_fraction == np.mean(flags) < 1.0
    firm = monte_carlo_rank_stats(scenario, 6, [0.05], seed=4)
    assert firm.rows[0].indeterminate_fraction == 0.0