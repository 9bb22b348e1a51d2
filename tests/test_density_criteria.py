import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lentparticle.density_criteria import (
    _rank_stack,
    monte_carlo_rank_stats,
    rank_diagnostic,
    span_dimension,
)
from lentparticle.errors import InputError
from lentparticle.rng import path_seeds
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


def _rank_one_at_a_time(m, rel_tol):
    """The rank verdict of one matrix, computed as it was before the stacked
    step: rank, singular values, min eigenvalue, threshold, gap, flag."""
    m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    sing = np.sort(np.abs(eigs))[::-1]
    threshold = rel_tol * sing[0]
    rank = int(np.sum(sing > threshold))
    if rank == m.shape[0]:
        gap = float(sing[-1] - threshold)
    elif rank == 0:
        gap = float(threshold - sing[0])
    else:
        gap = float(sing[rank - 1] - sing[rank])
    indeterminate = bool(gap < 10.0 * threshold) if sing[0] > 0 else False
    return rank, sing, float(eigs[0]), float(threshold), gap, indeterminate


def _spd(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(d)


@pytest.mark.parametrize("d", [2, 3])
def test_eigvalsh_of_a_stack_has_the_bits_of_each_matrix(d):
    # the stacked rank step relies on this for byte-identical rank tables
    mats = _spd(np.random.default_rng(d), 2000, d)
    one_by_one = np.array([np.linalg.eigvalsh(m) for m in mats])
    assert np.linalg.eigvalsh(mats).tobytes() == one_by_one.tobytes()


def _rank_cases():
    rng = np.random.default_rng(11)
    v, w = rng.standard_normal((40, 3, 2)), rng.standard_normal((10, 3, 1))
    near = [np.diag([1.0, 5e-8, 2.0]), np.diag([1.0, 5e-8, 0.0]), np.diag([1.0, 2e-7, 3e-9]),
            np.diag([1.0, 1e-3, 1e-7]), np.diag([4e-4, 1.0, 1e-3])]
    return np.concatenate([_spd(rng, 40, 3), v @ v.transpose(0, 2, 1), w @ w.transpose(0, 2, 1),
                           np.zeros((3, 3, 3)), np.array(near)])


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-3])
def test_stacked_rank_step_matches_the_verdict_of_each_matrix(rel_tol):
    mats = _rank_cases()
    stack = _rank_stack(mats, rel_tol)
    ranks, flags = set(), set()
    for i, m in enumerate(mats):
        want = _rank_one_at_a_time(m, rel_tol)
        rank, sing, min_eig, threshold, gap, indeterminate = (part[i] for part in stack)
        assert int(rank) == want[0] and bool(indeterminate) == want[5]
        assert sing.tobytes() == want[1].tobytes()
        assert [float(min_eig), float(threshold), float(gap)] == list(want[2:5])
        rep = rank_diagnostic(m, rel_tol)
        assert (rep.rank, rep.min_eigenvalue, rep.threshold, rep.gap, rep.indeterminate) == (
            want[0], want[2], want[3], want[4], want[5])
        assert rep.full_rank == (want[0] == 3)
        assert rep.singular_values.tobytes() == want[1].tobytes()
        ranks.add(want[0])
        flags.add(want[5])
    # full rank, rank-deficient and zero matrices, flagged and firm verdicts
    assert ranks == {0, 1, 2, 3} and flags == {False, True}


def test_stacked_rank_step_refuses_a_stack_with_one_bad_matrix():
    mats = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])
    with pytest.raises(InputError, match=r"^matrix is not symmetric to 1e-10$"):
        _rank_stack(mats, 1e-8)
    mats[1] = np.eye(2)
    mats[0, 0, 0] = np.nan
    with pytest.raises(InputError, match=r"^matrix contains non-finite entries$"):
        _rank_stack(mats, 1e-8)


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


def test_rank_stats_refuses_an_oversized_sweep_before_drawing(monkeypatch):
    import lentparticle.density_criteria as criteria

    def no_draws(*args):
        raise AssertionError("paths were drawn before the sweep was sized")

    monkeypatch.setattr(criteria, "path_seeds", no_draws)
    with pytest.raises(InputError, match=r"^n_paths = 100000000 .* limit of 10000000 "):
        monte_carlo_rank_stats("levy-area-1", n_paths=10 ** 8, epsilons=[0.05], seed=1)


def test_rank_stats_refuses_a_bad_tolerance_before_drawing(monkeypatch):
    import lentparticle.density_criteria as criteria

    def no_draws(*args):
        raise AssertionError("paths were drawn before the tolerance was checked")

    monkeypatch.setattr(criteria, "path_seeds", no_draws)
    monkeypatch.setattr(criteria, "_simulate_table", no_draws)
    for bad in (5.0, 1.0, 0.0, float("nan")):
        with pytest.raises(InputError, match=r"^rel_tol must be in \(0, 1\), got "):
            monte_carlo_rank_stats("doleans", n_paths=5, epsilons=[0.05], seed=1, rel_tol=bad)


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

    def counted(configs, grids, lengths):
        chunks.append(len(configs))
        return stack(configs, grids, lengths)

    # 401 regular rows plus the atoms of about 7 grid values each, 21 stored
    # values per path (its last row) and 42 per atom (both limits at the
    # jump): at most three paths per chunk, the levels sharing chunks
    monkeypatch.setattr(engine, "_CHUNK_VALUES", 12000)
    monkeypatch.setattr(engine, "_stack_grids", counted)
    chunked = monte_carlo_rank_stats(scenario, 8, _EPSILONS, seed=12)
    assert max(chunks) <= 3 and len(chunks) >= 3 * len(_EPSILONS)
    _assert_tables_agree(chunked, whole)


def test_rank_stats_pipeline_solves_the_sweep_in_one_batch(monkeypatch):
    import lentparticle.sde_engine as engine

    calls = []
    integrate = engine._integrate

    def counted(runs, *args):
        calls.append([n for *_, n in runs])
        return integrate(runs, *args)

    monkeypatch.setattr(engine, "_integrate", counted)
    monte_carlo_rank_stats(_pipeline_levy_area(), 32, _EPSILONS, seed=12)
    assert calls == [[32, 32, 32]]


def test_rank_stats_closed_form_same_in_chunks(monkeypatch):
    import lentparticle.scenarios as scenarios

    whole = monte_carlo_rank_stats("levy-area-1", 24, _EPSILONS, seed=12)
    chunks = []
    terms = scenarios.area_closed_gamma

    def counted(times, marks, counts, *args, **kwargs):
        chunks.append((len(counts), int(max(counts)) + 1))
        return terms(times, marks, counts, *args, **kwargs)

    # paths x (longest atom list + 1) <= 200 padded atoms per chunk
    monkeypatch.setattr(scenarios, "_CLOSED_CHUNK_ATOMS", 200)
    monkeypatch.setattr(scenarios, "area_closed_gamma", counted)
    chunked = monte_carlo_rank_stats("levy-area-1", 24, _EPSILONS, seed=12)
    assert sum(n for n, _ in chunks) == 24 * len(_EPSILONS) and len(chunks) > 2 * len(_EPSILONS)
    assert all(n * longest <= 200 or n == 1 for n, longest in chunks)
    _assert_tables_agree(chunked, whole)


@pytest.mark.parametrize("name", ["doleans", "levy-area-1", "levy-area-2", "null"])
def test_rank_stats_weighs_the_sweep_once(monkeypatch, name):
    from lentparticle.bottom_structure import BottomStructure

    # the finest table's atoms are weighed in one call; each level gathers its weights
    calls = []
    weight = BottomStructure.weight

    def counted(self, marks):
        calls.append(len(marks))
        return weight(self, marks)

    monkeypatch.setattr(BottomStructure, "weight", counted)
    scenario = get_scenario(name)
    levels = [4 * scenario.default_truncation, 2 * scenario.default_truncation,
              scenario.default_truncation]
    monte_carlo_rank_stats(scenario, 40, levels, seed=12)
    assert len(calls) == 1 and calls[0] > 40


def test_rank_stats_reports_indeterminate_fraction():
    # at rel_tol = 0.01 some verdicts sit within a factor 10 of the cut
    scenario = get_scenario("levy-area-1")
    table = monte_carlo_rank_stats(scenario, 6, [0.05], seed=4, rel_tol=0.01)
    configs = [scenario.simulate(0.05, s) for s in path_seeds(4, 6)]
    flags = [rank_diagnostic(scenario.gamma_of(c, 0.05), 0.01).indeterminate for c in configs]
    assert 0.0 < table.rows[0].indeterminate_fraction == np.mean(flags) < 1.0
    firm = monte_carlo_rank_stats(scenario, 6, [0.05], seed=4)
    assert firm.rows[0].indeterminate_fraction == 0.0

# the levy-area-1 table through the flows (its closed form removed), pinned
# byte for byte: sha256 of rank_stats.csv.  48 paths make two chunks of the
# batched solve, and eval_time < horizon leaves atoms after t
GOLDEN_PIPELINE_TABLES = {
    4: "effa48efe54b36771597e47f8a10e3e6ca882f7ae35ab6350f81d839999fd6b6",
    5: "722b65a3afb580a4cf2f84a63905a85bed2f8246c7b503b6e51694fd2339e56a",
    11: "183351acc99035f2379c9ac44552d37a7292d67ab182731050f2c3cd78363061",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_PIPELINE_TABLES))
def test_rank_stats_pipeline_golden_bytes(tmp_path, seed):
    import dataclasses
    import hashlib

    scenario = dataclasses.replace(_pipeline_levy_area(), eval_time=0.4)
    table = monte_carlo_rank_stats(scenario, 48, [0.4, 0.2, 0.05], seed, rel_tol=1e-4)
    table.to_csv(tmp_path / "rank_stats.csv")
    got = hashlib.sha256((tmp_path / "rank_stats.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_PIPELINE_TABLES[seed]
