import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lentparticle.density_criteria import monte_carlo_rank_stats
from lentparticle.errors import InputError
from lentparticle.lent_particle import gamma_rho_mc, sharp_sample
from lentparticle.poisson_measure import simulate_configuration, simulate_configurations
from lentparticle.rng import (
    DOMAIN_ATOMS,
    DOMAIN_PARTICLE,
    DOMAIN_PATH,
    DOMAIN_RHO,
    _sub_seeds,
    path_seeds,
    stream,
)
from lentparticle.scenarios import DoleansPairFunctional, get_scenario, mckean_vlasov


def test_same_address_same_draws():
    a = stream(123, DOMAIN_ATOMS, 4).standard_normal(16)
    b = stream(123, DOMAIN_ATOMS, 4).standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_domains_decorrelated():
    a = stream(123, DOMAIN_ATOMS).standard_normal(1000)
    b = stream(123, DOMAIN_RHO).standard_normal(1000)
    assert not np.array_equal(a, b)
    # crude decorrelation check, not a statistical proof
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_distinct_indices_decorrelated():
    a = stream(7, DOMAIN_RHO, 0).standard_normal(1000)
    b = stream(7, DOMAIN_RHO, 1).standard_normal(1000)
    assert not np.array_equal(a, b)


def test_subindex_separates_streams():
    a = stream(7, DOMAIN_RHO, 3, 0).standard_normal(8)
    b = stream(7, DOMAIN_RHO, 3, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def _drawn(seed: int, domain: int, index: int) -> int:
    """The sub-seed of ``index`` as its generator draws it."""
    return int(stream(seed, domain, index).integers(0, 2 ** 63 - 1, dtype=np.int64))


def test_path_seed_deterministic_and_spread():
    seeds = path_seeds(99, 64)
    assert seeds == path_seeds(99, 64) and seeds[:10] == path_seeds(99, 10)
    assert len(set(seeds)) == 64
    assert all(type(s) is int and 0 <= s < 2 ** 63 - 1 for s in seeds)
    assert path_seeds(99, 0) == []


def test_path_seed_domain_picks_the_stream():
    # a sub-seed is the first int64 of the stream at (seed, domain, index)
    for domain in (DOMAIN_PATH, DOMAIN_PARTICLE):
        assert path_seeds(8, 5, domain) == [_drawn(8, domain, i) for i in range(5)]
    assert path_seeds(8, 4) == path_seeds(8, 4, DOMAIN_PATH) != path_seeds(8, 4, DOMAIN_PARTICLE)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), domain=st.sampled_from([DOMAIN_PATH, DOMAIN_PARTICLE]),
       indices=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=6))
@example(seed=0, domain=DOMAIN_PATH, indices=[0, 2 ** 64 - 1])
@example(seed=2 ** 64 - 1, domain=DOMAIN_PARTICLE, indices=[2 ** 64 - 1, 1, 2 ** 63])
def test_sub_seeds_are_the_generators_first_draw(seed, domain, indices):
    got = _sub_seeds(seed, domain, np.array(indices, dtype=np.uint64))
    assert got == [_drawn(seed, domain, i) for i in indices]


def test_a_rejected_word_falls_back_to_the_generator(monkeypatch):
    # a first word of 0 leaves Lemire's low word at 0, below the threshold 2,
    # so the generator draws again from its stream
    import lentparticle.rng as rng

    first_words = rng._first_words

    def zero_on_odd(seed, domain, indices):
        words = first_words(seed, domain, indices)
        words[1::2] = 0
        return words

    monkeypatch.setattr(rng, "_first_words", zero_on_odd)
    opened = []
    monkeypatch.setattr(rng, "stream", lambda *address: opened.append(address) or stream(*address))
    assert path_seeds(21, 5, DOMAIN_PARTICLE) == [_drawn(21, DOMAIN_PARTICLE, i) for i in range(5)]
    assert opened == [(21, DOMAIN_PARTICLE, 1), (21, DOMAIN_PARTICLE, 3)]


def test_seed_changes_everything():
    a = stream(1, DOMAIN_PATH).standard_normal(32)
    b = stream(2, DOMAIN_PATH).standard_normal(32)
    assert not np.array_equal(a, b)


# the first raw Philox words at a few addresses, extreme seeds and indices
# included: any change to how an address becomes a key and counter shows here
GOLDEN_RAW = {
    (0, DOMAIN_ATOMS, 0, 0): [15003734204198539638, 13859618513508960101, 12389738016430293093],
    (2 ** 63 - 1, DOMAIN_PATH, 7, 0): [4271785774036008153, 2764425113870898625,
                                       10706587042842221385],
    (2 ** 64 - 1, DOMAIN_RHO, 2 ** 63, 5): [12390383604529887584, 7514233115525344407,
                                            8535645156499320397],
    (12345, DOMAIN_PARTICLE, 0, 2 ** 64 - 1): [6998823274086331885, 3258267987773786175,
                                               16232279699020198882],
}


def test_first_raw_draws_are_pinned():
    for address, want in GOLDEN_RAW.items():
        assert stream(*address).bit_generator.random_raw(3).tolist() == want


def test_stream_reads_no_os_entropy(monkeypatch):
    # Philox(key=...) draws OS entropy for a SeedSequence it never reads; a
    # stream hands the key over itself, so it keeps its bits without it
    import random

    want = {address: np.random.Philox(key=np.array(address[:2], dtype=np.uint64),
                                      counter=np.array([0, *address[2:], 0], dtype=np.uint64)).state
            for address in GOLDEN_RAW}
    stream(1, DOMAIN_ATOMS)

    def no_entropy(n):
        raise AssertionError("OS entropy was read")

    monkeypatch.setattr(random, "_urandom", no_entropy)
    for address, raw in GOLDEN_RAW.items():
        bits = stream(*address).bit_generator
        assert repr(bits.state) == repr(want[address])
        assert bits.random_raw(3).tolist() == raw


def test_address_words_outside_64_bits_are_refused():
    for address in [(-1, DOMAIN_ATOMS), (2 ** 64, DOMAIN_ATOMS), (1, DOMAIN_ATOMS, 2 ** 64)]:
        with pytest.raises(OverflowError):
            stream(*address)
    with pytest.raises(ValueError, match="non-negative"):
        stream(1, DOMAIN_ATOMS, -1)


def _seeded_entry_points():
    """Each public entry point that takes a seed, by name, as the argument
    that holds the seed and a call with a given value of it."""
    scenario = get_scenario("doleans")
    config, F = scenario.simulate(seed=1), DoleansPairFunctional(0.1)
    return {
        "simulate_configurations": ("seed", lambda s: simulate_configurations(
            scenario.model(), 1.0, [3, s])),
        "simulate_configuration": ("seed", lambda s: simulate_configuration(
            scenario.model(), 1.0, s)),
        "Scenario.simulate": ("seed", lambda s: scenario.simulate(seed=s)),
        "gamma_rho_mc": ("seed", lambda s: gamma_rho_mc(F, config, scenario.bottom, 100, s)),
        "sharp_sample": ("rho_seed", lambda s: sharp_sample(F, config, scenario.bottom, s)),
        "monte_carlo_rank_stats": ("seed", lambda s: monte_carlo_rank_stats(
            scenario, 2, [0.1], s)),
        "path_seeds": ("seed", lambda s: path_seeds(s, 3)),
        "mckean_vlasov": ("seed", lambda s: mckean_vlasov(
            lambda x, law: np.ones_like(x), 10, 1, scenario.model(), 1.0, s, 0.0)),
    }


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("entry", ["simulate_configurations", "simulate_configuration",
                                   "Scenario.simulate", "gamma_rho_mc", "sharp_sample",
                                   "monte_carlo_rank_stats", "path_seeds", "mckean_vlasov"])
def test_entry_points_refuse_a_seed_outside_64_bits_before_any_draw(monkeypatch, entry, seed):
    name, call = _seeded_entry_points()[entry]

    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    with pytest.raises(InputError, match=rf"^{name} must lie in \[0, 2\*\*64\), got {seed}$"):
        call(seed)


def test_sharp_sample_refuses_a_negative_draw_index():
    scenario = get_scenario("doleans")
    with pytest.raises(InputError, match=r"^draw_index must be >= 0, got -1$"):
        sharp_sample(DoleansPairFunctional(0.1), scenario.simulate(seed=1), scenario.bottom,
                     rho_seed=9, draw_index=-1)
