"""The closed-form rank sweep's batch draw and per-atom products against the
code they replaced, kept here as the reference: per-path ``uniform`` and
``random(n)`` draws concatenated, the Newton steps on fresh arrays, padded
arrays written through ``(path, atom)`` index pairs, ``J W J^T`` with a
strided ``J^T``, and rows of marks, weights and left limits gathered and
scattered by advanced indexing.  The new code must give the same bytes."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import lentparticle.poisson_measure as pm
from lentparticle.lent_particle import _path_sums
from lentparticle.poisson_measure import _simulate_table
from lentparticle.rng import DOMAIN_ATOMS, path_seeds
from lentparticle.scenarios import (
    _closed_chunks,
    area_closed_gamma,
    doleans_closed_gamma,
    get_scenario,
    graph_slope,
    polar_first_moment,
    power_law_first_moment,
    power_law_second_moment,
)

_SEEDS = range(2000, 2010)
_N_PATHS = 64

# ---------------------------------------------------------------- the draw


def _ref_open_uniforms(rngs, counts):
    v = np.concatenate([rng.random(n) for rng, n in zip(rngs, counts)])
    if not v.all():
        ends = np.cumsum(counts)
        for i in np.unique(np.searchsorted(ends, np.flatnonzero(v == 0.0), side="right")):
            own = v[ends[i] - counts[i]:ends[i]]
            while np.any(own == 0.0):
                own[own == 0.0] = rngs[i].random(int(np.sum(own == 0.0)))
    return v


def _ref_theta(a, target):
    theta, previous, before = target.copy(), None, None
    for k in range(1, 61):
        before, previous = previous, theta.copy()
        theta -= (theta + a * np.sin(theta) - target) / (1.0 + a * np.cos(theta))
        if before is not None and np.array_equal(theta, before):
            return theta if k % 2 == 0 else previous
    return theta


def _ref_power_law(eps, alpha=1.0, bound=0.5, asymmetry=0.5):
    def sampler(rngs, counts):
        v = _ref_open_uniforms(rngs, counts)
        sign_draws = np.concatenate([rng.random(n) for rng, n in zip(rngs, counts)])
        lo, hi = eps ** -alpha, bound ** -alpha
        mags = (lo - v * (lo - hi)) ** (-1.0 / alpha)
        return (mags * np.where(sign_draws < 0.5 * (1.0 + asymmetry), 1.0, -1.0))[:, None]

    return sampler


def _ref_graph(eps):
    base = _ref_power_law(eps)

    def sampler(rngs, counts):
        z = base(rngs, counts)[:, 0]
        return np.column_stack([z, z * z])

    return sampler


def _ref_polar(eps, a=0.5):
    def sampler(rngs, counts):
        u = np.concatenate([rng.random(n) for rng, n in zip(rngs, counts)])
        v = _ref_open_uniforms(rngs, counts)
        theta = _ref_theta(a, 2.0 * math.pi * u)
        rho = eps ** (1.0 - v)
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])

    return sampler


# each scenario's sampler at its default truncation, and where the open
# uniforms (the ones a zero is drawn again for) start in a path's draws of
# n marks
_SAMPLERS = {"levy-area-1": (_ref_polar, 2), "levy-area-2": (_ref_graph, 1),
             "doleans": (_ref_power_law, 1)}


def _ref_table(scenario, seeds):
    """The atom table of ``seeds`` as the draw made it path by path: each
    stream's count, its times by ``uniform`` until they are distinct and
    positive, then the marks from per-stream ``random(n)`` draws."""
    model = scenario.model()
    rngs = [pm.stream(seed, DOMAIN_ATOMS) for seed in seeds]
    counts = [int(g.poisson(model.mass * scenario.horizon)) for g in rngs]
    times = []
    for g, n in zip(rngs, counts):
        t = np.sort(g.uniform(0.0, scenario.horizon, n))
        while not (np.all(t[:1] > 0.0) and np.all(np.diff(t) > 0.0)):
            t = np.sort(g.uniform(0.0, scenario.horizon, n))
        times.append(t)
    marks = _SAMPLERS[scenario.name][0](model.truncation)(rngs, counts)
    return np.concatenate([np.zeros(0)] + times), marks, np.array(counts)


def _same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_batch_draw_has_the_bits_of_per_path_draws(name):
    scenario = get_scenario(name)
    for seed in _SEEDS:
        seeds = path_seeds(seed, _N_PATHS)
        _same_bytes(_simulate_table(scenario.model(), scenario.horizon, seeds),
                    _ref_table(scenario, seeds))


class _Edited:
    """A stream that passes its draws through, but sets uniform ``at`` of it,
    counted from 0 over its ``random`` and ``uniform`` calls alike, to the low
    end of its range (``edit = "zero"``) or to the uniform before it in the
    same call (``"tie"``)."""

    def __init__(self, g, at, edit):
        self.g, self.at, self.edit = g, at, edit

    def __getattr__(self, name):
        return getattr(self.g, name)

    def _edited(self, draw, lo):
        k, self.at = self.at, self.at - draw.size
        if 0 <= k < draw.size:
            draw[k] = lo if self.edit == "zero" else draw[k - 1]
        return draw

    def random(self, n=None, out=None):
        return self._edited(self.g.random(n, out=out), 0.0)

    def uniform(self, lo, hi, n):
        return self._edited(self.g.uniform(lo, hi, n), lo)


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
@pytest.mark.parametrize("where", ["zero time", "tied time", "zero open uniform"])
def test_batch_draw_keeps_the_bits_through_a_redraw(monkeypatch, name, where):
    scenario = get_scenario(name)
    seeds = path_seeds(2000, 8)
    edited = seeds[3]
    n = _ref_table(scenario, [edited])[2][0]
    assert n > 2
    at, edit = {"zero time": (0, "zero"), "tied time": (1, "tie"),
                "zero open uniform": (_SAMPLERS[name][1] * n + 1, "zero")}[where]
    real = pm.stream
    monkeypatch.setattr(pm, "stream", lambda s, *domain: (
        _Edited(real(s, *domain), at, edit) if s == edited else real(s, *domain)))
    got, want = _simulate_table(scenario.model(), scenario.horizon, seeds), _ref_table(scenario,
                                                                                      seeds)
    _same_bytes(got, want)
    monkeypatch.undo()
    # the edit took: the edited path drew other times or marks than its seed alone
    path = slice(int(np.sum(got[2][:3])), int(np.sum(got[2][:4])))
    alone = _simulate_table(scenario.model(), scenario.horizon, seeds)
    assert (got[0][path].tobytes() != alone[0][path].tobytes()
            or got[1][path].tobytes() != alone[1][path].tobytes())


# ------------------------------------------------------- the closed forms


def _ref_path_sums(terms, counts):
    counts = np.asarray(counts, dtype=int)
    if counts.size * terms.shape[1] * terms.shape[2] == 1 and len(terms):
        return np.add.accumulate(terms, axis=0)[-1:] + 0.0
    padded = np.zeros((max(int(counts.max(initial=0)), 1), counts.size) + terms.shape[1:])
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    padded[np.arange(len(terms)) - starts, np.repeat(np.arange(counts.size), counts)] = terms
    return padded.sum(axis=0) + 0.0


def _ref_area_closed_path(times, marks, counts, m1, t):
    path = np.repeat(np.arange(counts.size), counts)
    atom = np.arange(path.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ends = np.arange(counts.size), 2 * counts + 1
    grid = np.full((counts.size, int(counts.max(initial=0)) + 1), float(t))
    grid[path, atom] = times
    dt = np.diff(grid, axis=1, prepend=0.0)
    steps = np.zeros((counts.size, 2 * dt.shape[1], 2))
    steps[:, 1::2] = -(m1 * dt[:, :, None])
    steps[path, 2 * atom + 2] = marks
    x = np.add.accumulate(steps, axis=1)
    avg = 0.5 * (x[:, 0::2] + x[:, 1::2])
    terms = np.zeros(steps.shape[:2])
    terms[:, 1::2] = -m1[1] * (avg[:, :, 0] * dt) + m1[0] * (avg[:, :, 1] * dt)
    lefts = x[path, 2 * atom + 1]
    terms[path, 2 * atom + 2] = lefts[:, 0] * marks[:, 1] - lefts[:, 1] * marks[:, 0]
    return np.column_stack([x[ends], np.add.accumulate(terms, axis=1)[ends]]), path, lefts


def _ref_area_closed_gamma(times, marks, counts, w, m1, t, tangent=False):
    v, path, lefts = _ref_area_closed_path(times, marks, counts, m1, t)
    live, u = w.any(axis=(1, 2)), marks
    if not live.all():
        w, u, lefts, path = w[live], marks[live], lefts[live], path[live]
    a_t = v[path, 1] - u[:, 1] - 2.0 * lefts[:, 1]
    b_t = v[path, 0] - u[:, 0] - 2.0 * lefts[:, 0]
    n = a_t.size
    jac = np.zeros((n, 3, 2))
    jac[:, 0, 0] = jac[:, 1, 1] = 1.0
    jac[:, 2, 0], jac[:, 2, 1] = a_t, -b_t
    out = _ref_path_sums(jac @ w @ jac.transpose(0, 2, 1), np.bincount(path, minlength=len(v)))
    if tangent:
        lam = graph_slope(u)
        span = np.column_stack([np.ones(n), lam, a_t - lam * b_t])
    else:
        span = np.zeros((2 * n, 3))
        span[0::2, 0] = span[1::2, 1] = 1.0
        span[0::2, 2], span[1::2, 2] = a_t, -b_t
    return 0.5 * (out + out.transpose(0, 2, 1)), v, span


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_closed_forms_have_the_bits_of_the_pair_indexed_code(monkeypatch, name):
    import lentparticle.scenarios as scenarios

    scenario = get_scenario(name)
    eps, t = scenario.default_truncation, scenario.eval_time
    for seed in _SEEDS:
        times, marks, counts = _simulate_table(scenario.model(), scenario.horizon,
                                               path_seeds(seed, _N_PATHS))
        w = scenario.bottom.weight(marks)
        if name == "doleans":
            m1 = power_law_first_moment(eps, 1.0, 0.5, 0.5)
            got = [doleans_closed_gamma(marks, counts, w, m1, t)]
            with monkeypatch.context() as patch:
                patch.setattr(scenarios, "_path_sums", _ref_path_sums)
                want = [doleans_closed_gamma(marks, counts, w, m1, t)]
        else:
            tangent = name == "levy-area-2"
            m1 = (np.array([power_law_first_moment(eps, 1.0, 0.5, 0.5),
                            power_law_second_moment(eps, 1.0, 0.5)])
                  if tangent else polar_first_moment(eps, 0.5))
            got = area_closed_gamma(times, marks, counts, w, m1, t, tangent)
            want = _ref_area_closed_gamma(times, marks, counts, w, m1, t, tangent)
        _same_bytes(got, want)


@pytest.mark.parametrize("counts", [[0], [3], [0, 0], [2, 0, 5, 1], [0, 7, 0]])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_path_sums_have_the_bits_of_the_pair_indexed_code(counts, d):
    rng = np.random.default_rng(len(counts) * 10 + d)
    terms = rng.standard_normal((sum(counts), d, d)) * 10.0 ** rng.integers(-8, 8, (sum(counts),
                                                                                   1, 1))
    _same_bytes([_path_sums(terms, counts)], [_ref_path_sums(terms, counts)])


def test_a_strided_operand_gives_the_bits_of_a_contiguous_one():
    # numpy takes a stacked product with a strided operand on a slower path;
    # the code relies on both paths giving the same bits
    rng = np.random.default_rng(3)
    for n, d, r in [(1494, 3, 2), (40, 3, 3), (7, 2, 1)]:
        jac = rng.standard_normal((n, d, r)) * 10.0 ** rng.integers(-6, 6, (n, 1, 1))
        w = rng.standard_normal((n, r, r))
        left = jac @ w
        assert (left @ jac.transpose(0, 2, 1)).tobytes() == (
            left @ jac.transpose(0, 2, 1).copy()).tobytes()


# ------------------------------------------- rows moved by advanced indexing


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _ref_flat_area_closed_path(times, marks, counts, m1, t):
    # the padded arrays written and read through flat indices of their rows
    width = int(counts.max(initial=0)) + 1
    path = np.repeat(np.arange(counts.size), counts)
    cell = np.arange(path.size) + np.repeat(width * np.arange(counts.size) - np.cumsum(counts)
                                            + counts, counts)
    ends = np.arange(counts.size), 2 * counts + 1
    grid = np.full((counts.size, width), float(t))
    grid.reshape(-1)[cell] = times
    dt = np.diff(grid, axis=1, prepend=0.0)
    steps = np.zeros((counts.size, 2 * width, 2))
    steps[:, 1::2] = -(m1 * dt[:, :, None])
    steps.reshape(-1, 2)[2 * cell + 2] = marks
    x = np.add.accumulate(steps, axis=1)
    avg = 0.5 * (x[:, 0::2] + x[:, 1::2])
    terms = np.zeros(steps.shape[:2])
    terms[:, 1::2] = -m1[1] * (avg[:, :, 0] * dt) + m1[0] * (avg[:, :, 1] * dt)
    lefts = x.reshape(-1, 2)[2 * cell + 1]
    terms.reshape(-1)[2 * cell + 2] = lefts[:, 0] * marks[:, 1] - lefts[:, 1] * marks[:, 0]
    return np.column_stack([x[ends], np.add.accumulate(terms, axis=1)[ends]]), path, lefts


def _ref_weight(bs, marks):
    # BottomStructure.weight on valid marks, each callable given its own
    # gather, the result scattered by advanced indexing
    r = bs.mark_dimension
    out = np.zeros((marks.shape[0], r, r))
    rows = np.flatnonzero(bs.support(marks))
    p = np.asarray(bs.psi(marks[rows]), dtype=float)
    rows, p = rows[p != 0.0], p[p != 0.0]
    if not rows.size:
        return out
    k = np.asarray(bs.density(marks[rows]), dtype=float)
    entries = np.asarray(bs.xi(marks[rows]), dtype=float).reshape(-1, r * r).T
    swap = np.arange(r * r).reshape(r, r).T.ravel()
    with np.errstate(over="ignore"):
        w = entries * (p / k)
        out.reshape(-1, r * r)[rows] = ((w[swap] + w) * 0.5).T
    return out


def _ref_closed_gammas(scenario, table, levels, t):
    # Scenario._closed_gammas with its atoms, marks and weights gathered by
    # advanced indexing
    times, marks, counts = table
    up = (times <= t) & np.logical_or.reduce([keep for keep, _ in levels])
    path = np.repeat(np.arange(len(counts)), counts)[up]
    times, marks = times[up], marks[up]
    weights = scenario.bottom.weight(marks)
    out = []
    for keep, truncation in levels:
        at = np.flatnonzero(keep[up])
        model = scenario.model(truncation)
        kept = np.bincount(path[at], minlength=len(counts))
        starts = np.cumsum(kept) - kept
        out.append(np.zeros((len(counts), scenario.dim, scenario.dim)))
        for chunk in _closed_chunks(kept):
            n = kept[chunk]
            mine = at[np.repeat(starts[chunk] - (np.cumsum(n) - n), n) + np.arange(n.sum())]
            out[-1][chunk] = scenario.closed_form_gamma(times[mine], marks[mine], n,
                                                        weights[mine], model, t)
    return out


def _sweep_tables(name):
    """Each seed's atom table at the scenario's default truncation, the levels
    of it kept at 4, 2 and 1 times that truncation, and a time before the
    horizon and at it."""
    scenario = get_scenario(name)
    eps = scenario.default_truncation
    for seed in _SEEDS:
        table = _simulate_table(scenario.model(), scenario.horizon, path_seeds(seed, _N_PATHS))
        levels = [(scenario.restrict_mask(table[1], f * eps), f * eps) for f in (4, 2, 1)]
        for t in (0.6 * scenario.eval_time, scenario.eval_time):
            yield scenario, table, levels, t


@pytest.mark.parametrize("name", ["levy-area-1", "levy-area-2"])
def test_area_closed_path_has_the_bits_of_the_flat_indexed_code(name):
    import lentparticle.scenarios as scenarios

    got, want = [], []
    for scenario, (times, marks, counts), _, t in _sweep_tables(name):
        up = times <= t
        path = np.repeat(np.arange(len(counts)), counts)[up]
        cut = times[up], marks[up], np.bincount(path, minlength=len(counts))
        m1 = np.array([0.3, -0.7])
        got += scenarios._area_closed_path(*cut, m1, t)
        want += _ref_flat_area_closed_path(*cut, m1, t)
    assert _digest(got) == _digest(want)


def _psi_zeroes_some(bs):
    # the structure with psi zeroed on every third supported mark
    def psi(marks):
        p = np.array(bs.psi(marks), dtype=float)
        p[::3] = 0.0
        return p

    return dataclasses.replace(bs, psi=psi)


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_weight_has_the_bits_of_the_advanced_indexed_code(name):
    got, want = [], []
    for scenario, (times, marks, counts), *_ in _sweep_tables(name):
        for bs in (scenario.bottom, _psi_zeroes_some(scenario.bottom)):
            got.append(bs.weight(marks))
            want.append(_ref_weight(bs, marks))
    assert _digest(got) == _digest(want)


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_closed_gammas_have_the_bits_of_the_advanced_indexed_gathers(name):
    got, want = [], []
    for scenario, table, levels, t in _sweep_tables(name):
        got += scenario._closed_gammas(table, levels, t)
        want += _ref_closed_gammas(scenario, table, levels, t)
    assert _digest(got) == _digest(want)
