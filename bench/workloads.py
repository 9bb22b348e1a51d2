"""The four benchmark workloads, driven through the public API of lentparticle.

Each workload is a class with the same small interface:

* ``setup(lp)`` builds the scenarios, models, coefficient sets and configs
  once, before any timed job; its cost is what ``setup_s`` reports.
* ``prepare(state, seed)`` makes one job's inputs outside the timed region.
* ``job(state, prep)`` is the timed unit of user work.
* ``items(state, prep, out)`` counts what the job completed.
* ``check(state, prep, out)`` returns a list of failed-check messages; it runs
  outside the timed region, so a faster wrong answer counts as a failure.
* ``digest(state, prep, out)`` hashes the job's outputs for the determinism
  gate: the same seed must give byte-identical outputs.

No workload passes ``threads``: every job runs in one process on one thread.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import shutil
from pathlib import Path

EPSILONS = (0.05, 0.02, 0.008)
RANK_TOL = 1e-8
# cmd_gamma's tolerance for finite-difference renderings against theorem9
FD_REL_TOL = 1e-4

# The README "scenario = custom" config, verbatim.  Both compensators vanish
# by symmetry of the uniform marks, which gives the exact-solution check.
CUSTOM_INI = """\
[run]
scenario = custom
seed = 3

[model]
kind = uniform
halfwidth = 0.6
truncation = 0.1
intensity = 4.0

[numeric]
step = 0.01

[coefficients]
state_dim = 2
x0 = 0.5 0.0
c_1 = u1
c_2 = x1 * u1

[structure]
k = 1
psi = 1
xi_1 = u1^2
"""


def _hash_arrays(*arrays) -> str:
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sub_seed(seed: int, attempt: int) -> int:
    digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _table_arrays(table):
    return [[r.epsilon, r.n_paths, r.full_rank_fraction, r.median_min_eig] for r in table.rows]


class _RankStats:
    """Shared by both rank workloads: one job is one ``monte_carlo_rank_stats``."""

    n_paths = 0

    def prepare(self, state, seed):
        return seed

    def job(self, state, seed):
        return state["lp"].monte_carlo_rank_stats(
            state["scenario"], self.n_paths, EPSILONS, seed, rel_tol=RANK_TOL)

    def items(self, state, seed, table):
        return self.n_paths

    def nominal_items(self, state, seed):
        return self.n_paths

    def digest(self, state, seed, table):
        return _hash_arrays(_table_arrays(table), [table.monotone_nondecreasing])


class RankPipeline(_RankStats):
    """levy-area-1 without its closed form: each path x eps solves with flows.

    Items are paths.  Each table must equal the closed-form table of the
    same seed, which is exact here because RK4 integrates the area's
    polynomial drift exactly.
    """

    name = "rank-pipeline"
    n_paths = 32

    def setup(self, lp):
        closed = lp.get_scenario("levy-area-1")
        return {"lp": lp, "closed": closed,
                "scenario": dataclasses.replace(closed, closed_form_gamma=None)}

    def check(self, state, seed, table):
        ref = state["lp"].monte_carlo_rank_stats(
            state["closed"], self.n_paths, EPSILONS, seed, rel_tol=RANK_TOL)
        errors = []
        for got, want in zip(table.rows, ref.rows):
            if got.full_rank_fraction != want.full_rank_fraction:
                errors.append(f"eps={got.epsilon}: full-rank fraction {got.full_rank_fraction}"
                              f" != closed form {want.full_rank_fraction}")
            scale = max(abs(got.median_min_eig), abs(want.median_min_eig))
            if abs(got.median_min_eig - want.median_min_eig) > 1e-9 * scale:
                errors.append(f"eps={got.epsilon}: median_min_eig {got.median_min_eig!r}"
                              f" vs closed form {want.median_min_eig!r}")
        if len(table.rows) != len(ref.rows):
            errors.append("row count differs from the closed-form table")
        return errors


class RankClosed(_RankStats):
    """levy-area-1 through its closed form; items are paths.

    Coarser truncations keep a subset of the atoms, so the full-rank
    fraction must be non-decreasing as eps shrinks.
    """

    name = "rank-closed"
    n_paths = 256

    def setup(self, lp):
        return {"lp": lp, "scenario": lp.get_scenario("levy-area-1")}

    def check(self, state, seed, table):
        if not table.monotone_nondecreasing:
            fracs = [r.full_rank_fraction for r in table.rows]
            return [f"coupled monotonicity broken: full-rank fractions {fracs}"]
        return []


class LentGradient:
    """gamma_generic on SdeFunctional and gamma_rho_mc on one doleans config.

    The item is the job.  Both must match theorem9 on the same
    configuration within the tolerances ``lentparticle gamma`` applies.
    """

    name = "lent-gradient"
    draws = 2 ** 20
    # Both renderings cost in proportion to the atom count, which is Poisson
    # with mean 30 at the default truncation (CV 18%).  Jobs use configurations
    # of exactly the mean size, so job_s measures the code and not the draw.
    atoms = 30

    def setup(self, lp):
        from lentparticle.scenarios import power_law_first_moment

        scenario = lp.get_scenario("doleans")
        model = scenario.model()
        coeffs = scenario.make_coeffs(model)
        t = scenario.eval_time
        m1 = power_law_first_moment(model.truncation, alpha=1.0, bound=0.5, asymmetry=0.5)
        return {
            "lp": lp, "scenario": scenario, "t": t,
            "sde": lp.SdeFunctional(coeffs, model, scenario.x0, scenario.step, t),
            "pair": lp.DoleansPairFunctional(m1, t),
        }

    def prepare(self, state, seed):
        for attempt in range(100_000):
            sub = _sub_seed(seed, attempt)
            config = state["scenario"].simulate(seed=sub)
            if config.n_atoms == self.atoms:
                return sub, config
        raise RuntimeError(f"no {self.atoms}-atom configuration found from seed {seed}")

    def job(self, state, prep):
        seed, config = prep
        lp, bs = state["lp"], state["scenario"].bottom
        generic = lp.gamma_generic(state["sde"], config, bs)
        rho = lp.gamma_rho_mc(state["pair"], config, bs, self.draws, seed)
        return generic, rho

    def items(self, state, prep, out):
        return 1

    def nominal_items(self, state, prep):
        return 1

    def check(self, state, prep, out):
        import numpy as np

        _, config = prep
        generic, rho = out
        _, flow = state["scenario"].run(config)
        ref = flow.matrix
        tol = FD_REL_TOL * (1.0 + float(np.max(np.abs(ref))))
        errors = []
        diff = float(np.max(np.abs(generic.matrix - ref)))
        if not diff <= tol:
            errors.append(f"gamma_generic vs theorem9: {diff:.3g} > {tol:.3g}")
        se = float(np.max(rho.standard_errors))
        diff = float(np.max(np.abs(rho.matrix - ref)))
        if not diff <= max(4.0 * se, tol):
            errors.append(f"gamma_rho_mc vs theorem9: {diff:.3g} > max(4 SE, tol)")
        return errors

    def digest(self, state, prep, out):
        generic, rho = out
        return _hash_arrays(generic.matrix, rho.matrix, rho.standard_errors)


class CustomQuad:
    """In-process ``lentparticle simulate`` on the README custom config.

    Items are trajectory rows.  Both compensators vanish, so X must equal
    the exact atom sums and K Kbar must be the identity on every row.
    """

    name = "custom-quad"

    def __init__(self, out_root: Path):
        self.out_root = out_root

    def setup(self, lp):
        import lentparticle.cli as cli

        self.out_root.mkdir(parents=True, exist_ok=True)
        ini = self.out_root / "custom.ini"
        ini.write_text(CUSTOM_INI, encoding="utf-8")
        model = lp.uniform_box_model(1, halfwidth=0.6, truncation=0.1, intensity=4.0)
        return {"lp": lp, "cli": cli, "ini": ini, "model": model}

    def prepare(self, state, seed):
        out = self.out_root / f"job-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        return seed, out

    def job(self, state, prep):
        seed, out = prep
        argv = ["simulate", "--config", str(state["ini"]), "--out", str(out),
                "--seed", str(seed)]
        code = state["cli"].main(argv)
        if code != 0:
            raise RuntimeError(f"lentparticle simulate exited with code {code}")
        return out

    def _expected(self, state, seed):
        """Exact atom sums: X1 = 0.5 + sum u, X2 = sum X1(a-) u."""
        import numpy as np

        config = state["lp"].simulate_configuration(state["model"], 1.0, seed)
        grid = np.union1d(np.linspace(0.0, 1.0, 101), config.times)
        x1 = 0.5 + np.concatenate([[0.0], np.cumsum(config.marks[:, 0])])
        x2 = np.concatenate([[0.0], np.cumsum(x1[:-1] * config.marks[:, 0])])
        after = np.searchsorted(config.times, grid, side="right")
        return grid, np.column_stack([x1[after], x2[after]])

    def _read(self, out):
        import numpy as np

        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], np.array(rows[1:], dtype=float)

    def items(self, state, prep, out):
        _, data = self._read(out)
        return data.shape[0]

    def nominal_items(self, state, prep):
        seed, _ = prep
        return self._expected(state, seed)[0].shape[0]

    def check(self, state, prep, out):
        import numpy as np

        seed, _ = prep
        header, data = self._read(out)
        grid, exact = self._expected(state, seed)
        if data.shape[0] != grid.shape[0] or header[2:4] != ["X_1", "X_2"]:
            return [f"trajectory has {data.shape[0]} rows, expected {grid.shape[0]}"]
        errors = []
        err = float(np.max(np.abs(data[:, 2:4] - exact)))
        if not err <= 1e-10:
            errors.append(f"X deviates from the exact atom sums by {err:.3g}")
        k = data[:, 4:8].reshape(-1, 2, 2)
        kbar = data[:, 8:12].reshape(-1, 2, 2)
        resid = float(np.max(np.abs(k @ kbar - np.eye(2))))
        if not resid <= 1e-9:
            errors.append(f"K Kbar deviates from I by {resid:.3g}")
        return errors

    def digest(self, state, prep, out):
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def bytes_written(self, out):
        return sum(p.stat().st_size for p in out.iterdir())

    def cleanup(self, prep):
        shutil.rmtree(prep[1], ignore_errors=True)


def make(name: str, out_root: Path):
    for cls in (RankPipeline, RankClosed, LentGradient):
        if cls.name == name:
            return cls()
    if name == CustomQuad.name:
        return CustomQuad(out_root)
    raise KeyError(name)


NAMES = (RankPipeline.name, RankClosed.name, LentGradient.name, CustomQuad.name)
