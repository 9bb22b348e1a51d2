"""Config-driven command-line front end.

Subcommands::

    lentparticle simulate   --config run.ini --out dir [--seed N]
    lentparticle gamma      --config run.ini --out dir [--seed N]
    lentparticle rank-stats --config run.ini --out dir [--seed N]
    lentparticle example NAME --out dir --seed N [--config run.ini]

The config file is INI-style with typed sections ([run], [model], [numeric],
[gamma], [structure], [coefficients]).  A run-manifest JSON produced by any
command can be passed back as ``--config``: it carries the full config echo,
so reruns are byte-identical.  No command reads the clock; all randomness
descends from the seed.

Named scenarios take as ``[model]`` keys the keyword parameters of their
builder in :mod:`lentparticle.scenarios`; ``example doleans|levy-area-*``
runs the ``gamma`` (theorem9) pipeline and adds closed-form terminal values.
Every command reads its whole config, refuses a key it did not read
(``section.key: not read by <command>``) before any work, and computes its
results before it creates ``--out``.

Exit codes: 0 success, 1 runtime or numeric failure, 2 configuration error
or work above an admission limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from ._serialise import json_default, write_csv
from .bottom_structure import (
    BottomStructure,
    from_expressions,
    standard_instances,
)
from .density_criteria import monte_carlo_rank_stats, rank_diagnostic, span_dimension
from .errors import ConfigFileError, InputError, LentParticleError
from .expressions import compile_coefficient, compile_jacobians
from .lent_particle import (
    SdeFunctional,
    gamma_flow,
    gamma_generic,
    gamma_rho_mc,
)
from .poisson_measure import TruncatedLevyModel
from .scenarios import (
    SCENARIO_NAMES,
    DoleansPairFunctional,
    Scenario,
    area_closed_gamma,
    doleans_exponential,
    get_scenario,
    mckean_vlasov,
    power_law_first_moment,
    power_law_model,
    stable_like_coefficient,
    stable_like_generator_check,
    stable_like_pushforward_check,
    uniform_box_model,
    zeta,
)
from .sde_engine import CoefficientSet, write_trajectory_csv

__all__ = ["main", "build_parser"]

_EXAMPLE_NAMES = ("doleans", "levy-area-1", "levy-area-2", "mckean", "stable-like")
_GAMMA_TAGS = ("theorem9", "remark3", "generic", "rho_mc")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> dict[str, dict[str, str]]:
    """Parse an INI config or recover the echo from a manifest JSON."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigFileError(f"config file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigFileError(f"config file is neither INI nor JSON: {exc}") from exc
        cfg = manifest.get("config")
        if not isinstance(cfg, dict):
            raise ConfigFileError("manifest JSON lacks a 'config' object")
        out: dict[str, dict[str, str]] = {}
        for sec, keys in cfg.items():
            if not isinstance(keys, dict):
                raise ConfigFileError(f"{sec}: manifest config sections must be objects")
            out[sec] = {str(k): str(v) for k, v in keys.items()}
        if "seed" in manifest and "seed" not in out.get("run", {}):
            out.setdefault("run", {})["seed"] = str(manifest["seed"])
        return out
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigFileError(f"could not parse {path}: {exc}") from exc
    return {sec: dict(parser.items(sec)) for sec in parser.sections()}


class _Config(dict):
    """Config sections, ``section -> key -> raw value``, that record every key read."""

    def __init__(self, sections: dict):
        super().__init__(sections)
        self.read: set = set()

    def refuse_unread(self, command: str) -> None:
        """Refuse the first key that no read took; commands call it before any work."""
        for sec, keys in self.items():
            for key in keys:
                if (sec, key) not in self.read:
                    raise ConfigFileError(f"{sec}.{key}: not read by {command}")


def _get(cfg, section, key, default=None):
    cfg.read.add((section, key))
    return cfg.get(section, {}).get(key, default)


def _get_float(cfg, section, key, default=None, positive=False, nonnegative=False):
    raw = _get(cfg, section, key)
    if raw is None:
        if default is None:
            raise ConfigFileError(f"{section}.{key}: required")
        return default
    try:
        val = float(raw)
    except ValueError:
        raise ConfigFileError(f"{section}.{key}: not a number: {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigFileError(f"{section}.{key}: must be finite")
    if positive and not val > 0.0:
        raise ConfigFileError(f"{section}.{key}: must be > 0, got {raw}")
    if nonnegative and val < 0.0:
        raise ConfigFileError(f"{section}.{key}: must be >= 0, got {raw}")
    return val


def _get_int(cfg, section, key, default=None, minimum=None):
    raw = _get(cfg, section, key)
    if raw is None:
        if default is None:
            raise ConfigFileError(f"{section}.{key}: required")
        return default
    try:
        val = int(raw)
    except ValueError:
        raise ConfigFileError(f"{section}.{key}: not an integer: {raw!r}") from None
    if minimum is not None and val < minimum:
        raise ConfigFileError(f"{section}.{key}: must be >= {minimum}, got {val}")
    return val


def _get_bool(cfg, section, key, default=False):
    raw = _get(cfg, section, key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigFileError(f"{section}.{key}: not a boolean: {raw!r}")


def _get_float_list(cfg, section, key):
    raw = _get(cfg, section, key)
    if raw is None or not raw.strip():
        return []
    out = []
    for tok in raw.replace(",", " ").split():
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigFileError(f"{section}.{key}: not a number: {tok!r}") from None
        if not math.isfinite(out[-1]):
            raise ConfigFileError(f"{section}.{key}: must be finite")
    return out


def _load_run(args) -> tuple[dict, int]:
    """The ``--config``, recording its reads, and the seed the run descends from."""
    cfg = _Config(_load_config(args.config))
    return cfg, _resolve_seed(args, cfg)


def _resolve_seed(args, cfg) -> int:
    raw = _get(cfg, "run", "seed")  # read under --seed too: a manifest echoes it
    if args.seed is not None:
        seed, source = int(args.seed), "--seed"
    elif raw is None:
        raise ConfigFileError("run.seed: required (pass --seed or set it in the config)")
    else:
        try:
            seed, source = int(raw), "run.seed"
        except ValueError:
            raise ConfigFileError(f"run.seed: not an integer: {raw!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise ConfigFileError(f"{source}: must lie in [0, 2**64), got {seed}")
    return seed


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------

def _numeric_overrides(cfg) -> dict:
    return {
        key: _get_float(cfg, "numeric", key, positive=True)
        for key in ("step", "horizon", "eval_time")
        if _get(cfg, "numeric", key) is not None
    }


def _named_scenario(name: str, cfg) -> Scenario:
    overrides: dict = {}
    for key in cfg.get("model", {}):
        if key == "kind":
            raise ConfigFileError("model.kind: only meaningful for scenario = custom")
        overrides[key] = _get_float(cfg, "model", key)
    if "truncation" in overrides and overrides["truncation"] <= 0:
        raise ConfigFileError("model.truncation: must be > 0")
    try:
        return get_scenario(name, **overrides, **_numeric_overrides(cfg))
    except InputError as exc:
        # every builder takes the [numeric] keys, so what get_scenario
        # refuses is a [model] key, and its message starts with that key
        raise ConfigFileError(f"model.{exc}") from exc


def _custom_model(cfg) -> TruncatedLevyModel:
    kind = _get(cfg, "model", "kind", "uniform")
    if kind == "uniform":
        return uniform_box_model(
            1,
            halfwidth=_get_float(cfg, "model", "halfwidth", 1.0, positive=True),
            truncation=_get_float(cfg, "model", "truncation", 0.05, nonnegative=True),
            intensity=_get_float(cfg, "model", "intensity", 1.0, positive=True),
        )
    if kind == "power-law":
        return power_law_model(
            _get_float(cfg, "model", "truncation", 0.05, positive=True),
            alpha=_get_float(cfg, "model", "alpha", 1.0, positive=True),
            bound=_get_float(cfg, "model", "bound", 0.5, positive=True),
            asymmetry=_get_float(cfg, "model", "asymmetry", 0.0),
        )
    raise ConfigFileError(f"model.kind: unknown kind {kind!r}")


def _custom_structure(cfg, r: int) -> BottomStructure:
    sec = cfg.get("structure", {})
    name = _get(cfg, "structure", "name")
    if name is not None:
        catalog = standard_instances()
        if name not in catalog:
            raise ConfigFileError(
                f"structure.name: unknown {name!r}; available: {', '.join(sorted(catalog))}"
            )
        bs = catalog[name]
        if bs.mark_dimension != r:
            raise ConfigFileError(
                f"structure.name: {name} has mark dimension {bs.mark_dimension}, model has {r}"
            )
        return bs
    if "k" in sec or "psi" in sec or any(k.startswith("xi_") for k in sec):
        diag = []
        for i in range(1, r + 1):
            src = _get(cfg, "structure", f"xi_{i}")
            if src is None:
                raise ConfigFileError(f"structure.xi_{i}: required for a custom structure")
            diag.append(src)
        k = _get(cfg, "structure", "k", "1")
        try:
            return from_expressions(k, _get(cfg, "structure", "psi", k), diag, r)
        except InputError as exc:
            raise ConfigFileError(f"structure: {exc}") from exc
    return standard_instances()["PSI_OVER_K"] if r == 1 else standard_instances()["ISOTROPIC_RD"]


def _custom_scenario(cfg) -> Scenario:
    sec = cfg.get("coefficients")
    if not sec:
        raise ConfigFileError("coefficients: section required when run.scenario = custom")
    d = _get_int(cfg, "coefficients", "state_dim", minimum=1)
    x0_list = _get_float_list(cfg, "coefficients", "x0")
    if len(x0_list) != d:
        raise ConfigFileError(f"coefficients.x0: need {d} components, got {len(x0_list)}")
    model = _custom_model(cfg)
    r = model.mark_dimension
    sources = []
    for i in range(1, d + 1):
        src = _get(cfg, "coefficients", f"c_{i}")
        if src is None:
            raise ConfigFileError(f"coefficients.c_{i}: required")
        sources.append(src)
    try:
        cfun = compile_coefficient(sources, d, r)
        dx_c, du_c = compile_jacobians(sources, d, r)
    except InputError as exc:  # it names the key: c_i: ...
        raise ConfigFileError(f"coefficients.{exc}") from exc
    # no compensator: each solve integrates it against its own truncated model
    coeffs = CoefficientSet(dim=d, c=cfun, dx_c=dx_c, du_c=du_c, name="custom")
    bs = _custom_structure(cfg, r)
    num = _numeric_overrides(cfg)
    horizon = num.get("horizon", 1.0)
    return Scenario(
        name="custom", dim=d, mark_dimension=r,
        horizon=horizon,
        eval_time=num.get("eval_time", horizon),
        x0=np.array(x0_list), step=num.get("step", 0.01),
        default_truncation=model.truncation,
        bottom=bs,
        make_model=lambda eps: model if eps == model.truncation else _retruncate(cfg, eps),
        make_coeffs=lambda m: coeffs,
        notes="user-supplied coefficient expressions",
    )


def _retruncate(cfg, eps: float) -> TruncatedLevyModel:
    sub = _Config({k: dict(v) for k, v in cfg.items()})
    sub.setdefault("model", {})["truncation"] = repr(eps)
    return _custom_model(sub)


def _scenario_from_config(cfg, name: str | None = None) -> Scenario:
    """Build scenario ``name``, by default the one ``run.scenario`` names."""
    name = name or _get(cfg, "run", "scenario")
    if name is None:
        raise ConfigFileError("run.scenario: required")
    if name == "custom":
        scenario = _custom_scenario(cfg)
    elif name in SCENARIO_NAMES:
        scenario = _named_scenario(name, cfg)
    else:
        raise ConfigFileError(
            "run.scenario: unknown scenario "
            f"{name!r}; available: {', '.join(SCENARIO_NAMES)}, custom"
        )
    if scenario.eval_time > scenario.horizon:
        raise ConfigFileError(
            f"numeric.eval_time: must be <= the horizon {scenario.horizon:g}, "
            f"got {scenario.eval_time:g}"
        )
    return scenario


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, default=json_default)
    path.write_text(text + "\n", encoding="utf-8")


def _write_run(args, command: str, cfg, seed: int, outputs: dict) -> Path:
    """Create ``--out``, call each ``outputs[name](path)``, then write the manifest.

    Commands call this last, once every input is read and every result is
    computed, so a failed run leaves no output directory behind.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in outputs.items():
        write(out_dir / name)
    # the echo carries the *resolved* seed so that feeding the manifest back
    # via --config reproduces the run even when the seed was originally given
    # on the command line
    echo = {sec: dict(keys) for sec, keys in cfg.items()}
    echo["run"] = {**echo.get("run", {}), "seed": str(int(seed))}
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config": echo,
        "outputs": sorted(outputs),
        "seed": int(seed),
        "version": __version__,
    })
    return out_dir


def _cross_check(reference_tag: str, reference: np.ndarray, candidate: np.ndarray,
                 tolerance: float) -> dict:
    diff = float(np.max(np.abs(reference - candidate))) if reference.size else 0.0
    return {
        "max_abs_difference": diff,
        "reference_tag": reference_tag,
        "tolerance": float(tolerance),
        "within_tolerance": bool(diff <= tolerance),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg, seed = _load_run(args)
    scenario = _scenario_from_config(cfg)
    cfg.refuse_unread("simulate")
    config = scenario.simulate(seed=seed)
    _, _, traj = scenario.pipeline(config, t=scenario.horizon)
    out_dir = _write_run(args, "simulate", cfg, seed,
                         {"trajectory.csv": partial(write_trajectory_csv, traj)})
    print(f"wrote {out_dir / 'trajectory.csv'} ({config.n_atoms} jumps)")
    return 0


def cmd_gamma(args) -> int:
    cfg, seed = _load_run(args)
    tag = _get(cfg, "gamma", "formula", "theorem9")
    if tag not in _GAMMA_TAGS:
        raise ConfigFileError(
            f"gamma.formula: unknown tag {tag!r}; available: {', '.join(_GAMMA_TAGS)}"
        )
    include_terms = _get_bool(cfg, "gamma", "include_terms", False)
    if tag == "rho_mc":
        draws = _get_int(cfg, "numeric", "draws", default=10000, minimum=2)
    scenario = _scenario_from_config(cfg)
    cfg.refuse_unread("gamma")
    config = scenario.simulate(seed=seed)
    model, coeffs, traj = scenario.pipeline(config)
    t = scenario.eval_time
    flow = gamma_flow(traj, coeffs, scenario.bottom, t)

    if tag in ("theorem9", "remark3"):
        # each flow rendering is checked against the other
        left = gamma_flow(traj, coeffs, scenario.bottom, t, rendering="remark3")
        gm, ref = (flow, left) if tag == "theorem9" else (left, flow)
        check = _cross_check(ref.formula_tag, ref.matrix, gm.matrix, 1e-10)
    else:
        if scenario.name == "doleans":
            # the compensator at the origin is (m1, 0)
            m1 = coeffs.compensator(np.zeros(1), np.zeros((1, 2)))[0, 0]
            functional = DoleansPairFunctional(m1, t)
            fd_tol = 1e-8 * (1.0 + float(np.max(np.abs(flow.matrix))))
        else:
            functional = SdeFunctional(coeffs, model, scenario.x0, scenario.step, t)
            fd_tol = 1e-6 * (1.0 + float(np.max(np.abs(flow.matrix))))
        if tag == "generic":
            gm = gamma_generic(functional, config, scenario.bottom)
            check = _cross_check("theorem9", flow.matrix, gm.matrix, fd_tol)
        else:
            gm = gamma_rho_mc(functional, config, scenario.bottom, draws, seed)
            se = float(np.max(gm.standard_errors)) if gm.standard_errors is not None else 0.0
            check = _cross_check("theorem9", flow.matrix, gm.matrix,
                                 max(4.0 * se, fd_tol))

    rank = rank_diagnostic(gm)
    doc = {
        "cross_check": check,
        "gamma": gm.to_json_dict(include_terms=include_terms),
        "rank": rank,
    }
    _write_run(args, "gamma", cfg, seed, {"gamma.json": partial(_write_json, obj=doc)})
    print(
        f"gamma[{tag}] at t={t:g}: rank {rank.rank}/{gm.matrix.shape[0]}, "
        f"cross-check diff {check['max_abs_difference']:.3g}"
    )
    return 0


def cmd_rank_stats(args) -> int:
    cfg, seed = _load_run(args)
    scenario = _scenario_from_config(cfg)
    epsilons = _get_float_list(cfg, "numeric", "epsilons")
    if not epsilons:
        raise ConfigFileError("numeric.epsilons: at least one truncation level required")
    n_paths = _get_int(cfg, "numeric", "n_paths", default=100, minimum=1)
    rel_tol = _get_float(cfg, "numeric", "rank_tolerance", default=1e-8, positive=True)
    if not rel_tol < 1.0:
        raise ConfigFileError(f"numeric.rank_tolerance: must lie in (0, 1), got {rel_tol}")
    cfg.refuse_unread("rank-stats")
    table = monte_carlo_rank_stats(scenario, n_paths, epsilons, seed, rel_tol=rel_tol)
    summary = {**dataclasses.asdict(table), "scenario": scenario.name, "seed": int(seed)}
    _write_run(args, "rank-stats", cfg, seed, {
        "rank_stats.csv": table.to_csv,
        "summary.json": partial(_write_json, obj=summary),
    })
    frac = ", ".join(f"{row.full_rank_fraction:.3f}" for row in table.rows)
    print(f"full-rank fractions over eps {epsilons}: {frac}")
    return 0


def _example_scenario_gamma(scenario: Scenario, seed: int) -> dict:
    """``gamma`` (theorem9) plus the closed form's own terminal values."""
    config = scenario.simulate(seed=seed)
    _, coeffs, traj = scenario.pipeline(config)
    t = scenario.eval_time
    pipe = gamma_flow(traj, coeffs, scenario.bottom, t)
    closed = scenario.gamma_of(config)
    # the compensator at the origin starts with the first moment of the marks
    m1 = coeffs.compensator(np.zeros(1), np.zeros((1, scenario.dim)))[0]
    if scenario.name == "doleans":
        y_t, e_t = doleans_exponential(config, m1[0], t)
        extra = {"terminal": {"exponential": e_t, "y": y_t}}
    else:
        up = config.times <= t
        marks = config.marks[up]
        _, (v,), span = area_closed_gamma(config.times[up], marks, np.array([len(marks)]),
                                          scenario.bottom.weight(marks), m1[:2], t,
                                          tangent=scenario.bottom.name == "GRAPH_TANGENT")
        extra = {
            "span_dimension": span_dimension(span),
            "terminal": {"area": v[2], "x1": v[0], "x2": v[1]},
        }
    scale = 1.0 + float(np.linalg.norm(closed))
    check = _cross_check("closed_form", closed, pipe.matrix, 1e-9 * scale)
    doc = {
        "cross_check": check,
        "gamma": pipe.to_json_dict(),
        "rank": rank_diagnostic(pipe),
        **extra,
    }
    print(
        f"{scenario.name}: closed-form vs pipeline max diff "
        f"{check['max_abs_difference']:.3g} over {config.n_atoms} jumps"
    )
    return {
        "gamma.json": partial(_write_json, obj=doc),
        "samples.csv": partial(write_trajectory_csv, traj),
    }


def _example_mckean(cfg, seed: int) -> dict:
    truncation = _get_float(cfg, "model", "truncation", 0.05, positive=True)
    alpha = _get_float(cfg, "model", "alpha", 1.0)
    bound = _get_float(cfg, "model", "bound", 0.5)
    asymmetry = _get_float(cfg, "model", "asymmetry", 0.5)
    horizon = _get_float(cfg, "numeric", "horizon", 1.0, positive=True)
    step = _get_float(cfg, "numeric", "step", 0.01, positive=True)
    cfg.refuse_unread("example mckean")
    model = power_law_model(truncation, alpha=alpha, bound=bound, asymmetry=asymmetry)

    def sigma(x: np.ndarray, law: np.ndarray) -> np.ndarray:
        # math.tanh per element: np.tanh may differ in the last bit; the sum
        # over the size is np.mean's arithmetic without its fixed cost
        pull = 0.2 * math.tanh(float(law.sum()) / law.size)
        return 0.6 + 0.2 * np.fromiter(map(math.tanh, x.tolist()), float, len(x)) + pull

    res = mckean_vlasov(
        sigma, particles=24, picard_iters=3, model=model, t=horizon, seed=seed, step=step,
        first_moment=power_law_first_moment(truncation, alpha, bound, asymmetry),
    )
    doc = {
        "aa_invertible": res.aa_invertible,
        "aa_value": res.aa_value,
        "gamma": res.gamma.to_json_dict(),
        "picard_residuals": res.picard_residuals,
        "rank": rank_diagnostic(res.gamma),
    }
    print(
        f"mckean: picard residuals {['%.3g' % r for r in res.picard_residuals]}, "
        f"gamma = {res.gamma.matrix[0, 0]:.6g}"
    )
    return {
        "gamma.json": partial(_write_json, obj=doc),
        "samples.csv": partial(write_csv, header=["particle", "x_t"],
                               columns=[np.arange(len(res.samples)), res.samples]),
    }


def _example_stable_like(cfg, seed: int) -> dict:
    u0 = 1.0
    x = 0.3
    band = (0.9, 1.7)

    def alpha_fn(xv: np.ndarray) -> float:
        return 1.3 + 0.3 * math.tanh(float(xv[0]))

    draws = _get_int(cfg, "numeric", "draws", default=20000, minimum=100)
    h = _get_float(cfg, "numeric", "step", 1e-3, positive=True)
    cfg.refuse_unread("example stable-like")
    push = stable_like_pushforward_check(alpha_fn, u0, np.array([x]), band=band)
    try:
        gen = stable_like_generator_check(alpha_fn, u0, x, math.cos, h, draws, seed, band=band)
    except InputError as exc:  # h > 0, draws >= 100 and the band hold: it refused the draws
        raise ConfigFileError(f"numeric.draws: {exc}") from exc
    doc = {
        "generator_check": gen,
        "pushforward_max_relative_error": push,
        "zeta": {"0.5": zeta(0.5), "1.0": zeta(1.0), "1.5": zeta(1.5)},
    }
    e1 = np.ones(1)
    zs = np.linspace(0.0, 20.0, 201)
    magnitudes = np.array([
        np.linalg.norm(stable_like_coefficient(alpha_fn, u0, np.array([x]), float(z), e1, band))
        for z in zs
    ])
    print(
        f"stable-like: pushforward residual {push:.3g}, generator residual "
        f"{gen.residual:.3g} (threshold {gen.threshold:.3g}, "
        f"{'pass' if gen.passed else 'FAIL'})"
    )
    return {
        "diagnostics.json": partial(_write_json, obj=doc),
        "samples.csv": partial(write_csv, header=["z", "jump_magnitude"],
                               columns=[zs, magnitudes]),
    }


def cmd_example(args) -> int:
    cfg, seed = _load_run(args)
    name = args.name
    if name == "mckean":
        outputs = _example_mckean(cfg, seed)
    elif name == "stable-like":
        outputs = _example_stable_like(cfg, seed)
    else:
        scenario = _scenario_from_config(cfg, name)
        cfg.refuse_unread(f"example {name}")
        outputs = _example_scenario_gamma(scenario, seed)
    _write_run(args, f"example {name}", cfg, seed, outputs)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lentparticle",
        description="Poisson-functional carre du champ toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", default=None,
                       help="INI config or manifest JSON from a previous run")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (created if missing)")
        p.add_argument("--seed", metavar="N", type=int, default=None,
                       help="root seed (overrides the config)")

    p = sub.add_parser("simulate", help="integrate one trajectory with its flows")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gamma", help="assemble a carre du champ matrix")
    common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("rank-stats", help="full-rank statistics over truncation levels")
    common(p)
    p.set_defaults(func=cmd_rank_stats)

    p = sub.add_parser("example", help="run a shipped example end to end")
    p.add_argument("name", choices=_EXAMPLE_NAMES)
    common(p)
    p.set_defaults(func=cmd_example)

    return parser


_parser = cache(build_parser)  # one tree per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigFileError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LentParticleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
