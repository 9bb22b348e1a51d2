import configparser
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lentparticle.cli import _GAMMA_TAGS, main


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


DOLEANS_INI = """
[run]
scenario = doleans
seed = 7

[numeric]
step = 0.01
"""


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, DOLEANS_INI)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
    assert (out / "trajectory.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["outputs"] == ["trajectory.csv"]
    assert "jumps" in capsys.readouterr().out


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, DOLEANS_INI)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", str(out1)) == 0
    assert run_cli("simulate", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2)) == 0
    for name in ("trajectory.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_carries_cli_seed(tmp_path):
    # seed given only on the command line must still round-trip through the
    # manifest
    cfg = write_config(tmp_path, "[run]\nscenario = doleans\n\n[numeric]\nstep = 0.01\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--seed", "12", "--out", str(out1)) == 0
    assert run_cli("simulate", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2)) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, DOLEANS_INI)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", str(out1)) == 0
    # run.seed counts as read when --seed overrides it
    assert run_cli("simulate", "--config", cfg, "--seed", "8", "--out", str(out2)) == 0
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 8


def test_missing_seed_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nscenario = doleans\n")
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "run.seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag_seed, ini_seed", [
    ("-1", None),
    (str(2 ** 64), None),
    (None, "-1"),
])
def test_seed_out_of_range_is_config_error(tmp_path, capsys, flag_seed, ini_seed):
    ini = "[run]\nscenario = doleans\n"
    if ini_seed is not None:
        ini += f"seed = {ini_seed}\n"
    argv = ["simulate", "--config", write_config(tmp_path, ini), "--out", str(tmp_path / "o")]
    if flag_seed is not None:
        argv += ["--seed", flag_seed]
    assert run_cli(*argv) == 2
    assert "[0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_largest_seed_accepted(tmp_path):
    cfg = write_config(tmp_path, DOLEANS_INI)
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", cfg, "--seed", str(2 ** 64 - 1), "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("command", [["gamma"], ["example", "doleans"]],
                         ids=["gamma", "example-doleans"])
def test_eval_time_beyond_horizon_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, DOLEANS_INI + "eval_time = 2.0\n")
    assert run_cli(*command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "numeric.eval_time" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_step_names_offending_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nscenario = doleans\nseed = 1\n\n[numeric]\nstep = 0\n")
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "numeric.step" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nscenario = doleans\nseed = 1\nbogus = 3\n")
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "run.bogus" in capsys.readouterr().err


def test_unknown_scenario_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nscenario = wat\nseed = 1\n")
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "run.scenario" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run_cli("simulate", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("tag", ["theorem9", "remark3", "generic", "rho_mc"])
def test_gamma_tags(tmp_path, tag):
    text = DOLEANS_INI + f"\n[gamma]\nformula = {tag}\n"
    if tag == "rho_mc":
        text = text.replace("step = 0.01", "step = 0.01\ndraws = 2000")
    cfg = write_config(tmp_path, text)
    out = tmp_path / tag
    assert run_cli("gamma", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads((out / "gamma.json").read_text())
    assert doc["gamma"]["formula_tag"] == tag
    assert doc["cross_check"]["within_tolerance"]
    assert doc["rank"]["rank"] >= 1


def test_gamma_unknown_tag(tmp_path, capsys):
    cfg = write_config(tmp_path, DOLEANS_INI + "\n[gamma]\nformula = bogus\n")
    assert run_cli("gamma", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "gamma.formula" in capsys.readouterr().err


def test_gamma_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, DOLEANS_INI + "\n[gamma]\nformula = theorem9\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("gamma", "--config", cfg, "--out", str(out1)) == 0
    assert run_cli("gamma", "--config", str(out1 / "manifest.json"), "--out", str(out2)) == 0
    assert (out1 / "gamma.json").read_bytes() == (out2 / "gamma.json").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_rank_stats(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\nscenario = doleans\nseed = 5\n\n"
        "[numeric]\nstep = 0.01\nepsilons = 0.06 0.03\nn_paths = 4\n",
    )
    out = tmp_path / "rs"
    assert run_cli("rank-stats", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "rank_stats.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per epsilon
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "doleans"
    assert summary["seed"] == 5
    assert len(summary["rows"]) == 2


NON_FINITE_LISTS = [
    ("simulate", "CUSTOM", "x0 = 0.5 0.0", "x0 = nan 0.0", "coefficients.x0"),
    ("simulate", "CUSTOM", "x0 = 0.5 0.0", "x0 = 1e400 0.0", "coefficients.x0"),
    ("rank-stats", "DOLEANS", "step = 0.01", "step = 0.01\nepsilons = 0.05 nan",
     "numeric.epsilons"),
]


@pytest.mark.parametrize("command, base, old, new, key", NON_FINITE_LISTS,
                         ids=[case[3].split("\n")[-1] for case in NON_FINITE_LISTS])
def test_non_finite_list_value_exits_2(tmp_path, capsys, command, base, old, new, key):
    ini = {"CUSTOM": CUSTOM_INI, "DOLEANS": DOLEANS_INI}[base]
    assert old in ini
    out = tmp_path / "o"
    assert run_cli(command, "--config", write_config(tmp_path, ini.replace(old, new)),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {key}: must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["5", "1"])
def test_rank_tolerance_above_one_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                             value):
    import lentparticle.cli as cli
    import lentparticle.density_criteria as criteria

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "monte_carlo_rank_stats", no_work)
    monkeypatch.setattr(criteria, "_simulate_table", no_work)
    monkeypatch.setattr(cli.Scenario, "simulate", no_work)
    ini = DOLEANS_INI + f"epsilons = 0.05\nrank_tolerance = {value}\n"
    out = tmp_path / "o"
    assert run_cli("rank-stats", "--config", write_config(tmp_path, ini), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: numeric.rank_tolerance: must lie in (0, 1), got {float(value)}\n")
    assert not out.exists()


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    import argparse

    import lentparticle.cli as cli

    built = []  # build_parser adds the subcommands once per tree
    add_subparsers = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda self, **kw: built.append(1) or add_subparsers(self, **kw))
    cli._parser.cache_clear()
    for _ in range(3):
        assert run_cli("simulate", "--config", str(tmp_path / "missing.ini")) == 2
    assert built == [1] and cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()  # build_parser still builds a new tree


def test_rank_stats_missing_epsilons(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nscenario = doleans\nseed = 5\n")
    assert run_cli("rank-stats", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "numeric.epsilons" in capsys.readouterr().err


CUSTOM_INI = """
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


@pytest.mark.parametrize("command", ["simulate", "gamma", "rank-stats"])
@pytest.mark.parametrize("terms, why", [(248, "nests deeper than 100 levels"),
                                        (5000, "of 14999 characters, more than 2000")])
def test_a_coefficient_too_deep_or_too_long_exits_2(tmp_path, capsys, command, terms, why):
    # a flat sum of n terms nests n deep; parsing, copying or differentiating
    # one of 248 terms or more used to overflow Python's stack
    sweep = "\nepsilons = 0.2 0.1\nn_paths = 2" if command == "rank-stats" else ""
    ini = CUSTOM_INI.replace("c_1 = u1", "c_1 = " + "+".join(["u1"] * terms))
    ini = ini.replace("step = 0.01", "step = 0.01" + sweep)
    out = tmp_path / "o"
    assert run_cli(command, "--config", write_config(tmp_path, ini), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: coefficients.c_1: expression {why}\n"
    assert not out.exists()


def test_a_state_with_a_non_finite_compensator_exits_1(tmp_path, capsys):
    # the compensator of c_2 = x1 * u1 overflows at x1 = 1e308: the error says
    # that the integral is not finite and where, not that it did not converge,
    # and numpy warns of nothing on the way
    ini = CUSTOM_INI.replace("x0 = 0.5 0.0", "x0 = 1e308 1e308")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("simulate", "--config", write_config(tmp_path, ini), "--out", str(out)) == 1
    assert capsys.readouterr().err == ("error: mark-space integral is not finite at the "
                                       "state t = 0.0, x = [1e+308, 1e+308]\n")
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


# one-key mutations of the README custom config: numeric extremes, signed
# zero, huge and tiny intensities, dimensions and expression shapes
_EXTREMES = st.sampled_from(["0", "-0.0", "-1", "5e-324", "1e-300", "1e-10", "1e6", "1e300",
                             "1e308", "1e309", "inf", "-inf", "nan", "abc", "", "1 2"])
_EXPRESSIONS = st.sampled_from([
    "+".join(["u1"] * 248), "+".join(["u1"] * 5000), "(" * 120 + "u1" + ")" * 120,
    "x1^x1", "1/0", "u1/0", "x9", "u2", "ind(0.1)", "abs(u1)", "min(u1, x1)", "", "x1 ** 2",
    "1e308*1e308*u1", "1e308*x1*u1", "t*u1", "-0.0*u1", "u1^0.5", "x1^-1", "nan*u1",
    "__import__('os')", "u1 if x1 else 0", "0", "-1", "1e308",
])
_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from([("model", "halfwidth"), ("model", "truncation"),
                               ("model", "intensity"), ("numeric", "step"),
                               ("numeric", "horizon"), ("numeric", "eval_time"),
                               ("numeric", "epsilons"), ("numeric", "n_paths"),
                               ("numeric", "rank_tolerance"), ("run", "seed")]), _EXTREMES),
    st.tuples(st.sampled_from([("coefficients", "c_1"), ("coefficients", "c_2"),
                               ("structure", "k"), ("structure", "psi"),
                               ("structure", "xi_1")]), _EXPRESSIONS),
    st.tuples(st.just(("coefficients", "x0")),
              st.sampled_from(["1e308 1e308", "nan 0", "-0.0 -0.0", "1", "1 2 3", "", "inf 0",
                               "5e-324 5e-324", "1e300 -1e300"])),
    st.tuples(st.just(("coefficients", "state_dim")),
              st.sampled_from(["0", "1", "3", "-1", "1.5", "1000", ""])),
    st.tuples(st.sampled_from([("model", "kind"), ("structure", "name"), ("gamma", "formula")]),
              st.sampled_from(["power-law", "bogus", "", "ISOTROPIC_RD", "INTRO_1D", "generic",
                               "rho_mc", "remark3"])),
)


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["simulate", "gamma", "rank-stats"]), mutation=_MUTATIONS)
# xi_1 = inf u1: the weight's symmetry check takes inf - inf
@example(command="gamma", mutation=(("structure", "xi_1"), "1e308*1e308*u1"))
@example(command="rank-stats", mutation=(("structure", "xi_1"), "1e308*1e308*u1"))
def test_one_key_mutations_of_the_custom_config_end_cleanly(command, mutation):
    (section, key), value = mutation
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_string(CUSTOM_INI)
    if command == "rank-stats":  # so that rank-stats reaches the mutated key
        cfg["numeric"].update(epsilons="0.4 0.2", n_paths="2")
    if not cfg.has_section(section):
        cfg.add_section(section)
    cfg[section][key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        with open(f"{tmp}/run.ini", "w") as f:
            cfg.write(f)
        start = time.perf_counter()
        code = main([command, "--config", f"{tmp}/run.ini", "--out", f"{tmp}/out"])
        took = time.perf_counter() - start
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not [line for line in lines if line.startswith("error:")]
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert took < 20.0, f"{command} took {took:.1f} s"


def test_custom_scenario_expressions(tmp_path):
    cfg = write_config(tmp_path, CUSTOM_INI)
    out = tmp_path / "cs"
    assert run_cli("gamma", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads((out / "gamma.json").read_text())
    assert doc["cross_check"]["within_tolerance"]


def test_custom_generic_gamma_matches_theorem9(tmp_path):
    # exact coefficient Jacobians leave only the re-solves' difference error
    cfg = write_config(tmp_path, CUSTOM_INI + "\n[gamma]\nformula = generic\n")
    out = tmp_path / "cs"
    assert run_cli("gamma", "--config", cfg, "--out", str(out)) == 0
    check = json.loads((out / "gamma.json").read_text())["cross_check"]
    assert check["within_tolerance"]
    assert check["max_abs_difference"] <= 1e-8


def test_custom_structure_with_complex_value_exits_2(tmp_path, capsys):
    # u1^0.5 of a negative mark is complex in Python floats
    text = CUSTOM_INI.replace("k = 1\npsi = 1", "k = 1 + u1^0.5\npsi = 1 + u1^0.5")
    cfg = write_config(tmp_path, text)
    assert run_cli("gamma", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "1 + u1^0.5" in err and "complex" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, expression, message", [
    ("psi = 1 / (u1 - u1)", "1 / (u1 - u1)", "divide by zero"),
    ("xi_1 = 10.0^(400 + u1)", "10.0^(400 + u1)", "out of range"),
], ids=["division-by-zero", "overflow"])
def test_custom_structure_floating_point_error_exits_2(tmp_path, capsys, line, expression,
                                                       message):
    key = line.split(" = ")[0]
    text = re.sub(rf"^{key} = .*$", line, CUSTOM_INI, flags=re.M)
    cfg = write_config(tmp_path, text)
    assert run_cli("gamma", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert expression in err and message in err
    assert not (tmp_path / "o").exists()


def test_custom_model_refuses_key_its_kind_does_not_read(tmp_path, capsys):
    cfg = write_config(tmp_path, CUSTOM_INI.replace("intensity = 4.0", "alpha = 1.5"))
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "model.alpha" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_custom_scenario_requires_coefficients(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nscenario = custom\nseed = 1\n")
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "coefficients" in capsys.readouterr().err


def test_example_doleans(tmp_path, capsys):
    out = tmp_path / "ex"
    assert run_cli("example", "doleans", "--seed", "4", "--out", str(out)) == 0
    doc = json.loads((out / "gamma.json").read_text())
    assert doc["cross_check"]["within_tolerance"]
    assert (out / "samples.csv").is_file()
    assert (out / "manifest.json").is_file()
    assert "closed-form vs pipeline" in capsys.readouterr().out


def test_example_levy_area_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("example", "levy-area-1", "--seed", "2", "--out", str(out1)) == 0
    assert run_cli("example", "levy-area-1", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2)) == 0
    for name in ("gamma.json", "samples.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_example_mckean(tmp_path):
    out = tmp_path / "mk"
    assert run_cli("example", "mckean", "--seed", "3", "--out", str(out)) == 0
    doc = json.loads((out / "gamma.json").read_text())
    assert len(doc["picard_residuals"]) == 3
    assert doc["rank"]["rank"] == 1
    rows = (out / "samples.csv").read_text().strip().splitlines()
    assert rows[0] == "particle,x_t"
    assert len(rows) == 25


def test_example_stable_like(tmp_path):
    cfg = write_config(tmp_path, "[numeric]\ndraws = 2000\n")
    out = tmp_path / "sl"
    assert run_cli("example", "stable-like", "--config", cfg, "--seed", "6",
                   "--out", str(out)) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["generator_check"]["passed"]
    assert doc["pushforward_max_relative_error"] <= 1e-10
    assert doc["zeta"]["1.0"] == pytest.approx(1.0 / 3.141592653589793, rel=1e-12)


@pytest.mark.parametrize("name", ["doleans", "levy-area-1", "levy-area-2"])
def test_example_matches_gamma_theorem9(tmp_path, name):
    cfg = write_config(tmp_path, f"[run]\nscenario = {name}\n\n[gamma]\nformula = theorem9\n")
    ex, gm = tmp_path / "ex", tmp_path / "gm"
    assert run_cli("example", name, "--seed", "4", "--out", str(ex)) == 0
    assert run_cli("gamma", "--config", cfg, "--seed", "4", "--out", str(gm)) == 0
    example = json.loads((ex / "gamma.json").read_text())["gamma"]
    gamma = json.loads((gm / "gamma.json").read_text())["gamma"]
    assert example["matrix"] == gamma["matrix"]


def test_model_key_not_taken_by_scenario(tmp_path, capsys):
    cfg = write_config(tmp_path, DOLEANS_INI + "\n[model]\nhalfwidth = 0.6\n")
    assert run_cli("gamma", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "model.halfwidth" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["gamma"], ["example", "doleans"]],
                         ids=["gamma", "example-doleans"])
def test_doleans_bound_below_one_required(tmp_path, capsys, command):
    cfg = write_config(tmp_path, DOLEANS_INI + "\n[model]\nbound = 1.5\n")
    assert run_cli(*command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "model.bound" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["mckean", "stable-like"])
def test_example_config_error_leaves_no_directory(tmp_path, capsys, name):
    cfg = write_config(tmp_path, "[numeric]\nstep = 0\n")
    out = tmp_path / "o"
    assert run_cli("example", name, "--config", cfg, "--seed", "1", "--out", str(out)) == 2
    assert "numeric.step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, key", [("mckean", "halfwidth"), ("stable-like", "truncation")])
def test_example_refuses_unread_model_key(tmp_path, capsys, name, key):
    cfg = write_config(tmp_path, f"[model]\n{key} = 0.3\n")
    out = tmp_path / "o"
    assert run_cli("example", name, "--config", cfg, "--seed", "1", "--out", str(out)) == 2
    assert f"model.{key}" in capsys.readouterr().err
    assert not out.exists()


UNREAD_KEYS = [
    ("simulate", DOLEANS_INI + "\n[gamma]\nformula = remark3\n", "gamma.formula"),
    ("simulate", DOLEANS_INI + "n_paths = 4\n", "numeric.n_paths"),
    ("simulate", DOLEANS_INI + "epsilons = 0.1\n", "numeric.epsilons"),
    ("simulate", DOLEANS_INI + "draws = 100\n", "numeric.draws"),
    ("simulate", CUSTOM_INI.replace("c_2 =", "c_3 = u1\nc_2 ="), "coefficients.c_3"),
    ("gamma", DOLEANS_INI + "draws = 100\n", "numeric.draws"),  # theorem9 takes no draws
    ("rank-stats", DOLEANS_INI + "epsilons = 0.1\n\n[gamma]\ninclude_terms = true\n",
     "gamma.include_terms"),
    ("example doleans", DOLEANS_INI, "run.scenario"),
    ("example stable-like", "[numeric]\nhorizon = 9\n", "numeric.horizon"),
    ("example mckean", "[numeric]\ndraws = 100\n", "numeric.draws"),
    ("example mckean", "[numeric]\nn_paths = 4\n", "numeric.n_paths"),
]


@pytest.mark.parametrize("command, ini, key",
                         [pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in UNREAD_KEYS])
def test_unread_key_is_refused_before_any_work(tmp_path, monkeypatch, capsys, command, ini, key):
    import lentparticle.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("mckean_vlasov", "stable_like_generator_check", "stable_like_pushforward_check"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.Scenario, "simulate", no_work)
    out = tmp_path / "o"
    assert run_cli(*command.split(), "--config", write_config(tmp_path, ini), "--seed", "1",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {key}: not read by {command}\n"
    assert not out.exists()


# the command the README runs each of its ini blocks with, by run.scenario: the
# sample config with gamma (Reproducibility), the levy-area-1 one in the
# rank-stats item, the custom one with simulate
README_COMMANDS = {"doleans": "gamma", "levy-area-1": "rank-stats", "custom": "simulate"}


def test_readme_configs_run(tmp_path, capsys):
    import textwrap

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [textwrap.dedent(m.group(2)) for m in
              re.finditer(r"^( *)```ini\n(.*?)^\1```$", readme, flags=re.M | re.S)]
    scenarios = [re.search(r"^scenario = (\S+)$", b, flags=re.M).group(1) for b in blocks]
    assert sorted(scenarios) == sorted(README_COMMANDS)
    for k, (block, scenario) in enumerate(zip(blocks, scenarios)):
        cfg = write_config(tmp_path, block, name=f"readme-{k}.ini")
        code = run_cli(README_COMMANDS[scenario], "--config", cfg, "--out", str(tmp_path / str(k)))
        assert code == 0, (scenario, capsys.readouterr().err)


def test_readme_lists_the_gamma_tags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"formula = ([\w| ]+)`", readme).group(1)
    assert tuple(tag.strip() for tag in listed.split("|")) == _GAMMA_TAGS


@pytest.mark.parametrize("extra, message", [
    ("[model]\ntruncation = 1e-9\n", "expected atom count"),
    ("[numeric]\nstep = 1e-9\n", "grid rows"),
], ids=["atoms", "grid"])
def test_admission_limits_exit_2(tmp_path, capsys, extra, message):
    ini = "[run]\nscenario = doleans\nseed = 1\n\n" + extra
    cfg = write_config(tmp_path, ini)
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra, message", [
    ("gamma", "[gamma]\nformula = rho_mc\n\n[numeric]\ndraws = 1000000000000\n",
     "above the limit of 1073741824"),
    ("rank-stats", "[numeric]\nepsilons = 0.05\nn_paths = 100000000\n",
     "n_paths = 100000000 paths"),
], ids=["rho draws", "rank-stats paths"])
def test_oversized_work_exits_2_before_any_output(tmp_path, capsys, command, extra, message):
    cfg = write_config(tmp_path, "[run]\nscenario = doleans\nseed = 1\n\n" + extra)
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_oversized_stable_like_check_exits_2_under_a_memory_cap(tmp_path):
    # 10^10 paths would need 75 GiB of Poisson counts; the refusal comes before
    # any draw, so a child capped at 1.5 GB of address space exits 2, not with
    # a MemoryError traceback
    import os
    import resource

    import lentparticle
    from lentparticle.scenarios import MAX_GENERATOR_WORK

    cap = 1536 * 2 ** 20
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    package_root = str(Path(lentparticle.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    cfg = write_config(tmp_path, "[numeric]\ndraws = 10000000000\n")
    res = subprocess.run(
        [sys.executable, "-m", "lentparticle.cli", "example", "stable-like", "--config", cfg,
         "--seed", "4", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: numeric.draws: 10000000000 paths")
    assert f"limit of {MAX_GENERATOR_WORK} paths plus jumps" in res.stderr
    assert not (tmp_path / "o").exists()


def test_console_entry_point():
    res = subprocess.run(
        [sys.executable, "-m", "lentparticle.cli", "--version"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stdout.strip()


def _cold_import_modules(prefix: str) -> str:
    """The modules under ``prefix`` that a fresh process holds after importing
    the package and its CLI, as the printed sorted list; this test process
    has imported them already, so the check needs a fresh one."""
    import os

    import lentparticle

    env = dict(os.environ)
    package_root = str(Path(lentparticle.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = ("import sys, lentparticle, lentparticle.cli; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix!r} + '.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_cold_import_loads_no_scipy():
    # scipy is imported only inside the functions that call it
    assert _cold_import_modules("scipy") == "[]"


def test_cold_import_loads_no_numpy_random():
    # numpy.random is imported on the first stream a run opens
    assert _cold_import_modules("numpy.random") == "[]"


# rank-stats outputs pinned byte for byte: sha256 of rank_stats.csv and
# summary.json.  The levels reach from configurations with no atom to full
# rank, and eval_time < horizon leaves atoms after t in many configurations.
GOLDEN_RANK_STATS = {
    "levy-area-1": "epsilons = 0.4 0.2 0.05\nn_paths = 40\neval_time = 0.4\n"
                   "rank_tolerance = 1e-4\n",
    "levy-area-2": "epsilons = 0.2 0.1 0.0588\nn_paths = 40\neval_time = 0.6\n"
                   "rank_tolerance = 1e-3\n",
    "doleans": "epsilons = 0.2 0.1 0.06\nn_paths = 40\neval_time = 0.5\n",
}
GOLDEN_DIGESTS = {
    ("levy-area-1", 4): ("0abee742b22357c0e14628b51d841c57671082c2c1495fd54397436278f0032c",
                         "ff89935b2f91ce23405fb2b66f5d066bc79d9c06c6d335ac1f75812ad2fc2c5b"),
    ("levy-area-1", 5): ("2571449afb57e7834b985acdc53831abba66c825557c894960fd2d5084535c1c",
                         "ad3eb8276b42b3f0c069c69dc42b45a46fe755d9f89ea9033a1b5ebdc40fa15d"),
    ("levy-area-1", 11): ("aaedd82f714cf57ca3ef35a94f69f0ac64e72935d909171b57a54f6bbb3f240f",
                          "aa3f656954cb0bc88a72b82bcf3090059098540e4395e4da96c1092db66c036c"),
    ("levy-area-2", 4): ("a2a8938d7752fb01c2322526063f704e48bf4a860b71d7982ca9cf8971e082fa",
                         "ead9da3d939dd06c4ff75107e6430ac7822309e3e2a6b2b505998907dba515ea"),
    ("levy-area-2", 5): ("dc9ed33fe81d9b79823d2b3e99fd60da71096cd8df8ab4658fef14330cc51f70",
                         "99accdcbb731cd478a86ab4e797865611550d33bf38d517c2f57604cb38c208c"),
    ("levy-area-2", 11): ("84a5b3fc54d0fcd2a0431b4f714d594446d4223e6cf4de8b72506e4f7c9831eb",
                          "ff101e9f127a7e14862adc89bea6852d234932e6da7f39afa1176251fdf79f3b"),
    ("doleans", 4): ("f3e37a4b163be27df762a2b70c2364a07e81b3e8dc40247c94e75667de5fd71b",
                     "b0d9b27dccf7999ea4b05291322c9030bba53930ce641221f489539939e372b3"),
    ("doleans", 5): ("188fcf662c0ecbea55b2b547224a28642f8f42f7c12d7cc867e2db115594d604",
                     "0ea6adef3d0d865f5c3ef2413d46748ba8438ccac90b03e2a085c961d245edaa"),
    ("doleans", 11): ("26cb1fc29046623b61215422ab372a57388406bfb65c24e761e430a50c0b4725",
                      "b04e5df9883b25f3b7daac102830c0046aac21f8ab594e210814e0002403627b"),
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN_DIGESTS))
def test_rank_stats_golden_bytes(tmp_path, scenario, seed):
    import hashlib

    cfg = write_config(tmp_path, f"[run]\nscenario = {scenario}\nseed = {seed}\n\n"
                                 f"[numeric]\n{GOLDEN_RANK_STATS[scenario]}")
    out = tmp_path / "rs"
    assert run_cli("rank-stats", "--config", cfg, "--out", str(out)) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("rank_stats.csv", "summary.json"))
    assert got == GOLDEN_DIGESTS[(scenario, seed)]


# simulate on the README custom config pinned byte for byte: sha256 of
# trajectory.csv, whose compensator comes from the mark quadrature.  In the
# power-law variant X moves between jumps; in the time-reading one X stays put
# (c_2 vanishes at x2 = 0) while the x-Jacobian of its compensator,
# m2 (1 + t), does not, so K and Kbar need the quadrature at every stage time.
POWER_LAW_INI = CUSTOM_INI.replace(
    "kind = uniform\nhalfwidth = 0.6\ntruncation = 0.1\nintensity = 4.0",
    "kind = power-law\ntruncation = 0.05\nalpha = 1.0\nbound = 0.5\nasymmetry = 0.5",
)
TIME_INI = CUSTOM_INI.replace("c_2 = x1 * u1", "c_2 = x2 * u1^2 * (1 + t)")
CUSTOM_KINDS = {"uniform": CUSTOM_INI, "power-law": POWER_LAW_INI, "time": TIME_INI}
GOLDEN_TRAJECTORIES = {
    ("uniform", 4): "986e0e73e1d3ac8a433efd06208e9e44dd4d30e3c1ef34babaa2bda99a8224bb",
    ("uniform", 5): "c0d5114b6aa53949d1fbc84532f28a8bb958faaa94b2bde584c3df18a5f7786d",
    ("uniform", 11): "97229f7bef71f171dcd4123fe8c08044743483194b22380a6b2c6cc77106977d",
    ("power-law", 4): "da7bf9b8cada55d2515e0e7f89f8e2212c3ffae4a767a7384e70f8a217ab929a",
    ("power-law", 5): "cebe6a866095f1e80bf8051b6f5561a9788cae07a9efbaf8f975da4890973d75",
    ("power-law", 11): "f8dd002585aafe35489c968ce363ae2c16f13b535c15f146d015edbf9c663ef7",
    ("time", 4): "ca8304d0dd4cf63d0083397bbe531083000676857fa4899ccd42ebbec40c0172",
    ("time", 5): "f4ac29b5c4c765fe3c2f07bb70e7f47be6428e017d38bccd66b49047b60b778f",
    ("time", 11): "df2bb4752c05eb39928d2ab6f6ab55b9f4adbee46fc352154490aaa5e613b9fe",
}


@pytest.mark.parametrize("kind,seed", sorted(GOLDEN_TRAJECTORIES))
def test_custom_simulate_golden_bytes(tmp_path, kind, seed):
    import hashlib

    assert len(set(CUSTOM_KINDS.values())) == len(CUSTOM_KINDS)
    cfg = write_config(tmp_path, CUSTOM_KINDS[kind])
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg, "--seed", str(seed), "--out", str(out)) == 0
    got = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_TRAJECTORIES[(kind, seed)]


@pytest.mark.parametrize("kind,seed", [(k, s) for k in ("uniform", "time") for s in (4, 5, 11)])
def test_custom_simulate_integrates_the_compensator_once_per_state(tmp_path, monkeypatch,
                                                                   kind, seed):
    # coefficients that do not read t are integrated once per state X, which
    # moves only at the jumps of the README config; the time-reading ones once
    # per distinct (t, x) a stage asks for
    import numpy as np

    import lentparticle.sde_engine as engine
    from lentparticle.poisson_measure import MarkQuadrature

    passes, states = [], set()
    integrate_each = MarkQuadrature.integrate_each
    monkeypatch.setattr(MarkQuadrature, "integrate_each",
                        lambda self, f, n: passes.append(n) or integrate_each(self, f, n))
    effective_drift = engine._effective_drift

    def spied(coeffs, model, flows):
        drift = effective_drift(coeffs, model, flows)

        def call(t, x, **kwargs):  # forwards the solve's output buffer
            states.add((np.asarray(t, float).tobytes(), np.asarray(x, float).tobytes()))
            return drift(t, x, **kwargs)
        return call

    monkeypatch.setattr(engine, "_effective_drift", spied)
    cfg = write_config(tmp_path, CUSTOM_KINDS[kind])
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg, "--seed", str(seed), "--out", str(out)) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    jumps = sum(row.split(",")[1] == "1" for row in rows)
    assert jumps >= 3 and set(passes) == {1}
    if kind == "uniform":
        assert len(passes) <= 1 + jumps
    else:
        assert len(passes) == len(states) > len(rows)


# example mckean pinned byte for byte on a short horizon: sha256 of gamma.json
# and samples.csv
GOLDEN_MCKEAN = {
    4: ("011421600bf09f4191b34abc95eaa24cd98e770c08416aeedaae7ed11bd7452e",
        "48e2cd75113c1ab880ee93300f1e22f484c6667f06a663da16be62f614f039b2"),
    5: ("7a0fda25ab5779875a4a550e2cb405ad067d9181580bc910788718fd9da10386",
        "ffd077bab8fa42c215da7b859eaf74119a3f15d08eb2381da527621c03af5111"),
    11: ("6eff777b1d53704c8aeed207cfa62bb56a88abc680b245137a29fb320de2b3a6",
         "335aa440fab3b8e941b340071bba12fd94cbd2f3d83e21922c878c780c528a86"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_MCKEAN))
def test_example_mckean_golden_bytes(tmp_path, seed):
    import hashlib

    cfg = write_config(tmp_path, "[numeric]\nhorizon = 0.25\n")
    out = tmp_path / "mk"
    assert run_cli("example", "mckean", "--config", cfg, "--seed", str(seed),
                   "--out", str(out)) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("gamma.json", "samples.csv"))
    assert got == GOLDEN_MCKEAN[seed]


# rank-stats on the README custom config pinned byte for byte: it has no
# closed form, so every path is solved with its flows and Gamma comes from
# them; eval_time < horizon leaves atoms after t
CUSTOM_RANK_STATS_INI = CUSTOM_INI.replace(
    "step = 0.01\n",
    "step = 0.01\nepsilons = 0.4 0.2 0.1\nn_paths = 8\neval_time = 0.6\nrank_tolerance = 1e-4\n",
)
GOLDEN_CUSTOM_RANK_STATS = {
    4: ("58642f48cf7f439637e636edca5c4edc165bece10a0e825768251f4c851f0503",
        "ed4922d8edb58738107bb6659de47f54f72c54d77212262692609f8b890efd9c"),
    5: ("a9b2961e42cc351c709551f6e482caeb304ec4ce08a5e1197fdd08c831a90ba1",
        "641dd65d4334269d8a9bb307e8ebeed6d6e806770ecb6f6fdb1c986e66a64bdd"),
    11: ("b4de7c40a235079ed1d6de551f719d33e72d445cf8e79443d3526271356ba106",
         "9cdcc52b212dacb063e977974cb858ab545b3b2f4b576b2f5d0a0f36da81788b"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_CUSTOM_RANK_STATS))
def test_custom_rank_stats_golden_bytes(tmp_path, seed):
    import hashlib

    cfg = write_config(tmp_path, CUSTOM_RANK_STATS_INI)
    out = tmp_path / "rs"
    assert run_cli("rank-stats", "--config", cfg, "--seed", str(seed), "--out", str(out)) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("rank_stats.csv", "summary.json"))
    assert got == GOLDEN_CUSTOM_RANK_STATS[seed]


# gamma with formula = rho_mc pinned byte for byte: sha256 of gamma.json on a
# 2-d (doleans) and a 3-d, 2-mark (levy-area-1) scenario
GOLDEN_RHO_MC_GAMMA = {
    ("doleans", 4): "38fd5f7448baf7346a50e30a98e03b220ce9c09510e46862d280b04fec5370da",
    ("doleans", 5): "58c932fca1148ee7239d1bd7978b64307af38634720d0f6847e80419155bbfe5",
    ("levy-area-1", 4): "e33d4c7a0be25045b4851f6a19d77c160885d102d391f2441bf941902a710c71",
    ("levy-area-1", 5): "31f9043c3ff64cd48bbc1d6ba0c0b45a4cd2bb9eb9a750664b71d614543bcdae",
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN_RHO_MC_GAMMA))
def test_rho_mc_gamma_golden_bytes(tmp_path, scenario, seed):
    import hashlib

    cfg = write_config(tmp_path, f"[run]\nscenario = {scenario}\nseed = {seed}\n\n"
                                 "[gamma]\nformula = rho_mc\n")
    out = tmp_path / "g"
    assert run_cli("gamma", "--config", cfg, "--out", str(out)) == 0
    got = hashlib.sha256((out / "gamma.json").read_bytes()).hexdigest()
    assert got == GOLDEN_RHO_MC_GAMMA[(scenario, seed)]
