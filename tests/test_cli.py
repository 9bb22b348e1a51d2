import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    run_cli("simulate", "--config", cfg, "--out", str(out1))
    run_cli("simulate", "--config", cfg, "--seed", "8", "--out", str(out2))
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


def test_console_entry_point():
    res = subprocess.run(
        [sys.executable, "-m", "lentparticle.cli", "--version"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stdout.strip()
