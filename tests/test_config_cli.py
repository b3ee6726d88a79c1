import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import beliefgames
from beliefgames import ConfigError, load_trace
from beliefgames.cli import main
from beliefgames.config import (
    _KEYS,
    default_config,
    default_config_text,
    parse_config_text,
)


def test_shipped_default_config_parses():
    cfg = default_config()
    assert cfg.scenario.params.n == 2
    assert cfg.sim.dt_signal == 0.02
    assert cfg.sim.horizon == 10.0
    assert cfg.out_dir == "out"


def test_invalid_delta_rejected():
    text = default_config_text().replace("delta = 0.8", "delta = 1.5")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert any("delta" in v for v in err.value.violations)


def test_step_not_dividing_signal_interval_rejected():
    # h_ode must divide the horizon as well as the signal interval.
    for line, edited, total in [
        ("h_ode = 0.02", "h_ode = 0.015", "0.02"),
        ("horizon = 10.0", "horizon = 10.0005", "10.0005"),
    ]:
        text = default_config_text().replace(line, edited)
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert any(
            "[sim] h_ode" in v and f"does not divide {total}" in v
            for v in err.value.violations
        )


def test_singular_truth_rejected():
    # mu*delta + rho = 1 exactly at the configured truth.
    text = default_config_text().replace("mu = 0.5", "mu = 1.125")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert any("mu*delta" in v or "mu/delta" in v for v in err.value.violations)


def test_all_violations_reported_together():
    text = (
        default_config_text()
        .replace("delta = 0.8", "delta = 1.5")
        .replace("sigma = 0.2", "sigma = -1")
        .replace("kappa0 = 1.0", "kappa0 = 0")
    )
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert len(err.value.violations) == 3


def test_missing_keys_reported():
    # Every key of the table, dropped from the shipped file in turn.
    for section, key, _ in _KEYS:
        text, dropped = re.subn(rf"(?m)^{key} = .*\n", "", default_config_text())
        assert dropped == 1, key
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert err.value.violations == [f"<string>: missing key [{section}] {key}"]


def test_undeclared_sections_and_keys_rejected():
    text = (
        default_config_text().replace("[sim]\n", "[sim]\nhorizn = 3\n")
        .replace("delta = 0.8", "delta = 1.5")
        + "[extra]\nfoo = 1\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.violations == [
        "<string>: unknown key [sim] horizn",
        "<string>: unknown section [extra]",
        "<string>: [scenario] delta: must lie in (0, 1], got 1.5",
    ]
    # Keys of a [DEFAULT] section are inherited by every section, not checked.
    text = "[DEFAULT]\nfoo = 1\n" + default_config_text()
    assert parse_config_text(text) == parse_config_text(default_config_text())


def test_overrides_replace_file_values_before_the_rules():
    cfg = default_config(horizon=5.0, scheme="discrete", seed=None)
    assert (cfg.sim.horizon, cfg.sim.scheme, cfg.seed) == (5.0, "discrete", 20240811)
    with pytest.raises(ConfigError) as err:
        default_config(dt_signal=float("inf"), directory="elsewhere")
    assert err.value.violations == [
        "<builtin default>: [sim] dt_signal: must be finite"
    ]
    with pytest.raises(TypeError):
        default_config(out_dir="elsewhere")


def test_percent_signs_are_read_literally():
    text = default_config_text().replace("directory = out", "directory = out%1")
    assert parse_config_text(text).out_dir == "out%1"
    text = default_config_text().replace("delta = 0.8", "delta = 0.8%")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.violations == ["<string>: [scenario] delta: not a number: '0.8%'"]


def test_vector_length_mismatch_reported():
    text = default_config_text().replace("tau = 1.0, 1.2", "tau = 1.0, 1.2, 0.9")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert any("tau" in v for v in err.value.violations)


@pytest.fixture
def runner():
    return CliRunner()


def test_gen_traces_and_reload(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--out", str(out), "gen-traces"])
    assert result.exit_code == 0, result.output
    eco = load_trace(out / "trace_ecological.csv")
    assert len(eco) == 500
    assert (out / "trace_cost_1.csv").exists()
    assert (out / "trace_cost_2.csv").exists()


def test_module_entry_point_runs_commands(tmp_path):
    # `python -m beliefgames.cli` must dispatch to the command group.
    src = str(Path(beliefgames.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "artifacts"
    result = subprocess.run(
        [sys.executable, "-m", "beliefgames.cli", "--out", str(out), "gen-traces"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    for name in ("trace_ecological.csv", "trace_cost_1.csv", "trace_cost_2.csv"):
        assert (out / name).exists(), result.stdout
    assert len(load_trace(out / "trace_ecological.csv")) == 500


def test_simulate_writes_trajectory(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--out", str(out), "simulate"])
    assert result.exit_code == 0, result.output
    lines = (out / "trajectory.csv").read_text().splitlines()
    # 500 * (dt/h) + 1 data rows at the default dt = h = 0.02.
    assert len(lines) - 1 == 501
    assert lines[0].startswith("t,S,x_real,x_bar,var_mu")


def test_simulate_is_deterministic_across_runs(runner, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, ["--out", str(out1), "simulate"]).exit_code == 0
    assert runner.invoke(main, ["--out", str(out2), "simulate"]).exit_code == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_saved_traces_replay_identically(runner, tmp_path):
    gen = tmp_path / "gen"
    seeded = tmp_path / "seeded"
    replayed = tmp_path / "replayed"
    assert runner.invoke(main, ["--out", str(gen), "gen-traces"]).exit_code == 0
    assert runner.invoke(main, ["--out", str(seeded), "simulate"]).exit_code == 0
    r = runner.invoke(
        main, ["--out", str(replayed), "simulate", "--traces", str(gen)]
    )
    assert r.exit_code == 0, r.output
    assert (seeded / "trajectory.csv").read_bytes() == (
        replayed / "trajectory.csv"
    ).read_bytes()


def test_seed_override_changes_output(runner, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    runner.invoke(main, ["--out", str(out1), "simulate"])
    runner.invoke(main, ["--out", str(out2), "--seed", "99", "simulate"])
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


def test_compare_dt_emits_gap_table(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--out", str(out), "compare-dt"])
    assert result.exit_code == 0, result.output
    lines = (out / "dt_gaps.csv").read_text().splitlines()
    assert lines[0] == "dt,gap_x_bar,gap_tau_bar,gap_u,gap_S"
    assert len(lines) == 1 + 3


def test_equilibrium_report_contents(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--out", str(out), "equilibrium"])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "equilibrium.json").read_text())
    for key in ("inputs", "f1", "f2", "controls", "foc_residual", "closed_form",
                "known_state", "nonnegativity", "note"):
        assert key in report
    assert report["foc_residual"] <= 1e-9
    assert np.isfinite(report["closed_form"]["control_delta_max"])


def test_verify_passes_and_writes_report(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--out", str(out), "verify"])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "verification.json").read_text())
    assert report["all_passed"] is True
    assert "note" in report
    # The controls delta is taken at the run's final beliefs, not at the
    # known state, so it differs from the known-state delta.
    observed = {c["name"]: c["observed"] for c in report["checks"]}
    known = observed["published-known-state-delta"]
    assert observed["published-controls-delta"] != known


def test_simulate_overrides(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(
        main,
        ["--out", str(out), "simulate", "--dt", "0.1", "--horizon", "2.0",
         "--scheme", "discrete"],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) - 1 == 101


def test_incompatible_dt_override_fails_cleanly(runner, tmp_path):
    # Flags pass the configuration's rules before any file is written.
    for i, (args, message) in enumerate(
        [
            (["simulate", "--dt", "0.05"], "[sim] h_ode: 0.02 does not divide 0.05"),
            (["simulate", "--horizon", "10.0005"], "0.02 does not divide 10.0005"),
            (
                ["--seed", "18446744073709551616", "gen-traces"],
                "[sim] seed: must fit in an unsigned 64-bit integer",
            ),
        ]
    ):
        out = tmp_path / f"artifacts{i}"
        result = runner.invoke(main, ["--out", str(out), *args])
        assert result.exit_code == 1
        assert message in result.output
        assert not out.exists()


def test_bad_dt_list_fails_with_one_error_line(runner, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(
        main, ["--out", str(out), "compare-dt", "--dt-list", "0.03,0.02"]
    )
    assert result.exit_code == 1
    assert result.output == "Error: dt=0.03 vs dt_fine: 0.02 does not divide 0.03\n"


def test_bad_config_file_fails_cleanly(runner, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(default_config_text().replace("delta = 0.8", "delta = 2"))
    result = runner.invoke(main, ["--config", str(bad), "simulate"])
    assert result.exit_code != 0
    assert "delta" in result.output


def test_verify_reports_value_errors_without_traceback(runner, tmp_path):
    cfg = tmp_path / "odd_horizon.ini"
    text = default_config_text().replace("horizon = 10.0", "horizon = 10.0005")
    cfg.write_text(text)
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "verify"])
    assert result.exit_code == 1
    assert "does not divide" in result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_verify_accepts_every_step_that_simulate_accepts(runner, tmp_path):
    # h_ode = 0.0025 divides the horizon 1.0025; the 1e-3 grid of the
    # signal interval does not.
    cfg = tmp_path / "fine_step.ini"
    text = default_config_text().replace("h_ode = 0.02", "h_ode = 0.0025")
    cfg.write_text(text.replace("horizon = 10.0", "horizon = 1.0025"))
    out = tmp_path / "artifacts"
    for command in ("simulate", "verify"):
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command])
        assert result.exit_code == 0, result.output
    assert result.output.count("PASS ") == 8
