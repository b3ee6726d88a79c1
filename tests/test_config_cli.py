import gc
import io
import json
import os
import re
import subprocess
import sys
import weakref
from contextlib import redirect_stdout
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


def test_version_matches_pyproject():
    # Python 3.10 has no tomllib, so read the [project] version line as text.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, flags=re.M)
    assert beliefgames.__version__ == version


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


def test_truth_on_published_surface_accepted(runner, tmp_path):
    # 1 - mu*delta - rho = 0 at the configured truth: the published forms are
    # singular and report NaN, the solver (1 + rho - mu*delta) is regular.
    text = default_config_text().replace("mu = 0.5", "mu = 1.125")
    assert parse_config_text(text).scenario.mu_true == 1.125
    cfg = tmp_path / "surface.ini"
    cfg.write_text(text)
    out = tmp_path / "artifacts"
    for command in ("equilibrium", "verify"):
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command])
        assert result.exit_code == 0, result.output
    eq = json.loads((out / "equilibrium.json").read_text())
    published = eq["closed_form"]["controls"] + eq["known_state"]["closed_form_controls"]
    assert np.isnan(published + eq["closed_form"]["value_slopes"]).all()
    assert np.isnan(eq["closed_form"]["c_bar"])
    solver = eq["controls"] + eq["value_slopes"] + eq["known_state"]["solver_controls"]
    assert np.isfinite(solver).all()
    checks = json.loads((out / "verification.json").read_text())["checks"]
    observed = {c["name"]: c["observed"] for c in checks}
    assert np.isnan(observed["published-known-state-delta"])
    assert np.isnan(observed["published-value-slope-delta"])
    assert observed["equilibrium-foc"] <= 1e-9


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


SCHEME_CHECKS = {
    "continuous": {
        "continuous-mean-rk4",
        "continuous-var-mu-rk4",
        "continuous-kalman-mean-rk4",
        "continuous-variance-rk4",
    },
    "discrete": {
        "discrete-mean-euler",
        "discrete-var-mu-euler",
        "discrete-kalman-mean-euler",
        "discrete-variance-euler",
    },
}


@pytest.mark.parametrize("scheme", ["continuous", "discrete"])
def test_verify_passes_and_writes_report(runner, tmp_path, scheme):
    cfg = tmp_path / "scenario.ini"
    text = default_config_text()
    cfg.write_text(text.replace("scheme = continuous", f"scheme = {scheme}"))
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "verify"])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "verification.json").read_text())
    assert report["all_passed"] is True
    assert "note" in report
    # Each scheme's four checks of the run run, and pass, under that scheme only.
    every = SCHEME_CHECKS["continuous"] | SCHEME_CHECKS["discrete"]
    ran = every & {c["name"] for c in report["checks"]}
    assert ran == SCHEME_CHECKS[scheme]
    assert all(f"PASS {name}: " in result.output for name in ran)
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


@pytest.mark.parametrize(
    "dt_list, message",
    [
        ("0.02,inf", "dt=inf: must be positive and finite"),
        ("0.02,nan", "dt=nan: must be positive and finite"),
        ("0.02,-0.04", "dt=-0.04: must be positive and finite"),
        ("0.02,0", "dt=0.0: must be positive and finite"),
        ("0.08,0.02,0.03", "dt=0.03 vs dt_fine: 0.02 does not divide 0.03"),
        ("0.04,0.02,0.04", "dt=0.04: listed twice; the intervals must be distinct"),
    ],
)
def test_dt_list_error_names_the_failing_value(runner, tmp_path, dt_list, message):
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--out", str(out), "compare-dt", "--dt-list", dt_list])
    assert result.exit_code == 1
    assert result.output == f"Error: {message}\n"
    assert not (out / "dt_gaps.csv").exists()


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


@pytest.mark.parametrize(
    "args, culprit",
    [
        (["simulate", "--traces", "{dir}"], "{dir}/trace_ecological.csv"),
        (["--config", "{dir}", "simulate"], "{dir}"),
        (["--out", "{file}", "simulate"], "{file}"),
    ],
    ids=["missing-trace", "config-is-a-directory", "out-is-a-file"],
)
def test_file_errors_fail_with_one_error_line(runner, tmp_path, args, culprit):
    paths = {"dir": tmp_path / "empty", "file": tmp_path / "taken"}
    paths["dir"].mkdir()
    paths["file"].write_text("")
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: ") and culprit.format(**paths) in line


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_prior_whose_var_mu_overflows_is_one_error_line(tmp_path, command):
    # beta0 / (kappa0 (alpha0 - 1)) = 1 / 1e-320 overflows: the run would
    # write var_mu = inf at t = 0, and verify would compare inf with inf.
    cfg = tmp_path / "kappa0.ini"
    cfg.write_text(default_config_text().replace("kappa0 = 1.0\n", "kappa0 = 1e-320\n"))
    src = str(Path(beliefgames.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "artifacts"
    args = ["--config", str(cfg), "--out", str(out), command]
    result = subprocess.run(
        [sys.executable, "-m", "beliefgames.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1
    assert "[priors] kappa0: the prior's var_mu" in result.stderr
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    assert not out.exists()


def test_failed_replay_leaves_no_output_directory(runner, tmp_path):
    # The traces are read before the output directory is made.
    traces = tmp_path / "empty"
    traces.mkdir()
    out = tmp_path / "o1"
    result = runner.invoke(main, ["--out", str(out), "simulate", "--traces", str(traces)])
    assert result.exit_code == 1
    [line] = result.output.splitlines()
    assert line.startswith("Error: ")
    assert not out.exists()


def test_a_trace_file_that_starts_late_is_one_error_line_naming_it(runner, tmp_path):
    gen = tmp_path / "gen"
    assert runner.invoke(main, ["--out", str(gen), "gen-traces"]).exit_code == 0
    eco = gen / "trace_ecological.csv"
    meta, header, *rows = eco.read_text().splitlines()
    assert meta == "# ecological,0.02,0"
    shifted = [f"{0.5 + 0.02 * k!r},{row.split(',')[1]}" for k, row in enumerate(rows)]
    eco.write_text("\n".join(["# ecological,0.02,0.5", header, *shifted]) + "\n")
    out = tmp_path / "o1"
    result = runner.invoke(main, ["--out", str(out), "simulate", "--traces", str(gen)])
    assert result.exit_code == 1
    [line] = result.output.splitlines()
    assert line == f"Error: {eco}: a trace starts at t0 = 0, got 0.5"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-traces", "simulate", "compare-dt", "verify"])
def test_a_grid_too_large_to_allocate_is_one_error_line(runner, tmp_path, command):
    # horizon / dt_signal = 5e16 samples, 355 PiB per trace: more than a 64-bit
    # process can map, so the allocation fails at once.
    cfg = tmp_path / "huge.ini"
    cfg.write_text(default_config_text().replace("horizon = 10.0\n", "horizon = 1e15\n"))
    out = tmp_path / "artifacts"
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command])
    assert result.exit_code == 1
    [line] = result.output.splitlines()
    assert line.startswith("Error: Unable to allocate ")
    assert not out.exists()


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


def test_in_process_commands_free_the_stdout_they_wrote_to(tmp_path):
    # Six calls under redirect_stdout, as a host that captures each command's
    # output does; every sink must be collectable once its call returns.
    sinks = []
    for i in range(6):
        sink, out = io.StringIO(), tmp_path / f"run{i}"
        with redirect_stdout(sink):
            main.main(
                args=["--out", str(out), "equilibrium"],
                prog_name="beliefgames",
                standalone_mode=False,
            )
        assert sink.getvalue() == f"wrote {out / 'equilibrium.json'}\n"
        sinks.append(weakref.ref(sink))
        del sink
    gc.collect()
    assert [ref() for ref in sinks] == [None] * 6
