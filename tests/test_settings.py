"""The settings dataclasses and the INI check each range with the same rules."""

import re
from dataclasses import replace

import pytest
from click.testing import CliRunner

from beliefgames import ConfigError, GameParams, Scenario, SimConfig
from beliefgames.cli import main
from beliefgames.config import (
    _SECTION,
    default_config,
    default_config_text,
    parse_config_text,
)

# For each rule of the three tables, a (key, INI text, value) that breaks that
# rule alone in the shipped scenario.
BREAKING = {
    ("delta",): ("delta", "1.5", 1.5),
    ("rho",): ("rho", "0", 0.0),
    ("s0",): ("s0", "-0.1", -0.1),
    ("tau",): ("tau", "-1, 1.2", (-1.0, 1.2)),
    ("sigma",): ("sigma", "0", 0.0),
    ("r",): ("r", "0.25, 0", (0.25, 0.0)),
    ("kappa0",): ("kappa0", "-1", -1.0),
    ("alpha0",): ("alpha0", "0.5", 0.5),
    ("beta0",): ("beta0", "-0.5", -0.5),
    ("p0",): ("p0", "0, 1", (0.0, 1.0)),
    # beta0 / (kappa0 (alpha0 - 1)) = 1 / 1e-320 overflows.
    ("kappa0", "alpha0", "beta0"): ("kappa0", "1e-320", 1e-320),
    ("scheme",): ("scheme", "implicit", "implicit"),
    ("dynamics_mode",): ("dynamics_mode", "mean", "mean"),
    ("dt_signal",): ("dt_signal", "-0.02", -0.02),
    ("h_ode",): ("h_ode", "0", 0.0),
    ("horizon",): ("horizon", "-10", -10.0),
    ("h_ode", "dt_signal"): ("dt_signal", "0.03", 0.03),
    ("h_ode", "horizon"): ("horizon", "10.0005", 10.0005),
}
RULES = [keys for cls in (GameParams, Scenario, SimConfig) for keys, _, _ in cls.RULES]


def _edited(key: str, text: str) -> str:
    out, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {text}", default_config_text())
    assert count == 1, key
    return out


def _settings(key: str):
    cfg = default_config()
    settings = (cfg.scenario.params, cfg.scenario, cfg.sim)
    return next(s for s in settings if hasattr(s, key))


@pytest.mark.parametrize("rule", RULES, ids="-".join)
def test_dataclass_and_ini_report_each_rule_alike(rule):
    key, text, value = BREAKING[rule]
    with pytest.raises(ValueError) as built:
        replace(_settings(key), **{key: value})
    with pytest.raises(ConfigError) as parsed:
        parse_config_text(_edited(key, text))
    assert parsed.value.violations == [f"<string>: [{_SECTION[key]}] {built.value}"]
    assert str(built.value).startswith(f"{rule[0]}: ")


def test_compare_dt_names_the_step_that_does_not_divide(tmp_path):
    out = tmp_path / "artifacts"
    result = CliRunner().invoke(
        main, ["--out", str(out), "compare-dt", "--dt-list", "0.04,0.01"]
    )
    assert result.exit_code == 1
    assert result.output == "Error: h_ode: 0.02 does not divide 0.01\n"
