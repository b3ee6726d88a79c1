"""Byte identity: the five commands, run on the default INI, on its discrete
twin and on a 5-player config, write the artifacts and the ``verify`` and
``compare-dt`` stdout whose sha256 sums this table holds.

Output is promised byte-identical for a given version, config and seed.  A
change that moves a bit on purpose bumps the version and updates this table
in the same commit, and CHANGES.md names each artifact that moved and why.
The sums were taken with CPython 3.11.7 and numpy 2.4.6 on x86-64; whether
other Python versions, numpy builds and CPUs agree has not been checked.
"""

import hashlib

import pytest
from click.testing import CliRunner

from beliefgames.cli import main
from beliefgames.config import default_config_text

COMMANDS = ("gen-traces", "simulate", "compare-dt", "equilibrium", "verify")
# Commands whose stdout is in the table, with the output directory masked.
STDOUT = ("compare-dt", "verify")

# Player 1's R/P0 = 0.125 lies below kappa0 + 1 = 2, so verify's RK4
# reference steps h_ode / 8 at first and doubles its step three times.
FIVE_PLAYER_INI = """\
[scenario]
a = 3.0, 3.2, 2.9, 3.1, 3.0
tau = 1.0, 1.2, 0.9, 1.1, 1.0
delta = 0.8
rho = 0.1
s0 = 0.1
mu = 0.5
sigma = 0.2
r = 0.25, 0.5, 0.3, 0.4, 0.2

[priors]
mu0 = 0.3
kappa0 = 1.0
alpha0 = 2.0
beta0 = 1.0
tau0 = 0.6, 0.6, 0.6, 0.6, 0.6
p0 = 2.0, 1.0, 0.5, 1.5, 1.0

[sim]
scheme = continuous
dt_signal = 0.02
h_ode = 0.01
horizon = 12.0
dynamics_mode = realized
clamp_controls = false
seed = 77

[output]
directory = out
"""


def _config_text(name: str) -> str:
    if name == "five-player":
        return FIVE_PLAYER_INI
    text = default_config_text()
    assert "\nscheme = continuous\n" in text
    return text.replace("\nscheme = continuous\n", f"\nscheme = {name}\n")


# The traces, the dt sweep and the known-state equilibrium do not depend on
# the updating scheme.
SHARED = {
    "trace_ecological.csv": "d9c6a560eed0b03e95cc967aacfc9cac1c00cf2bb6a1ba4c14a07f7f5dec0d79",
    "trace_cost_1.csv": "331b815812724cefcce59d90ec25368d500214d2b8f7fa36abd4e1acf4acc09d",
    "trace_cost_2.csv": "4ae30de351a29021423a7bb032736fbe96e0fbcbe3740b10d66c93c6c46e9047",
    "dt_gaps.csv": "adf5235dbf0eb26bd2dee616632953833b80359dad0a761f63a58a400afc69b4",
    "equilibrium.json": "b0b255c2026704e2c8cd2ad06e60cc7a50aaf2da2e3295283182f4279d56bdac",
}
# compare-dt prints only the path it wrote.
COMPARE_STDOUT = "85946a7efc789003b260c47d39127b95012344139fa08bd84e20283c3957540e"
SHA256 = {
    "continuous": {
        **SHARED,
        "stdout compare-dt": COMPARE_STDOUT,
        "trajectory.csv": "a3dd8a790f50d888bf97a343018f9bb1d9de41efef0c2e7a0e502992605873fe",
        "verification.json": "e9e9a9bb70ccc196b8ae34283312a422a8775f7b356785d10ffb8d0ca493656d",
        "stdout verify": "74fb994608e99a0c08b686c42a70aec9ebe407c3f28bc4276e444b3668b60cda",
    },
    "discrete": {
        **SHARED,
        "stdout compare-dt": COMPARE_STDOUT,
        "trajectory.csv": "e5b6fdaf8e6dccd70d98fa6213dfcef58828ba8472bdcb47980972bce145ac16",
        "verification.json": "447f6445b51b8f2d9105fda5e87be1a2f1efa9acece83e47d0583cb782912c31",
        "stdout verify": "362eeed0ffa2519f70a7a3317a82c0a6d5bf872571aebe886124bebd07a43ee4",
    },
    "five-player": {
        "trace_ecological.csv": "00c154d31d68439462b8b1a0991ff9242410e6429443b043e05ecc2de2ab8e1a",
        "trace_cost_1.csv": "aa137acb05ee7de1f079b64be352b7157a5e0f145853c4ebb46d789e01cf00c4",
        "trace_cost_2.csv": "2483a7260067868b6e25bacdfbeb9cb76aea82f521bd02282403763602cd3ec2",
        "trace_cost_3.csv": "909b8cd2db6ba136228e1122037b73621e72156246fbeafd3e7cefac7708c593",
        "trace_cost_4.csv": "2fa3191eb1e94e5b22646d6432addf472b67f18d9956f47d60eec47a3f8ac2c3",
        "trace_cost_5.csv": "7b562706ca220270e5b3dd1599def813b1604933b781f3cbb6166e50f7734dde",
        "dt_gaps.csv": "32cdc9d5c5f9ab79eb4375ad01026353f9d2f46a3f1ea77e89e79777ba06b8a3",
        "equilibrium.json": "81c71b4a3c644899369b428ccaa24b8a71202e9ca2d3984dc9e8a45b92adb5d3",
        "stdout compare-dt": COMPARE_STDOUT,
        "trajectory.csv": "dd890dca027c5d9eb0b6da5305400ddebbb18ffddb00c7747633786ace36dc87",
        "verification.json": "193a0c13acc2a1b92becd90752adaec67560cdae799c4b824124e990886054bd",
        "stdout verify": "11c55345e52d078aa02415a9557edb287f1b2ea367d831bbf5b3111a1e8cdaad",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("config_name", sorted(SHA256))
def test_commands_write_the_recorded_bytes(tmp_path, config_name):
    config = tmp_path / f"{config_name}.ini"
    config.write_text(_config_text(config_name))
    out = tmp_path / "out"
    runner = CliRunner()
    written = {}
    for command in COMMANDS:
        result = runner.invoke(main, ["--config", str(config), "--out", str(out), command])
        assert result.exit_code == 0, f"{command}: {result.output}"
        if command in STDOUT:
            text = result.stdout.replace(str(out), "<out>")
            written[f"stdout {command}"] = _sha(text.encode("utf-8"))
    written.update((path.name, _sha(path.read_bytes())) for path in out.iterdir())
    expected = SHA256[config_name]
    moved = sorted(name for name in written.keys() | expected.keys()
                   if written.get(name) != expected.get(name))
    assert not moved, f"{config_name}: artifacts differ from the recorded bytes: {moved}"
