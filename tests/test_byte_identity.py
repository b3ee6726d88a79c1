"""Byte identity: the five commands, run on the default INI and on its
discrete twin, write the artifacts whose sha256 sums this table holds.

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

# The traces, the dt sweep and the known-state equilibrium do not depend on
# the updating scheme.
SHARED = {
    "trace_ecological.csv": "d9c6a560eed0b03e95cc967aacfc9cac1c00cf2bb6a1ba4c14a07f7f5dec0d79",
    "trace_cost_1.csv": "331b815812724cefcce59d90ec25368d500214d2b8f7fa36abd4e1acf4acc09d",
    "trace_cost_2.csv": "4ae30de351a29021423a7bb032736fbe96e0fbcbe3740b10d66c93c6c46e9047",
    "dt_gaps.csv": "adf5235dbf0eb26bd2dee616632953833b80359dad0a761f63a58a400afc69b4",
    "equilibrium.json": "b0b255c2026704e2c8cd2ad06e60cc7a50aaf2da2e3295283182f4279d56bdac",
}
SHA256 = {
    "continuous": {
        **SHARED,
        "trajectory.csv": "a3dd8a790f50d888bf97a343018f9bb1d9de41efef0c2e7a0e502992605873fe",
        "verification.json": "e9e9a9bb70ccc196b8ae34283312a422a8775f7b356785d10ffb8d0ca493656d",
    },
    "discrete": {
        **SHARED,
        "trajectory.csv": "e5b6fdaf8e6dccd70d98fa6213dfcef58828ba8472bdcb47980972bce145ac16",
        "verification.json": "447f6445b51b8f2d9105fda5e87be1a2f1efa9acece83e47d0583cb782912c31",
    },
}


@pytest.mark.parametrize("scheme", sorted(SHA256))
def test_commands_write_the_recorded_bytes(tmp_path, scheme):
    config = tmp_path / f"{scheme}.ini"
    text = default_config_text()
    assert "\nscheme = continuous\n" in text
    config.write_text(text.replace("\nscheme = continuous\n", f"\nscheme = {scheme}\n"))
    out = tmp_path / "out"
    runner = CliRunner()
    for command in COMMANDS:
        result = runner.invoke(main, ["--config", str(config), "--out", str(out), command])
        assert result.exit_code == 0, f"{command}: {result.output}"
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
    }
    moved = sorted(name for name in written.keys() | SHA256[scheme].keys()
                   if written.get(name) != SHA256[scheme].get(name))
    assert not moved, f"{scheme}: artifacts differ from the recorded bytes: {moved}"
