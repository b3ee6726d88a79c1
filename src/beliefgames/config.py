"""Scenario configuration files: flat INI with typed sections.

Sections: [scenario] game constants and true signal laws, [priors] belief
hyperparameters, [sim] scheme and grid settings plus the seed, [output] the
artifact directory.  One table declares every key and its kind; the range
rules are the settings dataclasses' own, plus the seed range.  Keyword
overrides (the CLI's flags) replace the file's values before any check, so
both pass the same rules.  Validation reports every violation it finds, not
just the first.
"""

from __future__ import annotations

import importlib.resources
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import DYNAMICS_MODES, SCHEMES, Scenario, SimConfig
from .equilibrium import GameParams, violations
from .errors import ConfigError

_FLOATS = "comma-separated floats"
_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# Every key of a scenario file: (section, key, kind).  A kind is float,
# _FLOATS, int, bool, str, or a tuple of the allowed words.
_KEYS = (
    ("scenario", "a", _FLOATS),
    ("scenario", "tau", _FLOATS),
    ("scenario", "delta", float),
    ("scenario", "rho", float),
    ("scenario", "s0", float),
    ("scenario", "mu", float),
    ("scenario", "sigma", float),
    ("scenario", "r", _FLOATS),
    ("priors", "mu0", float),
    ("priors", "kappa0", float),
    ("priors", "alpha0", float),
    ("priors", "beta0", float),
    ("priors", "tau0", _FLOATS),
    ("priors", "p0", _FLOATS),
    ("sim", "scheme", SCHEMES),
    ("sim", "dt_signal", float),
    ("sim", "h_ode", float),
    ("sim", "horizon", float),
    ("sim", "dynamics_mode", DYNAMICS_MODES),
    ("sim", "clamp_controls", bool),
    ("sim", "seed", int),
    ("output", "directory", str),
)

_SECTION = {key: section for section, key, _ in _KEYS}

_SEED = "must fit in an unsigned 64-bit integer, got {}"

# Range rules in report order: the settings dataclasses' (see
# equilibrium.violations), then the seed range.
_RULES = GameParams.RULES + Scenario.RULES + SimConfig.RULES + (
    (("seed",), lambda s: 0 <= s < 2**64, _SEED),
)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    sim: SimConfig
    seed: int
    out_dir: str


def default_config_text() -> str:
    """Contents of the shipped default scenario file."""
    ref = importlib.resources.files("beliefgames").joinpath("data/default.ini")
    return ref.read_text(encoding="utf-8")


def default_config(**overrides) -> ScenarioConfig:
    """The shipped scenario; ``overrides`` as in :func:`parse_config_text`."""
    return parse_config_text(default_config_text(), "<builtin default>", **overrides)


def parse_config(path: str | Path, **overrides) -> ScenarioConfig:
    """Read a scenario file; ``overrides`` as in :func:`parse_config_text`."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config_text(path.read_text(encoding="utf-8"), str(path), **overrides)


def _convert(kind, text: str):
    """``text`` read as ``kind``; a ValueError carries the violation's tail."""
    if isinstance(kind, tuple) and text not in kind:
        raise ValueError(f"expected one of {kind}, got {text!r}")
    if isinstance(kind, tuple) or kind is str:
        return text
    if kind is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"expected a boolean, got {text!r}")
        return _BOOLS[text.lower()]
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}") from None
    out = []
    for cell in text.split(",") if kind is _FLOATS else [text]:
        try:
            out.append(float(cell.strip()))
        except ValueError:
            raise ValueError(f"not a number: {cell.strip()!r}") from None
        if not math.isfinite(out[-1]):
            raise ValueError(("entries " if kind is _FLOATS else "") + "must be finite")
    return tuple(out) if kind is _FLOATS else out[0]


def parse_config_text(
    text: str, origin: str = "<string>", **overrides
) -> ScenarioConfig:
    """Parse and validate a scenario file's text.

    ``overrides`` maps key names (``seed``, ``horizon``, ...) to values that
    replace the file's before any check; None keeps the file's value, and an
    undeclared name raises TypeError.  Undeclared sections and keys in the
    text are violations; keys of a ``[DEFAULT]`` section are not.
    """
    if undeclared := sorted(overrides.keys() - _SECTION.keys()):
        raise TypeError(f"undeclared configuration keys: {undeclared}")
    cp = ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except ConfigParserError as exc:
        raise ConfigError([f"{origin}: cannot parse INI: {exc}"]) from exc

    errs: list[str] = []
    for section in cp.sections():
        if section not in _SECTION.values():
            errs.append(f"unknown section [{section}]")
            continue
        for key in cp.options(section):
            if _SECTION.get(key) != section and key not in cp.defaults():
                errs.append(f"unknown key [{section}] {key}")

    v: dict = {}
    for section, key, kind in _KEYS:
        if overrides.get(key) is not None:
            raw = str(overrides[key])
        elif cp.has_option(section, key):
            raw = cp.get(section, key).strip()
        else:
            errs.append(f"missing key [{section}] {key}")
            continue
        try:
            v[key] = _convert(kind, raw)
        except ValueError as exc:
            errs.append(f"[{section}] {key}: {exc}")

    n = len(v.get("a", ()))  # players; 0 where a was not read
    for section, key, kind in _KEYS:
        if kind is _FLOATS and n and key in v and len(v[key]) != n:
            errs.append(f"[{section}] {key}: expected {n} entries, got {len(v[key])}")
    for key, message in violations(_RULES, v):
        errs.append(f"[{_SECTION[key]}] {key}: {message}")
    if errs:
        raise ConfigError([f"{origin}: {e}" for e in errs])

    # Dataclass fields are named after their keys; the true mean is [scenario] mu.
    def build(cls, **given):
        rest = {f.name: v[f.name] for f in fields(cls) if f.name not in given}
        return cls(**given, **rest)

    scenario = build(Scenario, params=build(GameParams), mu_true=v["mu"])
    return ScenarioConfig(scenario, build(SimConfig), v["seed"], v["directory"])
