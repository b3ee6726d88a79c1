"""Scenario configuration files: flat INI with typed sections.

Sections: [scenario] game constants and true signal laws, [priors] belief
hyperparameters, [sim] scheme and grid settings plus the seed, [output] the
artifact directory.  One table declares every key and its kind, one the
range rules.  Keyword overrides (the CLI's flags) replace the file's values
before any check, so both pass the same rules.  Validation reports every
violation it finds, not just the first.
"""

from __future__ import annotations

import importlib.resources
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import DYNAMICS_MODES, SCHEMES, Scenario, SimConfig
from .equilibrium import EPS_SINGULAR, GameParams
from .errors import ConfigError
from .signals import _step_count

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


def _divides(h, total):
    # A step or total that is not positive breaks a positivity rule instead.
    try:
        return h <= 0.0 or total <= 0.0 or _step_count(total, h, "") > 0
    except ValueError:
        return False


_ALPHA0 = "must exceed 1 so the estimator variance is defined from t=0, got {}"
_SEED = "must fit in an unsigned 64-bit integer, got {}"

# Range rules in report order: (keys, holds, message).  A rule is checked once
# all its keys were read, and where ``holds`` is false of their values it
# reports ``message``, formatted with them, under the first key.
_RULES = (
    (("delta",), lambda x: 0.0 < x <= 1.0, "must lie in (0, 1], got {}"),
    (("rho",), lambda x: x > 0.0, "must be positive, got {}"),
    (("s0",), lambda x: x >= 0.0, "must be non-negative, got {}"),
    (("sigma",), lambda x: x > 0.0, "must be positive, got {}"),
    (("tau",), lambda v: min(v) >= 0.0, "entries must be non-negative"),
    (("r",), lambda v: min(v) > 0.0, "entries must be positive"),
    (("kappa0",), lambda x: x > 0.0, "must be positive, got {}"),
    (("alpha0",), lambda x: x > 1.0, _ALPHA0),
    (("beta0",), lambda x: x >= 0.0, "must be non-negative, got {}"),
    (("p0",), lambda v: min(v) > 0.0, "entries must be positive"),
    (("dt_signal",), lambda x: x > 0.0, "must be positive, got {}"),
    (("h_ode",), lambda x: x > 0.0, "must be positive, got {}"),
    (("horizon",), lambda x: x > 0.0, "must be positive, got {}"),
    (("h_ode", "dt_signal"), _divides, "{} does not divide {}"),
    (("h_ode", "horizon"), _divides, "{} does not divide {}"),
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
    for keys, holds, message in _RULES:
        values = [v[key] for key in keys if key in v]
        if len(values) == len(keys) and not holds(*values):
            errs.append(f"[{_SECTION[keys[0]]}] {keys[0]}: {message.format(*values)}")
    if {"mu", "delta", "rho"} <= v.keys():
        gap = 1.0 - v["mu"] * v["delta"] - v["rho"]
        if abs(gap) <= EPS_SINGULAR:
            errs.append(
                f"[scenario] mu/delta/rho: 1 - mu*delta - rho = {gap!r} "
                f"is within {EPS_SINGULAR} of zero"
            )
    if errs:
        raise ConfigError([f"{origin}: {e}" for e in errs])

    # Dataclass fields are named after their keys; the true mean is [scenario] mu.
    def build(cls, **given):
        rest = {f.name: v[f.name] for f in fields(cls) if f.name not in given}
        return cls(**given, **rest)

    scenario = build(Scenario, params=build(GameParams), mu_true=v["mu"])
    return ScenarioConfig(scenario, build(SimConfig), v["seed"], v["directory"])
