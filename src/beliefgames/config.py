"""Scenario configuration files: flat INI with typed sections.

Sections: [scenario] game constants and true signal laws, [priors] belief
hyperparameters, [sim] scheme and grid settings plus the seed, [output] the
artifact directory.  Validation reports every violation it finds, not just
the first.
"""

from __future__ import annotations

import importlib.resources
import math
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, replace
from pathlib import Path

from .engine import Scenario, SimConfig
from .equilibrium import EPS_SINGULAR, GameParams
from .errors import ConfigError
from .signals import _step_count

_SCHEMES = ("continuous", "discrete")
_MODES = ("realized", "expected")
_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    sim: SimConfig
    seed: int
    out_dir: str

    def with_overrides(
        self,
        seed: int | None = None,
        out_dir: str | None = None,
        **sim_fields,
    ) -> "ScenarioConfig":
        sim = replace(self.sim, **sim_fields) if sim_fields else self.sim
        return ScenarioConfig(
            scenario=self.scenario,
            sim=sim,
            seed=self.seed if seed is None else seed,
            out_dir=self.out_dir if out_dir is None else out_dir,
        )


def default_config_text() -> str:
    """Contents of the shipped default scenario file."""
    ref = importlib.resources.files("beliefgames").joinpath("data/default.ini")
    return ref.read_text(encoding="utf-8")


def default_config() -> ScenarioConfig:
    return parse_config_text(default_config_text(), origin="<builtin default>")


def parse_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    return parse_config_text(path.read_text(encoding="utf-8"), origin=str(path))


def parse_config_text(text: str, origin: str = "<string>") -> ScenarioConfig:
    cp = ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except ConfigParserError as exc:
        raise ConfigError([f"{origin}: cannot parse INI: {exc}"]) from exc

    errs: list[str] = []

    def raw(section: str, key: str) -> str | None:
        if not cp.has_section(section):
            return None
        if not cp.has_option(section, key):
            return None
        return cp.get(section, key).strip()

    def need(section: str, key: str) -> str | None:
        value = raw(section, key)
        if value is None:
            errs.append(f"missing key [{section}] {key}")
        return value

    def get_float(section: str, key: str) -> float | None:
        value = need(section, key)
        if value is None:
            return None
        try:
            out = float(value)
        except ValueError:
            errs.append(f"[{section}] {key}: not a number: {value!r}")
            return None
        if not math.isfinite(out):
            errs.append(f"[{section}] {key}: must be finite")
            return None
        return out

    def get_floats(section: str, key: str) -> list[float] | None:
        value = need(section, key)
        if value is None:
            return None
        out = []
        for cell in value.split(","):
            try:
                v = float(cell.strip())
            except ValueError:
                errs.append(f"[{section}] {key}: not a number: {cell.strip()!r}")
                return None
            if not math.isfinite(v):
                errs.append(f"[{section}] {key}: entries must be finite")
                return None
            out.append(v)
        return out

    def get_choice(section: str, key: str, choices) -> str | None:
        value = need(section, key)
        if value is None:
            return None
        if value not in choices:
            errs.append(f"[{section}] {key}: expected one of {choices}, got {value!r}")
            return None
        return value

    def get_bool(section: str, key: str) -> bool | None:
        value = need(section, key)
        if value is None:
            return None
        flag = _BOOLS.get(value.lower())
        if flag is None:
            errs.append(f"[{section}] {key}: expected a boolean, got {value!r}")
        return flag

    def get_int(section: str, key: str) -> int | None:
        value = need(section, key)
        if value is None:
            return None
        try:
            return int(value)
        except ValueError:
            errs.append(f"[{section}] {key}: not an integer: {value!r}")
            return None

    a = get_floats("scenario", "a")
    tau = get_floats("scenario", "tau")
    delta = get_float("scenario", "delta")
    rho = get_float("scenario", "rho")
    s0 = get_float("scenario", "s0")
    mu = get_float("scenario", "mu")
    sigma = get_float("scenario", "sigma")
    r = get_floats("scenario", "r")
    mu0 = get_float("priors", "mu0")
    kappa0 = get_float("priors", "kappa0")
    alpha0 = get_float("priors", "alpha0")
    beta0 = get_float("priors", "beta0")
    tau0 = get_floats("priors", "tau0")
    p0 = get_floats("priors", "p0")
    scheme = get_choice("sim", "scheme", _SCHEMES)
    dt_signal = get_float("sim", "dt_signal")
    h_ode = get_float("sim", "h_ode")
    horizon = get_float("sim", "horizon")
    mode = get_choice("sim", "dynamics_mode", _MODES)
    clamp = get_bool("sim", "clamp_controls")
    seed = get_int("sim", "seed")
    out_dir = need("output", "directory")

    n = len(a) if a else 0
    if a is not None and n < 1:
        errs.append("[scenario] a: need at least one player")
    for key, vec in (("tau", tau), ("r", r)):
        if a is not None and vec is not None and len(vec) != n:
            errs.append(f"[scenario] {key}: expected {n} entries, got {len(vec)}")
    for key, vec in (("tau0", tau0), ("p0", p0)):
        if a is not None and vec is not None and len(vec) != n:
            errs.append(f"[priors] {key}: expected {n} entries, got {len(vec)}")

    if delta is not None and not 0.0 < delta <= 1.0:
        errs.append(f"[scenario] delta: must lie in (0, 1], got {delta}")
    if rho is not None and rho <= 0.0:
        errs.append(f"[scenario] rho: must be positive, got {rho}")
    if s0 is not None and s0 < 0.0:
        errs.append(f"[scenario] s0: must be non-negative, got {s0}")
    if sigma is not None and sigma <= 0.0:
        errs.append(f"[scenario] sigma: must be positive, got {sigma}")
    if tau is not None and any(v < 0.0 for v in tau):
        errs.append("[scenario] tau: entries must be non-negative")
    if r is not None and any(v <= 0.0 for v in r):
        errs.append("[scenario] r: entries must be positive")
    if kappa0 is not None and kappa0 <= 0.0:
        errs.append(f"[priors] kappa0: must be positive, got {kappa0}")
    if alpha0 is not None and alpha0 <= 1.0:
        errs.append(
            f"[priors] alpha0: must exceed 1 so the estimator variance is "
            f"defined from t=0, got {alpha0}"
        )
    if beta0 is not None and beta0 < 0.0:
        errs.append(f"[priors] beta0: must be non-negative, got {beta0}")
    if p0 is not None and any(v <= 0.0 for v in p0):
        errs.append("[priors] p0: entries must be positive")
    if dt_signal is not None and dt_signal <= 0.0:
        errs.append(f"[sim] dt_signal: must be positive, got {dt_signal}")
    if h_ode is not None and h_ode <= 0.0:
        errs.append(f"[sim] h_ode: must be positive, got {h_ode}")
    if horizon is not None and horizon <= 0.0:
        errs.append(f"[sim] horizon: must be positive, got {horizon}")
    if dt_signal and h_ode and dt_signal > 0 and h_ode > 0:
        try:
            _step_count(dt_signal, h_ode, "[sim] h_ode")
        except ValueError as exc:
            errs.append(str(exc))
    if seed is not None and not 0 <= seed < 2**64:
        errs.append(f"[sim] seed: must fit in an unsigned 64-bit integer, got {seed}")
    if (
        mu is not None
        and delta is not None
        and rho is not None
        and abs(1.0 - mu * delta - rho) <= EPS_SINGULAR
    ):
        errs.append(
            f"[scenario] mu/delta/rho: 1 - mu*delta - rho = "
            f"{1.0 - mu * delta - rho!r} is within {EPS_SINGULAR} of zero"
        )

    if errs:
        raise ConfigError([f"{origin}: {e}" for e in errs])

    params = GameParams(a=tuple(a), tau=tuple(tau), delta=delta, rho=rho, s0=s0)
    scenario = Scenario(
        params=params,
        mu_true=mu,
        sigma=sigma,
        mu0=mu0,
        kappa0=kappa0,
        alpha0=alpha0,
        beta0=beta0,
        tau0=tuple(tau0),
        p0=tuple(p0),
        r=tuple(r),
    )
    sim = SimConfig(
        scheme=scheme,
        dt_signal=dt_signal,
        h_ode=h_ode,
        horizon=horizon,
        dynamics_mode=mode,
        clamp_controls=clamp,
    )
    return ScenarioConfig(scenario=scenario, sim=sim, seed=seed, out_dir=out_dir)
