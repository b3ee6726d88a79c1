import numpy as np
import pytest

from beliefgames import GameParams, Scenario, SimConfig


@pytest.fixture
def two_player_params() -> GameParams:
    return GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.1, s0=0.1)


@pytest.fixture
def two_player_scenario(two_player_params) -> Scenario:
    return Scenario(
        params=two_player_params,
        mu_true=0.5,
        sigma=0.2,
        mu0=0.0,
        kappa0=1.0,
        alpha0=2.0,
        beta0=1.0,
        tau0=(0.6, 0.6),
        p0=(1.0, 1.0),
        r=(0.25, 0.25),
    )


@pytest.fixture
def base_config() -> SimConfig:
    return SimConfig(
        scheme="continuous",
        dt_signal=0.02,
        h_ode=0.02,
        horizon=10.0,
        dynamics_mode="realized",
    )


def max_rel_gap(observed: np.ndarray, expected: np.ndarray, floor: float = 1e-12):
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(
        np.max(np.abs(observed - expected) / np.maximum(np.abs(expected), floor))
    )


def zero_prior_mean(trace, c: float, t):
    """The published zero-prior filter mean at time(s) ``t``: the integral of
    the held signal over [t0, t] over (c + t), with c = kappa0 + 1 for the
    Normal-Gamma mean and R / P0 for the Kalman mean.  The integral
    interpolates the prefix sums at the hold edges, exact for a step function."""
    edges = trace.dt * np.arange(len(trace) + 1)
    cum = np.concatenate(([0.0], np.cumsum(trace.values * trace.dt)))
    return np.interp(t, edges, cum) / (c + t)
