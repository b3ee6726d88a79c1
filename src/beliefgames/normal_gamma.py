"""Normal-Gamma belief over the unknown ecological mean.

The belief over (mean, precision) of the ecological signal is parameterized
by four hyperparameters (mu_hat, kappa, alpha, beta).  Under continuous
updating they evolve by the ODE system

    mu_hat' = (x - mu_hat) / (kappa + 1)
    kappa'  = 1
    alpha'  = 1/2
    beta'   = kappa (x - mu_hat)^2 / (2 (kappa + 1))

driven by the held signal x(t).  kappa and alpha are affine in time and are
always propagated in closed form; mu_hat and beta are integrated from t = 0
with the classical fourth-order scheme on a grid of whole multiples of one
step (``verify`` grades the steps with time).  mu_hat's rate is affine in
mu_hat, so it steps by the RK4 for affine ODEs that the stock and the
Kalman mean share (``signals._affine_rk4``); beta never feeds back and
follows from the recorded mu_hat.  The discrete counterpart is one
explicit-Euler application of the same rates scaled by dt, which at dt = 1
reduces to the single-observation conjugate update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError
from .signals import SignalTrace, _affine_rk4, require_finite


@dataclass(frozen=True)
class NormalGammaBelief:
    """Belief state (mu_hat, kappa, alpha, beta)."""

    mu_hat: float
    kappa: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("mu_hat", "kappa", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteStateError(f"non-finite belief field {name}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must stay positive, got {self.kappa}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must stay positive, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must stay non-negative, got {self.beta}")


def belief_derivative(
    b: NormalGammaBelief, x: float
) -> tuple[float, float, float, float]:
    """Rates of change of (mu_hat, kappa, alpha, beta) given signal value x."""
    if not math.isfinite(x):
        raise ValueError(f"signal value must be finite, got {x}")
    innov = x - b.mu_hat
    den = b.kappa + 1.0
    return (innov / den, 1.0, 0.5, b.kappa * innov * innov / (2.0 * den))


def step_discrete(b: NormalGammaBelief, x: float, dt: float) -> NormalGammaBelief:
    """One explicit-Euler update scaled by dt (conjugate update at dt = 1)."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    d_mu, _, _, d_beta = belief_derivative(b, x)
    return NormalGammaBelief(
        mu_hat=b.mu_hat + dt * d_mu,
        kappa=b.kappa + dt,
        alpha=b.alpha + 0.5 * dt,
        beta=b.beta + dt * d_beta,
    )


@dataclass(frozen=True)
class BeliefPath:
    """Belief hyperparameters sampled on the integration grid."""

    t: np.ndarray
    mu_hat: np.ndarray
    kappa: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


def belief_path(
    b: NormalGammaBelief, trace: SignalTrace, u: float, k: np.ndarray
) -> BeliefPath:
    """Integrate the belief by RK4 over the grid t = u * k (``k`` increasing
    whole numbers from 0), recording every point.  No step may straddle a
    signal jump (:meth:`SignalTrace.held_values`); a non-finite state raises
    :class:`NonFiniteStateError` naming its first grid time."""
    xs = trace.held_values(u, k, "belief_path")
    t, h = u * k, u * np.diff(k)
    half = 0.5 * h
    # kappa at each step's start, middle and end, and the rates' denominators.
    k1 = b.kappa + t[:-1]
    k2, k4 = k1 + half, k1 + h
    d1, d2, d4 = d = np.stack((k1, k2, k4)) + 1.0
    # mu_hat' = x/d - mu_hat/d; beta never feeds back.
    mu_arr = _affine_rk4(b.mu_hat, h, xs / d, 1.0 / d)
    # beta's stage rates from mu_hat at each step start.
    mu_start = mu_arr[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        e = xs - mu_start
        m = e / d1
        b1 = k1 * e * e / (2.0 * d1)
        e = xs - (mu_start + half * m)
        m = e / d2
        # b23 sums b2 + b3 in place, which keeps two fewer grid-long arrays alive.
        b23 = k2 * e * e / (2.0 * d2)
        e = xs - (mu_start + half * m)
        m = e / d2
        b23 += k2 * e * e / (2.0 * d2)
        e = xs - (mu_start + h * m)
        b4 = k4 * e * e / (2.0 * d4)
        steps = h * (b1 + 2.0 * b23 + b4) / 6.0
        # cumsum adds in sequence: beta[i+1] = beta[i] + steps[i], as a loop would.
        beta_arr = np.cumsum(np.concatenate(([b.beta], steps)))
    require_finite(t, "belief state", mu_arr, beta_arr)
    return BeliefPath(
        t=t,
        mu_hat=mu_arr,
        kappa=b.kappa + t,
        alpha=b.alpha + 0.5 * t,
        beta=beta_arr,
    )
