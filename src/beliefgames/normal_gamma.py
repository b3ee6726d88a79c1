"""Normal-Gamma belief over the unknown ecological mean.

The belief over (mean, precision) of the ecological signal is parameterized
by four hyperparameters (mu_hat, kappa, alpha, beta).  Under continuous
updating they evolve by the ODE system

    mu_hat' = (x - mu_hat) / (kappa + 1)
    kappa'  = 1
    alpha'  = 1/2
    beta'   = kappa (x - mu_hat)^2 / (2 (kappa + 1))

driven by the held signal x(t).  kappa and alpha are affine in time and are
always propagated in closed form; mu_hat and beta are integrated with a
fixed-step classical fourth-order scheme.  The discrete counterpart is one
explicit-Euler application of the same rates scaled by dt, which at dt = 1
reduces to the single-observation conjugate update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError, UndefinedVarianceError
from .signals import SignalTrace


@dataclass(frozen=True)
class NormalGammaBelief:
    """Belief state (mu_hat, kappa, alpha, beta) with its own clock t."""

    mu_hat: float
    kappa: float
    alpha: float
    beta: float
    t: float = 0.0

    def __post_init__(self):
        for name in ("mu_hat", "kappa", "alpha", "beta", "t"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteStateError(f"non-finite belief field {name}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must stay positive, got {self.kappa}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must stay positive, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must stay non-negative, got {self.beta}")
        if self.t < 0.0:
            raise ValueError(f"belief clock must be non-negative, got {self.t}")

    def estimator_variance(self) -> float:
        """Posterior variance of the mean estimate, beta / (kappa (alpha - 1))."""
        if self.alpha <= 1.0:
            raise UndefinedVarianceError(
                f"variance undefined for alpha={self.alpha} <= 1"
            )
        return self.beta / (self.kappa * (self.alpha - 1.0))


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
        t=b.t + dt,
    )


def _rk4_mu_beta(
    mu: float, beta: float, kappa0: float, x: float, h: float
) -> tuple[float, float]:
    # One step of the (mu_hat, beta) subsystem; kappa0 is kappa at the step
    # start and advances linearly through the stages.
    def rates(s: float, m: float) -> tuple[float, float]:
        k = kappa0 + s
        innov = x - m
        den = k + 1.0
        return innov / den, k * innov * innov / (2.0 * den)

    k1m, k1b = rates(0.0, mu)
    k2m, k2b = rates(0.5 * h, mu + 0.5 * h * k1m)
    k3m, k3b = rates(0.5 * h, mu + 0.5 * h * k2m)
    k4m, k4b = rates(h, mu + h * k3m)
    mu_next = mu + h * (k1m + 2.0 * (k2m + k3m) + k4m) / 6.0
    beta_next = beta + h * (k1b + 2.0 * (k2b + k3b) + k4b) / 6.0
    return mu_next, beta_next


@dataclass(frozen=True)
class BeliefPath:
    """Belief hyperparameters sampled on the integration grid."""

    t: np.ndarray
    mu_hat: np.ndarray
    kappa: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def estimator_variance(self) -> np.ndarray:
        # NaN where alpha <= 1 (statistic undefined there).
        denom = self.kappa * (self.alpha - 1.0)
        out = np.full_like(self.beta, np.nan)
        ok = self.alpha > 1.0
        out[ok] = self.beta[ok] / denom[ok]
        return out


def belief_path(
    b: NormalGammaBelief, trace: SignalTrace, duration: float, h: float
) -> BeliefPath:
    """Integrate the belief over ``duration`` by RK4, recording every grid point.

    ``h`` must divide both the duration and the trace's hold interval, so no
    integration step ever straddles a signal jump.
    """
    t, xs = trace.held_steps(b.t, duration, h, "belief_path")
    mu_arr = np.empty(t.size)
    beta_arr = np.empty(t.size)
    mu, beta = b.mu_hat, b.beta
    mu_arr[0], beta_arr[0] = mu, beta
    for i, x in enumerate(map(float, xs)):  # Python floats step faster
        mu, beta = _rk4_mu_beta(mu, beta, b.kappa + i * h, x, h)
        mu_arr[i + 1], beta_arr[i + 1] = mu, beta
    return BeliefPath(
        t=t,
        mu_hat=mu_arr,
        kappa=b.kappa + (t - b.t),
        alpha=b.alpha + 0.5 * (t - b.t),
        beta=beta_arr,
    )


def closed_form_mean(trace: SignalTrace, mu0: float, kappa0: float, t):
    """Closed-form mean estimate (integral of x plus mu0*kappa0) / (kappa0 + t + 1).

    ``t`` may be an array of times; the hold structure makes the integral an
    exact finite sum.  The formula is anchored at belief clock 0; it agrees
    with the ODE initial condition mu_hat(0) = mu0 only when mu0 = 0.
    """
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("t must be non-negative")
    return (trace.integral(0.0, t) + mu0 * kappa0) / (kappa0 + t + 1.0)
