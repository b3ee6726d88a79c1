"""Normal-Gamma belief over the unknown ecological mean.

The belief over (mean, precision) of the ecological signal is parameterized
by four hyperparameters (mu_hat, kappa, alpha, beta).  Under continuous
updating they evolve by the ODE system

    mu_hat' = (x - mu_hat) / (kappa + 1)
    kappa'  = 1
    alpha'  = 1/2
    beta'   = kappa (x - mu_hat)^2 / (2 (kappa + 1))

driven by the held signal x(t).  kappa and alpha are affine in time and are
always propagated in closed form; mu_hat and beta are integrated with the
classical fourth-order scheme, in steps of one size or of a given size each
(``verify`` grades them with time).  mu_hat's rate is affine in
mu_hat, so each of its steps is one multiply-add whose coefficients numpy
sums from the stages; beta never feeds back and follows from the recorded
mu_hat.  The discrete counterpart is one
explicit-Euler application of the same rates scaled by dt, which at dt = 1
reduces to the single-observation conjugate update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError, UndefinedVarianceError
from .signals import SignalTrace, _increment_walk, _step_units, require_finite


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
    b: NormalGammaBelief, trace: SignalTrace, duration: float, h
) -> BeliefPath:
    """Integrate the belief over ``duration`` by RK4, recording every grid point.

    ``h`` is one step size, which must divide both the duration and the
    trace's hold interval, or an array of step sizes (see
    :meth:`SignalTrace.held_steps`); either way no integration step straddles
    a signal jump.  A non-finite state raises :class:`NonFiniteStateError`
    naming its first grid time.
    """
    t, xs = trace.held_steps(b.t, duration, h, "belief_path")
    u, k = _step_units(duration, h, "belief_path")
    half = 0.5 * h
    # kappa at each step's start, middle and end, and the rates' denominators.
    k1 = b.kappa + u * k[:-1]
    k2, k4 = k1 + half, k1 + h
    d1, d2, d4 = k1 + 1.0, k2 + 1.0, k4 + 1.0
    # Each stage rate of mu_hat is affine in mu_hat at the step start,
    # p + q*mu_hat, so only the walk over the steps is a loop; beta never
    # feeds back.
    p1, q1 = xs / d1, -1.0 / d1
    p2, q2 = (xs - half * p1) / d2, -(1.0 + half * q1) / d2
    p3, q3 = (xs - half * p2) / d2, -(1.0 + half * q2) / d2
    p4, q4 = (xs - h * p3) / d4, -(1.0 + h * q3) / d4
    mu_arr = _increment_walk(b.mu_hat, h, (p1, p2, p3, p4), (q1, q2, q3, q4))
    del p1, q1, p2, q2, p3, q3, p4, q4  # before beta's grid-long arrays
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
