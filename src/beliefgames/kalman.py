"""Scalar Kalman estimation of an opponent's constant cost type.

The hidden state is a constant, so the filter reduces to

    tau_hat' = (P / R) (y - tau_hat)
    P'       = -P^2 / R

with measurement noise variance R.  P has the exact solution
P(t) = P0 R / (t P0 + R), used by default instead of integrating its ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError
from .signals import SignalTrace


@dataclass(frozen=True)
class KalmanBelief:
    tau_hat: float
    P: float
    R: float
    t: float = 0.0

    def __post_init__(self):
        for name in ("tau_hat", "P", "R", "t"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteStateError(f"non-finite Kalman field {name}")
        if self.P <= 0.0:
            raise ValueError(f"error variance P must be positive, got {self.P}")
        if self.R <= 0.0:
            raise ValueError(f"noise variance R must be positive, got {self.R}")
        if self.t < 0.0:
            raise ValueError(f"belief clock must be non-negative, got {self.t}")


def kalman_derivative(b: KalmanBelief, y: float) -> tuple[float, float]:
    """Rates of change of (tau_hat, P) given observation y."""
    if not math.isfinite(y):
        raise ValueError(f"observation must be finite, got {y}")
    gain = b.P / b.R
    return gain * (y - b.tau_hat), -b.P * b.P / b.R


def step_discrete_kalman(b: KalmanBelief, y: float, dt: float) -> KalmanBelief:
    """One explicit-Euler update scaled by dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    d_tau, d_p = kalman_derivative(b, y)
    return KalmanBelief(
        tau_hat=b.tau_hat + dt * d_tau,
        P=b.P + dt * d_p,
        R=b.R,
        t=b.t + dt,
    )


def variance_closed_form(p0: float, r: float, elapsed: float) -> float:
    """Exact error variance after ``elapsed`` time: p0*r / (elapsed*p0 + r)."""
    return p0 * r / (elapsed * p0 + r)


def mean_closed_form(trace: SignalTrace, p0: float, r: float, t):
    """Closed form p0 * integral(y) / (t p0 + r) at time(s) t; needs tau_hat(0) = 0."""
    return p0 * trace.integral(0.0, t) / (t * p0 + r)


def _rk4_pair(tau, p, r, y, h, p_exact):
    # p_exact holds the exact variance at the start, middle and end of the
    # step when the closed form is in use: P is then read off, not integrated.
    # Otherwise (None) P rides along in the integrator.
    def rates(stage, state_tau, state_p):
        if p_exact is not None:
            return (p_exact[stage] / r) * (y - state_tau), 0.0
        return (state_p / r) * (y - state_tau), -state_p * state_p / r

    k1t, k1p = rates(0, tau, p)
    k2t, k2p = rates(1, tau + 0.5 * h * k1t, p + 0.5 * h * k1p)
    k3t, k3p = rates(1, tau + 0.5 * h * k2t, p + 0.5 * h * k2p)
    k4t, k4p = rates(2, tau + h * k3t, p + h * k3p)
    tau_next = tau + h * (k1t + 2.0 * (k2t + k3t) + k4t) / 6.0
    if p_exact is not None:
        return tau_next, p_exact[2]
    return tau_next, p + h * (k1p + 2.0 * (k2p + k3p) + k4p) / 6.0


@dataclass(frozen=True)
class KalmanPath:
    t: np.ndarray
    tau_hat: np.ndarray
    P: np.ndarray


def kalman_path(
    b: KalmanBelief,
    trace: SignalTrace,
    duration: float,
    h: float,
    p_mode: str = "exact",
) -> KalmanPath:
    """Integrate the filter over ``duration`` by RK4, recording every grid point.

    ``p_mode="exact"`` (default) takes P from its closed form, anchored at
    ``b``, and integrates only tau_hat; ``p_mode="ode"`` integrates both,
    which exists for cross-checking the closed form.  ``h`` must divide both
    the duration and the trace's hold interval.  A non-finite state raises
    :class:`NonFiniteStateError` naming its first grid time.
    """
    if p_mode not in ("exact", "ode"):
        raise ValueError(f"unknown p_mode {p_mode!r}")
    t, ys = trace.held_steps(b.t, duration, h, "kalman_path")
    tau_arr = np.empty(t.size)
    p_arr = np.empty(t.size)
    tau, p = b.tau_hat, b.P
    tau_arr[0], p_arr[0] = tau, p
    for i, y in enumerate(map(float, ys)):  # Python floats step faster
        t_rel = i * h
        p_exact = None
        if p_mode == "exact":
            stages = (t_rel, t_rel + 0.5 * h, t_rel + h)
            p_exact = [variance_closed_form(b.P, b.R, s) for s in stages]
        tau, p = _rk4_pair(tau, p, b.R, y, h, p_exact)
        tau_arr[i + 1], p_arr[i + 1] = tau, p
    bad = np.flatnonzero(~(np.isfinite(tau_arr) & np.isfinite(p_arr)))
    if bad.size:
        raise NonFiniteStateError(f"non-finite Kalman state at t={float(t[bad[0]])!r}")
    return KalmanPath(t=t, tau_hat=tau_arr, P=p_arr)


def integrate_kalman(
    b: KalmanBelief,
    trace: SignalTrace,
    duration: float,
    h: float,
    p_mode: str = "exact",
) -> KalmanBelief:
    """Advance ``b`` by ``duration``: the last grid point of :func:`kalman_path`."""
    path = kalman_path(b, trace, duration, h, p_mode=p_mode)
    return KalmanBelief(
        tau_hat=float(path.tau_hat[-1]), P=float(path.P[-1]), R=b.R, t=b.t + duration
    )
