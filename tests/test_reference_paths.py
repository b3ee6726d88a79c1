"""The reference integrators step exactly like the generic RK4 stage loops.

``belief_path`` loops over mu_hat alone and derives beta's stages from the
recorded mu_hat in numpy; ``kalman_path`` loops over tau_hat alone with the
stage gains precomputed; ``variance_path`` loops over P.  Here they are held
bit-for-bit to generic stage functions: one RK4 step of the (mu_hat, beta)
subsystem with kappa advancing through the stages, and one step of
(tau_hat, P) with P either read off the closed form at the stage times or
integrated alongside tau_hat.
"""

import re
import warnings

import numpy as np
import pytest

from beliefgames import (
    KalmanBelief,
    NonFiniteStateError,
    NormalGammaBelief,
    SignalTrace,
    belief_path,
    kalman_path,
    variance_closed_form,
    variance_path,
)


def _rk4_mu_beta(mu, beta, kappa0, x, h):
    # kappa0 is kappa at the step start and advances linearly through the stages.
    def rates(s, m):
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


def _rk4_pair(tau, p, r, y, h, p_exact):
    # p_exact holds the exact variance at the step's start, middle and end, or
    # is None, in which case P rides along in the integrator.
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


def reference_belief(b, xs, h):
    mu, beta = [b.mu_hat], [b.beta]
    for i, x in enumerate(map(float, xs)):
        m, bt = _rk4_mu_beta(mu[-1], beta[-1], b.kappa + i * h, x, h)
        mu.append(m)
        beta.append(bt)
    return np.array(mu), np.array(beta)


def reference_kalman(b, ys, h, exact):
    tau, p = [b.tau_hat], [b.P]
    for i, y in enumerate(map(float, ys)):
        t_rel = i * h
        stages = (t_rel, t_rel + 0.5 * h, t_rel + h)
        p_exact = [variance_closed_form(b.P, b.R, s) for s in stages] if exact else None
        tn, pn = _rk4_pair(tau[-1], p[-1], b.R, y, h, p_exact)
        tau.append(tn)
        p.append(pn)
    return np.array(tau), np.array(p)


CASES = [
    (t0, div, p0, r)
    for t0 in (0.0, 1.3)
    for div in (1, 2, 5, 50)
    for p0, r in ((1.0, 1.0), (0.3, 2.0), (9.0, 0.25))
]


@pytest.mark.parametrize("t0,div,p0,r", CASES)
def test_paths_match_the_stage_loops_bit_for_bit(t0, div, p0, r):
    dt = 0.05
    h = dt / div
    rng = np.random.default_rng(div)
    trace = SignalTrace(t0=t0, dt=dt, values=0.5 + rng.standard_normal(40))
    duration = 30 * dt
    t, xs = trace.held_steps(t0, duration, h, "reference")

    b = NormalGammaBelief(0.3, 1.5, 2.0, 0.7, t=t0)
    path = belief_path(b, trace, duration, h)
    mu, beta = reference_belief(b, xs, h)
    assert np.array_equal(path.t, t)
    assert np.array_equal(path.mu_hat, mu)
    assert np.array_equal(path.beta, beta)

    kb = KalmanBelief(0.4, p0, r, t=t0)
    kpath = kalman_path(kb, trace, duration, h)
    tau, p = reference_kalman(kb, xs, h, exact=True)
    assert np.array_equal(kpath.t, t)
    assert np.array_equal(kpath.tau_hat, tau)
    assert np.array_equal(kpath.P, p)

    # At h*P0/R = 1.8 the stage loop on P leaves the finite range.
    _, p_ode = reference_kalman(kb, xs, h, exact=False)
    bad = np.flatnonzero(~np.isfinite(p_ode))
    if bad.size:
        first = re.escape(f"at t={float(t[bad[0]])!r}")
        with pytest.raises(NonFiniteStateError, match=first):
            variance_path(kb, duration, h)
    else:
        assert np.array_equal(variance_path(kb, duration, h), p_ode)


def test_paths_match_the_stage_loops_at_the_verify_shape():
    # verify's grid: dt 0.02 held over h = 1e-3 steps, here 2000 of them.
    dt, h, duration = 0.02, 1e-3, 2.0
    rng = np.random.default_rng(20)
    trace = SignalTrace(t0=0.0, dt=dt, values=0.5 + 0.2 * rng.standard_normal(100))
    _, xs = trace.held_steps(0.0, duration, h, "reference")
    assert xs.size >= 2000

    b = NormalGammaBelief(0.35, 1.2, 2.5, 0.9)
    path = belief_path(b, trace, duration, h)
    mu, beta = reference_belief(b, xs, h)
    assert np.array_equal(path.mu_hat, mu)
    assert np.array_equal(path.beta, beta)

    kb = KalmanBelief(0.8, 1.7, 0.3)
    tau, p = reference_kalman(kb, xs, h, exact=True)
    kpath = kalman_path(kb, trace, duration, h)
    assert np.array_equal(kpath.tau_hat, tau)
    assert np.array_equal(kpath.P, p)


def test_belief_path_overflow_mid_run_names_the_stage_loops_time_silently():
    # The signal jumps to 1e200 at the 13th hold interval; beta's stage rates
    # then square past the float range.
    dt, h = 0.05, 0.01
    values = np.full(20, 0.5)
    values[12:] = 1e200
    trace = SignalTrace(t0=0.0, dt=dt, values=values)
    duration = 20 * dt
    t, xs = trace.held_steps(0.0, duration, h, "reference")
    b = NormalGammaBelief(0.3, 1.5, 2.0, 0.7)
    mu, beta = reference_belief(b, xs, h)
    bad = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(beta)))
    assert bad.size and t[bad[0]] > 0.5
    first = re.escape(f"at t={float(t[bad[0]])!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match=first):
            belief_path(b, trace, duration, h)


def test_belief_path_steps_beta_like_the_stage_loop_one_step_at_a_time():
    # From beta0 = 0 one step's beta is its increment alone, so a change in the
    # order of the stage arithmetic shows even where a long sum would round it away.
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = float(rng.choice([1e-3, 0.01, 0.05]))
        trace = SignalTrace(t0=0.0, dt=h, values=rng.normal(0.0, 3.0, 1))
        b = NormalGammaBelief(rng.normal(), rng.uniform(0.1, 5.0), 2.0, 0.0)
        mu, beta = reference_belief(b, trace.values, h)
        path = belief_path(b, trace, h, h)
        assert np.array_equal(path.mu_hat, mu)
        assert np.array_equal(path.beta, beta)
