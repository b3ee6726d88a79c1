"""The reference integrators against RK4 run in 50-digit arithmetic.

``belief_path`` and ``kalman_path`` sum each step's affine stage slopes in
numpy and walk the steps in Python; ``belief_path`` derives beta's stages
from the recorded mu_hat; ``variance_path`` steps P in the scaled unknown
h*P/R.  Each takes one step size or an array of them, such as the graded
dyadic grid ``verify`` steps on.  Here they are held, entry by entry, within
2e-14 relative of the same RK4 steps run in ``decimal`` on the exact values
of the float inputs: the
(mu_hat, beta) subsystem with kappa advancing through the stages, tau_hat
with P read off its exact solution at the stage times, and P's own ODE.
Each entry's scale is the larger of it and the entry before it.  The generic
float stage loops below meet the same bound, so it measures float roundoff
and not a fit to the code under test.
"""

import re
import warnings
from decimal import Decimal, localcontext
from itertools import accumulate

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
from beliefgames.oracles import _graded_steps

# The bound tests/test_discrete_reference.py gates the discrete scheme with.
REL = 2e-14


def step_rel_gap(observed, expected):
    """Largest gap relative to the larger of each entry and the one before it.

    A step that ends near zero by cancellation is rounded at the scale it
    started from: at h*P0/R = 0.9 tau_hat drops from 0.27 to 1.2e-3 in one
    step, and the float stage loop then reads 5.5e-14 relative to the entry
    alone.
    """
    expected = np.asarray(expected, dtype=float)
    scale = np.abs(expected)
    scale[1:] = np.maximum(scale[1:], scale[:-1])
    return float(np.max(np.abs(observed - expected) / np.maximum(scale, 1e-300)))


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


def steps_from(h, steps):
    """(start offset from the grid start, size) of each step, for one step
    size ``h`` or a list of one per step."""
    if np.ndim(h) == 0:
        return [(i * h, h) for i in range(steps)]
    sizes = np.asarray(h).tolist()
    return list(zip(accumulate(sizes[:-1], initial=0.0), sizes))


def reference_belief(b, xs, h):
    mu, beta = [b.mu_hat], [b.beta]
    for (s, step), x in zip(steps_from(h, len(xs)), map(float, xs)):
        m, bt = _rk4_mu_beta(mu[-1], beta[-1], b.kappa + s, x, step)
        mu.append(m)
        beta.append(bt)
    return np.array(mu), np.array(beta)


def reference_kalman(b, ys, h, exact):
    tau, p = [b.tau_hat], [b.P]
    for (t_rel, h), y in zip(steps_from(h, len(ys)), map(float, ys)):
        stages = (t_rel, t_rel + 0.5 * h, t_rel + h)
        p_exact = [variance_closed_form(b.P, b.R, s) for s in stages] if exact else None
        tn, pn = _rk4_pair(tau[-1], p[-1], b.R, y, h, p_exact)
        tau.append(tn)
        p.append(pn)
    return np.array(tau), np.array(p)


def grid_50_digits(h, steps):
    """The grid's offsets from its start and its step sizes, in ``Decimal``."""
    sizes = [Decimal(v) for v in (np.broadcast_to(h, steps).tolist())]
    with localcontext() as ctx:
        ctx.prec = 50
        return list(accumulate(sizes, initial=Decimal(0))), sizes


def rk4_50_digits(y0, rates, h, steps):
    """Every point of ``steps`` RK4 steps of y' = rates(i, s, y) in 50-digit
    arithmetic, one row per component; ``h`` is the step size or a list of one
    per step, and s is the stage's time from the grid start."""
    grid, sizes = grid_50_digits(h, steps)
    with localcontext() as ctx:
        ctx.prec = 50
        y = [Decimal(v) for v in y0]
        out = [y]
        for i, (t, h) in enumerate(zip(grid, sizes)):
            half = h / 2
            k1 = rates(i, t, y)
            k2 = rates(i, t + half, [v + half * k for v, k in zip(y, k1)])
            k3 = rates(i, t + half, [v + half * k for v, k in zip(y, k2)])
            k4 = rates(i, t + h, [v + h * k for v, k in zip(y, k3)])
            y = [
                v + h * (a + 2 * (b + c) + d) / 6
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)
            ]
            out.append(y)
    return np.array(out, dtype=float).T


def decimal_belief(b, xs, h):
    """mu_hat and beta, kappa advancing through the stages."""
    x = [Decimal(v) for v in xs.tolist()]
    kappa0 = Decimal(b.kappa)

    def rates(i, s, state):
        kappa, innov = kappa0 + s, x[i] - state[0]
        den = kappa + 1
        return innov / den, kappa * innov * innov / (2 * den)

    return rk4_50_digits((b.mu_hat, b.beta), rates, h, len(x))


def decimal_kalman(b, ys, h):
    """tau_hat with P read off its exact solution, and that P on the grid."""
    y = [Decimal(v) for v in ys.tolist()]
    p0, r = Decimal(b.P), Decimal(b.R)

    def exact(t):
        return p0 * r / (t * p0 + r)

    def rates(i, s, state):
        return (exact(s) / r * (y[i] - state[0]),)

    (tau,) = rk4_50_digits((b.tau_hat,), rates, h, len(y))
    with localcontext() as ctx:
        ctx.prec = 50
        p = np.array([exact(t) for t in grid_50_digits(h, len(y))[0]], dtype=float)
    return tau, p


def decimal_variance(b, steps, h):
    """P stepped by its own ODE, P' = -P^2/R."""
    r = Decimal(b.R)
    (p,) = rk4_50_digits((b.P,), lambda i, s, state: (-state[0] ** 2 / r,), h, steps)
    return p


CASES = [
    (t0, div, p0, r)
    for t0 in (0.0, 1.3)
    for div in (1, 2, 5, 50)
    for p0, r in ((1.0, 1.0), (0.3, 2.0), (9.0, 0.25))
]


@pytest.mark.parametrize("t0,div,p0,r", CASES)
def test_paths_match_the_stage_loops_bit_for_bit(t0, div, p0, r):
    """Paths and float stage loops alike within REL of 50-digit RK4 (the name
    dates from when the paths copied the stage loops' arithmetic)."""
    dt = 0.05
    h = dt / div
    rng = np.random.default_rng(div)
    trace = SignalTrace(t0=t0, dt=dt, values=0.5 + rng.standard_normal(40))
    duration = 30 * dt
    t, xs = trace.held_steps(t0, duration, h, "reference")

    b = NormalGammaBelief(0.3, 1.5, 2.0, 0.7, t=t0)
    path = belief_path(b, trace, duration, h)
    mu, beta = decimal_belief(b, xs, h)
    assert np.array_equal(path.t, t)
    assert step_rel_gap(path.mu_hat, mu) <= REL
    assert step_rel_gap(path.beta, beta) <= REL
    mu_loop, beta_loop = reference_belief(b, xs, h)
    assert max(step_rel_gap(mu_loop, mu), step_rel_gap(beta_loop, beta)) <= REL

    kb = KalmanBelief(0.4, p0, r, t=t0)
    kpath = kalman_path(kb, trace, duration, h)
    tau, p_exact = decimal_kalman(kb, xs, h)
    assert np.array_equal(kpath.t, t)
    assert step_rel_gap(kpath.tau_hat, tau) <= REL
    assert step_rel_gap(kpath.P, p_exact) <= REL
    tau_loop, p_loop = reference_kalman(kb, xs, h, exact=True)
    assert max(step_rel_gap(tau_loop, tau), step_rel_gap(p_loop, p_exact)) <= REL

    # At h*P0/R = 1.8 the stage loop on P leaves the finite range.
    _, p_ode_loop = reference_kalman(kb, xs, h, exact=False)
    bad = np.flatnonzero(~np.isfinite(p_ode_loop))
    if bad.size:
        first = re.escape(f"at t={float(t[bad[0]])!r}")
        with pytest.raises(NonFiniteStateError, match=first):
            variance_path(kb, duration, h)
    else:
        p_ode = decimal_variance(kb, xs.size, h)
        assert step_rel_gap(variance_path(kb, duration, h), p_ode) <= REL
        assert step_rel_gap(p_ode_loop, p_ode) <= REL


def test_paths_match_the_stage_loops_at_the_verify_shape():
    # verify's grid: dt = h_ode = 0.02 held over the graded steps from the
    # priors' c = min(kappa0 + 1, R/P0), here 370 of them.
    dt, duration = 0.02, 2.0
    b = NormalGammaBelief(0.35, 1.2, 2.5, 0.9)
    kb = KalmanBelief(0.8, 1.7, 0.3)
    h, _ = _graded_steps(dt, duration, min(b.kappa + 1.0, kb.R / kb.P))
    rng = np.random.default_rng(20)
    trace = SignalTrace(t0=0.0, dt=dt, values=0.5 + 0.2 * rng.standard_normal(100))
    _, xs = trace.held_steps(0.0, duration, h, "reference")
    assert xs.size >= 300 and np.unique(h).size >= 4

    path = belief_path(b, trace, duration, h)
    mu, beta = decimal_belief(b, xs, h)
    assert step_rel_gap(path.mu_hat, mu) <= REL
    assert step_rel_gap(path.beta, beta) <= REL
    mu_loop, beta_loop = reference_belief(b, xs, h)
    assert max(step_rel_gap(mu_loop, mu), step_rel_gap(beta_loop, beta)) <= REL

    tau, p_exact = decimal_kalman(kb, xs, h)
    p_ode = decimal_variance(kb, xs.size, h)
    kpath = kalman_path(kb, trace, duration, h)
    assert step_rel_gap(kpath.tau_hat, tau) <= REL
    assert step_rel_gap(kpath.P, p_exact) <= REL
    assert step_rel_gap(variance_path(kb, duration, h), p_ode) <= REL
    tau_loop, _ = reference_kalman(kb, xs, h, exact=True)
    _, p_ode_loop = reference_kalman(kb, xs, h, exact=False)
    assert max(step_rel_gap(tau_loop, tau), step_rel_gap(p_ode_loop, p_ode)) <= REL


@pytest.mark.parametrize("t0,p0,r", [(0.0, 4.0, 0.25), (1.3, 9.0, 0.25)])
def test_paths_match_50_digit_rk4_on_a_graded_dyadic_grid(t0, p0, r):
    """Steps dt/2^j that double three times or more over the span: every walk
    within REL of 50-digit RK4 on the same steps."""
    dt, duration = 0.05, 1.5
    b = NormalGammaBelief(0.3, 1.5, 2.0, 0.7, t=t0)
    kb = KalmanBelief(0.4, p0, r, t=t0)
    h, _ = _graded_steps(dt, duration, min(b.kappa + 1.0, r / p0))
    assert np.unique(h).size >= 4
    rng = np.random.default_rng(3)
    trace = SignalTrace(t0=t0, dt=dt, values=0.5 + rng.standard_normal(40))
    t, xs = trace.held_steps(t0, duration, h, "reference")

    path = belief_path(b, trace, duration, h)
    mu, beta = decimal_belief(b, xs, h)
    assert np.array_equal(path.t, t)
    assert step_rel_gap(path.mu_hat, mu) <= REL
    assert step_rel_gap(path.beta, beta) <= REL

    kpath = kalman_path(kb, trace, duration, h)
    tau, p_exact = decimal_kalman(kb, xs, h)
    assert np.array_equal(kpath.t, t)
    assert step_rel_gap(kpath.tau_hat, tau) <= REL
    assert step_rel_gap(kpath.P, p_exact) <= REL
    p_ode = decimal_variance(kb, xs.size, h)
    assert step_rel_gap(variance_path(kb, duration, h), p_ode) <= REL


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
        assert step_rel_gap(path.mu_hat, decimal_belief(b, trace.values, h)[0]) <= REL
        assert np.array_equal(path.beta, beta)
