"""The discrete scheme against its Euler recursion in 50-digit arithmetic.

The recursion is the one ``step_discrete`` and ``step_discrete_kalman`` apply
per signal epoch, run here in ``decimal`` on the exact values of the float
inputs, so its own roundoff is far below the engine's.  Each of the engine's
columns at the epoch boundaries must stay within 2e-14 relative of it, entry
by entry, over 10,000 epochs.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from beliefgames import GameParams, Scenario, SimConfig, default_traces, simulate
from beliefgames.config import default_config
from conftest import max_rel_gap


def euler_reference(scn, dt, xs, ys):
    """x_bar and var_mu per epoch boundary, and tau_hat and P per player."""
    with localcontext() as ctx:
        ctx.prec = 50
        dt = Decimal(dt)
        mu, kappa, alpha, beta = map(
            Decimal, (scn.mu0, scn.kappa0, scn.alpha0, scn.beta0)
        )
        x_bar, var_mu = [mu], [beta / (kappa * (alpha - 1))]
        for x in xs.tolist():
            innov = Decimal(x) - mu
            den = kappa + 1
            mu += dt * innov / den
            beta += dt * kappa * innov * innov / (2 * den)
            kappa += dt
            alpha += dt / 2
            x_bar.append(mu)
            var_mu.append(beta / (kappa * (alpha - 1)))
        tau_hat, P = [], []
        for prior, y_j in zip(zip(scn.tau0, scn.p0, scn.r), ys):
            tau, p, r = map(Decimal, prior)
            taus, ps = [tau], [p]
            for y in y_j.tolist():
                tau += dt * p / r * (Decimal(y) - tau)
                p -= dt * p * p / r
                taus.append(tau)
                ps.append(p)
            tau_hat.append(taus)
            P.append(ps)
    columns = (x_bar, var_mu, tau_hat, P)
    return [np.array(c, dtype=float) for c in columns]


def ten_player_scenario():
    rng = np.random.default_rng(10)
    p = GameParams(
        a=tuple(rng.uniform(2.0, 4.0, 10).tolist()),
        tau=tuple(rng.uniform(0.5, 1.5, 10).tolist()),
        delta=0.8,
        rho=0.1,
        s0=0.1,
    )
    return Scenario(
        params=p, mu_true=0.5, sigma=0.2, mu0=0.3, kappa0=0.7, alpha0=1.5,
        beta0=0.4, tau0=tuple(rng.uniform(0.4, 1.2, 10).tolist()),
        p0=tuple(rng.uniform(0.5, 3.0, 10).tolist()),
        r=tuple(rng.uniform(0.15, 1.0, 10).tolist()),
    )


@pytest.mark.parametrize(
    "scn, dt, h, epochs, seed",
    [
        (default_config().scenario, 0.02, 0.02, 10_000, 20240811),
        (ten_player_scenario(), 0.05, 0.01, 2_000, 7),
    ],
    ids=["two-players", "ten-players"],
)
def test_discrete_columns_match_a_50_digit_euler_recursion(scn, dt, h, epochs, seed):
    cfg = SimConfig(scheme="discrete", dt_signal=dt, h_ode=h, horizon=dt * epochs)
    traces = default_traces(scn, cfg, seed)
    traj = simulate(scn, cfg, traces=traces)
    rows = slice(None, None, round(dt / h))  # the epoch boundaries
    xs = traces.ecological.values[:epochs]
    ys = [c.values[:epochs] for c in traces.cost]
    x_bar, var_mu, tau_hat, P = euler_reference(scn, dt, xs, ys)
    assert max_rel_gap(traj.x_bar[rows], x_bar) <= 2e-14
    assert max_rel_gap(traj.var_mu[rows], var_mu) <= 2e-14
    assert max_rel_gap(traj.tau_bar[rows], tau_hat.T) <= 2e-14
    assert max_rel_gap(traj.P[rows], P.T) <= 2e-14
