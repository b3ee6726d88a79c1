import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgames import (
    BeliefProfile,
    GameParams,
    KalmanBelief,
    NonFiniteStateError,
    NormalGammaBelief,
    Scenario,
    SignalTrace,
    SimConfig,
    SingularSystemError,
    TraceCoverageError,
    TraceSet,
    Trajectory,
    UndefinedVarianceError,
    belief_path,
    c_bar,
    closed_form_cross_check,
    compare_schemes,
    default_traces,
    kalman_path,
    known_state_equilibrium,
    sample_cost_trace,
    sample_ecological_trace,
    simulate,
    solve_equilibrium,
    step_discrete,
    step_discrete_kalman,
    variance_closed_form,
    window_diagnostics,
)
from beliefgames.config import default_config
from beliefgames.equilibrium import control_kernel
from conftest import max_rel_gap

TRAJ_FIELDS = ("t", "S", "x_real", "x_bar", "var_mu", "tau_bar", "P", "u")


def constant_traces(n_players, dt, count, eco=0.0, cost=0.7):
    eco_tr = SignalTrace(t0=0.0, dt=dt, values=np.full(count, eco), label="eco")
    cost_tr = tuple(
        SignalTrace(t0=0.0, dt=dt, values=np.full(count, cost), label=f"c{j}")
        for j in range(n_players)
    )
    return TraceSet(ecological=eco_tr, cost=cost_tr)


def held_traces(eco_values):
    eco = SignalTrace(t0=0.0, dt=0.02, values=eco_values, label="eco")
    return TraceSet(eco, constant_traces(2, 0.02, len(eco)).cost)


def test_grid_shape_and_epoch_count(two_player_scenario, base_config):
    traj = simulate(two_player_scenario, base_config, seed=7)
    # 500 epochs at one step per epoch plus the initial point.
    assert traj.t.size == 501
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(10.0, abs=1e-12)
    assert traj.tau_bar.shape == (501, 2)
    assert np.all(np.diff(traj.t) > 0)


def test_requires_exactly_one_signal_source(two_player_scenario, base_config):
    with pytest.raises(ValueError):
        simulate(two_player_scenario, base_config)
    traces = default_traces(two_player_scenario, base_config, 7)
    with pytest.raises(ValueError):
        simulate(two_player_scenario, base_config, traces=traces, seed=7)


def test_seeds_are_plain_integers(two_player_scenario, base_config):
    # A float would be truncated: 1.7 would run seed 1.
    with pytest.raises(TypeError):
        simulate(two_player_scenario, base_config, seed=1.7)
    with pytest.raises(TypeError):
        default_traces(two_player_scenario, base_config, 1.7)
    with pytest.raises(TypeError):
        compare_schemes(two_player_scenario, base_config, [0.04, 0.02], 1.7)
    with pytest.raises(TypeError):
        closed_form_cross_check(two_player_scenario, base_config, 1.7)
    for sample in (sample_ecological_trace, sample_cost_trace):
        with pytest.raises(TypeError):
            sample(0.5, 0.2, 0.02, 1.0, 1.7)
    # Integers of any kind still seed, and seed alike.
    runs = [simulate(two_player_scenario, base_config, seed=s) for s in (5, np.int64(5))]
    assert np.array_equal(runs[0].S, runs[1].S)


def test_bitwise_determinism(two_player_scenario, base_config):
    a = simulate(two_player_scenario, base_config, seed=7)
    b = simulate(two_player_scenario, base_config, seed=7)
    for field in TRAJ_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_initial_state_matches_priors(two_player_scenario, base_config):
    traj = simulate(two_player_scenario, base_config, seed=7)
    assert traj.S[0] == two_player_scenario.params.s0
    assert traj.x_bar[0] == two_player_scenario.mu0
    assert np.array_equal(traj.tau_bar[0], np.array(two_player_scenario.tau0))
    assert np.array_equal(traj.P[0], np.array(two_player_scenario.p0))


def test_kalman_variance_column_is_exact(two_player_scenario, base_config):
    traj = simulate(two_player_scenario, base_config, seed=7)
    expect = np.array(
        [
            [variance_closed_form(1.0, 0.25, float(t)) for _ in range(2)]
            for t in traj.t
        ]
    )
    assert np.max(np.abs(traj.P - expect)) <= 1e-15


def test_absorbing_zero_state():
    p = GameParams(a=(0.0, 0.0), tau=(1.0, 1.0), delta=0.8, rho=0.1, s0=0.0)
    scn = Scenario(params=p, mu_true=0.0, sigma=1e-18, mu0=0.0, tau0=(0.5, 0.5))
    traces = constant_traces(2, 0.02, 500, eco=0.0, cost=0.7)
    traj = simulate(scn, SimConfig(), traces=traces)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.S == 0.0)


def test_expected_equals_realized_when_beliefs_start_true(two_player_params):
    scn = Scenario(
        params=two_player_params, mu_true=0.5, sigma=1e-18, mu0=0.5, tau0=(0.6, 0.6)
    )
    a = simulate(scn, SimConfig(dynamics_mode="realized"), seed=5)
    b = simulate(scn, SimConfig(dynamics_mode="expected"), seed=5)
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.u, b.u)


def test_stock_refinement_is_fourth_order(two_player_scenario):
    def run(h):
        cfg = SimConfig(dt_signal=0.02, h_ode=h, horizon=10.0)
        traces = default_traces(two_player_scenario, cfg, 7)
        return simulate(two_player_scenario, cfg, traces=traces)

    t1, t2, t3 = run(0.01), run(0.005), run(0.0025)
    d1 = np.max(np.abs(t1.S - t2.S[::2]))
    d2 = np.max(np.abs(t2.S - t3.S[::2]))
    assert d1 / d2 >= 8.0


discrete_player_prior = st.tuples(
    st.floats(-1.0, 2.0), st.floats(0.01, 0.95), st.floats(0.1, 2.0)
)  # tau0, dt*p0/r, r


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    players=st.lists(discrete_player_prior, min_size=1, max_size=10),
    dt=st.sampled_from([0.02, 0.05, 0.1]),
    ratio=st.sampled_from([1, 2, 5, 10]),
    epochs=st.integers(1, 16),
    mu0=st.floats(-1.0, 1.0),
    kappa0=st.floats(0.2, 5.0),
    alpha0=st.floats(1.0, 4.0, exclude_min=True),
    beta0=st.floats(0.0, 2.0),
    mode=st.sampled_from(["realized", "expected"]),
    seed=st.integers(0, 2**16),
)
def test_discrete_scheme_matches_stepwise_updates(
    players, dt, ratio, epochs, mu0, kappa0, alpha0, beta0, mode, seed
):
    """The discrete run's belief columns stay within 1e-12 of the standalone
    discrete update operators applied per signal epoch, relative to each
    column's sup norm, and hold their values between epochs."""
    n = len(players)
    tau0, gain, r = (tuple(v) for v in zip(*players))
    p0 = tuple(g * r_j / dt for g, r_j in zip(gain, r))
    p = GameParams(a=(3.0,) * n, tau=(1.0,) * n, delta=0.8, rho=0.1, s0=0.1)
    scn = Scenario(
        params=p, mu_true=0.5, sigma=0.3, mu0=mu0, kappa0=kappa0, alpha0=alpha0,
        beta0=beta0, tau0=tau0, p0=p0, r=r,
    )
    cfg = SimConfig(
        scheme="discrete", dt_signal=dt, h_ode=dt / ratio, horizon=dt * epochs,
        dynamics_mode=mode,
    )
    traces = default_traces(scn, cfg, seed)
    traj = simulate(scn, cfg, traces=traces)

    motion = [NormalGammaBelief(mu0, kappa0, alpha0, beta0)]
    payoff = [[KalmanBelief(*prior)] for prior in zip(tau0, p0, r)]
    for k in range(epochs):
        motion.append(step_discrete(motion[-1], float(traces.ecological.values[k]), dt))
        for chain, tr in zip(payoff, traces.cost):
            chain.append(step_discrete_kalman(chain[-1], float(tr.values[k]), dt))

    def assert_close(observed, expected):
        expected = np.array(expected)
        gap = np.max(np.abs(observed - expected), axis=0)
        assert np.all(gap <= 1e-12 * np.max(np.abs(expected), axis=0))

    rows = slice(None, None, ratio)  # the epoch boundaries
    assert_close(traj.x_bar[rows], [b.mu_hat for b in motion])
    # In var_mu = beta / (kappa (alpha - 1)) the factor alpha - 1 cancels near
    # alpha0 = 1, and would magnify the few ulps by which the chain's
    # accumulated alpha strays from its affine form.  So kappa and alpha are
    # held to their affine forms first, and var_mu then checks the chain's beta.
    k = np.arange(epochs + 1)
    kappa, alpha = kappa0 + dt * k, alpha0 + 0.5 * dt * k
    assert_close([b.kappa for b in motion], kappa)
    assert_close([b.alpha for b in motion], alpha)
    beta = np.array([b.beta for b in motion])
    assert np.isfinite(traj.var_mu).all()
    assert_close(traj.var_mu[rows], beta / (kappa * (alpha - 1.0)))
    assert_close(traj.tau_bar[rows], np.array([[b.tau_hat for b in c] for c in payoff]).T)
    assert_close(traj.P[rows], np.array([[b.P for b in c] for c in payoff]).T)
    # Between epochs the beliefs hold their values.
    for column in (traj.x_bar, traj.var_mu, traj.tau_bar, traj.P):
        held = column[: epochs * ratio].reshape(epochs, ratio, -1)
        assert np.array_equal(held, held[:, :1].repeat(ratio, 1))


MAX_FLOAT = 1.7976931348623157e308


def swinging(first=0):
    """Signals alternating between the largest floats of both signs."""
    values = np.where(np.arange(500) % 2 == 0, MAX_FLOAT, -MAX_FLOAT)
    values[:first] = 0.5
    return values


@pytest.mark.parametrize(
    "eco, cost, p0, r, error, what, t",
    [
        # Gain dt*P0/r = 0.99 lets tau_hat follow the swinging cost signal,
        # so its next innovation overflows.
        (None, swinging(), 12.375, 0.25, NonFiniteStateError, "state", "0.02"),
        (swinging(10), None, 1.0, 0.25, NonFiniteStateError, "state", "0.22"),
        (None, None, 37.5, 0.25, UndefinedVarianceError, "P_1=-75.0", "0.02"),
        (None, None, 12.5, 0.25, UndefinedVarianceError, "P_1=0.0", "0.02"),
        (None, None, 1e6, 1e-300, UndefinedVarianceError, "P_1=-inf", "0.02"),
    ],
    ids=["tau-overflow", "mean-overflow", "P-negative", "P-zero", "P-overflow"],
)
def test_discrete_scan_hazards_raise_typed_errors_at_their_time(
    two_player_params, eco, cost, p0, r, error, what, t
):
    """The discrete closed forms and the P recursion let overflow and a
    non-positive P run on to the guard pass, which names the earliest bad
    time; no ZeroDivisionError or OverflowError escapes it."""
    eco_tr = SignalTrace(dt=0.02, values=np.full(500, 0.5) if eco is None else eco)
    cost_tr = SignalTrace(dt=0.02, values=np.full(500, 0.7) if cost is None else cost)
    traces = TraceSet(eco_tr, (cost_tr, constant_traces(1, 0.02, 500).cost[0]))
    scn = Scenario(
        params=two_player_params, mu_true=0.5, sigma=0.2, mu0=0.5,
        p0=(p0, 1.0), r=(r, 0.25),
    )
    with pytest.raises(error, match=rf"{re.escape(what)} .* at t={t}$"):
        simulate(scn, SimConfig(scheme="discrete"), traces=traces)


def test_discrete_players_sharing_p0_and_r_share_their_variance_bits():
    # The data-free P recursion runs once per distinct (p0, r); the players
    # that share it get the same bits as a player that runs it alone.
    def variance(p0, r):
        n = len(p0)
        params = GameParams(a=(3.0,) * n, tau=(1.0,) * n, delta=0.8, rho=0.1, s0=0.1)
        scn = Scenario(params=params, mu_true=0.5, sigma=0.2, tau0=(0.6,) * n, p0=p0, r=r)
        return simulate(scn, SimConfig(scheme="discrete"), seed=3).P

    trio = variance((1.0, 2.0, 1.0), (0.25, 0.5, 0.25))
    solo = variance((1.0,), (0.25,))
    assert trio[:, 0].tobytes() == trio[:, 2].tobytes() == solo[:, 0].tobytes()
    assert not np.array_equal(trio[:, 1], trio[:, 0])


def test_discrete_and_continuous_share_hyperparameter_clock(two_player_scenario):
    # At epoch boundaries kappa/alpha agree across schemes, so the variance
    # columns line up whenever mu/beta do; check via the t=0 row and the
    # step-discrete chain's kappa affinity.
    cfg = SimConfig(scheme="discrete", dt_signal=0.02, h_ode=0.02, horizon=1.0)
    traj = simulate(two_player_scenario, cfg, seed=3)
    assert traj.var_mu[0] == pytest.approx(
        two_player_scenario.beta0
        / (two_player_scenario.kappa0 * (two_player_scenario.alpha0 - 1.0))
    )


def test_scheme_gaps_shrink_with_dt(two_player_scenario):
    cfg = SimConfig(dt_signal=0.16, h_ode=0.02, horizon=10.0)
    rows = compare_schemes(two_player_scenario, cfg, [0.16, 0.08, 0.04, 0.02], seed=11)
    for field in ("x_bar", "tau_bar", "u", "stock"):
        gaps = [getattr(r, field) for r in rows]
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1)), field
    ratio = rows[1].x_bar / rows[0].x_bar
    assert 0.3 <= ratio <= 0.7


@pytest.mark.parametrize("seed", [3, 11, 20240811])
@pytest.mark.parametrize("mu0", [0.0, 0.3])
def test_scheme_x_bar_gap_matches_closed_forms(seed, mu0):
    # The x_bar gap is a function of the trace alone: the sup over the grid of
    # the continuous form (mu0 (kappa0+1) + int_0^t x) / (kappa0+1+t) minus
    # the discrete form at the grid point's epoch k,
    # (mu0 (kappa0+1-dt) + dt sum_{j<k} x_j) / (kappa0+1+(k-1) dt), mu0 at k=0.
    cfg = default_config()
    scn, sim = replace(cfg.scenario, mu0=mu0), cfg.sim
    rows = compare_schemes(scn, sim, [0.08, 0.04, 0.02], seed)
    fine = default_traces(scn, replace(sim, dt_signal=0.02), seed).ecological.values
    h, k0 = sim.h_ode, scn.kappa0 + 1.0
    steps = np.arange(round(sim.horizon / h) + 1)
    t = h * steps
    for row in rows:
        dt = row.dt_signal
        spe = round(dt / h)
        x = fine[:: round(dt / 0.02)]
        held = x[steps[:-1] // spe]
        cont = (mu0 * k0 + np.concatenate(([0.0], h * np.cumsum(held)))) / (k0 + t)
        k = np.arange(1, steps[-1] // spe + 1)
        disc_k = (mu0 * (k0 - dt) + dt * np.cumsum(x[: k.size])) / (k0 + (k - 1) * dt)
        disc = np.concatenate(([mu0], disc_k))[steps // spe]
        predicted = np.max(np.abs(cont - disc))
        assert abs(row.x_bar - predicted) <= 1e-10 * predicted, (dt, row.x_bar, predicted)


@pytest.mark.parametrize("seed", [3, 11, 20240811])
@pytest.mark.parametrize("tau0", [0.0, 0.6])
def test_scheme_tau_bar_gap_matches_closed_forms(seed, tau0):
    # The tau_bar gap is a function of the cost traces alone: the sup over the
    # grid and the players of the continuous form
    # tau0 + p0 int_0^t (y - tau0) / (p0 t + r) minus the discrete form at the
    # grid point's epoch k, tau0 + P_k dt sum_{j<k} (y_j - tau0) / (r - dt P_j),
    # where P_{k+1} = P_k (1 - dt P_k / r).
    cfg = default_config()
    scn, sim = replace(cfg.scenario, tau0=tau0), cfg.sim
    rows = compare_schemes(scn, sim, [0.08, 0.04, 0.02], seed)
    fine = default_traces(scn, replace(sim, dt_signal=0.02), seed).cost
    h = sim.h_ode
    steps = np.arange(round(sim.horizon / h) + 1)
    t = h * steps
    for row in rows:
        dt = row.dt_signal
        spe = round(dt / h)
        epochs = steps[-1] // spe
        predicted = 0.0
        for trace, p0, r in zip(fine, scn.p0, scn.r):
            y = trace.values[:: round(dt / 0.02)] - tau0
            held = y[steps[:-1] // spe]
            integral = np.concatenate(([0.0], h * np.cumsum(held)))
            cont = tau0 + p0 * integral / (p0 * t + r)
            P = [p0]
            for _ in range(epochs):
                P.append(P[-1] * (1.0 - dt * P[-1] / r))
            P = np.array(P)
            terms = dt * y[:epochs] / (r - dt * P[:-1])
            disc_k = tau0 + P * np.concatenate(([0.0], np.cumsum(terms)))
            disc = disc_k[steps // spe]
            predicted = max(predicted, np.max(np.abs(cont - disc)))
        assert abs(row.tau_bar - predicted) <= 1e-10 * predicted, (dt, row.tau_bar, predicted)


def test_compare_schemes_rejects_non_nested_dts(two_player_scenario):
    cfg = SimConfig(dt_signal=0.16, h_ode=0.02, horizon=10.0)
    with pytest.raises(ValueError):
        compare_schemes(two_player_scenario, cfg, [0.16, 0.05], seed=11)


def test_perfect_information_diagnostics_are_zero(two_player_params):
    scn = Scenario(
        params=two_player_params,
        mu_true=0.5,
        sigma=1e-18,
        mu0=0.5,
        beta0=0.0,
        tau0=two_player_params.tau,
        p0=(1.0, 1.0),
        r=(1e-34, 1e-34),
    )
    traj = simulate(scn, SimConfig(horizon=5.0), seed=2)
    diag = window_diagnostics(traj, scn, 2.5, 5.0)
    assert diag.x_gap == 0.0
    assert diag.tau_gap == 0.0
    assert diag.var_mu == 0.0
    assert diag.control_gap <= 1e-12
    assert diag.p_max <= 1e-30


def test_window_diagnostics_solve_the_known_state_of_each_scenario(two_player_scenario):
    traj = simulate(two_player_scenario, SimConfig(horizon=5.0), seed=2)
    gaps = {}
    for mu_true in (0.5, 0.6, 0.5):
        scn = replace(two_player_scenario, mu_true=mu_true)
        known = known_state_equilibrium(scn.params, mu_true).controls
        gap = window_diagnostics(traj, scn, 2.5, 5.0).control_gap
        assert gap == float(np.max(np.abs(traj.u[traj.t >= 2.5 - 1e-12] - known)))
        gaps.setdefault(mu_true, gap)
    assert gaps[0.5] != gaps[0.6]


def test_window_diagnostics_tail_beats_midrun(two_player_scenario):
    cfg = SimConfig(dt_signal=0.05, h_ode=0.05, horizon=100.0)
    traj = simulate(two_player_scenario, cfg, seed=1)
    mid = window_diagnostics(traj, two_player_scenario, 5.0, 10.0)
    tail = window_diagnostics(traj, two_player_scenario, 95.0, 100.0)
    assert tail.x_gap < mid.x_gap
    assert tail.var_mu < mid.var_mu
    assert tail.p_max < mid.p_max


def n_player_scenario(n):
    rng = np.random.default_rng(n)
    p = GameParams(
        a=tuple(rng.uniform(2.0, 4.0, n).tolist()),
        tau=tuple(rng.uniform(0.5, 1.5, n).tolist()),
        delta=0.8,
        rho=0.1,
        s0=0.1,
    )
    return Scenario(
        params=p,
        mu_true=0.5,
        sigma=0.2,
        tau0=tuple(rng.uniform(0.4, 1.2, n).tolist()),
        p0=tuple(rng.uniform(0.5, 1.0, n).tolist()),
        r=tuple(rng.uniform(0.15, 1.0, n).tolist()),
    )


@pytest.mark.parametrize("scheme", ["continuous", "discrete"])
@pytest.mark.parametrize("n", [1, 2, 8, 10])
def test_controls_equal_the_kernel_row_by_row(n, scheme):
    # The engine hands the kernel a transposed view of its player-major
    # columns; every recorded row must still be the kernel's own answer.
    scn = n_player_scenario(n)
    p = scn.params
    cfg = SimConfig(scheme=scheme, dt_signal=0.05, h_ode=0.025, horizon=5.0)
    traj = simulate(scn, cfg, seed=n)
    assert traj.u.shape == traj.tau_bar.shape == traj.P.shape == (traj.t.size, n)
    for i in range(traj.t.size):
        row = control_kernel(p.a, p.tau, traj.tau_bar[i], traj.x_bar[i], p.delta, p.rho)
        assert np.array_equal(traj.u[i], row), i


def masked_window(traj, scn, t_lo, t_hi):
    """window_diagnostics as a boolean mask over the grid, for reference."""
    mask = (traj.t >= t_lo - 1e-12) & (traj.t <= t_hi + 1e-12)
    if not mask.any():
        return None
    u_known = np.array(known_state_equilibrium(scn.params, scn.mu_true).controls)
    return (
        float(np.max(np.abs(traj.x_bar[mask] - scn.mu_true))),
        float(np.max(np.abs(traj.tau_bar[mask] - np.array(scn.params.tau)))),
        float(np.max(traj.var_mu[mask])),
        float(np.max(traj.P[mask])),
        float(np.max(np.abs(traj.u[mask] - u_known))),
    )


@pytest.mark.parametrize(
    "t_lo, t_hi",
    [
        (0.0, 10.0),  # on grid points, the whole run
        (2.5, 5.0),
        (2.51, 4.99),  # between grid points
        (2.5 + 5e-13, 5.0 - 5e-13),  # within 1e-12 inside the ends
        (2.5 - 5e-13, 5.0 + 5e-13),  # within 1e-12 outside the ends
        (2.5 + 1e-12, 5.0 - 1e-12),  # exactly at the tolerance
        (2.5 + 2e-12, 5.0 - 2e-12),  # just beyond the tolerance
        (5.0, 5.0),  # a single grid point
        (5.0 + 1e-12, 5.0 - 1e-12),  # the same point, at the tolerance
        (2.501, 2.509),  # no grid point
        (-3.0, 0.01),  # starts before the run
        (9.99, 30.0),  # ends after the run
        (10.5, 12.0),  # outside the run
        (5.0, 4.0),  # reversed
        (math.nan, 1.0),
        (1.0, math.nan),
    ],
)
def test_window_diagnostics_match_a_boolean_mask(two_player_scenario, t_lo, t_hi):
    cfg = SimConfig(dt_signal=0.05, h_ode=0.01, horizon=10.0)
    traj = simulate(two_player_scenario, cfg, seed=5)
    expected = masked_window(traj, two_player_scenario, t_lo, t_hi)
    if expected is None:
        with pytest.raises(ValueError, match="contains no grid points"):
            window_diagnostics(traj, two_player_scenario, t_lo, t_hi)
        return
    diag = window_diagnostics(traj, two_player_scenario, t_lo, t_hi)
    got = (diag.x_gap, diag.tau_gap, diag.var_mu, diag.p_max, diag.control_gap)
    assert got == expected
    assert (diag.t_lo, diag.t_hi) == (t_lo, t_hi)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sigma", np.nan),
        ("kappa0", np.nan),
        ("p0", np.nan),
        ("mu0", np.inf),
        ("horizon", np.inf),
        ("dt_signal", np.nan),
        # NaN in every other float field of GameParams, Scenario and SimConfig.
        ("a", (3.0, np.nan)),
        ("tau", (np.nan, 1.2)),
        ("delta", np.nan),
        ("rho", np.nan),
        ("s0", np.nan),
        ("mu_true", np.nan),
        ("mu0", np.nan),
        ("alpha0", np.nan),
        ("beta0", np.nan),
        ("tau0", np.nan),
        ("r", (0.25, np.nan)),
        ("h_ode", np.nan),
        ("horizon", np.nan),
    ],
)
def test_non_finite_settings_rejected_at_construction(
    two_player_scenario, base_config, field, value
):
    settings = (two_player_scenario, two_player_scenario.params, base_config)
    base = next(obj for obj in settings if hasattr(obj, field))
    with pytest.raises(ValueError, match=rf"^{field}: (entries )?must be finite$"):
        replace(base, **{field: value})


def test_nonnegative_controls_scenario_stays_nonnegative():
    p = GameParams(a=(3.0,) * 5, tau=(1.0,) * 5, delta=0.8, rho=0.1, s0=0.5)
    scn = Scenario(params=p, mu_true=0.5, sigma=0.05, tau0=(1.0,) * 5, p0=(1.0,) * 5,
                   r=(0.25,) * 5)
    traj = simulate(scn, SimConfig(), seed=29)
    assert np.all(traj.x_real > 0.0) and np.all(traj.x_real <= 1.0)
    assert np.min(traj.u) >= 0.0
    assert np.min(traj.S) >= 0.0


def test_clamp_mode_floors_controls_at_zero():
    # Asymmetric intercepts push one player's control negative.
    p = GameParams(a=(5.0, 0.1), tau=(1.0, 1.0), delta=0.8, rho=0.1, s0=0.1)
    scn = Scenario(params=p, mu_true=0.5, sigma=0.1, tau0=(1.0, 1.0))
    plain = simulate(scn, SimConfig(), seed=4)
    clamped = simulate(scn, SimConfig(clamp_controls=True), seed=4)
    assert np.min(plain.u) < 0.0
    assert np.min(clamped.u) == 0.0
    assert not np.array_equal(plain.S, clamped.S)


def test_uncovered_traces_rejected(two_player_scenario, base_config):
    short = constant_traces(2, 0.02, 100)
    with pytest.raises(TraceCoverageError):
        simulate(two_player_scenario, base_config, traces=short)
    wrong_dt = constant_traces(2, 0.04, 500)
    with pytest.raises(TraceCoverageError):
        simulate(two_player_scenario, base_config, traces=wrong_dt)


def test_prior_mean_on_published_surface_completes(two_player_params):
    # Prior mean placed exactly on the singular surface of the published
    # coefficient, (1 - rho)/delta with rho=0.1, delta=0.8: the published form
    # reports NaN there, and the run, which never uses it, completes.
    p = two_player_params
    scn = Scenario(params=p, mu_true=0.5, sigma=0.2, mu0=1.125)
    traj = simulate(scn, SimConfig(), seed=1)
    assert math.isnan(c_bar(traj.x_bar[0], p.delta, p.rho))
    assert np.isfinite(traj.u).all() and np.isfinite(traj.S).all()


@pytest.mark.filterwarnings("ignore:overflow")
def test_runaway_state_aborts_with_diagnostic(two_player_params):
    scn = Scenario(params=two_player_params, mu_true=0.5, sigma=0.2)
    eco = SignalTrace(t0=0.0, dt=0.02, values=np.full(500, 1e300))
    traces = TraceSet(ecological=eco, cost=constant_traces(2, 0.02, 500).cost)
    with pytest.raises(NonFiniteStateError):
        simulate(scn, SimConfig(), traces=traces)


def test_trajectory_csv_format(two_player_scenario, base_config, tmp_path):
    traj = simulate(two_player_scenario, base_config, seed=7)
    out = tmp_path / "trajectory.csv"
    traj.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,S,x_real,x_bar,var_mu,tau_bar_1,tau_bar_2,P_1,P_2,u_1,u_2"
    assert len(lines) == 1 + 501
    # Byte-identical re-export.
    again = tmp_path / "again.csv"
    simulate(two_player_scenario, base_config, seed=7).to_csv(again)
    assert out.read_bytes() == again.read_bytes()


def test_csv_matches_per_cell_reference(tmp_path):
    n, rows = 3, 9
    rng = np.random.default_rng(17)
    table = rng.standard_normal((rows, 5 + 3 * n)) * 10.0 ** rng.integers(
        -30, 30, (rows, 5 + 3 * n)
    )
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1]
    table.flat[rng.choice(table.size, len(special), replace=False)] = special
    traj = Trajectory(
        t=table[:, 0],
        S=table[:, 1],
        x_real=table[:, 2],
        x_bar=table[:, 3],
        var_mu=table[:, 4],
        tau_bar=table[:, 5 : 5 + n],
        P=table[:, 5 + n : 5 + 2 * n],
        u=table[:, 5 + 2 * n :],
    )
    out = tmp_path / "trajectory.csv"
    traj.to_csv(out)
    expected = [traj.header()] + [",".join(f"{v:.17g}" for v in row) for row in table]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


@pytest.mark.parametrize("scheme", ["continuous", "discrete"])
@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_state_names_earliest_time(two_player_params, scheme):
    scn = Scenario(params=two_player_params, mu_true=0.5, sigma=0.2, mu0=0.5)
    eco = np.full(500, 0.5)
    eco[25:] = 1e300  # held from t=0.5; beta overflows over the step to t=0.52
    with pytest.raises(NonFiniteStateError, match=r"at t=0\.52$"):
        simulate(scn, SimConfig(scheme=scheme), traces=held_traces(eco))


@pytest.mark.parametrize("scheme", ["continuous", "discrete"])
def test_run_crossing_published_surface_completes(two_player_params, scheme):
    # x_bar(t) = 3.375 t / (2 + t) crosses (1 - rho)/delta = 1.125 at t=1
    # exactly and stays below the kernel's (1 + rho)/delta = 1.375 up to
    # t=1.2; the discrete means cross between epochs.
    p = two_player_params
    scn = Scenario(params=p, mu_true=0.5, sigma=0.2, mu0=0.0)
    cfg = SimConfig(scheme=scheme, horizon=1.2)
    traj = simulate(scn, cfg, traces=held_traces(np.full(500, 3.375)))
    assert traj.x_bar[0] < 1.125 < traj.x_bar[-1] < 1.375
    for x_bar, tau_bar, u in zip(traj.x_bar, traj.tau_bar, traj.u):
        sol = solve_equilibrium(p, BeliefProfile(float(x_bar), tau_bar))
        assert sol.foc_residual <= 1e-9
        assert np.max(np.abs(u - sol.controls)) <= 1e-12
    # The published coefficient reports the crossing as NaN, on the grid
    # point that lies on its surface.
    on_surface = np.isnan([c_bar(x, p.delta, p.rho) for x in traj.x_bar])
    assert list(traj.t[on_surface]) == ([1.0] if scheme == "continuous" else [])


def kernel_singular_at_0_99():
    # x_bar(t) = X t / (2 + t) reaches (1 + rho)/delta = 1.375 at t=0.99, the
    # midpoint stage of the step from 0.98 to 1.0.
    return np.full(500, 1.375 * 2.99 / 0.99)


def test_kernel_denominator_guard_names_stage_time(two_player_params):
    scn = Scenario(params=two_player_params, mu_true=0.5, sigma=0.2, mu0=0.0)
    with pytest.raises(SingularSystemError, match=r"~ 0 at t=0\.99$"):
        simulate(scn, SimConfig(), traces=held_traces(kernel_singular_at_0_99()))


@pytest.mark.filterwarnings("ignore:overflow")
def test_earliest_guard_wins_over_guard_order(two_player_params):
    # The kernel denominator is singular at t=0.99 and the state overflows at
    # t=1.22; the earlier time wins although non-finite states rank first.
    scn = Scenario(params=two_player_params, mu_true=0.5, sigma=0.2, mu0=0.0)
    eco = kernel_singular_at_0_99()
    eco[60:] = 1e300
    with pytest.raises(SingularSystemError, match=r"at t=0\.99$"):
        simulate(scn, SimConfig(), traces=held_traces(eco))
    eco[:60] = 0.5
    with pytest.raises(NonFiniteStateError, match=r"at t=1\.22$"):
        simulate(scn, SimConfig(), traces=held_traces(eco))


def test_discrete_kalman_variance_leaving_positive_axis_names_time(two_player_params):
    # dt*P0/R = 2.25 for player 1: P_1 = 9 - 0.25*81 = -11.25 after one epoch.
    scn = Scenario(
        params=two_player_params, mu_true=0.5, sigma=0.2, p0=(9.0, 1.0), r=(1.0, 0.25)
    )
    cfg = SimConfig(scheme="discrete", dt_signal=0.25, h_ode=0.05, horizon=1.0)
    expect = r"P_1=-11\.25 not positive at t=0\.25$"
    with pytest.raises(UndefinedVarianceError, match=expect):
        simulate(scn, cfg, seed=1)
    # A guard hazard at an earlier time still wins: the kernel denominator
    # 1 + rho - x_bar*delta is singular at the prior mean (1 + rho)/delta.
    with pytest.raises(SingularSystemError, match=r"~ 0 at t=0$"):
        simulate(replace(scn, mu0=1.375), cfg, seed=1)


player_prior = st.tuples(
    st.floats(-1.0, 2.0), st.floats(0.2, 5.0), st.floats(0.1, 2.0)
)  # tau0, p0, r


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    players=st.lists(player_prior, min_size=1, max_size=3),
    dt=st.sampled_from([0.02, 0.05, 0.1]),
    ratio=st.sampled_from([1, 2, 5, 10, 25, 50]),
    epochs=st.integers(4, 16),
    mu0=st.floats(-1.0, 1.0),
    kappa0=st.floats(0.2, 5.0),
    alpha0=st.floats(1.0, 4.0, exclude_min=True),
    beta0=st.floats(0.05, 2.0),
    mode=st.sampled_from(["realized", "expected"]),
    seed=st.integers(0, 2**16),
)
def test_continuous_beliefs_match_rk4_oracles(
    players, dt, ratio, epochs, mu0, kappa0, alpha0, beta0, mode, seed
):
    n = len(players)
    tau0, p0, r = (tuple(v) for v in zip(*players))
    p = GameParams(a=(3.0,) * n, tau=(1.0,) * n, delta=0.8, rho=0.1, s0=0.1)
    scn = Scenario(
        params=p, mu_true=0.5, sigma=0.3, mu0=mu0, kappa0=kappa0, alpha0=alpha0,
        beta0=beta0, tau0=tau0, p0=p0, r=r,
    )
    cfg = SimConfig(
        dt_signal=dt, h_ode=dt / ratio, horizon=dt * epochs, dynamics_mode=mode
    )
    traces = default_traces(scn, cfg, seed)
    traj = simulate(scn, cfg, traces=traces)
    h_oracle, stride = dt / 50, 50 // ratio
    k_oracle = np.arange(50 * epochs + 1)
    prior = NormalGammaBelief(mu0, kappa0, alpha0, beta0)
    motion = belief_path(prior, traces.ecological, h_oracle, k_oracle)

    def sup_rel(observed, expected):
        return np.max(np.abs(observed - expected)) / np.max(np.abs(expected))

    assert sup_rel(traj.x_bar, motion.mu_hat[::stride]) <= 1e-10
    # The estimator variance beta / (kappa (alpha - 1)).
    kappa, alpha, beta = motion.kappa[::stride], motion.alpha[::stride], motion.beta[::stride]
    assert np.isfinite(traj.var_mu).all()
    assert max_rel_gap(traj.var_mu, beta / (kappa * (alpha - 1.0))) <= 1e-10
    for j in range(n):
        prior = KalmanBelief(tau0[j], p0[j], r[j])
        payoff = kalman_path(prior, traces.cost[j], h_oracle, k_oracle)
        assert sup_rel(traj.tau_bar[:, j], payoff.tau_hat[::stride]) <= 1e-10
