from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgames import (
    DegenerateDiscountError,
    GameParams,
    NonFiniteStateError,
    Scenario,
    SignalTrace,
    SimConfig,
    SingularSystemError,
    TraceCoverageError,
    TraceSet,
    Trajectory,
    belief_path,
    compare_schemes,
    convergence_diagnostics,
    default_traces,
    discounted_payoff,
    kalman_path,
    simulate,
    step_discrete,
    step_discrete_kalman,
    variance_closed_form,
    window_diagnostics,
)
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


def test_discrete_scheme_matches_stepwise_updates(two_player_scenario):
    """The discrete run's belief columns must reproduce the standalone
    discrete update operators applied per signal epoch."""
    cfg = SimConfig(scheme="discrete", dt_signal=0.1, h_ode=0.05, horizon=1.0)
    traces = default_traces(two_player_scenario, cfg, 13)
    traj = simulate(two_player_scenario, cfg, traces=traces)

    motion = two_player_scenario.motion_prior()
    payoff = [two_player_scenario.payoff_prior(j) for j in range(2)]
    for k in range(10):
        motion = step_discrete(motion, float(traces.ecological.values[k]), 0.1)
        payoff = [
            step_discrete_kalman(payoff[j], float(traces.cost[j].values[k]), 0.1)
            for j in range(2)
        ]
        idx = 2 * (k + 1)  # two ODE steps per epoch
        assert traj.x_bar[idx] == pytest.approx(motion.mu_hat, rel=1e-15)
        assert traj.tau_bar[idx, 0] == pytest.approx(payoff[0].tau_hat, rel=1e-15)
        assert traj.P[idx, 1] == pytest.approx(payoff[1].P, rel=1e-15)
    # Between epochs the beliefs hold their values.
    assert traj.x_bar[1] == traj.x_bar[0]
    assert traj.x_bar[3] == traj.x_bar[2]


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
    diag = convergence_diagnostics(traj, scn, tail_fraction=0.5)
    assert diag.x_gap == 0.0
    assert diag.tau_gap == 0.0
    assert diag.var_mu == 0.0
    assert diag.control_gap <= 1e-12
    assert diag.p_max <= 1e-30


def test_window_diagnostics_tail_beats_midrun(two_player_scenario):
    cfg = SimConfig(dt_signal=0.05, h_ode=0.05, horizon=100.0)
    traj = simulate(two_player_scenario, cfg, seed=1)
    mid = window_diagnostics(traj, two_player_scenario, 5.0, 10.0)
    tail = convergence_diagnostics(traj, two_player_scenario, tail_fraction=0.05)
    assert tail.x_gap < mid.x_gap
    assert tail.var_mu < mid.var_mu
    assert tail.p_max < mid.p_max


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


def test_epoch_refresh_mode_stays_close_to_per_step(two_player_scenario):
    cfg = SimConfig(dt_signal=0.02, h_ode=0.002, horizon=2.0)
    traces = default_traces(two_player_scenario, cfg, 8)
    per_step = simulate(two_player_scenario, cfg, traces=traces)
    per_epoch = simulate(
        two_player_scenario, replace(cfg, control_refresh="epoch"), traces=traces
    )
    gap = np.max(np.abs(per_step.u - per_epoch.u))
    assert 0.0 < gap < 0.01


def test_uncovered_traces_rejected(two_player_scenario, base_config):
    short = constant_traces(2, 0.02, 100)
    with pytest.raises(TraceCoverageError):
        simulate(two_player_scenario, base_config, traces=short)
    wrong_dt = constant_traces(2, 0.04, 500)
    with pytest.raises(TraceCoverageError):
        simulate(two_player_scenario, base_config, traces=wrong_dt)


def test_singular_coefficient_mid_run_aborts(two_player_params):
    # Prior mean placed exactly on the singular surface of the published
    # coefficient: (1 - rho)/delta with rho=0.1, delta=0.8.
    scn = Scenario(params=two_player_params, mu_true=0.5, sigma=0.2, mu0=1.125)
    with pytest.raises(DegenerateDiscountError):
        simulate(scn, SimConfig(), seed=1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_runaway_state_aborts_with_diagnostic(two_player_params):
    scn = Scenario(params=two_player_params, mu_true=0.5, sigma=0.2)
    eco = SignalTrace(t0=0.0, dt=0.02, values=np.full(500, 1e300))
    traces = TraceSet(ecological=eco, cost=constant_traces(2, 0.02, 500).cost)
    with pytest.raises((NonFiniteStateError, DegenerateDiscountError)):
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


def test_discounted_payoff_zero_run():
    p = GameParams(a=(0.0, 0.0), tau=(1.0, 1.0), delta=0.8, rho=0.1, s0=0.0)
    scn = Scenario(params=p, mu_true=0.0, sigma=1e-18, mu0=0.0)
    traj = simulate(scn, SimConfig(), traces=constant_traces(2, 0.02, 500, eco=0.0))
    est = discounted_payoff(traj, p, 0, 10.0)
    assert est.value == 0.0
    assert est.tail_bound == 0.0


def test_discounted_payoff_truncation_bound(two_player_scenario):
    cfg = SimConfig(dt_signal=0.05, h_ode=0.05, horizon=40.0)
    traj = simulate(two_player_scenario, cfg, seed=7)
    p = two_player_scenario.params
    half = discounted_payoff(traj, p, 0, 20.0)
    full = discounted_payoff(traj, p, 0, 40.0)
    assert abs(full.value - half.value) <= half.tail_bound
    with pytest.raises(ValueError):
        discounted_payoff(traj, p, 0, 41.0)


def test_discounted_payoff_large_rho_asymptotics(two_player_params):
    p = GameParams(
        a=two_player_params.a,
        tau=two_player_params.tau,
        delta=two_player_params.delta,
        rho=40.0,
        s0=two_player_params.s0,
    )
    scn = Scenario(params=p, mu_true=0.5, sigma=0.2, tau0=(0.6, 0.6))
    cfg = SimConfig(dt_signal=0.02, h_ode=0.001, horizon=2.0)
    traj = simulate(scn, cfg, seed=7)
    est = discounted_payoff(traj, p, 0, 2.0)
    g0 = traj.u[0, 0] * (p.a[0] - traj.u[0].sum()) - p.tau[0] * traj.S[0]
    assert est.value * p.rho == pytest.approx(g0, rel=0.1)


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


def test_published_coefficient_guard_names_earliest_time(two_player_params):
    # x_bar(t) = 3.375 t / (2 + t) crosses (1 - rho)/delta = 1.125 at t=1 exactly.
    scn = Scenario(params=two_player_params, mu_true=0.5, sigma=0.2, mu0=0.0)
    with pytest.raises(DegenerateDiscountError, match=r"at t=1 \(x_bar=1\.125\)"):
        simulate(scn, SimConfig(), traces=held_traces(np.full(500, 3.375)))


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
    alpha0=st.floats(1.1, 4.0),
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
    motion = belief_path(scn.motion_prior(), traces.ecological, cfg.horizon, h_oracle)

    def sup_rel(observed, expected):
        return np.max(np.abs(observed - expected)) / np.max(np.abs(expected))

    assert sup_rel(traj.x_bar, motion.mu_hat[::stride]) <= 1e-10
    assert max_rel_gap(traj.var_mu, motion.estimator_variance()[::stride]) <= 1e-10
    for j in range(n):
        payoff = kalman_path(scn.payoff_prior(j), traces.cost[j], cfg.horizon, h_oracle)
        assert sup_rel(traj.tau_bar[:, j], payoff.tau_hat[::stride]) <= 1e-10
