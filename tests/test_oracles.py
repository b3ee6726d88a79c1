import inspect
import json
import math
import re
import textwrap
import warnings
from dataclasses import replace

import numpy as np
import pytest

from beliefgames import (
    BeliefProfile,
    GameParams,
    GridUnderflowError,
    NormalGammaBelief,
    Scenario,
    best_response_value,
    closed_form_cross_check,
    grid_bayes_posterior,
    solve_equilibrium,
    step_discrete,
)
from beliefgames import engine, equilibrium, oracles
from beliefgames.config import default_config
from beliefgames.oracles import CheckResult

PRIOR = NormalGammaBelief(0.0, 1.0, 2.0, 1.0)


def conjugate_mean(xs):
    b = PRIOR
    for x in xs:
        b = step_discrete(b, float(x), 1.0)
    return b.mu_hat


def test_single_observation_matches_conjugate_posterior():
    xs = [1.4]
    post = grid_bayes_posterior(xs, PRIOR)
    expect = conjugate_mean(xs)
    assert abs(post.mean - expect) / abs(expect) <= 1e-3


def test_zero_observations_recover_prior_mean():
    post = grid_bayes_posterior([], NormalGammaBelief(0.7, 1.0, 2.0, 1.0))
    assert post.mean == pytest.approx(0.7, abs=1e-6)
    assert post.variance > 0.0


def test_many_observations_concentrate_near_truth():
    rng = np.random.default_rng(12)
    mu, sigma = 0.5, 0.2
    xs = mu + sigma * rng.standard_normal(500)
    post = grid_bayes_posterior(xs, PRIOR)
    assert abs(post.mean - mu) <= 4.0 * sigma / np.sqrt(500)


def test_fifty_step_chain_agrees_with_grid():
    rng = np.random.default_rng(3)
    xs = 0.5 + 0.2 * rng.standard_normal(50)
    expect = conjugate_mean(xs)
    post = grid_bayes_posterior(xs, PRIOR)
    assert abs(post.mean - expect) / abs(expect) <= 1e-3


@pytest.mark.parametrize("field", ["mu_lo", "mu_hi", "lam_lo", "lam_hi"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_grid_bounds_must_be_finite(field, bad):
    bounds = {"mu_lo": -1.0, "mu_hi": 1.0, "lam_lo": 0.1, "lam_hi": 2.0}
    bounds[field] = bad
    with pytest.raises(ValueError, match=field):
        oracles._window(**bounds)


@pytest.mark.parametrize("beta", [5e-324, 1e-310])
def test_a_prior_rate_near_zero_raises_value_error(beta):
    # alpha / beta overflows, and with it the first window's precision bounds.
    with pytest.raises(ValueError, match="grid bound lam_lo must be finite, got inf"):
        grid_bayes_posterior([0.5, 0.6], NormalGammaBelief(0.0, 1.0, 2.0, beta))


def test_explicit_grid_far_from_data_underflows():
    mu, lam = np.linspace(-1.0, 1.0, 50), np.linspace(0.5, 2.0, 50)
    with pytest.raises(GridUnderflowError):
        oracles._grid_moments(np.array([1e160]), PRIOR, mu, lam)


@pytest.mark.parametrize("seed", range(6))
def test_long_trace_zoom_stays_within_c3(seed):
    # The posterior sd of the mean (about 0.2/sqrt(2000)) is below the first
    # pass's cell step; the zoom must still find and resolve the mass.
    xs = 0.5 + 0.2 * np.random.default_rng(seed).standard_normal(2000)
    expect = conjugate_mean(xs)
    post = grid_bayes_posterior(xs, PRIOR)
    assert abs(post.mean - expect) / abs(expect) <= 1e-3


def pass_grids(xs):
    """The (mu, lam) axes of the wide, first zoomed and last grids of one
    grid_bayes_posterior run."""
    grids = []
    moments = oracles._grid_moments

    def record(xs, prior, mu, lam):
        grids.append((mu, lam))
        return moments(xs, prior, mu, lam)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_grid_moments", record)
        grid_bayes_posterior(xs, PRIOR)
    wide = oracles._wide_grid(xs, PRIOR)
    assert all(map(np.array_equal, grids[0], wide)) and len(grids) >= 3
    return {"wide": grids[0], "first-zoom": grids[1], "last-zoom": grids[-1]}


def plain_grid_moments(xs, prior, mu, lam):
    """Mean and variance of the mean from the full log-weight grid, its max,
    a plain exp and plain axis sums; and the share of cells that weigh under
    e^-700 of the peak."""
    n, xbar = xs.size, xs.mean()
    ss = np.sum((xs - xbar) ** 2)
    rate = prior.beta + 0.5 * (
        ss + n * (xbar - mu) ** 2 + prior.kappa * (mu - prior.mu_hat) ** 2
    )
    logp = -lam[:, None] * rate + (prior.alpha - 0.5 + 0.5 * n) * np.log(lam)[:, None]
    logp -= np.max(logp)
    w = np.exp(logp)
    w_mu = w.sum(axis=0) / w.sum()
    mean = w_mu @ mu
    return mean, w_mu @ (mu - mean) ** 2, np.mean(logp < -700.0)


# About 7x the largest gaps of the floored pass from the plain arithmetic over
# 20 seeds of these traces: 1.5e-15 in the mean and 1.5e-13 in the variance
# (both on the wide grid, where a few cells hold all the mass).
MEAN_GATE, VARIANCE_GATE = 1e-14, 1e-12


def grid_pass_gaps(seed, kind):
    xs = 0.5 + 0.2 * np.random.default_rng(seed).standard_normal(2000)
    mu, lam = pass_grids(xs)[kind]
    mean, variance, dead = plain_grid_moments(xs, PRIOR, mu, lam)
    post_mean, post_variance, _, _ = oracles._grid_moments(xs, PRIOR, mu, lam)
    gaps = abs(post_mean - mean) / abs(mean), abs(post_variance - variance) / variance
    return gaps, dead


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["wide", "first-zoom", "last-zoom"])
def test_grid_pass_matches_plain_arithmetic(seed, kind):
    (mean_gap, variance_gap), dead = grid_pass_gaps(seed, kind)
    # The wide pass is nearly all dead cells, the last zoomed pass has none.
    if kind == "wide":
        assert dead >= 0.9
    if kind == "last-zoom":
        assert dead == 0.0
    assert mean_gap <= MEAN_GATE
    assert variance_gap <= VARIANCE_GATE


@pytest.mark.parametrize("kind", ["wide", "first-zoom", "last-zoom"])
def test_grid_pass_gate_catches_a_raised_floor(monkeypatch, kind):
    # Dropping the cells under e^-30 of the peak moves the variance by 4e-11
    # of itself on the zoomed grids and by 1e-2 on the wide one.
    monkeypatch.setattr(oracles, "_LOG_FLOOR", -30.0)
    (_, variance_gap), _ = grid_pass_gaps(0, kind)
    assert variance_gap > VARIANCE_GATE


def test_grid_exp_sees_no_input_below_the_floor(monkeypatch):
    # Below about -708, np.exp leaves its fast path; the wide pass of a long
    # trace has nearly all its cells there.
    lowest, np_exp = [], np.exp

    def exp(x, *args, **kwargs):
        lowest.append(np.min(x))
        return np_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    xs = 0.5 + 0.2 * np.random.default_rng(0).standard_normal(2000)
    grid_bayes_posterior(xs, PRIOR)
    assert len(lowest) >= 3 and min(lowest) >= oracles._LOG_FLOOR


def test_cells_under_the_floor_weigh_exactly_zero():
    # Every cell but mu = 0 lies some 1e295 below the peak in log weight, yet
    # each sits up to 1e150 from the mean: a weight of e^-700 there would
    # give a variance of about 0.016.
    mu, lam = np.linspace(-1e150, 1e150, 401), np.linspace(0.5, 2.0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, variance, _, _ = oracles._grid_moments(np.array([0.5]), PRIOR, mu, lam)
    assert mean == 0.0
    assert variance == 0.0


def test_unresolvable_zoom_raises_grid_underflow():
    # Posterior sd of the mean about 1e-18 at 1e8, far below the float spacing
    # there: no window the grid can represent resolves it.
    prior = NormalGammaBelief(1e8, 1.0, 2.0, 1e-30)
    with pytest.raises(GridUnderflowError, match="did not resolve"):
        grid_bayes_posterior(np.full(2000, 1e8), prior)


@pytest.mark.parametrize("m", [1e5, 1e6, 3e8, 1e9, 7e9])
def test_window_below_the_float_spacing_raises_grid_underflow(m):
    # Posterior sd of the mean about 1e-18; the exact variance is about 5e-37.
    # A window whose 400 mean points are fewer distinct floats would report
    # its own quantization as the variance (1.4e-14 at 1e9); at 7e9 the first
    # window is a single float.
    prior = NormalGammaBelief(m, 1.0, 2.0, 1e-30)
    msg = r"did not resolve .* mean step of .* below the float spacing"
    with pytest.raises(GridUnderflowError, match=msg):
        grid_bayes_posterior(np.full(2000, m), prior)


def believed_controls(sol, beliefs):
    return [sol.f1[j] + sol.f2 * beliefs.tau_bar[j] for j in range(len(sol.f1))]


def test_no_profitable_deviation_at_equilibrium():
    p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.25, s0=0.5)
    b = BeliefProfile(0.5, (1.1, 1.0))
    sol = solve_equilibrium(p, b)
    believed = believed_controls(sol, b)
    for i in range(2):
        devs = sol.controls[i] + np.linspace(-0.5, 0.5, 201)
        res = best_response_value(p, b, believed, i, devs, t_trunc=70.0, h=0.01)
        base = best_response_value(
            p, b, believed, i, [sol.controls[i]], t_trunc=70.0, h=0.01
        ).best_value
        grid_bound = (0.005 / 2.0) ** 2 / p.rho
        assert res.best_value - base <= 1e-4 * abs(base) + grid_bound
        assert res.best_control == pytest.approx(sol.controls[i], abs=0.005)


def test_far_deviations_are_dominated():
    p = GameParams(a=(3.0,), tau=(1.0,), delta=0.8, rho=0.25, s0=0.5)
    b = BeliefProfile(0.5, (1.0,))
    sol = solve_equilibrium(p, b)
    res = best_response_value(
        p, b, list(sol.controls), 0, [sol.controls[0], sol.controls[0] + 50.0],
        t_trunc=70.0, h=0.01,
    )
    assert res.best_control == pytest.approx(sol.controls[0])
    assert res.values[1] < res.values[0]


def test_single_player_argmax_matches_solver_to_grid_resolution():
    p = GameParams(a=(2.0,), tau=(1.0,), delta=0.5, rho=0.25)
    b = BeliefProfile(0.5, (0.8,))
    sol = solve_equilibrium(p, b)
    devs = np.linspace(0.0, 2.0, 401)
    res = best_response_value(p, b, believed_controls(sol, b), 0, devs, 70.0, h=0.01)
    assert abs(res.best_control - sol.controls[0]) <= (devs[1] - devs[0])


def test_empty_deviation_grid_rejected():
    p = GameParams(a=(2.0,), tau=(1.0,), delta=0.5, rho=0.25)
    with pytest.raises(ValueError):
        best_response_value(p, BeliefProfile(0.5, (1.0,)), [0.75], 0, [], 10.0)


@pytest.mark.parametrize("player", [-1, 2])
def test_player_out_of_range_rejected(player):
    p = GameParams(a=(2.0, 2.0), tau=(1.0, 1.0), delta=0.5, rho=0.25)
    b = BeliefProfile(0.5, (1.0, 1.0))
    with pytest.raises(ValueError, match=rf"player={player}: must lie in 0\.\.1$"):
        best_response_value(p, b, [0.75, 0.75], player, [0.5], 10.0)


@pytest.mark.parametrize(
    "controls, t_trunc, h, message",
    [
        ([0.7], 10.0, 0.01, "controls needs one entry per player, got 1"),
        ([0.7, 0.7, 5.0], 10.0, 0.01, "controls needs one entry per player, got 3"),
        ([0.7, 0.7], -1.0, 0.01, "t_trunc=-1.0: must be positive and finite"),
        ([0.7, 0.7], math.nan, 0.01, "t_trunc=nan: must be positive and finite"),
        ([0.7, 0.7], 10.0, -0.01, "h=-0.01: must be positive and finite"),
        ([0.7, 0.7], 10.0, 0.0, "h=0.0: must be positive and finite"),
    ],
    ids=["one-control", "phantom-player", "negative-t", "nan-t", "negative-h", "zero-h"],
)
def test_best_response_rejects_bad_input(controls, t_trunc, h, message):
    p = GameParams(a=(2.0, 2.0), tau=(1.0, 1.0), delta=0.5, rho=0.25)
    b = BeliefProfile(0.5, (1.0, 1.0))
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        best_response_value(p, b, controls, 0, [0.5], t_trunc, h=h)


def test_best_response_takes_any_iterable_of_deviations():
    p = GameParams(a=(2.0, 2.0), tau=(1.0, 1.0), delta=0.5, rho=0.25)
    b = BeliefProfile(0.5, (1.0, 1.0))
    devs = np.linspace(0.2, 1.2, 11)
    results = [
        best_response_value(p, b, [0.7, 0.7], 0, given, 10.0)
        for given in (devs, devs.tolist(), (float(d) for d in devs))
    ]
    for res in results:
        np.testing.assert_array_equal(res.controls, devs)
        np.testing.assert_array_equal(res.values, results[0].values)
        assert res.best_control == results[0].best_control
    # The result keeps its own copy of the caller's array.
    devs[:] = 0.0
    assert results[0].controls[0] == 0.2 and results[0].controls is not devs


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_best_response_rejects_a_non_finite_deviation(bad):
    # A NaN deviation would win argmax and be returned as the best control.
    p = GameParams(a=(2.0, 2.0), tau=(1.0, 1.0), delta=0.5, rho=0.25)
    b = BeliefProfile(0.5, (1.0, 1.0))
    message = f"deviations: entries must be finite, got {bad}"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        best_response_value(p, b, [0.7, 0.7], 0, [0.5, bad, 1.5], 10.0)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_best_response_rejects_a_non_finite_control(bad):
    # A NaN control of any player, the searching one too, would turn every
    # value NaN.
    p = GameParams(a=(2.0, 2.0), tau=(1.0, 1.0), delta=0.5, rho=0.25)
    b = BeliefProfile(0.5, (1.0, 1.0))
    message = f"controls: entries must be finite, got {bad}"
    for controls in ([0.7, bad], [bad, 0.7]):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            best_response_value(p, b, controls, 0, [0.5, 1.0, 1.5], 10.0)


@pytest.mark.parametrize("huge", [1e200, -1e160])
def test_best_response_raises_overflow_for_a_finite_deviation_past_the_float_range(huge):
    # A finite deviation whose payoff overflows raises, with no numpy warning,
    # and a grid just inside the range keeps its finite values.
    p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.5, rho=0.25)
    b = BeliefProfile(0.5, (1.0, 1.2))
    controls = solve_equilibrium(p, b).controls
    message = f"the payoff of deviation {huge!r} exceeds the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=rf"^{re.escape(message)}$"):
            best_response_value(p, b, controls, 0, [0.5, huge, 1.5], 10.0)
        res = best_response_value(p, b, controls, 0, [0.5, 1e150, 1.5], 10.0)
    assert np.all(np.isfinite(res.values)) and res.best_control == 0.5


def loop_values(p, b, controls, player, devs, t_trunc, h):
    """Reference: step RK4 and the trapezoid rule one time step at a time."""
    devs = np.asarray(devs, dtype=float)
    others_total = float(sum(controls) - controls[player])
    lam = 1.0 - b.x_bar * p.delta
    n_steps = max(1, int(math.ceil(t_trunc / h - 1e-9)))
    margin = devs * (p.a[player] - devs - others_total)
    drive = b.x_bar * (devs + others_total)
    stock = np.full_like(devs, p.s0)
    values = np.zeros_like(devs)
    disc_now = 1.0
    g_now = margin - p.tau[player] * stock
    h2 = 0.5 * h
    for i in range(n_steps):
        k1 = drive - lam * stock
        k2 = drive - lam * (stock + h2 * k1)
        k3 = drive - lam * (stock + h2 * k2)
        k4 = drive - lam * (stock + h * k3)
        stock = stock + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        disc_next = math.exp(-p.rho * (i + 1) * h)
        g_next = margin - p.tau[player] * stock
        values += h2 * (disc_now * g_now + disc_next * g_next)
        disc_now, g_now = disc_next, g_next
    return values


def two_player_case(t_trunc):
    p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.25, s0=0.5)
    b = BeliefProfile(0.5, (1.1, 1.0))
    sol = solve_equilibrium(p, b)
    devs = sol.controls[1] + np.linspace(-0.5, 0.5, 201)
    return p, b, believed_controls(sol, b), 1, devs, t_trunc


def far_case():
    # Deviations of +-50 around the control, where the d^2 term dominates.
    p, b, controls, player, devs, t_trunc = two_player_case(60.0)
    return p, b, controls, player, controls[player] + np.linspace(-50.0, 50.0, 101), t_trunc


def limit_case(x_bar):
    p = GameParams(a=(2.0,), tau=(1.0,), delta=0.5, rho=0.25, s0=0.3)
    return p, BeliefProfile(x_bar, (1.0,)), [0.5], 0, np.linspace(0.1, 1.0, 11), 60.0


def unit_growth_x_bar(delta=0.5, rho=0.25, h=0.01):
    # RK4 gain g(z) = 1 - z + z^2/2 - z^3/6 + z^4/24 = exp(rho*h), so q*g = 1.
    roots = np.roots([1 / 24, -1 / 6, 1 / 2, -1.0, 1.0 - math.exp(rho * h)])
    z = min((r.real for r in roots if abs(r.imag) < 1e-12), key=abs)
    return (1.0 - z / h) / delta


@pytest.mark.parametrize(
    "case",
    [
        two_player_case(60.0),
        two_player_case(120.0),
        two_player_case(60.004),  # not a multiple of h: ceil(t/h) steps
        two_player_case(0.004),  # t_trunc < h: one step
        far_case(),
        limit_case(2.0),  # lam = 1 - x_bar*delta = 0, so g = 1
        limit_case(1.9),  # 0 < |z| = 5e-4 < rho*h: e_sum by 1 - q
        limit_case(2.1),  # the same with lam < 0
        limit_case(unit_growth_x_bar()),  # q*g = 1
    ],
    ids=[
        "horizon60", "horizon120", "off-grid-horizon", "one-step", "far-deviations",
        "lam0", "small-z", "small-negative-z", "qg1",
    ],
)
def test_closed_form_values_match_rk4_loop(case):
    p, b, controls, player, devs, t_trunc = case
    res = best_response_value(p, b, controls, player, devs, t_trunc, h=0.01)
    ref = loop_values(p, b, controls, player, devs, t_trunc, 0.01)
    np.testing.assert_allclose(res.values, ref, rtol=1e-9, atol=0.0)
    assert res.best_control == devs[int(np.argmax(ref))]


def test_tie_resolution_takes_lowest_index():
    p = GameParams(a=(2.0,), tau=(1.0,), delta=0.5, rho=0.25)
    b = BeliefProfile(0.5, (1.0,))
    sol = solve_equilibrium(p, b)
    # Duplicate candidates tie exactly; the lower index must win.
    devs = [sol.controls[0] + 0.1, sol.controls[0] + 0.1, sol.controls[0] - 0.5]
    res = best_response_value(p, b, believed_controls(sol, b), 0, devs, 70.0, h=0.01)
    assert res.values[0] == res.values[1]
    assert int(np.argmax(res.values)) == 0
    assert res.best_control == devs[0]


def default_case():
    cfg = default_config()
    return (cfg.scenario, cfg.sim, cfg.seed)


def test_cross_check_passes_on_default_scenario():
    report = closed_form_cross_check(*default_case())
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert "continuous-mean-rk4" in names
    assert "equilibrium-foc" in names
    deltas = [c for c in report.checks if c.tolerance is None]
    assert deltas and all(np.isfinite(c.observed) for c in deltas)


def test_cross_check_fault_injection_fails_foc(monkeypatch):
    # A fault inside the solver, which reports the stationarity residual of
    # the (f1, f2, slopes) it returns: its intercept system is off by 1e-3.
    def perturbed(n):
        return np.eye(n) * (1.0 + 1e-3) + np.ones((n, n))

    monkeypatch.setattr(equilibrium, "_intercept_system", perturbed)
    report = closed_form_cross_check(*default_case())
    assert not report.all_passed
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"equilibrium-foc"}


@pytest.mark.parametrize(
    "name, fault, failing",
    [
        (
            "belief_path",
            lambda f: lambda *args: (
                lambda path: replace(path, mu_hat=1.01 * path.mu_hat)
            )(f(*args)),
            "continuous-mean-rk4",
        ),
        (
            "kalman_path",
            lambda f: lambda b, *args: f(replace(b, P=1.01 * b.P), *args),
            "continuous-kalman-mean-rk4",
        ),
        (
            "variance_path",
            lambda f: lambda b, *args: f(replace(b, P=1.01 * b.P), *args),
            "continuous-variance-rk4",
        ),
    ],
    ids=["motion-mean", "kalman-mean", "kalman-variance"],
)
def test_cross_check_fault_injection_fails_its_reference_check(
    monkeypatch, name, fault, failing
):
    # Each RK4 reference feeds one check only, so a faulty reference fails
    # that check and no other.
    monkeypatch.setattr(oracles, name, fault(getattr(oracles, name)))
    report = closed_form_cross_check(*default_case())
    assert {c.name for c in report.checks if not c.passed} == {failing}


def test_cross_check_report_round_trips_to_json():
    report = closed_form_cross_check(*default_case())
    back = json.loads(json.dumps(report.as_dict()))
    assert back["all_passed"] is True
    assert len(back["checks"]) == len(report.checks)
    assert back == report.as_dict()


def test_value_slope_delta_with_zero_first_cost_type():
    scn, sim, seed = default_case()
    scn = replace(scn, params=replace(scn.params, tau=(0.0, 1.2)))
    report = closed_form_cross_check(scn, sim, seed)
    (check,) = [c for c in report.checks if c.name == "published-value-slope-delta"]
    # Solver unit slope -1/(1 + rho - mu*delta) = -1/0.7 vs the published -2.0.
    assert check.observed == pytest.approx(2.0 - 1.0 / 0.7, rel=1e-9)


def test_check_result_pass_is_decided_by_its_tolerance():
    assert CheckResult("gated", 1e-8, 1e-8).passed
    assert not CheckResult("gated", 1e-8, 2e-8).passed
    assert not CheckResult("gated", 1e-8, float("nan")).passed
    assert CheckResult("informational", None, float("nan")).passed
    assert CheckResult("informational", None, 1e300).passed
    assert CheckResult("gated", 1e-8, float("nan")).as_dict()["passed"] is False


DISCRETE_LAWS = {
    "discrete-mean-euler",
    "discrete-var-mu-euler",
    "discrete-kalman-mean-euler",
    "discrete-variance-euler",
}


def five_player_case(**sim):
    params = GameParams(
        a=(3.0, 3.2, 2.8, 3.1, 2.9),
        tau=(1.0, 1.2, 0.9, 1.1, 1.05),
        delta=0.8,
        rho=0.1,
        s0=0.1,
    )
    scn = Scenario(
        params=params, mu_true=0.5, sigma=0.2, mu0=0.3, kappa0=0.7, alpha0=1.5,
        beta0=0.4, tau0=(0.6, 0.5, 0.7, 0.0, 1.0), p0=(1.0, 2.0, 0.5, 1.5, 3.0),
        r=(0.25, 0.3, 0.2, 0.25, 0.5),
    )
    return scn, replace(default_case()[1], **sim), 7


@pytest.mark.parametrize(
    "case",
    [
        default_case(),
        five_player_case(),
        # h = dt/5, and the horizon ends 0.06 into an epoch.
        five_player_case(dt_signal=0.1, h_ode=0.02, horizon=20.06),
        # var_mu = beta / (kappa (alpha - 1)) starts at about 1e6 beta0.
        (replace(default_case()[0], alpha0=1.000001), default_case()[1], 3),
    ],
    ids=["default", "five-players", "five-players-partial-epoch", "alpha0-near-one"],
)
def test_discrete_laws_hold_on_the_configured_run(case):
    scn, sim, seed = case
    report = closed_form_cross_check(scn, replace(sim, scheme="discrete"), seed)
    assert report.all_passed
    laws = [c for c in report.checks if c.name in DISCRETE_LAWS]
    assert {c.name for c in laws} == DISCRETE_LAWS
    assert all(c.tolerance == 1e-9 and c.observed <= 1e-12 for c in laws)
    continuous = closed_form_cross_check(scn, replace(sim, scheme="continuous"), seed)
    assert not DISCRETE_LAWS & {c.name for c in continuous.checks}


def mutated(function, old, new):
    """An engine function with one source fragment replaced."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(vars(engine))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


@pytest.mark.parametrize(
    "old, new, failing",
    [
        (
            "x_bar[1:] /= kappa[:-1] + 1.0",
            "x_bar[1:] /= kappa[:-1]",
            {"discrete-mean-euler", "discrete-var-mu-euler"},
        ),
        (
            "p *= 1.0 - dt * p / r_j",
            "p *= 1.0 + dt * p / r_j",
            {"discrete-kalman-mean-euler", "discrete-variance-euler"},
        ),
        ("_prefix(y, tau0, dt", "_prefix(y, tau0, -dt", {"discrete-kalman-mean-euler"}),
    ],
    ids=["mean-step-kappa", "variance-step-sign", "kalman-mean-step-sign"],
)
def test_discrete_laws_fail_at_an_injected_fault(monkeypatch, old, new, failing):
    # A short run with a small P0, so that a growing P stays finite.
    scn, sim, seed = default_case()
    scn = replace(scn, p0=0.2)
    sim = replace(sim, scheme="discrete", horizon=1.0)
    assert closed_form_cross_check(scn, sim, seed).all_passed
    faulty = mutated(engine._discrete_path, old, new)
    monkeypatch.setattr(engine, "_discrete_path", faulty)
    report = closed_form_cross_check(scn, sim, seed)
    assert {c.name for c in report.checks if not c.passed} == failing


CONTINUOUS_LAWS = {
    "continuous-mean-rk4",
    "continuous-var-mu-rk4",
    "continuous-kalman-mean-rk4",
    "continuous-variance-rk4",
}


@pytest.mark.parametrize(
    "case",
    [
        default_case(),
        (replace(default_case()[0], mu0=0.3), default_case()[1], 11),
        # var_mu = beta / (kappa (alpha - 1)) starts at about 1e6 beta0.
        (replace(default_case()[0], alpha0=1.000001), default_case()[1], 3),
        # P0/R = 40: the reference's first steps are 0.02/128.
        (
            replace(default_case()[0], p0=10.0),
            replace(default_case()[1], horizon=2.0),
            5,
        ),
    ],
    ids=["default", "nonzero-mu0", "alpha0-near-one", "large-p0-over-r"],
)
def test_continuous_laws_hold_on_the_configured_run(case):
    scn, sim, seed = case
    report = closed_form_cross_check(scn, sim, seed)
    assert report.all_passed
    laws = {c.name: c for c in report.checks if c.name in CONTINUOUS_LAWS}
    assert set(laws) == CONTINUOUS_LAWS
    assert all(c.tolerance == 1e-9 for c in laws.values())
    # RK4's truncation error sits below roundoff on the means, but not on P,
    # with h*P/R at most 0.01 on every step.
    assert all(c.observed <= 1e-12 for n, c in laws.items() if "variance" not in n)
    assert laws["continuous-variance-rk4"].observed <= 1e-10
    discrete = closed_form_cross_check(scn, replace(sim, scheme="discrete"), seed)
    assert not CONTINUOUS_LAWS & {c.name for c in discrete.checks}


def recorded_steps(monkeypatch) -> dict:
    """The grid ``(u, k)`` of every call to each of verify's three RK4 walks."""
    calls = {name: [] for name in ("belief_path", "kalman_path", "variance_path")}
    for name, steps in calls.items():

        def walk(*args, _walk=getattr(oracles, name), _steps=steps):
            _steps.append(args[-2:])
            return _walk(*args)

        monkeypatch.setattr(oracles, name, walk)
    return calls


@pytest.mark.parametrize("horizon, most", [(2.0, 320), (10.0, 720), (20.0, 1220)])
def test_verify_walks_once_each_on_a_graded_dyadic_grid(monkeypatch, horizon, most):
    scn, sim, seed = default_case()
    sim = replace(sim, horizon=horizon)
    calls = recorded_steps(monkeypatch)
    assert closed_form_cross_check(scn, sim, seed).all_passed
    ((u, k),) = calls["belief_path"]
    assert all(len(c) == 1 and c[0][0] == u and c[0][1] is k for c in calls.values())
    units = np.diff(k)
    h = u * units
    assert k[0] == 0 and units.min() == 1 and h.size <= most
    # Every step is h_ode/2^j, j >= 0, and starts at a multiple of itself,
    # so every multiple of h_ode is a step end.
    j = np.log2(sim.h_ode / h)
    assert np.array_equal(j, np.round(j)) and j.min() == 0 and np.all(np.diff(j) <= 0)
    assert np.all(k[:-1] % units == 0)
    per_ode = round(sim.h_ode / u)
    assert np.isin(np.arange(0, k[-1] + 1, per_ode), k).all()
    # h <= 0.01 (t + c) at each step's start t, with c = min(kappa0 + 1, R/P0).
    c = min(scn.kappa0 + 1.0, scn.r[0] / scn.p0[0])
    assert np.all(h <= 0.01 * (u * k[:-1] + c))


@pytest.mark.parametrize("p0, r, most", [(25000.0, 0.25, 2200), (1e6, 0.01, 3200)])
def test_verify_passes_a_stiff_kalman_prior(monkeypatch, p0, r, most):
    # Uniform steps no finer than 1e-5 read continuous-variance-rk4 1.47e-8 at
    # P0/R = 1e5 and overflowed P at 1e8; graded steps refine only the start.
    scn, sim, seed = default_case()
    scn = replace(scn, p0=(p0, scn.p0[1]), r=(r, scn.r[1]))
    calls = recorded_steps(monkeypatch)
    report = closed_form_cross_check(scn, sim, seed)
    assert report.all_passed
    variance = next(c for c in report.checks if c.name == "continuous-variance-rk4")
    assert variance.observed <= 1e-12
    ((_, k),) = calls["variance_path"]
    assert k.size - 1 <= most


def test_verify_names_a_prior_too_stiff_for_its_reference_grid():
    # P0/R = 4e20 asks for 2^61 finest steps per h_ode, past the float count.
    scn, sim, seed = default_case()
    scn = replace(scn, p0=(1e20, scn.p0[1]))
    with pytest.raises(ValueError, match=r"P0/R = 4e\+20 needs steps of .* too many"):
        closed_form_cross_check(scn, sim, seed)


@pytest.mark.parametrize(
    "old, new, failing",
    [
        (
            "x_half /= scn.kappa0 + 1.0 + t_half",
            "x_half /= scn.kappa0 + t_half",
            # beta's increments read x_bar, so var_mu moves with it.
            {"continuous-mean-rk4", "continuous-var-mu-rk4"},
        ),
        (
            "d_beta = 0.5 * d * d",
            "d_beta = (1.0 + 1e-6) * 0.5 * d * d",
            {"continuous-var-mu-rk4"},
        ),
        ("tau_half *= p0", "tau_half *= 1.01 * p0", {"continuous-kalman-mean-rk4"}),
        (
            "p0 * r / (t * p0 + r),",
            "1.001 * p0 * r / (t * p0 + r),",
            {"continuous-variance-rk4"},
        ),
    ],
    ids=["mean-kappa", "beta-increment", "kalman-gain", "variance-scale"],
)
def test_continuous_laws_fail_at_an_injected_fault(monkeypatch, old, new, failing):
    faulty = mutated(engine._continuous_path, old, new)
    monkeypatch.setattr(engine, "_continuous_path", faulty)
    report = closed_form_cross_check(*default_case())
    assert {c.name for c in report.checks if not c.passed} == failing


@pytest.mark.parametrize("xs", [[1e200, -1e200], [3e153, -3e153, 0.0]])
def test_overflowing_spread_raises_grid_underflow(xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridUnderflowError, match="spread overflows"):
            grid_bayes_posterior(xs, PRIOR)
