import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgames import (
    NonFiniteStateError,
    NormalGammaBelief,
    SignalTrace,
    TraceCoverageError,
    UndefinedVarianceError,
    belief_derivative,
    belief_path,
    closed_form_mean,
    sample_ecological_trace,
    step_discrete,
)
from conftest import max_rel_gap


# ---------------------------------------------------------------------------
# Independent oracle: exact propagation over one hold interval.  With the
# signal constant at x, the mean ODE is linear time-varying and solvable in
# closed form, and the beta increment integrates to an explicit expression.
# ---------------------------------------------------------------------------
def exact_interval_update(mu, beta, kappa_start, x, span):
    w0 = kappa_start + 1.0
    w1 = kappa_start + span + 1.0
    mu_next = x + (mu - x) * w0 / w1
    anti = lambda w: -1.0 / w + 0.5 / (w * w)
    beta_next = beta + 0.5 * (x - mu) ** 2 * w0 * w0 * (anti(w1) - anti(w0))
    return mu_next, beta_next


def exact_reference(belief, trace, duration):
    mu, beta = belief.mu_hat, belief.beta
    kappa = belief.kappa
    n = round(duration / trace.dt)
    for k in range(n):
        mu, beta = exact_interval_update(mu, beta, kappa, float(trace.values[k]), trace.dt)
        kappa += trace.dt
    return mu, beta


def test_derivative_examples():
    assert belief_derivative(NormalGammaBelief(0, 1, 1, 1), 0.0) == (0.0, 1.0, 0.5, 0.0)
    assert belief_derivative(NormalGammaBelief(0, 1, 1, 1), 2.0) == (1.0, 1.0, 0.5, 1.0)
    assert belief_derivative(NormalGammaBelief(5, 3, 2, 0), 5.0) == (0.0, 1.0, 0.5, 0.0)


def test_derivative_rejects_non_finite_signal():
    with pytest.raises(ValueError):
        belief_derivative(NormalGammaBelief(0, 1, 1, 1), math.inf)


def test_belief_invariants_enforced_at_construction():
    with pytest.raises(ValueError):
        NormalGammaBelief(0, 0.0, 1, 1)
    with pytest.raises(ValueError):
        NormalGammaBelief(0, 1, 0.0, 1)
    with pytest.raises(ValueError):
        NormalGammaBelief(0, 1, 1, -0.5)
    with pytest.raises(NonFiniteStateError):
        NormalGammaBelief(math.nan, 1, 1, 1)


def test_step_discrete_substitution_example():
    out = step_discrete(NormalGammaBelief(0, 1, 1, 0), 2.0, 1.0)
    assert (out.mu_hat, out.kappa, out.alpha, out.beta) == (1.0, 2.0, 1.5, 1.0)


def test_step_discrete_unit_step_is_conjugate_update():
    b = NormalGammaBelief(0.3, 2.0, 1.5, 0.7)
    x = 1.9
    out = step_discrete(b, x, 1.0)
    # Classical single-observation posterior computed directly.
    assert out.mu_hat == pytest.approx((b.kappa * b.mu_hat + x) / (b.kappa + 1), rel=1e-15)
    assert out.kappa == b.kappa + 1
    assert out.alpha == b.alpha + 0.5
    assert out.beta == pytest.approx(
        b.beta + b.kappa * (x - b.mu_hat) ** 2 / (2 * (b.kappa + 1)), rel=1e-15
    )


def test_step_discrete_at_current_mean_only_moves_shape():
    b = NormalGammaBelief(0.8, 2.0, 1.5, 0.7)
    out = step_discrete(b, 0.8, 0.25)
    assert out.mu_hat == b.mu_hat
    assert out.beta == b.beta
    assert out.kappa == b.kappa + 0.25
    assert out.alpha == b.alpha + 0.125


def test_step_discrete_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_discrete(NormalGammaBelief(0, 1, 1, 0), 1.0, 0.0)


def test_integrate_advances_kappa_exactly():
    trace = SignalTrace(t0=0.0, dt=0.5, values=np.array([1.0] * 6))
    out = belief_path(NormalGammaBelief(0, 2.0, 1.0, 0.0), trace, 3.0, 0.25)
    assert out.kappa[-1] == 5.0
    assert out.alpha[-1] == 2.5


def test_constant_trace_matches_printed_mean_formula():
    # x = c from t = 0 with a zero-mean prior: mu(t) = c*t / (kappa0 + t + 1).
    c, kappa0 = 1.7, 1.0
    trace = SignalTrace(t0=0.0, dt=0.1, values=np.full(100, c))
    b = NormalGammaBelief(0.0, kappa0, 2.0, 0.0)
    for t in (1.0, 4.0, 10.0):
        mu_hat = belief_path(b, trace, t, 0.001).mu_hat[-1]
        assert mu_hat == pytest.approx(c * t / (kappa0 + t + 1.0), rel=1e-10)
        b_check = closed_form_mean(trace, 0.0, kappa0, t)
        assert mu_hat == pytest.approx(b_check, rel=1e-10)


def test_closed_form_mean_fixed_points():
    trace = SignalTrace(t0=0.0, dt=0.1, values=np.full(100, 0.4))
    assert closed_form_mean(trace, 0.4, 2.0, 0.0) == pytest.approx(0.4 * 2 / 3)
    # x = mu0 everywhere: finite-t value stays below mu0 by the extra +1.
    t = 5.0
    assert closed_form_mean(trace, 0.4, 2.0, t) == pytest.approx(
        (0.4 * t + 0.4 * 2.0) / (2.0 + t + 1.0)
    )


def test_random_trace_oracle_equivalence():
    trace = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, seed=42)
    b = NormalGammaBelief(0.0, 1.0, 2.0, 1.0)
    path = belief_path(b, trace, 10.0, 0.001)
    expected = np.array(
        [closed_form_mean(trace, 0.0, 1.0, float(t)) for t in path.t]
    )
    assert max_rel_gap(path.mu_hat, expected) <= 1e-8
    # One call over the grid (hold edges and trace.end included) is bit-equal.
    assert path.t[-1] == trace.end
    assert np.array_equal(closed_form_mean(trace, 0.0, 1.0, path.t), expected)
    with pytest.raises(TraceCoverageError):
        closed_form_mean(trace, 0.0, 1.0, np.append(path.t, trace.end + 0.02))
    with pytest.raises(ValueError):
        closed_form_mean(trace, 0.0, 1.0, np.append(path.t, -0.001))


def test_integrator_matches_exact_interval_propagation():
    # Nonzero prior mean: checked against the ODE-consistent per-interval
    # closed form (the printed formula only covers the zero-mean prior).
    trace = sample_ecological_trace(0.5, 0.3, 0.1, 5.0, seed=9)
    b = NormalGammaBelief(0.7, 2.0, 2.0, 0.4)
    out = belief_path(b, trace, 5.0, 0.001)
    mu_ref, beta_ref = exact_reference(b, trace, 5.0)
    assert out.mu_hat[-1] == pytest.approx(mu_ref, rel=1e-11, abs=1e-13)
    assert out.beta[-1] == pytest.approx(beta_ref, rel=1e-9)


def test_discrete_updates_approach_continuous_at_first_order():
    # Richardson check: halving dt should roughly halve the terminal gap.
    trace = SignalTrace(t0=0.0, dt=4.0, values=np.array([1.3]))
    b = NormalGammaBelief(0.0, 1.0, 2.0, 0.0)
    cont_mu_hat = belief_path(b, trace, 4.0, 0.0005).mu_hat[-1]

    def discrete_gap(dt):
        steps = round(4.0 / dt)
        cur = b
        for _ in range(steps):
            cur = step_discrete(cur, 1.3, dt)
        return abs(cur.mu_hat - cont_mu_hat)

    ratio = discrete_gap(0.05) / discrete_gap(0.1)
    assert 0.45 <= ratio <= 0.55


@settings(max_examples=40, derandomize=True)
@given(
    dts=st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=1, max_size=8),
    xs=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=8, max_size=8
    ),
)
def test_affinity_and_monotone_beta_under_mixed_updates(dts, xs):
    """kappa/alpha stay affine in elapsed time and beta never decreases,
    whatever mix of discrete steps and continuous stretches runs."""
    b = NormalGammaBelief(0.2, 1.5, 1.25, 0.1)
    elapsed = 0.0
    prev_beta = b.beta
    for i, dt in enumerate(dts):
        if i % 2 == 0:
            b = step_discrete(b, xs[i], dt)
        else:
            trace = SignalTrace(t0=b.t, dt=dt, values=np.array([xs[i]]))
            p = belief_path(b, trace, dt, dt / 4)
            b = NormalGammaBelief(
                p.mu_hat[-1], p.kappa[-1], p.alpha[-1], p.beta[-1], p.t[-1]
            )
        elapsed += dt
        assert b.beta >= prev_beta - 1e-15
        prev_beta = b.beta
    assert b.kappa == pytest.approx(1.5 + elapsed, rel=1e-12)
    assert b.alpha == pytest.approx(1.25 + elapsed / 2, rel=1e-12)


def test_binary_step_sizes_keep_affinity_bitwise():
    b = NormalGammaBelief(0.0, 1.0, 2.0, 0.0)
    for x in (0.5, -1.0, 2.0, 0.25):
        b = step_discrete(b, x, 0.25)
    assert b.kappa == 2.0
    assert b.alpha == 2.5


def test_estimator_variance():
    assert NormalGammaBelief(0, 2.0, 3.0, 4.0).estimator_variance() == 1.0
    assert NormalGammaBelief(0, 7.0, 2.5, 0.0).estimator_variance() == 0.0
    with pytest.raises(UndefinedVarianceError):
        NormalGammaBelief(0, 1.0, 1.0, 1.0).estimator_variance()


def test_mean_error_and_variance_shrink_with_horizon_across_seeds():
    """Seeded contract: the mean-estimate error and the variance statistic
    over the tail window [190, 200] stay below their [10, 20] window values
    in at least 95 of 100 seeds."""
    mu, sigma = 0.5, 0.2
    mean_wins = var_wins = 0
    for seed in range(100):
        trace = sample_ecological_trace(mu, sigma, 0.5, 200.0, seed=seed)
        path = belief_path(NormalGammaBelief(0.0, 1.0, 2.0, 1.0), trace, 200.0, 0.5)
        early = (path.t >= 10.0) & (path.t <= 20.0)
        late = (path.t >= 190.0) & (path.t <= 200.0)
        err = np.abs(path.mu_hat - mu)
        var = path.estimator_variance()
        mean_wins += err[late].max() < err[early].max()
        var_wins += var[late].max() < var[early].max()
    assert mean_wins >= 95
    assert var_wins >= 95


def test_integrate_validates_grid_and_coverage():
    trace = SignalTrace(t0=0.0, dt=0.5, values=np.array([1.0, 2.0]))
    b = NormalGammaBelief(0, 1, 2, 0)
    with pytest.raises(ValueError):
        belief_path(b, trace, 1.0, 0.3)  # h does not divide dt
    with pytest.raises(ValueError):
        belief_path(b, trace, 0.8, 0.25)  # h does not divide duration
    with pytest.raises(TraceCoverageError):
        belief_path(b, trace, 2.0, 0.25)  # trace too short


def test_belief_path_csv_export():
    trace = SignalTrace(t0=0.0, dt=0.5, values=np.array([1.0, 2.0]))
    path = belief_path(NormalGammaBelief(0, 1, 2, 0), trace, 1.0, 0.25)
    assert path.t.size == 5
