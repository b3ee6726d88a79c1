import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgames import (
    BeliefProfile,
    DegenerateDiscountError,
    GameParams,
    c_bar,
    check_nonnegativity,
    closed_form_controls,
    closed_form_value_slope,
    equilibrium_report,
    foc_residual,
    known_state_controls,
    known_state_equilibrium,
    solve_equilibrium,
    value_intercepts,
    value_slope,
)
from beliefgames.equilibrium import control_kernel


def random_case(rng, n=None):
    n = n or int(rng.integers(1, 6))
    while True:
        delta = rng.uniform(0.05, 1.0)
        rho = rng.uniform(0.02, 0.5)
        x_bar = rng.uniform(0.0, 1.0)
        if abs(1.0 - x_bar * delta - rho) > 0.05:
            break
    p = GameParams(
        a=tuple(rng.uniform(1, 5, n)),
        tau=tuple(rng.uniform(0.2, 2, n)),
        delta=delta,
        rho=rho,
        s0=rng.uniform(0, 1),
    )
    b = BeliefProfile(x_bar=x_bar, tau_bar=tuple(rng.uniform(0.2, 2, n)))
    return p, b


def test_c_bar_examples():
    assert c_bar(0.5, 0.5, 0.25) == pytest.approx(-1.0)
    assert c_bar(0.0, 0.9, 0.3) == 0.0
    with pytest.raises(DegenerateDiscountError):
        c_bar(1.0, 0.75, 0.25)  # 1 - 0.75 - 0.25 = 0


def test_value_slope_zero_cost_gives_zero():
    assert value_slope(0.0, 0.5, 0.8, 0.1) == 0.0


def test_value_slope_matching_residual():
    """The returned slope has to satisfy the matching equation it was fit to:
    rho*A equals the S-coefficient of the maximized right side."""
    from beliefgames.equilibrium import _maximized_rhs

    for tau_i, x_bar, delta, rho in [
        (1.0, 0.5, 0.8, 0.1),
        (0.3, 0.2, 0.5, 0.25),
        (2.0, 0.9, 0.95, 0.04),
    ]:
        a = value_slope(tau_i, x_bar, delta, rho)
        coeff = _maximized_rhs(1.0, a, 1.0, tau_i, 0.0, x_bar, delta) - _maximized_rhs(
            0.0, a, 1.0, tau_i, 0.0, x_bar, delta
        )
        assert abs(rho * a - coeff) <= 1e-12


def test_value_slope_vs_published_form_delta_is_reported():
    # The published denominator flips the sign of rho; both values are finite
    # and the report carries the delta rather than reconciling them.
    matched = value_slope(1.0, 0.5, 0.5, 0.25)
    published = closed_form_value_slope(1.0, 0.5, 0.5, 0.25)
    assert matched == pytest.approx(-1.0, rel=1e-12)
    assert published == pytest.approx(-2.0, rel=1e-12)
    rep = equilibrium_report(
        GameParams(a=(2.0,), tau=(1.0,), delta=0.5, rho=0.25),
        BeliefProfile(0.5, (1.0,)),
        mu_true=0.5,
    )
    assert rep["closed_form"]["value_slope_delta_max"] == pytest.approx(1.0, rel=1e-12)


def test_single_player_worked_example():
    # Effective slope coefficient -0.5 realized through (x=0.5, d=0.5, rho=0.25).
    p = GameParams(a=(2.0,), tau=(1.0,), delta=0.5, rho=0.25)
    for tau_bar in (0.0, 1.0, 7.3):
        sol = solve_equilibrium(p, BeliefProfile(0.5, (tau_bar,)))
        assert sol.f1[0] == pytest.approx(1.0, rel=1e-12)
        assert sol.f2 == pytest.approx(-0.25, rel=1e-12)
        assert sol.controls[0] == pytest.approx(0.75, rel=1e-12)
        assert sol.foc_residual <= 1e-12


def test_symmetric_players_get_equal_controls():
    p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.0), delta=0.8, rho=0.1)
    sol = solve_equilibrium(p, BeliefProfile(0.5, (1.0, 1.0)))
    assert sol.controls[0] == pytest.approx(sol.controls[1], rel=1e-14)


def test_foc_residual_small_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p, b = random_case(rng)
        assert solve_equilibrium(p, b).foc_residual <= 1e-9


def test_kernel_agrees_with_solver():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p, b = random_case(rng)
        sol = solve_equilibrium(p, b)
        fast = control_kernel(p.a, p.tau, b.tau_bar, b.x_bar, p.delta, p.rho)
        assert max(abs(sol.controls[i] - fast[i]) for i in range(p.n)) <= 1e-13


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    p, b = random_case(rng, n=3)
    sol = solve_equilibrium(p, b)
    for perm in itertools.permutations(range(3)):
        p2 = GameParams(
            a=tuple(p.a[i] for i in perm),
            tau=tuple(p.tau[i] for i in perm),
            delta=p.delta,
            rho=p.rho,
            s0=p.s0,
        )
        b2 = BeliefProfile(b.x_bar, tuple(b.tau_bar[i] for i in perm))
        sol2 = solve_equilibrium(p2, b2)
        for spot, i in enumerate(perm):
            assert sol2.controls[spot] == pytest.approx(sol.controls[i], rel=1e-12)


def test_zero_x_bar_decouples_controls_from_types():
    a = (3.0, 2.0, 4.0)
    base = solve_equilibrium(
        GameParams(a=a, tau=(1.0, 1.0, 1.0), delta=0.8, rho=0.1),
        BeliefProfile(0.0, (1.0, 1.0, 1.0)),
    )
    shifted = solve_equilibrium(
        GameParams(a=a, tau=(0.1, 2.0, 0.7), delta=0.8, rho=0.1),
        BeliefProfile(0.0, (5.0, 0.2, 3.3)),
    )
    assert base.controls == pytest.approx(shifted.controls, rel=1e-14)
    # And the controls reduce to a_i - a/(n+1).
    total = sum(a)
    for i in range(3):
        assert base.controls[i] == pytest.approx(a[i] - total / 4.0, rel=1e-14)


def test_published_formula_single_player_arithmetic():
    # Parameters chosen so the published coefficient equals -0.5.
    p = GameParams(a=(2.0,), tau=(1.0,), delta=0.2, rho=0.01)
    b = BeliefProfile(0.45, (1.0,))
    assert c_bar(0.45, 0.2, 0.01) == pytest.approx(-0.5, rel=1e-12)
    out = closed_form_controls(p, b)
    # 2 - 1 - (2/8)(-0.5)(1) + 0.5(-0.5)(0.5 + 1) = 0.75
    assert out[0] == pytest.approx(0.75, rel=1e-12)


def test_published_formula_zero_x_bar_cases():
    p = GameParams(a=(3.0, 1.0), tau=(1.0, 2.0), delta=0.8, rho=0.1)
    out = closed_form_controls(p, BeliefProfile(0.0, (1.0, 2.0)))
    total = 4.0
    assert out[0] == pytest.approx(3.0 - total / 3.0, rel=1e-14)
    assert out[1] == pytest.approx(1.0 - total / 3.0, rel=1e-14)
    # All types zero behaves identically to x_bar = 0.
    p0 = GameParams(a=(3.0, 1.0), tau=(0.0, 0.0), delta=0.8, rho=0.1)
    out0 = closed_form_controls(p0, BeliefProfile(0.5, (0.0, 0.0)))
    assert out0 == pytest.approx(out, rel=1e-14)


def test_known_state_is_solver_at_converged_beliefs():
    p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.1)
    direct = solve_equilibrium(p, BeliefProfile(0.5, p.tau))
    known = known_state_equilibrium(p, 0.5)
    assert known.controls == direct.controls
    # The published known-state expression stays available for the report.
    printed = known_state_controls(p, 0.5)
    assert all(math.isfinite(v) for v in printed)


def test_controls_converge_to_known_state_linearly_in_beliefs():
    p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.1)
    mu = 0.5
    target = np.array(known_state_equilibrium(p, mu).controls)

    def gap(eps):
        b = BeliefProfile(mu + eps, tuple(t + eps for t in p.tau))
        return float(
            np.max(np.abs(np.array(solve_equilibrium(p, b).controls) - target))
        )

    g1, g2, g3 = gap(0.1), gap(0.05), gap(0.025)
    assert g1 > g2 > g3
    assert g2 / g1 == pytest.approx(0.5, abs=0.15)
    assert g3 / g2 == pytest.approx(0.5, abs=0.15)


def test_foc_stationarity_under_control_perturbation():
    """Perturbing one player's control away from the solution changes the
    instantaneous maximand by -eps^2 exactly (quadratic concavity)."""
    rng = np.random.default_rng(3)
    p, b = random_case(rng, n=3)
    sol = solve_equilibrium(p, b)
    believed = [sol.f1[j] + sol.f2 * b.tau_bar[j] for j in range(p.n)]

    def maximand(i, u):
        others = sum(believed) - believed[i]
        return u * (p.a[i] - u - others) + sol.value_slopes[i] * b.x_bar * u

    for i in range(p.n):
        base = maximand(i, sol.controls[i])
        for eps in (1e-3, -1e-3, 1e-4):
            change = maximand(i, sol.controls[i] + eps) - base
            assert change <= 1e-15
            assert abs(change + eps * eps) <= 1e-12 * max(1.0, abs(base))


def test_value_intercepts_satisfy_constant_matching():
    rng = np.random.default_rng(21)
    p, b = random_case(rng, n=2)
    sol = solve_equilibrium(p, b)
    intercepts = value_intercepts(p, b, sol)
    believed = [sol.f1[j] + sol.f2 * b.tau_bar[j] for j in range(p.n)]
    for i in range(p.n):
        others = sum(believed) - believed[i]
        u = sol.controls[i]
        const = u * (p.a[i] - u - others) + sol.value_slopes[i] * b.x_bar * (u + others)
        assert p.rho * intercepts[i] == pytest.approx(const, rel=1e-12)


def test_nonnegativity_condition_examples():
    rep = check_nonnegativity(GameParams(a=(3.0, 3.0), tau=(1.0, 1.0), delta=0.8, rho=0.1))
    assert rep.intercept_ok and rep.intercept_value == pytest.approx(1.0)
    assert rep.discount_ok

    bad_discount = check_nonnegativity(
        GameParams(a=(3.0, 3.0), tau=(1.0, 1.0), delta=0.8, rho=0.3)
    )
    assert not bad_discount.discount_ok

    # Five equal-type players satisfy the type condition.
    p5 = GameParams(a=(3.0,) * 5, tau=(1.0,) * 5, delta=0.8, rho=0.1)
    rep5 = check_nonnegativity(p5)
    assert rep5.type_ok and rep5.all_ok


def test_fault_injection_breaks_stationarity():
    p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.1)
    b = BeliefProfile(0.5, (1.1, 1.0))
    sol = solve_equilibrium(p, b)
    broken = foc_residual(p, b, sol.f1, sol.f2 + 1e-3, sol.value_slopes)
    assert broken > 1e-9


def test_report_is_json_serializable_and_complete():
    p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.1)
    rep = equilibrium_report(p, BeliefProfile(0.5, (1.1, 1.0)), mu_true=0.5)
    payload = json.dumps(rep)
    back = json.loads(payload)
    for key in ("inputs", "f1", "f2", "controls", "foc_residual", "closed_form",
                "nonnegativity", "known_state", "value_intercepts"):
        assert key in back
    assert back["foc_residual"] <= 1e-9


@settings(max_examples=40, derandomize=True)
@given(
    x_bar=st.floats(min_value=0.0, max_value=1.0),
    delta=st.floats(min_value=0.05, max_value=1.0),
    rho=st.floats(min_value=0.02, max_value=0.5),
    tau_i=st.floats(min_value=0.0, max_value=3.0),
)
def test_matched_slope_always_solves_its_equation(x_bar, delta, rho, tau_i):
    from beliefgames.equilibrium import _maximized_rhs

    a = value_slope(tau_i, x_bar, delta, rho)
    coeff = _maximized_rhs(1.0, a, 1.0, tau_i, 0.0, x_bar, delta) - _maximized_rhs(
        0.0, a, 1.0, tau_i, 0.0, x_bar, delta
    )
    assert abs(rho * a - coeff) <= 1e-10 * max(1.0, abs(a))
