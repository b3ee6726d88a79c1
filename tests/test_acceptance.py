"""Acceptance suite: one test per go/no-go criterion.

Each test pins the criterion's tolerance, asserts its runtime budget, and
prints one PASS line (visible with ``pytest -s`` or ``-rP``).  Scenario
constants not fixed by the protocol are repository defaults.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

from beliefgames import (
    BeliefProfile,
    GameParams,
    KalmanBelief,
    NormalGammaBelief,
    Scenario,
    SimConfig,
    belief_path,
    best_response_value,
    check_nonnegativity,
    compare_schemes,
    equilibrium_report,
    grid_bayes_posterior,
    sample_cost_trace,
    sample_ecological_trace,
    simulate,
    solve_equilibrium,
    step_discrete,
    variance_closed_form,
    variance_path,
    window_diagnostics,
)
from beliefgames.cli import main as cli_main
from conftest import zero_prior_mean


class budget:
    """Measure a criterion's runtime and enforce its budget."""

    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.elapsed = None

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self._t0
        if exc_type is None:
            assert self.elapsed < self.limit_s, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.limit_s}s"
            )
        return False


def report(criterion, detail, timer):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {timer.elapsed:.2f}s)")


def test_c1_protocol_fidelity():
    """dt=0.02 over horizon 10 yields exactly 500 signals per source."""
    with budget(1.0) as timer:
        eco = sample_ecological_trace(0.5, 0.2, dt=0.02, horizon=10.0, seed=1)
        costs = [
            sample_cost_trace(1.0, 0.25, 0.02, 10.0, seed=j + 2) for j in range(2)
        ]
        assert len(eco) == 500
        assert all(len(c) == 500 for c in costs)
    report("1 protocol-fidelity", "500 epochs per source", timer)


def test_c2_belief_closed_forms():
    """Integrated beliefs match their closed forms on the full [0, 10] grid."""
    with budget(5.0) as timer:
        trace = sample_ecological_trace(0.5, 0.2, 0.02, 10.0, seed=42)
        prior = NormalGammaBelief(0.0, 1.0, 2.0, 1.0)
        path = belief_path(prior, trace, 0.001, np.arange(10001))
        expected = zero_prior_mean(trace, 1.0 + 1.0, path.t)
        rel = np.abs(path.mu_hat - expected) / np.maximum(np.abs(expected), 1e-12)
        assert float(rel.max()) <= 1e-8
        assert np.all(path.kappa == 1.0 + path.t)
        assert np.all(path.alpha == 2.0 + 0.5 * path.t)

        p_ode = variance_path(KalmanBelief(0.0, 1.0, 0.25), 0.001, np.arange(10001))
        t_ode = 0.001 * np.arange(p_ode.size)
        p_expected = np.array(
            [variance_closed_form(1.0, 0.25, float(t)) for t in t_ode]
        )
        p_rel = np.abs(p_ode - p_expected) / p_expected
        assert float(p_rel.max()) <= 1e-6
    report(
        "2 belief-closed-forms",
        f"mu rel {rel.max():.1e}, P rel {p_rel.max():.1e}",
        timer,
    )


def test_c3_grid_bayes_oracle():
    """50 unit-interval conjugate updates agree with the 400x400 grid posterior."""
    with budget(30.0) as timer:
        rng = np.random.default_rng(3)
        xs = 0.5 + 0.2 * rng.standard_normal(50)
        belief = NormalGammaBelief(0.0, 1.0, 2.0, 1.0)
        for x in xs:
            belief = step_discrete(belief, float(x), 1.0)
        post = grid_bayes_posterior(xs, NormalGammaBelief(0.0, 1.0, 2.0, 1.0))
        rel = abs(post.mean - belief.mu_hat) / abs(belief.mu_hat)
        assert rel <= 1e-3
    report("3 grid-bayes-oracle", f"relative gap {rel:.2e}", timer)


def test_c4_equilibrium_correctness():
    """Stationarity residual on 100 random draws plus best-response searches."""
    with budget(120.0) as timer:
        rng = np.random.default_rng(11)
        draws = 0
        while draws < 100:
            n = int(rng.integers(1, 6))
            delta = rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.02, 0.5)
            x_bar = rng.uniform(0.0, 1.0)
            if abs(1.0 - x_bar * delta - rho) <= 0.05:
                continue
            p = GameParams(
                a=tuple(rng.uniform(1, 5, n)),
                tau=tuple(rng.uniform(0.2, 2, n)),
                delta=delta,
                rho=rho,
            )
            b = BeliefProfile(x_bar=x_bar, tau_bar=tuple(rng.uniform(0.2, 2, n)))
            assert solve_equilibrium(p, b).foc_residual <= 1e-9
            draws += 1

        br_cases = [
            (GameParams(a=(2.0,), tau=(1.0,), delta=0.5, rho=0.25, s0=0.3),
             BeliefProfile(0.5, (0.8,))),
            (GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.25, s0=0.5),
             BeliefProfile(0.5, (1.1, 1.0))),
            (GameParams(a=(3.0, 2.5, 3.5), tau=(1.0, 0.8, 1.2), delta=0.7,
                        rho=0.25, s0=0.5),
             BeliefProfile(0.6, (0.9, 1.0, 1.1))),
        ]
        worst_rel = 0.0
        for p, b in br_cases:
            sol = solve_equilibrium(p, b)
            believed = [sol.f1[j] + sol.f2 * b.tau_bar[j] for j in range(p.n)]
            for i in range(p.n):
                devs = sol.controls[i] + np.linspace(-0.5, 0.5, 201)
                step = float(devs[1] - devs[0])
                res = best_response_value(p, b, believed, i, devs, 70.0, h=0.01)
                base = best_response_value(
                    p, b, believed, i, [sol.controls[i]], 70.0, h=0.01
                ).best_value
                grid_bound = (step / 2.0) ** 2 / p.rho
                improvement = res.best_value - base
                assert improvement <= 1e-4 * abs(base) + grid_bound
                worst_rel = max(worst_rel, improvement / max(abs(base), 1e-12))
    report(
        "4 equilibrium-correctness",
        f"100 draws foc<=1e-9, worst BR improvement ratio {worst_rel:.1e}",
        timer,
    )


def test_c5_closed_form_comparison_report():
    """Published-formula deltas are emitted for n = 1..5 (match not required)."""
    with budget(1.0) as timer:
        deltas = {}
        for n in range(1, 6):
            p = GameParams(
                a=tuple(3.0 + 0.2 * i for i in range(n)),
                tau=tuple(0.8 + 0.1 * i for i in range(n)),
                delta=0.8,
                rho=0.1,
            )
            rep = equilibrium_report(p, 0.5)
            cf = rep["closed_form"]
            known = rep["known_state"]
            assert np.isfinite(cf["control_delta_max"])
            assert np.isfinite(cf["value_slope_delta_max"])
            assert np.isfinite(known["control_delta_max"])
            json.dumps(rep)  # must be emittable
            deltas[n] = cf["control_delta_max"]
    report(
        "5 closed-form-comparison",
        "deltas " + ", ".join(f"n={n}:{d:.3f}" for n, d in deltas.items()),
        timer,
    )


def test_c6_convergence_at_desk_scale():
    """Tail-window gaps beat the [10, 20] window in >= 95 of 100 seeds."""
    with budget(120.0) as timer:
        p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.1, s0=0.1)
        scn = Scenario(params=p, mu_true=0.5, sigma=0.2, tau0=(0.6, 0.6),
                       p0=(1.0, 1.0), r=(0.25, 0.25))
        cfg = SimConfig(dt_signal=0.05, h_ode=0.05, horizon=200.0)
        counts = dict(x=0, tau=0, var=0, p=0, u=0)
        p_bound = variance_closed_form(1.0, 0.25, 200.0) * (1.0 + 1e-6)
        for j in range(100):
            traj = simulate(scn, cfg, seed=1000 + j)
            tail = window_diagnostics(traj, scn, 190.0, 200.0)
            mid = window_diagnostics(traj, scn, 10.0, 20.0)
            counts["x"] += tail.x_gap < mid.x_gap
            counts["tau"] += tail.tau_gap < mid.tau_gap
            counts["var"] += tail.var_mu < mid.var_mu
            counts["p"] += tail.p_max < mid.p_max
            counts["u"] += tail.control_gap < mid.control_gap
            assert np.all(traj.P[-1] <= p_bound)
        for metric, wins in counts.items():
            assert wins >= 95, f"{metric}: only {wins}/100 seeds improved"
    report(
        "6 convergence",
        "wins " + ", ".join(f"{k}={v}" for k, v in counts.items()),
        timer,
    )


def test_c7_scheme_agreement():
    """Discrete-vs-continuous gaps shrink monotonically as dt halves."""
    with budget(60.0) as timer:
        p = GameParams(a=(3.0, 3.0), tau=(1.0, 1.2), delta=0.8, rho=0.1, s0=0.1)
        scn = Scenario(params=p, mu_true=0.5, sigma=0.2, tau0=(0.6, 0.6),
                       p0=(1.0, 1.0), r=(0.25, 0.25))
        cfg = SimConfig(dt_signal=0.16, h_ode=0.02, horizon=10.0)
        rows = compare_schemes(scn, cfg, [0.16, 0.08, 0.04, 0.02], seed=11)
        for field in ("x_bar", "tau_bar", "u", "stock"):
            gaps = [getattr(r, field) for r in rows]
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])), field
        x_gaps = [r.x_bar for r in rows]
        ratios = [g2 / g1 for g1, g2 in zip(x_gaps, x_gaps[1:])]
        assert all(r <= 0.7 for r in ratios)
    report(
        "7 scheme-agreement",
        "x-series ratios " + ", ".join(f"{r:.2f}" for r in ratios),
        timer,
    )


def test_c8_nonnegativity():
    """A condition-passing scenario stays non-negative along the whole run."""
    with budget(30.0) as timer:
        p = GameParams(a=(3.0,) * 5, tau=(1.0,) * 5, delta=0.8, rho=0.1, s0=0.5)
        conditions = check_nonnegativity(p)
        assert conditions.all_ok
        scn = Scenario(params=p, mu_true=0.5, sigma=0.05, tau0=(1.0,) * 5,
                       p0=(1.0,) * 5, r=(0.25,) * 5)
        traj = simulate(scn, SimConfig(), seed=29)
        assert np.all(traj.x_real > 0.0) and np.all(traj.x_real <= 1.0)
        min_u = float(np.min(traj.u))
        min_s = float(np.min(traj.S))
        assert min_u >= 0.0
        assert min_s >= 0.0
        post = check_nonnegativity(p, trajectory=traj)
        assert min(post.min_controls) == min_u and post.min_stock == min_s
        assert len(post.min_controls) == 5
    report("8 nonnegativity", f"min u {min_u:.3f}, min S {min_s:.3f}", timer)


def test_c9_determinism_and_replay(tmp_path):
    """Identical configs give byte-identical CSVs; saved traces replay exactly."""
    with budget(30.0) as timer:
        runner = CliRunner()
        d1, d2, gen, rep = (tmp_path / s for s in ("one", "two", "gen", "rep"))
        for out in (d1, d2):
            r = runner.invoke(cli_main, ["--out", str(out), "simulate"])
            assert r.exit_code == 0, r.output
        assert (d1 / "trajectory.csv").read_bytes() == (
            d2 / "trajectory.csv"
        ).read_bytes()
        assert runner.invoke(cli_main, ["--out", str(gen), "gen-traces"]).exit_code == 0
        r = runner.invoke(
            cli_main, ["--out", str(rep), "simulate", "--traces", str(gen)]
        )
        assert r.exit_code == 0, r.output
        assert (d1 / "trajectory.csv").read_bytes() == (
            rep / "trajectory.csv"
        ).read_bytes()
    report("9 determinism-replay", "byte-identical outputs", timer)
