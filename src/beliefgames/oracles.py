"""Independent brute-force checkers backing the tests and the verify command.

None of these re-use the code paths they check: the grid posterior works on
the raw likelihood-times-prior surface, and the best-response search only
integrates the raw expected dynamics and quadratures the payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Scenario, SimConfig, default_traces, simulate
from .equilibrium import (
    BeliefProfile,
    GameParams,
    _max_gap,
    closed_form_controls,
    closed_form_value_slope,
    foc_residual,
    known_state_controls,
    known_state_equilibrium,
    solve_equilibrium,
    value_slope,
)
from .errors import GridUnderflowError
from .kalman import (
    KalmanBelief,
    integrate_kalman,
    mean_closed_form,
    variance_closed_form,
)
from .normal_gamma import NormalGammaBelief, belief_path, closed_form_mean
from .signals import SignalTrace


@dataclass(frozen=True)
class BayesGrid:
    """Rectangular evaluation grid over (mean, precision)."""

    mu_lo: float
    mu_hi: float
    n_mu: int
    lam_lo: float
    lam_hi: float
    n_lam: int

    def __post_init__(self):
        if self.mu_hi <= self.mu_lo or self.lam_hi <= self.lam_lo:
            raise ValueError("grid bounds out of order")
        if self.lam_lo <= 0.0:
            raise ValueError("precision grid must be strictly positive")
        if self.n_mu < 2 or self.n_lam < 2:
            raise ValueError("grid needs at least 2 points per axis")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.mu_lo, self.mu_hi, self.n_mu),
            np.linspace(self.lam_lo, self.lam_hi, self.n_lam),
        )


@dataclass(frozen=True)
class GridPosterior:
    mean: float
    variance: float


def _grid_moments(
    xs: np.ndarray, prior: NormalGammaBelief, grid: BayesGrid
) -> tuple[float, float, float, float]:
    mu_ax, lam_ax = grid.axes()
    mu = mu_ax[None, :]
    lam = lam_ax[:, None]
    loglam = np.log(lam)
    # Normal-Gamma prior density (up to constants) times the normal likelihood
    # of every observation; everything in log space.
    # Overflow of a squared residual drives logp to -inf, which is exactly the
    # underflow condition detected below; silence only that warning.
    with np.errstate(over="ignore"):
        logp = (
            (prior.alpha - 0.5) * loglam
            - prior.beta * lam
            - 0.5 * prior.kappa * lam * (mu - prior.mu_hat) ** 2
        )
        for x in xs:
            logp = logp + (0.5 * loglam - 0.5 * lam * (x - mu) ** 2)
    peak = float(np.max(logp))
    if not math.isfinite(peak):
        raise GridUnderflowError("all posterior grid weights underflowed to zero")
    w = np.exp(logp - peak)
    z = float(w.sum())
    if z <= 0.0 or not math.isfinite(z):
        raise GridUnderflowError("posterior grid normalization failed")
    mu_mean = float((w * mu).sum() / z)
    mu_var = float((w * mu**2).sum() / z - mu_mean**2)
    lam_mean = float((w * lam).sum() / z)
    lam_var = float((w * lam**2).sum() / z - lam_mean**2)
    return mu_mean, mu_var, lam_mean, lam_var


def _wide_grid(xs: np.ndarray, prior: NormalGammaBelief, n_mu, n_lam) -> BayesGrid:
    # First-pass ranges: generous enough to contain the posterior mass whether
    # the prior or the data dominates.
    prior_mu_sd = math.sqrt(prior.beta / (prior.kappa * prior.alpha))
    prior_lam_mean = prior.alpha / prior.beta if prior.beta > 0 else 1.0
    if xs.size:
        centre_lo = min(prior.mu_hat, float(xs.min()))
        centre_hi = max(prior.mu_hat, float(xs.max()))
        s = float(xs.std()) if xs.size > 1 else prior_mu_sd
    else:
        centre_lo = centre_hi = prior.mu_hat
        s = prior_mu_sd
    spread = 8.0 * max(s, prior_mu_sd, 1e-8)
    lam_hi = 8.0 * max(prior_lam_mean, 1.0 / max(s * s, 1e-12))
    return BayesGrid(
        mu_lo=centre_lo - spread,
        mu_hi=centre_hi + spread,
        n_mu=n_mu,
        lam_lo=lam_hi / (10.0 * n_lam),
        lam_hi=lam_hi,
        n_lam=n_lam,
    )


def grid_bayes_posterior(
    observations,
    prior: NormalGammaBelief,
    grid: BayesGrid | None = None,
    n_mu: int = 400,
    n_lam: int = 400,
) -> GridPosterior:
    """Posterior mean/variance of the unknown mean by 2-d grid integration.

    Numerically normalizes likelihood times prior on a (mean, precision)
    grid; shares no arithmetic with the conjugate updates it is used to
    check.  Without an explicit grid, a wide first pass locates the posterior
    mass and a second pass of the same resolution zooms onto it.
    """
    if isinstance(observations, SignalTrace):
        xs = np.asarray(observations.values, dtype=float)
    else:
        xs = np.asarray(list(observations), dtype=float)
    if xs.size and not np.all(np.isfinite(xs)):
        raise ValueError("observations must be finite")
    if grid is not None:
        mean, var, _, _ = _grid_moments(xs, prior, grid)
        return GridPosterior(mean=mean, variance=var)
    coarse = _wide_grid(xs, prior, n_mu, n_lam)
    mu_mean, mu_var, lam_mean, lam_var = _grid_moments(xs, prior, coarse)
    mu_sd = math.sqrt(max(mu_var, 1e-300))
    lam_sd = math.sqrt(max(lam_var, 1e-300))
    fine = BayesGrid(
        mu_lo=mu_mean - 10.0 * mu_sd,
        mu_hi=mu_mean + 10.0 * mu_sd,
        n_mu=n_mu,
        lam_lo=max(lam_mean - 8.0 * lam_sd, lam_mean * 1e-3, 1e-300),
        lam_hi=lam_mean + 8.0 * lam_sd,
        n_lam=n_lam,
    )
    mean, var, _, _ = _grid_moments(xs, prior, fine)
    return GridPosterior(mean=mean, variance=var)


@dataclass(frozen=True)
class BestResponseResult:
    best_value: float
    best_control: float
    controls: np.ndarray
    values: np.ndarray


def best_response_value(
    p: GameParams,
    b: BeliefProfile,
    controls,
    player: int,
    deviations,
    t_trunc: float,
    h: float = 0.01,
) -> BestResponseResult:
    """Exhaustive constant-deviation search for one player.

    Every candidate control is run through the frozen-belief expected
    dynamics and scored by trapezoid quadrature of the discounted payoff over
    [0, t_trunc].  Ties resolve to the lowest grid index.
    """
    devs = np.asarray(list(deviations), dtype=float)
    if devs.size == 0:
        raise ValueError("empty deviation grid")
    others_total = float(sum(controls) - controls[player])
    a_i = p.a[player]
    tau_i = p.tau[player]
    lam = 1.0 - b.x_bar * p.delta
    n_steps = max(1, int(math.ceil(t_trunc / h - 1e-9)))
    margin = devs * (a_i - devs - others_total)
    drive = b.x_bar * (devs + others_total)
    stock = np.full_like(devs, p.s0)
    values = np.zeros_like(devs)
    disc_now = 1.0
    g_now = margin - tau_i * stock
    h2 = 0.5 * h
    for i in range(n_steps):
        k1 = drive - lam * stock
        k2 = drive - lam * (stock + h2 * k1)
        k3 = drive - lam * (stock + h2 * k2)
        k4 = drive - lam * (stock + h * k3)
        stock = stock + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        disc_next = math.exp(-p.rho * (i + 1) * h)
        g_next = margin - tau_i * stock
        values += h2 * (disc_now * g_now + disc_next * g_next)
        disc_now, g_now = disc_next, g_next
    best = int(np.argmax(values))
    return BestResponseResult(
        best_value=float(values[best]),
        best_control=float(devs[best]),
        controls=devs,
        values=values,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float | None
    observed: float
    note: str = ""

    @property
    def passed(self) -> bool:
        # A NaN fails a gated check; an informational delta always passes.
        return self.tolerance is None or bool(self.observed <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "observed": float(self.observed),
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def closed_form_cross_check(
    scn: Scenario, cfg: SimConfig, seed: int, perturb_f2: float = 0.0
) -> VerificationReport:
    """Run every closed-form oracle on the run of ``(scn, cfg, seed)``.

    Aggregates the belief and Kalman closed-form comparisons, the equilibrium
    stationarity check (optionally fault-injected through ``perturb_f2``),
    and the published-formula delta reports.  Each check passes by its own
    tolerance; the deltas have none and never fail.
    """
    checks: list[CheckResult] = []

    def check(name, observed, tolerance=None, note=""):
        if tolerance is None:
            note = "informational delta vs the published closed form"
        checks.append(CheckResult(name, tolerance, observed, note))

    traces = default_traces(scn, cfg, seed)
    eco, cost = traces.ecological, traces.cost[0]
    # Largest step <= 1e-3 that divides h_ode, and with it the hold
    # interval and the horizon, both of which h_ode divides.
    h = cfg.h_ode / max(1, math.ceil(cfg.h_ode / 1e-3 - 1e-9))

    # Mean estimate vs its closed form over the whole grid (zero-mean
    # prior, where the printed constant matches the ODE initial condition).
    prior = NormalGammaBelief(0.0, scn.kappa0, scn.alpha0, scn.beta0)
    path = belief_path(prior, eco, cfg.horizon, h)
    cf = closed_form_mean(eco, 0.0, scn.kappa0, path.t)
    rel = np.abs(path.mu_hat - cf) / np.maximum(np.abs(cf), 1e-12)
    note = "relative sup over the grid, zero-mean prior"
    check("motion-mean-closed-form", float(rel.max()), 1e-8, note)

    # kappa/alpha affinity.
    aff = max(
        float(np.max(np.abs(path.kappa - (scn.kappa0 + path.t)))),
        float(np.max(np.abs(path.alpha - (scn.alpha0 + 0.5 * path.t)))),
    )
    check("motion-affine-hyperparams", aff, 1e-12)

    # Kalman variance: ODE integration vs the exact solution.
    kb = KalmanBelief(0.0, scn.p0[0], scn.r[0])
    ode = integrate_kalman(kb, cost, cfg.horizon, h, p_mode="ode")
    p_exact = variance_closed_form(kb.P, kb.R, cfg.horizon)
    check("kalman-variance-closed-form", abs(ode.P - p_exact) / p_exact, 1e-6)

    # Kalman mean closed form (valid for a zero initial estimate).
    exact_mode = integrate_kalman(kb, cost, cfg.horizon, h)
    tau_cf = mean_closed_form(cost, kb.P, kb.R, cfg.horizon)
    tau_gap = abs(exact_mode.tau_hat - tau_cf) / max(abs(tau_cf), 1e-12)
    check("kalman-mean-closed-form", tau_gap, 1e-8, "zero initial estimate")

    # Stationarity of the solved equilibrium at converged beliefs.
    params, mu = scn.params, scn.mu_true
    beliefs = BeliefProfile(x_bar=mu, tau_bar=params.tau)
    sol = solve_equilibrium(params, beliefs)
    f2 = sol.f2 + perturb_f2
    res = foc_residual(params, beliefs, sol.f1, f2, sol.value_slopes)
    check("equilibrium-foc", res, 1e-9, "fault-injected" if perturb_f2 else "")

    # Published-formula deltas; informational, reported but never gated.
    # Controls at the run's final beliefs; the known state is the last row.
    traj = simulate(scn, cfg, traces=traces)
    final = BeliefProfile(float(traj.x_bar[-1]), traj.tau_bar[-1])
    cf_controls = closed_form_controls(params, final)
    sol_final = solve_equilibrium(params, final)
    check("published-controls-delta", _max_gap(cf_controls, sol_final.controls))
    cf_slope = closed_form_value_slope(1.0, mu, params.delta, params.rho)
    sol_slope = value_slope(1.0, mu, params.delta, params.rho)
    check("published-value-slope-delta", abs(cf_slope - sol_slope))
    known_cf = known_state_controls(params, mu)
    known_sol = known_state_equilibrium(params, mu)
    check("published-known-state-delta", _max_gap(known_cf, known_sol.controls))
    return VerificationReport(checks=checks)
