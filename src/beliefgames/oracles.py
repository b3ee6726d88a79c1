"""Independent brute-force checkers backing the tests and the verify command.

None of these re-use the code paths they check.  The grid posterior
normalizes the raw normal likelihood times the Normal-Gamma prior on a
(mean, precision) grid, evaluated from the observations' count, mean and
centred sum of squares, and zooms onto the posterior mass pass by pass.  The
best-response search scores each constant deviation by the trapezoid sum of
its discounted payoff along the classical RK4 recurrence of the frozen-belief
expected dynamics, summed in closed form as geometric series.
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
        for name in ("mu_lo", "mu_hi", "lam_lo", "lam_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"grid bound {name} must be finite, got {getattr(self, name)}")
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
    mu, lam = grid.axes()
    n = xs.size
    xbar = float(xs.mean()) if n else 0.0
    # Normal-Gamma prior density (up to constants) times the normal likelihood
    # of the observations, in log space; the likelihood's sum of squared
    # residuals sum (x - mu)^2 enters in centred form, SS + n (xbar - mu)^2.
    # Overflow of a squared residual drives logp to -inf, which is exactly the
    # underflow condition detected below; silence only that warning.
    with np.errstate(over="ignore"):
        ss = float(np.sum((xs - xbar) ** 2))
        rate = prior.beta + 0.5 * (
            ss + n * (xbar - mu) ** 2 + prior.kappa * (mu - prior.mu_hat) ** 2
        )
        logp = -lam[:, None] * rate
    logp += (prior.alpha - 0.5 + 0.5 * n) * np.log(lam)[:, None]
    peak = float(np.max(logp))
    if not math.isfinite(peak):
        raise GridUnderflowError("all posterior grid weights underflowed to zero")
    logp -= peak
    w = np.exp(logp, out=logp)
    z = float(w.sum())
    if z <= 0.0 or not math.isfinite(z):
        raise GridUnderflowError("posterior grid normalization failed")
    # Central moments of the two marginals.
    w_mu = w.sum(axis=0) / z
    w_lam = w.sum(axis=1) / z
    mu_mean = float(w_mu @ mu)
    lam_mean = float(w_lam @ lam)
    mu_var = float(w_mu @ (mu - mu_mean) ** 2)
    lam_var = float(w_lam @ (lam - lam_mean) ** 2)
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


# The zoom stops once the sd of the mean spans this share of the window (10
# cells at the default 400), and gives up after this many passes.
_RESOLVED_SHARE = 1.0 / 40.0
_MAX_PASSES = 8


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
    check.  An explicit grid is integrated once.  Otherwise the first pass
    spans the prior and the data, and each further pass of the same
    resolution is centred on the last one's means: +/- 10 max(sd, cell step)
    in the mean and +/- 8 max(sd, cell step) in the precision, so a posterior
    narrower than one cell still gets a window.  The zoom stops once the sd
    of the mean spans 1/40 of the window; ``GridUnderflowError`` if it has
    not after 8 passes, or if the window falls below the float spacing.
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
    grid = _wide_grid(xs, prior, n_mu, n_lam)
    for passes in range(1, _MAX_PASSES + 1):
        mu_mean, mu_var, lam_mean, lam_var = _grid_moments(xs, prior, grid)
        mu_sd = math.sqrt(mu_var)
        width = grid.mu_hi - grid.mu_lo
        if mu_sd >= _RESOLVED_SHARE * width:
            return GridPosterior(mean=mu_mean, variance=mu_var)
        mu_half = 10.0 * max(mu_sd, width / (n_mu - 1))
        lam_half = 8.0 * max(math.sqrt(lam_var), (grid.lam_hi - grid.lam_lo) / (n_lam - 1))
        if not mu_mean - mu_half < mu_mean + mu_half:
            break  # narrower than the float spacing at the mean
        grid = BayesGrid(
            mu_lo=mu_mean - mu_half,
            mu_hi=mu_mean + mu_half,
            n_mu=n_mu,
            lam_lo=max(lam_mean - lam_half, lam_mean * 1e-3),
            lam_hi=lam_mean + lam_half,
            n_lam=n_lam,
        )
    raise GridUnderflowError(
        f"grid zoom did not resolve the posterior mean (pass {passes} of at most "
        f"{_MAX_PASSES}: sd {mu_sd:.3g} on a window of width {width:.3g})"
    )


@dataclass(frozen=True)
class BestResponseResult:
    best_value: float
    best_control: float
    controls: np.ndarray
    values: np.ndarray


def _geometric(log_r: float, n: int) -> float:
    """sum_{k<n} r^k for r = exp(log_r), exact as r -> 1."""
    return float(n) if log_r == 0.0 else math.expm1(n * log_r) / math.expm1(log_r)


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
    dynamics S' = drive - lam*S by classical RK4 steps of size h and scored by
    trapezoid quadrature of the discounted payoff over the ceil(t_trunc/h)
    steps covering [0, t_trunc].  The RK4 recurrence and the payoff sum are
    evaluated in closed form, so the cost does not grow with the number of
    steps; a payoff beyond the float range raises ``OverflowError``.  Ties
    resolve to the lowest grid index.
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
    # One RK4 step with a constant control is S <- g*S + h*phi*drive, with
    # z = lam*h, phi = 1 - z/2 + z^2/6 - z^3/24 and g = 1 - z*phi > 0, so
    # S_k = g^k s0 + h*phi*drive*E_k, E_k = sum_{j<k} g^j.  With q = exp(-rho*h)
    # and trapezoid weights w_k, the value h*sum_k w_k q^k (margin - tau*S_k)
    # is a sum of geometric series in q and q*g.
    z = lam * h
    phi = 1.0 - z / 2.0 + z * z / 6.0 - z**3 / 24.0
    log_q = -p.rho * h
    log_g = math.log1p(-z * phi)
    log_qg = log_q + log_g

    def trapezoid(log_r):
        return _geometric(log_r, n_steps) + 0.5 * math.expm1(n_steps * log_r)

    t_q, t_qg = trapezoid(log_q), trapezoid(log_qg)
    # e_sum = h*phi*sum_k w_k q^k E_k, in whichever form does not divide by a
    # small number: by 1 - g = z*phi (which gives the fixed point drive/lam)
    # or by 1 - q, after swapping the order of the double sum.
    if abs(z) >= p.rho * h:
        e_sum = (t_q - t_qg) / lam
    else:
        q_n = math.exp(n_steps * log_q)
        g_sum = _geometric(log_g, n_steps)
        e_sum = h * phi * (
            (_geometric(log_qg, n_steps) - q_n * g_sum) / math.expm1(p.rho * h)
            - 0.5 * q_n * g_sum
        )
    values = h * (margin * t_q - tau_i * (p.s0 * t_qg + drive * e_sum))
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
