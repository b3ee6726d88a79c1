"""Output checks that share no arithmetic with the paths they check.

Every check returns a list of failure reasons, each ``"<check>: <detail>"``;
an empty list means the output passed.  Filter means are compared with their
exact solutions computed here from numpy prefix sums of the trace values,
controls with ``solve_equilibrium`` (a linear solve, where the engine uses the
scalar aggregation identity), and oracle results with their closed forms and
the acceptance tolerances (C3, C4, C7).

Two failure classes are expected at the commit this benchmark was written
against (see ``KNOWN_DEFECTS``): the grid-Bayes coarse pass missing the
posterior mass on long traces, recognised by replaying the two passes, and a
compare-dt gap column that grows at a halving, tolerated up to the measured
rate.  Ops that show only those are counted apart from failed ops, as
known-defect ops; any other failure fails its op and marks the run as
incorrect.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from beliefgames import equilibrium

REL_TOL = 1e-9
FOC_TOL = 1e-9
GRID_REL_TOL = 1e-3  # C3
BR_REL_TOL = 1e-4  # C4
KNOWN_DEFECTS = frozenset({"grid-bayes-coarse-collapse", "dt-gaps-level-noise"})


def unexpected(reasons: list[str], known: frozenset[str] = KNOWN_DEFECTS) -> list[str]:
    return [r for r in reasons if r.split(":", 1)[0] not in known]


def tolerated(failures: list[dict], kinds: Counter) -> frozenset[str]:
    """The known defects a run tolerates: the level noise only up to its measured rate."""
    if level_noise_excess(failures, kinds):
        return KNOWN_DEFECTS - {"dt-gaps-level-noise"}
    return KNOWN_DEFECTS


def _rel_gap(observed: np.ndarray, expected: np.ndarray) -> float:
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.max(np.abs(observed - expected) / np.maximum(np.abs(expected), 1e-12)))


def hold_integral(values: np.ndarray, dt: float, t: np.ndarray) -> np.ndarray:
    """Integral over [0, t] of the zero-order-hold signal ``values`` (hold ``dt``)."""
    cum = np.concatenate(([0.0], np.cumsum(values) * dt))
    k = np.floor(t / dt + 1e-9).astype(np.int64)
    inside = k < values.size
    k_val = np.minimum(k, values.size - 1)
    frac = np.where(inside, t - k * dt, 0.0)
    return cum[np.minimum(k, values.size)] + values[k_val] * frac


def continuous_beliefs(t, x_bar, tau_bar, P, eco, costs, dt, scn) -> list[str]:
    """x_bar, tau_bar and P against the exact solutions of their filter ODEs."""
    out = []
    k0 = scn.kappa0 + 1.0
    x_cf = (scn.mu0 * k0 + hold_integral(eco, dt, t)) / (k0 + t)
    gap = _rel_gap(x_bar, x_cf)
    if not gap <= REL_TOL:
        out.append(f"x_bar-closed-form: relative gap {gap:.3g}")
    for j, y in enumerate(costs):
        p0, r, tau0 = scn.p0[j], scn.r[j], scn.tau0[j]
        tau_cf = (r * tau0 + p0 * hold_integral(y, dt, t)) / (p0 * t + r)
        gap = _rel_gap(tau_bar[:, j], tau_cf)
        if not gap <= REL_TOL:
            out.append(f"tau_bar-closed-form: player {j + 1} relative gap {gap:.3g}")
        gap = _rel_gap(P[:, j], p0 * r / (t * p0 + r))
        if not gap <= REL_TOL:
            out.append(f"P-closed-form: player {j + 1} relative gap {gap:.3g}")
    return out


def discrete_mean(t, x_bar, eco, dt, scn) -> list[str]:
    """x_bar at each epoch end against the dt-scaled conjugate recursion."""
    n_ep = int(round(t[-1] / dt))
    m = np.empty(n_ep + 1)
    m[0] = scn.mu0
    for k in range(n_ep):
        m[k + 1] = m[k] + dt * (eco[k] - m[k]) / (scn.kappa0 + k * dt + 1.0)
    idx = np.searchsorted(t, np.arange(n_ep + 1) * dt - 1e-9)
    gap = _rel_gap(x_bar[idx], m)
    return [] if gap <= REL_TOL else [f"x_bar-discrete-recursion: relative gap {gap:.3g}"]


def controls_and_stock(params, x_bar, tau_bar, u, S, samples: int = 16) -> list[str]:
    """Recorded controls equal solve_equilibrium at the recorded beliefs; S finite."""
    out = []
    if not np.all(np.isfinite(S)):
        out.append("S-finite: non-finite stock")
    worst = 0.0
    for i in np.unique(np.linspace(0, x_bar.size - 1, samples).astype(np.int64)):
        beliefs = equilibrium.BeliefProfile(
            x_bar=float(x_bar[i]), tau_bar=tuple(float(v) for v in tau_bar[i])
        )
        ref = np.array(equilibrium.solve_equilibrium(params, beliefs).controls)
        worst = max(worst, float(np.max(np.abs(u[i] - ref) / np.maximum(np.abs(ref), 1.0))))
    if not worst <= REL_TOL:
        out.append(f"u-vs-solve_equilibrium: gap {worst:.3g}")
    return out


def read_trace_values(path: Path, dt: float, n_expected: int) -> tuple[np.ndarray, list[str]]:
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    out = []
    if rows.shape[0] != n_expected:
        out.append(f"trace-rows: {path.name} has {rows.shape[0]} rows, expected {n_expected}")
    elif not np.allclose(rows[:, 0], np.arange(n_expected) * dt, rtol=0.0, atol=1e-9):
        out.append(f"trace-times: {path.name} t column off the hold grid")
    if not np.all(np.isfinite(rows[:, 1])):
        out.append(f"trace-finite: {path.name}")
    return rows[:, 1], out


def read_trajectory(path: Path, n: int) -> dict[str, np.ndarray]:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {
        "t": rows[:, 0],
        "S": rows[:, 1],
        "x_bar": rows[:, 3],
        "tau_bar": rows[:, 5 : 5 + n],
        "P": rows[:, 5 + n : 5 + 2 * n],
        "u": rows[:, 5 + 2 * n : 5 + 3 * n],
    }


# Each dt level subsamples the signals differently, so the O(dt) gap's
# constant is redrawn per level and a column can grow at one halving: over
# 3600 generated pipeline scenarios (n = 2..10, p0/r up to 9, dt list 0.08,
# 0.04, 0.02), 2.5% had a growing column, by up to 2x, most often the stock
# gap; in timed runs 2.7-3.2% of compare-dt ops did.  A run tolerates it in at
# most 2 + 10% of its compare-dt ops, which a 3.2% rate exceeds with odds of
# about 1e-5 in a run of 100 such ops and 1e-3 in a run of 45.
LEVEL_NOISE_FREE = 2
LEVEL_NOISE_SHARE = 0.1


def gaps_shrink(path: Path) -> list[str]:
    """C7: every dt_gaps.csv column strictly decreasing as dt halves."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = rows[np.argsort(-rows[:, 0])]
    out = []
    for col, name in enumerate(("gap_x_bar", "gap_tau_bar", "gap_u", "gap_S"), start=1):
        steps = rows[1:, col] / rows[:-1, col]
        if not np.all(steps < 1.0):
            out.append(f"dt-gaps-level-noise: {name} not strictly decreasing, ratios {np.round(steps, 3).tolist()}")
    return out


def level_noise_excess(failures: list[dict], kinds: Counter) -> list[str]:
    """More compare-dt ops with a growing gap than the measured rate allows."""
    noisy = sum(any(r.startswith("dt-gaps-level-noise:") for r in f["reasons"]) for f in failures)
    limit = LEVEL_NOISE_FREE + LEVEL_NOISE_SHARE * kinds["compare-dt"]
    if noisy <= limit:
        return []
    return [f"dt-gaps-level-noise-rate: {noisy} of {kinds['compare-dt']} compare-dt ops, limit {limit:g}"]


def equilibrium_json(path: Path) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    res = report["foc_residual"]
    return [] if res <= FOC_TOL else [f"equilibrium-foc: residual {res:.3g}"]


def verification_json(path: Path) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    if report["all_passed"]:
        return []
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    return [f"verify-all-passed: failed {', '.join(failed)}"]


# -- the known grid-Bayes defect ---------------------------------------------
#
# grid_bayes_posterior makes a wide first pass of 400 x 400 (mean, precision)
# cells, takes the mean and sd of both from it, and integrates again on a
# window of +/- 10 sd in the mean and +/- 8 sd in the precision.  Once the
# posterior sd of the mean (about sigma/sqrt(n)) falls below the first pass's
# mean step, the first-pass moments collapse and the window misses the mass:
# relative errors of 1e-3 to 4e-2 from 500 observations up, or a zero-width
# window that raises.  The functions below replay those two passes on the
# exact log posterior, from sufficient statistics rather than the oracle's
# per-observation sum, and a miss is tolerated only when the oracle returned
# what the replay predicts.

GRID_CELLS = 400
REPLAY_REL_TOL = 1e-9  # the replay agreed with the oracle to within 6e-12
# Below this relative first-pass sd the variance is rounding noise of
# E[mu^2] - E[mu]^2, and the window the oracle draws from it is not
# reproducible: it either raises or stays within a hair of the first-pass mean.
COLLAPSED_SD = 1e-6


def _grid_pass(xs: np.ndarray, prior, mu_lo, mu_hi, lam_lo, lam_hi) -> tuple[float, float, float, float]:
    mu = np.linspace(mu_lo, mu_hi, GRID_CELLS)[None, :]
    lam = np.linspace(lam_lo, lam_hi, GRID_CELLS)[:, None]
    n, xbar = xs.size, float(np.mean(xs))
    ss = float(np.sum((xs - xbar) ** 2))
    rate = prior.beta + 0.5 * (ss + n * (xbar - mu) ** 2 + prior.kappa * (mu - prior.mu_hat) ** 2)
    logp = (prior.alpha - 0.5 + 0.5 * n) * np.log(lam) - lam * rate
    w = np.exp(logp - np.max(logp))
    z = float(w.sum())
    mu_mean = float((w * mu).sum() / z)
    lam_mean = float((w * lam).sum() / z)
    mu_var = float((w * mu**2).sum() / z - mu_mean**2)
    lam_var = float((w * lam**2).sum() / z - lam_mean**2)
    return mu_mean, mu_var, lam_mean, lam_var


def replay_two_pass(xs: np.ndarray, prior) -> tuple[float, float, float | None]:
    """(first-pass mean, first-pass sd, second-pass mean) of the two-pass grid;
    the second-pass mean is None when the first-pass sd has collapsed."""
    prior_sd = math.sqrt(prior.beta / (prior.kappa * prior.alpha))
    s = float(xs.std()) if xs.size > 1 else prior_sd
    spread = 8.0 * max(s, prior_sd, 1e-8)
    lam_hi = 8.0 * max(prior.alpha / prior.beta, 1.0 / max(s * s, 1e-12))
    mu_mean, mu_var, lam_mean, lam_var = _grid_pass(
        xs,
        prior,
        min(prior.mu_hat, float(xs.min())) - spread,
        max(prior.mu_hat, float(xs.max())) + spread,
        lam_hi / (10.0 * GRID_CELLS),
        lam_hi,
    )
    mu_sd = math.sqrt(max(mu_var, 0.0))
    if mu_sd <= COLLAPSED_SD * abs(mu_mean):
        return mu_mean, mu_sd, None
    lam_sd = math.sqrt(max(lam_var, 0.0))
    fine = _grid_pass(
        xs,
        prior,
        mu_mean - 10.0 * mu_sd,
        mu_mean + 10.0 * mu_sd,
        max(lam_mean - 8.0 * lam_sd, lam_mean * 1e-3),
        lam_mean + 8.0 * lam_sd,
    )
    return mu_mean, mu_sd, fine[0]


def grid_posterior(post, xs: np.ndarray, prior) -> list[str]:
    """C3: grid posterior mean within 1e-3 relative of the conjugate mean.

    ``post`` is the oracle's result, or the ValueError it raised for a
    zero-width zoomed grid.
    """
    exact = (prior.kappa * prior.mu_hat + float(np.sum(xs))) / (prior.kappa + xs.size)
    raised = isinstance(post, ValueError)
    if not raised:
        rel = abs(post.mean - exact) / abs(exact)
        if rel <= GRID_REL_TOL:
            return []
    first_mean, first_sd, second_mean = replay_two_pass(xs, prior)
    if second_mean is None:
        known = raised or abs(post.mean - first_mean) <= 10.0 * COLLAPSED_SD * abs(first_mean)
    else:
        known = not raised and abs(post.mean - second_mean) <= REPLAY_REL_TOL * abs(exact)
    what = f"raised ValueError: {post}" if raised else f"relative gap {rel:.3g}"
    kind = "grid-bayes-coarse-collapse" if known else "grid-bayes-mean"
    return [f"{kind}: {what} with {xs.size} observations, first-pass sd {first_sd:.3g}"]


def best_response(best_value: float, base_value: float, step: float, rho: float) -> list[str]:
    """C4: no deviation on the grid beats the equilibrium by more than the bound."""
    improvement = best_value - base_value
    bound = BR_REL_TOL * abs(base_value) + (step / 2.0) ** 2 / rho
    if improvement <= bound and math.isfinite(best_value):
        return []
    return [f"best-response-bound: improvement {improvement:.3g} > bound {bound:.3g}"]
