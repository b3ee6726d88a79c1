"""Coupled simulation: pollution stock, belief filters, equilibrium controls.

The filters evolve autonomously from the signal traces, the controls are a
function of the current beliefs only (linear-state game), and the stock
integrates the controls.  Signals are zero-order-hold and the step size
divides the hold interval, so no step straddles a signal jump.

Two updating schemes are supported.  "continuous" uses the exact solutions
of the belief ODEs: with the signal held, the Normal-Gamma mean and the
Kalman-Bucy mean are rational functions of the signal prefix sums, and beta
has an exact increment per step.  "discrete" applies Euler jumps once per
signal epoch (at the end of each hold interval, which keeps kappa/alpha at
epoch boundaries equal across schemes), in closed form too: both means are
prefix sums of the held signals and beta is one cumulative sum.  Only the
Kalman error variance, whose jump does not depend on the signals, is a loop,
one per player.  Neither scheme calls ``normal_gamma`` or ``kalman``; their
integrators and Euler steps stay the standalone API and the references that
``verify`` and the tests compare the engine against.

Both schemes solve the controls for the whole run in one call of the array
kernel, at every time an RK4 stage of the stock needs them, and advance the
stock S' = drive - lam*S by the RK4 for affine ODEs that ``belief_path`` and
``kalman_path`` use too (``signals._affine_rk4``).  One guard pass over the
run then raises the typed error of the earliest unhealthy time.

Inside the engine the per-player columns (tau_hat and P) are player-major,
shape (n, T), so every numpy pass over them runs along a contiguous row of
one player; with few players a time-major (T, n) array would make each pass
a long loop of length-n inner loops.  The kernel reads them through a (T, n)
view, and ``Trajectory`` receives (T, n) views, its public shape.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .equilibrium import (
    EPS_SINGULAR,
    GameParams,
    control_kernel,
    known_state_equilibrium,
    violations,
)
from .errors import (
    NonFiniteStateError,
    SingularSystemError,
    TraceCoverageError,
    UndefinedVarianceError,
)
from .signals import (
    SignalTrace,
    _affine_rk4,
    _sample_count,
    _step_count,
    _write_csv,
    sample_cost_trace,
    sample_ecological_trace,
)

def _broadcast(value, n: int, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * n
    out = tuple(float(v) for v in value)
    if len(out) != n:
        raise ValueError(f"{name} needs one entry per player, got {len(out)}")
    return out


def _finite_var_mu0(kappa0, alpha0, beta0):
    # var_mu at t = 0; a kappa0 or alpha0 out of range breaks its own rule.
    den = kappa0 * (alpha0 - 1.0)
    return alpha0 <= 1.0 or kappa0 <= 0.0 or (den > 0.0 and math.isfinite(beta0 / den))


@dataclass(frozen=True)
class Scenario:
    """Game constants plus the true signal laws and the belief priors."""

    params: GameParams
    mu_true: float
    sigma: float
    mu0: float = 0.0
    kappa0: float = 1.0
    alpha0: float = 2.0
    beta0: float = 1.0
    tau0: tuple[float, ...] | float = 0.0
    p0: tuple[float, ...] | float = 1.0
    r: tuple[float, ...] | float = 0.25

    RULES = (
        (("sigma",), lambda x: x > 0.0, "must be positive, got {}"),
        (("r",), lambda v: min(v) > 0.0, "entries must be positive"),
        (("kappa0",), lambda x: x > 0.0, "must be positive, got {}"),
        (("alpha0",), lambda x: x > 1.0,
         "must exceed 1 so the estimator variance is defined from t=0, got {}"),
        (("beta0",), lambda x: x >= 0.0, "must be non-negative, got {}"),
        (("p0",), lambda v: min(v) > 0.0, "entries must be positive"),
        (("kappa0", "alpha0", "beta0"), _finite_var_mu0, "the prior's var_mu = beta0 / "
         "(kappa0 (alpha0 - 1)) must be finite, got {2} / ({0} ({1} - 1))"),
    )

    def __post_init__(self):
        n = self.params.n
        object.__setattr__(self, "tau0", _broadcast(self.tau0, n, "tau0"))
        object.__setattr__(self, "p0", _broadcast(self.p0, n, "p0"))
        object.__setattr__(self, "r", _broadcast(self.r, n, "r"))
        for key, message in violations(self.RULES, vars(self)):
            raise ValueError(f"{key}: {message}")


SCHEMES = ("continuous", "discrete")
DYNAMICS_MODES = ("realized", "expected")


def _divides(h, total):
    # A step or total that is not positive breaks a positivity rule instead.
    try:
        return h <= 0.0 or total <= 0.0 or _step_count(total, h, "") > 0
    except ValueError:
        return False


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "continuous"
    dt_signal: float = 0.02
    h_ode: float = 0.02
    horizon: float = 10.0
    dynamics_mode: str = "realized"
    clamp_controls: bool = False

    RULES = tuple(
        ((key,), words.__contains__, f"expected one of {words}, got {{!r}}")
        for key, words in (("scheme", SCHEMES), ("dynamics_mode", DYNAMICS_MODES))
    ) + (
        (("dt_signal",), lambda x: x > 0.0, "must be positive, got {}"),
        (("h_ode",), lambda x: x > 0.0, "must be positive, got {}"),
        (("horizon",), lambda x: x > 0.0, "must be positive, got {}"),
        (("h_ode", "dt_signal"), _divides, "{} does not divide {}"),
        (("h_ode", "horizon"), _divides, "{} does not divide {}"),
    )

    def __post_init__(self):
        for key, message in violations(self.RULES, vars(self)):
            raise ValueError(f"{key}: {message}")


@dataclass(frozen=True)
class TraceSet:
    ecological: SignalTrace
    cost: tuple[SignalTrace, ...]


def default_traces(scn: Scenario, cfg: SimConfig, seed: int) -> TraceSet:
    """Seeded traces for one run; stream 0 is ecological, stream j+1 is cost j."""
    grid = (cfg.dt_signal, cfg.horizon, seed)
    eco = sample_ecological_trace(scn.mu_true, scn.sigma, *grid, 0, label="ecological")
    cost = tuple(
        sample_cost_trace(scn.params.tau[j], scn.r[j], *grid, j + 1, label=f"cost_{j + 1}")
        for j in range(scn.params.n)
    )
    return TraceSet(ecological=eco, cost=cost)


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded record of the coupled run; per-player columns are (T, n)."""

    t: np.ndarray
    S: np.ndarray
    x_real: np.ndarray
    x_bar: np.ndarray
    var_mu: np.ndarray
    tau_bar: np.ndarray
    P: np.ndarray
    u: np.ndarray

    @property
    def n_players(self) -> int:
        return self.tau_bar.shape[1]

    def header(self) -> str:
        n = self.n_players
        cols = ["t", "S", "x_real", "x_bar", "var_mu"]
        cols += [f"tau_bar_{j + 1}" for j in range(n)]
        cols += [f"P_{j + 1}" for j in range(n)]
        cols += [f"u_{j + 1}" for j in range(n)]
        return ",".join(cols)

    def to_csv(self, path: str | Path) -> None:
        columns = (self.t, self.S, self.x_real, self.x_bar, self.var_mu)
        table = np.column_stack(columns + (self.tau_bar, self.P, self.u))
        _write_csv(path, [self.header()], table)


def _validate_traces(traces: TraceSet, cfg: SimConfig, n: int) -> None:
    needed = _sample_count(cfg.horizon, cfg.dt_signal)
    all_traces = (traces.ecological,) + tuple(traces.cost)
    if len(traces.cost) != n:
        raise ValueError(f"need {n} cost traces, got {len(traces.cost)}")
    for tr in all_traces:
        if abs(tr.dt - cfg.dt_signal) > 1e-9 * cfg.dt_signal:
            raise TraceCoverageError(
                f"trace {tr.label!r} hold interval {tr.dt} != dt_signal {cfg.dt_signal}"
            )
        if len(tr) < needed:
            raise TraceCoverageError(
                f"trace {tr.label!r} has {len(tr)} samples, needs {needed} "
                f"to cover horizon {cfg.horizon}"
            )


def simulate(
    scn: Scenario,
    cfg: SimConfig,
    traces: TraceSet | None = None,
    seed: int | None = None,
) -> Trajectory:
    """Advance the coupled system over the horizon.

    Exactly one of ``traces`` and ``seed`` must be given.  The controls are
    re-solved from the current beliefs at every stock stage; the stock uses the
    realized signal x(t) in "realized" mode or the current estimate in
    "expected" mode.
    """
    if (traces is None) == (seed is None):
        raise ValueError("provide exactly one of traces= or seed=")
    if traces is None:
        traces = default_traces(scn, cfg, seed)
    _validate_traces(traces, cfg, scn.params.n)
    # Non-finite values are reported by the guard pass, with their time.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _run(scn, cfg, traces)


class _Path(NamedTuple):
    """What differs between the schemes: the filter means at the control
    points, the maps from the stock stages and the grid to those points, and
    the other belief columns on the grid.  Per-player columns are
    player-major, one contiguous row of shape (n, T) per player."""

    beta: np.ndarray
    kappa: np.ndarray
    alpha: np.ndarray
    P: np.ndarray  # (n, grid points)
    t_ctrl: np.ndarray  # control points, in time order
    x_ctrl: np.ndarray
    tau_ctrl: np.ndarray  # (n, control points)
    stage: np.ndarray  # control point of the stages s = 0, h/2, h of each step
    record: np.ndarray  # control point of each grid point


def _prefix(held: np.ndarray, prior, width, repeats: int, size: int):
    """Prefix sums of (held - prior) * width over ``size`` steps, along the
    last axis, where each held value covers ``repeats`` steps; entry 0 is
    zero.  ``width`` is the step length, or one weight per held value."""
    out = np.zeros(held.shape[:-1] + (size + 1,))
    steps = np.repeat((held - prior) * width, repeats, axis=-1)
    np.cumsum(steps[..., :size], axis=-1, out=out[..., 1:])
    return out


def _continuous_path(
    scn: Scenario, cfg: SimConfig, traces: TraceSet, t, epoch, spe: int
) -> _Path:
    h = cfg.h_ode
    n_steps = t.size - 1
    n_half = 2 * n_steps
    t_half = np.arange(n_half + 1) * (0.5 * h)
    used = epoch[-2] + 1  # epochs the steps fall in
    eco = traces.ecological.values
    y = np.stack([tr.values[:used] for tr in traces.cost])
    tau0, p0, r = (np.array(v)[:, None] for v in (scn.tau0, scn.p0, scn.r))
    # Exact filter means in innovation form, from prefix sums of the held
    # signals: a signal equal to the prior mean leaves the mean bit-identical.
    x_half = _prefix(eco[:used], scn.mu0, 0.5 * h, 2 * spe, n_half)
    x_half /= scn.kappa0 + 1.0 + t_half
    x_half += scn.mu0
    tau_half = _prefix(y, tau0, 0.5 * h, 2 * spe, n_half)
    tau_half *= p0
    tau_half /= p0 * t_half + r
    tau_half += tau0
    # Exact beta increment per step: with K = kappa + 1 and d = x - x_bar at
    # the step start, K*d stays constant while the signal is held.
    ka = scn.kappa0 + 1.0 + t[:-1]
    kb = scn.kappa0 + 1.0 + t[1:]
    d = eco[epoch[:-1]] - x_half[:-1:2]
    d_beta = 0.5 * d * d * ka * h / kb * (1.0 - 0.5 * (ka + kb) / (ka * kb))
    steps = np.arange(n_steps)
    return _Path(
        np.cumsum(np.concatenate(([scn.beta0], d_beta))),
        scn.kappa0 + t,
        scn.alpha0 + 0.5 * t,
        p0 * r / (t * p0 + r),
        t_half,
        x_half,
        tau_half,
        np.stack((2 * steps, 2 * steps + 1, 2 * steps + 2)),
        2 * np.arange(n_steps + 1),
    )


def _discrete_path(
    scn: Scenario, cfg: SimConfig, traces: TraceSet, t, epoch, spe: int
) -> _Path:
    dt = cfg.dt_signal
    used = epoch[-1]  # epochs that end within the horizon
    # The Euler jumps in closed form, one belief state per epoch boundary k.
    # The mean jump telescopes, since kappa_k + 1 - dt = kappa_{k-1} + 1, to
    # x_bar_k = mu0 + dt sum_{j<k} (x_j - mu0) / (kappa_{k-1} + 1).
    kappa = scn.kappa0 + dt * np.arange(used + 1)
    eco = traces.ecological.values[:used]
    x_bar = _prefix(eco, scn.mu0, dt, 1, used)
    x_bar[1:] /= kappa[:-1] + 1.0
    x_bar += scn.mu0
    e = eco - x_bar[:-1]
    d_beta = dt * kappa[:-1] * e * e / (2.0 * (kappa[:-1] + 1.0))
    # P_{k+1} = P_k (1 - dt P_k / r) does not depend on the signals; dividing
    # the Kalman mean jump by it telescopes the mean to
    # tau_k = tau0 + P_k dt sum_{j<k} (y_j - tau0) / (r - dt P_j).  Players
    # that share (p0, r) share the recursion.
    rows = {}
    for p, r_j in zip(scn.p0, scn.r):
        if (p, r_j) not in rows:
            row = rows[p, r_j] = [p]
            for _ in range(used):
                p *= 1.0 - dt * p / r_j
                row.append(p)
    P = np.array([rows[key] for key in zip(scn.p0, scn.r)])
    y = np.stack([c.values[:used] for c in traces.cost])
    tau0, r = (np.array(v)[:, None] for v in (scn.tau0, scn.r))
    tau = _prefix(y, tau0, dt / (r - dt * P[:, :-1]), 1, used)
    tau *= P
    tau += tau0
    return _Path(
        np.cumsum(np.concatenate(([scn.beta0], d_beta)))[epoch],
        kappa[epoch],
        scn.alpha0 + 0.5 * dt * epoch,
        P[:, epoch],
        t[::spe],
        x_bar,
        tau,
        np.broadcast_to(epoch[:-1], (3, t.size - 1)),
        epoch,
    )


def _guard(t, finite, P, kernel_hit) -> None:
    """Raise the typed error of the earliest unhealthy time.

    At equal t an error variance P_j that is not positive (a discrete Kalman
    step with dt*P_j/R_j >= 1, which at equality also turns tau_hat_j NaN)
    comes first, then a non-finite state, then the kernel denominator
    ``kernel_hit = (t, den)``.
    """
    found = []
    if not finite.all():
        i = int(np.argmin(finite))
        msg = f"non-finite state encountered at t={t[i]:.6g}"
        found.append((t[i], 1, NonFiniteStateError(msg)))
    not_positive = P <= 0.0
    if not_positive.any():
        # Transposed, the first hit is the earliest t, then the lowest j.
        i, j = np.argwhere(not_positive.T)[0]
        msg = f"error variance P_{j + 1}={P[j, i]} not positive at t={t[i]:.6g}"
        found.append((t[i], 0, UndefinedVarianceError(msg)))
    if kernel_hit is not None:
        t_k, den = kernel_hit
        msg = f"value-slope denominator {den!r} ~ 0 at t={t_k:.6g}"
        found.append((t_k, 2, SingularSystemError(msg)))
    if found:
        raise min(found, key=lambda hit: hit[:2])[2]


def _run(scn: Scenario, cfg: SimConfig, traces: TraceSet) -> Trajectory:
    p = scn.params
    h = cfg.h_ode
    n_steps = _step_count(cfg.horizon, h, "horizon/h_ode")
    spe = _step_count(cfg.dt_signal, h, "dt_signal/h_ode")
    t = h * np.arange(n_steps + 1)
    epoch = np.arange(n_steps + 1) // spe
    eco = traces.ecological.values
    build = _continuous_path if cfg.scheme == "continuous" else _discrete_path
    path = build(scn, cfg, traces, t, epoch, spe)
    x_bar, tau_bar = path.x_ctrl[path.record], path.tau_ctrl[:, path.record]
    # Solve the controls up to the first singular kernel denominator only.
    den = 1.0 + p.rho - path.x_ctrl * p.delta
    singular = np.abs(den) <= EPS_SINGULAR
    m = int(np.argmax(singular)) if singular.any() else den.size
    # A (T, n) view of the player-major columns, so each tau_bar[..., i] the
    # kernel reads is contiguous.  u stays C-ordered (T, n): numpy sums a
    # contiguous axis in sequence only below 8 entries, so a player-major u
    # would change the bits of its row sums from n = 8 up.
    tau_ctrl = path.tau_ctrl[:, :m].T
    u = control_kernel(p.a, p.tau, tau_ctrl, path.x_ctrl[:m], p.delta, p.rho)
    if cfg.clamp_controls:
        u = np.where(u > 0.0, u, 0.0)
    stage = path.stage[:, : path.stage[2].searchsorted(m)]
    if cfg.dynamics_mode == "realized":
        xd = np.broadcast_to(eco[epoch[: stage.shape[1]]], stage.shape)
    else:
        xd = path.x_ctrl[stage]
    S = _affine_rk4(p.s0, h, xd * u.sum(axis=1)[stage], 1.0 - xd * p.delta)
    var_mu = path.beta / (path.kappa * (path.alpha - 1.0))
    finite = (
        np.isfinite(x_bar) & np.isfinite(var_mu) & np.isfinite(tau_bar).all(axis=0)
    )
    finite[: S.size] &= np.isfinite(S)
    kernel_hit = (path.t_ctrl[m], float(den[m])) if m < den.size else None
    _guard(t, finite, path.P, kernel_hit)
    return Trajectory(
        t=t,
        S=S,
        x_real=eco[np.minimum(epoch, eco.size - 1)],
        x_bar=x_bar,
        var_mu=var_mu,
        tau_bar=tau_bar.T,
        P=path.P.T,
        u=u[path.record],
    )


@dataclass(frozen=True)
class SchemeGap:
    """Sup-norm gaps between the discrete and continuous runs for one dt."""

    dt_signal: float
    x_bar: float
    tau_bar: float
    u: float
    stock: float


def compare_schemes(
    scn: Scenario,
    cfg: SimConfig,
    dt_list: list[float],
    seed: int,
) -> list[SchemeGap]:
    """Run both schemes per dt on signals subsampled from one fine trace.

    One trace set is generated at the finest dt; each coarser dt receives the
    fine values at its own epochs, so both schemes at every level see
    identical signals and the gaps isolate the updating scheme.
    """
    if not dt_list:
        raise ValueError("dt_list must be non-empty")
    for i, dt in enumerate(dt_list):
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError(f"dt={dt}: must be positive and finite")
        if dt in dt_list[:i]:
            raise ValueError(f"dt={dt}: listed twice; the intervals must be distinct")
    dt_fine = min(dt_list)
    strides = {dt: _step_count(dt, dt_fine, f"dt={dt} vs dt_fine") for dt in dt_list}
    fine = default_traces(scn, replace(cfg, dt_signal=dt_fine), seed)
    rows = []
    for dt in dt_list:
        stride = strides[dt]
        tset = TraceSet(
            ecological=fine.ecological.subsample(stride),
            cost=tuple(c.subsample(stride) for c in fine.cost),
        )
        cfg_dt = replace(cfg, dt_signal=dt)
        cont = simulate(scn, replace(cfg_dt, scheme="continuous"), traces=tset)
        disc = simulate(scn, replace(cfg_dt, scheme="discrete"), traces=tset)
        rows.append(
            SchemeGap(
                dt_signal=dt,
                x_bar=float(np.max(np.abs(cont.x_bar - disc.x_bar))),
                tau_bar=float(np.max(np.abs(cont.tau_bar - disc.tau_bar))),
                u=float(np.max(np.abs(cont.u - disc.u))),
                stock=float(np.max(np.abs(cont.S - disc.S))),
            )
        )
    return rows


@dataclass(frozen=True)
class DiagnosticsWindow:
    """Sup-norm convergence gaps over one time window of a trajectory."""

    t_lo: float
    t_hi: float
    x_gap: float
    tau_gap: float
    var_mu: float
    p_max: float
    control_gap: float

    def as_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=16)
def _known_controls(params: GameParams, mu_true: float) -> tuple[float, ...]:
    # They depend on the scenario alone, and a seed sweep asks for them in
    # every window of every seed.
    return known_state_equilibrium(params, mu_true).controls


def window_diagnostics(
    traj: Trajectory, scn: Scenario, t_lo: float, t_hi: float
) -> DiagnosticsWindow:
    """Sup of |x_bar - mu|, |tau_bar - tau|, var_mu, P, and the distance of the
    controls from the full-information controls, over the grid points within
    1e-12 of [t_lo, t_hi].  ``traj.t`` increases, as on every ``simulate``
    grid, so those points are one slice of the run."""
    lo = traj.t.searchsorted(t_lo - 1e-12, "left")
    hi = traj.t.searchsorted(t_hi + 1e-12, "right")
    if lo >= hi or math.isnan(t_hi):
        raise ValueError(f"window [{t_lo}, {t_hi}] contains no grid points")
    window = slice(lo, hi)
    u_known = np.array(_known_controls(scn.params, scn.mu_true))
    tau_true = np.array(scn.params.tau)
    return DiagnosticsWindow(
        t_lo=t_lo,
        t_hi=t_hi,
        x_gap=float(np.max(np.abs(traj.x_bar[window] - scn.mu_true))),
        tau_gap=float(np.max(np.abs(traj.tau_bar[window] - tau_true))),
        var_mu=float(np.max(traj.var_mu[window])),
        p_max=float(np.max(traj.P[window])),
        control_gap=float(np.max(np.abs(traj.u[window] - u_known))),
    )
