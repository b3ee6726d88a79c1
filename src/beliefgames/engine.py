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
epoch boundaries identical across schemes).

Both schemes solve the controls for the whole run in one call of the array
kernel, at every time an RK4 stage of the stock needs them, and advance the
stock by classical RK4, whose step is affine in the stock.  One guard pass
over the run then raises the typed error of the earliest unhealthy time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .equilibrium import (
    EPS_SINGULAR,
    GameParams,
    control_kernel,
    known_state_equilibrium,
)
from .errors import (
    DegenerateDiscountError,
    NonFiniteStateError,
    SingularSystemError,
    TraceCoverageError,
)
from .kalman import KalmanBelief, step_discrete_kalman
from .normal_gamma import NormalGammaBelief, step_discrete
from .signals import (
    SignalTrace,
    TraceSeed,
    _sample_count,
    sample_cost_trace,
    sample_ecological_trace,
)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _broadcast(value, n: int, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * n
    out = tuple(float(v) for v in value)
    if len(out) != n:
        raise ValueError(f"{name} needs one entry per player, got {len(out)}")
    return out


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

    def __post_init__(self):
        n = self.params.n
        object.__setattr__(self, "tau0", _broadcast(self.tau0, n, "tau0"))
        object.__setattr__(self, "p0", _broadcast(self.p0, n, "p0"))
        object.__setattr__(self, "r", _broadcast(self.r, n, "r"))
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.kappa0 <= 0.0 or self.alpha0 <= 0.0 or self.beta0 < 0.0:
            raise ValueError("prior hyperparameters out of range")
        if any(v <= 0.0 for v in self.p0) or any(v <= 0.0 for v in self.r):
            raise ValueError("p0 and r entries must be positive")

    def motion_prior(self) -> NormalGammaBelief:
        return NormalGammaBelief(self.mu0, self.kappa0, self.alpha0, self.beta0)

    def payoff_prior(self, player: int) -> KalmanBelief:
        return KalmanBelief(self.tau0[player], self.p0[player], self.r[player])


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "continuous"
    dt_signal: float = 0.02
    h_ode: float = 0.02
    horizon: float = 10.0
    dynamics_mode: str = "realized"
    clamp_controls: bool = False
    control_refresh: str = "step"

    def __post_init__(self):
        if self.scheme not in ("continuous", "discrete"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dynamics_mode not in ("realized", "expected"):
            raise ValueError(f"unknown dynamics_mode {self.dynamics_mode!r}")
        if self.control_refresh not in ("step", "epoch"):
            raise ValueError(f"unknown control_refresh {self.control_refresh!r}")
        if self.dt_signal <= 0.0 or self.h_ode <= 0.0 or self.horizon <= 0.0:
            raise ValueError("dt_signal, h_ode, horizon must be positive")
        _exact_ratio(self.dt_signal, self.h_ode, "dt_signal/h_ode")


@dataclass(frozen=True)
class TraceSet:
    ecological: SignalTrace
    cost: tuple[SignalTrace, ...]


def default_traces(scn: Scenario, cfg: SimConfig, seed: TraceSeed | int) -> TraceSet:
    """Seeded traces for one run; stream 0 is ecological, stream j+1 is cost j."""
    base = seed.seed if isinstance(seed, TraceSeed) else int(seed)
    eco = sample_ecological_trace(
        scn.mu_true,
        scn.sigma,
        cfg.dt_signal,
        cfg.horizon,
        TraceSeed(base, 0),
        label="ecological",
    )
    cost = tuple(
        sample_cost_trace(
            scn.params.tau[j],
            scn.r[j],
            cfg.dt_signal,
            cfg.horizon,
            TraceSeed(base, j + 1),
            label=f"cost_{j + 1}",
        )
        for j in range(scn.params.n)
    )
    return TraceSet(ecological=eco, cost=cost)


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded record of the coupled run; per-player columns are 2-d."""

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
        row = ",".join(["%.17g"] * table.shape[1])
        lines = [self.header()] + [row % tuple(r) for r in table.tolist()]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _exact_ratio(total: float, step: float, what: str) -> int:
    q = total / step
    r = round(q)
    if r < 1 or abs(q - r) > 1e-9 * max(1.0, abs(q)):
        raise ValueError(f"{what}: {step} does not divide {total}")
    return int(r)


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
        if abs(tr.t0) > 1e-12:
            raise TraceCoverageError(f"trace {tr.label!r} must start at t=0")
        if len(tr) < needed:
            raise TraceCoverageError(
                f"trace {tr.label!r} has {len(tr)} samples, needs {needed} "
                f"to cover horizon {cfg.horizon}"
            )


def simulate(
    scn: Scenario,
    cfg: SimConfig,
    traces: TraceSet | None = None,
    seed: TraceSeed | int | None = None,
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
    """Belief columns on the grid plus the points where the controls are solved."""

    x_bar: np.ndarray
    beta: np.ndarray
    var_mu: np.ndarray
    tau_bar: np.ndarray
    P: np.ndarray
    t_ctrl: np.ndarray  # control points, in time order
    x_ctrl: np.ndarray
    tau_ctrl: np.ndarray
    stage: np.ndarray  # control point of the stages s = 0, h/2, h of each step
    record: np.ndarray  # control point whose u is recorded at each grid point
    x_stage: np.ndarray  # believed x at the stages, for expected dynamics


def _prefix(held: np.ndarray, prior, width: float, repeats: int, size: int):
    """Prefix sums of (held - prior) * width over ``size`` half steps, where
    each held value covers ``repeats`` half steps; row 0 is zero."""
    out = np.zeros((size + 1,) + held.shape[1:])
    steps = np.repeat((held - prior) * width, repeats, axis=0)
    np.cumsum(steps[:size], axis=0, out=out[1:])
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
    y = np.column_stack([tr.values[:used] for tr in traces.cost])
    tau0, p0, r = np.array(scn.tau0), np.array(scn.p0), np.array(scn.r)
    # Exact filter means in innovation form, from prefix sums of the held
    # signals: a signal equal to the prior mean leaves the mean bit-identical.
    x_half = _prefix(eco[:used], scn.mu0, 0.5 * h, 2 * spe, n_half)
    x_half /= scn.kappa0 + 1.0 + t_half
    x_half += scn.mu0
    tau_half = _prefix(y, tau0, 0.5 * h, 2 * spe, n_half)
    tau_half *= p0
    tau_half /= p0 * t_half[:, None] + r
    tau_half += tau0
    x_bar = x_half[::2].copy()
    # Exact beta increment per step: with K = kappa + 1 and d = x - x_bar at
    # the step start, K*d stays constant while the signal is held.
    ka = scn.kappa0 + 1.0 + t[:-1]
    kb = scn.kappa0 + 1.0 + t[1:]
    d = eco[epoch[:-1]] - x_bar[:-1]
    d_beta = 0.5 * d * d * ka * h / kb * (1.0 - 0.5 * (ka + kb) / (ka * kb))
    beta = np.cumsum(np.concatenate(([scn.beta0], d_beta)))
    kappa, alpha = scn.kappa0 + t, scn.alpha0 + 0.5 * t
    steps = np.arange(n_steps)
    stage = np.stack((2 * steps, 2 * steps + 1, 2 * steps + 2))
    x_stage = x_half[stage]
    if cfg.control_refresh == "step":
        ctrl = (t_half, x_half, tau_half)
        record = 2 * np.arange(n_steps + 1)
    else:
        # Controls frozen at the start of the epoch each step falls in.
        starts = 2 * spe * np.arange(used)
        ctrl = (t_half[starts], x_half[starts], tau_half[starts])
        stage = np.broadcast_to(epoch[:-1], stage.shape)
        record = np.concatenate(([0], epoch[:-1]))
    return _Path(
        x_bar,
        beta,
        np.where(alpha > 1.0, beta / (kappa * (alpha - 1.0)), np.nan),
        tau_half[::2].copy(),
        p0 * r / (t[:, None] * p0 + r),
        *ctrl,
        stage,
        record,
        x_stage,
    )


def _discrete_path(
    scn: Scenario, cfg: SimConfig, traces: TraceSet, t, epoch, spe: int
) -> _Path:
    n = scn.params.n
    dt = cfg.dt_signal
    eco = traces.ecological.values
    motion = scn.motion_prior()
    payoff = [scn.payoff_prior(j) for j in range(n)]
    # One row per belief state: mu_hat, beta, variance, tau_hat_j, P_j.
    states = np.full((epoch[-1] + 1, 3 + 2 * n), np.nan)
    for k in range(states.shape[0]):
        if k:
            # End of epoch k-1: absorb the signal that was held over it.
            try:
                motion = step_discrete(motion, eco[k - 1], dt)
                payoff = [
                    step_discrete_kalman(b, tr.values[k - 1], dt)
                    for b, tr in zip(payoff, traces.cost)
                ]
            except NonFiniteStateError:
                break  # the guard pass names the first grid point left without a state
        var = motion.estimator_variance() if motion.alpha > 1.0 else math.nan
        states[k] = (
            motion.mu_hat,
            motion.beta,
            var,
            *(b.tau_hat for b in payoff),
            *(b.P for b in payoff),
        )
    stage = np.broadcast_to(epoch[:-1], (3, t.size - 1))
    return _Path(
        states[epoch, 0],
        states[epoch, 1],
        states[epoch, 2],
        states[epoch, 3 : 3 + n],
        states[epoch, 3 + n :],
        t[::spe],
        states[:, 0],
        states[:, 3 : 3 + n],
        stage,
        epoch,
        states[stage, 0],
    )


def _stock(s0: float, h: float, drive: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Classical RK4 for S' = drive - lam*S on every step.

    ``drive`` and ``lam`` hold one row per stage time s = 0, h/2, h (the two
    midpoint stages share a row).  Each stage slope is affine in S, k = p + q*S,
    so the step is S_{i+1} = A_i S_i + B_i; only that recurrence is a loop.
    """
    (c1, c2, c4), (l1, l2, l4) = drive, lam
    h2 = 0.5 * h
    p1, q1 = c1, -l1
    p2, q2 = c2 - l2 * h2 * p1, -l2 * (1.0 + h2 * q1)
    p3, q3 = c2 - l2 * h2 * p2, -l2 * (1.0 + h2 * q2)
    p4, q4 = c4 - l4 * h * p3, -l4 * (1.0 + h * q3)
    sixth = h / 6.0
    gain = 1.0 + sixth * (q1 + 2.0 * (q2 + q3) + q4)
    shift = sixth * (p1 + 2.0 * (p2 + p3) + p4)

    def walk(s):
        yield s
        for a_i, b_i in zip(gain.tolist(), shift.tolist()):
            s = a_i * s + b_i
            yield s

    return np.fromiter(walk(s0), float, gain.size + 1)


def _guard(t, finite, x_bar, p: GameParams, kernel_hit) -> None:
    """Raise the typed error of the earliest unhealthy time.

    At equal t a non-finite state comes first, then the published coefficient
    1 - x_bar*delta - rho, then the kernel denominator ``kernel_hit = (t, den)``.
    """
    found = []
    if not finite.all():
        i = int(np.argmin(finite))
        msg = f"non-finite state encountered at t={t[i]:.6g}"
        found.append((t[i], 0, NonFiniteStateError(msg)))
    published = np.abs(1.0 - x_bar * p.delta - p.rho) <= EPS_SINGULAR
    if published.any():
        i = int(np.argmax(published))
        msg = f"1 - x_bar*delta - rho singular at t={t[i]:.6g} (x_bar={x_bar[i]:.6g})"
        found.append((t[i], 1, DegenerateDiscountError(msg)))
    if kernel_hit is not None:
        t_k, den = kernel_hit
        msg = f"value-slope denominator {den!r} ~ 0 at t={t_k:.6g}"
        found.append((t_k, 2, SingularSystemError(msg)))
    if found:
        raise min(found, key=lambda hit: hit[:2])[2]


def _run(scn: Scenario, cfg: SimConfig, traces: TraceSet) -> Trajectory:
    p = scn.params
    h = cfg.h_ode
    n_steps = _exact_ratio(cfg.horizon, h, "horizon/h_ode")
    spe = _exact_ratio(cfg.dt_signal, h, "dt_signal/h_ode")
    t = h * np.arange(n_steps + 1)
    epoch = np.arange(n_steps + 1) // spe
    eco = traces.ecological.values
    build = _continuous_path if cfg.scheme == "continuous" else _discrete_path
    path = build(scn, cfg, traces, t, epoch, spe)
    # Solve the controls up to the first singular kernel denominator only.
    den = 1.0 + p.rho - path.x_ctrl * p.delta
    singular = np.abs(den) <= EPS_SINGULAR
    m = int(np.argmax(singular)) if singular.any() else den.size
    u = control_kernel(p.a, p.tau, path.tau_ctrl[:m], path.x_ctrl[:m], p.delta, p.rho)
    if cfg.clamp_controls:
        u = np.where(u > 0.0, u, 0.0)
    stage = path.stage[:, : path.stage[2].searchsorted(m)]
    if cfg.dynamics_mode == "realized":
        xd = np.broadcast_to(eco[epoch[: stage.shape[1]]], stage.shape)
    else:
        xd = path.x_stage[:, : stage.shape[1]]
    S = _stock(p.s0, h, xd * u.sum(axis=1)[stage], 1.0 - xd * p.delta)
    finite = (
        np.isfinite(path.x_bar)
        & np.isfinite(path.beta)
        & np.isfinite(path.tau_bar).all(axis=1)
    )
    finite[: S.size] &= np.isfinite(S)
    kernel_hit = (path.t_ctrl[m], float(den[m])) if m < den.size else None
    _guard(t, finite, path.x_bar, p, kernel_hit)
    return Trajectory(
        t=t,
        S=S,
        x_real=eco[np.minimum(epoch, eco.size - 1)],
        x_bar=path.x_bar,
        var_mu=path.var_mu,
        tau_bar=path.tau_bar,
        P=path.P,
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
    seed: TraceSeed | int,
) -> list[SchemeGap]:
    """Run both schemes per dt on signals subsampled from one fine trace.

    One trace set is generated at the finest dt; each coarser dt receives the
    fine values at its own epochs, so both schemes at every level see
    identical signals and the gaps isolate the updating scheme.
    """
    if not dt_list:
        raise ValueError("dt_list must be non-empty")
    dt_fine = min(dt_list)
    strides = {dt: _exact_ratio(dt, dt_fine, f"dt={dt} vs dt_fine") for dt in dt_list}
    _exact_ratio(dt_fine, cfg.h_ode, "dt_fine/h_ode")
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
        return {
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "x_gap": self.x_gap,
            "tau_gap": self.tau_gap,
            "var_mu": self.var_mu,
            "p_max": self.p_max,
            "control_gap": self.control_gap,
        }


def window_diagnostics(
    traj: Trajectory, scn: Scenario, t_lo: float, t_hi: float
) -> DiagnosticsWindow:
    """Sup of |x_bar - mu|, |tau_bar - tau|, var_mu, P, and the distance of the
    controls from the full-information controls, over [t_lo, t_hi]."""
    mask = (traj.t >= t_lo - 1e-12) & (traj.t <= t_hi + 1e-12)
    if not mask.any():
        raise ValueError(f"window [{t_lo}, {t_hi}] contains no grid points")
    u_known = np.array(known_state_equilibrium(scn.params, scn.mu_true).controls)
    tau_true = np.array(scn.params.tau)
    return DiagnosticsWindow(
        t_lo=t_lo,
        t_hi=t_hi,
        x_gap=float(np.max(np.abs(traj.x_bar[mask] - scn.mu_true))),
        tau_gap=float(np.max(np.abs(traj.tau_bar[mask] - tau_true))),
        var_mu=float(np.max(traj.var_mu[mask])),
        p_max=float(np.max(traj.P[mask])),
        control_gap=float(np.max(np.abs(traj.u[mask] - u_known))),
    )


def convergence_diagnostics(
    traj: Trajectory, scn: Scenario, tail_fraction: float = 0.05
) -> DiagnosticsWindow:
    """Diagnostics over the trailing ``tail_fraction`` of the horizon."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    t_end = float(traj.t[-1])
    return window_diagnostics(traj, scn, t_end * (1.0 - tail_fraction), t_end)


@dataclass(frozen=True)
class PayoffEstimate:
    value: float
    tail_bound: float


def discounted_payoff(
    traj: Trajectory, p: GameParams, player: int, t_trunc: float
) -> PayoffEstimate:
    """Truncated discounted payoff of one player by trapezoid quadrature.

    The tail bound is exp(-rho*t_trunc) * C / rho with C the largest
    instantaneous-payoff magnitude observed anywhere on the trajectory.
    """
    if t_trunc > traj.t[-1] + 1e-9:
        raise ValueError("t_trunc exceeds the simulated horizon")
    total_u = traj.u.sum(axis=1)
    g_full = traj.u[:, player] * (p.a[player] - total_u) - p.tau[player] * traj.S
    mask = traj.t <= t_trunc + 1e-12
    t = traj.t[mask]
    value = float(_trapezoid(np.exp(-p.rho * t) * g_full[mask], t))
    c_bound = float(np.max(np.abs(g_full)))
    tail = math.exp(-p.rho * t_trunc) * c_bound / p.rho
    return PayoffEstimate(value=value, tail_bound=tail)
